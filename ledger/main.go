// Command ledger is the qpgc benchmark: it serves a generated graph from an
// in-process server.Server over loopback TCP, drives it through
// server.Client, checks every answer against a reference computed on the
// uncompressed graph, and prints every metric by name and unit. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. See README.md for the workloads and the
// metric map.
//
// Usage, from the repository root:
//
//	bash ledger/run.sh --workload point-wire --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"syscall"
	"time"

	"repro/internal/gen"
	"repro/internal/pattern"
	"repro/internal/store"
)

const (
	// graphSeed fixes each workload's graph, pattern queries and write
	// stream; the run's seed draws the reachability query pairs. The
	// quotients of generated graphs, and the costs of generated patterns
	// and write batches, vary from seed to seed by more than the bounds a
	// run must hold.
	graphSeed = 1
	// batchPairs is wider than one 64-lane wave, so batch reads take the
	// multi-wave scheduler path rather than repeating the point-read cost.
	batchPairs = 4096
	// writeBatch is the number of edge updates per write request.
	writeBatch = 16
	// writeRate is write-mixed's open-loop rate in batches per second.
	// One citHepTh batch costs about 150 ms beside the reader; at 5/s the
	// generator already ran behind its margin.
	writeRate = 4.0
	// checkpointBatches makes several background checkpoints land in a
	// write-mixed run; the store's default of 256 would land none.
	checkpointBatches = 16
	// conns is the number of client connections: one per CPU of the
	// 2-vCPU machine the benchmark is sized for.
	conns = 2
	// setupReps is how many times a run sets the store up; setup_s and
	// heap_mb report the median.
	setupReps = 7
	// classBand bounds how far write-mixed's reachability class count may
	// drift from its start before the run is flagged as not stationary.
	classBand = 0.2
	// lateMarginMs bounds the p90 lateness of write-mixed's generator.
	lateMarginMs = 50.0
	// pointPool and batchPool size the pregenerated read inputs.
	pointPool = 1 << 16
	batchPool = 16
	// patternPool is the number of pattern queries.
	patternPool = 32
	// probeOps is the least number of requests a probe sends.
	probeOps = 48
	// matchCheckEvery checks the first pass over the pattern pool and
	// every matchCheckEvery-th pass after it.
	matchCheckEvery = 8
)

// patternSpec is the pattern-query shape: 4 nodes, 5 edges, bounds <= 3.
var patternSpec = gen.PatternSpec{Nodes: 4, Edges: 5, K: 3}

// workload fixes a dataset and the request classes its timed phase drives.
// Classes the timed phase does not drive are measured by short probes
// around it (reads before, writes after), so every workload reports every
// end-to-end metric while the timed phase stays as described.
type workload struct {
	dataset string
	drives  [numClasses]bool
}

var workloads = map[string]workload{
	"point-wire":  {dataset: "socEpinions", drives: [numClasses]bool{classReach: true}},
	"batch-scan":  {dataset: "NotreDame", drives: [numClasses]bool{classBatch: true}},
	"write-mixed": {dataset: "citHepTh", drives: [numClasses]bool{classBatch: true, classMatch: true, classApply: true}},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "point-wire, batch-scan or write-mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	spans := flag.String("spans", "", "span file of a traced run (default .bench_build/spans/<workload>-<seed>.tsv)")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "ledger: need --workload point-wire|batch-scan|write-mixed, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	if *spans == "" {
		*spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.tsv", *name, *seed))
	}
	// A run must end within 180 s; a hang is reported, not waited out.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "ledger: run exceeded 170s")
		os.Exit(3)
	})
	r, err := newRun(*name, wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(r.dir)
	printJSON(map[string]any{"provenance": r.provenance()})
	if err := r.execute(*spans); err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.RemoveAll(r.dir)
		os.Exit(1)
	}
	res := result{
		Correct:   r.wrong.Load() == 0 && r.failed.Load() == 0,
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   r.metrics,
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-32s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	printJSON(res)
	if !res.Correct {
		os.RemoveAll(r.dir)
		os.Exit(1)
	}
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(b))
}

// provenance records what the numbers were measured on.
func (r *run) provenance() map[string]any {
	rev, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	return map[string]any{
		"workload": r.name, "dataset": r.wl.dataset, "seed": r.seed,
		"seconds": r.secs.Seconds(), "trace": r.trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "revision": rev, "dirty": dirty,
		"write_rate_per_s": writeRate, "checkpoint_batches": checkpointBatches,
		"sync": "always", "data_fs": fsName(r.dir),
	}
}

// fsName names the filesystem holding dir.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x794C7630: "overlay",
		0x9123683E: "btrfs", 0x65735546: "fuse", 0x6969: "nfs", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// newRun generates every input from the seed before anything is timed.
func newRun(name string, wl workload, seed int64, secs time.Duration, trace bool) (*run, error) {
	ds, ok := gen.DatasetByName(wl.dataset)
	if !ok {
		return nil, fmt.Errorf("unknown dataset %s", wl.dataset)
	}
	if err := os.MkdirAll(filepath.Join(".bench_build", "tmp"), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(".bench_build", "tmp"), "data-")
	if err != nil {
		return nil, err
	}
	r := &run{name: name, wl: wl, seed: seed, secs: secs, trace: trace, dir: dir, metrics: map[string]metric{}}
	r.g0 = ds.Build(graphSeed)
	fixed := rand.New(rand.NewSource(graphSeed))
	ch := newChurn(fixed, r.g0)
	n := r.g0.NumNodes()
	r.ref = newClosure(r.g0)
	rng := rand.New(rand.NewSource(seed))
	r.points = randomPairs(rng, n, pointPool)
	for i := 0; i < batchPool; i++ {
		r.batches = append(r.batches, randomPairs(rng, n, batchPairs))
	}
	for i := 0; i < patternPool; i++ {
		r.pats = append(r.pats, gen.Pattern(fixed, r.g0, patternSpec))
	}
	if !wl.drives[classMatch] {
		// Static workloads check sampled Match answers against the graph
		// as served.
		for _, p := range r.pats {
			r.patWant = append(r.patWant, pattern.Match(r.g0, p))
		}
	}
	// The write stream: enough for write-mixed's open loop over the whole
	// timed phase, or for a closed-loop probe of the write path.
	nw := int(writeRate*secs.Seconds()) + 2
	if !wl.drives[classApply] {
		nw = 512
	}
	for i := 0; i < nw; i++ {
		r.writes = append(r.writes, ch.next())
	}
	if trace {
		r.rec = newRecorder(1 << 20)
	}
	return r, nil
}

func (r *run) storeOptions(dir string) *store.Options {
	return &store.Options{
		Indexes: true, Dir: dir, Sync: store.SyncAlways,
		CheckpointBatches: checkpointBatches,
	}
}

// percentile interpolates the q-quantile of xs (which it sorts).
func percentile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return float64(xs[len(xs)-1])
	}
	f := pos - float64(i)
	return float64(xs[i])*(1-f) + float64(xs[i+1])*f
}

func medianF(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (r *run) put(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }
