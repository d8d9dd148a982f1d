package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/server"
	"repro/internal/store"
)

// tally is what one loop measured for one request class.
type tally struct {
	lat     []int64 // per-request latency, ns
	pairs   int     // reachability pairs answered
	elapsed time.Duration
	// winPairs and winBusy are the pairs answered and the response wait
	// of the requests completing in each window of the phase.
	winPairs []int
	winBusy  []int64
}

// window is the interval throughput is counted over. Throughput metrics
// report the median window, so a short stall of the machine moves them
// no more than it moves a median latency.
const window = 100 * time.Millisecond

// note records one request that completed at since into the phase.
func (t *tally) note(since, lat time.Duration, pairs int) {
	t.lat = append(t.lat, int64(lat))
	t.pairs += pairs
	i := int(since / window)
	t.grow(i + 1)
	t.winPairs[i] += pairs
	t.winBusy[i] += int64(lat)
}

func (t *tally) grow(n int) {
	for len(t.winPairs) < n {
		t.winPairs = append(t.winPairs, 0)
		t.winBusy = append(t.winBusy, 0)
	}
}

// merge adds another connection's tally of the same phase.
func (t *tally) merge(o tally) {
	t.lat = append(t.lat, o.lat...)
	t.pairs += o.pairs
	t.grow(len(o.winPairs))
	for i := range o.winPairs {
		t.winPairs[i] += o.winPairs[i]
		t.winBusy[i] += o.winBusy[i]
	}
}

// rate is the median over the phase's whole windows of the pairs
// answered per second of wall time, or, with busy, per second spent
// waiting for this class's responses.
func (t *tally) rate(d time.Duration, busy bool) float64 {
	var xs []float64
	for i := 0; i < int(d/window) && i < len(t.winPairs); i++ {
		if busy {
			xs = append(xs, ratio(float64(t.winPairs[i]), time.Duration(t.winBusy[i]).Seconds()))
		} else {
			xs = append(xs, float64(t.winPairs[i])/window.Seconds())
		}
	}
	return medianF(xs)
}

// batchRead and matchRead are write-mixed reads kept for the check after
// the timed phase, when the mirror graph replays the acked writes.
// epoch is the stamp the response carried; hi bounds the epoch the store
// could have answered at: the number of writes sent when it arrived.
type batchRead struct {
	epoch, hi uint64
	batch     int
	ans       []uint64 // answers packed 64 to a word
}

type matchRead struct {
	epoch, hi uint64
	pat       int
	res       *pattern.Result
}

type run struct {
	name  string
	wl    workload
	seed  int64
	secs  time.Duration
	trace bool
	dir   string

	g0      *graph.Graph
	ref     *closure
	points  pairBatch
	batches []pairBatch
	pats    []*pattern.Pattern
	patWant []*pattern.Result
	writes  [][]graph.Update

	st      *store.Store
	srv     *server.Server
	clients []*server.Client
	tb      *timedBackend
	rec     *recorder
	dataDir string

	// res[0] holds untraced tallies, res[1] traced ones.
	res        [2][numClasses]tally
	nextWrite  int
	lastAck    atomic.Uint64
	sent       atomic.Uint64
	stale      int
	late       []int64
	reads      []batchRead
	matchReads []matchRead

	attempted, failed, wrong atomic.Int64
	metrics                  map[string]metric
}

// fail counts one failed request; wrong marks a wrong answer as opposed
// to an error.
func (r *run) fail(wrong bool, format string, args ...any) {
	r.failed.Add(1)
	if wrong {
		r.wrong.Add(1)
	}
	if r.failed.Load() <= 5 {
		fmt.Fprintf(os.Stderr, "ledger: "+format+"\n", args...)
	}
}

// execute runs set-up, probes, the timed phase, the checks and, when
// tracing, the layer replays.
func (r *run) execute(spanPath string) error {
	if err := r.setup(); err != nil {
		return err
	}
	start := r.st.Stats()
	// A probe runs for a fifth of the timed phase and at least probeOps
	// requests, so even slow writes leave a p90 with a few samples past it.
	probe := max(time.Second, r.secs/5)
	traced := 0
	if r.trace {
		traced = 1
		r.rec.on.Store(true)
	}
	for _, c := range []class{classReach, classBatch, classMatch} {
		if !r.wl.drives[c] {
			r.res[traced][c] = r.loop(c, probe, probeOps)
		}
	}

	s0 := r.st.SchedStats()
	if r.trace {
		r.rec.on.Store(false)
		m0 := readRuntime()
		r.keep(0, r.main(r.secs/2))
		r.runtimeMetrics(m0, readRuntime(), r.res[0])
		r.rec.on.Store(true)
		r.keep(1, r.main(r.secs-r.secs/2))
	} else {
		r.keep(0, r.main(r.secs))
	}
	s1 := r.st.SchedStats()

	if !r.wl.drives[classApply] {
		r.res[traced][classApply] = r.loop(classApply, probe, probeOps)
	}
	end := r.st.Stats()
	if r.rec != nil {
		r.rec.on.Store(false)
	}

	mirror := r.checkRecorded()
	recoverS, err := r.durability(mirror)
	if err != nil {
		return err
	}
	r.checkValidity(start, end)
	if !r.trace {
		r.endToEnd()
		r.closeStore()
		return nil
	}
	r.put("store.recover_s", recoverS, "s")
	r.unsteady()
	r.schedMetrics(s0, s1)
	r.put("store.reach_classes_start", float64(start.ReachClasses), "count")
	r.put("store.reach_classes_end", float64(end.ReachClasses), "count")
	r.put("store.pattern_classes_start", float64(start.PatternClasses), "count")
	r.put("store.pattern_classes_end", float64(end.PatternClasses), "count")
	r.spanMetrics(spanPath)
	err = r.replay(mirror)
	r.closeStore()
	return err
}

// closeStore closes the reopened store; a failure, such as a background
// checkpoint that did not land, counts against the run.
func (r *run) closeStore() {
	if err := r.st.Close(); err != nil {
		r.fail(false, "close: %v", err)
	}
}

// keep stores the tallies of the classes the timed phase drives; the
// others come from the probes.
func (r *run) keep(traced int, t [numClasses]tally) {
	for c := range t {
		if r.wl.drives[c] {
			r.res[traced][c] = t[c]
		}
	}
}

// setup opens the store on a fresh copy of the graph, starts the server,
// dials the clients and checks a first answer, setupReps times; all but
// the last set-up are torn down. setup_s and heap_mb are medians.
func (r *run) setup() error {
	var times, heaps []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			r.teardown()
			os.RemoveAll(r.dataDir)
		}
		r.dataDir = fmt.Sprintf("%s/store-%d", r.dir, i)
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		g := r.g0.Clone()
		p := r.points
		t0 := time.Now()
		st, err := store.Open(g, r.storeOptions(r.dataDir))
		if err != nil {
			return fmt.Errorf("open store: %w", err)
		}
		r.st = st
		be := server.NewStoreBackend(st)
		if r.trace {
			r.tb = &timedBackend{Backend: be, s: st, rec: r.rec}
			be = r.tb
		}
		r.srv, err = server.Start("127.0.0.1:0", server.Options{Backend: be})
		if err != nil {
			return fmt.Errorf("start server: %w", err)
		}
		for j := 0; j < conns; j++ {
			c, err := server.Dial(r.srv.Addr())
			if err != nil {
				return fmt.Errorf("dial: %w", err)
			}
			c.SetTimeout(30 * time.Second)
			r.clients = append(r.clients, c)
		}
		got, _, err := r.clients[0].Reachable(p.us[0], p.vs[0], 0, false)
		if err != nil {
			return fmt.Errorf("first answer: %w", err)
		}
		if got != r.ref.reach(p.us[0], p.vs[0]) {
			return fmt.Errorf("first answer wrong for (%d,%d)", p.us[0], p.vs[0])
		}
		times = append(times, time.Since(t0).Seconds())
		runtime.GC()
		runtime.ReadMemStats(&m1)
		heaps = append(heaps, float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc))/(1<<20))
	}
	if !r.trace {
		r.put("setup_s", medianF(times), "s")
		r.put("heap_mb", medianF(heaps), "MiB")
	}
	return nil
}

// teardown closes a set-up and drops every reference to it, so the next
// set-up's heap measurement starts without it.
func (r *run) teardown() {
	for _, c := range r.clients {
		c.Close()
	}
	r.srv.Close()
	r.st.Close()
	r.clients, r.srv, r.st, r.tb = nil, nil, nil, nil
}

// main is the timed phase of the workload.
func (r *run) main(d time.Duration) [numClasses]tally {
	var out [numClasses]tally
	switch r.name {
	case "point-wire":
		out[classReach] = r.loop(classReach, d, 0)
	case "batch-scan":
		out[classBatch] = r.loop(classBatch, d, 0)
	default:
		out = r.mixed(d)
	}
	return out
}

// loop drives one request class in a closed loop for d: point reads on
// every connection, other classes on one. Answers are checked against the
// graph as served, so loop runs only while the graph is unchanged,
// except for writes, whose effect the mirror replay checks afterwards.
func (r *run) loop(c class, d time.Duration, minOps int) tally {
	workers := 1
	if c == classReach {
		workers = len(r.clients)
	}
	parts := make([]tally, workers)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			parts[w] = r.closedLoop(c, r.clients[w], w, workers, start, deadline, minOps/workers)
		}(w)
	}
	wg.Wait()
	var t tally
	for _, p := range parts {
		t.merge(p)
	}
	t.elapsed = time.Since(start)
	return t
}

func (r *run) closedLoop(c class, cl *server.Client, w, workers int, start, deadline time.Time, minOps int) tally {
	var t tally
	var spans []span
	rec := r.rec
	for i := w; ; i += workers {
		if c == classApply && r.nextWrite >= len(r.writes) {
			break
		}
		var key uint64
		pairs := 0
		t0 := time.Now()
		if !t0.Before(deadline) && len(t.lat) >= minOps {
			break
		}
		var ts int64
		if rec != nil {
			ts = rec.now()
		}
		r.attempted.Add(1)
		switch c {
		case classReach:
			u, v := r.points.us[i%pointPool], r.points.vs[i%pointPool]
			key = pairKey(u, v)
			got, _, err := cl.Reachable(u, v, 0, false)
			if err != nil {
				r.fail(false, "reach: %v", err)
			} else if got != r.ref.reach(u, v) {
				r.fail(true, "reach(%d,%d) = %v, reference says otherwise", u, v, got)
			}
			pairs = 1
		case classBatch:
			b := r.batches[i%batchPool]
			key = pairKey(b.us[0], b.vs[0])
			got, _, err := cl.BatchReachable(b.us, b.vs, 0)
			if err != nil {
				r.fail(false, "batch: %v", err)
				break
			}
			for k := range got {
				if got[k] != r.ref.reach(b.us[k], b.vs[k]) {
					r.fail(true, "batch pair (%d,%d) = %v, reference says otherwise", b.us[k], b.vs[k], got[k])
					break
				}
			}
			pairs = len(got)
		case classMatch:
			p := i % patternPool
			got, _, err := cl.Match(r.pats[p], 0)
			if err != nil {
				r.fail(false, "match: %v", err)
			} else if i/patternPool%matchCheckEvery == 0 && !sameMatch(got, r.patWant[p]) {
				r.fail(true, "match of pattern %d differs from the reference", p)
			}
		case classApply:
			r.apply(cl, r.nextWrite)
			r.nextWrite++
		}
		lat := time.Since(t0)
		t.note(t0.Add(lat).Sub(start), lat, pairs)
		if rec != nil && rec.on.Load() {
			spans = append(spans, span{start: ts, end: ts + int64(lat), key: key, class: c})
		}
	}
	if rec != nil {
		rec.addClient(spans)
	}
	return t
}

// apply sends write i and checks that it became epoch i+1.
func (r *run) apply(cl *server.Client, i int) {
	r.sent.Add(1)
	epoch, err := cl.Apply(r.writes[i])
	if err != nil {
		r.fail(false, "apply: %v", err)
		return
	}
	if epoch != uint64(i+1) {
		r.fail(true, "write %d acked at epoch %d", i, epoch)
	}
	r.lastAck.Store(epoch)
}

// mixed is write-mixed's timed phase: an open-loop writer at writeRate on
// one connection, timing each batch from its due time, beside a
// closed-loop reader alternating a 4096-pair batch read that carries the
// writer's latest epoch and one pattern query.
func (r *run) mixed(d time.Duration) [numClasses]tally {
	var out [numClasses]tally
	rec := r.rec
	traced := rec != nil && rec.on.Load()
	start := time.Now()
	deadline := start.Add(d)
	period := time.Duration(float64(time.Second) / writeRate)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var spans []span
		cl := r.clients[1]
		for k := 0; r.nextWrite < len(r.writes); k++ {
			due := start.Add(time.Duration(k) * period)
			if !due.Before(deadline) {
				break
			}
			time.Sleep(time.Until(due))
			sent := time.Now()
			r.late = append(r.late, int64(sent.Sub(due)))
			var ts int64
			if rec != nil {
				ts = rec.now()
			}
			r.attempted.Add(1)
			r.apply(cl, r.nextWrite)
			r.nextWrite++
			lat := time.Since(due)
			out[classApply].note(time.Since(start), lat, 0)
			if traced {
				spans = append(spans, span{start: ts, end: ts + int64(time.Since(sent)), class: classApply})
			}
		}
		if rec != nil {
			rec.addClient(spans)
		}
	}()

	var spans []span
	cl := r.clients[0]
	for i := 0; ; i++ {
		t0 := time.Now()
		if !t0.Before(deadline) {
			break
		}
		var ts int64
		if rec != nil {
			ts = rec.now()
		}
		minEpoch := r.lastAck.Load()
		r.attempted.Add(1)
		var key uint64
		pairs := 0
		c := classBatch
		if i%2 == 0 {
			b := i / 2 % batchPool
			key = pairKey(r.batches[b].us[0], r.batches[b].vs[0])
			got, epoch, err := cl.BatchReachable(r.batches[b].us, r.batches[b].vs, minEpoch)
			if err != nil {
				r.fail(false, "batch: %v", err)
			} else {
				if epoch < minEpoch {
					r.fail(true, "batch read at epoch %d below its minEpoch %d", epoch, minEpoch)
				}
				r.reads = append(r.reads, batchRead{epoch: epoch, hi: r.sent.Load(), batch: b, ans: pack(got)})
				pairs = len(got)
			}
		} else {
			c = classMatch
			p := i / 2 % patternPool
			got, epoch, err := cl.Match(r.pats[p], minEpoch)
			if err != nil {
				r.fail(false, "match: %v", err)
			} else if i/2/patternPool%matchCheckEvery == 0 {
				r.matchReads = append(r.matchReads, matchRead{epoch: epoch, hi: r.sent.Load(), pat: p, res: got})
			}
		}
		lat := time.Since(t0)
		out[c].note(t0.Add(lat).Sub(start), lat, pairs)
		if traced {
			spans = append(spans, span{start: ts, end: ts + int64(lat), key: key, class: c})
		}
	}
	out[classBatch].elapsed = time.Since(start)
	if rec != nil {
		rec.addClient(spans)
	}
	wg.Wait()
	return out
}

func pack(b []bool) []uint64 {
	out := make([]uint64, (len(b)+63)/64)
	for i, x := range b {
		if x {
			out[i/64] |= 1 << (i % 64)
		}
	}
	return out
}

// checkRecorded replays the acked writes on a mirror of the served
// graph and checks every recorded batch read and sampled pattern answer
// at the epoch its response was stamped with. It returns the mirror at the
// last ack.
//
// The server stamps a read with the epoch it saw before calling the store,
// so a publish in between yields an answer computed on a later snapshot
// than its stamp. An answer that disagrees with its stamp but equals the
// graph at a later epoch the read could have seen is counted as a stale
// stamp and reported; one that matches no such epoch is a wrong answer.
func (r *run) checkRecorded() *graph.Graph {
	sort.SliceStable(r.reads, func(a, b int) bool { return r.reads[a].epoch < r.reads[b].epoch })
	sort.SliceStable(r.matchReads, func(a, b int) bool { return r.matchReads[a].epoch < r.matchReads[b].epoch })
	mirror := r.g0.Clone()
	last := r.lastAck.Load()
	epoch := uint64(0)
	var cl *closure
	advance := func(e uint64) {
		for epoch < e {
			mirror.Apply(r.writes[epoch])
			epoch++
			cl = nil
		}
	}
	// later reports whether fn holds for the graph at some epoch after e,
	// up to hi and the last ack.
	later := func(e, hi uint64, fn func(g *graph.Graph) bool) bool {
		g := mirror.Clone()
		for x := e; x < min(hi, last); x++ {
			g.Apply(r.writes[x])
			if fn(g) {
				return true
			}
		}
		return false
	}
	ri, mi := 0, 0
	for ri < len(r.reads) || mi < len(r.matchReads) {
		if ri < len(r.reads) && (mi == len(r.matchReads) || r.reads[ri].epoch <= r.matchReads[mi].epoch) {
			rd := r.reads[ri]
			ri++
			if rd.epoch > last {
				r.fail(true, "batch read stamped %d beyond the last ack %d", rd.epoch, last)
				continue
			}
			advance(rd.epoch)
			if cl == nil {
				cl = newClosure(mirror)
			}
			b := r.batches[rd.batch]
			if agrees(cl, b, rd.ans) {
				continue
			}
			if later(rd.epoch, rd.hi, func(g *graph.Graph) bool { return agrees(newClosure(g), b, rd.ans) }) {
				r.stale++
				continue
			}
			r.fail(true, "batch read stamped %d matches the mirror at no epoch up to %d", rd.epoch, rd.hi)
			continue
		}
		md := r.matchReads[mi]
		mi++
		if md.epoch > last {
			r.fail(true, "match stamped %d beyond the last ack %d", md.epoch, last)
			continue
		}
		advance(md.epoch)
		p := r.pats[md.pat]
		if sameMatch(md.res, pattern.Match(mirror, p)) {
			continue
		}
		if later(md.epoch, md.hi, func(g *graph.Graph) bool { return sameMatch(md.res, pattern.Match(g, p)) }) {
			r.stale++
			continue
		}
		r.fail(true, "match of pattern %d stamped %d matches the mirror at no epoch up to %d", md.pat, md.epoch, md.hi)
	}
	advance(last)
	if r.stale > 0 {
		fmt.Fprintf(os.Stderr, "ledger: warning: %d reads answered at a later epoch than their stamp\n", r.stale)
	}
	return mirror
}

// agrees reports whether packed batch answers equal the reference.
func agrees(cl *closure, b pairBatch, ans []uint64) bool {
	for k := range b.us {
		if (ans[k/64]>>(k%64)&1 == 1) != cl.reach(b.us[k], b.vs[k]) {
			return false
		}
	}
	return true
}

// durability closes the store, reopens its directory with no graph, and
// checks that the recovered epoch is the last ack and the edge set equals
// the mirror's. It returns the reopen time in seconds; the reopened store
// serves the replays.
func (r *run) durability(mirror *graph.Graph) (float64, error) {
	for _, c := range r.clients {
		c.Close()
	}
	r.srv.Close()
	if err := r.st.Close(); err != nil {
		r.fail(false, "close: %v", err)
	}
	t0 := time.Now()
	st, err := store.Open(nil, r.storeOptions(r.dataDir))
	if err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	recoverS := time.Since(t0).Seconds()
	r.st = st
	sn := st.Snapshot()
	if sn.Epoch != r.lastAck.Load() {
		r.fail(true, "reopened at epoch %d, last ack was %d", sn.Epoch, r.lastAck.Load())
	}
	got, want := edgeSet(sn.G), edgeSet(mirror.Freeze())
	if len(got) != len(want) {
		r.fail(true, "reopened with %d edges, mirror has %d", len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				r.fail(true, "reopened edge set differs from the mirror at %v", got[i])
				break
			}
		}
	}
	return recoverS, nil
}

// checkValidity flags, on standard error, a run whose write generator fell
// behind or whose graph drifted: its numbers describe another workload.
func (r *run) checkValidity(start, end store.Stats) {
	if !r.wl.drives[classApply] {
		return
	}
	if late := percentile(r.late, 0.9) / 1e6; late > lateMarginMs {
		fmt.Fprintf(os.Stderr, "ledger: warning: write generator p90 lateness %.1f ms exceeds %.0f ms\n", late, lateMarginMs)
	}
	drift := float64(end.ReachClasses)/float64(start.ReachClasses) - 1
	if drift > classBand || drift < -classBand {
		fmt.Fprintf(os.Stderr, "ledger: warning: reachability classes drifted %d -> %d\n", start.ReachClasses, end.ReachClasses)
	}
}

// endToEnd reports the untraced run's user-visible metrics.
func (r *run) endToEnd() {
	t := &r.res[0]
	ms, us := 1e6, 1e3
	r.put("reach_qps", t[classReach].rate(t[classReach].elapsed, false), "q/s")
	r.put("reach_p50_us", percentile(t[classReach].lat, 0.5)/us, "us")
	r.put("batch_p50_ms", percentile(t[classBatch].lat, 0.5)/ms, "ms")
	r.put("write_p50_ms", percentile(t[classApply].lat, 0.5)/ms, "ms")
	r.put("match_p50_ms", percentile(t[classMatch].lat, 0.5)/ms, "ms")
}

// unsteady reports the user-visible metrics that vary between runs by
// more than a tenth, as per-layer metrics of the traced run: the latency
// tails, and the batch throughput, which a closed loop makes the batch
// size over the mean latency, so that it moves with the tail. They come
// from the untraced half of the timed phase and from the traced probes.
func (r *run) unsteady() {
	var t [numClasses]tally
	for c := range t {
		if r.wl.drives[c] {
			t[c] = r.res[0][c]
		} else {
			t[c] = r.res[1][c]
		}
	}
	ms, us := 1e6, 1e3
	r.put("tail.reach_p99_us", percentile(t[classReach].lat, 0.99)/us, "us")
	r.put("tail.batch_p90_ms", percentile(t[classBatch].lat, 0.9)/ms, "ms")
	r.put("tail.write_p90_ms", percentile(t[classApply].lat, 0.9)/ms, "ms")
	r.put("tail.match_p90_ms", percentile(t[classMatch].lat, 0.9)/ms, "ms")
	// Batch reads share write-mixed's reader with pattern queries, so
	// their throughput is measured over the time spent in batch requests.
	r.put("batch_pairs_per_s", t[classBatch].rate(t[classBatch].elapsed, true), "pairs/s")
}

// schedMetrics reports the scheduler and batch-leaf counter deltas over
// the timed phase.
func (r *run) schedMetrics(a, b store.SchedStats) {
	lanes := float64(b.Lanes - a.Lanes)
	blanes := float64(b.BatchLanes - a.BatchLanes)
	r.put("store.sched.mean_wave_size", ratio(lanes, float64(b.Waves-a.Waves)), "lanes")
	r.put("store.sched.cluster_hit_rate", ratio(float64(b.ClusteredLanes-a.ClusteredLanes), lanes), "fraction")
	r.put("store.batch.hop2_peel_ratio", ratio(float64(b.Hop2Peeled-a.Hop2Peeled), blanes), "fraction")
	r.put("store.batch.hub_hit_ratio", ratio(float64(b.HubCacheLanes-a.HubCacheLanes), blanes), "fraction")
}

var runtimeSamples = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() []float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// runtimeMetrics reports allocation per request and the share of CPU the
// garbage collector took over the untraced half of the timed phase.
func (r *run) runtimeMetrics(a, b []float64, t [numClasses]tally) {
	ops := 0
	for _, x := range t {
		ops += len(x.lat)
	}
	r.put("runtime.alloc_bytes_per_op", ratio(b[0]-a[0], float64(ops)), "bytes")
	r.put("runtime.gc_cpu_fraction", ratio(b[1]-a[1], b[2]-a[2]), "fraction")
}
