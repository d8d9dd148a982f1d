package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/faultfs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/queries"
	"repro/internal/server"
	"repro/internal/store"
)

// cmdWorkload generates a mixed read/write workload file for serve. With
// -batch n >= 2 the file carries the batch-mode directive, asking serve to
// coalesce up to n queued queries into one vectorized read.
func cmdWorkload(args []string) {
	fs := flag.NewFlagSet("workload", flag.ExitOnError)
	in := fs.String("in", "", "input graph file")
	out := fs.String("out", "", "output workload file")
	ops := fs.Int("ops", 10000, "total operations")
	write := fs.Float64("write", 0.05, "fraction of operations that are edge updates")
	insert := fs.Float64("insert", 0.5, "fraction of updates that are insertions")
	batch := fs.Int("batch", 0, "batch-mode directive: queries coalesced per vectorized read (0/1 = scalar)")
	seed := fs.Int64("seed", 1, "seed")
	fs.Parse(args)
	if *in == "" || *out == "" {
		fatal(fmt.Errorf("workload: -in and -out are required"))
	}
	g := load(*in)
	w := gen.Mixed(rand.New(rand.NewSource(*seed)), g, *ops, *write, *insert)
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := gen.WriteWorkloadBatch(f, w, *batch); err != nil {
		fatal(err)
	}
	var q, u int
	for _, op := range w {
		if op.Kind == gen.OpQuery {
			q++
		} else {
			u++
		}
	}
	fmt.Printf("wrote %s: %d ops (%d queries, %d updates)\n", *out, len(w), q, u)
}

// serveBackend abstracts the store behind the shared serve drive loop.
// newReader returns the per-goroutine answer function: it loads ONE
// snapshot per op, answers on the chosen target, and — when verifying —
// cross-checks against the OTHER representation of that same snapshot (so
// the check is same-epoch by construction and never a vacuous
// self-comparison). newBatchReader is the vectorized form used by -batch:
// one snapshot is pinned for the whole batch, all queries are answered by
// the store's lane-mask batch path, and verification compares the full
// batch against the other representation of that same snapshot, returning
// the mismatch count. apply submits one update batch; report prints the
// store-specific summary and the verify verdict.
type serveBackend struct {
	newReader      func(verify bool) func(u, v graph.Node) (got, mismatch bool)
	newBatchReader func(verify bool) func(us, vs []graph.Node, out []bool) (mismatches int)
	apply          func(batch []graph.Update) error
	report         func(mismatches int64)
	// health is non-nil only for durable stores: the writer rides through
	// degraded windows by stalling (the store self-heals) instead of
	// dying, and the shutdown report includes the health summary.
	health func() store.Health
}

// cmdServe drives a workload against a concurrent store: the write stream
// is applied as batches on the store's writer while reader goroutines
// answer the query stream on immutable snapshots. With -shards k > 1 the
// store is sharded: k partition-parallel write pipelines behind a
// coordinator, queries routed local-lookup → summary-hop → local-lookup.
// With -data the store is durable: batches are write-ahead logged before
// acknowledgement, the epoch state checkpoints in the background, and a
// directory left by a previous run is recovered instead of rebuilding from
// -in. SIGINT/SIGTERM stop the run gracefully: the report for the
// completed portion is still printed.
func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	in := fs.String("in", "", "input graph file")
	workload := fs.String("workload", "", "workload file (qpgc workload)")
	readers := fs.Int("readers", 4, "reader goroutines")
	qbatchFlag := fs.Int("batch", 0, "queries coalesced per vectorized read (1 = scalar; 0 = workload's batch directive, else 1)")
	wbatch := fs.Int("wbatch", 64, "updates per ApplyBatch")
	shards := fs.Int("shards", 1, "shard count (1 = monolithic store; ignored when -data recovers)")
	target := fs.String("target", "gr", "read path: gr (compressed), g (original), hop2 (index on Gr; monolithic only)")
	verify := fs.Bool("verify", false, "cross-check every answer against the same snapshot's G")
	data := fs.String("data", "", "durable directory (snapshot checkpoints + WAL); existing state is recovered")
	syncFlag := fs.String("sync", "always", "WAL fsync policy with -data: always|none")
	faults := fs.String("faults", "", "fault-injection plan for the durable filesystem (e.g. \"enospc@120+40,sync@300+3%wal-\")")
	scrubIvl := fs.Duration("scrub", 0, "background integrity-scrub interval with -data (0 = off)")
	listen := fs.String("listen", "", "serve the store over TCP on this address (with -data, replicas may tail it)")
	maxqps := fs.Int("maxqps", 0, "network read admission cap, queries/s (0 = uncapped)")
	metricsAddr := fs.String("metrics", "", "HTTP metrics side-listener address (/metrics, /debug/vars, /debug/slowlog)")
	slowQuery := fs.Duration("slow", 0, "slow-query log threshold for network point reads (0 = off; requires -metrics or -listen)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the serve run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile taken after the run to this file")
	fs.Parse(args)
	if *workload == "" && *listen == "" {
		fatal(fmt.Errorf("serve: -workload is required (or -listen to serve over the network only)"))
	}
	if *readers < 1 {
		fatal(fmt.Errorf("serve: -readers must be >= 1"))
	}
	if *wbatch < 1 {
		fatal(fmt.Errorf("serve: -wbatch must be >= 1"))
	}
	qbatch := *qbatchFlag
	if qbatch < 0 {
		fatal(fmt.Errorf("serve: -batch must be >= 0"))
	}
	var syncMode store.SyncMode
	switch *syncFlag {
	case "always":
		syncMode = store.SyncAlways
	case "none":
		syncMode = store.SyncNone
	default:
		fatal(fmt.Errorf("serve: unknown -sync %q (want always or none)", *syncFlag))
	}
	var inject *faultfs.Inject
	var storeFS faultfs.FS
	if *faults != "" {
		if *data == "" {
			fatal(fmt.Errorf("serve: -faults injects into the durable filesystem and requires -data"))
		}
		rules, err := faultfs.ParsePlan(*faults)
		if err != nil {
			fatal(err)
		}
		inject = faultfs.NewInject(faultfs.Disk, rules...)
		storeFS = inject
		fmt.Printf("fault injection armed: %s\n", *faults)
	}
	if *scrubIvl < 0 {
		fatal(fmt.Errorf("serve: -scrub must be >= 0"))
	}
	if *scrubIvl > 0 && *data == "" {
		fatal(fmt.Errorf("serve: -scrub verifies durable state and requires -data"))
	}
	// One registry instruments every layer of this process; nil (no
	// -metrics and no -listen) keeps the hot paths at their uninstrumented
	// cost. Faults fired by the injection plan are counted by kind.
	var reg *obs.Registry
	if *metricsAddr != "" || *listen != "" {
		reg = obs.NewRegistry()
	}
	if inject != nil && reg != nil {
		r := reg
		inject.Observe(func(kind string) {
			r.Counter(obs.Label("qpgc_faults_fired_total", "kind", kind)).Inc()
		})
	}
	var ops []gen.Op
	if *workload != "" {
		wf, err := os.Open(*workload)
		if err != nil {
			fatal(err)
		}
		wl, err := gen.ParseWorkload(wf)
		wf.Close()
		if err != nil {
			fatal(err)
		}
		ops = wl.Ops
		// -batch wins over the file's directive; both absent means scalar.
		if qbatch == 0 {
			qbatch = wl.Batch
		}
	}
	if qbatch == 0 {
		qbatch = 1
	}

	// A durable directory with state takes precedence over -in: the store
	// recovers its own graph (and, for a sharded directory, its own k), so
	// -in is neither required nor parsed then — the whole point of the
	// warm restart is skipping that cost.
	recovering := *data != "" && store.HasState(*data)
	sharded := *shards > 1
	var g *graph.Graph
	if recovering {
		info, err := store.Inspect(*data)
		if err != nil {
			fatal(err)
		}
		sharded = info.Kind == "sharded"
		fmt.Printf("recovering %s store from %s (checkpoint epoch %d, WAL %d bytes in %d segment(s))\n",
			displayKind(info.Kind), *data, info.Epoch, info.WALBytes, info.WALSegments)
	} else {
		if *in == "" {
			fatal(fmt.Errorf("serve: -in is required (no recoverable state in -data)"))
		}
		g = load(*in)
	}

	checkOps := func(n int) {
		for _, op := range ops {
			if op.U < 0 || op.V < 0 || int(op.U) >= n || int(op.V) >= n {
				fatal(fmt.Errorf("workload references node outside graph (%d nodes)", n))
			}
		}
	}

	var backend serveBackend
	var netBackend server.Backend
	shardCount := 1
	opts := store.Options{
		Indexes: true,
		Dir:     *data, Sync: syncMode,
		FS: storeFS, ScrubInterval: *scrubIvl,
		Obs: reg,
	}
	if sharded {
		s, err := store.OpenSharded(g, &store.ShardedOptions{Options: opts, Shards: *shards})
		if err != nil {
			fatal(err)
		}
		defer s.Close()
		checkOps(s.Stats().Nodes)
		shardCount = s.Stats().Shards
		netBackend = server.NewShardedBackend(s)
		var health func() store.Health
		if *data != "" {
			health = s.Health
		}
		backend = serveBackend{
			newReader: func(verify bool) func(u, v graph.Node) (got, mismatch bool) {
				rs := store.NewRouteScratch()
				ref := store.NewRouteScratch()
				return func(u, v graph.Node) (bool, bool) {
					sn := s.Snapshot()
					var got bool
					if *target == "g" {
						got = sn.ReachableOnG(rs, u, v)
					} else {
						got = sn.Reachable(rs, u, v)
					}
					if !verify {
						return got, false
					}
					var want bool
					if *target == "g" {
						want = sn.Reachable(ref, u, v)
					} else {
						want = sn.ReachableOnG(ref, u, v)
					}
					return got, got != want
				}
			},
			newBatchReader: func(verify bool) func(us, vs []graph.Node, out []bool) int {
				brs := store.NewBatchRouteScratch()
				ref := store.NewRouteScratch()
				return func(us, vs []graph.Node, out []bool) int {
					sn := s.Snapshot()
					if *target == "g" {
						for i := range us {
							out[i] = sn.ReachableOnG(ref, us[i], vs[i])
						}
					} else {
						sn.BatchReachable(brs, us, vs, out)
					}
					if !verify {
						return 0
					}
					mm := 0
					for i := range us {
						var want bool
						if *target == "g" {
							want = sn.Reachable(ref, us[i], vs[i])
						} else {
							want = sn.ReachableOnG(ref, us[i], vs[i])
						}
						if out[i] != want {
							mm++
						}
					}
					return mm
				}
			},
			apply:  func(batch []graph.Update) error { _, err := s.ApplyBatch(batch); return err },
			health: health,
			report: func(mismatches int64) {
				st := s.Stats()
				fmt.Printf("writer: epoch %d (%d updates, %d cross-shard edges at close)\n",
					st.Epoch, st.Updates, st.CrossEdges)
				fmt.Printf("store: |V|=%d |E|=%d  %d shards  boundary %d  summary |E|=%d  reach classes %d  stitched classes %d\n",
					st.Nodes, st.Edges, st.Shards, st.Boundary, st.SummaryEdges,
					st.ReachClasses, st.StitchClasses)
				if *verify {
					if mismatches > 0 {
						fatal(fmt.Errorf("BUG: %d answers diverged between routed and composite paths on the same snapshot", mismatches))
					}
					fmt.Println("verify: routed and composite answers agree on every observed snapshot")
				}
			},
		}
	} else {
		s, err := store.Open(g, &opts)
		if err != nil {
			fatal(err)
		}
		defer s.Close()
		checkOps(s.Stats().Nodes)
		netBackend = server.NewStoreBackend(s)
		var health func() store.Health
		if *data != "" {
			health = s.Health
		}
		backend = serveBackend{
			newReader: func(verify bool) func(u, v graph.Node) (got, mismatch bool) {
				sc := queries.NewScratch(0)
				ref := queries.NewScratch(0)
				return func(u, v graph.Node) (bool, bool) {
					sn := s.Snapshot()
					var got bool
					switch *target {
					case "g":
						got = sn.ReachableOnG(sc, u, v)
					case "hop2":
						got = sn.ReachableHop2(u, v)
					default:
						got = sn.Reachable(sc, u, v)
					}
					if !verify {
						return got, false
					}
					var want bool
					if *target == "g" {
						want = sn.Reachable(ref, u, v)
					} else {
						want = sn.ReachableOnG(ref, u, v)
					}
					return got, got != want
				}
			},
			newBatchReader: func(verify bool) func(us, vs []graph.Node, out []bool) int {
				bs := queries.NewBatchScratch(0)
				ref := queries.NewBatchScratch(0)
				var want []bool
				return func(us, vs []graph.Node, out []bool) int {
					sn := s.Snapshot()
					switch *target {
					case "g":
						sn.BatchReachableOnG(bs, us, vs, out)
					case "hop2":
						for i := range us {
							out[i] = sn.ReachableHop2(us[i], vs[i])
						}
					default:
						sn.BatchReachable(bs, us, vs, out)
					}
					if !verify {
						return 0
					}
					if cap(want) < len(us) {
						want = make([]bool, len(us))
					}
					want = want[:len(us)]
					if *target == "g" {
						sn.BatchReachable(ref, us, vs, want)
					} else {
						sn.BatchReachableOnG(ref, us, vs, want)
					}
					mm := 0
					for i := range us {
						if out[i] != want[i] {
							mm++
						}
					}
					return mm
				}
			},
			apply:  func(batch []graph.Update) error { _, err := s.ApplyBatch(batch); return err },
			health: health,
			report: func(mismatches int64) {
				st := s.Stats()
				fmt.Printf("writer: epoch %d (%d updates)\n", st.Epoch, st.Updates)
				fmt.Printf("store: |V|=%d |E|=%d  Gr-reach %d classes (ratio %.2f%%)  Gr-pattern %d classes (ratio %.2f%%)\n",
					st.Nodes, st.Edges, st.ReachClasses, 100*st.ReachRatio,
					st.PatternClasses, 100*st.PatternRatio)
				if *verify {
					if mismatches > 0 {
						fatal(fmt.Errorf("BUG: %d answers diverged between G and Gr on the same snapshot", mismatches))
					}
					fmt.Println("verify: G and Gr answers agree on every observed snapshot")
				}
			},
		}
	}
	// -listen fronts the same store over TCP, concurrently with any local
	// workload drive; with -data set the endpoint also ships snapshots and
	// WAL segments to replicas.
	if *metricsAddr != "" {
		ms, err := obs.ListenAndServe(*metricsAddr, reg)
		if err != nil {
			fatal(err)
		}
		defer ms.Close()
		fmt.Printf("metrics on http://%s/metrics\n", ms.Addr())
	}
	if *listen != "" {
		srv, err := server.Start(*listen, server.Options{
			Backend: netBackend, ReplDir: *data, MaxQPS: *maxqps,
			Obs: reg, SlowQuery: *slowQuery,
		})
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		repl := "off"
		if *data != "" {
			repl = "on"
		}
		fmt.Printf("listening on %s (replication %s)\n", srv.Addr(), repl)
		if *workload == "" {
			ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
			<-ctx.Done()
			stop()
			fmt.Printf("server: %d requests served\n", srv.Requests())
			return
		}
	}
	stopProf := startCPUProfile(*cpuprofile)
	runServe(backend, ops, *readers, *wbatch, qbatch, shardCount, *target, *verify)
	stopProf()
	writeMemProfile(*memprofile)
	if inject != nil {
		fmt.Printf("faults: %d of the armed schedule fired\n", inject.Fired())
	}
}

// runServe is the store-agnostic drive loop: it splits the workload stream
// (updates keep their order and are grouped into batches on one writer;
// queries fan out to the readers), measures per-query latency, and prints
// the throughput/latency report before delegating the store-specific
// summary to the backend. With qbatch > 1 each reader coalesces up to
// qbatch queued queries into one vectorized read on a single pinned
// snapshot, and the latency line reports per-BATCH times. SIGINT/SIGTERM
// stop the feed; the report for everything served so far is printed before
// returning, so an interrupted run never loses its results.
func runServe(b serveBackend, ops []gen.Op, readers, batchSize, qbatch, shards int, target string, verify bool) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var updates []graph.Update
	queryCh := make(chan gen.Op, 1024)
	for _, op := range ops {
		switch op.Kind {
		case gen.OpInsert:
			updates = append(updates, graph.Insertion(op.U, op.V))
		case gen.OpDelete:
			updates = append(updates, graph.Deletion(op.U, op.V))
		}
	}

	var reached, mismatches atomic.Int64
	var servedBatches atomic.Int64
	latencies := make([][]time.Duration, readers)
	var wg sync.WaitGroup
	wg.Add(readers)
	start := time.Now()
	for r := 0; r < readers; r++ {
		go func(r int) {
			defer wg.Done()
			if qbatch <= 1 {
				answer := b.newReader(verify)
				for op := range queryCh {
					t0 := time.Now()
					got, mismatch := answer(op.U, op.V)
					latencies[r] = append(latencies[r], time.Since(t0))
					if got {
						reached.Add(1)
					}
					if mismatch {
						mismatches.Add(1)
					}
				}
				return
			}
			answer := b.newBatchReader(verify)
			us := make([]graph.Node, 0, qbatch)
			vs := make([]graph.Node, 0, qbatch)
			out := make([]bool, qbatch)
			for op := range queryCh {
				us = append(us[:0], op.U)
				vs = append(vs[:0], op.V)
				// Coalesce whatever is already queued, up to qbatch.
			fill:
				for len(us) < qbatch {
					select {
					case op2, ok := <-queryCh:
						if !ok {
							break fill
						}
						us = append(us, op2.U)
						vs = append(vs, op2.V)
					default:
						break fill
					}
				}
				t0 := time.Now()
				mm := answer(us, vs, out[:len(us)])
				latencies[r] = append(latencies[r], time.Since(t0))
				servedBatches.Add(1)
				for i := range us {
					if out[i] {
						reached.Add(1)
					}
				}
				if mm > 0 {
					mismatches.Add(int64(mm))
				}
			}
		}(r)
	}

	// Writer: batches in stream order, concurrent with the readers; an
	// interrupt stops it at the next batch boundary. On a durable store a
	// failed batch was NOT acked (nothing hit the WAL), so the writer
	// keeps it and stalls until the store's recovery loop re-arms the
	// write path — a transient fault window delays the stream instead of
	// losing part of it.
	writerDone := make(chan struct{})
	var epochs, stalls int
	go func() {
		defer close(writerDone)
		for len(updates) > 0 && ctx.Err() == nil {
			n := batchSize
			if n > len(updates) {
				n = len(updates)
			}
			if err := b.apply(updates[:n]); err != nil {
				if b.health == nil {
					fatal(err)
				}
				stalls++
				select {
				case <-ctx.Done():
				case <-time.After(10 * time.Millisecond):
				}
				continue
			}
			updates = updates[n:]
			epochs++
		}
	}()
	totalQ := 0
	for _, op := range ops {
		if op.Kind == gen.OpQuery {
			totalQ++
		}
	}
	nq := 0
feed:
	for _, op := range ops {
		if op.Kind != gen.OpQuery {
			continue
		}
		select {
		case queryCh <- op:
			nq++
		case <-ctx.Done():
			break feed
		}
	}
	close(queryCh)
	wg.Wait()
	readElapsed := time.Since(start)
	<-writerDone
	elapsed := time.Since(start)
	if ctx.Err() != nil {
		fmt.Printf("interrupted: report covers the %d of %d queries fed before the signal\n", nq, totalQ)
	}

	var all []time.Duration
	for _, l := range latencies {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pctl := func(p float64) time.Duration {
		if len(all) == 0 {
			return 0
		}
		return all[int(p*float64(len(all)-1))]
	}

	fmt.Printf("served %d queries on %q with %d readers, %d shard(s) in %v (%.0f q/s)\n",
		nq, target, readers, shards, readElapsed.Round(time.Millisecond),
		float64(nq)/readElapsed.Seconds())
	switch {
	case qbatch > 1:
		nb := servedBatches.Load()
		mean := 0.0
		if nb > 0 {
			mean = float64(nq) / float64(nb)
		}
		fmt.Printf("batched reads (-batch %d): %d batches, mean size %.1f\n", qbatch, nb, mean)
		fmt.Printf("batch latency p50 %v  p99 %v  max %v\n", pctl(0.50), pctl(0.99), pctl(1.0))
	default:
		fmt.Printf("latency p50 %v  p99 %v  max %v\n", pctl(0.50), pctl(0.99), pctl(1.0))
	}
	fmt.Printf("writer: %d batches in %v\n", epochs, elapsed.Round(time.Millisecond))
	if stalls > 0 {
		fmt.Printf("writer: stalled %d time(s) on a degraded store; every stalled batch was retried, none lost\n", stalls)
	}
	fmt.Printf("reachable answers: %d/%d\n", reached.Load(), nq)
	b.report(mismatches.Load())
	if b.health != nil {
		h := b.health()
		fmt.Printf("health: %s", h.State)
		if h.Reason != "" {
			fmt.Printf(" (%s)", h.Reason)
		}
		fmt.Printf("  write retries %d  degradations %d  recoveries %d\n",
			h.Retries, h.Degradations, h.Recoveries)
		if h.CheckpointError != "" {
			fmt.Printf("health: unresolved checkpoint error: %s\n", h.CheckpointError)
		}
		if ls := h.LastScrub; ls.Checked > 0 || len(ls.Quarantined) > 0 {
			fmt.Printf("scrubber: last pass verified %d file(s), %d bytes", ls.Checked, ls.Bytes)
			if len(ls.Quarantined) > 0 {
				fmt.Printf("; quarantined %v (repaired: %v)", ls.Quarantined, ls.Repaired)
			}
			fmt.Println()
		}
	}
}
