package store

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/queries"
)

// TestSchedDifferential pins the tentpole equality for the multi-wave
// scheduler: on every topology and pool size k∈{1,4}, a scheduled batch
// (many concurrent clustered waves), a single-wave sequential batch on the
// same snapshot, scheduler-coalesced point queries, and the scalar path
// must all agree — on both store kinds.
func TestSchedDifferential(t *testing.T) {
	for name, g := range shardedTopologies(61) {
		for _, workers := range []int{1, 4} {
			rng := rand.New(rand.NewSource(int64(workers)))
			nodes := g.NumNodes()
			us, vs := randomPairs(rng, nodes, 500)

			s := mustOpen(t, g.Clone(), &Options{Indexes: true, SchedWorkers: workers})
			sn := s.Snapshot()
			want := make([]bool, len(us))
			for i := range us {
				want[i] = s.Reachable(us[i], vs[i])
			}
			single := make([]bool, len(us))
			sn.BatchReachable(queries.NewBatchScratch(0), us, vs, single)
			sched := s.BatchReachable(us, vs) // >64 pairs: scheduler waves
			for i := range us {
				if single[i] != want[i] || sched[i] != want[i] {
					t.Fatalf("%s w=%d: QR(%d,%d) scalar=%v single-wave=%v scheduled=%v",
						name, workers, us[i], vs[i], want[i], single[i], sched[i])
				}
			}
			// Coalesced singles: concurrent callers share waves; the store
			// is idle, so every answer is pinned by the scalar precompute.
			var wg sync.WaitGroup
			errs := make(chan string, len(us))
			for c := 0; c < 8; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := c; i < len(us); i += 8 {
						if got := s.SchedReachable(us[i], vs[i]); got != want[i] {
							errs <- name
						}
					}
				}(c)
			}
			wg.Wait()
			close(errs)
			if e, ok := <-errs; ok {
				t.Fatalf("%s w=%d: SchedReachable disagrees with scalar", e, workers)
			}
			if st := s.SchedStats(); st.Singles == 0 || st.Waves == 0 {
				t.Fatalf("%s w=%d: scheduler idle (singles=%d waves=%d)", name, workers, st.Singles, st.Waves)
			}
			s.Close()

			ss := mustOpenSharded(t, g.Clone(), &ShardedOptions{Options: Options{Indexes: true, SchedWorkers: workers}, Shards: 3})
			ssn := ss.Snapshot()
			ssingle := make([]bool, len(us))
			ssn.BatchReachable(NewBatchRouteScratch(), us, vs, ssingle)
			ssched := ss.BatchReachable(us, vs)
			for i := range us {
				if swant := ss.Reachable(us[i], vs[i]); ssingle[i] != swant || ssched[i] != swant ||
					ss.SchedReachable(us[i], vs[i]) != swant || swant != want[i] {
					t.Fatalf("%s w=%d sharded: QR(%d,%d) disagreement", name, workers, us[i], vs[i])
				}
			}
			ss.Close()
		}
	}
}

// TestSchedRaceStress mixes many simultaneous scheduler waves (pinned
// batches and coalesced singles) with live writes on both store kinds.
// Writes are insert-only, so reachability grows monotonically: every
// answer observed mid-stress must lie between the pre-stress and
// post-stress scalar answers — a batch torn across epochs, a stale hub
// row, or a scratch race all break the bound. Run under -race in CI.
func TestSchedRaceStress(t *testing.T) {
	base := gen.Social(rand.New(rand.NewSource(7)), 300, 1200, 4)
	rng := rand.New(rand.NewSource(8))
	us, vs := randomPairs(rng, 300, 220)
	batches := make([][]graph.Update, 24)
	for b := range batches {
		for e := 0; e < 8; e++ {
			batches[b] = append(batches[b], graph.Insertion(graph.Node(rng.Intn(300)), graph.Node(rng.Intn(300))))
		}
	}

	type kind struct {
		name  string
		batch func(us, vs []graph.Node) []bool
		point func(u, v graph.Node) bool
		scal  func(u, v graph.Node) bool
		apply func([]graph.Update) error
		close func() error
	}
	mono := mustOpen(t, base.Clone(), &Options{Indexes: true, SchedWorkers: 4})
	shrd := mustOpenSharded(t, base.Clone(), &ShardedOptions{Options: Options{Indexes: true, SchedWorkers: 4}, Shards: 3})
	kinds := []kind{
		{"mono", mono.BatchReachable, mono.SchedReachable, mono.Reachable,
			func(b []graph.Update) error { _, err := mono.ApplyBatch(b); return err }, mono.Close},
		{"sharded", shrd.BatchReachable, shrd.SchedReachable, shrd.Reachable,
			func(b []graph.Update) error { _, err := shrd.ApplyBatch(b); return err }, shrd.Close},
	}
	for _, k := range kinds {
		before := make([]bool, len(us))
		for i := range us {
			before[i] = k.scal(us[i], vs[i])
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		var mu sync.Mutex
		var seen [][]bool
		record := func(out []bool) {
			mu.Lock()
			seen = append(seen, out)
			mu.Unlock()
		}
		for r := 0; r < 3; r++ { // pinned-batch readers: concurrent wave storms
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					record(k.batch(us, vs))
				}
			}()
		}
		for r := 0; r < 3; r++ { // singles readers: coalesced waves
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for round := 0; ; round++ {
					select {
					case <-stop:
						return
					default:
					}
					out := make([]bool, len(us))
					copy(out, before) // untested lanes satisfy the bound
					for i := r; i < len(us); i += 3 {
						out[i] = k.point(us[i], vs[i])
					}
					record(out)
				}
			}(r)
		}
		for _, b := range batches {
			if err := k.apply(b); err != nil {
				t.Fatalf("%s: ApplyBatch: %v", k.name, err)
			}
		}
		close(stop)
		wg.Wait()
		after := make([]bool, len(us))
		for i := range us {
			after[i] = k.scal(us[i], vs[i])
		}
		for _, out := range seen {
			for i := range us {
				if before[i] && !out[i] {
					t.Fatalf("%s: QR(%d,%d) was true before the stress and came back false mid-stress", k.name, us[i], vs[i])
				}
				if out[i] && !after[i] {
					t.Fatalf("%s: QR(%d,%d) came back true mid-stress but is false after (insert-only writes)", k.name, us[i], vs[i])
				}
			}
		}
		if err := k.close(); err != nil {
			t.Fatalf("%s: Close: %v", k.name, err)
		}
	}
}

// TestHubCacheEpochInvariant pins the cache invariant: a snapshot builds
// its hub cache only after the amortization gate opens, the cached answers
// match the scalar path, and an epoch swap retires the cache with its
// snapshot — the fresh snapshot starts with no hub rows and fresh
// counters, so a cached reach-set never outlives its epoch.
func TestHubCacheEpochInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g := gen.Citation(rng, 3000, 24000, 5)
	s := mustOpen(t, g, &Options{Indexes: false}) // no hop2 peel: lanes must hit the sweep
	defer s.Close()
	sn := s.Snapshot()
	if n := sn.Reach.Gr.NumNodes(); n < hubCacheMinNodes {
		t.Fatalf("quotient has %d classes, below hubCacheMinNodes=%d; grow the test graph", n, hubCacheMinNodes)
	}
	us, vs := randomPairs(rng, 3000, 600)
	got := s.BatchReachable(us, vs) // 600 lanes > hubCacheBuildLanes: gate opens
	h := sn.hub.Load()
	if h == nil || len(h.rows) == 0 {
		t.Fatal("hub cache not built despite an amortizing lane volume on a large quotient")
	}
	for i := range us {
		if want := s.Reachable(us[i], vs[i]); got[i] != want {
			t.Fatalf("hub-cached QR(%d,%d)=%v, scalar says %v", us[i], vs[i], got[i], want)
		}
	}
	if _, err := s.ApplyBatch([]graph.Update{graph.Insertion(1, 2)}); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	sn2 := s.Snapshot()
	if sn2 == sn {
		t.Fatal("epoch swap did not publish a fresh snapshot")
	}
	if sn2.hub.Load() != nil {
		t.Fatal("fresh snapshot inherited a hub cache from the previous epoch")
	}
	if sn2.bstats.lanes.Load() != 0 {
		t.Fatal("fresh snapshot inherited lane counters from the previous epoch")
	}
	got2 := s.BatchReachable(us, vs)
	for i := range us {
		if want := s.Reachable(us[i], vs[i]); got2[i] != want {
			t.Fatalf("post-swap QR(%d,%d)=%v, scalar says %v", us[i], vs[i], got2[i], want)
		}
	}
	if st := s.SchedStats(); st.HubCacheLanes+st.HubCachePrunes == 0 {
		t.Fatal("hub cache built but never answered or pruned a lane")
	}
}

// TestSchedulerPool unit-tests the pool machinery against a stub runner:
// pinned waves cluster by key and scatter through the permutation
// correctly, resizing takes, and close drains queued work.
func TestSchedulerPool(t *testing.T) {
	var mu sync.Mutex
	var waves [][]graph.Node
	sc := newScheduler(2,
		func(u, v graph.Node) uint64 { return (uint64(u)&0xFFFFF)<<20 | uint64(v)&0xFFFFF },
		nil, // no bucket hint: always cluster-sort
		func(us, vs []graph.Node, out []bool) {
			mu.Lock()
			waves = append(waves, append([]graph.Node(nil), us...))
			mu.Unlock()
			for i := range us {
				out[i] = us[i] < vs[i]
			}
		})

	// Pinned: interleaved keys must come back correctly scattered, and the
	// clustering sort must group equal-key lanes into the same waves.
	n := 300
	us := make([]graph.Node, n)
	vs := make([]graph.Node, n)
	for i := range us {
		us[i] = graph.Node(i % 5) // 5 locality buckets, interleaved
		vs[i] = graph.Node(i)
	}
	out := make([]bool, n)
	sc.runPinned(us, vs, out, func(wus, wvs []graph.Node, wout []bool) {
		mu.Lock()
		waves = append(waves, append([]graph.Node(nil), wus...))
		mu.Unlock()
		for i := range wus {
			wout[i] = wus[i] < wvs[i]
		}
	})
	for i := range us {
		if out[i] != (us[i] < vs[i]) {
			t.Fatalf("pinned lane %d: out=%v want %v (scatter through perm broken)", i, out[i], us[i] < vs[i])
		}
	}
	mu.Lock()
	for _, w := range waves {
		for j := 1; j < len(w); j++ {
			if w[j] < w[j-1] {
				t.Fatalf("wave not clustered: keys %v", w)
			}
		}
	}
	mu.Unlock()
	if st := sc.stats(); st.ClusteredLanes == 0 || st.Waves == 0 {
		t.Fatalf("clustering never counted: %+v", st)
	}

	// Resize, then coalesce concurrent singles on the new generation.
	sc.setWorkers(4)
	if st := sc.stats(); st.Workers != 4 {
		t.Fatalf("setWorkers(4): stats says %d", st.Workers)
	}
	var wg sync.WaitGroup
	bad := make(chan struct{}, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ans, ok := sc.query(graph.Node(i), graph.Node(i+1))
			if !ok || !ans {
				bad <- struct{}{}
			}
		}(i)
	}
	wg.Wait()
	if len(bad) > 0 {
		t.Fatal("coalesced single answered wrong or refused while open")
	}

	sc.close()
	if _, ok := sc.query(1, 2); ok {
		t.Fatal("query accepted after close")
	}
	sc.close() // idempotent
}
