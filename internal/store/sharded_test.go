package store

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/queries"
)

// shardedTopologies builds the differential-test graph zoo: every generator
// family at small scale, covering cyclic social graphs, DAG-heavy citation
// graphs, sparse p2p and dense ER graphs.
func shardedTopologies(seed int64) map[string]*graph.Graph {
	rng := func(d int64) *rand.Rand { return rand.New(rand.NewSource(seed + d)) }
	return map[string]*graph.Graph{
		"social":   gen.Social(rng(0), 220, 900, 5),
		"web":      gen.Web(rng(1), 220, 800, 5),
		"citation": gen.Citation(rng(2), 200, 700, 5),
		"p2p":      gen.P2P(rng(3), 200, 600, 5),
		"er":       gen.ErdosRenyi(rng(4), 150, 500, 5),
	}
}

func sameResultSets(a, b *pattern.Result) bool {
	if a.OK != b.OK {
		return false
	}
	if !a.OK {
		return true
	}
	if len(a.Sets) != len(b.Sets) {
		return false
	}
	for u := range a.Sets {
		if len(a.Sets[u]) != len(b.Sets[u]) {
			return false
		}
		for i := range a.Sets[u] {
			if a.Sets[u][i] != b.Sets[u][i] {
				return false
			}
		}
	}
	return true
}

// TestShardedMatchesUnsharded is the tentpole differential test: on every
// generated topology, a sharded store (several k, with and without
// indexes) must answer Reachable and Match identically to the unsharded
// store for the same epoch, across a stream of mixed update batches that
// exercises cross-shard inserts, deletes and boundary churn.
func TestShardedMatchesUnsharded(t *testing.T) {
	for name, g := range shardedTopologies(11) {
		for _, k := range []int{1, 3, 4} {
			indexes := k%2 == 1 // alternate: k=1,3 with, k=4 without
			mono := mustOpen(t, g.Clone(), nil)
			sh := mustOpenSharded(t, g.Clone(), &ShardedOptions{Options: Options{Indexes: indexes}, Shards: k})
			mirror := g.Clone()

			rng := rand.New(rand.NewSource(int64(k) * 31))
			pt := pattern.New()
			pa := pt.AddNode("L0")
			pb := pt.AddNode("L1")
			pt.AddEdge(pa, pb, 2)
			pt2 := pattern.New()
			pc := pt2.AddNode("L1")
			pd := pt2.AddNode("L2")
			pt2.AddEdge(pc, pd, pattern.Unbounded)

			for round := 0; round < 4; round++ {
				if round > 0 {
					batch := gen.RandomBatch(rng, mirror, 35, 0.5)
					mirror.Apply(batch)
					if _, err := mono.ApplyBatch(batch); err != nil {
						t.Fatal(err)
					}
					if _, err := sh.ApplyBatch(batch); err != nil {
						t.Fatal(err)
					}
				}
				msn := mono.Snapshot()
				ssn := sh.Snapshot()
				if msn.Epoch != ssn.Epoch {
					t.Fatalf("%s k=%d: epochs diverged %d vs %d", name, k, msn.Epoch, ssn.Epoch)
				}
				sc := queries.NewScratch(0)
				rs := NewRouteScratch()
				n := mirror.NumNodes()
				for i := 0; i < 300; i++ {
					u := graph.Node(rng.Intn(n))
					v := graph.Node(rng.Intn(n))
					want := msn.Reachable(sc, u, v)
					if got := ssn.Reachable(rs, u, v); got != want {
						t.Fatalf("%s k=%d round %d: sharded Reachable(%d,%d)=%v want %v",
							name, k, round, u, v, got, want)
					}
					if got := ssn.ReachableOnG(rs, u, v); got != want {
						t.Fatalf("%s k=%d round %d: sharded ReachableOnG(%d,%d)=%v want %v",
							name, k, round, u, v, got, want)
					}
				}
				for pi, q := range []*pattern.Pattern{pt, pt2} {
					want := msn.Match(q)
					got := ssn.Match(q)
					if !sameResultSets(want, got) {
						t.Fatalf("%s k=%d round %d: sharded Match #%d diverged (%v/%d vs %v/%d)",
							name, k, round, pi, got.OK, got.Size(), want.OK, want.Size())
					}
				}
			}

			// Stats sanity: the composite edge count must equal the mirror's.
			st := sh.Stats()
			if st.Nodes != mirror.NumNodes() || st.Edges != mirror.NumEdges() {
				t.Fatalf("%s k=%d: sharded stats |V|=%d |E|=%d want |V|=%d |E|=%d",
					name, k, st.Nodes, st.Edges, mirror.NumNodes(), mirror.NumEdges())
			}
			if st.Shards != k {
				t.Fatalf("%s: Shards=%d want %d", name, st.Shards, k)
			}
			mono.Close()
			sh.Close()
		}
	}
}

// TestShardedCloseLifecycle mirrors the unsharded Close contract:
// ApplyBatch after Close returns ErrClosed, double Close is safe, and
// queries keep answering on the last published epoch.
func TestShardedCloseLifecycle(t *testing.T) {
	g := socialGraph(3, 80, 300)
	mirror := g.Clone()
	s := mustOpenSharded(t, g, &ShardedOptions{Options: Options{Indexes: true}, Shards: 3})
	batch := []graph.Update{graph.Insertion(0, 1), graph.Insertion(1, 2)}
	mirror.Apply(batch)
	if _, err := s.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	lastEpoch := s.Snapshot().Epoch
	s.Close()
	s.Close() // idempotent
	if _, err := s.ApplyBatch([]graph.Update{graph.Insertion(2, 3)}); err != ErrClosed {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	sn := s.Snapshot()
	if sn.Epoch != lastEpoch {
		t.Fatalf("post-Close epoch %d, want %d", sn.Epoch, lastEpoch)
	}
	// Queries must still answer, on both the store and a pinned snapshot.
	rs := NewRouteScratch()
	ref := queries.NewScratch(0)
	refCSR := mirror.Freeze()
	for u := graph.Node(0); u < 20; u++ {
		for v := graph.Node(0); v < 20; v++ {
			want := queries.ReachableBiCSR(refCSR, ref, u, v)
			if got := s.Reachable(u, v); got != want {
				t.Fatalf("post-Close Reachable(%d,%d)=%v want %v", u, v, got, want)
			}
			if got := sn.Reachable(rs, u, v); got != want {
				t.Fatalf("post-Close snapshot Reachable(%d,%d)=%v want %v", u, v, got, want)
			}
		}
	}
}

// TestShardedStressReadersVsWriter is the sharded counterpart of the store
// stress test: reader goroutines race the coordinator and shard writers,
// and every sharded answer is validated against the observed snapshot's
// own composite baseline (ReachableOnG), which the differential test pins
// to ground truth. Run under -race in CI.
func TestShardedStressReadersVsWriter(t *testing.T) {
	const (
		epochs    = 16
		readers   = 4
		batchSize = 20
	)
	g := socialGraph(9, 200, 800)
	rng := rand.New(rand.NewSource(10))
	mirror := g.Clone()
	batches := make([][]graph.Update, epochs)
	for i := range batches {
		batches[i] = gen.RandomBatch(rng, mirror, batchSize, 0.5)
		mirror.Apply(batches[i])
	}
	n := g.NumNodes()
	s := mustOpenSharded(t, g, &ShardedOptions{Options: Options{Indexes: true}, Shards: 4})

	var stop atomic.Bool
	var mismatches atomic.Int64
	var wg sync.WaitGroup
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			rs := NewRouteScratch()
			for !stop.Load() {
				sn := s.Snapshot()
				for i := 0; i < 64; i++ {
					u := graph.Node(rng.Intn(n))
					v := graph.Node(rng.Intn(n))
					if sn.Reachable(rs, u, v) != sn.ReachableOnG(rs, u, v) {
						mismatches.Add(1)
					}
				}
			}
		}(r)
	}
	for i := range batches {
		if _, err := s.ApplyBatch(batches[i]); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	s.Close()
	if m := mismatches.Load(); m > 0 {
		t.Fatalf("%d sharded answers diverged from the snapshot baseline", m)
	}
	if got := s.Snapshot().Epoch; got != epochs {
		t.Fatalf("final epoch %d, want %d", got, epochs)
	}
}

// TestShardedSchedStatsCountersMove drives every SchedStats counter on the
// sharded store and asserts each one moves. It pins the publish-fold
// regression where ShardedStore.publish dropped the hub-cache counter pair
// while folding a retiring snapshot's batch counters, so the lifetime
// HubCacheLanes/HubCachePrunes silently read zero after the first write.
func TestShardedSchedStatsCountersMove(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := gen.Citation(rng, 4000, 32000, 5)

	// Unindexed: lanes must reach the local sweeps, where the lane volume
	// opens the per-shard hub-cache gates mid-wave.
	s := mustOpenSharded(t, g.Clone(), &ShardedOptions{Options: Options{Indexes: false}, Shards: 2})
	defer s.Close()
	sn := s.Snapshot()
	for i := range sn.Shards {
		if n := sn.Shards[i].Reach.Gr.NumNodes(); n < hubCacheMinNodes {
			t.Fatalf("shard %d quotient has %d classes, below hubCacheMinNodes=%d; grow the test graph",
				i, n, hubCacheMinNodes)
		}
	}
	us, vs := randomPairs(rng, 4000, 600)
	got := s.BatchReachable(us, vs)
	for i := range us {
		if want := s.Reachable(us[i], vs[i]); got[i] != want {
			t.Fatalf("batch QR(%d,%d)=%v, scalar says %v", us[i], vs[i], got[i], want)
		}
	}
	if st := s.SchedStats(); st.HubCacheLanes+st.HubCachePrunes == 0 {
		t.Fatal("sharded hub caches built but never answered or pruned a lane")
	}

	// Concurrent point queries move the singles counters. Wave WIDTHS are
	// scheduling-dependent (on one P the signaled worker usually cuts each
	// query as its own wave), so only presence is asserted here; the
	// clustering counter gets its own deterministic drive below.
	s.SetSchedWorkers(1)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(us); i += 8 {
				s.SchedReachable(us[i], vs[i])
			}
		}(c)
	}
	wg.Wait()
	if st := s.SchedStats(); st.Waves == 0 || st.Lanes == 0 || st.Singles == 0 {
		t.Fatalf("singles counters stuck: %+v", st)
	}

	// ClusteredLanes, deterministically: the pinned batch path cluster-sorts
	// only past schedClusterMinBuckets locality buckets, and for a sharded
	// store the bucket count is the shard count — so on a store with more
	// shards than the gate, 600 lanes over that many source shards MUST sort
	// some same-shard lanes adjacent (pigeonhole), whatever the machine's
	// scheduling does.
	sc := mustOpenSharded(t, g.Clone(), &ShardedOptions{Options: Options{Indexes: false}, Shards: schedClusterMinBuckets + 2})
	defer sc.Close()
	sc.BatchReachable(us, vs)
	if st := sc.SchedStats(); st.ClusteredLanes == 0 {
		t.Fatalf("pinned batch over %d shards counted no clustered lanes: %+v", schedClusterMinBuckets+2, st)
	}

	// A write retires the counting snapshot: publish must fold ALL the
	// epoch-local counters into the store accumulators, and the fresh
	// snapshot must start with empty counters and empty hub slots.
	before := s.SchedStats()
	if _, err := s.ApplyBatch([]graph.Update{graph.Insertion(1, 2)}); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	sn2 := s.Snapshot()
	if sn2.bstats.lanes.Load() != 0 || sn2.bstats.hubLanes.Load() != 0 {
		t.Fatal("fresh sharded snapshot inherited batch counters from the retired epoch")
	}
	for i := range sn2.hubs {
		if sn2.hubs[i].hub.Load() != nil {
			t.Fatalf("fresh sharded snapshot inherited shard %d's hub cache", i)
		}
	}
	after := s.SchedStats()
	if after.BatchLanes < before.BatchLanes ||
		after.HubCacheLanes < before.HubCacheLanes || after.HubCachePrunes < before.HubCachePrunes {
		t.Fatalf("publish dropped folded counters:\nbefore=%+v\nafter=%+v", before, after)
	}
	if after.BatchLanes == 0 || after.HubCacheLanes+after.HubCachePrunes == 0 {
		t.Fatalf("lifetime sharded counters read zero after publish: %+v", after)
	}
	if after.HubCacheLanes > 0 && after.HubCacheHitRate <= 0 {
		t.Fatalf("HubCacheHitRate not derived from the folded counters: %+v", after)
	}

	// Indexed variant: same-shard lanes peel through the 2-hop index.
	si := mustOpenSharded(t, g.Clone(), &ShardedOptions{Options: Options{Indexes: true}, Shards: 2})
	defer si.Close()
	si.BatchReachable(us, vs)
	if st := si.SchedStats(); st.Hop2Peeled == 0 {
		t.Fatalf("indexed sharded batch peeled no lanes through the 2-hop index: %+v", st)
	}
}
