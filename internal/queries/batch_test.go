package queries_test

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/queries"
)

// batchTopologies is the differential zoo for the lane-mask BFS: every
// generator family at small scale.
func batchTopologies(seed int64) map[string]*graph.Graph {
	rng := func(d int64) *rand.Rand { return rand.New(rand.NewSource(seed + d)) }
	return map[string]*graph.Graph{
		"social":   gen.Social(rng(0), 200, 800, 4),
		"web":      gen.Web(rng(1), 200, 700, 4),
		"citation": gen.Citation(rng(2), 180, 600, 4),
		"p2p":      gen.P2P(rng(3), 180, 500, 4),
		"er":       gen.ErdosRenyi(rng(4), 140, 450, 4),
	}
}

// TestBatchReachableMatchesScalar pins the tentpole equality: a 64-lane
// batch answers exactly what 64 scalar BFS calls answer, on every topology,
// for full and ragged batch sizes.
func TestBatchReachableMatchesScalar(t *testing.T) {
	for name, g := range batchTopologies(3) {
		c := g.Freeze()
		n := c.NumNodes()
		rng := rand.New(rand.NewSource(17))
		sc := queries.NewScratch(n)
		bs := queries.NewBatchScratch(n)
		for _, k := range []int{1, 3, 64} {
			for round := 0; round < 6; round++ {
				us := make([]graph.Node, k)
				vs := make([]graph.Node, k)
				for i := range us {
					us[i] = graph.Node(rng.Intn(n))
					if round%2 == 0 {
						vs[i] = graph.Node(rng.Intn(n))
					} else {
						vs[i] = us[i] // self queries: true only on cycles
					}
				}
				out := make([]bool, k)
				queries.BatchReachable(c, bs, us, vs, out)
				for i := range us {
					want := queries.ReachableCSR(c, sc, us[i], vs[i])
					if out[i] != want {
						t.Fatalf("%s k=%d: batch QR(%d,%d)=%v scalar %v",
							name, k, us[i], vs[i], out[i], want)
					}
				}
			}
		}
	}
}

// TestBatchDescendantsAncestorsMatchScalar checks the set-valued forward
// form and the backward lane sweep against the scalar boolean-slice
// traversals.
func TestBatchDescendantsAncestorsMatchScalar(t *testing.T) {
	for name, g := range batchTopologies(9) {
		c := g.Freeze()
		n := c.NumNodes()
		rng := rand.New(rand.NewSource(5))
		bs := queries.NewBatchScratch(n)
		us := make([]graph.Node, 32)
		for i := range us {
			us[i] = graph.Node(rng.Intn(n))
		}
		desc := queries.BatchDescendants(c, bs, us)
		for i, u := range us {
			checkSet(t, name+" descendants", u, desc[i], queries.Descendants(g, u))
		}
		// The backward sweep the sharded router's summary hop runs: lane i
		// must reach exactly the ancestors of us[i].
		bs.Begin(n)
		for i, u := range us {
			bs.Seed(u, 1<<uint(i))
		}
		bs.RunBackward(c)
		for i, u := range us {
			for v, want := range queries.Ancestors(g, u) {
				if got := bs.Lanes(graph.Node(v))>>uint(i)&1 == 1; got != want {
					t.Fatalf("%s ancestors of %d: node %d got %v want %v", name, u, v, got, want)
				}
			}
		}
	}
}

func checkSet(t *testing.T, what string, u graph.Node, got []graph.Node, want []bool) {
	t.Helper()
	cnt := 0
	for _, w := range want {
		if w {
			cnt++
		}
	}
	if len(got) != cnt {
		t.Fatalf("%s of %d: %d nodes, scalar %d", what, u, len(got), cnt)
	}
	prev := graph.Node(-1)
	for _, v := range got {
		if v <= prev {
			t.Fatalf("%s of %d: row not sorted/unique at %d", what, u, v)
		}
		if !want[v] {
			t.Fatalf("%s of %d: extra node %d", what, u, v)
		}
		prev = v
	}
}

// TestBatchScratchReuse checks epoch stamping: the same scratch must give
// fresh, correct answers across many batches and across graphs of
// different sizes, with shared and duplicate endpoints.
func TestBatchScratchReuse(t *testing.T) {
	zoo := batchTopologies(21)
	bs := queries.NewBatchScratch(0)
	sc := queries.NewScratch(0)
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 4; round++ {
		for name, g := range zoo {
			c := g.Freeze()
			n := c.NumNodes()
			us := make([]graph.Node, 16)
			vs := make([]graph.Node, 16)
			shared := graph.Node(rng.Intn(n))
			for i := range us {
				us[i] = shared // all lanes share one source
				vs[i] = graph.Node(rng.Intn(n))
			}
			out := make([]bool, 16)
			queries.BatchReachable(c, bs, us, vs, out)
			for i := range us {
				if want := queries.ReachableCSR(c, sc, us[i], vs[i]); out[i] != want {
					t.Fatalf("%s round %d: shared-source lane %d diverged", name, round, i)
				}
			}
		}
	}
}

// TestBatchEngineComposition exercises the raw Begin/Seed/Target/Run
// surface the routing layer uses: multi-seed lanes and multi-target lanes.
func TestBatchEngineComposition(t *testing.T) {
	g := gen.Web(rand.New(rand.NewSource(4)), 150, 500, 3)
	c := g.Freeze()
	n := c.NumNodes()
	rng := rand.New(rand.NewSource(6))
	bs := queries.NewBatchScratch(n)
	sc := queries.NewScratch(n)
	for round := 0; round < 20; round++ {
		// Lane 0: two sources, two targets. Lane 1: one source, one target.
		s0a, s0b := graph.Node(rng.Intn(n)), graph.Node(rng.Intn(n))
		t0a, t0b := graph.Node(rng.Intn(n)), graph.Node(rng.Intn(n))
		s1, t1 := graph.Node(rng.Intn(n)), graph.Node(rng.Intn(n))
		bs.Begin(n)
		bs.Seed(s0a, 1)
		bs.Seed(s0b, 1)
		bs.Seed(s1, 2)
		bs.Target(t0a, 1)
		bs.Target(t0b, 1)
		bs.Target(t1, 2)
		done := bs.RunForward(c)
		want0 := queries.ReachableCSR(c, sc, s0a, t0a) || queries.ReachableCSR(c, sc, s0a, t0b) ||
			queries.ReachableCSR(c, sc, s0b, t0a) || queries.ReachableCSR(c, sc, s0b, t0b)
		want1 := queries.ReachableCSR(c, sc, s1, t1)
		if got0 := done&1 != 0; got0 != want0 {
			t.Fatalf("round %d: multi-seed/target lane got %v want %v", round, got0, want0)
		}
		if got1 := done&2 != 0; got1 != want1 {
			t.Fatalf("round %d: simple lane got %v want %v", round, got1, want1)
		}
	}
}

// topoDAG builds a random topologically ordered CSR — every non-self-loop
// edge goes from a smaller to a larger id — with self-loops sprinkled in,
// the exact shape of a published reachability quotient.
func topoDAG(seed int64, n, m, loops int) *graph.CSR {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(nil)
	for v := 0; v < n; v++ {
		g.AddNodeNamed("σ")
	}
	for i := 0; i < m; i++ {
		u := rng.Intn(n - 1)
		v := u + 1 + rng.Intn(n-u-1)
		g.AddEdge(graph.Node(u), graph.Node(v))
	}
	for i := 0; i < loops; i++ {
		v := graph.Node(rng.Intn(n))
		g.AddEdge(v, v)
	}
	return g.Freeze()
}

// TestBatchReachableTopoMatchesScalar pins the topological sweep against
// the scalar BFS on DAG+self-loop graphs BOTH below and well above the
// tiny-drain cutoff, so the bidirectional retirement path (cost-balanced
// alternation, lane settlement, drained extraction) is exercised, not
// just the forward drain. Pair mixes cover the O(1) prefilter (backward
// and same-node pairs), narrow and wide windows, and ragged lane counts.
func TestBatchReachableTopoMatchesScalar(t *testing.T) {
	for _, tc := range []struct{ n, m, loops int }{
		{60, 150, 10},    // tiny path (below topoTinyCutoff)
		{900, 2800, 60},  // retirement path, citation-like density
		{2000, 3500, 0},  // retirement path, sparse, no cycles
		{500, 6000, 400}, // dense with many self-loops
	} {
		c := topoDAG(int64(tc.n), tc.n, tc.m, tc.loops)
		if !graph.IsTopoOrdered(c) {
			t.Fatalf("n=%d: construction violated topo order", tc.n)
		}
		rng := rand.New(rand.NewSource(int64(tc.m)))
		sc := queries.NewScratch(0)
		bs := queries.NewBatchScratch(0)
		for _, k := range []int{1, 5, 64} {
			for round := 0; round < 8; round++ {
				us := make([]graph.Node, k)
				vs := make([]graph.Node, k)
				for i := range us {
					us[i] = graph.Node(rng.Intn(tc.n))
					switch i % 4 {
					case 0: // same node: true iff self-loop
						vs[i] = us[i]
					case 1: // narrow forward window
						d := rng.Intn(tc.n/8) + 1
						if int(us[i])+d < tc.n {
							vs[i] = us[i] + graph.Node(d)
						} else {
							vs[i] = graph.Node(tc.n - 1)
						}
					default: // unconstrained (includes backward pairs)
						vs[i] = graph.Node(rng.Intn(tc.n))
					}
				}
				out := make([]bool, k)
				queries.BatchReachableTopo(c, bs, us, vs, out)
				for i := range us {
					if want := queries.ReachableCSR(c, sc, us[i], vs[i]); out[i] != want {
						t.Fatalf("n=%d k=%d round %d: topo QR(%d,%d)=%v scalar %v",
							tc.n, k, round, us[i], vs[i], out[i], want)
					}
				}
			}
		}
	}
}

// oracleHub is a HubDesc over explicitly precomputed descendant bitsets,
// built by an independent per-node BFS so the hub path is pinned against a
// second implementation, not against the sweep it accelerates.
type oracleHub struct {
	rows map[graph.Node][]uint64
}

func (h *oracleHub) Desc(v graph.Node) []uint64 { return h.rows[v] }

// buildOracleHub memoizes the nonempty-path descendant bitsets of the
// `hubs` highest out-degree nodes of c.
func buildOracleHub(c *graph.CSR, hubs int) *oracleHub {
	n := c.NumNodes()
	byDeg := make([]graph.Node, n)
	for v := range byDeg {
		byDeg[v] = graph.Node(v)
	}
	sort.Slice(byDeg, func(i, j int) bool { return c.OutDegree(byDeg[i]) > c.OutDegree(byDeg[j]) })
	if hubs > n {
		hubs = n
	}
	h := &oracleHub{rows: make(map[graph.Node][]uint64, hubs)}
	for _, x := range byDeg[:hubs] {
		row := make([]uint64, (n+63)/64)
		stack := append([]graph.Node(nil), c.Successors(x)...)
		seen := make([]bool, n)
		for len(stack) > 0 {
			y := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[y] {
				continue
			}
			seen[y] = true
			row[int(y)>>6] |= 1 << uint(y&63)
			stack = append(stack, c.Successors(y)...)
		}
		h.rows[x] = row
	}
	return h
}

// TestBatchReachableTopoHubMatchesScalar pins the hub-pruned sweep against
// the plain topo sweep AND the scalar BFS: cached rows may only change
// costs, never answers. The pair mix deliberately seeds lanes AT hub nodes
// (prefilter peel) and routes lanes THROUGH them (forward-sweep prune), and
// the test asserts both hub paths actually fired.
func TestBatchReachableTopoHubMatchesScalar(t *testing.T) {
	for _, tc := range []struct{ n, m, loops int }{
		{900, 2800, 60},
		{2000, 3500, 0},
	} {
		c := topoDAG(int64(tc.n), tc.n, tc.m, tc.loops)
		hub := buildOracleHub(c, 24)
		hubIDs := make([]graph.Node, 0, len(hub.rows))
		for v := range hub.rows {
			hubIDs = append(hubIDs, v)
		}
		rng := rand.New(rand.NewSource(int64(tc.n)))
		sc := queries.NewScratch(0)
		bs := queries.NewBatchScratch(0)
		bsHub := queries.NewBatchScratch(0)
		totLanes, totPrunes := 0, 0
		for _, k := range []int{1, 7, 64} {
			for round := 0; round < 8; round++ {
				us := make([]graph.Node, k)
				vs := make([]graph.Node, k)
				for i := range us {
					if i%3 == 0 { // seed at a hub: exercises the prefilter peel
						us[i] = hubIDs[rng.Intn(len(hubIDs))]
					} else {
						us[i] = graph.Node(rng.Intn(tc.n))
					}
					vs[i] = graph.Node(rng.Intn(tc.n))
				}
				out := make([]bool, k)
				outHub := make([]bool, k)
				queries.BatchReachableTopo(c, bs, us, vs, out)
				lanes, prunes := queries.BatchReachableTopoHub(c, bsHub, hub, us, vs, outHub)
				totLanes += lanes
				totPrunes += prunes
				for i := range us {
					want := queries.ReachableCSR(c, sc, us[i], vs[i])
					if out[i] != want || outHub[i] != want {
						t.Fatalf("n=%d k=%d round %d: QR(%d,%d) topo=%v hub=%v scalar=%v",
							tc.n, k, round, us[i], vs[i], out[i], outHub[i], want)
					}
				}
			}
		}
		if totLanes == 0 {
			t.Fatalf("n=%d: prefilter peel never fired despite hub-seeded lanes", tc.n)
		}
		if totPrunes == 0 {
			t.Fatalf("n=%d: forward-sweep hub prune never fired", tc.n)
		}
	}
}
