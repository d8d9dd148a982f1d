package main

import (
	"cmp"
	"math/rand"
	"slices"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// closure is the reference answer to every reachability query on one
// uncompressed graph, computed without any of the program's compression or
// index code: a 64-source bit-parallel BFS per group of sources. Following
// the paper, a path has length >= 1, so u reaches u only on a cycle.
type closure struct {
	words int
	// from[v*words+u/64] bit u%64 is set when u has a nonempty path to v.
	from []uint64
}

func newClosure(g *graph.Graph) *closure {
	c := g.Freeze()
	n := c.NumNodes()
	words := (n + 63) / 64
	cl := &closure{words: words, from: make([]uint64, n*words)}
	lanes := make([]uint64, n)
	queued := make([]bool, n)
	ring := make([]graph.Node, n)
	head, size := 0, 0
	push := func(v graph.Node) {
		if !queued[v] {
			queued[v] = true
			ring[(head+size)%n] = v
			size++
		}
	}
	for w := 0; w < words; w++ {
		clear(lanes)
		for i := 0; i < 64 && w*64+i < n; i++ {
			for _, x := range c.Successors(graph.Node(w*64 + i)) {
				lanes[x] |= 1 << i
				push(x)
			}
		}
		for size > 0 {
			x := ring[head]
			head = (head + 1) % n
			size--
			queued[x] = false
			for _, y := range c.Successors(x) {
				if lanes[x]&^lanes[y] != 0 {
					lanes[y] |= lanes[x]
					push(y)
				}
			}
		}
		for v := 0; v < n; v++ {
			cl.from[v*words+w] = lanes[v]
		}
	}
	return cl
}

func (c *closure) reach(u, v graph.Node) bool {
	return c.from[int(v)*c.words+int(u)/64]>>(uint(u)%64)&1 == 1
}

// pairBatch is one batch read's inputs.
type pairBatch struct{ us, vs []graph.Node }

// randomPairs draws k uniform node pairs.
func randomPairs(rng *rand.Rand, n, k int) pairBatch {
	b := pairBatch{make([]graph.Node, k), make([]graph.Node, k)}
	for i := range b.us {
		b.us[i] = graph.Node(rng.Intn(n))
		b.vs[i] = graph.Node(rng.Intn(n))
	}
	return b
}

// churn generates write batches that keep the graph stationary: each batch
// deletes writeBatch/2 live edges and re-inserts as many edges deleted
// earlier, so the edge count never changes and the edge set stays within
// the generated graph. A uniform random stream instead collapses the
// quotients within a few hundred batches, and every read metric would
// drift with run length. newChurn seeds the pool of deleted edges by
// removing churnPool random edges from the graph before it is served.
type churn struct {
	rng  *rand.Rand
	live [][2]graph.Node
	gone [][2]graph.Node
}

const churnPool = 64

func newChurn(rng *rand.Rand, g *graph.Graph) *churn {
	c := &churn{rng: rng, live: g.EdgeList()}
	for i := 0; i < churnPool; i++ {
		e := pick(rng, &c.live)
		g.RemoveEdge(e[0], e[1])
		c.gone = append(c.gone, e)
	}
	return c
}

func pick(rng *rand.Rand, s *[][2]graph.Node) [2]graph.Node {
	k := rng.Intn(len(*s))
	e := (*s)[k]
	(*s)[k] = (*s)[len(*s)-1]
	*s = (*s)[:len(*s)-1]
	return e
}

func (c *churn) next() []graph.Update {
	batch := make([]graph.Update, 0, writeBatch)
	var deleted [][2]graph.Node
	for i := 0; i < writeBatch/2; i++ {
		e := pick(c.rng, &c.live)
		batch = append(batch, graph.Deletion(e[0], e[1]))
		deleted = append(deleted, e)
	}
	for i := 0; i < writeBatch/2; i++ {
		e := pick(c.rng, &c.gone)
		batch = append(batch, graph.Insertion(e[0], e[1]))
		c.live = append(c.live, e)
	}
	c.gone = append(c.gone, deleted...)
	return batch
}

// sameMatch reports whether two pattern answers are the same relation.
func sameMatch(a, b *pattern.Result) bool {
	if a.OK != b.OK {
		return false
	}
	if !a.OK {
		return true
	}
	if len(a.Sets) != len(b.Sets) {
		return false
	}
	for i := range a.Sets {
		x, y := slices.Clone(a.Sets[i]), slices.Clone(b.Sets[i])
		slices.Sort(x)
		slices.Sort(y)
		if !slices.Equal(x, y) {
			return false
		}
	}
	return true
}

// edgeSet lists a CSR's edges in (from, to) order.
func edgeSet(c *graph.CSR) [][2]graph.Node {
	var out [][2]graph.Node
	c.Edges(func(u, v graph.Node) bool {
		out = append(out, [2]graph.Node{u, v})
		return true
	})
	slices.SortFunc(out, func(a, b [2]graph.Node) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	return out
}
