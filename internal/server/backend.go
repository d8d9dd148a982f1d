package server

import (
	"errors"
	"time"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/store"
)

// ErrReadOnly is returned by Apply on backends that cannot accept writes
// (followers). The server relays it as a MsgErr so clients can redirect
// writes to the leader.
var ErrReadOnly = errors.New("server: read-only replica")

// Backend is what the server needs from a store: snapshot-consistent reads,
// batch writes returning the visibility epoch, and enough metadata to
// validate wire input before it reaches the store. Store, ShardedStore and
// replica followers all satisfy it.
type Backend interface {
	// Epoch is the latest published snapshot epoch; reads carrying a
	// larger minEpoch are held until it catches up.
	Epoch() uint64
	// NumNodes bounds the node ids wire requests may name.
	NumNodes() int
	// Reachable answers one reachability query on the current snapshot;
	// onG answers on the uncompressed graph instead of the quotient.
	Reachable(u, v graph.Node, onG bool) bool
	// SchedReachable answers one quotient reachability query through the
	// store's wave scheduler, letting concurrently queued point queries
	// coalesce into shared 64-lane sweeps.
	SchedReachable(u, v graph.Node) bool
	// BatchReachable answers n queries on one snapshot.
	BatchReachable(us, vs []graph.Node) []bool
	// Match answers a pattern query on the current snapshot.
	Match(p *pattern.Pattern) *pattern.Result
	// Apply submits one batch and returns its visibility epoch (the RYW
	// token); read-only backends return ErrReadOnly.
	Apply(batch []graph.Update) (uint64, error)
	// Term is the backend's current leader term (0 before any failover,
	// and always 0 for in-memory stores).
	Term() uint64
	// ObserveTerm reacts to a term carried by a request. A leader-acting
	// backend fences itself when t exceeds its own term; a follower adopts
	// the term without fencing. Equal or lower terms are no-ops.
	ObserveTerm(t uint64) error
	// Writable reports whether Apply can currently succeed: a leader that
	// is not fenced, or a promoted follower.
	Writable() bool
	// Info summarizes the store for MsgStats.
	Info() Info
}

// Promoter is the optional promotion surface a Backend may implement —
// replica followers do. Promote stops tailing (after waiting up to wait
// for the tail to drain when wait > 0), bumps and fsyncs the term, and
// starts serving Apply; it returns the follower's epoch frontier (no
// acked batch at or below it was lost) and the new term.
type Promoter interface {
	Promote(wait time.Duration) (epoch, term uint64, err error)
}

// localStore is the method set both store kinds share that the server
// calls directly.
type localStore interface {
	Reachable(u, v graph.Node) bool
	ReachableOnG(u, v graph.Node) bool
	SchedReachable(u, v graph.Node) bool
	BatchReachable(us, vs []graph.Node) []bool
	Match(p *pattern.Pattern) *pattern.Result
	Term() uint64
	Fenced() bool
	ObserveTerm(t uint64) error
}

// storeBackend fronts a local store of either kind. The two kinds differ
// only in their snapshot, ApplyBatch result and Stats types, which epoch,
// apply and info bridge. The node count is read once: it is fixed for a
// store's life, and the server bounds every wire request by it.
type storeBackend struct {
	s     localStore
	nodes int
	epoch func() uint64
	apply func(batch []graph.Update) (uint64, error)
	info  func() Info
}

// NewStoreBackend adapts a Store to the serving interface.
func NewStoreBackend(s *store.Store) Backend {
	return &storeBackend{
		s:     s,
		nodes: s.Snapshot().G.NumNodes(),
		epoch: func() uint64 { return s.Snapshot().Epoch },
		apply: func(batch []graph.Update) (uint64, error) {
			res, err := s.ApplyBatch(batch)
			return res.Epoch, err
		},
		info: func() Info {
			st := s.Stats()
			return Info{
				Kind:  "store",
				Epoch: st.Epoch, Batches: st.Batches, Updates: st.Updates, Reads: st.Reads,
				Nodes: st.Nodes, Edges: st.Edges, Shards: 1,
			}
		},
	}
}

// NewShardedBackend adapts a ShardedStore to the serving interface.
func NewShardedBackend(s *store.ShardedStore) Backend {
	return &storeBackend{
		s:     s,
		nodes: s.Stats().Nodes,
		epoch: func() uint64 { return s.Snapshot().Epoch },
		apply: func(batch []graph.Update) (uint64, error) {
			res, err := s.ApplyBatch(batch)
			return res.Epoch, err
		},
		info: func() Info {
			st := s.Stats()
			return Info{
				Kind:  "sharded",
				Epoch: st.Epoch, Batches: st.Batches, Updates: st.Updates, Reads: st.Reads,
				Nodes: st.Nodes, Edges: st.Edges, Shards: st.Shards,
			}
		},
	}
}

func (b *storeBackend) Epoch() uint64 { return b.epoch() }

func (b *storeBackend) NumNodes() int { return b.nodes }

func (b *storeBackend) Reachable(u, v graph.Node, onG bool) bool {
	if onG {
		return b.s.ReachableOnG(u, v)
	}
	return b.s.Reachable(u, v)
}

func (b *storeBackend) SchedReachable(u, v graph.Node) bool { return b.s.SchedReachable(u, v) }

func (b *storeBackend) BatchReachable(us, vs []graph.Node) []bool {
	return b.s.BatchReachable(us, vs)
}

func (b *storeBackend) Match(p *pattern.Pattern) *pattern.Result { return b.s.Match(p) }

func (b *storeBackend) Apply(batch []graph.Update) (uint64, error) { return b.apply(batch) }

func (b *storeBackend) Term() uint64 { return b.s.Term() }

// Fenced reports the store's fence state; the tail handler uses it to
// mark shipped history as frozen.
func (b *storeBackend) Fenced() bool { return b.s.Fenced() }

func (b *storeBackend) ObserveTerm(t uint64) error { return b.s.ObserveTerm(t) }

func (b *storeBackend) Writable() bool { return !b.s.Fenced() }

func (b *storeBackend) Info() Info {
	in := b.info()
	in.Term, in.Writable = b.s.Term(), !b.s.Fenced()
	return in
}
