// Package qpgc is a Go implementation of query preserving graph
// compression (Fan, Li, Wang, Wu — SIGMOD 2012): compress a labeled
// directed graph G into a small Gr relative to a query class, such that
// every query of the class is answered on Gr by unmodified evaluation
// algorithms after an O(1) rewriting, with optional linear post-processing.
//
// Two compression schemes are provided, matching the paper:
//
//   - Reachability preserving compression (Section 3): Gr's nodes are the
//     classes of the reachability equivalence relation; a reachability
//     query QR(u,v) on G becomes QR(R(u),R(v)) on Gr. Average reduction on
//     real-life-like graphs: ~95%.
//   - Graph pattern preserving compression (Section 4): Gr is the maximum
//     bisimulation quotient; pattern queries via (bounded) simulation run
//     on Gr unchanged, and the match expands back through class members.
//     Average reduction: ~57%.
//
// Both compressed forms can be maintained incrementally under batch edge
// updates (Section 5) without recompressing from scratch, and served
// concurrently: a Store (Open) applies batches on a single writer while
// readers query immutable per-epoch CSR snapshots of G and both compressed
// graphs without ever blocking. A ShardedStore (OpenSharded) scales the
// write path to k partition-parallel pipelines — one writer per SCC-aware
// shard behind a coordinator — and keeps answers exact via a boundary
// summary graph (cross-shard reachability) and a stitched bisimulation
// quotient (cross-shard pattern matching).
//
// # Quick start
//
//	g := qpgc.NewGraph()
//	a := g.AddNodeNamed("A")
//	b := g.AddNodeNamed("B")
//	g.AddEdge(a, b)
//
//	rc := qpgc.CompressReachability(g)
//	u, v := rc.Rewrite(a, b)
//	reachable := qpgc.Reachable(rc.Gr, u, v) // same BFS as on g
//
// See the examples/ directory for runnable programs, DESIGN.md for the
// system inventory and EXPERIMENTS.md for the paper-vs-measured record.
package qpgc

import (
	"io"

	"repro/internal/bisim"
	"repro/internal/faultfs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hop2"
	"repro/internal/incbisim"
	"repro/internal/increach"
	"repro/internal/pattern"
	"repro/internal/queries"
	"repro/internal/reach"
	"repro/internal/store"
)

// Core graph types, re-exported from the graph substrate.
type (
	// Graph is a mutable node-labeled directed graph.
	Graph = graph.Graph
	// Node identifies a graph node (dense ids from 0).
	Node = graph.Node
	// Label identifies an interned node label.
	Label = graph.Label
	// Update is one edge insertion or deletion of a batch ΔG.
	Update = graph.Update
)

// Read-optimized snapshot types.
type (
	// CSR is a frozen compressed-sparse-row snapshot of a Graph: immutable,
	// flat-array adjacency, safe for concurrent readers. Obtain one with
	// Graph.Freeze(); all read-only hot paths (compression, BFS, matching,
	// indexing) run on it.
	CSR = graph.CSR
	// QueryScratch is reusable, epoch-stamped traversal state for the
	// CSR-backed point queries: with a warm scratch, repeated queries over
	// one snapshot allocate nothing.
	QueryScratch = queries.Scratch
)

// Compression results.
type (
	// ReachCompressed is the <R,F> result of reachability preserving
	// compression (no post-processing is needed).
	ReachCompressed = reach.Compressed
	// PatternCompressed is the <R,F,P> result of pattern preserving
	// compression; pattern.Expand is the post-processing P.
	PatternCompressed = bisim.Compressed
)

// Pattern query types.
type (
	// Pattern is a graph pattern query Qp = (Vp, Ep, fv, fe).
	Pattern = pattern.Pattern
	// MatchResult is the maximum match of a pattern in a graph.
	MatchResult = pattern.Result
)

// Incremental maintainers.
type (
	// ReachMaintainer maintains the reachability preserving compression
	// R(G) under edge updates (algorithm incRCM).
	ReachMaintainer = increach.Maintainer
	// PatternMaintainer maintains the pattern preserving compression — the
	// maximum bisimulation quotient of G, a different graph from the
	// reachability quotient R(G) — under edge updates (algorithm incPCM).
	PatternMaintainer = incbisim.Maintainer
	// IncMatcher incrementally maintains one pattern's match over an
	// evolving graph (the IncBMatch baseline).
	IncMatcher = pattern.IncMatcher
)

// Concurrent serving. A Store owns the evolving graph plus both incremental
// maintainers and serves queries from immutable per-epoch CSR snapshots
// while batched updates land on a single writer goroutine; readers never
// block on writers (see internal/store for the consistency model).
type (
	// Store is the concurrent compressed-graph store.
	Store = store.Store
	// StoreSnapshot is one epoch's immutable query state: frozen CSR forms
	// of G, Gr-reach and Gr-pattern with their 2-hop indexes.
	StoreSnapshot = store.Snapshot
	// StoreOptions configures Open.
	StoreOptions = store.Options
	// StoreStats is a point-in-time summary of a Store.
	StoreStats = store.Stats
	// ApplyResult reports one Store.ApplyBatch call.
	ApplyResult = store.ApplyResult
)

// Sharded serving. A ShardedStore partitions G into k shards (SCC-aware)
// with one writer per shard behind a coordinator; per-shard compression
// pipelines are built and maintained in parallel, cross-shard reachability
// routes through a frozen boundary summary graph, and pattern queries
// evaluate on a stitched global bisimulation quotient — answers are exact,
// identical to the unsharded Store (see internal/store and internal/part).
type (
	// ShardedStore is the partition-parallel concurrent store.
	ShardedStore = store.ShardedStore
	// ShardedSnapshot is one epoch's immutable sharded query state: a
	// vector of per-shard snapshots plus the boundary summary and the
	// stitched pattern quotient, published together atomically.
	ShardedSnapshot = store.ShardedSnapshot
	// ShardedOptions configures OpenSharded: the StoreOptions both kinds
	// share, embedded as Options, plus Shards.
	ShardedOptions = store.ShardedOptions
	// ShardedStats is a point-in-time summary of a ShardedStore.
	ShardedStats = store.ShardedStats
	// ShardedApplyResult reports one ShardedStore.ApplyBatch call.
	ShardedApplyResult = store.ShardedApplyResult
	// RouteScratch is reusable traversal state for queries against a
	// ShardedSnapshot.
	RouteScratch = store.RouteScratch
)

// ErrStoreClosed is returned by Store.ApplyBatch after Close.
var ErrStoreClosed = store.ErrClosed

// ErrStoreStateExists is returned by Open/OpenSharded when a graph is
// passed but the durable directory already holds state; pass a nil graph
// to recover it instead.
var ErrStoreStateExists = store.ErrStateExists

// Self-healing and integrity. A durable store runs an explicit health state
// machine: transient write-path faults are retried with capped backoff,
// persistent ones flip the store to a degraded read-only mode (reads keep
// serving the last published epoch) while a background recovery loop
// re-probes the directory and re-arms the write path; an optional scrubber
// re-verifies checkpoints and sealed WAL segments against their checksums,
// quarantining corrupt files and repairing from the in-memory epoch.
type (
	// StoreHealth is a point-in-time health report of a durable store
	// (Store.Health / ShardedStore.Health).
	StoreHealth = store.Health
	// StoreHealthState is the write-path state: StoreHealthy or
	// StoreDegraded.
	StoreHealthState = store.HealthState
	// StoreScrubReport summarizes one integrity scrub pass
	// (Store.ScrubNow / ShardedStore.ScrubNow).
	StoreScrubReport = store.ScrubReport
	// StoreDirScrub is the result of an offline ScrubStoreDir walk.
	StoreDirScrub = store.DirScrub
)

// Health states of a durable store's write path.
const (
	// StoreHealthy means writes are accepted and the WAL is armed.
	StoreHealthy = store.Healthy
	// StoreDegraded means the write path is down: writes fail fast with
	// the degradation reason while reads serve the last published epoch.
	StoreDegraded = store.Degraded
)

// ScrubStoreDir verifies a closed durable directory offline: every
// snapshot and WAL segment is re-read and checked against its stored
// CRC-32C sums. Torn final segments are reported as healable, not corrupt.
func ScrubStoreDir(dir string) (StoreDirScrub, error) { return store.ScrubDir(dir) }

// Fault injection. FaultFS is the filesystem seam threaded through the
// durable store's WAL and snapshot IO; NewFaultInject wraps a filesystem
// with a deterministic fault schedule for robustness testing.
type (
	// FaultFS is the pluggable filesystem interface (nil means the real
	// disk).
	FaultFS = faultfs.FS
	// FaultRule is one deterministic fault in an injection schedule.
	FaultRule = faultfs.Rule
	// FaultInject is a filesystem wrapper that fires FaultRules.
	FaultInject = faultfs.Inject
)

// NewFaultInject wraps fs (nil = the real disk) with a fault schedule.
func NewFaultInject(fs FaultFS, rules ...FaultRule) *FaultInject {
	return faultfs.NewInject(fs, rules...)
}

// ParseFaultPlan parses the textual fault-schedule DSL
// ("enospc@120+40,sync@300+3%wal-") used by qpgc serve -faults.
func ParseFaultPlan(spec string) ([]FaultRule, error) { return faultfs.ParsePlan(spec) }

// SyncMode is the durable store's WAL fsync policy.
type SyncMode = store.SyncMode

// SyncAlways fsyncs the write-ahead log before acknowledging a batch.
const SyncAlways = store.SyncAlways

// SyncNone leaves WAL flushing to the OS page cache.
const SyncNone = store.SyncNone

// Open returns a running Store serving queries on both compressed forms
// while accepting batched edge updates. Pass nil opts for the defaults
// (in-memory, 2-hop indexes on); it never fails without a StoreOptions.Dir.
// With a Dir the store is durable — batches are write-ahead logged before
// acknowledgement and the epoch state checkpoints in the background — and
// Open with a nil graph recovers a previous run's state from the
// directory, serving straight from the loaded snapshot. Close it when done.
func Open(g *Graph, opts *StoreOptions) (*Store, error) { return store.Open(g, opts) }

// OpenSharded returns a running ShardedStore with opts.Shards
// partition-parallel write pipelines. Pass nil opts for the defaults
// (4 shards, per-shard 2-hop indexes, in-memory). Every other setting is
// the embedded StoreOptions, so durability and recovery work as in Open:
// set opts.Options.Dir, and pass a nil graph to recover an existing
// directory. Close it when done.
func OpenSharded(g *Graph, opts *ShardedOptions) (*ShardedStore, error) {
	return store.OpenSharded(g, opts)
}

// HasStoreState reports whether dir holds a recoverable durable store
// (of either kind), i.e. whether Open/OpenSharded there must be given a
// nil graph.
func HasStoreState(dir string) bool { return store.HasState(dir) }

// NewRouteScratch returns empty routing scratch for ShardedSnapshot
// queries; all state grows on demand.
func NewRouteScratch() *RouteScratch { return store.NewRouteScratch() }

// Vectorized batch reads. Up to MaxBatch reachability queries are answered
// by one 64-lane bitset BFS instead of one traversal each; both store
// kinds expose BatchReachable methods that pin a single snapshot epoch for
// the whole batch (ShardedStore additionally batches the boundary
// summary hop per shard rather than per query).
type (
	// BatchScratch is reusable lane-mask BFS state for the CSR-level batch
	// query functions; one goroutine owns it at a time.
	BatchScratch = queries.BatchScratch
	// BatchRouteScratch is reusable state for batched reads against a
	// ShardedSnapshot.
	BatchRouteScratch = store.BatchRouteScratch
	// ReorderedCSR couples a locality-permuted CSR snapshot with its
	// old↔new id maps (see ReorderCSR).
	ReorderedCSR = graph.Reordered
)

// MaxBatch is the lane capacity of the batch read path (one bit of a
// 64-bit mask per query); larger batches chunk into waves transparently.
const MaxBatch = queries.MaxBatch

// SchedStats is a point-in-time snapshot of a store's multi-wave batch
// scheduler: worker count, waves and lanes run, cluster/hub-cache hit
// rates, and hop2-peeled lane counts. Both store kinds expose it via their
// SchedStats methods; see DESIGN.md ("Multi-wave scheduling & frontier
// sharing").
type SchedStats = store.SchedStats

// NewBatchScratch returns batch traversal scratch pre-sized for an n-node
// graph; scratches grow on demand.
func NewBatchScratch(n int) *BatchScratch { return queries.NewBatchScratch(n) }

// NewBatchRouteScratch returns empty batched-routing scratch for
// ShardedSnapshot batch queries.
func NewBatchRouteScratch() *BatchRouteScratch { return store.NewBatchRouteScratch() }

// BatchReachableCSR answers up to MaxBatch reachability queries
// QR(us[i], vs[i]) on a frozen snapshot in one bidirectional lane-mask
// BFS, writing into out; answers equal len(us) scalar ReachableBiCSR calls.
func BatchReachableCSR(c *CSR, bs *BatchScratch, us, vs []Node, out []bool) {
	queries.BatchReachable(c, bs, us, vs, out)
}

// BatchDescendantsCSR computes the descendant sets of up to MaxBatch
// sources in one lane-mask BFS over a frozen snapshot; row i lists, in
// ascending order, every node reachable from us[i] by a nonempty path.
func BatchDescendantsCSR(c *CSR, bs *BatchScratch, us []Node) [][]Node {
	return queries.BatchDescendants(c, bs, us)
}

// ReorderCSR computes the locality permutation of a frozen snapshot (BFS
// from high-out-degree hubs) and returns the permuted CSR with both id
// maps. Store snapshots apply this to G and — in topological form — to the
// published quotients automatically; the function is exported for callers
// managing their own CSRs.
func ReorderCSR(c *CSR) *ReorderedCSR { return graph.Reorder(c) }

// TwoHopIndex is a 2-hop reachability labeling; build it over G or over a
// compressed Gr (the paper's Fig. 12(d) point: indexes compose with
// compression).
type TwoHopIndex = hop2.Index

// Unbounded is the pattern edge bound "*".
const Unbounded = pattern.Unbounded

// NewGraph returns an empty graph with a fresh label table.
func NewGraph() *Graph { return graph.New(nil) }

// ReadGraph parses a graph in the line-oriented text format ("n id label" /
// "e src dst").
func ReadGraph(r io.Reader) (*Graph, error) { return graph.Read(r) }

// WriteGraph serializes a graph in the text format.
func WriteGraph(w io.Writer, g *Graph) error { return graph.Write(w, g) }

// CompressReachability computes the reachability preserving compression
// R(G) (algorithm compressR; O(|V|(|V|+|E|))).
func CompressReachability(g *Graph) *ReachCompressed { return reach.Compress(g) }

// CompressPattern computes the graph pattern preserving compression R(G)
// (algorithm compressB via Paige–Tarjan; O(|E| log |V|)).
func CompressPattern(g *Graph) *PatternCompressed { return bisim.Compress(g) }

// Reachable answers QR(u,v) by BFS — usable identically on G and on a
// compressed Gr (after Rewrite).
func Reachable(g *Graph, u, v Node) bool { return queries.Reachable(g, u, v) }

// ReachableBi answers QR(u,v) by bidirectional BFS.
func ReachableBi(g *Graph, u, v Node) bool { return queries.ReachableBi(g, u, v) }

// NewQueryScratch returns traversal scratch pre-sized for an n-node graph,
// for use with the CSR-backed query functions.
func NewQueryScratch(n int) *QueryScratch { return queries.NewScratch(n) }

// ReachableCSR answers QR(u,v) on a frozen snapshot; allocation-free with
// a warm scratch.
func ReachableCSR(c *CSR, s *QueryScratch, u, v Node) bool {
	return queries.ReachableCSR(c, s, u, v)
}

// ReachableBiCSR answers QR(u,v) by bidirectional BFS on a frozen
// snapshot; allocation-free with a warm scratch.
func ReachableBiCSR(c *CSR, s *QueryScratch, u, v Node) bool {
	return queries.ReachableBiCSR(c, s, u, v)
}

// MatchCSR computes the maximum match of p over a frozen snapshot.
func MatchCSR(c *CSR, p *Pattern) *MatchResult { return pattern.MatchCSR(c, p) }

// NewPattern returns an empty pattern query.
func NewPattern() *Pattern { return pattern.New() }

// Match computes the unique maximum match of p in g (bounded simulation).
func Match(g *Graph, p *Pattern) *MatchResult { return pattern.Match(g, p) }

// Expand is the post-processing function P: it converts a match computed
// on the compressed graph back to the match on the original graph.
func Expand(r *MatchResult, c *PatternCompressed) *MatchResult { return pattern.Expand(r, c) }

// NewReachMaintainer takes ownership of g and maintains its reachability
// compression incrementally (algorithm incRCM).
func NewReachMaintainer(g *Graph) *ReachMaintainer { return increach.New(g) }

// NewPatternMaintainer takes ownership of g and maintains its pattern
// compression incrementally (algorithm incPCM).
func NewPatternMaintainer(g *Graph) *PatternMaintainer { return incbisim.New(g) }

// NewIncMatcher takes ownership of g and incrementally maintains the match
// of p over it.
func NewIncMatcher(g *Graph, p *Pattern) *IncMatcher { return pattern.NewIncMatcher(g, p) }

// BuildTwoHop builds a 2-hop reachability index over g (or a compressed
// graph).
func BuildTwoHop(g *Graph) *TwoHopIndex { return hop2.Build(g) }

// Insertion and Deletion construct batch updates.
func Insertion(u, v Node) Update { return graph.Insertion(u, v) }

// Deletion constructs an edge-deletion update.
func Deletion(u, v Node) Update { return graph.Deletion(u, v) }

// Dataset re-exports the synthetic dataset registry used by the
// experiments (stand-ins for the paper's real-life datasets).
type Dataset = gen.Dataset

// ReachabilityDatasets returns the Table 1 dataset registry.
func ReachabilityDatasets() []Dataset { return gen.ReachabilityDatasets() }

// PatternDatasets returns the Table 2 dataset registry.
func PatternDatasets() []Dataset { return gen.PatternDatasets() }
