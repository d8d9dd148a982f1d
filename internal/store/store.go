// Package store composes compression, incremental maintenance and the CSR
// read path into one concurrent lifecycle: a Store owns the mutable
// write-side graph together with both incremental maintainers (incRCM for
// reachability, incPCM for patterns) and serves queries from immutable
// per-epoch snapshots while batches of edge updates land.
//
// # Consistency model (snapshot per epoch, batch-atomic visibility)
//
// All writes funnel through a single writer goroutine. Each ApplyBatch call
// advances the epoch by one; after a group of batches is applied, the writer
// publishes a fresh Snapshot — frozen CSR forms of G, the reachability
// quotient Gr-reach, and the bisimulation quotient Gr-pattern, plus their
// 2-hop indexes — by swapping one atomic pointer. Consequences:
//
//   - Readers never block on writers and never observe a partially applied
//     batch: a batch is invisible until its snapshot swap, then visible in
//     full (batch-atomic visibility).
//   - A reader that loads a Snapshot can keep querying it indefinitely; it
//     observes one consistent epoch, never a torn state. Store-level query
//     methods load the current snapshot per call instead.
//   - ApplyBatch returns only after the snapshot containing its batch is
//     published, so a writer's own subsequent reads see its write
//     (read-your-writes for the caller of ApplyBatch).
//   - Batches from concurrent callers are serialized in arrival order;
//     under write pressure the writer coalesces queued batches into one
//     snapshot rebuild, trading snapshot freshness-granularity for
//     throughput (each batch still gets a distinct epoch number).
//
// Readers pull queries.Scratch traversal state from a sync.Pool, so the
// warm read path performs zero heap allocations for point reachability.
//
// # Durability (snapshot checkpoints + write-ahead log)
//
// With Options.Dir set, the store is durable: every accepted batch is
// appended to a write-ahead log (internal/wal) and made durable — per the
// Sync policy — before ApplyBatch returns, and the full epoch state is
// periodically checkpointed to a binary snapshot file (internal/snapfile),
// after which the covered log prefix is truncated. Reopening the directory
// (Open with a nil graph) loads the newest checkpoint by slicing its flat
// layout — no recompression — and replays any log tail through the
// incremental maintainers as one coalesced group. A store recovered with an
// empty tail serves reads straight from the loaded snapshot and defers
// building maintainer state until the first write. See DESIGN.md,
// "Durability".
//
// # One shell, two engines
//
// Store and ShardedStore share everything above: one writer loop, one
// durability, health and term surface, one Options struct (shell.go). They
// differ only in their engine — how a logged batch group is applied and
// which snapshot type it publishes.
package store

import (
	"sync"
	"sync/atomic"

	"repro/internal/bisim"
	"repro/internal/faultfs"
	"repro/internal/graph"
	"repro/internal/hop2"
	"repro/internal/incbisim"
	"repro/internal/increach"
	"repro/internal/pattern"
	"repro/internal/queries"
	"repro/internal/reach"
	"repro/internal/snapfile"
)

// ReachView is the reachability-compressed face of one snapshot.
type ReachView struct {
	// Gr is the frozen reachability quotient R(G).
	Gr *graph.CSR
	// Compressed carries the node mapping R (Rewrite/ClassOf) and the
	// class member index for this epoch.
	Compressed *reach.Compressed
	// Index is a 2-hop reachability labeling over Gr, nil unless
	// Options.Indexes.
	Index *hop2.Index
}

// PatternView is the pattern-compressed face of one snapshot.
type PatternView struct {
	// Gr is the frozen bisimulation quotient.
	Gr *graph.CSR
	// Compressed carries the class mapping and member index used by the
	// post-processing function P (pattern.Expand).
	Compressed *bisim.Compressed
	// Index is a 2-hop reachability labeling over Gr, nil unless
	// Options.Indexes.
	Index *hop2.Index
}

// Snapshot is the immutable query state of one epoch. All fields are safe
// for concurrent use by any number of goroutines; a Snapshot never changes
// after publication.
type Snapshot struct {
	// Epoch counts applied batches: a snapshot with Epoch = k reflects
	// exactly the first k batches accepted by the store.
	Epoch uint64
	// G is the frozen original graph at this epoch, in public node ids.
	G *graph.CSR

	// gord caches the locality-reordered view of G, materialized on first
	// use (GOrd); gperm, when non-nil, is a permutation recovered from a
	// snapshot file that GOrd applies instead of recomputing.
	gord  atomic.Pointer[graph.Reordered]
	gperm []graph.Node

	// Batch read-path state: the epoch-local counters and instruments, and
	// the lazy hub cache (hubcache.go), which a write retires with its
	// snapshot.
	snapMeta
	hubOnce sync.Once
	hub     atomic.Pointer[hubCache]
	// Reach is the reachability-compressed read path.
	Reach ReachView
	// Pattern is the pattern-compressed read path.
	Pattern PatternView
}

// GOrd returns the locality-reordered view of G: an isomorphic CSR whose
// layout follows a BFS-from-hubs permutation, plus the old↔new id maps.
// The uncompressed traversal paths (ReachableOnG and the batched forms)
// rewrite their endpoints through it once per query; the maps never
// appear in the traversal hot loop. The view is materialized lazily on
// first use — the compressed hot path never needs it, so the writer does
// not pay the O(|G| log |G|) reorder per published epoch — and is safe
// for concurrent callers (a race computes it at most twice, identically).
// See internal/graph/reorder.go.
func (sn *Snapshot) GOrd() *graph.Reordered {
	if ro := sn.gord.Load(); ro != nil {
		return ro
	}
	var ro *graph.Reordered
	if sn.gperm != nil {
		ro = graph.ApplyPerm(sn.G, sn.gperm)
	} else {
		ro = graph.Reorder(sn.G)
	}
	sn.gord.CompareAndSwap(nil, ro)
	return sn.gord.Load()
}

// Reachable answers QR(u,v) on the compressed graph: O(1) rewriting, then
// bidirectional BFS over the frozen Gr-reach. Allocation-free with a warm
// scratch.
func (sn *Snapshot) Reachable(s *queries.Scratch, u, v graph.Node) bool {
	cu, cv := sn.Reach.Compressed.Rewrite(u, v)
	return queries.ReachableBiCSR(sn.Reach.Gr, s, cu, cv)
}

// ReachableOnG answers QR(u,v) by bidirectional BFS over the uncompressed
// snapshot of G — the baseline the compressed path is measured against.
// The traversal runs on the locality-reordered layout after an O(1)
// endpoint rewrite.
func (sn *Snapshot) ReachableOnG(s *queries.Scratch, u, v graph.Node) bool {
	ro := sn.GOrd()
	return queries.ReachableBiCSR(ro.C, s, ro.ToNew(u), ro.ToNew(v))
}

// ReachableHop2 answers QR(u,v) from the snapshot's 2-hop labels over
// Gr-reach: no graph traversal at all. It panics if the store was opened
// with Options.Indexes false; callers that cannot guarantee indexes are on
// should use ReachableHop2OK instead.
func (sn *Snapshot) ReachableHop2(u, v graph.Node) bool {
	if sn.Reach.Index == nil {
		panic("store: ReachableHop2 on a snapshot without 2-hop indexes (Options.Indexes false); use ReachableHop2OK")
	}
	cu, cv := sn.Reach.Compressed.Rewrite(u, v)
	return sn.Reach.Index.Reachable(cu, cv)
}

// ReachableHop2OK is the non-panicking form of ReachableHop2: it reports
// ok = false (and an unspecified first result) when the snapshot carries no
// 2-hop index, letting callers fall back to a traversal-based path.
func (sn *Snapshot) ReachableHop2OK(u, v graph.Node) (reachable, ok bool) {
	if sn.Reach.Index == nil {
		return false, false
	}
	cu, cv := sn.Reach.Compressed.Rewrite(u, v)
	return sn.Reach.Index.Reachable(cu, cv), true
}

// Match computes the maximum match of p on the compressed graph and expands
// it back to G via the post-processing function P.
func (sn *Snapshot) Match(p *pattern.Pattern) *pattern.Result {
	return pattern.Expand(pattern.MatchCSR(sn.Pattern.Gr, p), sn.Pattern.Compressed)
}

// MatchOnG computes the maximum match of p directly on the snapshot of G.
func (sn *Snapshot) MatchOnG(p *pattern.Pattern) *pattern.Result {
	return pattern.MatchCSR(sn.G, p)
}

// ApplyResult reports one ApplyBatch call.
type ApplyResult struct {
	// Epoch is the epoch at which the batch became visible (the batch's
	// 1-based sequence number among all accepted batches).
	Epoch uint64
	// Reach and Pattern report the incremental maintenance work.
	Reach   increach.Stats
	Pattern incbisim.Stats
}

// Stats is a point-in-time summary of the store.
type Stats struct {
	// Epoch, Batches and Updates count accepted work: Batches == Epoch of
	// the latest published snapshot once the writer is idle.
	Epoch   uint64
	Batches uint64
	// Updates counts individual edge updates across all accepted batches.
	Updates uint64
	// Reads counts queries served through Store-level query methods
	// (snapshot-pinned reads are not counted).
	Reads uint64
	// Nodes and Edges describe G at the latest snapshot.
	Nodes, Edges int
	// ReachClasses/ReachRatio and PatternClasses/PatternRatio describe the
	// two quotients at the latest snapshot; ratios are |Gr|/|G|.
	ReachClasses   int
	ReachRatio     float64
	PatternClasses int
	PatternRatio   float64
}

// Store is a concurrent compressed-graph store: one writer, any number of
// readers. See the package documentation for the consistency model. Its
// engine maintains one increach+incbisim pipeline over the whole graph and
// publishes a Snapshot per coalesced batch group; everything else is the
// shared store shell (shell.go). Its ApplyBatch returns an ApplyResult.
type Store struct {
	shell[Snapshot, ApplyResult]

	// rm/pm own the authoritative write-side state (pm keeps its own graph
	// copy in lockstep). Both are nil in a store recovered from a snapshot
	// until the first write forces ensureMaintainers — the lazy path that
	// makes a warm restart O(read) instead of O(recompress). Only the
	// writer goroutine (or Open, before it starts) touches them.
	rm *increach.Maintainer
	pm *incbisim.Maintainer

	scratch  sync.Pool // *queries.Scratch
	bscratch sync.Pool // *queries.BatchScratch
}

// Open returns a running Store serving queries on both compressed forms
// while accepting batched edge updates; Close releases it.
//
// With no Options.Dir, it takes ownership of g (which must not be used
// afterwards), compresses it under both schemes, publishes the epoch-0
// snapshot and starts the writer; it never fails. With a Dir naming a
// fresh directory it additionally writes the epoch-0 checkpoint and opens
// the write-ahead log. With a Dir holding previous state, g must be nil:
// the store recovers by loading the newest checkpoint and replaying the
// WAL tail, and serves reads from the loaded snapshot without
// recompressing anything.
func Open(g *graph.Graph, opts *Options) (*Store, error) {
	o := DefaultOptions()
	if opts != nil {
		o = *opts
	}
	s := &Store{}
	if err := s.open(s, o, snapfile.KindStore, g); err != nil {
		return nil, err
	}
	return s, nil
}

// build compresses g under both schemes through fresh maintainers.
func (s *Store) build(g *graph.Graph) {
	n := g.NumNodes() // captured now: the closure below runs on reader
	// goroutines and must not touch the writer-owned graph
	s.rm = increach.New(g)
	s.pm = incbisim.New(g.Clone())
	s.scratch.New = func() any { return queries.NewScratch(n) }
}

// newSched binds a scheduler to this store: cluster keys come from the
// current reachability quotient (64-aligned class buckets, source in the
// key's high half per the scheduler's 40-bit layout), singles waves run
// the snapshot batch path with pooled scratch.
func (s *Store) newSched() *scheduler {
	return newScheduler(s.opts.SchedWorkers,
		func(u, v graph.Node) uint64 {
			sn := s.Snapshot()
			cu, cv := sn.Reach.Compressed.Rewrite(u, v)
			return (uint64(cu>>6)&0xFFFFF)<<20 | uint64(cv>>6)&0xFFFFF
		},
		func() int { return (s.Snapshot().Reach.Gr.NumNodes() + 63) / 64 },
		func(us, vs []graph.Node, out []bool) {
			bs := s.getBatchScratch()
			s.Snapshot().BatchReachable(bs, us, vs, out)
			s.bscratch.Put(bs)
		})
}

// ensureMaintainers materializes the incremental maintainers of a store
// recovered from a snapshot: the first write (or the WAL tail replay) pays
// the one-time compression cost that the warm restart skipped. Writer
// goroutine only.
func (s *Store) ensureMaintainers() {
	if s.rm != nil {
		return
	}
	gm := s.Snapshot().G.Thaw()
	s.rm = increach.New(gm)
	s.pm = incbisim.New(gm.Clone())
}

// apply runs each batch through both maintainers.
func (s *Store) apply(batches [][]graph.Update, epochs []uint64) []ApplyResult {
	s.ensureMaintainers()
	results := make([]ApplyResult, len(batches))
	for i, b := range batches {
		results[i] = ApplyResult{
			Epoch:   epochs[i],
			Reach:   s.rm.Apply(b),
			Pattern: s.pm.Apply(b),
		}
	}
	return results
}

// assemble freezes the maintainers' state into the snapshot of epoch.
func (s *Store) assemble(epoch uint64) *Snapshot {
	csrG := s.rm.Graph().Freeze()
	rc, rGr := s.rm.CompressedCSR()
	// The two maintainers hold separate graph copies with identical
	// content, so the pattern quotient can be rebuilt over the snapshot of
	// G already frozen above instead of freezing a second time.
	pc, pGr := s.pm.CompressedCSR(csrG)
	// Locality pass: both quotients are relabeled by their locality
	// permutation (baked into the class mappings, so queries need no
	// translation); G's reordered traversal view is materialized lazily
	// by GOrd, off the write path.
	rc, rGr = reorderReach(rc, rGr)
	pc, pGr = reorderPattern(pc, pGr)
	sn := &Snapshot{
		Epoch:   epoch,
		G:       csrG,
		Reach:   ReachView{Gr: rGr, Compressed: rc},
		Pattern: PatternView{Gr: pGr, Compressed: pc},
	}
	if s.opts.Indexes {
		sn.Reach.Index = hop2.BuildCSR(rGr)
		sn.Pattern.Index = hop2.BuildCSR(pGr)
	}
	return sn
}

func (s *Store) head(sn *Snapshot) (uint64, *snapMeta) { return sn.Epoch, &sn.snapMeta }

func (s *Store) numShards() int { return 1 }

func (s *Store) stopWriters() {}

// writeSnap writes sn in the monolithic snapfile layout.
func (s *Store) writeSnap(fsys faultfs.FS, path string, sn *Snapshot) error {
	return snapfile.WriteStoreFS(fsys, path, storeParts(sn))
}

// storeParts projects a published snapshot onto the codec's flat form. The
// snapshot is immutable, so this is safe off the writer goroutine.
func storeParts(sn *Snapshot) *snapfile.StoreParts {
	return &snapfile.StoreParts{
		Epoch:          sn.Epoch,
		G:              sn.G,
		GPerm:          sn.GOrd().NewID,
		ReachGr:        sn.Reach.Gr,
		ReachClassOf:   sn.Reach.Compressed.ClassMap(),
		ReachMembers:   sn.Reach.Compressed.Members,
		ReachCyclic:    sn.Reach.Compressed.CyclicClass,
		ReachIndex:     sn.Reach.Index,
		PatternGr:      sn.Pattern.Gr,
		PatternBlockOf: sn.Pattern.Compressed.ClassMap(),
		PatternMembers: sn.Pattern.Compressed.Members,
		PatternIndex:   sn.Pattern.Index,
	}
}

// load slices the newest checkpoint into a serving snapshot without
// recompressing anything; the maintainers stay nil until the first write.
func (s *Store) load(d *durable) (*Snapshot, int, error) {
	parts, err := snapfile.LoadStoreFS(d.fs, d.snapshotPath())
	if err != nil {
		return nil, 0, err
	}
	s.opts.Indexes = parts.ReachIndex != nil
	// The locality permutation of G round-trips through the snapshot file:
	// GOrd applies it instead of recomputing the numbering, so a recovered
	// snapshot serves the exact layout it checkpointed. Older snapshots
	// without one fall back to recomputing on first use.
	sn := &Snapshot{
		Epoch: parts.Epoch,
		G:     parts.G,
		gperm: parts.GPerm,
		Reach: ReachView{
			Gr:         parts.ReachGr,
			Compressed: reach.AssembleCompressed(parts.ReachGr.Thaw(), parts.ReachClassOf, parts.ReachMembers, parts.ReachCyclic),
			Index:      parts.ReachIndex,
		},
		Pattern: PatternView{
			Gr:         parts.PatternGr,
			Compressed: bisim.AssembleCompressed(parts.PatternGr.Thaw(), parts.PatternBlockOf, parts.PatternMembers),
			Index:      parts.PatternIndex,
		},
	}
	n := sn.G.NumNodes()
	s.scratch.New = func() any { return queries.NewScratch(n) }
	return sn, n, nil
}

// Snapshot returns the current epoch's immutable query state. Use it to pin
// a sequence of queries to one consistent epoch.
func (s *Store) Snapshot() *Snapshot { return s.snap.Load() }

// SchedReachable answers QR(u,v) through the multi-wave scheduler:
// concurrent callers' queries coalesce into shared waves of up to 64
// lanes, so a loaded serving tier pays one lane sweep per wave instead of
// one BFS per query. Answers are identical to
// Reachable; after Close it falls back to the scalar path on the final
// snapshot.
func (s *Store) SchedReachable(u, v graph.Node) bool {
	s.reads.Add(1)
	if s.sched != nil {
		if ans, ok := s.sched.query(u, v); ok {
			return ans
		}
	}
	sc := s.getScratch()
	ok := s.Snapshot().Reachable(sc, u, v)
	s.scratch.Put(sc)
	return ok
}

// getScratch pools traversal scratch across readers; with steady traffic
// every goroutine reuses a warm scratch and point queries allocate nothing.
func (s *Store) getScratch() *queries.Scratch { return s.scratch.Get().(*queries.Scratch) }

// Reachable answers QR(u,v) on the current snapshot's compressed graph.
// Safe for any number of concurrent callers, also during ApplyBatch.
func (s *Store) Reachable(u, v graph.Node) bool {
	s.reads.Add(1)
	sc := s.getScratch()
	ok := s.Snapshot().Reachable(sc, u, v)
	s.scratch.Put(sc)
	return ok
}

// ReachableHop2 answers QR(u,v) preferring the snapshot's 2-hop index and
// falling back cleanly to the bidirectional BFS over Gr when the store was
// opened with Options.Indexes false — it never panics.
func (s *Store) ReachableHop2(u, v graph.Node) bool {
	s.reads.Add(1)
	sn := s.Snapshot()
	if got, ok := sn.ReachableHop2OK(u, v); ok {
		return got
	}
	sc := s.getScratch()
	ok := sn.Reachable(sc, u, v)
	s.scratch.Put(sc)
	return ok
}

// ReachableOnG answers QR(u,v) on the current snapshot of the uncompressed
// graph — the baseline path.
func (s *Store) ReachableOnG(u, v graph.Node) bool {
	s.reads.Add(1)
	sc := s.getScratch()
	ok := s.Snapshot().ReachableOnG(sc, u, v)
	s.scratch.Put(sc)
	return ok
}

// Match answers the pattern query on the current snapshot via the
// compressed graph plus post-processing.
func (s *Store) Match(p *pattern.Pattern) *pattern.Result {
	s.reads.Add(1)
	return s.Snapshot().Match(p)
}

// MatchOnG answers the pattern query directly on the current snapshot of G.
func (s *Store) MatchOnG(p *pattern.Pattern) *pattern.Result {
	s.reads.Add(1)
	return s.Snapshot().MatchOnG(p)
}

// Stats summarizes the store at the current snapshot.
func (s *Store) Stats() Stats {
	sn := s.Snapshot()
	gSize := float64(sn.G.Size())
	return Stats{
		Epoch:          sn.Epoch,
		Batches:        s.batches.Load(),
		Updates:        s.updates.Load(),
		Reads:          s.reads.Load(),
		Nodes:          sn.G.NumNodes(),
		Edges:          sn.G.NumEdges(),
		ReachClasses:   sn.Reach.Gr.NumNodes(),
		ReachRatio:     float64(sn.Reach.Gr.Size()) / gSize,
		PatternClasses: sn.Pattern.Gr.NumNodes(),
		PatternRatio:   float64(sn.Pattern.Gr.Size()) / gSize,
	}
}
