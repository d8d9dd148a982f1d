// Sharded store: k partition-parallel compression pipelines behind one
// coordinator, with a frozen boundary summary graph for cross-shard
// reachability and a stitched bisimulation quotient for cross-shard
// pattern matching.
//
// # Architecture (one writer per shard, routed from a coordinator)
//
// OpenSharded splits G into k shards with part.Split (SCC-aware, so local
// reachability structure never straddles shards) and starts one writer
// goroutine per shard, each owning that shard's incremental maintainers
// (increach + incbisim over the shard's local subgraph). The coordinator —
// the store shell's writer goroutine, shared with Store — serializes
// ApplyBatch calls and logs them to the WAL; the sharded engine routes
// each update to the shard
// owning both endpoints — or, for cross-shard edges, applies it to the
// coordinator-owned cross adjacency — fans the per-shard sub-batches out
// to the shard writers, and, once all writers acknowledge, assembles and
// publishes the epoch's ShardedSnapshot by one atomic pointer swap:
// a vector of per-shard snapshots plus the boundary summary and stitched
// quotient. The consistency model is the same as the unsharded Store's:
// batch-atomic visibility, read-your-writes for the ApplyBatch caller,
// coalescing under pressure.
//
// # Query routing
//
// Reachable(u,v) runs local-lookup → summary-hop → local-lookup: a
// same-shard query first consults the shard's own compressed quotient (or
// its 2-hop index); any remaining possibility must cross shards, so the
// router collects the boundary nodes u reaches locally, the boundary nodes
// that reach v locally, and asks the frozen summary CSR whether the first
// set reaches the second. Match evaluates on the stitched quotient — a
// true bisimulation of G, so answers are exact — and expands the result
// back to G fanning out per shard (stitched blocks never span shards).
package store

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bisim"
	"repro/internal/faultfs"
	"repro/internal/graph"
	"repro/internal/hop2"
	"repro/internal/incbisim"
	"repro/internal/increach"
	"repro/internal/obs"
	"repro/internal/part"
	"repro/internal/pattern"
	"repro/internal/queries"
	"repro/internal/reach"
	"repro/internal/snapfile"
)

// ShardedOptions configures a ShardedStore: the shared store Options plus
// the partition count. Indexes builds per-shard 2-hop indexes over the
// local reachability quotients (the same-shard fast path).
type ShardedOptions struct {
	Options
	// Shards is the partition count k (clamped to >= 1; 1 degenerates to a
	// single local pipeline with an empty summary). When recovering from a
	// durable directory the snapshot's own shard count wins — the
	// partition is static for the life of the store.
	Shards int
}

// DefaultShardedOptions returns the standard configuration: 4 shards,
// per-shard 2-hop indexes on, in-memory.
func DefaultShardedOptions() ShardedOptions {
	return ShardedOptions{Options: DefaultOptions(), Shards: 4}
}

// ShardView is one shard's slice of a ShardedSnapshot: the frozen local
// subgraph and its reachability-compressed read path.
type ShardView struct {
	// G is the frozen local subgraph (local node ids).
	G *graph.CSR
	// Reach is the shard's reachability-compressed read path (local ids).
	Reach ReachView
	// byClass maps a local reach class to the summary ids of the boundary
	// nodes it contains.
	byClass [][]graph.Node
}

// ShardedSnapshot is the immutable query state of one epoch of a
// ShardedStore: the per-shard snapshot vector, the boundary summary, and
// the stitched pattern quotient, all published together by one atomic
// swap. Safe for concurrent use by any number of goroutines.
type ShardedSnapshot struct {
	// Epoch counts accepted batches, as in Snapshot.
	Epoch uint64
	// Shards is the per-shard snapshot vector.
	Shards []ShardView
	// Summary is the epoch's frozen boundary summary.
	Summary *part.Summary
	// Stitched is the epoch's cross-shard pattern quotient.
	Stitched *part.Stitched

	p        *part.Partition
	crossOut [][]graph.Node // per-epoch immutable cross-shard successors

	// Batch read-path state, as on Snapshot: the epoch-local counters and
	// instruments, and one lazy hub reach-set cache per shard quotient,
	// gated and invalidated exactly like Snapshot.hub (hubcache.go): a
	// write publishes a new snapshot with empty slots.
	snapMeta
	hubs []shardHubSlot
}

// shardHubSlot is one shard's lazy hub-cache cell on a ShardedSnapshot.
type shardHubSlot struct {
	once sync.Once
	hub  atomic.Pointer[hubCache]
}

// hubForShard returns shard s's hub cache for the batch sweep, building it
// at most once per (snapshot, shard) after the amortization gate opens —
// the sharded mirror of Snapshot.hubFor, gated on the snapshot-wide lane
// count and the shard quotient's size.
func (sn *ShardedSnapshot) hubForShard(s int) queries.HubDesc {
	slot := &sn.hubs[s]
	if h := slot.hub.Load(); h != nil {
		if len(h.rows) == 0 {
			return nil
		}
		return h
	}
	gr := sn.Shards[s].Reach.Gr
	if gr.NumNodes() < hubCacheMinNodes || sn.bstats.lanes.Load() < hubCacheBuildLanes {
		return nil
	}
	slot.once.Do(func() { slot.hub.Store(buildHubCache(gr)) })
	if h := slot.hub.Load(); h != nil && len(h.rows) > 0 {
		return h
	}
	return nil
}

// RouteScratch is reusable traversal state for queries against a
// ShardedSnapshot: local BFS marks, summary BFS marks, target stamps and
// collection buffers. A RouteScratch is owned by one goroutine at a time;
// with a warm scratch, routed point queries allocate nothing.
type RouteScratch struct {
	local *queries.Scratch // local quotient traversals
	sum   *queries.Scratch // summary traversals

	tgt      []uint32 // target marks over summary ids
	tgtEpoch uint32

	gMark  []uint32 // composite-graph marks for ReachableOnG
	gEpoch uint32
	gQueue []graph.Node

	buf []graph.Node // source summary ids
	cls []graph.Node // reached local classes
}

// NewRouteScratch returns an empty scratch; all state grows on demand.
func NewRouteScratch() *RouteScratch {
	return &RouteScratch{local: queries.NewScratch(0), sum: queries.NewScratch(0)}
}

// beginTargets readies the target-mark array for nb summary nodes.
func (rs *RouteScratch) beginTargets(nb int) {
	if len(rs.tgt) < nb {
		rs.tgt = make([]uint32, nb)
		rs.tgtEpoch = 0
	}
	rs.tgtEpoch++
	if rs.tgtEpoch == 0 {
		clear(rs.tgt)
		rs.tgtEpoch = 1
	}
}

// beginG readies the composite-graph marks for n global nodes.
func (rs *RouteScratch) beginG(n int) {
	if len(rs.gMark) < n {
		rs.gMark = make([]uint32, n)
		rs.gEpoch = 0
	}
	rs.gEpoch++
	if rs.gEpoch == 0 {
		clear(rs.gMark)
		rs.gEpoch = 1
	}
}

// Reachable answers QR(u,v) on the sharded snapshot: same-shard pairs are
// answered by the shard's local quotient (or 2-hop index) first; anything
// else routes local-lookup → summary-hop → local-lookup. Exact for every
// pair, including cross-shard cycles.
func (sn *ShardedSnapshot) Reachable(rs *RouteScratch, u, v graph.Node) bool {
	p := sn.p
	su, sv := p.ShardOf[u], p.ShardOf[v]
	lu, lv := p.LocalID[u], p.LocalID[v]
	if su == sv {
		sh := &sn.Shards[su]
		cu, cv := sh.Reach.Compressed.Rewrite(lu, lv)
		if sh.Reach.Index != nil {
			if sh.Reach.Index.Reachable(cu, cv) {
				return true
			}
		} else if queries.ReachableBiCSR(sh.Reach.Gr, rs.local, cu, cv) {
			return true
		}
		// A fully local path does not exist; a path leaving and re-entering
		// the shard still might — fall through to the summary route.
	}
	if sn.Summary.NumBoundary() == 0 {
		return false
	}

	// Local lookup, forward: boundary nodes u reaches inside its shard
	// (u itself counts when it is a boundary node).
	shu := &sn.Shards[su]
	rs.cls = queries.DescendantsCSR(shu.Reach.Gr, rs.local, shu.Reach.Compressed.ClassOf(lu), rs.cls[:0])
	rs.buf = rs.buf[:0]
	for _, c := range rs.cls {
		rs.buf = append(rs.buf, shu.byClass[c]...)
	}
	if id := sn.Summary.SumID(u); id >= 0 {
		rs.buf = append(rs.buf, id)
	}
	if len(rs.buf) == 0 {
		return false
	}

	// Local lookup, backward: boundary nodes reaching v inside its shard.
	shv := &sn.Shards[sv]
	rs.cls = queries.AncestorsCSR(shv.Reach.Gr, rs.local, shv.Reach.Compressed.ClassOf(lv), rs.cls[:0])
	// Marks must cover every summary node: the BFS traverses class nodes
	// (ids >= NumBoundary) even though only boundary nodes are targets.
	rs.beginTargets(sn.Summary.S.NumNodes())
	targets := 0
	for _, c := range rs.cls {
		for _, id := range shv.byClass[c] {
			if rs.tgt[id] != rs.tgtEpoch {
				rs.tgt[id] = rs.tgtEpoch
				targets++
			}
		}
	}
	if id := sn.Summary.SumID(v); id >= 0 && rs.tgt[id] != rs.tgtEpoch {
		rs.tgt[id] = rs.tgtEpoch
		targets++
	}
	if targets == 0 {
		return false
	}

	// Summary hop: does some source boundary node reach some target
	// boundary node by a nonempty summary path?
	return queries.ReachableAnyCSR(sn.Summary.S, rs.sum, rs.buf, func(w graph.Node) bool {
		return rs.tgt[w] == rs.tgtEpoch
	})
}

// ReachableOnG answers QR(u,v) by BFS over the composite of the local
// subgraphs and the cross-shard adjacency — semantically the uncompressed
// G of this epoch. It is the sharded baseline/verification path.
func (sn *ShardedSnapshot) ReachableOnG(rs *RouteScratch, u, v graph.Node) bool {
	p := sn.p
	rs.beginG(len(p.ShardOf))
	epoch := rs.gEpoch
	queue := rs.gQueue[:0]
	found := false
	visit := func(w graph.Node) {
		if w == v {
			found = true
			return
		}
		if rs.gMark[w] != epoch {
			rs.gMark[w] = epoch
			queue = append(queue, w)
		}
	}
	expand := func(x graph.Node) {
		s := p.ShardOf[x]
		lx := p.LocalID[x]
		for _, lw := range sn.Shards[s].G.Successors(lx) {
			visit(p.Nodes[s][lw])
			if found {
				return
			}
		}
		for _, w := range sn.crossOut[x] {
			visit(w)
			if found {
				return
			}
		}
	}
	expand(u)
	for i := 0; i < len(queue) && !found; i++ {
		expand(queue[i])
	}
	rs.gQueue = queue
	return found
}

// Match computes the maximum match of pt on the stitched quotient and
// expands it back to G, fanning the expansion out per shard and merging
// the per-shard chunks (stitched blocks never span shards).
func (sn *ShardedSnapshot) Match(pt *pattern.Pattern) *pattern.Result {
	r := pattern.MatchCSR(sn.Stitched.Q, pt)
	if !r.OK {
		return r
	}
	k := sn.p.K
	np := len(r.Sets)
	chunks := make([][][]graph.Node, k) // shard -> pattern node -> members
	var wg sync.WaitGroup
	wg.Add(k)
	for s := 0; s < k; s++ {
		go func(s int) {
			defer wg.Done()
			mine := make([][]graph.Node, np)
			for u, classes := range r.Sets {
				for _, cls := range classes {
					if sn.Stitched.ShardOfBlock[cls] == int32(s) {
						mine[u] = append(mine[u], sn.Stitched.Members[cls]...)
					}
				}
			}
			chunks[s] = mine
		}(s)
	}
	wg.Wait()
	out := &pattern.Result{OK: true, Sets: make([][]graph.Node, np)}
	for u := 0; u < np; u++ {
		var set []graph.Node
		for s := 0; s < k; s++ {
			set = append(set, chunks[s][u]...)
		}
		sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
		out.Sets[u] = set
	}
	return out
}

// ShardedApplyResult reports one ShardedStore.ApplyBatch call.
type ShardedApplyResult struct {
	// Epoch is the epoch at which the batch became visible.
	Epoch uint64
	// LocalUpdates and CrossUpdates count how the batch's updates were
	// routed: to a single shard's pipeline vs. the cross-shard adjacency.
	LocalUpdates, CrossUpdates int
}

// ShardedStats is a point-in-time summary of a ShardedStore.
type ShardedStats struct {
	// Epoch, Batches, Updates and Reads count accepted work, as in Stats.
	Epoch, Batches, Updates, Reads uint64
	// Shards is the partition count k.
	Shards int
	// Nodes and Edges describe the composite G at the latest snapshot
	// (local edges of all shards plus cross-shard edges).
	Nodes, Edges int
	// CrossEdges and Boundary describe the cut: cross-shard edges and
	// boundary nodes.
	CrossEdges, Boundary int
	// SummaryEdges counts edges of the boundary summary graph.
	SummaryEdges int
	// ReachClasses sums the per-shard reachability quotient sizes;
	// StitchClasses counts the stitched pattern quotient's blocks.
	ReachClasses, StitchClasses int
}

// shardCmd asks a shard writer to apply a local sub-batch (possibly empty)
// and refresh its epoch view.
type shardCmd struct {
	batch []graph.Update // local-id updates
	view  *shardEpochView
	wg    *sync.WaitGroup
}

// shardEpochView is one shard's contribution to a publish, filled in by
// the shard writer.
type shardEpochView struct {
	g     *graph.CSR
	rGr   *graph.CSR
	rc    *reach.Compressed
	part  *bisim.Partition
	dirty bool
}

// shardWorker owns one shard's incremental maintainers; only its writer
// goroutine touches them.
type shardWorker struct {
	local *graph.Graph // handed to run(), which builds the maintainers
	reqs  chan *shardCmd
	done  chan struct{}
	hist  *obs.Histogram // per-shard batch latency; nil when metrics are off
}

func (w *shardWorker) run() {
	defer close(w.done)
	rm := increach.New(w.local)
	pm := incbisim.New(w.local.Clone())
	w.local = nil
	var cached shardEpochView
	for cmd := range w.reqs {
		if len(cmd.batch) > 0 || cached.g == nil {
			var start time.Time
			if w.hist != nil {
				start = time.Now()
			}
			if len(cmd.batch) > 0 {
				rm.Apply(cmd.batch)
				pm.Apply(cmd.batch)
			}
			cached.g = rm.Graph().Freeze()
			cached.rc, cached.rGr = rm.CompressedCSR()
			// Locality pass: the shard's quotient is relabeled by its
			// BFS-from-hubs permutation, baked into the class mapping so
			// the routed read path and the boundary summary build see one
			// consistent (permuted) id space.
			cached.rc, cached.rGr = reorderReach(cached.rc, cached.rGr)
			cached.part = pm.Partition()
			cmd.view.dirty = true
			if w.hist != nil {
				w.hist.Observe(time.Since(start))
			}
		}
		cmd.view.g = cached.g
		cmd.view.rGr = cached.rGr
		cmd.view.rc = cached.rc
		cmd.view.part = cached.part
		cmd.wg.Done()
	}
}

// ShardedStore is a concurrent compressed-graph store with k
// partition-parallel write pipelines: one coordinator, one writer per
// shard, any number of readers. See the file documentation for the
// architecture and consistency model. Its engine routes each batch to the
// shard writers and publishes a ShardedSnapshot; the coordinator goroutine
// and everything else around the engine is the shared store shell
// (shell.go). Its ApplyBatch returns a ShardedApplyResult.
type ShardedStore struct {
	shell[ShardedSnapshot, ShardedApplyResult]

	k      int // partition count, static for the life of the store
	p      *part.Partition
	labels *graph.Labels

	// workers is nil in a store recovered from a snapshot until the first
	// write forces ensureWorkers (the lazy warm-restart path). Only the
	// coordinator goroutine (or OpenSharded, before it starts) touches it.
	workers []*shardWorker

	// Coordinator-owned evolving cross-shard state. Rows of crossOut are
	// copy-on-write: mutation writes a fresh slice, so published snapshots
	// can share rows safely.
	crossOut      [][]graph.Node
	crossInDeg    []int32
	crossEdges    int
	boundary      []graph.Node   // cached global boundary list
	shardBoundary [][]graph.Node // cached per-shard boundary lists
	boundaryDirty bool
	byClass       [][][]graph.Node  // per-shard class -> summary ids
	hopIdx        []*hop2.Index     // cached per-shard 2-hop indexes
	views         []*shardEpochView // latest per-shard views

	scratch  sync.Pool // *RouteScratch
	bscratch sync.Pool // *BatchRouteScratch
}

// OpenSharded returns a running ShardedStore with opts.Shards
// partition-parallel write pipelines; Close releases it.
//
// With no Options.Dir it takes ownership of g (which must not be used
// afterwards), partitions it, builds every shard's compression pipeline
// concurrently, publishes the epoch-0 snapshot and starts the coordinator;
// it never fails. With a Dir naming a fresh directory it additionally
// writes the epoch-0 checkpoint and opens the write-ahead log. With a Dir
// holding previous state, g must be nil: the store recovers the whole
// epoch vector from the checkpoint, replays the WAL tail through the
// per-shard maintainers, and serves reads without recompressing anything.
func OpenSharded(g *graph.Graph, opts *ShardedOptions) (*ShardedStore, error) {
	o := DefaultShardedOptions()
	if opts != nil {
		o = *opts
	}
	s := &ShardedStore{k: max(o.Shards, 1)}
	if err := s.open(s, o.Options, snapfile.KindSharded, g); err != nil {
		return nil, err
	}
	return s, nil
}

// build partitions g and starts every shard's pipeline, materializing the
// epoch-0 shard views.
func (s *ShardedStore) build(g *graph.Graph) {
	c := g.Freeze()
	p := part.Split(c, s.k)
	s.p = p
	s.labels = c.Labels()
	s.crossOut, s.crossInDeg, s.crossEdges = p.CrossOut, p.CrossInDeg, p.CrossEdges
	s.boundaryDirty = true
	s.initShardState()
	s.workers = make([]*shardWorker, s.k)
	for i := range s.workers {
		s.workers[i] = s.startWorker(i, p.Subgraph(c, i))
	}
	s.roundTrip(make([][]graph.Update, s.k))
}

// initShardState allocates the per-shard caches and the scratch pool.
func (s *ShardedStore) initShardState() {
	s.byClass = make([][][]graph.Node, s.k)
	s.hopIdx = make([]*hop2.Index, s.k)
	s.views = make([]*shardEpochView, s.k)
	s.scratch.New = func() any { return NewRouteScratch() }
}

// startWorker launches shard i's writer over its local subgraph; the
// writer builds the shard pipeline, then serves commands.
func (s *ShardedStore) startWorker(i int, local *graph.Graph) *shardWorker {
	w := &shardWorker{
		local: local,
		reqs:  make(chan *shardCmd),
		done:  make(chan struct{}),
		hist:  shardBatchHist(s.opts.Obs, i),
	}
	go w.run()
	return w
}

// newSched binds a scheduler to this store: cluster keys come from the
// static partition (shard pair buckets, source shard in the key's high
// half per the scheduler's 40-bit layout — co-batched lanes then touch
// few shards per wave), singles waves run the sharded batch route with
// pooled scratch.
func (s *ShardedStore) newSched() *scheduler {
	return newScheduler(s.opts.SchedWorkers,
		func(u, v graph.Node) uint64 {
			return (uint64(s.p.ShardOf[u])&0xFFFFF)<<20 | uint64(s.p.ShardOf[v])&0xFFFFF
		},
		func() int { return s.k },
		func(us, vs []graph.Node, out []bool) {
			brs := s.getBatchScratch()
			s.Snapshot().BatchReachable(brs, us, vs, out)
			s.bscratch.Put(brs)
		})
}

// roundTrip routes the per-shard sub-batches to the shard writers and
// waits for the touched writers to refresh their views. Shards with an
// empty sub-batch keep last epoch's view untouched and are not messaged at
// all (except on the first trip, when every view must be materialized), so
// a batch naming few shards costs few coordinator-writer handoffs. Touched
// writers run concurrently; the coordinator blocks until the slowest
// finishes.
func (s *ShardedStore) roundTrip(batches [][]graph.Update) {
	var wg sync.WaitGroup
	for i, w := range s.workers {
		if len(batches[i]) == 0 && s.views[i] != nil {
			continue
		}
		view := &shardEpochView{}
		s.views[i] = view
		wg.Add(1)
		w.reqs <- &shardCmd{batch: batches[i], view: view, wg: &wg}
	}
	wg.Wait()
}

// applyCross applies one cross-shard update to the coordinator's cross
// adjacency with copy-on-write rows. It returns whether the edge set
// changed and marks the boundary list dirty when a node's boundary
// membership flipped.
func (s *ShardedStore) applyCross(u, v graph.Node, insert bool) bool {
	row := s.crossOut[u]
	i := sort.Search(len(row), func(i int) bool { return row[i] >= v })
	present := i < len(row) && row[i] == v
	if insert == present {
		return false
	}
	wasBoundaryU := len(row) > 0 || s.crossInDeg[u] > 0
	wasBoundaryV := len(s.crossOut[v]) > 0 || s.crossInDeg[v] > 0
	if insert {
		next := make([]graph.Node, len(row)+1)
		copy(next, row[:i])
		next[i] = v
		copy(next[i+1:], row[i:])
		s.crossOut[u] = next
		s.crossInDeg[v]++
		s.crossEdges++
	} else {
		next := make([]graph.Node, 0, len(row)-1)
		next = append(next, row[:i]...)
		next = append(next, row[i+1:]...)
		if len(next) == 0 {
			next = nil
		}
		s.crossOut[u] = next
		s.crossInDeg[v]--
		s.crossEdges--
	}
	if isB := len(s.crossOut[u]) > 0 || s.crossInDeg[u] > 0; isB != wasBoundaryU {
		s.boundaryDirty = true
	}
	if isB := len(s.crossOut[v]) > 0 || s.crossInDeg[v] > 0; isB != wasBoundaryV {
		s.boundaryDirty = true
	}
	return true
}

// ensureWorkers materializes the per-shard writers of a store recovered
// from a snapshot: local graphs are thawed from the loaded shard views and
// the incremental maintainers rebuilt, paying on the first write (or the
// WAL tail replay) the compression cost the warm restart skipped.
// Coordinator goroutine only.
func (s *ShardedStore) ensureWorkers() {
	if s.workers != nil {
		return
	}
	sn := s.Snapshot()
	s.workers = make([]*shardWorker, s.k)
	for i := range s.workers {
		s.workers[i] = s.startWorker(i, sn.Shards[i].G.Thaw())
	}
	for i := range s.views {
		s.views[i] = nil // force every writer to materialize its view
	}
	s.roundTrip(make([][]graph.Update, s.k))
}

// apply splits each batch into per-shard local sub-batches and
// coordinator-applied cross-shard updates, then runs one round trip to the
// shard writers for the whole group: routing order per shard and
// cross-adjacency application order follow the batch order.
func (s *ShardedStore) apply(batches [][]graph.Update, epochs []uint64) []ShardedApplyResult {
	s.ensureWorkers()
	local := make([][]graph.Update, s.k)
	results := make([]ShardedApplyResult, len(batches))
	for i, batch := range batches {
		res := &results[i]
		res.Epoch = epochs[i]
		for _, up := range batch {
			su, sv := s.p.ShardOf[up.From], s.p.ShardOf[up.To]
			if su == sv {
				local[su] = append(local[su], graph.Update{
					From:   s.p.LocalID[up.From],
					To:     s.p.LocalID[up.To],
					Insert: up.Insert,
				})
				res.LocalUpdates++
			} else {
				s.applyCross(up.From, up.To, up.Insert)
				res.CrossUpdates++
			}
		}
	}
	s.roundTrip(local)
	return results
}

func (s *ShardedStore) head(sn *ShardedSnapshot) (uint64, *snapMeta) {
	return sn.Epoch, &sn.snapMeta
}

func (s *ShardedStore) numShards() int { return s.k }

// stopWriters stops every shard writer and waits for it to exit.
func (s *ShardedStore) stopWriters() {
	for _, w := range s.workers {
		close(w.reqs)
	}
	for _, w := range s.workers {
		<-w.done
	}
}

// writeSnap writes sn in the sharded snapfile layout.
func (s *ShardedStore) writeSnap(fsys faultfs.FS, path string, sn *ShardedSnapshot) error {
	return snapfile.WriteShardedFS(fsys, path, shardedParts(s, sn))
}

// shardedParts projects a published sharded snapshot onto the codec's
// flat form. Everything referenced is immutable, so this is safe off the
// coordinator goroutine.
func shardedParts(s *ShardedStore, sn *ShardedSnapshot) *snapfile.ShardedParts {
	p := &snapfile.ShardedParts{
		Epoch:     sn.Epoch,
		K:         sn.p.K,
		Labels:    s.labels,
		ShardOf:   sn.p.ShardOf,
		NodeLabel: sn.p.Label,
		CrossOut:  sn.crossOut,
		Shards:    make([]snapfile.ShardParts, sn.p.K),
		Summary:   sn.Summary,
		Stitched:  sn.Stitched,
	}
	for i := range sn.Shards {
		sv := &sn.Shards[i]
		p.Shards[i] = snapfile.ShardParts{
			G:            sv.G,
			ReachGr:      sv.Reach.Gr,
			ReachClassOf: sv.Reach.Compressed.ClassMap(),
			ReachMembers: sv.Reach.Compressed.Members,
			ReachCyclic:  sv.Reach.Compressed.CyclicClass,
			ReachIndex:   sv.Reach.Index,
		}
	}
	return p
}

// load rebuilds the static partition and the full epoch vector from the
// checkpoint by slicing; the shard writers stay unstarted until the first
// write.
func (s *ShardedStore) load(d *durable) (*ShardedSnapshot, int, error) {
	parts, err := snapfile.LoadShardedFS(d.fs, d.snapshotPath())
	if err != nil {
		return nil, 0, err
	}
	k := parts.K
	s.k = k
	s.opts.Indexes = parts.Shards[0].ReachIndex != nil

	// The static partition: ShardOf and the label array are stored; the
	// dense local ids and per-shard node lists are re-derived exactly as
	// Split assigned them (ascending global id within each shard).
	n := len(parts.ShardOf)
	p := &part.Partition{
		K:          k,
		ShardOf:    parts.ShardOf,
		LocalID:    make([]int32, n),
		Nodes:      make([][]graph.Node, k),
		Label:      parts.NodeLabel,
		CrossOut:   parts.CrossOut,
		CrossInDeg: make([]int32, n),
	}
	for v := 0; v < n; v++ {
		sh := p.ShardOf[v]
		p.LocalID[v] = int32(len(p.Nodes[sh]))
		p.Nodes[sh] = append(p.Nodes[sh], graph.Node(v))
	}
	for v := 0; v < n; v++ {
		for _, w := range p.CrossOut[v] {
			p.CrossInDeg[w]++
			p.CrossEdges++
		}
	}

	s.p = p
	s.labels = parts.Labels
	s.crossOut, s.crossInDeg, s.crossEdges = p.CrossOut, p.CrossInDeg, p.CrossEdges
	s.boundary = parts.Summary.Boundary
	s.initShardState()
	s.shardBoundary = make([][]graph.Node, k)
	for _, v := range s.boundary {
		sh := p.ShardOf[v]
		s.shardBoundary[sh] = append(s.shardBoundary[sh], v)
	}

	// Reassemble the epoch vector: per-shard views with re-derived
	// class→summary-id maps, exactly as assemble builds them.
	shards := make([]ShardView, k)
	for i := 0; i < k; i++ {
		sp := &parts.Shards[i]
		rc := reach.AssembleCompressed(sp.ReachGr.Thaw(), sp.ReachClassOf, sp.ReachMembers, sp.ReachCyclic)
		by := make([][]graph.Node, rc.NumClasses())
		for _, g := range s.shardBoundary[i] {
			cls := rc.ClassOf(p.LocalID[g])
			by[cls] = append(by[cls], parts.Summary.SumID(g))
		}
		s.byClass[i] = by
		if s.opts.Indexes {
			s.hopIdx[i] = sp.ReachIndex
		}
		shards[i] = ShardView{
			G:       sp.G,
			Reach:   ReachView{Gr: sp.ReachGr, Compressed: rc, Index: sp.ReachIndex},
			byClass: by,
		}
	}
	sn := &ShardedSnapshot{
		Epoch:    parts.Epoch,
		Shards:   shards,
		Summary:  parts.Summary,
		Stitched: parts.Stitched,
		p:        p,
		crossOut: append([][]graph.Node(nil), s.crossOut...),
		hubs:     make([]shardHubSlot, k),
	}
	return sn, n, nil
}

// assemble builds the epoch's snapshot from the latest shard views and
// cross-shard state.
func (s *ShardedStore) assemble(epoch uint64) *ShardedSnapshot {
	k := s.k
	if s.boundaryDirty {
		s.boundary = part.BoundaryNodes(s.crossOut, s.crossInDeg)
		s.shardBoundary = make([][]graph.Node, k)
		for _, v := range s.boundary {
			sh := s.p.ShardOf[v]
			s.shardBoundary[sh] = append(s.shardBoundary[sh], v)
		}
		s.boundaryDirty = false
	}

	// Per-shard 2-hop indexes; clean shards reuse the cached index.
	hopWanted := make([]*graph.CSR, k)
	rcs := make([]*reach.Compressed, k)
	grs := make([]*graph.CSR, k)
	for i := 0; i < k; i++ {
		v := s.views[i]
		rcs[i] = v.rc
		grs[i] = v.rGr
		if s.opts.Indexes && (v.dirty || s.hopIdx[i] == nil) {
			hopWanted[i] = v.rGr
		}
	}
	summary := part.BuildSummary(s.boundary, s.crossOut, s.shardBoundary, s.p.LocalID, rcs, grs)
	// Class -> summary-id maps are rebuilt every publish: they are cheap
	// (O(classes + boundary) per shard) and summary ids shift whenever the
	// boundary set changes.
	for i := 0; i < k; i++ {
		v := s.views[i]
		by := make([][]graph.Node, v.rc.NumClasses())
		for _, g := range s.shardBoundary[i] {
			cls := v.rc.ClassOf(s.p.LocalID[g])
			by[cls] = append(by[cls], summary.SumID(g))
		}
		s.byClass[i] = by
	}
	if s.opts.Indexes {
		built := hop2.BuildAll(hopWanted, 0)
		for i := 0; i < k; i++ {
			if built[i] != nil {
				s.hopIdx[i] = built[i]
			}
		}
	}

	locals := make([]*graph.CSR, k)
	parts := make([]*bisim.Partition, k)
	for i := 0; i < k; i++ {
		locals[i] = s.views[i].g
		parts[i] = s.views[i].part
	}
	stitched := part.BuildStitched(s.p, locals, parts, s.crossOut, s.labels)

	shards := make([]ShardView, k)
	for i := 0; i < k; i++ {
		v := s.views[i]
		shards[i] = ShardView{
			G: v.g,
			Reach: ReachView{
				Gr:         v.rGr,
				Compressed: v.rc,
				Index:      s.hopIdx[i],
			},
			byClass: s.byClass[i],
		}
		v.dirty = false
	}
	return &ShardedSnapshot{
		Epoch:    epoch,
		Shards:   shards,
		Summary:  summary,
		Stitched: stitched,
		p:        s.p,
		crossOut: append([][]graph.Node(nil), s.crossOut...),
		hubs:     make([]shardHubSlot, k),
	}
}

// Snapshot returns the current epoch's immutable query state. Use it to
// pin a sequence of queries to one consistent epoch.
func (s *ShardedStore) Snapshot() *ShardedSnapshot { return s.snap.Load() }

// SchedReachable answers QR(u,v) through the multi-wave scheduler, as
// Store.SchedReachable: concurrent point queries coalesce into shared
// waves over the sharded batch route. After Close it falls back to the
// scalar routed path on the final snapshot.
func (s *ShardedStore) SchedReachable(u, v graph.Node) bool {
	s.reads.Add(1)
	if s.sched != nil {
		if ans, ok := s.sched.query(u, v); ok {
			return ans
		}
	}
	rs := s.getScratch()
	ok := s.Snapshot().Reachable(rs, u, v)
	s.scratch.Put(rs)
	return ok
}

// getScratch pools routing scratch across readers.
func (s *ShardedStore) getScratch() *RouteScratch { return s.scratch.Get().(*RouteScratch) }

// Reachable answers QR(u,v) on the current snapshot via the sharded read
// path. Safe for any number of concurrent callers, also during ApplyBatch.
func (s *ShardedStore) Reachable(u, v graph.Node) bool {
	s.reads.Add(1)
	rs := s.getScratch()
	ok := s.Snapshot().Reachable(rs, u, v)
	s.scratch.Put(rs)
	return ok
}

// ReachableOnG answers QR(u,v) on the current snapshot's composite
// uncompressed graph — the sharded baseline path.
func (s *ShardedStore) ReachableOnG(u, v graph.Node) bool {
	s.reads.Add(1)
	rs := s.getScratch()
	ok := s.Snapshot().ReachableOnG(rs, u, v)
	s.scratch.Put(rs)
	return ok
}

// Match answers the pattern query on the current snapshot via the stitched
// quotient with per-shard expansion.
func (s *ShardedStore) Match(p *pattern.Pattern) *pattern.Result {
	s.reads.Add(1)
	return s.Snapshot().Match(p)
}

// Stats summarizes the store at the current snapshot.
func (s *ShardedStore) Stats() ShardedStats {
	sn := s.Snapshot()
	st := ShardedStats{
		Epoch:         sn.Epoch,
		Batches:       s.batches.Load(),
		Updates:       s.updates.Load(),
		Reads:         s.reads.Load(),
		Shards:        s.k,
		Nodes:         len(s.p.ShardOf),
		Boundary:      sn.Summary.NumBoundary(),
		SummaryEdges:  sn.Summary.S.NumEdges(),
		StitchClasses: sn.Stitched.NumBlocks(),
	}
	for i := range sn.Shards {
		st.Edges += sn.Shards[i].G.NumEdges()
		st.ReachClasses += sn.Shards[i].Reach.Gr.NumNodes()
	}
	for _, row := range sn.crossOut {
		st.CrossEdges += len(row)
	}
	st.Edges += st.CrossEdges
	return st
}
