// The store shell: the half of a store that does not depend on how the
// graph is compressed and maintained. Store and ShardedStore each embed a
// shell and differ only in their engine (see the engine interface).

package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultfs"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/snapfile"
	"repro/internal/wal"
)

// ErrClosed is returned by ApplyBatch after Close.
var ErrClosed = errors.New("store: closed")

// ErrStateExists is returned by Open/OpenSharded when a graph is passed
// but the directory already holds durable state: recovering would discard
// the graph, initializing would discard the state. Pass a nil graph to
// recover, or point Dir at a fresh directory.
var ErrStateExists = errors.New("store: directory already contains durable state; pass a nil graph to recover it")

// ErrNotDurable is returned by Checkpoint on a store opened without a Dir.
var ErrNotDurable = errors.New("store: not durable (no Options.Dir)")

// SyncMode is the WAL fsync policy, re-exported from internal/wal.
type SyncMode = wal.SyncMode

const (
	// SyncAlways fsyncs the WAL once per coalesced batch group, before any
	// caller is acknowledged: an acked batch survives power failure.
	SyncAlways = wal.SyncAlways
	// SyncNone leaves flushing to the OS: an acked batch survives a
	// process crash but may be lost on power failure.
	SyncNone = wal.SyncNone
)

// maxCoalesce bounds how many queued batches the writer folds into one
// snapshot rebuild.
const maxCoalesce = 32

// Options configures a store of either kind; ShardedOptions adds the shard
// count.
type Options struct {
	// Indexes controls whether each snapshot carries 2-hop reachability
	// indexes: over both compressed graphs on a Store (the paper's Fig.
	// 12(d) point: indexing Gr is cheap where indexing G is not), over each
	// shard's local reachability quotient on a ShardedStore, where they
	// serve as the same-shard fast path. Building them adds per-epoch work
	// proportional to the (small) quotients. When recovering from a durable
	// directory, the loaded snapshot's own index presence wins, so a store
	// restarts with the configuration it was serving.
	Indexes bool
	// Dir enables durability: snapshot checkpoints and the write-ahead
	// log live here. Empty means in-memory only. A ShardedStore
	// checkpoints its full epoch vector (per-shard views, boundary summary,
	// stitched quotient) and logs the global update stream through one WAL.
	Dir string
	// Sync is the WAL fsync policy (durable stores only).
	Sync SyncMode
	// CheckpointBatches triggers a background checkpoint once this many
	// batches accumulated since the last one. 0 means the default (256);
	// negative disables the batch trigger.
	CheckpointBatches int
	// CheckpointBytes triggers a background checkpoint once the WAL holds
	// this many bytes. 0 means the default (8 MiB); negative disables the
	// byte trigger.
	CheckpointBytes int64
	// FS is the filesystem the durable layer runs on. Nil means the real
	// disk; tests substitute a faultfs.Inject to fire storage faults
	// deterministically.
	FS faultfs.FS

	// The self-healing fields apply to the store's one write path: even a
	// ShardedStore logs through a single WAL, so health is a whole-store
	// property, not per shard.

	// WriteRetries is how many times a failed WAL append group is retried
	// in place (with capped exponential backoff) before the write path
	// degrades. 0 means the default (4); negative disables retries.
	WriteRetries int
	// RetryBackoff is the delay before the first retry, doubling per
	// attempt up to a cap. 0 means the default (5ms).
	RetryBackoff time.Duration
	// RecoveryInterval is how often a degraded store re-probes its
	// directory to re-arm the write path. 0 means the default (250ms);
	// negative disables background recovery.
	RecoveryInterval time.Duration
	// ScrubInterval enables the background integrity scrubber at this
	// cadence; 0 (the default) disables it. ScrubNow works either way.
	ScrubInterval time.Duration
	// ScrubRate bounds scrub IO in bytes/sec. 0 means the default (8 MiB/s).
	ScrubRate int64
	// WALSegmentBytes is the WAL's segment rotation threshold. 0 means the
	// wal package default (4 MiB); smaller values seal segments sooner,
	// giving checkpoint truncation and the scrubber finer granularity.
	WALSegmentBytes int64
	// SchedWorkers sizes the multi-wave batch scheduler's worker pool
	// (sched.go): large BatchReachable calls split into waves claimed
	// across the pool, and SchedReachable point queries coalesce into
	// shared waves. 0 means GOMAXPROCS at Open time; SetSchedWorkers
	// resizes a running pool.
	SchedWorkers int
	// Obs, when non-nil, receives the store's metrics: apply/publish
	// latency histograms, epoch age, scheduler wave latency and occupancy,
	// batch read-path leaf counters, WAL fsync latency and group-commit
	// sizes, and the self-healing layer's health state. A ShardedStore
	// additionally exposes per-shard batch latency
	// (qpgc_shard_batch_seconds{shard="k"}). Nil (the default) disables all
	// instrumentation at zero hot-path cost.
	Obs *obs.Registry
}

// DefaultOptions returns the standard configuration: 2-hop indexes on,
// in-memory (no Dir), SyncAlways once a Dir is set.
func DefaultOptions() Options { return Options{Indexes: true} }

// engine is the kind-specific half of a store: how a logged batch group
// changes the graph state, how a snapshot of type S is assembled from that
// state and written to disk, and how the scheduler keys lanes. R is the
// kind's ApplyBatch result. Everything else lives in the shell.
type engine[S, R any] interface {
	// build constructs the engine state from g, which must not be used
	// afterwards.
	build(g *graph.Graph)
	// load rebuilds the engine state from d's newest checkpoint, returning
	// the loaded snapshot and the node count.
	load(d *durable) (*S, int, error)
	// apply applies batches in order — already committed to the WAL on a
	// durable store — and reports batches[i] as visible at epochs[i]. It
	// runs on the writer goroutine, and during recovery before it starts.
	apply(batches [][]graph.Update, epochs []uint64) []R
	// assemble builds the snapshot of epoch from the applied state.
	assemble(epoch uint64) *S
	// head returns sn's epoch and its kind-independent metadata.
	head(sn *S) (uint64, *snapMeta)
	// writeSnap persists sn in the kind's snapfile layout at path.
	writeSnap(fsys faultfs.FS, path string, sn *S) error
	// newSched binds a scheduler to the engine's read path.
	newSched() *scheduler
	// numShards is the partition count (1 for the monolithic kind).
	numShards() int
	// stopWriters stops engine-owned goroutines once the writer loop has
	// exited.
	stopWriters()
}

// snapMeta is what every published snapshot carries besides its query
// state. The batch read-path counters are epoch-local by construction: a
// fresh snapshot starts with empty counters and no hub cache, so a cached
// hub reach-set never outlives its epoch (see hubcache.go). Counters are
// metadata only — no query-visible state ever changes after publication.
type snapMeta struct {
	bstats batchCounters
	// leafHist and sumHist, when non-nil, time each wave's leaf-engine work
	// and cross-shard summary hop (qpgc_query_stage_seconds); the shell
	// stamps them from the store's instruments at publish so the batch
	// read path pays only a nil check when metrics are off. so shares the
	// sampling clock: only 1 in obsSampleWaves waves pays the clock reads.
	leafHist *obs.Histogram
	sumHist  *obs.Histogram
	so       *storeObs
}

type applyOutcome[R any] struct {
	res R
	err error
}

type applyReq[R any] struct {
	batch []graph.Update
	res   chan applyOutcome[R]
}

// shell is the kind-independent half of a store, written once for both
// kinds: the single writer goroutine with its WAL-first group commit, the
// published-snapshot pointer, the durable layer's checkpoint, health and
// term surface, the scheduler pool, the lifetime counters and the shared
// metric bindings.
type shell[S, R any] struct {
	eng  engine[S, R]
	opts Options

	dur *durable // nil for in-memory stores

	snap  atomic.Pointer[S]
	sched *scheduler // multi-wave batch scheduler; nil only before open finishes

	reqs chan applyReq[R]
	idle chan struct{} // closed when the writer goroutine exits

	mu     sync.RWMutex // guards closed vs. sends on reqs
	closed bool

	batches atomic.Uint64
	updates atomic.Uint64
	reads   atomic.Uint64

	// Batch read-path counters folded in from retired snapshots by
	// install; SchedStats adds the live snapshot's share on top.
	batchLanes atomic.Uint64
	hop2Peeled atomic.Uint64
	hubLanes   atomic.Uint64
	hubPrunes  atomic.Uint64

	ob *storeObs // nil unless Options.Obs
}

// open is the dispatch Open and OpenSharded share. With no Dir, the engine
// builds its state from g, the epoch-0 snapshot is published and the
// writer starts. With a Dir naming a fresh directory the store additionally
// writes the epoch-0 checkpoint and opens the write-ahead log. With a Dir
// holding previous state g must be nil: the engine loads the newest
// checkpoint and the WAL tail is replayed through it.
func (sh *shell[S, R]) open(eng engine[S, R], opts Options, kind snapfile.Kind, g *graph.Graph) error {
	sh.eng, sh.opts = eng, opts
	sh.reqs = make(chan applyReq[R])
	sh.idle = make(chan struct{})
	sh.ob = newStoreObs(opts.Obs)
	dir := opts.Dir
	if dir != "" && HasState(dir) {
		if g != nil {
			return fmt.Errorf("%w (%s)", ErrStateExists, dir)
		}
		return sh.recover(kind)
	}
	if g == nil {
		if dir == "" {
			return errors.New("store: no graph given and no Dir to recover from")
		}
		return fmt.Errorf("store: %s holds no recoverable state and no graph was given", dir)
	}
	eng.build(g)
	sh.publish(0)
	sh.start()
	if dir == "" {
		return nil
	}
	d, err := newDurable(opts, kind)
	if err != nil {
		sh.Close()
		return err
	}
	sh.dur = d
	if err := sh.checkpointSnap(sh.snap.Load(), false); err != nil {
		sh.Close()
		return err
	}
	if err := d.openLog(1); err != nil {
		sh.Close()
		return err
	}
	d.startBackground(sh.persistSnapshot)
	return nil
}

// recover reopens a durable directory: load the newest checkpoint, replay
// the WAL tail through the engine, and start serving. With an empty tail
// no compression work happens at all.
func (sh *shell[S, R]) recover(kind snapfile.Kind) error {
	d, err := newDurable(sh.opts, kind)
	if err != nil {
		return err
	}
	sn, n, err := sh.eng.load(d)
	if err != nil {
		d.close()
		return err
	}
	epoch, _ := sh.eng.head(sn)
	if epoch != d.manifestEpoch {
		d.close()
		return fmt.Errorf("store: snapshot %s is epoch %d, manifest says %d", d.manifestSnapshot, epoch, d.manifestEpoch)
	}
	sh.dur = d
	sh.install(sn)
	sh.batches.Store(epoch)
	if err := d.openLog(epoch + 1); err != nil {
		d.close()
		return err
	}
	tail, updates, err := d.replayTail(epoch, n)
	if err != nil {
		d.close()
		return err
	}
	if len(tail) > 0 {
		// The tail exists only when the last run crashed or closed between
		// checkpoints; replaying it as one group re-pays maintenance for
		// those batches but never recompresses the checkpointed prefix.
		epochs := make([]uint64, len(tail))
		for i := range epochs {
			epochs[i] = epoch + uint64(i) + 1
		}
		sh.eng.apply(tail, epochs)
		sh.batches.Store(epochs[len(epochs)-1])
		sh.updates.Store(updates)
		sh.publish(epochs[len(epochs)-1])
	}
	d.startBackground(sh.persistSnapshot)
	sh.start()
	return nil
}

// start binds the scheduler and the metrics, then launches the writer.
func (sh *shell[S, R]) start() {
	sh.sched = sh.eng.newSched()
	sh.bindObs()
	go sh.run()
}

// publish assembles the snapshot of epoch and swaps it in. Called while
// opening and then only from the writer goroutine.
func (sh *shell[S, R]) publish(epoch uint64) {
	var start time.Time
	if sh.ob != nil {
		start = time.Now()
	}
	sh.install(sh.eng.assemble(epoch))
	if sh.ob != nil {
		sh.ob.notePublish(time.Since(start))
	}
}

// install stamps sn with the store's instruments and swaps it in, folding
// the retiring snapshot's batch counters into the store accumulators — the
// epoch swap that also retires its hub caches. Readers still pinning the
// old snapshot may bump its counters after the fold; those late events are
// dropped (stats, not a ledger).
func (sh *shell[S, R]) install(sn *S) {
	if sh.ob != nil {
		_, m := sh.eng.head(sn)
		m.leafHist, m.sumHist, m.so = sh.ob.leaf, sh.ob.summary, sh.ob
	}
	if old := sh.snap.Load(); old != nil {
		_, m := sh.eng.head(old)
		sh.batchLanes.Add(m.bstats.lanes.Load())
		sh.hop2Peeled.Add(m.bstats.hop2Peeled.Load())
		sh.hubLanes.Add(m.bstats.hubLanes.Load())
		sh.hubPrunes.Add(m.bstats.hubPrunes.Load())
	}
	sh.snap.Store(sn)
}

// run is the writer goroutine: it serializes batches, folds queued requests
// into one snapshot rebuild, logs the group to the WAL (group commit)
// before any state changes, and signals completion after publication.
func (sh *shell[S, R]) run() {
	defer func() {
		sh.eng.stopWriters()
		close(sh.idle)
	}()
	for req := range sh.reqs {
		pending := []applyReq[R]{req}
	drain:
		for len(pending) < maxCoalesce {
			select {
			case r, ok := <-sh.reqs:
				if !ok {
					break drain
				}
				pending = append(pending, r)
			default:
				break drain
			}
		}
		// WAL first: the group is appended and committed before any batch
		// is applied or acknowledged, so acked ⇒ durable. A log failure
		// that survives the in-place retries degrades the write path —
		// reads keep working on the last snapshot, writes fail fast — until
		// the background recovery loop re-arms it: with the log behind the
		// engine's state, continuing would acknowledge updates a restart
		// silently forgets.
		var applyStart time.Time
		if sh.ob != nil {
			applyStart = time.Now()
		}
		epochs := make([]uint64, len(pending))
		batches := make([][]graph.Update, len(pending))
		for i, p := range pending {
			epochs[i] = sh.batches.Add(1)
			batches[i] = p.batch
		}
		if sh.dur != nil {
			if err := sh.dur.appendGroup(epochs, batches); err != nil {
				// Roll the epoch counter back so the next accepted group —
				// possibly after a recovery reset the WAL — continues the
				// acked sequence with no gap.
				sh.batches.Store(epochs[0] - 1)
				for _, p := range pending {
					p.res <- applyOutcome[R]{err: err}
				}
				continue
			}
		}
		results := sh.eng.apply(batches, epochs)
		for _, b := range batches {
			sh.updates.Add(uint64(len(b)))
		}
		sh.publish(epochs[len(epochs)-1])
		if sh.ob != nil {
			sh.ob.apply.Observe(time.Since(applyStart))
		}
		for i, p := range pending {
			p.res <- applyOutcome[R]{res: results[i]}
		}
		sh.maybeCheckpoint()
	}
}

// ApplyBatch submits one batch ΔG and blocks until the snapshot containing
// it is published; the store then equals G ⊕ ΔG for every reader, and — on
// a durable store — the batch is on stable storage per the Sync policy.
// Batches from concurrent callers are applied in arrival order. It returns
// ErrClosed after Close. On a durable store whose write path is degraded
// by a persistent storage fault it fails fast with the degradation reason
// — no state changes, nothing is acknowledged — until background recovery
// re-arms the path (see Health).
func (sh *shell[S, R]) ApplyBatch(batch []graph.Update) (R, error) {
	req := applyReq[R]{batch: batch, res: make(chan applyOutcome[R], 1)}
	sh.mu.RLock()
	if sh.closed {
		sh.mu.RUnlock()
		var zero R
		return zero, ErrClosed
	}
	sh.reqs <- req
	sh.mu.RUnlock()
	out := <-req.res
	return out.res, out.err
}

// Close stops the writer goroutine (and, on a ShardedStore, every shard
// writer) after the queue drains, stops the recovery and scrub loops,
// waits for any in-flight background checkpoint, and closes the WAL.
// Queries remain answerable on the final snapshot; further ApplyBatch
// calls fail with ErrClosed. Close is idempotent and does not checkpoint:
// a reopen replays the WAL tail instead (call Checkpoint first to make the
// next start a pure snapshot load). It returns a background checkpoint
// failure still outstanding at close, so a caller that never checked
// Health sees the directory ended behind where it should be.
func (sh *shell[S, R]) Close() error {
	sh.mu.Lock()
	if !sh.closed {
		sh.closed = true
		close(sh.reqs)
	}
	sh.mu.Unlock()
	<-sh.idle
	if sh.sched != nil {
		sh.sched.close()
	}
	if sh.dur != nil {
		return sh.dur.close()
	}
	return nil
}

// Checkpoint synchronously writes the current snapshot to the durable
// directory, points the manifest at it, and truncates the WAL prefix it
// covers. After Checkpoint, reopening the directory is a pure snapshot
// load. It fails with ErrNotDurable on an in-memory store.
func (sh *shell[S, R]) Checkpoint() error {
	if sh.dur == nil {
		return ErrNotDurable
	}
	return sh.checkpointSnap(sh.snap.Load(), false)
}

// maybeCheckpoint hands the current snapshot to the durable layer's
// background checkpoint trigger. Writer goroutine only.
func (sh *shell[S, R]) maybeCheckpoint() {
	if sh.dur == nil {
		return
	}
	sn := sh.snap.Load()
	epoch, _ := sh.eng.head(sn)
	sh.dur.maybeCheckpoint(epoch, func() error { return sh.checkpointSnap(sn, false) })
}

// persistSnapshot checkpoints the current snapshot; the recovery loop and
// the scrubber call it (force rewrites even at the newest epoch).
func (sh *shell[S, R]) persistSnapshot(force bool) error {
	return sh.checkpointSnap(sh.snap.Load(), force)
}

// checkpointSnap persists sn as the directory's newest checkpoint. A
// published snapshot is immutable, so this is safe off the writer
// goroutine.
func (sh *shell[S, R]) checkpointSnap(sn *S, force bool) error {
	epoch, _ := sh.eng.head(sn)
	return sh.dur.checkpoint(epoch, func(path string) error {
		return sh.eng.writeSnap(sh.dur.fs, path, sn)
	}, force)
}

// Health reports the write path's health: state, degradation reason,
// retry/degradation/recovery counters and the last scrub. An in-memory
// store is always Healthy.
func (sh *shell[S, R]) Health() Health {
	if sh.dur == nil {
		return Health{State: Healthy}
	}
	return sh.dur.healthReport()
}

// Term returns the store's persisted leader term; 0 on an in-memory store
// (terms only mean something for durable, replicable stores).
func (sh *shell[S, R]) Term() uint64 {
	if sh.dur == nil {
		return 0
	}
	return sh.dur.term.Load()
}

// Fenced reports whether the store has fenced itself read-only after
// observing a newer leader term.
func (sh *shell[S, R]) Fenced() bool {
	if sh.dur == nil {
		return false
	}
	return HealthState(sh.dur.health.Load()) == Fenced
}

// ObserveTerm is the leader-side term check: if t is above the store's own
// term, another node was promoted and this store fences itself read-only
// (writes fail fast with ErrFenced; reads keep serving). Equal or lower
// terms, and in-memory stores, are no-ops.
func (sh *shell[S, R]) ObserveTerm(t uint64) error {
	if sh.dur == nil {
		return nil
	}
	return sh.dur.observeTerm(t)
}

// AdoptTerm is the follower-side term check: raise the store's term to t
// without fencing, so a follower tailing a newly promoted leader keeps
// applying shipped batches. Equal or lower terms, and in-memory stores,
// are no-ops.
func (sh *shell[S, R]) AdoptTerm(t uint64) error {
	if sh.dur == nil {
		return nil
	}
	return sh.dur.adoptTerm(t)
}

// BumpTerm moves the store to a fresh term strictly above both its own
// term and min, fsyncs it, and clears any fence — the promotion step. It
// returns the new term, or ErrNotDurable on an in-memory store.
func (sh *shell[S, R]) BumpTerm(min uint64) (uint64, error) {
	if sh.dur == nil {
		return 0, ErrNotDurable
	}
	return sh.dur.bumpTerm(min)
}

// ScrubNow runs one integrity scrub pass synchronously — verify sealed WAL
// segments and snapshot checksums, quarantine corrupt files, re-checkpoint
// if anything was set aside — and returns its report. It works whether or
// not the background scrubber is enabled; ErrNotDurable on an in-memory
// store.
func (sh *shell[S, R]) ScrubNow() (ScrubReport, error) {
	if sh.dur == nil {
		return ScrubReport{}, ErrNotDurable
	}
	return sh.dur.scrubOnce(sh.persistSnapshot), nil
}

// SetSchedWorkers resizes the scheduler's worker pool; n <= 0 means
// GOMAXPROCS.
func (sh *shell[S, R]) SetSchedWorkers(n int) { sh.sched.setWorkers(n) }

// SchedStats reports the multi-wave scheduler and the batch read path's
// hybrid-leaf counters (retired epochs' counts plus the live snapshot's).
// On a ShardedStore Hop2Peeled counts same-shard index answers and the hub
// fields count the per-shard hub caches.
func (sh *shell[S, R]) SchedStats() SchedStats {
	st := sh.sched.stats()
	st.BatchLanes, st.Hop2Peeled, st.HubCacheLanes, st.HubCachePrunes = sh.batchTotals()
	if st.BatchLanes > 0 {
		st.HubCacheHitRate = float64(st.HubCacheLanes) / float64(st.BatchLanes)
	}
	return st
}

// batchTotals sums the retired snapshots' batch read-path counters and the
// live snapshot's.
func (sh *shell[S, R]) batchTotals() (lanes, peeled, hubLanes, hubPrunes uint64) {
	_, m := sh.eng.head(sh.snap.Load())
	return sh.batchLanes.Load() + m.bstats.lanes.Load(),
		sh.hop2Peeled.Load() + m.bstats.hop2Peeled.Load(),
		sh.hubLanes.Load() + m.bstats.hubLanes.Load(),
		sh.hubPrunes.Load() + m.bstats.hubPrunes.Load()
}
