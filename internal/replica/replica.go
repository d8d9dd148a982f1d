// Package replica turns a durable store directory into a read replica: it
// bootstraps from the leader's newest snapfile checkpoint, then tails the
// leader's WAL by polling for raw frames and re-applying them locally.
//
// The design leans entirely on one invariant the storage layer already
// guarantees: a WAL record's sequence number IS the batch's epoch. A
// follower's catch-up position is therefore just its own store epoch; its
// staleness is the leader epoch minus that; and the read-your-writes token
// a leader hands out on Apply is directly comparable to any follower's
// published snapshot. Applying a shipped record through the follower's own
// durable store re-logs it in the follower's WAL before acknowledgement,
// so a SIGKILLed follower recovers to an epoch it already served — RYW
// tokens never move backward across a crash.
//
// Shipped bytes are untrusted. Every frame is re-validated with
// wal.ParseRecord (CRC), its embedded seq must equal both the claimed seq
// and the follower's next epoch, and the decoded batch must apply at
// exactly that epoch. Any violation is a quarantine event: the connection
// is dropped and catch-up restarts from the follower's own epoch — wrong
// answers are never served. A follower that cannot make progress (or whose
// tail position the leader has truncated) wipes its directory and
// re-bootstraps from a fresh snapshot, keeping the old snapshot serving
// reads until the new store is live.
package replica

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultfs"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/wal"
)

// Options configures a Follower.
type Options struct {
	// Dir is the follower's own durable directory. Required.
	Dir string
	// Leader is the leader's replication address, optionally a
	// comma-separated retry list. Required unless Leaders is set.
	Leader string
	// Leaders is the replication source retry list, merged after Leader.
	// A follower rotates through it on connection failure or when a source
	// turns out to be stale (its term is below the follower's), which is
	// how a survivor re-points to a promoted sibling after failover — any
	// follower's own WAL is a valid shipping source.
	Leaders []string
	// FS is the filesystem the follower's local store runs on. Nil means
	// the disk; chaos tests inject faults into local durability here.
	FS faultfs.FS
	// SyncAlways makes the follower's local WAL fsync once per shipped
	// batch, like a leader under store.SyncAlways. Off by default: the
	// leader is the durability authority, and a follower that loses a
	// machine (not just a process) re-bootstraps anyway. A promoted
	// follower keeps this policy for its own writes (the term bump itself
	// is always fsynced); set SyncAlways when a promotion must yield a
	// fsync-per-batch leader.
	SyncAlways bool
	// PollInterval is the tail poll cadence once caught up. 0 means 25ms.
	PollInterval time.Duration
	// ReconnectBackoff is the delay before redialing a dropped leader
	// connection. 0 means 100ms.
	ReconnectBackoff time.Duration
	// ResyncAfter is how many consecutive quarantine events without epoch
	// progress trigger a full wipe-and-re-bootstrap. 0 means 5.
	ResyncAfter int
	// Obs, when non-nil, receives the follower's replication metrics (lag,
	// shipped bytes, quarantines, resyncs) and is passed through to the
	// local store, so one scrape covers both tiers. Nil disables it.
	Obs *obs.Registry
}

// Status is a point-in-time view of a follower's replication state.
type Status struct {
	// Epoch is the follower's published snapshot epoch (its RYW token
	// watermark); LeaderEpoch is the leader's epoch at the last completed
	// tail round. Lag is their difference.
	Epoch, LeaderEpoch, Lag uint64
	// Term is the local store's leader term; LeaderTerm the highest term
	// any replication source reported.
	Term, LeaderTerm uint64
	// CaughtUp reports the last tail round ended with nothing missing.
	CaughtUp bool
	// Promoted reports this follower has been promoted to leader: it has
	// stopped tailing and serves writes.
	Promoted bool
	// Quarantines counts rejected shipped frames (CRC/seq/decode/apply
	// violations); Reconnects counts dropped leader connections;
	// Resyncs counts full snapshot re-bootstraps.
	Quarantines, Reconnects, Resyncs uint64
	// Err is the most recent replication error, "" when none.
	Err string
}

// LagError is the structured failure WaitCaughtUp returns on timeout: how
// far behind the follower is, in epochs and (estimated from the mean
// shipped frame size) bytes.
type LagError struct {
	// Wait is the timeout that expired.
	Wait time.Duration
	// Epoch and LeaderEpoch are the follower's and leader's positions;
	// LagEpochs their difference.
	Epoch, LeaderEpoch, LagEpochs uint64
	// LagBytes estimates the outstanding WAL payload from the mean size of
	// frames shipped so far (0 when nothing has shipped yet).
	LagBytes uint64
	// LastErr is the most recent replication error, "" when none.
	LastErr string
}

// Error formats the lag report.
func (e *LagError) Error() string {
	msg := fmt.Sprintf("replica: not caught up after %v: %d epochs behind (epoch %d, leader %d", e.Wait, e.LagEpochs, e.Epoch, e.LeaderEpoch)
	if e.LagBytes > 0 {
		msg += fmt.Sprintf(", ~%d bytes", e.LagBytes)
	}
	if e.LastErr != "" {
		msg += fmt.Sprintf(", last error %q", e.LastErr)
	}
	return msg + ")"
}

// localStore is the follower's view of its own durable store: lifecycle
// plus the term surface promotion needs. Both store kinds satisfy it.
type localStore interface {
	Close() error
	Term() uint64
	Fenced() bool
	AdoptTerm(uint64) error
	ObserveTerm(uint64) error
	BumpTerm(uint64) (uint64, error)
}

// Follower is a live read replica. It satisfies server.Backend, so a
// Server can front it directly; Apply returns server.ErrReadOnly until
// Promote turns the follower into a leader.
type Follower struct {
	opts    Options
	kind    string
	leaders []string // replication source retry list

	mu     sync.RWMutex   // guards b/closer across resync swaps
	b      server.Backend // local store, swapped on resync
	closer localStore

	leaderEpoch atomic.Uint64
	leaderTerm  atomic.Uint64 // highest term any source reported
	caughtUp    atomic.Bool
	promoted    atomic.Bool
	quarantines atomic.Uint64
	reconnects  atomic.Uint64
	resyncs     atomic.Uint64
	lastErr     atomic.Value // string
	shipped     *obs.Counter // bytes of WAL frames applied; nil without Obs

	// shippedBytes/shippedFrames estimate the mean shipped frame size for
	// LagError.LagBytes, independent of Obs.
	shippedBytes  atomic.Uint64
	shippedFrames atomic.Uint64

	nextLeader int // rotation cursor; tail goroutine only

	// The tail loop is separately stoppable so Promote can halt shipping
	// while the Follower itself stays open.
	tailMu   sync.Mutex
	tailStop chan struct{}
	tailWg   sync.WaitGroup

	promoteMu sync.Mutex // serializes Promote calls

	stop   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
}

// errQuarantine tags shipped-frame validation failures: the frame is
// rejected, the connection dropped, and catch-up restarts — as opposed to
// plain IO errors, which only reconnect.
var errQuarantine = errors.New("replica: shipped frame rejected")

// Start bootstraps (if dir holds no durable state) and opens the local
// store, then begins tailing the leader in the background. A dir that
// already holds state — a restarted follower — skips the snapshot and
// catches up from its own recovered epoch.
func Start(opts Options) (*Follower, error) {
	leaders := leaderList(opts)
	if opts.Dir == "" || len(leaders) == 0 {
		return nil, errors.New("replica: Dir and Leader (or Leaders) are required")
	}
	if opts.PollInterval == 0 {
		opts.PollInterval = 25 * time.Millisecond
	}
	if opts.ReconnectBackoff == 0 {
		opts.ReconnectBackoff = 100 * time.Millisecond
	}
	if opts.ResyncAfter == 0 {
		opts.ResyncAfter = 5
	}
	f := &Follower{opts: opts, leaders: leaders, stop: make(chan struct{})}
	if !store.HasState(opts.Dir) {
		if err := f.bootstrap(); err != nil {
			return nil, err
		}
	}
	b, closer, kind, err := openLocal(opts)
	if err != nil {
		return nil, err
	}
	f.b, f.closer, f.kind = b, closer, kind
	// A snapshot fetched during bootstrap reported the source's term;
	// adopt it so the local store starts at the cluster's term, not 0.
	if t := f.leaderTerm.Load(); t > 0 {
		if err := closer.AdoptTerm(t); err != nil {
			closer.Close()
			return nil, err
		}
	}
	f.bindObs(opts.Obs)
	f.startTail()
	return f, nil
}

// leaderList merges Leader (comma-split) and Leaders, dropping empties.
func leaderList(opts Options) []string {
	var out []string
	for _, addr := range append(strings.Split(opts.Leader, ","), opts.Leaders...) {
		if addr = strings.TrimSpace(addr); addr != "" {
			out = append(out, addr)
		}
	}
	return out
}

// bindObs registers the follower's replication metrics: scrape-time
// callbacks over the atomics Status already reads, plus the shipped-bytes
// counter applyFrame feeds. The local store registered its own families
// when openLocal passed Obs through. No-op on a nil registry.
func (f *Follower) bindObs(r *obs.Registry) {
	if r == nil {
		return
	}
	f.shipped = r.Counter("qpgc_replica_shipped_bytes_total")
	r.GaugeFunc("qpgc_replica_epoch", func() float64 { return float64(f.backend().Epoch()) })
	r.GaugeFunc("qpgc_replica_leader_epoch", func() float64 { return float64(f.leaderEpoch.Load()) })
	r.GaugeFunc("qpgc_replica_lag_epochs", func() float64 {
		e, le := f.backend().Epoch(), f.leaderEpoch.Load()
		if le > e {
			return float64(le - e)
		}
		return 0
	})
	r.GaugeFunc("qpgc_replica_caught_up", func() float64 {
		if f.caughtUp.Load() {
			return 1
		}
		return 0
	})
	r.CounterFunc("qpgc_replica_quarantines_total", f.quarantines.Load)
	r.CounterFunc("qpgc_replica_reconnects_total", f.reconnects.Load)
	r.CounterFunc("qpgc_replica_resyncs_total", f.resyncs.Load)
	r.GaugeFunc("qpgc_replica_term", func() float64 { return float64(f.local().Term()) })
	r.GaugeFunc("qpgc_replica_leader_term", func() float64 { return float64(f.leaderTerm.Load()) })
	r.GaugeFunc("qpgc_replica_promoted", func() float64 {
		if f.promoted.Load() {
			return 1
		}
		return 0
	})
}

// bootstrap fetches a source's newest checkpoint and installs it as this
// directory's initial durable state, trying each leader in order.
func (f *Follower) bootstrap() error {
	var lastErr error
	for _, addr := range f.leaders {
		cli, err := server.Dial(addr)
		if err != nil {
			lastErr = fmt.Errorf("replica: bootstrap dial %s: %w", addr, err)
			continue
		}
		kind, epoch, data, err := cli.FetchSnapshot()
		f.noteLeaderTerm(cli.LastTerm())
		cli.Close()
		if err != nil {
			lastErr = fmt.Errorf("replica: snapshot fetch from %s: %w", addr, err)
			continue
		}
		return store.InstallSnapshot(f.opts.Dir, kind, epoch, data)
	}
	return lastErr
}

// noteLeaderTerm folds a source-reported term into the tracked maximum.
func (f *Follower) noteLeaderTerm(t uint64) {
	for {
		cur := f.leaderTerm.Load()
		if t <= cur || f.leaderTerm.CompareAndSwap(cur, t) {
			return
		}
	}
}

// openLocal recovers the directory's store and wraps it as a backend.
func openLocal(opts Options) (server.Backend, localStore, string, error) {
	info, err := store.Inspect(opts.Dir)
	if err != nil {
		return nil, nil, "", err
	}
	sync := store.SyncNone
	if opts.SyncAlways {
		sync = store.SyncAlways
	}
	o := store.Options{Dir: opts.Dir, FS: opts.FS, Sync: sync, Obs: opts.Obs}
	switch info.Kind {
	case "store":
		s, err := store.Open(nil, &o)
		if err != nil {
			return nil, nil, "", err
		}
		return server.NewStoreBackend(s), s, "store", nil
	case "sharded":
		s, err := store.OpenSharded(nil, &store.ShardedOptions{Options: o})
		if err != nil {
			return nil, nil, "", err
		}
		return server.NewShardedBackend(s), s, "sharded", nil
	}
	return nil, nil, "", fmt.Errorf("replica: unknown store kind %q in %s", info.Kind, opts.Dir)
}

// backend returns the currently serving local store.
func (f *Follower) backend() server.Backend {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.b
}

// local returns the currently serving store's lifecycle/term surface.
func (f *Follower) local() localStore {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.closer
}

// startTail launches the tail loop with a fresh stop channel.
func (f *Follower) startTail() {
	f.tailMu.Lock()
	defer f.tailMu.Unlock()
	st := make(chan struct{})
	f.tailStop = st
	f.tailWg.Add(1)
	f.wg.Add(1)
	go func() {
		defer f.tailWg.Done()
		defer f.wg.Done()
		f.tailLoop(st)
	}()
}

// stopTail halts the tail loop and waits for it to drain its current
// round. Idempotent; safe alongside Close.
func (f *Follower) stopTail() {
	f.tailMu.Lock()
	st := f.tailStop
	f.tailStop = nil
	f.tailMu.Unlock()
	if st != nil {
		close(st)
	}
	f.tailWg.Wait()
}

// Close stops replication and closes the local store. The final snapshot
// remains answerable by any handles already taken.
func (f *Follower) Close() error {
	if !f.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(f.stop)
	f.wg.Wait()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closer != nil {
		return f.closer.Close()
	}
	return nil
}

// Status reports the follower's replication state.
func (f *Follower) Status() Status {
	st := Status{
		Epoch:       f.backend().Epoch(),
		LeaderEpoch: f.leaderEpoch.Load(),
		Term:        f.local().Term(),
		LeaderTerm:  f.leaderTerm.Load(),
		CaughtUp:    f.caughtUp.Load(),
		Promoted:    f.promoted.Load(),
		Quarantines: f.quarantines.Load(),
		Reconnects:  f.reconnects.Load(),
		Resyncs:     f.resyncs.Load(),
	}
	if st.LeaderEpoch > st.Epoch {
		st.Lag = st.LeaderEpoch - st.Epoch
	}
	if e, ok := f.lastErr.Load().(string); ok {
		st.Err = e
	}
	return st
}

// WaitCaughtUp blocks until the follower has completed a tail round with
// nothing missing, or the timeout passes — in which case it returns a
// *LagError naming the remaining epoch delta and its byte estimate.
func (f *Follower) WaitCaughtUp(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for !f.caughtUp.Load() {
		if time.Now().After(deadline) {
			st := f.Status()
			lag := &LagError{
				Wait:        timeout,
				Epoch:       st.Epoch,
				LeaderEpoch: st.LeaderEpoch,
				LagEpochs:   st.Lag,
				LastErr:     st.Err,
			}
			if frames := f.shippedFrames.Load(); frames > 0 {
				lag.LagBytes = st.Lag * (f.shippedBytes.Load() / frames)
			}
			return lag
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// errStaleSource tags a replication source whose term is below the
// follower's: its WAL is frozen, safe history, but it can never carry the
// cluster forward — rotate to the next source.
var errStaleSource = errors.New("replica: source term is stale")

// tailLoop dials, tails, and recovers until Close (or stopTail, closed by
// Promote). Each connection runs tail rounds from the follower's own
// epoch; validation failures drop the connection (quarantine), repeated
// failure without progress triggers a full resync, ErrSnapshotNeeded
// re-bootstraps immediately, and connection or staleness failures rotate
// to the next source of the retry list.
func (f *Follower) tailLoop(tailStop chan struct{}) {
	stuck := 0
	lastEpoch := f.backend().Epoch()
	for {
		select {
		case <-f.stop:
			return
		case <-tailStop:
			return
		default:
		}
		if err := f.tailConn(tailStop); err != nil {
			f.lastErr.Store(err.Error())
			// Only integrity failures count toward the resync trigger: a
			// flapping TCP connection or a briefly absent leader heals by
			// reconnecting, and wiping the directory for it would turn a
			// network blip into a full re-bootstrap.
			counts := true
			switch {
			case errors.Is(err, server.ErrSnapshotNeeded):
				stuck = f.opts.ResyncAfter // resync now
			case errors.Is(err, errQuarantine):
				f.quarantines.Add(1)
			default:
				f.reconnects.Add(1)
				f.nextLeader++ // rotate: dead or stale source
				counts = false
			}
			if e := f.backend().Epoch(); e > lastEpoch {
				lastEpoch, stuck = e, 0
			} else if counts {
				stuck++
			}
			if stuck >= f.opts.ResyncAfter {
				if rerr := f.resync(); rerr != nil {
					f.lastErr.Store(rerr.Error())
					f.nextLeader++ // the source may be the problem
				} else {
					stuck = 0
					lastEpoch = f.backend().Epoch()
				}
			}
		}
		select {
		case <-f.stop:
			return
		case <-tailStop:
			return
		case <-time.After(f.opts.ReconnectBackoff):
		}
	}
}

// source is the retry-list entry the tail goroutine is currently on.
func (f *Follower) source() string {
	return f.leaders[f.nextLeader%len(f.leaders)]
}

// tailConn runs tail rounds on one source connection until an error or
// stop. A nil return only happens at stop. Every round carries the local
// store's term (so a deposed leader fences itself when polled) and adopts
// the source's term when it is newer; a source whose term is below ours
// is stale — return errStaleSource so the loop rotates.
func (f *Follower) tailConn(tailStop chan struct{}) error {
	cli, err := server.Dial(f.source())
	if err != nil {
		return err
	}
	defer cli.Close()
	cli.SetTerm(f.local().Term())
	for {
		select {
		case <-f.stop:
			return nil
		case <-tailStop:
			return nil
		default:
		}
		before := f.backend().Epoch()
		leaderEpoch, err := cli.TailRound(before+1, f.applyFrame)
		if err != nil {
			return err
		}
		srcTerm := cli.LastTerm()
		f.noteLeaderTerm(srcTerm)
		local := f.local()
		prevTerm := local.Term()
		if srcTerm < prevTerm || cli.SourceFenced() {
			// Polling already fenced a deposed leader (the request carried our
			// term), so its term may now LOOK current — the fenced flag is the
			// durable signal that its history is frozen.
			return fmt.Errorf("%w: source %s at term %d (local %d, fenced=%v)", errStaleSource, f.source(), srcTerm, prevTerm, cli.SourceFenced())
		}
		after := f.backend().Epoch()
		if srcTerm > prevTerm && after > leaderEpoch {
			// First contact with a new-term leader whose frontier is behind
			// ours: our WAL suffix was never acked on the new timeline and
			// would silently diverge if kept. Wipe and re-bootstrap.
			return fmt.Errorf("replica: local epoch %d extends past term-%d leader frontier %d: %w", after, srcTerm, leaderEpoch, server.ErrSnapshotNeeded)
		}
		if err := local.AdoptTerm(srcTerm); err != nil {
			return err
		}
		f.leaderEpoch.Store(leaderEpoch)
		f.caughtUp.Store(after >= leaderEpoch)
		if after > before {
			continue // still draining a backlog; poll again immediately
		}
		select {
		case <-f.stop:
			return nil
		case <-tailStop:
			return nil
		case <-time.After(f.opts.PollInterval):
		}
	}
}

// applyFrame validates one shipped WAL frame end to end and applies it at
// exactly its sequence number. Frames at or below the local epoch are
// duplicates from segment re-reads and are skipped; anything else that
// does not line up perfectly is quarantined.
func (f *Follower) applyFrame(claimed uint64, frame []byte) error {
	seq, payload, _, err := wal.ParseRecord(frame)
	if err != nil {
		return fmt.Errorf("%w: %v", errQuarantine, err)
	}
	if seq != claimed {
		return fmt.Errorf("%w: frame embeds seq %d, leader claims %d", errQuarantine, seq, claimed)
	}
	b := f.backend()
	want := b.Epoch() + 1
	if seq < want {
		return nil // duplicate of an already-applied epoch
	}
	if seq > want {
		return fmt.Errorf("%w: gap: got seq %d, want %d", errQuarantine, seq, want)
	}
	batch, err := store.DecodeBatch(payload, b.NumNodes())
	if err != nil {
		return fmt.Errorf("%w: %v", errQuarantine, err)
	}
	epoch, err := b.Apply(batch)
	if err != nil {
		// A local write failure (degraded store, disk fault) is not the
		// leader's fault; retry after reconnect without quarantining.
		return fmt.Errorf("replica: local apply: %w", err)
	}
	if epoch != seq {
		return fmt.Errorf("%w: batch %d applied at epoch %d; replica diverged", errQuarantine, seq, epoch)
	}
	f.shipped.Add(uint64(len(frame)))
	f.shippedBytes.Add(uint64(len(frame)))
	f.shippedFrames.Add(1)
	return nil
}

// resync is the last-resort recovery: fetch a fresh snapshot, wipe the
// directory, install, and reopen — swapping the serving backend only once
// the new store is live. Reads keep answering on the old store's final
// snapshot throughout.
func (f *Follower) resync() error {
	f.resyncs.Add(1)
	cli, err := server.Dial(f.source())
	if err != nil {
		return fmt.Errorf("replica: resync dial %s: %w", f.source(), err)
	}
	kind, epoch, data, err := cli.FetchSnapshot()
	f.noteLeaderTerm(cli.LastTerm())
	cli.Close()
	if err != nil {
		return fmt.Errorf("replica: resync fetch from %s: %w", f.source(), err)
	}
	// The image is fully validated by InstallSnapshot before the old state
	// is touched beyond this point's directory wipe.
	f.mu.Lock()
	old := f.closer
	f.mu.Unlock()
	if old != nil {
		old.Close() // final snapshot stays answerable
	}
	if err := wipeDir(f.opts.Dir); err != nil {
		return err
	}
	if err := store.InstallSnapshot(f.opts.Dir, kind, epoch, data); err != nil {
		return err
	}
	b, closer, k, err := openLocal(f.opts)
	if err != nil {
		return err
	}
	// The wipe deleted the TERM file; re-adopt the highest source term so
	// the fresh store rejoins the cluster at its current term, not 0.
	if t := f.leaderTerm.Load(); t > 0 {
		if err := closer.AdoptTerm(t); err != nil {
			closer.Close()
			return err
		}
	}
	f.mu.Lock()
	f.b, f.closer, f.kind = b, closer, k
	f.mu.Unlock()
	f.caughtUp.Store(false)
	return nil
}

// wipeDir removes every entry of dir, leaving the directory itself.
func wipeDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// Epoch implements server.Backend: the local published snapshot epoch.
func (f *Follower) Epoch() uint64 { return f.backend().Epoch() }

// NumNodes implements server.Backend.
func (f *Follower) NumNodes() int { return f.backend().NumNodes() }

// Reachable implements server.Backend on the local snapshot.
func (f *Follower) Reachable(u, v graph.Node, onG bool) bool {
	return f.backend().Reachable(u, v, onG)
}

// SchedReachable implements server.Backend, coalescing point queries into
// the local store's scheduler waves.
func (f *Follower) SchedReachable(u, v graph.Node) bool {
	return f.backend().SchedReachable(u, v)
}

// BatchReachable implements server.Backend on the local snapshot.
func (f *Follower) BatchReachable(us, vs []graph.Node) []bool {
	return f.backend().BatchReachable(us, vs)
}

// Match implements server.Backend on the local snapshot.
func (f *Follower) Match(p *pattern.Pattern) *pattern.Result {
	return f.backend().Match(p)
}

// Promote turns this follower into the leader, implementing
// server.Promoter. When wait > 0 it first blocks until the tail has
// drained (surfacing a *LagError naming the remaining lag on timeout),
// then stops tailing, bumps and fsyncs the leader term past the highest
// term any source ever reported, and starts accepting Apply. The returned
// epoch is the follower's durable frontier: every batch the old leader
// acked at or below it survived the failover, and the new term fences the
// old leader on first contact. Idempotent — promoting a promoted follower
// reports its current frontier. On a term-bump failure (the one durable
// write promotion needs) the follower resumes tailing and stays a
// follower.
func (f *Follower) Promote(wait time.Duration) (epoch, term uint64, err error) {
	f.promoteMu.Lock()
	defer f.promoteMu.Unlock()
	if f.closed.Load() {
		return 0, 0, errors.New("replica: follower is closed")
	}
	if f.promoted.Load() {
		return f.backend().Epoch(), f.local().Term(), nil
	}
	if wait > 0 {
		if err := f.WaitCaughtUp(wait); err != nil {
			return 0, 0, err
		}
	}
	// Stop shipping before bumping: once the term is durable this node may
	// accept writes, and a tail frame applied after that would collide with
	// the new timeline.
	f.stopTail()
	term, err = f.local().BumpTerm(f.leaderTerm.Load())
	if err != nil {
		f.startTail() // remain a follower; serving writes under an old term could diverge
		return 0, 0, fmt.Errorf("replica: promote term bump: %w", err)
	}
	f.promoted.Store(true)
	f.caughtUp.Store(true)
	f.lastErr.Store("")
	return f.backend().Epoch(), term, nil
}

// Apply implements server.Backend: it refuses writes until Promote, then
// delegates to the local store (the write path materializes lazily on the
// first batch).
func (f *Follower) Apply(batch []graph.Update) (uint64, error) {
	if !f.promoted.Load() {
		return 0, server.ErrReadOnly
	}
	return f.backend().Apply(batch)
}

// Term implements server.Backend: the local store's durable leader term.
func (f *Follower) Term() uint64 { return f.local().Term() }

// ObserveTerm implements server.Backend. An unpromoted follower ADOPTS a
// newer term (its leader's claim — fencing itself would make it unable to
// apply the very frames that term ships); a promoted follower acts as a
// leader and fences itself when superseded.
func (f *Follower) ObserveTerm(t uint64) error {
	if f.promoted.Load() {
		return f.local().ObserveTerm(t)
	}
	return f.local().AdoptTerm(t)
}

// Fenced reports whether the local store has been fenced by a newer term;
// the tail handler ships it so chained followers rotate away.
func (f *Follower) Fenced() bool { return f.local().Fenced() }

// Writable implements server.Backend: only a promoted, unfenced follower
// accepts writes.
func (f *Follower) Writable() bool { return f.promoted.Load() && !f.local().Fenced() }

// Info implements server.Backend, reporting the local store's summary
// with the kind a follower actually serves and its own writability (the
// local store believes it is writable; an unpromoted follower is not).
func (f *Follower) Info() server.Info {
	in := f.backend().Info()
	in.Kind = f.kind
	in.Term = f.local().Term()
	in.Writable = f.Writable()
	return in
}
