package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/store"
	"repro/internal/wal"
)

// testGraph builds the standard small social topology.
func testGraph(seed int64) *graph.Graph {
	return gen.Social(rand.New(rand.NewSource(seed)), 200, 800, 5)
}

// testPattern builds a 2-node pattern over the generated label alphabet.
func testPattern() *pattern.Pattern {
	pt := pattern.New()
	a := pt.AddNode("L0")
	b := pt.AddNode("L1")
	pt.AddEdge(a, b, 2)
	return pt
}

// storeKinds are the store kinds the wire round-trip tests run over.
var storeKinds = []string{"store", "sharded"}

// startServer opens an in-memory store of the given kind on g and serves
// it on a free port, tearing both down with the test. It returns the store
// itself and its snapshot epoch, whose answers the wire must reproduce.
func startServer(t *testing.T, kind string, g *graph.Graph, opts Options) (localStore, func() uint64, *Server) {
	t.Helper()
	var (
		local localStore
		epoch func() uint64
	)
	switch kind {
	case "store":
		s, err := store.Open(g, &store.Options{Indexes: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		local, epoch = s, func() uint64 { return s.Snapshot().Epoch }
		opts.Backend = NewStoreBackend(s)
	case "sharded":
		s, err := store.OpenSharded(g, &store.ShardedOptions{Options: store.Options{Indexes: true}, Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		local, epoch = s, func() uint64 { return s.Snapshot().Epoch }
		opts.Backend = NewShardedBackend(s)
	default:
		t.Fatalf("unknown store kind %q", kind)
	}
	srv, err := Start("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return local, epoch, srv
}

// TestQueryRoundTrips drives every query type through the wire and pins
// the answers to the store's own.
func TestQueryRoundTrips(t *testing.T) {
	for _, kind := range storeKinds {
		t.Run(kind, func(t *testing.T) {
			g := testGraph(1)
			s, _, srv := startServer(t, kind, g, Options{})
			cli, err := Dial(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()

			if _, err := cli.Ping(); err != nil {
				t.Fatalf("ping: %v", err)
			}
			rng := rand.New(rand.NewSource(2))
			n := g.NumNodes()
			for i := 0; i < 200; i++ {
				u := graph.Node(rng.Intn(n))
				v := graph.Node(rng.Intn(n))
				got, _, err := cli.Reachable(u, v, 0, false)
				if err != nil {
					t.Fatalf("reach(%d,%d): %v", u, v, err)
				}
				if want := s.Reachable(u, v); got != want {
					t.Fatalf("reach(%d,%d) = %v over the wire, %v locally", u, v, got, want)
				}
				gotG, _, err := cli.Reachable(u, v, 0, true)
				if err != nil {
					t.Fatalf("reachOnG(%d,%d): %v", u, v, err)
				}
				if want := s.ReachableOnG(u, v); gotG != want {
					t.Fatalf("reachOnG(%d,%d) = %v over the wire, %v locally", u, v, gotG, want)
				}
			}

			us := make([]graph.Node, 64)
			vs := make([]graph.Node, 64)
			for i := range us {
				us[i] = graph.Node(rng.Intn(n))
				vs[i] = graph.Node(rng.Intn(n))
			}
			got, _, err := cli.BatchReachable(us, vs, 0)
			if err != nil {
				t.Fatalf("batch reach: %v", err)
			}
			want := s.BatchReachable(us, vs)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("batch lane %d = %v over the wire, %v locally", i, got[i], want[i])
				}
			}

			res, _, err := cli.Match(testPattern(), 0)
			if err != nil {
				t.Fatalf("match: %v", err)
			}
			wantRes := s.Match(testPattern())
			if res.OK != wantRes.OK || len(res.Sets) != len(wantRes.Sets) {
				t.Fatalf("match shape diverged: ok %v/%v, %d/%d sets", res.OK, wantRes.OK, len(res.Sets), len(wantRes.Sets))
			}
			for i := range res.Sets {
				if len(res.Sets[i]) != len(wantRes.Sets[i]) {
					t.Fatalf("match set %d: %d vs %d nodes", i, len(res.Sets[i]), len(wantRes.Sets[i]))
				}
				for j := range res.Sets[i] {
					if res.Sets[i][j] != wantRes.Sets[i][j] {
						t.Fatalf("match set %d diverges at %d", i, j)
					}
				}
			}

			in, err := cli.Stats()
			if err != nil {
				t.Fatalf("stats: %v", err)
			}
			if in.Kind != kind || in.Nodes != n {
				t.Fatalf("stats = %+v, want kind %s with %d nodes", in, kind, n)
			}
			if got := srv.backend.NumNodes(); got != n {
				t.Fatalf("backend bounds wire node ids by %d, graph has %d nodes", got, n)
			}
		})
	}
}

// TestApplyAndRYW applies batches over the wire and verifies the returned
// epoch is a working read-your-writes token.
func TestApplyAndRYW(t *testing.T) {
	for _, kind := range storeKinds {
		t.Run(kind, func(t *testing.T) {
			g := testGraph(3)
			_, epochOf, srv := startServer(t, kind, g, Options{})
			cli, err := Dial(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()

			mirror := g.Clone()
			rng := rand.New(rand.NewSource(4))
			var token uint64
			for i := 0; i < 10; i++ {
				batch := gen.RandomBatch(rng, mirror, 16, 0.6)
				mirror.Apply(batch)
				epoch, err := cli.Apply(batch)
				if err != nil {
					t.Fatalf("apply %d: %v", i, err)
				}
				if epoch != uint64(i+1) {
					t.Fatalf("apply %d returned epoch %d", i, epoch)
				}
				token = epoch
			}
			if cli.LastEpoch() != token {
				t.Fatalf("session token %d, want %d", cli.LastEpoch(), token)
			}
			// A read pinned at the token must see all ten batches.
			_, epoch, err := cli.Reachable(0, 1, token, false)
			if err != nil {
				t.Fatal(err)
			}
			if epoch < token {
				t.Fatalf("read served at epoch %d, below RYW token %d", epoch, token)
			}
			if got := epochOf(); got != token {
				t.Fatalf("store at epoch %d after %d applies", got, token)
			}
			// An unreachable epoch times out with an error rather than serving a
			// stale answer.
			fast := New(Options{Backend: srv.backend, EpochWaitTimeout: 20 * time.Millisecond})
			gotErr := false
			fast.handleRequest(MsgReach, reachBody(999999, 0, 1), func(mt MsgType, body []byte) error {
				gotErr = mt == MsgErr
				return nil
			})
			if !gotErr {
				t.Fatal("read far beyond the write frontier did not error")
			}
		})
	}
}

// reachBody encodes a MsgReach body.
func reachBody(minEpoch uint64, u, v graph.Node) []byte {
	b := binary.LittleEndian.AppendUint64(nil, minEpoch)
	b = binary.LittleEndian.AppendUint32(b, uint32(u))
	b = binary.LittleEndian.AppendUint32(b, uint32(v))
	return append(b, 0)
}

// TestWireRejectsGarbage sends malformed frames and checks the server
// answers MsgErr and keeps the connection serviceable.
func TestWireRejectsGarbage(t *testing.T) {
	_, _, srv := startServer(t, "store", testGraph(5), Options{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)

	bad := [][2]interface{}{
		{MsgReach, []byte{1, 2, 3}},                                 // truncated body
		{MsgReach, reachBody(0, 100000, 0)},                         // node out of range
		{MsgApply, []byte{0xff, 0xff, 0xff, 0xff}},                  // absurd batch count
		{MsgMatch, append(make([]byte, 8), 0xff, 0xff, 0xff, 0xff)}, // absurd pattern
		{MsgType(0x3f), nil},                                        // unknown type
		{MsgBool, []byte{0, 0, 0, 0, 0, 0, 0, 0, 1}},                // response-typed request
	}
	for i, tc := range bad {
		var body []byte
		if tc[1] != nil {
			body = tc[1].([]byte)
		}
		if err := WriteFrame(bw, tc[0].(MsgType), body); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		mt, _, err := ReadFrame(br, nil)
		if err != nil {
			t.Fatalf("case %d: connection died: %v", i, err)
		}
		if mt != MsgErr {
			t.Fatalf("case %d: got response 0x%02x, want MsgErr", i, byte(mt))
		}
	}
	// The connection still answers a well-formed request afterwards.
	if err := WriteFrame(bw, MsgPing, nil); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	mt, _, err := ReadFrame(br, nil)
	if err != nil || mt != MsgEpoch {
		t.Fatalf("ping after garbage: type 0x%02x, err %v", byte(mt), err)
	}
}

// TestSnapshotAndTailShipping exercises the replication source directly:
// fetch the checkpoint, install it elsewhere, tail the WAL to catch up.
func TestSnapshotAndTailShipping(t *testing.T) {
	g := testGraph(6)
	dir := t.TempDir()
	// Tiny segments force rotation per batch, so checkpoints actually
	// drop sealed segments and the snapshot-needed path is reachable.
	s, err := store.Open(g.Clone(), &store.Options{Dir: dir, Sync: store.SyncNone, WALSegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(7))
	mirror := g.Clone()
	for i := 0; i < 4; i++ {
		batch := gen.RandomBatch(rng, mirror, 10, 0.5)
		mirror.Apply(batch)
		if _, err := s.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		batch := gen.RandomBatch(rng, mirror, 10, 0.5)
		mirror.Apply(batch)
		if _, err := s.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
	}

	srv, err := Start("127.0.0.1:0", Options{Backend: NewStoreBackend(s), ReplDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	kind, epoch, data, err := cli.FetchSnapshot()
	if err != nil {
		t.Fatalf("fetch snapshot: %v", err)
	}
	if kind != "store" || epoch != 4 {
		t.Fatalf("snapshot meta kind %q epoch %d, want store/4", kind, epoch)
	}
	dir2 := t.TempDir()
	if err := store.InstallSnapshot(dir2, kind, epoch, data); err != nil {
		t.Fatalf("install: %v", err)
	}
	s2, err := store.Open(nil, &store.Options{Dir: dir2, Sync: store.SyncNone})
	if err != nil {
		t.Fatalf("open installed: %v", err)
	}
	defer s2.Close()
	if got := s2.Snapshot().Epoch; got != 4 {
		t.Fatalf("installed store at epoch %d, want 4", got)
	}

	// Tail from 5: three records then caught-up at 7.
	next := s2.Snapshot().Epoch + 1
	leaderEpoch, err := cli.TailRound(next, func(seq uint64, frame []byte) error {
		pseq, _, err := parseAndApply(s2, frame)
		if err != nil {
			return err
		}
		if pseq != seq {
			t.Fatalf("frame claims seq %d, embeds %d", seq, pseq)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("tail: %v", err)
	}
	if leaderEpoch != 7 || s2.Snapshot().Epoch != 7 {
		t.Fatalf("after tail: leader %d, local %d, want 7/7", leaderEpoch, s2.Snapshot().Epoch)
	}
	// Both stores now answer identically.
	n := g.NumNodes()
	for i := 0; i < 200; i++ {
		u := graph.Node(rng.Intn(n))
		v := graph.Node(rng.Intn(n))
		if a, b := s.Reachable(u, v), s2.Reachable(u, v); a != b {
			t.Fatalf("QR(%d,%d) = %v on leader, %v on caught-up copy", u, v, a, b)
		}
	}

	// A tail position below the oldest retained segment demands a snapshot.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	_, err = cli.TailRound(1, func(uint64, []byte) error { return nil })
	if err != ErrSnapshotNeeded {
		t.Fatalf("tail(1) after truncation: %v, want ErrSnapshotNeeded", err)
	}
}

// parseAndApply validates one shipped frame and applies it to s.
func parseAndApply(s *store.Store, frame []byte) (uint64, []byte, error) {
	seq, payload, _, err := wal.ParseRecord(frame)
	if err != nil {
		return 0, nil, err
	}
	batch, err := store.DecodeBatch(payload, s.Snapshot().G.NumNodes())
	if err != nil {
		return 0, nil, err
	}
	res, err := s.ApplyBatch(batch)
	if err != nil {
		return 0, nil, err
	}
	if res.Epoch != seq {
		return 0, nil, fmt.Errorf("batch %d applied at epoch %d", seq, res.Epoch)
	}
	return seq, payload, nil
}

// TestReadOnlyBackendError checks ErrReadOnly surfaces as a client error.
func TestReadOnlyBackendError(t *testing.T) {
	s, err := store.Open(testGraph(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv, err := Start("127.0.0.1:0", Options{Backend: readOnly{NewStoreBackend(s)}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, err = cli.Apply([]graph.Update{graph.Insertion(0, 1)})
	if err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("apply on read-only backend: %v", err)
	}
}

// readOnly wraps a backend, refusing writes like a follower does.
type readOnly struct{ Backend }

func (readOnly) Apply([]graph.Update) (uint64, error) { return 0, ErrReadOnly }

// TestReadStampMatchesAnswer publishes a new epoch inside each read, after
// the server's epoch wait: every response must carry the epoch its answer
// came from, not the one seen before the read.
func TestReadStampMatchesAnswer(t *testing.T) {
	b := &racingBackend{}
	b.epoch.Store(4)
	srv, err := Start("127.0.0.1:0", Options{Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	pt := pattern.New()
	pt.AddNode("L0")
	for i := 0; i < 3; i++ {
		for _, onG := range []bool{false, true} {
			b.publishOnRead.Store(true)
			got, e, err := cli.Reachable(0, 1, 0, onG)
			if err != nil {
				t.Fatal(err)
			}
			if got != (e%2 == 1) {
				t.Fatalf("point read (onG %v) stamped %d answered from another epoch", onG, e)
			}
		}
		b.publishOnRead.Store(true)
		res, e, err := cli.BatchReachable([]graph.Node{0, 1}, []graph.Node{1, 0}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res[0] != (e%2 == 1) {
			t.Fatalf("batch read stamped %d answered from another epoch", e)
		}
		b.publishOnRead.Store(true)
		m, e, err := cli.Match(pt, 0)
		if err != nil {
			t.Fatal(err)
		}
		if m.Sets[0][0] != graph.Node(e) {
			t.Fatalf("match stamped %d answered from epoch %d", e, m.Sets[0][0])
		}
	}
}

// racingBackend answers every read from its current epoch, encoded in the
// answer, and publishes once inside the next read after publishOnRead is
// set — a write landing between the server's epoch read and its answer.
type racingBackend struct {
	Backend
	epoch         atomic.Uint64
	publishOnRead atomic.Bool
}

func (b *racingBackend) Epoch() uint64 { return b.epoch.Load() }
func (b *racingBackend) NumNodes() int { return 100 }

// read returns the epoch the answer is taken at.
func (b *racingBackend) read() uint64 {
	if b.publishOnRead.Swap(false) {
		b.epoch.Add(1)
	}
	return b.epoch.Load()
}

func (b *racingBackend) Reachable(u, v graph.Node, onG bool) bool { return b.read()%2 == 1 }
func (b *racingBackend) SchedReachable(u, v graph.Node) bool      { return b.read()%2 == 1 }

func (b *racingBackend) BatchReachable(us, vs []graph.Node) []bool {
	out := make([]bool, len(us))
	e := b.read()
	for i := range out {
		out[i] = e%2 == 1
	}
	return out
}

func (b *racingBackend) Match(p *pattern.Pattern) *pattern.Result {
	return &pattern.Result{Sets: [][]graph.Node{{graph.Node(b.read())}}, OK: true}
}
