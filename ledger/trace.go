package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/server"
	"repro/internal/store"
)

// class names one request kind; client spans and backend spans of the same
// request share it.
type class uint8

const (
	classReach class = iota
	classBatch
	classMatch
	classApply
	numClasses
)

var classNames = [numClasses]string{"reach", "batch", "match", "apply"}

// span is one timed interval. Client spans cover a request's round trip
// as the client sees it; backend spans cover the store call inside the
// server, and their parent is the client span that contains them. key
// tells requests of one class apart when connections overlap in time.
type span struct {
	start, end int64 // ns since the recorder's base
	key        uint64
	class      class
	backend    bool
}

func (s span) dur() int64 { return s.end - s.start }

// recorder holds spans in memory until the run ends. Backend spans arrive
// from server goroutines through a preallocated slice and an atomic index;
// client loops keep their own slices and hand them over when they finish.
type recorder struct {
	base    time.Time
	on      atomic.Bool
	next    atomic.Int64
	spans   []span
	dropped atomic.Int64

	mu     sync.Mutex
	client []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{base: time.Now(), spans: make([]span, capacity)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) add(s span) {
	i := r.next.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return
	}
	r.spans[i] = s
}

func (r *recorder) addClient(s []span) {
	r.mu.Lock()
	r.client = append(r.client, s...)
	r.mu.Unlock()
}

func (r *recorder) backendSpans() []span {
	return r.spans[:min(r.next.Load(), int64(len(r.spans)))]
}

func pairKey(u, v graph.Node) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

// timedBackend decorates the store's server.Backend with a span around
// every store call the server makes for a request, and keeps the
// maintainers' statistics of every applied batch.
type timedBackend struct {
	server.Backend
	s   *store.Store
	rec *recorder

	mu      sync.Mutex
	applied []store.ApplyResult
}

func (b *timedBackend) timed(c class, key uint64, start int64) {
	if b.rec.on.Load() {
		b.rec.add(span{start: start, end: b.rec.now(), key: key, class: c, backend: true})
	}
}

func (b *timedBackend) SchedReachable(u, v graph.Node) bool {
	t := b.rec.now()
	ok := b.Backend.SchedReachable(u, v)
	b.timed(classReach, pairKey(u, v), t)
	return ok
}

func (b *timedBackend) BatchReachable(us, vs []graph.Node) []bool {
	t := b.rec.now()
	out := b.Backend.BatchReachable(us, vs)
	b.timed(classBatch, pairKey(us[0], vs[0]), t)
	return out
}

func (b *timedBackend) Match(p *pattern.Pattern) *pattern.Result {
	t := b.rec.now()
	out := b.Backend.Match(p)
	b.timed(classMatch, 0, t)
	return out
}

// Apply calls the store directly rather than the wrapped backend so the
// ApplyResult statistics, which the backend drops, reach the replay check.
func (b *timedBackend) Apply(batch []graph.Update) (uint64, error) {
	t := b.rec.now()
	res, err := b.s.ApplyBatch(batch)
	b.timed(classApply, 0, t)
	if err != nil {
		return 0, err
	}
	b.mu.Lock()
	b.applied = append(b.applied, res)
	b.mu.Unlock()
	return res.Epoch, nil
}

// linked pairs each client span with the backend span it contains.
type linked struct {
	client  span
	backend span
	ok      bool
}

// link assigns every backend span to the client span of the same class
// and key whose interval contains it.
func (r *recorder) link() []linked {
	out := make([]linked, len(r.client))
	type ck struct {
		c   class
		key uint64
	}
	byKey := make(map[ck][]int)
	for i, s := range r.client {
		out[i].client = s
		byKey[ck{s.class, s.key}] = append(byKey[ck{s.class, s.key}], i)
	}
	for _, idx := range byKey {
		slices.SortFunc(idx, func(a, b int) int { return int(r.client[a].start - r.client[b].start) })
	}
	for _, b := range r.backendSpans() {
		idx := byKey[ck{b.class, b.key}]
		j, _ := slices.BinarySearchFunc(idx, b.start, func(i int, t int64) int {
			if r.client[i].start <= t {
				return -1
			}
			return 1
		})
		for j--; j >= 0; j-- {
			c := r.client[idx[j]]
			if c.end >= b.end && !out[idx[j]].ok {
				out[idx[j]].backend, out[idx[j]].ok = b, true
				break
			}
			if c.end < b.start {
				break
			}
		}
	}
	return out
}

// write stores the linked spans as tab-separated rows: id, parent,
// request id, name, start ns, end ns. A backend span's parent and request
// id are its client span's id.
func writeSpans(path string, ls []linked) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\treq\tname\tstart_ns\tend_ns")
	id := 0
	for _, l := range ls {
		cid := id
		id++
		fmt.Fprintf(w, "%d\t-\t%d\tclient.%s\t%d\t%d\n", cid, cid, classNames[l.client.class], l.client.start, l.client.end)
		if l.ok {
			fmt.Fprintf(w, "%d\t%d\t%d\tbackend.%s\t%d\t%d\n", id, cid, cid, classNames[l.backend.class], l.backend.start, l.backend.end)
			id++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
