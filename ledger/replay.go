package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bisim"
	"repro/internal/graph"
	"repro/internal/hop2"
	"repro/internal/incbisim"
	"repro/internal/increach"
	"repro/internal/pattern"
	"repro/internal/queries"
	"repro/internal/reach"
	"repro/internal/store"
	"repro/internal/wal"
)

// replayBatches caps how many acked writes the maintainer and WAL replays
// re-run.
const replayBatches = 32

// mainClass is the class whose traced and untraced latencies give the
// tracing overhead.
func (r *run) mainClass() class {
	if r.name == "point-wire" {
		return classReach
	}
	return classBatch
}

// spanMetrics splits each traced request into the time inside the store
// call and the rest of the round trip (framing, the handler, loopback),
// writes the span file, and reports the validity metrics.
func (r *run) spanMetrics(path string) {
	ls := r.rec.link()
	var self, inner [numClasses][]int64
	for _, l := range ls {
		if l.ok {
			c := l.client.class
			self[c] = append(self[c], l.client.dur()-l.backend.dur())
			inner[c] = append(inner[c], l.backend.dur())
		}
	}
	us, ms := 1e3, 1e6
	r.put("server.reach_self_us", percentile(self[classReach], 0.5)/us, "us")
	r.put("server.batch_self_ms", percentile(self[classBatch], 0.5)/ms, "ms")
	r.put("server.apply_self_ms", percentile(self[classApply], 0.5)/ms, "ms")
	r.put("server.match_self_ms", percentile(self[classMatch], 0.5)/ms, "ms")
	r.put("store.sched_reach_us", percentile(inner[classReach], 0.5)/us, "us")
	r.put("store.batch_reach_ms", percentile(inner[classBatch], 0.5)/ms, "ms")
	r.put("store.apply_ms", percentile(inner[classApply], 0.5)/ms, "ms")
	r.put("store.match_ms", percentile(inner[classMatch], 0.5)/ms, "ms")

	mc := r.mainClass()
	traced := percentile(r.res[1][mc].lat, 0.5)
	r.put("bench.trace_overhead", ratio(traced, percentile(r.res[0][mc].lat, 0.5))-1, "fraction")
	parts := percentile(self[mc], 0.5) + percentile(inner[mc], 0.5)
	r.put("bench.path_residual", ratio(parts, traced)-1, "fraction")
	r.put("bench.gen_late_ms", percentile(r.late, 0.9)/ms, "ms")
	r.put("server.stale_epoch_reads", float64(r.stale), "count")
	r.put("bench.failed_ratio", ratio(float64(r.failed.Load()), float64(r.attempted.Load())), "fraction")
	if d := r.rec.dropped.Load(); d > 0 {
		fmt.Fprintf(os.Stderr, "ledger: %d backend spans dropped (buffer full)\n", d)
	}
	if err := writeSpans(path, ls); err != nil {
		fmt.Fprintln(os.Stderr, "ledger: span file:", err)
	}
}

// timeIt returns the median wall time of reps calls of f, in ms.
func timeIt(reps int, f func()) float64 {
	var xs []float64
	for i := 0; i < reps; i++ {
		t := time.Now()
		f()
		xs = append(xs, float64(time.Since(t))/1e6)
	}
	return medianF(xs)
}

// replay times each layer through its public functions on the inputs the
// run used: the reopened store's snapshot (the last acked epoch), the
// mirror graph at that epoch, and the acked write stream.
func (r *run) replay(mirror *graph.Graph) error {
	sn := r.st.Snapshot()
	cl := r.ref
	if sn.Epoch > 0 {
		cl = newClosure(mirror)
	}

	// queries: the leaf with no scheduler, on one pinned snapshot.
	sc := queries.NewScratch(sn.G.NumNodes())
	got := make([]bool, pointPool)
	t := time.Now()
	for i := range got {
		got[i] = sn.Reachable(sc, r.points.us[i], r.points.vs[i])
	}
	r.put("queries.reach_ns", float64(time.Since(t))/pointPool, "ns")
	for i, g := range got {
		if g != cl.reach(r.points.us[i], r.points.vs[i]) {
			r.fail(true, "Snapshot.Reachable(%d,%d) disagrees with the reference", r.points.us[i], r.points.vs[i])
			break
		}
	}
	bs := queries.NewBatchScratch(0)
	out := make([]bool, queries.MaxBatch)
	var waveNs int64
	waves := 0
	for _, b := range r.batches {
		for off := 0; off < len(b.us); off += queries.MaxBatch {
			us, vs := b.us[off:off+queries.MaxBatch], b.vs[off:off+queries.MaxBatch]
			t := time.Now()
			sn.BatchReachable(bs, us, vs, out)
			waveNs += int64(time.Since(t))
			waves++
			for k := range out {
				if out[k] != cl.reach(us[k], vs[k]) {
					r.fail(true, "Snapshot.BatchReachable pair (%d,%d) disagrees with the reference", us[k], vs[k])
					break
				}
			}
		}
	}
	r.put("queries.batch_wave_us", float64(waveNs)/float64(waves)/1e3, "us")

	// A checkpoint of an epoch already on disk is skipped, so each timed
	// Checkpoint follows an empty batch that publishes a new epoch.
	var ckMs []float64
	for i := 0; i < 3; i++ {
		if _, err := r.st.ApplyBatch(nil); err != nil {
			return fmt.Errorf("empty batch: %w", err)
		}
		t := time.Now()
		if err := r.st.Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		ckMs = append(ckMs, float64(time.Since(t))/1e6)
	}
	r.put("store.checkpoint_ms", medianF(ckMs), "ms")

	r.replayMaintainers()

	r.put("reach.compress_ms", timeIt(3, func() { reach.Compress(mirror) }), "ms")
	r.put("bisim.compress_ms", timeIt(3, func() { bisim.Compress(mirror) }), "ms")
	r.put("graph.freeze_ms", timeIt(5, func() { mirror.Freeze() }), "ms")
	rg, pg := sn.Reach.Gr, sn.Pattern.Gr
	r.put("graph.reorder_ms", timeIt(5, func() {
		graph.ApplyPerm(rg, graph.ReorderTopoPerm(rg))
		graph.Reorder(pg)
	}), "ms")
	r.put("hop2.build_ms", timeIt(5, func() {
		hop2.BuildCSR(rg)
		hop2.BuildCSR(pg)
	}), "ms")

	if err := r.replayWAL(); err != nil {
		return err
	}

	var matchMs, expandMs []float64
	for i, p := range r.pats {
		t0 := time.Now()
		m := pattern.MatchCSR(pg, p)
		t1 := time.Now()
		res := pattern.Expand(m, sn.Pattern.Compressed)
		matchMs = append(matchMs, float64(t1.Sub(t0))/1e6)
		expandMs = append(expandMs, float64(time.Since(t1))/1e6)
		if i == 0 && !sameMatch(res, pattern.Match(mirror, p)) {
			r.fail(true, "MatchCSR+Expand of pattern 0 disagrees with the mirror")
		}
	}
	r.put("pattern.match_ms", medianF(matchMs), "ms")
	r.put("pattern.expand_ms", medianF(expandMs), "ms")
	return nil
}

// applied is the acked write stream the replays re-run.
func (r *run) applied() [][]graph.Update {
	return r.writes[:min(int(r.lastAck.Load()), replayBatches)]
}

// replayMaintainers re-runs the acked writes through fresh maintainers,
// one batch at a time as the store's writer applies them, and checks that
// their work counts equal the ones the store reported live: for a given
// seed a single-writer replay must repeat them exactly.
func (r *run) replayMaintainers() {
	stream := r.applied()
	rm := increach.New(r.g0.Clone())
	pm := incbisim.New(r.g0.Clone())
	var rMs, pMs []float64
	var aff, dirty, mismatches int
	for i, b := range stream {
		t := time.Now()
		rs := rm.Apply(b)
		t1 := time.Now()
		ps := pm.Apply(b)
		rMs = append(rMs, float64(t1.Sub(t))/1e6)
		pMs = append(pMs, float64(time.Since(t1))/1e6)
		aff += rs.AffComponents
		dirty += ps.DirtyNodes
		if live := r.tb.applied[i]; live.Reach != rs || live.Pattern != ps {
			mismatches++
		}
	}
	if mismatches > 0 {
		fmt.Fprintf(os.Stderr, "ledger: warning: %d of %d replayed batches report other maintainer counts than the live store\n", mismatches, len(stream))
	}
	n := float64(len(stream))
	r.put("increach.apply_ms", medianF(rMs), "ms")
	r.put("increach.aff_per_batch", ratio(float64(aff), n), "count")
	r.put("incbisim.apply_ms", medianF(pMs), "ms")
	r.put("incbisim.dirty_per_batch", ratio(float64(dirty), n), "count")
	r.put("bench.count_mismatches", float64(mismatches), "count")
}

// replayWAL appends and commits the acked writes to a fresh log with an
// fsync per commit, as the store's writer does for each batch group.
func (r *run) replayWAL() error {
	dir := filepath.Join(r.dir, "wal-replay")
	l, err := wal.Open(dir, 1, &wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer os.RemoveAll(dir)
	var ms []float64
	updates := 0
	for i, b := range r.applied() {
		payload := store.EncodeBatch(nil, b)
		t := time.Now()
		if err := l.Append(uint64(i+1), payload); err != nil {
			l.Close()
			return fmt.Errorf("wal append: %w", err)
		}
		if err := l.Commit(); err != nil {
			l.Close()
			return fmt.Errorf("wal commit: %w", err)
		}
		ms = append(ms, float64(time.Since(t))/1e6)
		updates += len(b)
	}
	r.put("wal.commit_ms", medianF(ms), "ms")
	r.put("wal.bytes_per_update", ratio(float64(l.SizeBytes()), float64(updates)), "bytes")
	return l.Close()
}
