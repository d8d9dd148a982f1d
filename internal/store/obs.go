// Metrics bindings for both store kinds. The design follows internal/obs's
// rules: instruments are looked up once here and held as fields, lifetime
// counters the stores already keep are exposed through scrape-time
// callbacks, and everything degrades to nil (a store opened without a
// registry carries a nil *storeObs whose every use is a no-op nil check).
package store

import (
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// storeObs holds the instruments the write and batch read paths feed
// directly; everything else (counters the store already maintains) is
// registered as scrape-time callbacks by bindObs.
type storeObs struct {
	apply   *obs.Histogram // writer latency per coalesced group (WAL + maintain + publish)
	publish *obs.Histogram // snapshot assembly + swap latency
	leaf    *obs.Histogram // qpgc_query stage: leaf engine time per wave (sampled)
	summary *obs.Histogram // qpgc_query stage: cross-shard summary hop per wave (sampled)

	lastPublish atomic.Int64  // unix nanos of the latest publish, for epoch age
	tick        atomic.Uint32 // wave sample clock for sampleWave
}

// obsSampleWaves is the wave-latency sampling rate on the batch read path:
// 1 in this many waves pays the clock reads and histogram arithmetic for
// qpgc_sched_wave_seconds and the stage histograms. A collapsed-quotient
// wave finishes in well under a microsecond, so per-wave timing costs
// double-digit percent; sampling keeps the read path within the <= 2%
// overhead budget while the quantiles stay representative (the sampled
// histograms' _count counts sampled waves, not all waves). The network
// tracer spans and the apply/publish/fsync histograms are NOT sampled —
// per-event timing is cheap at request and write-batch granularity.
const obsSampleWaves = 64

// sampleWave decides whether the current wave's stage latencies are timed:
// deterministically 1 in obsSampleWaves, skewed by nothing. Nil-safe; the
// single atomic add is the whole per-wave cost of an unsampled wave.
func (so *storeObs) sampleWave() bool {
	return so != nil && so.tick.Add(1)%obsSampleWaves == 0
}

// newStoreObs builds the direct-fed instruments; nil registry → nil.
func newStoreObs(r *obs.Registry) *storeObs {
	if r == nil {
		return nil
	}
	so := &storeObs{
		apply:   r.Histogram("qpgc_store_apply_seconds"),
		publish: r.Histogram("qpgc_store_publish_seconds"),
		leaf:    r.Histogram(obs.Label("qpgc_query_stage_seconds", "stage", obs.StageLeaf.String())),
		summary: r.Histogram(obs.Label("qpgc_query_stage_seconds", "stage", obs.StageSummary.String())),
	}
	so.lastPublish.Store(time.Now().UnixNano())
	return so
}

// notePublish records one publish: its latency and the epoch-age anchor.
func (so *storeObs) notePublish(d time.Duration) {
	if so == nil {
		return
	}
	so.publish.Observe(d)
	so.lastPublish.Store(time.Now().UnixNano())
}

// ageSeconds is the epoch-age gauge: seconds since the latest publish.
func (so *storeObs) ageSeconds() float64 {
	return time.Since(time.Unix(0, so.lastPublish.Load())).Seconds()
}

// bindSchedObs registers the scheduler's counters and pool state with
// the registry and hands the scheduler its wave-latency histogram.
func bindSchedObs(r *obs.Registry, sc *scheduler) {
	if r == nil || sc == nil {
		return
	}
	sc.waveHist = r.Histogram("qpgc_sched_wave_seconds")
	r.CounterFunc("qpgc_sched_waves_total", sc.waves.Load)
	r.CounterFunc("qpgc_sched_lanes_total", sc.lanes.Load)
	r.CounterFunc("qpgc_sched_singles_total", sc.singles.Load)
	r.CounterFunc("qpgc_sched_clustered_lanes_total", sc.clustered.Load)
	r.GaugeFunc("qpgc_sched_waves_inflight", func() float64 { return float64(sc.inFlight.Load()) })
	r.GaugeFunc("qpgc_sched_queue_depth", func() float64 {
		sc.mu.Lock()
		defer sc.mu.Unlock()
		return float64(len(sc.q))
	})
	r.GaugeFunc("qpgc_sched_workers", func() float64 {
		sc.mu.Lock()
		defer sc.mu.Unlock()
		return float64(sc.workers)
	})
}

// bindObs registers the store's scrape-time callbacks, shared by both
// kinds. Called once while opening, after the scheduler exists (sh.ob
// itself is created before the first publish so every snapshot carries the
// stage histograms).
func (sh *shell[S, R]) bindObs() {
	r := sh.opts.Obs
	if r == nil {
		return
	}
	bindSchedObs(r, sh.sched)
	r.CounterFunc("qpgc_store_batches_total", sh.batches.Load)
	r.CounterFunc("qpgc_store_updates_total", sh.updates.Load)
	r.CounterFunc("qpgc_store_reads_total", sh.reads.Load)
	r.GaugeFunc("qpgc_store_epoch", func() float64 {
		epoch, _ := sh.eng.head(sh.snap.Load())
		return float64(epoch)
	})
	r.GaugeFunc("qpgc_store_epoch_age_seconds", sh.ob.ageSeconds)
	shards := float64(sh.eng.numShards())
	r.GaugeFunc("qpgc_store_shards", func() float64 { return shards })
	// Batch read-path counters: accumulator plus the live snapshot's share,
	// exactly the SchedStats sums — Prometheus rate() (or qpgc top's poll
	// deltas) turns these lifetime totals into the interval rates.
	r.CounterFunc("qpgc_sched_batch_lanes_total", func() uint64 {
		n, _, _, _ := sh.batchTotals()
		return n
	})
	r.CounterFunc("qpgc_sched_hop2_peeled_total", func() uint64 {
		_, n, _, _ := sh.batchTotals()
		return n
	})
	r.CounterFunc("qpgc_sched_hub_lanes_total", func() uint64 {
		_, _, n, _ := sh.batchTotals()
		return n
	})
	r.CounterFunc("qpgc_sched_hub_prunes_total", func() uint64 {
		_, _, _, n := sh.batchTotals()
		return n
	})
}

// shardBatchHist is the per-shard writer-latency histogram, the input the
// self-tuning rebalancer roadmap item needs: one series per shard, labeled
// by shard index.
func shardBatchHist(r *obs.Registry, shard int) *obs.Histogram {
	return r.Histogram(obs.Label("qpgc_shard_batch_seconds", "shard", strconv.Itoa(shard)))
}
