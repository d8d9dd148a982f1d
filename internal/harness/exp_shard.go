package harness

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/store"
)

// shardDatasets are the topologies the shard sweep covers — the serve
// datasets plus a labeled pattern dataset, so both the reachability and
// the stitched-pattern pipelines are measured.
var shardDatasets = []string{"socEpinions", "P2P", "citHepTh", "Youtube"}

// shardKs is the k sweep.
var shardKs = []int{1, 2, 4, 8}

// shardWriteRate applies mixed 32-update batches back to back through
// apply and returns updates/second.
func shardWriteRate(cfg Config, d gen.Dataset, batches int, apply func([]graph.Update) error) float64 {
	wrng := rand.New(rand.NewSource(cfg.Seed + 9))
	mirror := d.Build(cfg.Seed)
	start := time.Now()
	total := 0
	for i := 0; i < batches; i++ {
		batch := gen.RandomBatch(wrng, mirror, 32, 0.5)
		mirror.Apply(batch)
		if err := apply(batch); err != nil {
			break
		}
		total += len(batch)
	}
	return float64(total) / time.Since(start).Seconds()
}

// ExpShard measures the sharded store against the monolithic one: build
// wall-clock for OpenSharded at each k vs. Open (the k column that matters
// for the ROADMAP's scale step is k=4), the size of the cut (boundary
// nodes, summary edges), and write throughput under the same mixed batch
// stream. Build time should drop with k even on one core, because the
// compression work (set-DP grouping, Paige–Tarjan) is superlinear in shard
// size; the cut columns show what the summary costs in exchange.
func ExpShard(cfg Config) *Table {
	t := &Table{
		ID:    "shard",
		Title: "Sharded vs monolithic store: build time, cut size, write throughput",
		Header: []string{"dataset", "k", "build mono", "build shard", "speedup",
			"boundary", "summary |E|", "upd/s mono", "upd/s shard"},
		Notes: []string{
			"build = Open/OpenSharded wall-clock including epoch-0 publication (indexes on)",
			"upd/s = mixed 32-update batches applied back to back for the write phase",
			"k=1 shows the sharding layer's overhead against the monolithic baseline",
		},
	}
	writeBatches := 12
	if cfg.Scale < 0.5 {
		writeBatches = 4
	}
	for _, name := range shardDatasets {
		d, ok := gen.DatasetByName(name)
		if !ok {
			continue
		}
		d = d.Scale(cfg.Scale)

		gm := d.Build(cfg.Seed)
		var mono *store.Store
		monoBuild := timeIt(func() { mono, _ = store.Open(gm, nil) })
		monoUps := shardWriteRate(cfg, d, writeBatches, func(b []graph.Update) error {
			_, err := mono.ApplyBatch(b)
			return err
		})
		mono.Close()

		for _, k := range shardKs {
			gs := d.Build(cfg.Seed)
			var sh *store.ShardedStore
			shardBuild := timeIt(func() {
				sh, _ = store.OpenSharded(gs, &store.ShardedOptions{Options: store.Options{Indexes: true}, Shards: k})
			})
			st := sh.Stats()
			shardUps := shardWriteRate(cfg, d, writeBatches, func(b []graph.Update) error {
				_, err := sh.ApplyBatch(b)
				return err
			})
			sh.Close()

			t.Rows = append(t.Rows, []string{
				name,
				fmt.Sprintf("%d", k),
				ms(monoBuild),
				ms(shardBuild),
				fmt.Sprintf("%.2fx", monoBuild.Seconds()/shardBuild.Seconds()),
				fmt.Sprintf("%d", st.Boundary),
				fmt.Sprintf("%d", st.SummaryEdges),
				fmt.Sprintf("%.0f", monoUps),
				fmt.Sprintf("%.0f", shardUps),
			})
		}
	}
	return t
}
