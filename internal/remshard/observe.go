package remshard

import (
	"time"

	"repro/internal/remobs"
)

// shardObs is the sharded store's instrument set; nil means
// uninstrumented. The store-level counters deliberately reuse the
// rem_store_* names the monolithic backend exposes — one process
// serves one backend flavour, and operators should not need two
// dashboards for the same concept.
type shardObs struct {
	obs         *remobs.Observer
	rebuildHist *remobs.Histogram
}

// SetObserver registers the sharded store's metrics: rebuild-round
// latency, round/shard gauges, and the aggregate store counters under
// the same names the monolithic store uses. nil is the documented
// opt-out.
func (s *ShardedStore) SetObserver(obs *remobs.Observer) {
	if obs == nil || obs.Registry == nil {
		return
	}
	reg := obs.Registry
	s.o = &shardObs{
		obs: obs,
		rebuildHist: reg.Histogram("rem_shard_rebuild_seconds",
			"whole-round sharded rebuild latency (all affected shards, publish included)"),
	}
	reg.GaugeFunc("rem_shard_count", "configured shard count",
		func() float64 { return float64(len(s.shards)) })
	reg.CounterFunc("rem_shard_rounds_total", "completed rebuild rounds",
		func() float64 { return float64(s.rounds.Load()) })
	reg.CounterFunc("rem_store_queries_total",
		"logical queries served (one per point; monolithic-equivalent figure)",
		func() float64 { return float64(s.Stats().Queries) })
	reg.CounterFunc("rem_store_publishes_total",
		"snapshot generations published, summed across shards",
		func() float64 { return float64(s.Stats().ShardPublishes) })
	reg.CounterFunc("rem_store_evictions_total",
		"snapshots evicted by retention, summed across shards",
		func() float64 {
			var n uint64
			for _, st := range s.Stats().PerShard {
				n += st.Evictions
			}
			return float64(n)
		})
	reg.GaugeFunc("rem_store_coverindex_candidate_ratio",
		"expected Strongest candidates over the full vocabulary (1 = no pruning)",
		func() float64 { return s.coverCandidateRatio() })
}

// coverCandidateRatio aggregates the pruning ratio across shards: a
// Strongest query visits every shard, so the expected candidate count
// is the sum of each shard's per-cube mean, normalised by the full
// vocabulary size.
func (s *ShardedStore) coverCandidateRatio() float64 {
	k := len(s.keys)
	if k == 0 {
		return 1
	}
	var perCube float64
	for _, sh := range s.shards {
		cur := sh.store.Current()
		if cur == nil {
			// An unpublished shard serves nothing yet; count its keys at
			// brute cost so the gauge is pessimistic, not flattering.
			perCube += float64(len(sh.keys))
			continue
		}
		cs, ok := cur.Map().CoverIndexStats()
		if !ok || cs.Cubes == 0 {
			perCube += float64(len(sh.keys))
			continue
		}
		perCube += float64(cs.Candidates) / float64(cs.Cubes)
	}
	return perCube / float64(k)
}

// observeRebuild records one completed round.
func (s *ShardedStore) observeRebuild(r Round, d time.Duration) {
	o := s.o
	if o == nil {
		return
	}
	o.rebuildHist.Observe(d)
	o.obs.Event("rebuild",
		"round=%d dirty_keys=%d affected_shards=%d built_keys=%d shared_tiles=%d took=%s",
		r.Seq, r.DirtyKeys, r.AffectedShards, r.BuiltKeys, r.SharedTiles,
		d.Round(time.Microsecond))
}
