package core

import (
	"time"

	"repro/internal/remobs"
)

// genObs instruments a generation loop — the streaming windows of
// RunStream or the live batches of RunIngest. Both loops share the
// Observe → Refit → rebuild → publish shape, so they share one
// instrument set; the publish half is timed by the sink store itself
// (remstore/remshard SetObserver), which the loops wire up from the
// same Observer. A nil *genObs is the no-op: every method checks the
// receiver, so uninstrumented runs pay one pointer test per window.
type genObs struct {
	obs     *remobs.Observer
	observe *remobs.Histogram
	refit   *remobs.Histogram
	rebuild *remobs.Histogram
	gen     *remobs.Histogram
	gens    *remobs.Counter
	rows    *remobs.Counter
	dirty   *remobs.Counter
	cells   *remobs.Counter
}

// newGenObs registers the generation metrics, or returns nil for a nil
// observer.
func newGenObs(obs *remobs.Observer) *genObs {
	if obs == nil || obs.Registry == nil {
		return nil
	}
	reg := obs.Registry
	return &genObs{
		obs: obs,
		observe: reg.Histogram("rem_gen_observe_seconds",
			"estimator Observe latency per generation (dirty-set reporting)"),
		refit: reg.Histogram("rem_gen_refit_seconds",
			"estimator Refit latency per generation"),
		rebuild: reg.Histogram("rem_gen_rebuild_seconds",
			"rasterisation latency per generation (RebuildKeys or from-scratch build)"),
		gen: reg.Histogram("rem_gen_generation_seconds",
			"whole-generation latency: observe, refit, rebuild and publish"),
		gens: reg.Counter("rem_gen_generations_total",
			"generations published (stream windows plus ingest batches, bootstrap included)"),
		rows: reg.Counter("rem_gen_rows_total",
			"observation rows consumed across generations"),
		dirty: reg.Counter("rem_gen_dirty_keys_total",
			"keys dirtied across generations (every key on a bootstrap)"),
		cells: reg.Counter("rem_gen_cells_predicted_total",
			"(key, cell) predictions made across generations (every cell of every key on a bootstrap)"),
	}
}

// markStages records the learner-side stage timings. A zero observe —
// a bootstrap window has no Observe — is skipped rather than polluting
// the low buckets. A zero refit is recorded: an ingest batch that needed
// no Refit spent nothing on that stage, and the stage means must add up
// to the generation's.
func (o *genObs) markStages(observe, refit, rebuild time.Duration) {
	if o == nil {
		return
	}
	if observe > 0 {
		o.observe.Observe(observe)
	}
	o.refit.Observe(refit)
	o.rebuild.Observe(rebuild)
}

// markGeneration records one published generation: the end-to-end
// histogram, the volume counters and a lifecycle event. kind is
// "window" (stream) or "batch" (ingest); cells is how many (key, cell)
// predictions the rasterisation made; detail carries the per-loop tail
// (window/seq numbering, replay flag).
func (o *genObs) markGeneration(kind string, rows, dirtyKeys, cells, sharedTiles int, total time.Duration, detail string) {
	if o == nil {
		return
	}
	o.gen.Observe(total)
	o.gens.Inc()
	o.rows.Add(uint64(rows))
	o.dirty.Add(uint64(dirtyKeys))
	o.cells.Add(uint64(cells))
	o.obs.Event(kind, "%s rows=%d dirty_keys=%d cells=%d shared_tiles=%d took=%s",
		detail, rows, dirtyKeys, cells, sharedTiles, total.Round(time.Microsecond))
}
