package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/mission"
	"repro/internal/ml"
	"repro/internal/ml/knn"
	"repro/internal/rem"
	"repro/internal/remobs"
	"repro/internal/remshard"
	"repro/internal/remstore"
)

// This file is the streaming half of the pipeline: instead of one
// fly-fit-rasterise pass, RunStream consumes the mission's samples in
// windows and publishes one REM snapshot per window into a remstore —
// the incremental estimators (ml.IncrementalEstimator) report which keys
// a window can affect, and rem.Map.RebuildKeys re-rasterises only those,
// sharing every other tile with the previous snapshot. Queries against
// the store never block on a rebuild.
//
// With StreamConfig.Shards the sink is a remshard.ShardedStore instead:
// each window's dirty-key set is grouped by shard and only the affected
// shards rebuild and publish, concurrently — an update to one AP never
// touches the serving snapshots of the rest, and every query still
// answers byte-identically to the monolithic stream (determinism
// contract rule 8). The estimator's Observe/Refit remain single
// estimator-level calls either way (the estimator owns its internal
// structure); it is the rasterise-and-publish half that fans out.
//
// The key vocabulary is fixed upfront by preprocessing the full dataset
// (the simulated AP population is known to the mission), so every window
// encodes against the same one-hot layout; a live deployment would
// periodically re-run the full pipeline to admit new MACs — see the
// ROADMAP's snapshot-GC / re-vocabulary open item.

// StreamConfig tunes a streaming run. The embedded Config supplies the
// seed, mission options, MAC threshold, REM resolution and worker bound;
// TrainFraction and Estimators are unused here (streaming serves a single
// estimator on all arrived data rather than comparing a suite).
type StreamConfig struct {
	Config
	// Spec is the served estimator; nil means DefaultStreamSpec. Specs
	// whose estimator implements ml.IncrementalEstimator get
	// delta-proportional refits and rebuilds; any other estimator is
	// wrapped in ml.NewRefitAdapter (correct, but refitted from scratch
	// each window).
	Spec *EstimatorSpec
	// WindowRows is the number of preprocessed rows per published
	// window; ≤ 0 splits the dataset into 4 equal windows.
	WindowRows int
	// MaxHistory bounds the store's retained snapshot history
	// (≤ 0 means remstore.DefaultMaxHistory).
	MaxHistory int
	// Store, when set, receives the published snapshots instead of a
	// freshly created store — so clients can query the store while the
	// stream is still running (MaxHistory is then ignored). Monolithic
	// mode only; incompatible with Shards/Partitioner/ShardStore.
	Store *remstore.Store
	// OnWindow, when set, observes every published window in order —
	// the live-serving hook (progress logs, query probes). Monolithic
	// mode only; sharded streams report through OnShardWindow.
	OnWindow func(WindowReport, *remstore.Snapshot)

	// Context, when set, cancels the stream between windows: the loop
	// checks it before fitting each window and returns the result so
	// far together with the context's error — the published snapshots
	// stay serveable, so a signal-driven shutdown (remgen -serve) can
	// keep answering queries while it drains. Nil means never cancel.
	Context context.Context
	// OnStore, when set, fires exactly once, after the sink store
	// exists and before the first window publishes — the
	// serve-while-streaming hook: an HTTP front (remserve) started here
	// serves every generation from the very first publish. Exactly one
	// of the two arguments is non-nil, matching the stream mode.
	OnStore func(*remstore.Store, *remshard.ShardedStore)

	// Shards > 0 streams into a sharded store instead of a single
	// monolithic one: the key vocabulary is partitioned across that many
	// independent stores, each window's dirty-key set is grouped by
	// shard, and only the affected shards rebuild and publish —
	// concurrently, within the Workers bound. Every query answers
	// byte-identically to the monolithic stream (determinism contract
	// rule 8), so sharding is purely an availability/parallelism choice.
	Shards int
	// Partitioner routes keys to shards in sharded mode; nil means
	// remshard.HashByKey. Setting it (or ShardStore) implies sharded
	// mode even when Shards is 0.
	Partitioner remshard.Partitioner
	// ShardStore, when set, receives the sharded publishes instead of a
	// freshly created store — the sharded analogue of Store. Its
	// vocabulary and geometry must match the preprocessed dataset and
	// the configured resolution.
	ShardStore *remshard.ShardedStore
	// OnShardWindow observes every sharded window in order — the
	// sharded analogue of OnWindow.
	OnShardWindow func(WindowReport, remshard.Round)

	// Observer, when set, instruments the stream: per-window stage
	// latencies (Observe/Refit/rebuild), generation events with
	// dirty-key counts, and — wired through to the sink store — publish
	// and cover-index timings. Nil is the no-op and costs nothing on
	// the query path.
	Observer *remobs.Observer
}

// DefaultStreamConfig mirrors DefaultConfig for streaming runs.
func DefaultStreamConfig(seed uint64) StreamConfig {
	return StreamConfig{Config: DefaultConfig(seed)}
}

// DefaultStreamSpec is the streaming default: the per-MAC kNN ensemble.
// Its Observe reports tight dirty sets — a window's samples dirty only
// the MACs they belong to (plus any still served by the global fallback)
// — which is what makes incremental rebuild cost proportional to the
// delta rather than the map.
func DefaultStreamSpec() EstimatorSpec {
	plain := dataset.FeatureOptions{OneHotMACScale: 1}
	return EstimatorSpec{
		Name:     "per-MAC kNN",
		Features: plain,
		Build: func() (ml.Estimator, error) {
			return &knn.PerKey{Sub: knn.PaperPlainConfig(), KeyOffset: 3}, nil
		},
	}
}

// WindowReport summarises one published window.
type WindowReport struct {
	// Window is the window index (0-based).
	Window int
	// NewRows is the number of rows this window added.
	NewRows int
	// TotalRows is the cumulative row count after the window.
	TotalRows int
	// DirtyKeys is how many keys the window dirtied (every key in
	// window 0).
	DirtyKeys int
	// SharedTiles is how many tiles the published snapshot(s) share
	// with their predecessors (0 in window 0). In sharded mode only the
	// affected shards publish, so untouched shards' tiles — still
	// serving, never copied — are not part of this count.
	SharedTiles int
	// Version is the published snapshot's store version; in sharded
	// mode, the rebuild-round sequence number. Both equal window+1.
	Version uint64
	// Shards is how many shards rebuilt and published this window
	// (0 in monolithic mode).
	Shards int
}

// StreamResult is the full streaming output.
type StreamResult struct {
	// Store serves the published snapshots; Store.Current() is the final
	// generation. Nil in sharded mode — see Sharded.
	Store *remstore.Store
	// Sharded serves the published snapshots in sharded mode;
	// Sharded.MergedSnapshot() is the final monolithic view. Nil in
	// monolithic mode.
	Sharded *remshard.ShardedStore
	// Windows are the per-window reports, in publish order.
	Windows []WindowReport
	// Data is the raw mission dataset.
	Data *dataset.Dataset
	// Report is the mission flight report (nil for stored datasets).
	Report *mission.Report
	// Pre is the preprocessed dataset whose vocabulary the snapshots
	// share.
	Pre *dataset.Preprocessed
	// Estimator is the served incremental estimator, left fitted on every
	// streamed row — callers can keep the stream going (Observe → Refit →
	// RebuildKeys → Publish) after RunStream returns.
	Estimator ml.IncrementalEstimator
}

// RunStream flies the mission and streams its samples through the
// incremental pipeline; see RunStreamWithDataset.
func RunStream(cfg StreamConfig) (*StreamResult, error) {
	ctrl, err := mission.NewPaperController(cfg.Mission)
	if err != nil {
		return nil, err
	}
	data, report, err := ctrl.Run()
	if err != nil {
		return nil, err
	}
	return RunStreamWithDataset(cfg, data, report)
}

// RunStreamWithDataset streams an existing dataset through the
// incremental pipeline: fit the estimator on the first window, then per
// window Observe → Refit → RebuildKeys → Publish. After every publish,
// the served snapshot is byte-identical to a from-scratch build against a
// fresh estimator fitted on all rows so far (determinism contract rule 7;
// exact for the kNN family and the baseline, pinned at full-retrain
// numerics for the NN), for any worker count.
func RunStreamWithDataset(cfg StreamConfig, data *dataset.Dataset, report *mission.Report) (*StreamResult, error) {
	if data == nil || data.Len() == 0 {
		return nil, errors.New("core: empty dataset")
	}
	if cfg.MinSamplesPerMAC < 1 {
		return nil, errors.New("core: MinSamplesPerMAC must be ≥1")
	}
	if cfg.REMResolution[0] < 1 || cfg.REMResolution[1] < 1 || cfg.REMResolution[2] < 1 {
		return nil, fmt.Errorf("core: streaming needs a positive REM resolution, got %v", cfg.REMResolution)
	}
	pre, err := dataset.Preprocess(data, cfg.MinSamplesPerMAC)
	if err != nil {
		return nil, err
	}
	spec := DefaultStreamSpec()
	if cfg.Spec != nil {
		spec = *cfg.Spec
	}
	est, err := spec.Build()
	if err != nil {
		return nil, fmt.Errorf("core: building %s: %w", spec.Name, err)
	}
	inc := ml.NewRefitAdapter(est)
	allX, allY := pre.DesignMatrix(spec.Features)
	rows := len(allX)
	win := cfg.WindowRows
	if win <= 0 {
		win = (rows + 3) / 4
	}
	predict := BatchPredictorFor(inc, pre.FeatureDim(spec.Features), spec.Features.OneHotMACScale)
	opts := rem.BuildOptions{Workers: cfg.Workers}
	vol := geom.PaperScanVolume()
	nKeys := len(pre.MACs)
	res := &StreamResult{
		Data:      data,
		Report:    report,
		Pre:       pre,
		Estimator: inc,
	}
	sharded := cfg.Shards > 0 || cfg.Partitioner != nil || cfg.ShardStore != nil
	if sharded {
		if cfg.Store != nil {
			return nil, errors.New("core: Store is the monolithic sink; sharded streams publish into ShardStore")
		}
		if cfg.OnWindow != nil {
			return nil, errors.New("core: OnWindow is the monolithic hook; sharded streams report through OnShardWindow")
		}
		if res.Sharded, err = shardStoreFor(cfg, pre.MACs, vol); err != nil {
			return nil, err
		}
	} else {
		if cfg.OnShardWindow != nil {
			return nil, errors.New("core: OnShardWindow reports sharded streams; set Shards (or stay with OnWindow)")
		}
		res.Store = cfg.Store
		if res.Store == nil {
			res.Store = remstore.New(cfg.MaxHistory)
		}
	}
	o := newGenObs(cfg.Observer)
	if sharded {
		res.Sharded.SetObserver(cfg.Observer)
	} else {
		res.Store.SetObserver(cfg.Observer)
	}
	if cfg.OnStore != nil {
		cfg.OnStore(res.Store, res.Sharded)
	}
	first := true
	var cur *rem.Map
	for start, w := 0, 0; start < rows; start, w = start+win, w+1 {
		if cfg.Context != nil {
			if err := cfg.Context.Err(); err != nil {
				// A clean stop, not a failure: everything published so
				// far keeps serving, so hand the partial result back
				// alongside the cancellation cause.
				return res, fmt.Errorf("core: stream cancelled after %d window(s): %w", w, err)
			}
		}
		end := min(start+win, rows)
		winStart := time.Now()
		var dirty []int
		var observeD, refitD time.Duration
		if first {
			// The bootstrap Fit is the refit stage of window 0.
			t := time.Now()
			if err := inc.Fit(allX[:end], allY[:end]); err != nil {
				return nil, fmt.Errorf("core: fitting %s on window 0: %w", spec.Name, err)
			}
			refitD = time.Since(t)
		} else {
			t := time.Now()
			if dirty, err = inc.Observe(allX[start:end], allY[start:end]); err != nil {
				return nil, fmt.Errorf("core: observing window %d: %w", w, err)
			}
			observeD = time.Since(t)
			t = time.Now()
			if err := inc.Refit(); err != nil {
				return nil, fmt.Errorf("core: refitting after window %d: %w", w, err)
			}
			refitD = time.Since(t)
		}
		dirtyKeys := resolveDirty(dirty, nKeys, first)
		cells := len(dirtyKeys) * cfg.REMResolution[0] * cfg.REMResolution[1] * cfg.REMResolution[2]
		rep := WindowReport{
			Window:    w,
			NewRows:   end - start,
			TotalRows: end,
			DirtyKeys: len(dirtyKeys),
		}
		if sharded {
			// The window's dirty set, grouped by shard: only the
			// affected shards re-rasterise and publish, concurrently on
			// the worker pool. Rebuild covers rasterise AND publish, so
			// the rebuild stage absorbs both here.
			t := time.Now()
			round, err := res.Sharded.Rebuild(dirtyKeys, predict, opts)
			if err != nil {
				return nil, fmt.Errorf("core: rasterising window %d: %w", w, err)
			}
			o.markStages(observeD, refitD, time.Since(t))
			rep.SharedTiles = round.SharedTiles
			rep.Version = round.Seq
			rep.Shards = round.AffectedShards
			res.Windows = append(res.Windows, rep)
			o.markGeneration("window", rep.NewRows, rep.DirtyKeys, cells, rep.SharedTiles,
				time.Since(winStart), fmt.Sprintf("window=%d version=%d shards=%d", w, rep.Version, rep.Shards))
			if cfg.OnShardWindow != nil {
				cfg.OnShardWindow(rep, round)
			}
		} else {
			t := time.Now()
			next, err := rebuild(cur, vol, cfg.REMResolution, pre.MACs, dirtyKeys, predict, opts)
			if err != nil {
				return nil, fmt.Errorf("core: rasterising window %d: %w", w, err)
			}
			rebuildD := time.Since(t)
			snap, err := res.Store.Publish(next, len(dirtyKeys))
			if err != nil {
				return nil, err
			}
			o.markStages(observeD, refitD, rebuildD)
			_, shared := snap.BuildStats() // computed once by Publish
			rep.SharedTiles = shared
			rep.Version = snap.Version()
			res.Windows = append(res.Windows, rep)
			o.markGeneration("window", rep.NewRows, rep.DirtyKeys, cells, rep.SharedTiles,
				time.Since(winStart), fmt.Sprintf("window=%d version=%d", w, rep.Version))
			if cfg.OnWindow != nil {
				cfg.OnWindow(rep, snap)
			}
			cur = next
		}
		first = false
	}
	return res, nil
}

// shardStoreFor resolves the sharded sink: the caller's ShardStore when
// set (validated against the dataset's vocabulary and the configured
// geometry, so a store built for a different mission cannot silently
// serve this one), a freshly partitioned one otherwise.
func shardStoreFor(cfg StreamConfig, macs []string, vol geom.Cuboid) (*remshard.ShardedStore, error) {
	if st := cfg.ShardStore; st != nil {
		// The store owns its layout; a conflicting Shards/Partitioner
		// request would be silently ignored, so reject it instead.
		if cfg.Shards > 0 && cfg.Shards != st.NumShards() {
			return nil, fmt.Errorf("core: ShardStore has %d shards, Shards asks for %d", st.NumShards(), cfg.Shards)
		}
		if cfg.Partitioner != nil {
			return nil, errors.New("core: ShardStore already fixed its partitioning; Partitioner only applies to a store the stream creates")
		}
		keys := st.Keys()
		if len(keys) != len(macs) {
			return nil, fmt.Errorf("core: ShardStore serves %d keys, dataset has %d", len(keys), len(macs))
		}
		for i, k := range keys {
			if macs[i] != k {
				return nil, fmt.Errorf("core: ShardStore key %d is %q, dataset has %q", i, k, macs[i])
			}
		}
		if got := st.Resolution(); got != cfg.REMResolution {
			return nil, fmt.Errorf("core: ShardStore resolution %v does not match configured %v", got, cfg.REMResolution)
		}
		if got := st.Volume(); got != vol {
			return nil, fmt.Errorf("core: ShardStore volume %v–%v does not match the scan volume %v–%v", got.Min, got.Max, vol.Min, vol.Max)
		}
		return st, nil
	}
	return remshard.New(macs, remshard.Config{
		Shards:      cfg.Shards,
		Partitioner: cfg.Partitioner,
		Volume:      vol,
		Resolution:  cfg.REMResolution,
		MaxHistory:  cfg.MaxHistory,
	})
}

// resolveDirty turns an estimator's dirty report into an explicit key
// list: the full vocabulary on the first window or when the estimator
// reports ml.DirtyAll, the listed keys otherwise.
func resolveDirty(dirty []int, nKeys int, first bool) []int {
	all := first
	for _, k := range dirty {
		if k == ml.DirtyAll {
			all = true
			break
		}
	}
	if all {
		out := make([]int, nKeys)
		for i := range out {
			out[i] = i
		}
		return out
	}
	return dirty
}

// rebuild rasterises the next generation: a from-scratch build for the
// first window, an incremental tile-sharing rebuild afterwards.
func rebuild(cur *rem.Map, vol geom.Cuboid, res [3]int, keys []string, dirty []int, predict rem.BatchPredictFunc, opts rem.BuildOptions) (*rem.Map, error) {
	if cur == nil {
		return rem.BuildMapBatch(vol, res[0], res[1], res[2], keys, predict, opts)
	}
	return cur.RebuildKeys(dirty, predict, opts)
}
