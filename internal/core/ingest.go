package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/mission"
	"repro/internal/ml"
	"repro/internal/ml/knn"
	"repro/internal/rem"
	"repro/internal/remobs"
	"repro/internal/remstore"
	"repro/internal/remwal"
)

// This file is the ingest-driven variant of the stream loop: instead of
// windowing a pre-recorded dataset, RunIngest bootstraps the estimator
// on the mission's survey and then consumes live observation batches
// from a remwal.Queue — each popped batch is one window (Observe →
// update the cells it can reach, or Refit → RebuildKeys → Publish; see
// ingestRaster), so the serving store advances one version per
// accepted batch and queries never block on a rebuild.
//
// Durability rides on the queue's write-ahead log: a batch is
// acknowledged only after its canonical REMO bytes are on disk, and
// Config.Replay re-feeds recovered batches through the identical code
// path before any live batch is popped. Determinism contract rule 10
// follows: a run killed at any point and restarted from its WAL
// publishes snapshots byte-identical to a run that never crashed,
// because the publish sequence is a pure function of the batch
// sequence, which the WAL preserves exactly.
//
// The key vocabulary stays fixed by the bootstrap dataset — a live
// batch for an unknown MAC is rejected at the serving edge (404) by
// the validator this loop installs, and never reaches the WAL.

// IngestConfig tunes an ingest run. The embedded Config supplies the
// seed, mission options, MAC threshold, REM resolution and worker
// bound; TrainFraction and Estimators are unused here.
type IngestConfig struct {
	Config
	// Spec is the served estimator; nil means DefaultStreamSpec.
	// Features.IncludeChannel is rejected: live observations carry no
	// channel, so the design-matrix row for a batch could not be built.
	Spec *EstimatorSpec
	// MaxHistory bounds the store's retained snapshot history
	// (≤ 0 means remstore.DefaultMaxHistory).
	MaxHistory int
	// Queue is the batch source — required. The loop installs a
	// vocabulary/geometry validator on it (so rejected batches never
	// reach the WAL) and closes it when the loop exits, flipping the
	// serving edge to 503.
	Queue *remwal.Queue
	// Replay is the WAL's recovered batches, processed before any live
	// pop — pass remwal.Batches(recs) from the Open that produced Queue's
	// log so a restart resumes exactly where the crash interrupted.
	Replay []remwal.Batch
	// Context stops the loop — required (an ingest run has no natural
	// end). Cancellation between batches is a clean stop: everything
	// published keeps serving and the partial result is returned
	// alongside the context's error.
	Context context.Context
	// OnStore fires exactly once, after the sink store exists and before
	// the bootstrap snapshot publishes — the serve-while-ingesting hook.
	OnStore func(*remstore.Store)
	// OnBatch observes every published batch in order (replayed ones
	// included, flagged), after the bootstrap publish.
	OnBatch func(IngestReport)
	// Observer, when set, instruments the loop: per-batch stage
	// latencies, generation events with dirty-key counts, and the sink
	// store's publish metrics. The caller should hand the same Observer
	// to the Queue and its Log so one scrape covers the whole ingest
	// edge. Nil is the no-op.
	Observer *remobs.Observer
}

// IngestReport summarises one published batch.
type IngestReport struct {
	// Seq is the batch ordinal (1-based; the bootstrap publish is not a
	// batch). For WAL-backed queues this equals the record sequence.
	Seq uint64
	// Version is the published snapshot's store version (bootstrap is 1,
	// so Version = Seq+1).
	Version uint64
	// Rows is the number of observations in the batch.
	Rows int
	// DirtyKeys is how many keys the batch dirtied.
	DirtyKeys int
	// SharedTiles is how many tiles the published snapshot shares with
	// its predecessor.
	SharedTiles int
	// Replayed marks a batch recovered from the WAL rather than popped
	// live.
	Replayed bool
}

// IngestResult is the full ingest output.
type IngestResult struct {
	// Store serves the published snapshots; Store.Current() is the final
	// generation.
	Store *remstore.Store
	// Data is the bootstrap mission dataset.
	Data *dataset.Dataset
	// Report is the mission flight report (nil for stored datasets).
	Report *mission.Report
	// Pre is the preprocessed bootstrap whose vocabulary the snapshots
	// share.
	Pre *dataset.Preprocessed
	// Estimator is the served incremental estimator, left fitted on
	// every row seen.
	Estimator ml.IncrementalEstimator
}

// RunIngest flies the mission for the bootstrap survey and then serves
// live batches; see RunIngestWithDataset.
func RunIngest(cfg IngestConfig) (*IngestResult, error) {
	ctrl, err := mission.NewPaperController(cfg.Mission)
	if err != nil {
		return nil, err
	}
	data, report, err := ctrl.Run()
	if err != nil {
		return nil, err
	}
	return RunIngestWithDataset(cfg, data, report)
}

// RunIngestWithDataset bootstraps the estimator on the full dataset,
// publishes the bootstrap snapshot (version 1), then consumes batches —
// Replay first, then live pops — publishing one snapshot per batch
// until the context cancels or the queue closes. The returned result is
// partial but valid in both cases; the error wraps the cause.
func RunIngestWithDataset(cfg IngestConfig, data *dataset.Dataset, report *mission.Report) (*IngestResult, error) {
	if data == nil || data.Len() == 0 {
		return nil, errors.New("core: empty dataset")
	}
	if cfg.Queue == nil {
		return nil, errors.New("core: ingest needs a Queue")
	}
	if cfg.Context == nil {
		return nil, errors.New("core: ingest needs a Context (the loop has no natural end)")
	}
	if cfg.MinSamplesPerMAC < 1 {
		return nil, errors.New("core: MinSamplesPerMAC must be ≥1")
	}
	if cfg.REMResolution[0] < 1 || cfg.REMResolution[1] < 1 || cfg.REMResolution[2] < 1 {
		return nil, fmt.Errorf("core: ingest needs a positive REM resolution, got %v", cfg.REMResolution)
	}
	spec := DefaultStreamSpec()
	if cfg.Spec != nil {
		spec = *cfg.Spec
	}
	if spec.Features.IncludeChannel {
		return nil, errors.New("core: ingest cannot serve channel features (live observations carry no channel)")
	}
	pre, err := dataset.Preprocess(data, cfg.MinSamplesPerMAC)
	if err != nil {
		return nil, err
	}
	est, err := spec.Build()
	if err != nil {
		return nil, fmt.Errorf("core: building %s: %w", spec.Name, err)
	}
	inc := ml.NewRefitAdapter(est)
	allX, allY := pre.DesignMatrix(spec.Features)
	featDim := pre.FeatureDim(spec.Features)
	ras := newIngestRaster(inc, featDim, spec.Features.OneHotMACScale, cfg.REMResolution, rem.BuildOptions{Workers: cfg.Workers})
	vol := geom.PaperScanVolume()
	nKeys := len(pre.MACs)
	macIdx := make(map[string]int, nKeys)
	for i, m := range pre.MACs {
		macIdx[m] = i
	}
	res := &IngestResult{
		Data:      data,
		Report:    report,
		Pre:       pre,
		Estimator: inc,
	}
	res.Store = remstore.New(cfg.MaxHistory)
	// The vocabulary gate: a batch for an unknown MAC never reaches the
	// WAL, so replay only ever sees batches this loop can encode.
	cfg.Queue.SetValidator(func(b remwal.Batch) error {
		if _, ok := macIdx[b.Key]; !ok {
			return fmt.Errorf("%w: %q", rem.ErrUnknownKey, b.Key)
		}
		return nil
	})
	// Once the loop exits — however it exits — the serving edge sheds
	// writes with 503 instead of acknowledging batches nobody will
	// process.
	defer cfg.Queue.Close()
	o := newGenObs(cfg.Observer)
	res.Store.SetObserver(cfg.Observer)
	if cfg.OnStore != nil {
		cfg.OnStore(res.Store)
	}

	// Bootstrap: fit on the whole survey, build and publish version 1.
	bootStart := time.Now()
	t := time.Now()
	if err := inc.Fit(allX, allY); err != nil {
		return nil, fmt.Errorf("core: fitting %s on the bootstrap survey: %w", spec.Name, err)
	}
	fitD := time.Since(t)
	t = time.Now()
	cur, err := ras.bootstrap(vol, pre.MACs)
	if err != nil {
		return nil, fmt.Errorf("core: rasterising the bootstrap snapshot: %w", err)
	}
	buildD := time.Since(t)
	if _, err := res.Store.Publish(cur, nKeys); err != nil {
		return nil, err
	}
	o.markStages(0, fitD, buildD)
	o.markGeneration("batch", len(allX), nKeys, nKeys*ras.stride, 0, time.Since(bootStart), "bootstrap version=1")

	processBatch := func(b remwal.Batch, seq uint64, replayed bool) error {
		batchStart := time.Now()
		ki, ok := macIdx[b.Key]
		if !ok {
			// Replay of a WAL written before the validator existed (or by
			// a different vocabulary) — a config error, not a data fault.
			return fmt.Errorf("core: batch %d: %w: %q", seq, rem.ErrUnknownKey, b.Key)
		}
		x := make([][]float64, len(b.Points))
		y := make([]float64, len(b.Points))
		for i, p := range b.Points {
			row := make([]float64, featDim)
			row[0], row[1], row[2] = p.X, p.Y, p.Z
			row[3+ki] = spec.Features.OneHotMACScale
			x[i] = row
			y[i] = b.Values[i]
		}
		t := time.Now()
		dirty, err := inc.Observe(x, y)
		if err != nil {
			return fmt.Errorf("core: observing batch %d: %w", seq, err)
		}
		observeD := time.Since(t)
		dirtyKeys := resolveDirty(dirty, nKeys, false)
		t = time.Now()
		next, cells, err := ras.next(cur, ki, x, dirtyKeys)
		if err != nil {
			return fmt.Errorf("core: batch %d: %w", seq, err)
		}
		refitD := ras.refitTook
		rebuildD := time.Since(t) - refitD
		snap, err := res.Store.Publish(next, len(dirtyKeys))
		if err != nil {
			return err
		}
		o.markStages(observeD, refitD, rebuildD)
		_, shared := snap.BuildStats()
		rep := IngestReport{
			Seq:         seq,
			Version:     snap.Version(),
			Rows:        len(b.Points),
			DirtyKeys:   len(dirtyKeys),
			SharedTiles: shared,
			Replayed:    replayed,
		}
		o.markGeneration("batch", rep.Rows, rep.DirtyKeys, cells, rep.SharedTiles,
			time.Since(batchStart), fmt.Sprintf("seq=%d version=%d replayed=%v", rep.Seq, rep.Version, rep.Replayed))
		if cfg.OnBatch != nil {
			cfg.OnBatch(rep)
		}
		cur = next
		return nil
	}

	seq := uint64(0)
	stopped := func(cause error) (*IngestResult, error) {
		return res, fmt.Errorf("core: ingest stopped after %d batch(es): %w", seq, cause)
	}
	for _, b := range cfg.Replay {
		if err := cfg.Context.Err(); err != nil {
			return stopped(err)
		}
		seq++
		if err := processBatch(b, seq, true); err != nil {
			return res, err
		}
	}
	for {
		b, err := cfg.Queue.Pop(cfg.Context)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, remwal.ErrClosed) {
				return stopped(err)
			}
			return res, err
		}
		seq++
		if err := processBatch(b, seq, false); err != nil {
			return res, err
		}
	}
}

// ingestRaster derives the ingest loop's generations. For the per-MAC
// kNN it keeps, per (key, cell), the cell's k neighbours under that
// key's sub-regressor — as positions among the key's rows, knn.PerKey's
// neighbour sets — and R, the k-th neighbour's squared distance. A row
// observed later for the key enters a cell's set only if its squared
// distance to the centre is strictly below R — it has a higher training
// index than every row already there, so it loses every distance tie —
// and the cell's value depends on nothing else. So a single-key batch
// touches only the cells its rows reach, and each of those takes the
// top k of its old set plus the batch (knn.PerKey.ExtendKeyInto); no
// kd-tree is queried or rebuilt. The snapshot is the one a full-key
// rebuild would publish (rule 7; DESIGN.md).
//
// Every other batch takes the full-key path: Refit first, which folds
// the insert logs the masked batches left into the kd-trees, then
// RebuildKeysRange over the dirty keys.
//
// The sets and bounds are derived state: the bootstrap raster fills them
// from its own predictions, every extended cell and every full-key
// rebuild refreshes them, and nothing serialises them — a restart
// rebuilds them the same way. They belong to the loop goroutine (the
// pool workers of a full-key rebuild write disjoint ranges).
type ingestRaster struct {
	predict rem.BatchPredictFunc // every estimator's full-key path
	refit   func() error         // folds observed rows in before a full-key rebuild
	opts    rem.BuildOptions
	res     [3]int
	stride  int // cells per key
	// pk is the per-MAC kNN the sets describe; nil keeps every batch on
	// the full-key path.
	pk      *knn.PerKey
	k       int         // neighbours per set (pk.Sub.K)
	kth     []float64   // kth[ki*stride+idx] = R of cell idx under key ki
	sets    []int32     // sets[(ki*stride+idx)*k:][:k] = that cell's neighbours
	centres [][]float64 // cell centres (rem.Map.CellCenter) as query rows
	// refitTook is the last derivation's Refit time (zero on the masked
	// path). masked reports whether it took the masked path, and reached
	// the cells it re-predicted (scratch reused across batches).
	refitTook time.Duration
	masked    bool
	reached   []int
	vals      []float64
	sq        []float64
	qs        [][]float64
	set       []int32
}

// newIngestRaster prepares the derivation for est under the pipeline's
// feature encoding (see BatchPredictorFor).
func newIngestRaster(est ml.IncrementalEstimator, dim int, scale float64, res [3]int, opts rem.BuildOptions) *ingestRaster {
	r := &ingestRaster{
		predict: BatchPredictorFor(est, dim, scale),
		refit:   est.Refit,
		opts:    opts,
		res:     res,
		stride:  res[0] * res[1] * res[2],
	}
	// The masked path needs queries that route by key: a one-hot block
	// right after xyz, which is how the rows are encoded below.
	if pk, ok := est.(*knn.PerKey); ok && pk.KeyOffset == 3 && scale != 0 {
		r.pk, r.k = pk, pk.Sub.K
	}
	return r
}

// rangePredict is the full-key predictor. For the per-MAC kNN it answers
// through PredictKeyInto — Predict's bits — and records each cell's set
// and bound.
func (r *ingestRaster) rangePredict(ki, lo int, centers []geom.Vec3) ([]float64, error) {
	if r.pk == nil {
		return r.predict(centers, ki)
	}
	qs := make([][]float64, len(centers))
	flat := make([]float64, 3*len(centers))
	for i, c := range centers {
		q := flat[3*i : 3*i+3]
		q[0], q[1], q[2] = c.X, c.Y, c.Z
		qs[i] = q
	}
	out := make([]float64, len(centers))
	base := ki*r.stride + lo
	sets := r.sets[base*r.k : (base+len(centers))*r.k]
	if err := r.pk.PredictKeyInto(ki, qs, out, r.kth[base:base+len(centers)], sets); err != nil {
		return nil, err
	}
	return out, nil
}

// bootstrap rasterises version 1, filling every set and bound on the way.
func (r *ingestRaster) bootstrap(vol geom.Cuboid, keys []string) (*rem.Map, error) {
	if r.pk != nil {
		r.kth = make([]float64, len(keys)*r.stride)
		r.sets = make([]int32, len(keys)*r.stride*r.k)
	}
	m, err := rem.BuildMapRange(vol, r.res[0], r.res[1], r.res[2], keys, r.rangePredict, r.opts)
	if err != nil || r.pk == nil {
		return m, err
	}
	r.centres = make([][]float64, r.stride)
	for idx := range r.centres {
		c := m.CellCenter(idx)
		r.centres[idx] = []float64{c.X, c.Y, c.Z}
	}
	return m, nil
}

// next derives the generation after a batch of rows x for key ki
// whose Observe dirtied dirty, and reports how many cells it predicted.
// The masked path runs when the batch dirtied exactly its own key and
// reach applies; anything else refits and rebuilds every dirty key in
// full.
func (r *ingestRaster) next(cur *rem.Map, ki int, x [][]float64, dirty []int) (*rem.Map, int, error) {
	r.masked, r.refitTook = false, 0
	if len(dirty) == 1 && dirty[0] == ki {
		if cells, ok := r.reach(ki, x); ok {
			return r.extendCells(cur, ki, len(x), cells)
		}
	}
	t := time.Now()
	if err := r.refit(); err != nil {
		return nil, 0, fmt.Errorf("refitting: %w", err)
	}
	r.refitTook = time.Since(t)
	next, err := cur.RebuildKeysRange(dirty, r.rangePredict, r.opts)
	if err != nil {
		return nil, 0, fmt.Errorf("rasterising: %w", err)
	}
	return next, len(dirty) * r.stride, nil
}

// reach returns key ki's cells some row of the batch can enter the
// neighbour set of: SquaredDistance(centre, row) < R, strictly — equal
// sums give equal distances, and the later row loses that tie. ok is
// false when the bounds do not apply: not the per-MAC kNN, or a cell of
// the key without a finite R (a sub-regressor below k rows, or the
// global fallback). Rows are finite: Observe, which runs first, refuses
// any other (ml.ValidateObserved).
func (r *ingestRaster) reach(ki int, x [][]float64) (cells []int, ok bool) {
	if r.pk == nil {
		return nil, false
	}
	kth := r.kth[ki*r.stride : (ki+1)*r.stride]
	for _, R := range kth {
		if !finite(R) {
			return nil, false
		}
	}
	// box is the batch's bounding box. Its squared gap to a centre is
	// computed in SquaredDistance's operation order, and rounding is
	// monotone, so it never exceeds any row's sum: a cell whose gap is
	// already at its bound is out of every row's reach.
	lo := [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	hi := [3]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	for _, row := range x {
		for i := range lo {
			lo[i], hi[i] = math.Min(lo[i], row[i]), math.Max(hi[i], row[i])
		}
	}
	cells = r.reached[:0]
	for idx, c := range r.centres {
		var gap float64
		for i := range lo {
			var d float64
			if c[i] < lo[i] {
				d = c[i] - lo[i]
			} else if c[i] > hi[i] {
				d = c[i] - hi[i]
			}
			gap += d * d
		}
		if gap >= kth[idx] {
			continue
		}
		for _, row := range x {
			if knn.SquaredDistance(c, row[:3]) < kth[idx] {
				cells = append(cells, idx)
				break
			}
		}
	}
	return cells, true
}

// extendCells advances key ki's sets at cells by the batch's n rows,
// writes the new values into the next generation and refreshes the
// cells' bounds.
func (r *ingestRaster) extendCells(cur *rem.Map, ki, n int, cells []int) (*rem.Map, int, error) {
	m, k := len(cells), r.k
	r.qs, r.vals, r.sq = r.qs[:0], grow(r.vals, m), grow(r.sq, m)
	if cap(r.set) < m*k {
		r.set = make([]int32, m*k)
	}
	r.set = r.set[:m*k]
	for i, idx := range cells {
		r.qs = append(r.qs, r.centres[idx])
		base := (ki*r.stride + idx) * k
		copy(r.set[i*k:(i+1)*k], r.sets[base:base+k])
	}
	if err := r.pk.ExtendKeyInto(ki, n, r.qs, r.set, r.vals, r.sq); err != nil {
		return nil, 0, fmt.Errorf("rasterising: %w", err)
	}
	next, err := cur.WithCells(ki, cells, r.vals)
	if err != nil {
		return nil, 0, fmt.Errorf("rasterising: %w", err)
	}
	for i, idx := range cells {
		r.kth[ki*r.stride+idx] = r.sq[i]
		base := (ki*r.stride + idx) * k
		copy(r.sets[base:base+k], r.set[i*k:(i+1)*k])
	}
	r.masked, r.reached = true, cells
	return next, m, nil
}

// grow returns s resized to n, reallocating only when it is too small.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
