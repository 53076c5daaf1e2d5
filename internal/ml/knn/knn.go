// Package knn implements the k-nearest-neighbour regressors of the paper's
// §III-B: a Minkowski-metric kNN with uniform or distance weighting over
// x/y/z + one-hot-MAC features (including the scaled-one-hot variant that
// wins Figure 8), and the per-MAC ensemble alternative that fits one
// xyz-only regressor per MAC address.
//
// Euclidean (p=2) queries are served by a KD-tree spatial index with
// per-key subtrees for the one-hot-MAC layout (see kdtree.go); other
// metrics use the original brute-force scan. Both backends rank neighbours
// by the same canonical (distance, training-index) order, so predictions
// are byte-identical whichever one answers. Predict and PredictBatch are
// safe for concurrent use once Fit has returned.
package knn

import (
	"fmt"
	"math"

	"repro/internal/ml"
)

// Weighting selects how neighbours are combined.
type Weighting int

// Weighting schemes, mirroring scikit-learn's `weights` parameter.
const (
	// Uniform averages the k neighbours equally.
	Uniform Weighting = iota + 1
	// Distance weights each neighbour by 1/distance ("weights=distance",
	// the paper's tuned choice).
	Distance
)

// String implements fmt.Stringer.
func (w Weighting) String() string {
	switch w {
	case Uniform:
		return "uniform"
	case Distance:
		return "distance"
	default:
		return fmt.Sprintf("Weighting(%d)", int(w))
	}
}

// Config parameterises a Regressor.
type Config struct {
	// K is the neighbour count (paper: 3 for the plain variant, 16 for the
	// scaled-one-hot variant).
	K int
	// Weights selects uniform or inverse-distance combination.
	Weights Weighting
	// MinkowskiP is the metric order; p=2 with metric=minkowski is the
	// Euclidean distance the paper's grid search selects.
	MinkowskiP float64
	// BruteForce disables the KD-tree index and forces the O(n) scan even
	// for p=2. Predictions are identical either way; the flag exists to
	// benchmark the index against its baseline.
	BruteForce bool
}

// PaperPlainConfig is the paper's tuned plain kNN: k=3, distance weights,
// Euclidean metric.
func PaperPlainConfig() Config {
	return Config{K: 3, Weights: Distance, MinkowskiP: 2}
}

// PaperScaledConfig is the paper's best estimator configuration: the one-hot
// MAC features are multiplied by 3 (done at feature-encoding time) and k=16.
func PaperScaledConfig() Config {
	return Config{K: 16, Weights: Distance, MinkowskiP: 2}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.K < 1 {
		return fmt.Errorf("knn: k must be ≥1, got %d", c.K)
	}
	if c.Weights != Uniform && c.Weights != Distance {
		return fmt.Errorf("knn: invalid weighting %d", c.Weights)
	}
	if c.MinkowskiP <= 0 {
		return fmt.Errorf("knn: Minkowski p must be positive, got %g", c.MinkowskiP)
	}
	return nil
}

// Regressor is a kNN regressor. Fit stores the training set and, for the
// Euclidean metric, builds the KD-tree index; Predict queries it.
//
// Regressor is incremental: Observe appends new samples to an insert log
// that queries scan alongside the index (canonical neighbour ordering
// makes the two paths merge byte-identically), and Refit folds the log
// into the KD-forest. Observe and Refit must not run concurrently with
// queries.
type Regressor struct {
	cfg Config
	x   [][]float64
	y   []float64
	// index covers x[:indexed]; rows at and beyond indexed are the insert
	// log, scanned linearly by every query until the next merge.
	index   *kdIndex
	indexed int
}

var (
	_ ml.Estimator            = (*Regressor)(nil)
	_ ml.Named                = (*Regressor)(nil)
	_ ml.BatchPredictor       = (*Regressor)(nil)
	_ ml.IncrementalEstimator = (*Regressor)(nil)
)

// New builds a regressor with the given configuration.
func New(cfg Config) (*Regressor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Regressor{cfg: cfg}, nil
}

// Name implements ml.Named.
func (r *Regressor) Name() string {
	return fmt.Sprintf("kNN (k=%d, %s, p=%g)", r.cfg.K, r.cfg.Weights, r.cfg.MinkowskiP)
}

// Fit implements ml.Estimator. The training data is copied.
func (r *Regressor) Fit(x [][]float64, y []float64) error {
	if err := ml.ValidateTrainingData(x, y); err != nil {
		return err
	}
	r.x = make([][]float64, len(x))
	for i, row := range x {
		r.x[i] = append([]float64(nil), row...)
	}
	r.y = append([]float64(nil), y...)
	r.index = nil
	r.indexed = 0
	r.merge()
	return nil
}

// Observe implements ml.IncrementalEstimator: the batch lands in the
// insert log, immediately visible to queries; Refit merges it into the
// index. A single shared-feature-space kNN has cross-key reach — a new
// sample under one hot key can enter the neighbour set of queries under
// any other key, because the one-hot offset is a constant distance
// penalty, not a wall — so the whole vocabulary is reported dirty. The
// per-key ensemble (PerKey) is the variant with tight dirty sets.
func (r *Regressor) Observe(x [][]float64, y []float64) ([]int, error) {
	if r.x == nil {
		return nil, ml.ErrNotFitted
	}
	if err := ml.ValidateObserved(x, y, len(r.x[0])); err != nil {
		return nil, err
	}
	if len(x) == 0 {
		return nil, nil
	}
	rows := make([][]float64, len(x))
	for i, row := range x {
		rows[i] = append([]float64(nil), row...)
	}
	r.appendLog(rows, y)
	return []int{ml.DirtyAll}, nil
}

// appendLog adopts validated rows onto the insert log — the caller hands
// over rows nothing else mutates — without merging; queries scan them
// beside the index until the next Refit.
func (r *Regressor) appendLog(x [][]float64, y []float64) {
	r.x = append(r.x, x...)
	r.y = append(r.y, y...)
}

// Refit implements ml.IncrementalEstimator: any logged rows merge into
// the index. Queries return the same bits before and after.
func (r *Regressor) Refit() error {
	if r.x == nil {
		return ml.ErrNotFitted
	}
	if r.indexed < len(r.x) {
		r.merge()
	}
	return nil
}

// merge folds the insert log into the index, emptying it. When the
// logged rows fit the index's per-MAC layout, only the subtrees whose
// keys gained members are rebuilt (the cheap per-key merge); a layout
// change — or the full-dimension fallback tree — falls back to a
// from-scratch index build. Queries return the same bits either way.
func (r *Regressor) merge() {
	if r.cfg.MinkowskiP != 2 || r.cfg.BruteForce {
		r.index = nil
		r.indexed = len(r.x)
		return
	}
	if r.index != nil && r.index.addRows(r.x, r.indexed) {
		r.indexed = len(r.x)
		return
	}
	r.index = buildIndex(r.x)
	r.indexed = len(r.x)
}

// distance computes the Minkowski distance of order p and, for p=2, the
// pre-sqrt squared distance used as the KD-tree pruning bound.
func (r *Regressor) distance(a, b []float64) (float64, float64) {
	p := r.cfg.MinkowskiP
	if p == 2 {
		return euclid(a, b)
	}
	var sum float64
	for i := range a {
		sum += math.Pow(math.Abs(a[i]-b[i]), p)
	}
	d := math.Pow(sum, 1/p)
	return d, d * d
}

// gather fills nb with the k nearest training points in canonical
// (dist, idx) order, via the index when one applies. Rows in the insert
// log (past indexed) are scanned linearly either way; consider keeps the
// canonical ordering regardless of offer order, so indexed and logged
// candidates merge byte-identically to a full scan.
func (r *Regressor) gather(q []float64, nb *nearest) {
	if r.index != nil && r.index.search(q, nb) {
		for i := r.indexed; i < len(r.x); i++ {
			d, sq := r.distance(q, r.x[i])
			nb.consider(i, d, sq)
		}
		return
	}
	for i, row := range r.x {
		d, sq := r.distance(q, row)
		nb.consider(i, d, sq)
	}
}

// aggregate combines the gathered neighbours under the configured
// weighting.
func (r *Regressor) aggregate(nbrs []neighbour) float64 {
	switch r.cfg.Weights {
	case Uniform:
		var sum float64
		for _, n := range nbrs {
			sum += r.y[n.idx]
		}
		return sum / float64(len(nbrs))
	default: // Distance
		// An exact match dominates: return the mean of zero-distance
		// neighbours (scikit-learn behaviour).
		var exactSum float64
		exact := 0
		for _, n := range nbrs {
			if n.dist == 0 {
				exactSum += r.y[n.idx]
				exact++
			}
		}
		if exact > 0 {
			return exactSum / float64(exact)
		}
		var wSum, sum float64
		for _, n := range nbrs {
			w := 1 / n.dist
			wSum += w
			sum += w * r.y[n.idx]
		}
		return sum / wSum
	}
}

// predictInto answers one query reusing the caller's candidate buffer.
func (r *Regressor) predictInto(q []float64, nb *nearest) (float64, error) {
	if r.x == nil {
		return 0, ml.ErrNotFitted
	}
	if len(q) != len(r.x[0]) {
		return 0, fmt.Errorf("knn: query dim %d, want %d", len(q), len(r.x[0]))
	}
	nb.reset()
	r.gather(q, nb)
	return r.aggregate(nb.nbrs), nil
}

// effectiveK clamps K to the training-set size.
func (r *Regressor) effectiveK() int {
	k := r.cfg.K
	if k > len(r.x) {
		k = len(r.x)
	}
	return k
}

// Predict implements ml.Estimator.
func (r *Regressor) Predict(q []float64) (float64, error) {
	if r.x == nil {
		return 0, ml.ErrNotFitted
	}
	return r.predictInto(q, newNearest(r.effectiveK()))
}

// PredictBatch implements ml.BatchPredictor: one candidate buffer is
// reused across the whole batch, amortising per-query allocation on the
// REM rasterisation path.
func (r *Regressor) PredictBatch(x [][]float64) ([]float64, error) {
	if r.x == nil {
		return nil, ml.ErrNotFitted
	}
	out := make([]float64, len(x))
	nb := newNearest(r.effectiveK())
	for i, q := range x {
		v, err := r.predictInto(q, nb)
		if err != nil {
			return nil, fmt.Errorf("knn: predicting row %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}
