package knn

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/ml"
)

// PerKey is the paper's "kNN estimator per MAC address": one xyz-only
// Regressor per one-hot key, each trained only on that key's samples. The
// feature layout is x, y, z followed by a one-hot block at KeyOffset; the
// one-hot block is used solely for routing, and each sub-regressor sees only
// the coordinates.
//
// PerKey is the incremental estimator with *tight* dirty sets: a new
// sample routes to exactly one sub-regressor, so Observe dirties only the
// batch's keys (plus the keys still served by the global fallback, which
// every sample moves). That locality is what makes incremental REM
// rebuilds proportional to the delta.
//
// The global fallback answers keys without a sub-regressor and queries
// with no (or several) hot keys. While some key still lacks a
// sub-regressor Refit merges it like any Regressor; once every key in
// the one-hot block has one, Refit leaves its insert log unmerged, so a
// batch costs work proportional to the batch rather than a rebuild of an
// index over the whole history. Observe only ever appends to the logs,
// so a caller that answers from stored neighbour sets (ExtendKeyInto)
// can defer every kd rebuild until a full-key query path needs one.
// Queries scan the logs beside the indexes and get the same bits either
// way.
type PerKey struct {
	// Sub configures every per-key regressor (the paper keeps the tuned
	// plain-kNN hyper-parameters).
	Sub Config
	// KeyOffset is where the one-hot block starts (3 for xyz + MAC).
	KeyOffset int

	fitted bool
	dim    int // fitted feature dimension
	width  int // one-hot block width (the key universe size)
	subs   map[int]*Regressor
	global *Regressor
}

var (
	_ ml.Estimator            = (*PerKey)(nil)
	_ ml.Named                = (*PerKey)(nil)
	_ ml.BatchPredictor       = (*PerKey)(nil)
	_ ml.IncrementalEstimator = (*PerKey)(nil)
)

// Name implements ml.Named.
func (p *PerKey) Name() string {
	return fmt.Sprintf("per-MAC kNN (k=%d, %s)", p.Sub.K, p.Sub.Weights)
}

// Fit implements ml.Estimator.
func (p *PerKey) Fit(x [][]float64, y []float64) error {
	if err := ml.ValidateTrainingData(x, y); err != nil {
		return err
	}
	if err := p.Sub.Validate(); err != nil {
		return err
	}
	if p.KeyOffset < 3 || p.KeyOffset > len(x[0]) {
		return fmt.Errorf("knn: per-key offset %d invalid for feature dim %d", p.KeyOffset, len(x[0]))
	}
	groupsX, groupsY, allXYZ, err := groupByKey(x, y, p.KeyOffset)
	if err != nil {
		return err
	}
	p.subs = make(map[int]*Regressor, len(groupsX))
	for key, gx := range groupsX {
		sub, err := New(p.Sub)
		if err != nil {
			return err
		}
		if err := sub.Fit(gx, groupsY[key]); err != nil {
			return fmt.Errorf("knn: fitting key %d: %w", key, err)
		}
		p.subs[key] = sub
	}
	// Fallback for unseen keys: a regressor over all samples.
	global, err := New(p.Sub)
	if err != nil {
		return err
	}
	if err := global.Fit(allXYZ, y); err != nil {
		return err
	}
	p.global = global
	p.dim = len(x[0])
	p.width = p.dim - p.KeyOffset
	p.fitted = true
	return nil
}

// Observe implements ml.IncrementalEstimator: each row routes to its
// key's sub-regressor (created on first sight) and to the global
// fallback. The dirty set is the batch's keys plus every key that still
// lacks a sub-regressor — those predict through the global fallback,
// which any new sample moves. Existing regressors only log the rows;
// Refit merges them. Not safe concurrently with queries.
func (p *PerKey) Observe(x [][]float64, y []float64) ([]int, error) {
	if !p.fitted {
		return nil, ml.ErrNotFitted
	}
	if err := ml.ValidateObserved(x, y, p.dim); err != nil {
		return nil, err
	}
	if len(x) == 0 {
		return nil, nil
	}
	groupsX, groupsY, allXYZ, err := groupByKey(x, y, p.KeyOffset)
	if err != nil {
		return nil, err
	}
	dirty := map[int]bool{}
	for key, gx := range groupsX {
		dirty[key] = true
		if sub, ok := p.subs[key]; ok {
			sub.appendLog(gx, groupsY[key])
			continue
		}
		sub, err := New(p.Sub)
		if err != nil {
			return nil, err
		}
		if err := sub.Fit(gx, groupsY[key]); err != nil {
			return nil, fmt.Errorf("knn: fitting new key %d: %w", key, err)
		}
		p.subs[key] = sub
	}
	p.global.appendLog(allXYZ, y)
	for k := 0; k < p.width; k++ {
		if _, ok := p.subs[k]; !ok {
			dirty[k] = true
		}
	}
	out := make([]int, 0, len(dirty))
	for k := range dirty {
		out = append(out, k)
	}
	sort.Ints(out)
	return out, nil
}

// Refit implements ml.IncrementalEstimator: every sub-regressor merges
// its insert log, and so does the global fallback while some key still
// predicts through it.
func (p *PerKey) Refit() error {
	if !p.fitted {
		return ml.ErrNotFitted
	}
	for _, sub := range p.subs {
		if err := sub.Refit(); err != nil {
			return err
		}
	}
	if p.covered() {
		return nil
	}
	return p.global.Refit()
}

// covered reports whether every key of the one-hot block has its own
// sub-regressor, leaving the global fallback to key-less queries only.
func (p *PerKey) covered() bool { return len(p.subs) == p.width }

// Predict implements ml.Estimator.
func (p *PerKey) Predict(q []float64) (float64, error) {
	if !p.fitted {
		return 0, ml.ErrNotFitted
	}
	r, err := p.route(q)
	if err != nil {
		return 0, err
	}
	return r.Predict(q[:3])
}

// route picks the regressor that answers q: its hot key's sub-regressor,
// or the global fallback for an unsurveyed key and for rows with no or
// several hot keys.
func (p *PerKey) route(q []float64) (*Regressor, error) {
	if len(q) < p.KeyOffset {
		return nil, fmt.Errorf("knn: query dim %d below key offset %d", len(q), p.KeyOffset)
	}
	return p.keyRegressor(hotIndex(q, p.KeyOffset)), nil
}

// keyRegressor is the regressor answering one-hot key (-1: none hot).
func (p *PerKey) keyRegressor(key int) *Regressor {
	if sub, ok := p.subs[key]; key >= 0 && ok {
		return sub
	}
	return p.global
}

// PredictBatch implements ml.BatchPredictor: each row is routed as
// Predict routes it and answered with Predict's bits, through one
// neighbour buffer for the whole batch.
func (p *PerKey) PredictBatch(x [][]float64) ([]float64, error) {
	if !p.fitted {
		return nil, ml.ErrNotFitted
	}
	out := make([]float64, len(x))
	nb := newNearest(p.Sub.K)
	for i, q := range x {
		r, err := p.route(q)
		if err == nil {
			nb.k = r.effectiveK()
			out[i], err = r.predictInto(q[:3], nb)
		}
		if err != nil {
			return nil, fmt.Errorf("knn: predicting row %d: %w", i, err)
		}
	}
	return out, nil
}

// PredictKeyInto answers xyz queries under one-hot key: out[i] receives
// the bits Predict returns for qs[i] with that key hot. kthSq[i]
// receives the squared distance of the answer's k-th neighbour — the sum
// SquaredDistance computes — which is the reach bound of the answer: a
// row observed later for key changes out[i] only if its SquaredDistance
// to qs[i] is strictly below kthSq[i]. It is +Inf where no such bound
// holds: the global fallback answers the key, the key's regressor holds
// fewer than K rows, or the metric is not Euclidean. When sets is not
// nil it receives, K entries per query, the answer's neighbours as
// positions among key's rows in arrival order (canonical order; -1
// where kthSq is +Inf) — the state ExtendKeyInto resumes from. One
// neighbour buffer serves the whole call.
func (p *PerKey) PredictKeyInto(key int, qs [][]float64, out, kthSq []float64, sets []int32) error {
	if !p.fitted {
		return ml.ErrNotFitted
	}
	if len(out) != len(qs) || len(kthSq) != len(qs) || (sets != nil && len(sets) != len(qs)*p.Sub.K) {
		return fmt.Errorf("knn: %d queries but %d outputs, %d bounds and %d set entries", len(qs), len(out), len(kthSq), len(sets))
	}
	r := p.keyRegressor(key)
	bounded := r != p.global && r.cfg.MinkowskiP == 2 && len(r.x) >= r.cfg.K
	nb := newNearest(r.effectiveK())
	for i, q := range qs {
		v, err := r.predictInto(q, nb)
		if err != nil {
			return fmt.Errorf("knn: predicting key %d query %d: %w", key, i, err)
		}
		out[i] = v
		kthSq[i] = math.Inf(1)
		if bounded {
			kthSq[i] = nb.worstSq()
		}
		if sets != nil {
			set := sets[i*p.Sub.K : (i+1)*p.Sub.K]
			for j := range set {
				set[j] = -1
				if bounded {
					set[j] = int32(nb.nbrs[j].idx)
				}
			}
		}
	}
	return nil
}

// ExtendKeyInto advances neighbour sets that PredictKeyInto (or an
// earlier ExtendKeyInto) reported for key, after Observe appended key's
// fresh newest rows. sets holds K positions per query and is updated in
// place; out and kthSq receive what PredictKeyInto would now report.
//
// Rows are only appended, and a later row loses every distance tie to
// an earlier one, so a row outside a query's k nearest stays outside for
// good: the new set is the canonical top K of the old set plus the fresh
// rows. Each member's distance is recomputed from its row, so the bits
// are Predict's whether or not the insert logs have been merged. Every
// queried set must be bounded (a finite kthSq when reported).
func (p *PerKey) ExtendKeyInto(key, fresh int, qs [][]float64, sets []int32, out, kthSq []float64) error {
	if !p.fitted {
		return ml.ErrNotFitted
	}
	k := p.Sub.K
	if len(out) != len(qs) || len(kthSq) != len(qs) || len(sets) != len(qs)*k {
		return fmt.Errorf("knn: %d queries but %d outputs, %d bounds and %d set entries", len(qs), len(out), len(kthSq), len(sets))
	}
	r, ok := p.subs[key]
	if !ok || r.cfg.MinkowskiP != 2 || len(r.x) < k || fresh < 0 || fresh > len(r.x) {
		return fmt.Errorf("knn: key %d has no bounded neighbour sets to extend by %d rows", key, fresh)
	}
	nb := newNearest(k)
	from := len(r.x) - fresh
	for i, q := range qs {
		nb.reset()
		set := sets[i*k : (i+1)*k]
		for _, pos := range set {
			if pos < 0 || int(pos) >= from {
				return fmt.Errorf("knn: key %d query %d: stored neighbour %d outside the %d rows before the batch", key, i, pos, from)
			}
			d, sq := euclid(q, r.x[pos])
			nb.consider(int(pos), d, sq)
		}
		for j := from; j < len(r.x); j++ {
			d, sq := euclid(q, r.x[j])
			nb.consider(j, d, sq)
		}
		out[i] = r.aggregate(nb.nbrs)
		kthSq[i] = nb.worstSq()
		for j, n := range nb.nbrs {
			set[j] = int32(n.idx)
		}
	}
	return nil
}

// SquaredDistance is the Euclidean neighbour ranking's own pre-sqrt sum
// of squared differences between a and b, accumulated in the same
// operation order, so it can be compared bit-for-bit with the bounds
// PredictKeyInto reports.
func SquaredDistance(a, b []float64) float64 {
	_, sq := euclid(a, b)
	return sq
}

// groupByKey routes rows into per-key xyz groups (the one-hot block used
// solely for routing) plus the flat xyz list the global fallback trains
// on. Both Fit and Observe group through it, so the layout contract has
// exactly one owner; rows are validated upfront, before anything is
// built.
func groupByKey(x [][]float64, y []float64, offset int) (groupsX map[int][][]float64, groupsY map[int][]float64, allXYZ [][]float64, err error) {
	keys := make([]int, len(x))
	for i, row := range x {
		key := hotIndex(row, offset)
		if key < 0 {
			return nil, nil, nil, fmt.Errorf("knn: row %d has no hot key", i)
		}
		keys[i] = key
	}
	groupsX = map[int][][]float64{}
	groupsY = map[int][]float64{}
	allXYZ = make([][]float64, len(x))
	for i, row := range x {
		xyz := append([]float64(nil), row[:3]...)
		groupsX[keys[i]] = append(groupsX[keys[i]], xyz)
		groupsY[keys[i]] = append(groupsY[keys[i]], y[i])
		allXYZ[i] = xyz
	}
	return groupsX, groupsY, allXYZ, nil
}

// hotIndex returns the index of the single non-zero entry at or after
// offset, or -1 if there is none or several.
func hotIndex(row []float64, offset int) int {
	hot := -1
	for i := offset; i < len(row); i++ {
		if row[i] != 0 {
			if hot >= 0 {
				return -1
			}
			hot = i - offset
		}
	}
	return hot
}
