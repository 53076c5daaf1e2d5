package knn

import (
	"math"
	"testing"

	"repro/internal/ml"
	"repro/internal/simrand"
)

func knnStream(nKeys, n int, scale float64, rng *simrand.Source) ([][]float64, []float64) {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, 3+nKeys)
		row[0], row[1], row[2] = rng.Range(0, 4), rng.Range(0, 3), rng.Range(0, 2.6)
		row[3+rng.Intn(nKeys)] = scale
		x[i] = row
		y[i] = -60 - 8*math.Hypot(row[0]-2, row[1]-1.5) + rng.Gauss(0, 2)
	}
	return x, y
}

// predictAllBits fails the test at the first bitwise prediction mismatch.
func predictAllBits(t *testing.T, label string, a, b ml.Estimator, queries [][]float64) {
	t.Helper()
	for i, q := range queries {
		va, err := a.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		vb, err := b.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(va) != math.Float64bits(vb) {
			t.Fatalf("%s: query %d: %x ≠ %x", label, i, va, vb)
		}
	}
}

// TestRegressorIncrementalIdentity is rule 7 for the shared-feature-space
// kNN: with the insert log still unmerged and after an explicit Refit,
// predictions are byte-identical to a fresh regressor fitted on the
// cumulative rows — for both the scaled one-hot and a non-Euclidean
// (scan-only) configuration.
func TestRegressorIncrementalIdentity(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"scaled-kdtree", PaperScaledConfig()},
		{"plain-kdtree", PaperPlainConfig()},
		{"minkowski-scan", Config{K: 4, Weights: Uniform, MinkowskiP: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := simrand.New(555)
			const nKeys = 5
			x, y := knnStream(nKeys, 260, 3, rng)
			queries, _ := knnStream(nKeys, 64, 3, rng)
			inc, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := inc.Fit(x[:120], y[:120]); err != nil {
				t.Fatal(err)
			}
			cuts := []int{120, 150, 210, 260}
			for c := 1; c < len(cuts); c++ {
				dirty, err := inc.Observe(x[cuts[c-1]:cuts[c]], y[cuts[c-1]:cuts[c]])
				if err != nil {
					t.Fatal(err)
				}
				if len(dirty) != 1 || dirty[0] != ml.DirtyAll {
					t.Fatalf("dirty = %v, want [DirtyAll]", dirty)
				}
				fresh, err := New(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := fresh.Fit(x[:cuts[c]], y[:cuts[c]]); err != nil {
					t.Fatal(err)
				}
				predictAllBits(t, "pre-refit", inc, fresh, queries)
				if err := inc.Refit(); err != nil {
					t.Fatal(err)
				}
				predictAllBits(t, "post-refit", inc, fresh, queries)
			}
			if inc.indexed != 260 {
				t.Fatalf("after final refit, indexed = %d, want 260", inc.indexed)
			}
		})
	}
}

// TestMergeRebuildsOnlyDirtySubtrees: a Refit merging the insert log
// rebuilds the per-MAC subtrees that gained rows and leaves every other
// subtree's structure untouched (pointer-identical) — the cheap per-key
// merge the log is buffered for.
func TestMergeRebuildsOnlyDirtySubtrees(t *testing.T) {
	const nKeys = 4
	mk := func(key int, xv float64) []float64 {
		row := make([]float64, 3+nKeys)
		row[0] = xv
		row[3+key] = 1
		return row
	}
	var x [][]float64
	var y []float64
	for k := 0; k < nKeys; k++ {
		for i := 0; i < 4; i++ {
			x = append(x, mk(k, float64(i)))
			y = append(y, -50-float64(i))
		}
	}
	cfg := PaperPlainConfig()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	before := map[int]*kdTree{}
	for h, tr := range r.index.byKey {
		before[h] = tr
	}
	if _, err := r.Observe([][]float64{mk(2, 9), mk(2, 10)}, []float64{-60, -61}); err != nil {
		t.Fatal(err)
	}
	if err := r.Refit(); err != nil {
		t.Fatal(err)
	}
	if r.indexed != len(r.x) {
		t.Fatalf("merge did not run: indexed = %d of %d", r.indexed, len(r.x))
	}
	for h, tr := range before {
		got := r.index.byKey[h]
		if h == 2 {
			if got == tr {
				t.Fatal("dirty subtree not rebuilt")
			}
			continue
		}
		if got != tr {
			t.Fatalf("clean subtree %d rebuilt by the merge", h)
		}
	}
	// A row that breaks the one-hot layout degrades to a full rebuild —
	// and predictions still match a from-scratch fit (the index becomes
	// a full-dimension tree on both paths).
	odd := mk(1, 3)
	odd[3+1] = 2 // different scale
	if _, err := r.Observe([][]float64{odd, mk(0, 4)}, []float64{-70, -55}); err != nil {
		t.Fatal(err)
	}
	if err := r.Refit(); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Fit(r.x, r.y); err != nil {
		t.Fatal(err)
	}
	queries := [][]float64{mk(0, 2.5), mk(1, 3.5), mk(2, 9.5), mk(3, 1.5)}
	predictAllBits(t, "degraded-layout", r, fresh, queries)
}

// fallbackQueries derives, from one-hot queries, the rows only the
// global fallback answers: each with its one-hot block cleared, and each
// with a second hot key beside its own.
func fallbackQueries(queries [][]float64, offset int) [][]float64 {
	var out [][]float64
	for _, q := range queries {
		none := append([]float64(nil), q...)
		two := append([]float64(nil), q...)
		for i := offset; i < len(q); i++ {
			none[i] = 0
		}
		hot := hotIndex(q, offset)
		two[offset+(hot+1)%(len(q)-offset)] = q[offset+hot]
		out = append(out, none, two)
	}
	return out
}

// perKeyStep observes one batch and refits, checking bit-identity with a
// fresh fit on the cumulative rows both before and after the refit, for
// one-hot queries and for queries that reach the global fallback.
func perKeyStep(t *testing.T, inc *PerKey, x [][]float64, y []float64, from, to int, queries [][]float64) {
	t.Helper()
	if _, err := inc.Observe(x[from:to], y[from:to]); err != nil {
		t.Fatal(err)
	}
	fresh := &PerKey{Sub: inc.Sub, KeyOffset: inc.KeyOffset}
	if err := fresh.Fit(x[:to], y[:to]); err != nil {
		t.Fatal(err)
	}
	fallback := fallbackQueries(queries, inc.KeyOffset)
	predictAllBits(t, "per-key pre-refit", inc, fresh, queries)
	predictAllBits(t, "fallback pre-refit", inc, fresh, fallback)
	if err := inc.Refit(); err != nil {
		t.Fatal(err)
	}
	predictAllBits(t, "per-key", inc, fresh, queries)
	predictAllBits(t, "fallback", inc, fresh, fallback)
	if len(inc.global.x) != to {
		t.Fatalf("global fallback holds %d rows, want %d", len(inc.global.x), to)
	}
}

// TestPerKeyIncrementalIdentity is rule 7 for the per-MAC ensemble, the
// estimator with tight dirty sets — including the queries with no hot
// key or two hot keys that only the global fallback answers, whose
// insert log stays unmerged once every key has a sub-regressor.
func TestPerKeyIncrementalIdentity(t *testing.T) {
	rng := simrand.New(777)
	const nKeys = 4
	x, y := knnStream(nKeys, 200, 1, rng)
	queries, _ := knnStream(nKeys, 48, 1, rng)
	inc := &PerKey{Sub: PaperPlainConfig(), KeyOffset: 3}
	if err := inc.Fit(x[:100], y[:100]); err != nil {
		t.Fatal(err)
	}
	if !inc.covered() {
		t.Fatal("the first fit should give every key a sub-regressor")
	}
	for _, cut := range [][2]int{{100, 140}, {140, 200}} {
		perKeyStep(t, inc, x, y, cut[0], cut[1], queries)
		if inc.global.indexed != 100 {
			t.Fatalf("covered vocabulary: fallback merged to %d rows, want the fitted 100", inc.global.indexed)
		}
	}
}

// TestPerKeyFallbackMergesWhileKeyMissing: while a key has no
// sub-regressor it predicts through the global fallback, so Refit keeps
// that fallback merged; the batch that brings the last key in leaves it
// unmerged from then on. Bits match a fresh fit at every step.
func TestPerKeyFallbackMergesWhileKeyMissing(t *testing.T) {
	rng := simrand.New(4242)
	const nKeys, missing = 4, 3
	x, y := knnStream(nKeys, 260, 1, rng)
	// Key 3 is absent from the first 180 rows, so the first fit and the
	// next two batches never see it.
	for _, row := range x[:180] {
		if row[3+missing] != 0 {
			row[3+missing], row[3] = 0, 1
		}
	}
	queries, _ := knnStream(nKeys, 48, 1, rng)
	inc := &PerKey{Sub: PaperPlainConfig(), KeyOffset: 3}
	if err := inc.Fit(x[:80], y[:80]); err != nil {
		t.Fatal(err)
	}
	if inc.covered() {
		t.Fatal("key 3 should lack a sub-regressor after the first fit")
	}
	cuts := []int{80, 130, 180, 220, 260}
	for c := 1; c < len(cuts); c++ {
		perKeyStep(t, inc, x, y, cuts[c-1], cuts[c], queries)
		g := inc.global
		if !inc.covered() {
			if g.indexed != len(g.x) {
				t.Fatalf("rows %d: key %d missing, fallback left %d of %d rows unmerged", cuts[c], missing, len(g.x)-g.indexed, len(g.x))
			}
			continue
		}
		if g.indexed == len(g.x) {
			t.Fatalf("rows %d: every key covered, fallback still merged", cuts[c])
		}
	}
	if !inc.covered() {
		t.Fatal("the last batches should bring key 3 in")
	}
}

// TestPerKeyDirtySet: a delta touching one key dirties that key alone once
// every key has its own sub-regressor, and new keys spawn sub-regressors.
func TestPerKeyDirtySet(t *testing.T) {
	const nKeys = 4
	mk := func(key int, xv float64) ([]float64, float64) {
		row := make([]float64, 3+nKeys)
		row[0] = xv
		row[3+key] = 1
		return row, -50 - xv
	}
	var xs [][]float64
	var ys []float64
	for k := 0; k < 3; k++ { // keys 0..2 fitted; key 3 unseen
		for i := 0; i < 3; i++ {
			x, y := mk(k, float64(i))
			xs = append(xs, x)
			ys = append(ys, y)
		}
	}
	p := &PerKey{Sub: PaperPlainConfig(), KeyOffset: 3}
	if err := p.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	x0, y0 := mk(0, 9)
	dirty, err := p.Observe([][]float64{x0}, []float64{y0})
	if err != nil {
		t.Fatal(err)
	}
	// Key 3 still predicts through the global fallback, which moved.
	if want := []int{0, 3}; len(dirty) != 2 || dirty[0] != want[0] || dirty[1] != want[1] {
		t.Fatalf("dirty = %v, want %v", dirty, want)
	}
	x3, y3 := mk(3, 1)
	dirty, err = p.Observe([][]float64{x3}, []float64{y3})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirty) != 1 || dirty[0] != 3 {
		t.Fatalf("dirty = %v, want [3]", dirty)
	}
	if p.subs[3] == nil {
		t.Fatal("no sub-regressor spawned for the new key")
	}
	x0b, y0b := mk(0, 5)
	dirty, err = p.Observe([][]float64{x0b}, []float64{y0b})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirty) != 1 || dirty[0] != 0 {
		t.Fatalf("dirty with full coverage = %v, want [0]", dirty)
	}
}
