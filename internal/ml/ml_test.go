package ml

import (
	"errors"
	"math"
	"testing"

	"repro/internal/simrand"
)

// constEstimator predicts a fixed value; linEstimator fits nothing but
// echoes the first feature. Both are test doubles.
type constEstimator struct {
	v      float64
	fitted bool
}

func (c *constEstimator) Fit(x [][]float64, y []float64) error {
	if err := ValidateTrainingData(x, y); err != nil {
		return err
	}
	c.fitted = true
	return nil
}
func (c *constEstimator) Predict(_ []float64) (float64, error) {
	if !c.fitted {
		return 0, ErrNotFitted
	}
	return c.v, nil
}

func TestValidateTrainingData(t *testing.T) {
	good := [][]float64{{1, 2}, {3, 4}}
	if err := ValidateTrainingData(good, []float64{1, 2}); err != nil {
		t.Errorf("valid data rejected: %v", err)
	}
	if err := ValidateTrainingData(nil, nil); err == nil {
		t.Error("empty data accepted")
	}
	if err := ValidateTrainingData(good, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := ValidateTrainingData([][]float64{{1, 2}, {3}}, []float64{1, 2}); err == nil {
		t.Error("ragged features accepted")
	}
	if err := ValidateTrainingData([][]float64{{}}, []float64{1}); err == nil {
		t.Error("zero-dim features accepted")
	}
}

// TestValidatorsRejectNonFinite: both validators refuse a NaN or ±Inf
// feature or target, so no estimator's Fit or Observe ranks or averages
// a non-finite row.
func TestValidatorsRejectNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for j := 0; j < 3; j++ {
			x := [][]float64{{1, 2}, {3, 4}}
			y := []float64{1, 2}
			if j < 2 {
				x[1][j] = v
			} else {
				y[1] = v
			}
			if err := ValidateTrainingData(x, y); err == nil {
				t.Errorf("ValidateTrainingData accepted %v at position %d", v, j)
			}
			if err := ValidateObserved(x, y, 2); err == nil {
				t.Errorf("ValidateObserved accepted %v at position %d", v, j)
			}
		}
	}
}

func TestRMSEKnownValues(t *testing.T) {
	got, err := RMSE([]float64{1, 2, 3}, []float64{1, 2, 3})
	if err != nil || got != 0 {
		t.Errorf("perfect RMSE = %v, %v", got, err)
	}
	got, err = RMSE([]float64{2, 2}, []float64{0, 0})
	if err != nil || got != 2 {
		t.Errorf("RMSE = %v, want 2", got)
	}
	got, err = RMSE([]float64{3, 0}, []float64{0, 0})
	if err != nil || math.Abs(got-3/math.Sqrt2) > 1e-12 {
		t.Errorf("RMSE = %v, want %v", got, 3/math.Sqrt2)
	}
	if _, err := RMSE([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := RMSE(nil, nil); err == nil {
		t.Error("empty slices accepted")
	}
}

func TestMAE(t *testing.T) {
	got, err := MAE([]float64{1, -1}, []float64{0, 0})
	if err != nil || got != 1 {
		t.Errorf("MAE = %v, %v", got, err)
	}
	if _, err := MAE([]float64{1}, nil); err == nil {
		t.Error("mismatched MAE accepted")
	}
}

func TestR2(t *testing.T) {
	truth := []float64{1, 2, 3, 4}
	perfect, err := R2(truth, truth)
	if err != nil || math.Abs(perfect-1) > 1e-12 {
		t.Errorf("perfect R2 = %v, %v", perfect, err)
	}
	meanPred := []float64{2.5, 2.5, 2.5, 2.5}
	zero, err := R2(meanPred, truth)
	if err != nil || math.Abs(zero) > 1e-12 {
		t.Errorf("mean-prediction R2 = %v, want 0", zero)
	}
	if _, err := R2([]float64{1, 2}, []float64{5, 5}); err == nil {
		t.Error("constant truth accepted")
	}
}

func TestPredictAll(t *testing.T) {
	e := &constEstimator{v: 7}
	if _, err := PredictAll(e, [][]float64{{1}}); !errors.Is(err, ErrNotFitted) {
		t.Errorf("unfitted PredictAll error = %v", err)
	}
	_ = e.Fit([][]float64{{1}}, []float64{1})
	out, err := PredictAll(e, [][]float64{{1}, {2}, {3}})
	if err != nil || len(out) != 3 || out[0] != 7 {
		t.Errorf("PredictAll = %v, %v", out, err)
	}
}

func TestEvaluateRMSE(t *testing.T) {
	e := &constEstimator{v: 0}
	rmse, err := EvaluateRMSE(e,
		[][]float64{{1}, {2}}, []float64{0, 0},
		[][]float64{{3}, {4}}, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt((9.0 + 16.0) / 2)
	if math.Abs(rmse-want) > 1e-12 {
		t.Errorf("RMSE = %v, want %v", rmse, want)
	}
}

func TestCrossValidateRMSE(t *testing.T) {
	rng := simrand.New(1)
	x := make([][]float64, 50)
	y := make([]float64, 50)
	for i := range x {
		x[i] = []float64{float64(i)}
		y[i] = 5 // constant target
	}
	score, err := CrossValidateRMSE(func() Estimator { return &constEstimator{v: 5} }, x, y, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if score != 0 {
		t.Errorf("CV RMSE = %v for a perfect constant predictor", score)
	}
	if _, err := CrossValidateRMSE(func() Estimator { return &constEstimator{} }, x, y, 1, rng); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := CrossValidateRMSE(func() Estimator { return &constEstimator{} }, x, y, 51, rng); err == nil {
		t.Error("k>n accepted")
	}
}

func TestGrid(t *testing.T) {
	g := Grid(map[string][]float64{
		"k": {1, 3, 16},
		"p": {1, 2},
	})
	if len(g) != 6 {
		t.Fatalf("grid size = %d, want 6", len(g))
	}
	seen := map[[2]float64]bool{}
	for _, p := range g {
		key := [2]float64{p["k"], p["p"]}
		if seen[key] {
			t.Fatalf("duplicate grid point %v", p)
		}
		seen[key] = true
	}
}

func TestGridEmptySpace(t *testing.T) {
	g := Grid(nil)
	if len(g) != 1 || len(g[0]) != 0 {
		t.Errorf("empty-space grid = %v", g)
	}
}

func TestGridSearchRanksByRMSE(t *testing.T) {
	rng := simrand.New(3)
	// Targets are constant 5; the candidate with v closest to 5 must win.
	x := make([][]float64, 40)
	y := make([]float64, 40)
	for i := range x {
		x[i] = []float64{float64(i)}
		y[i] = 5
	}
	factory := func(p Params) (Estimator, error) {
		return &constEstimator{v: p["v"]}, nil
	}
	results, err := GridSearch(factory, Grid(map[string][]float64{"v": {0, 4, 5, 9}}), x, y, 0.25, rng)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Params["v"] != 5 {
		t.Errorf("best params = %v, want v=5", results[0].Params)
	}
	for i := 1; i < len(results); i++ {
		if results[i].RMSE < results[i-1].RMSE {
			t.Error("results not sorted by RMSE")
		}
	}
}

func TestGridSearchValidation(t *testing.T) {
	rng := simrand.New(4)
	x := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{1, 2, 3, 4}
	factory := func(Params) (Estimator, error) { return &constEstimator{}, nil }
	if _, err := GridSearch(factory, nil, x, y, 0.25, rng); err == nil {
		t.Error("no candidates accepted")
	}
	if _, err := GridSearch(factory, []Params{{}}, x, y, 0, rng); err == nil {
		t.Error("zero validation fraction accepted")
	}
	if _, err := GridSearch(factory, []Params{{}}, nil, nil, 0.25, rng); err == nil {
		t.Error("empty training data accepted")
	}
}
