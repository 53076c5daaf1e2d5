// Package ml defines the estimator abstraction of the paper's toolchain —
// any regressor that learns RSS as a function of features — together with
// the evaluation metrics (RMSE, MAE, R²), k-fold cross-validation and the
// grid-search harness used to tune hyper-parameters (§III-B).
package ml

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/internal/simrand"
)

// Estimator is a trainable regressor. Implementations live in the baseline,
// knn and nn sub-packages. Predict must be safe for concurrent use once
// Fit has returned — the REM rasteriser fans queries out across a worker
// pool against a single fitted estimator.
type Estimator interface {
	// Fit trains on the design matrix x and targets y.
	Fit(x [][]float64, y []float64) error
	// Predict returns the estimate for one feature vector.
	Predict(x []float64) (float64, error)
}

// BatchPredictor is implemented by estimators with an amortised batch
// inference path. PredictBatch must return exactly the values Predict
// would return row by row (the determinism contract lets callers switch
// freely between the two), and must be safe for concurrent use.
type BatchPredictor interface {
	// PredictBatch returns the estimate for every feature row.
	PredictBatch(x [][]float64) ([]float64, error)
}

// Named is implemented by estimators that can label themselves for reports.
type Named interface {
	// Name returns a short display label.
	Name() string
}

// ErrNotFitted is returned by Predict before Fit.
var ErrNotFitted = errors.New("ml: estimator not fitted")

// ValidateTrainingData performs the checks every estimator needs: a
// consistent non-empty shape and finite rows (see checkFinite).
func ValidateTrainingData(x [][]float64, y []float64) error {
	if len(x) == 0 {
		return errors.New("ml: empty training set")
	}
	if len(x) != len(y) {
		return fmt.Errorf("ml: %d feature rows but %d targets", len(x), len(y))
	}
	dim := len(x[0])
	if dim == 0 {
		return errors.New("ml: zero-dimensional features")
	}
	for i, row := range x {
		if len(row) != dim {
			return fmt.Errorf("ml: row %d has %d features, want %d", i, len(row), dim)
		}
	}
	return checkFinite(x, y)
}

// checkFinite rejects a row with a non-finite feature or target. A NaN
// has no rank among neighbour distances and an infinity swamps every
// mean, so such a row would make answers depend on arrival order
// instead of failing loudly. v-v is 0 for every finite v and NaN for
// ±Inf and NaN: one subtraction per element, on the path every
// observed batch takes.
func checkFinite(x [][]float64, y []float64) error {
	for i, row := range x {
		for j, v := range row {
			if v-v != 0 {
				return fmt.Errorf("ml: row %d feature %d is not finite (%v)", i, j, v)
			}
		}
		if y[i]-y[i] != 0 {
			return fmt.Errorf("ml: row %d target is not finite (%v)", i, y[i])
		}
	}
	return nil
}

// PredictAll evaluates the estimator on every row, taking the amortised
// batch path when the estimator provides one.
func PredictAll(e Estimator, x [][]float64) ([]float64, error) {
	if bp, ok := e.(BatchPredictor); ok {
		return bp.PredictBatch(x)
	}
	out := make([]float64, len(x))
	for i, row := range x {
		p, err := e.Predict(row)
		if err != nil {
			return nil, fmt.Errorf("ml: predicting row %d: %w", i, err)
		}
		out[i] = p
	}
	return out, nil
}

// RMSE returns the root-mean-square error between predictions and truth —
// the accuracy measure of the paper's Figure 8.
func RMSE(pred, truth []float64) (float64, error) {
	if len(pred) != len(truth) || len(pred) == 0 {
		return 0, fmt.Errorf("ml: RMSE needs equal non-empty slices, got %d and %d", len(pred), len(truth))
	}
	var sum float64
	for i := range pred {
		d := pred[i] - truth[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(pred))), nil
}

// MAE returns the mean absolute error.
func MAE(pred, truth []float64) (float64, error) {
	if len(pred) != len(truth) || len(pred) == 0 {
		return 0, fmt.Errorf("ml: MAE needs equal non-empty slices, got %d and %d", len(pred), len(truth))
	}
	var sum float64
	for i := range pred {
		sum += math.Abs(pred[i] - truth[i])
	}
	return sum / float64(len(pred)), nil
}

// R2 returns the coefficient of determination.
func R2(pred, truth []float64) (float64, error) {
	if len(pred) != len(truth) || len(pred) == 0 {
		return 0, fmt.Errorf("ml: R2 needs equal non-empty slices, got %d and %d", len(pred), len(truth))
	}
	var mean float64
	for _, t := range truth {
		mean += t
	}
	mean /= float64(len(truth))
	var ssRes, ssTot float64
	for i := range truth {
		ssRes += (truth[i] - pred[i]) * (truth[i] - pred[i])
		ssTot += (truth[i] - mean) * (truth[i] - mean)
	}
	if ssTot == 0 {
		return 0, errors.New("ml: R2 undefined for constant truth")
	}
	return 1 - ssRes/ssTot, nil
}

// EvaluateRMSE fits the estimator on the training split and scores it on the
// test split.
func EvaluateRMSE(e Estimator, trainX [][]float64, trainY []float64, testX [][]float64, testY []float64) (float64, error) {
	if err := e.Fit(trainX, trainY); err != nil {
		return 0, err
	}
	pred, err := PredictAll(e, testX)
	if err != nil {
		return 0, err
	}
	return RMSE(pred, testY)
}

// CrossValidateRMSE runs k-fold cross-validation and returns the mean fold
// RMSE. The factory builds a fresh estimator per fold. Folds are evaluated
// on the shared worker pool; see CrossValidateRMSEWorkers.
func CrossValidateRMSE(factory func() Estimator, x [][]float64, y []float64, k int, rng *simrand.Source) (float64, error) {
	return CrossValidateRMSEWorkers(factory, x, y, k, rng, 0)
}

// CrossValidateRMSEWorkers is CrossValidateRMSE with an explicit bound on
// concurrent fold evaluations (≤ 0 means GOMAXPROCS). The permutation is
// drawn before any fold runs and fold scores are summed in fold order, so
// the result is byte-identical for every worker count.
func CrossValidateRMSEWorkers(factory func() Estimator, x [][]float64, y []float64, k int, rng *simrand.Source, workers int) (float64, error) {
	if err := ValidateTrainingData(x, y); err != nil {
		return 0, err
	}
	if k < 2 || k > len(x) {
		return 0, fmt.Errorf("ml: fold count %d outside [2, %d]", k, len(x))
	}
	perm := rng.Perm(len(x))
	total, err := parallel.MapReduce(k, workers, func(fold int) (float64, error) {
		var trX, teX [][]float64
		var trY, teY []float64
		for i, idx := range perm {
			if i%k == fold {
				teX = append(teX, x[idx])
				teY = append(teY, y[idx])
			} else {
				trX = append(trX, x[idx])
				trY = append(trY, y[idx])
			}
		}
		rmse, err := EvaluateRMSE(factory(), trX, trY, teX, teY)
		if err != nil {
			return 0, fmt.Errorf("ml: fold %d: %w", fold, err)
		}
		return rmse, nil
	}, 0.0, func(acc, v float64) float64 { return acc + v })
	if err != nil {
		return 0, err
	}
	return total / float64(k), nil
}
