package ml

import "fmt"

// DirtyAll is the sentinel key index an IncrementalEstimator returns from
// Observe when a new batch can change predictions for every key — global
// models (the NN) and shared-feature-space models with cross-key reach
// (the one-hot kNN) report it instead of enumerating the vocabulary.
const DirtyAll = -1

// IncrementalEstimator is an estimator that can absorb new observations
// after an initial Fit without a from-scratch retrain, reporting which
// one-hot keys (MAC indices) the delta can affect — the "mend a partial
// solution with few changes" contract the incremental REM pipeline is
// built on.
//
// Observe ingests a batch of new rows (same feature layout as Fit) and
// returns the dirty key set: every key whose predictions may differ once
// the batch is folded in. A result containing DirtyAll means every key.
// Observe requires a prior successful Fit and must be conservative —
// over-reporting dirty keys costs rebuild time, under-reporting breaks
// the snapshot identity.
//
// Refit guarantees the model fully reflects every observed batch.
// Implementations may surface observations earlier (the kNN's insert log
// answers queries immediately), but only after Refit does the contract
// hold: **the refitted estimator predicts byte-identically to a fresh
// estimator of the same configuration fitted on the cumulative dataset in
// arrival order** (determinism contract rule 7). The NN's warm-start
// fine-tune mode (Config.FineTuneEpochs > 0) is the one documented
// exception: it trades that identity for bounded refit cost and promises
// determinism of the incremental sequence instead.
type IncrementalEstimator interface {
	Estimator
	// Observe buffers a batch of new training rows and returns the keys
	// whose predictions may change once the batch is folded in.
	Observe(x [][]float64, y []float64) ([]int, error)
	// Refit folds every observed batch into the fitted model.
	Refit() error
}

// ValidateObserved performs the checks every Observe needs: rows
// consistent with each other and with the fitted feature dimension, and
// finite (see checkFinite). Empty batches are allowed (and dirty
// nothing).
func ValidateObserved(x [][]float64, y []float64, dim int) error {
	if len(x) != len(y) {
		return fmt.Errorf("ml: %d feature rows but %d targets", len(x), len(y))
	}
	for i, row := range x {
		if len(row) != dim {
			return fmt.Errorf("ml: observed row %d has %d features, want %d", i, len(row), dim)
		}
	}
	return checkFinite(x, y)
}

// RefitAdapter lifts any Estimator into the IncrementalEstimator contract
// by retaining the cumulative training set and refitting from scratch on
// every Refit. Observe always dirties every key. It is the fallback the
// streaming pipeline uses for estimators without a native incremental
// path (kriging, IDW, ensembles): correctness is identical, only the
// refit cost is not proportional to the delta.
type RefitAdapter struct {
	// Est is the wrapped estimator.
	Est Estimator

	x       [][]float64
	y       []float64
	pending bool
	fitted  bool
}

var _ IncrementalEstimator = (*RefitAdapter)(nil)

// NewRefitAdapter wraps est; if est is already incremental it is returned
// unchanged.
func NewRefitAdapter(est Estimator) IncrementalEstimator {
	if inc, ok := est.(IncrementalEstimator); ok {
		return inc
	}
	return &RefitAdapter{Est: est}
}

// Name implements Named, delegating when the wrapped estimator labels
// itself.
func (a *RefitAdapter) Name() string {
	if n, ok := a.Est.(Named); ok {
		return n.Name()
	}
	return fmt.Sprintf("refit adapter (%T)", a.Est)
}

// Fit implements Estimator: it records the training set as the cumulative
// baseline and fits the wrapped estimator.
func (a *RefitAdapter) Fit(x [][]float64, y []float64) error {
	if err := ValidateTrainingData(x, y); err != nil {
		return err
	}
	a.x = make([][]float64, 0, len(x))
	a.y = make([]float64, 0, len(y))
	a.append(x, y)
	a.pending = false
	if err := a.Est.Fit(a.x, a.y); err != nil {
		return err
	}
	a.fitted = true
	return nil
}

// Predict implements Estimator.
func (a *RefitAdapter) Predict(q []float64) (float64, error) { return a.Est.Predict(q) }

// PredictBatch implements BatchPredictor via the wrapped estimator's batch
// path when it has one.
func (a *RefitAdapter) PredictBatch(x [][]float64) ([]float64, error) {
	return PredictAll(a.Est, x)
}

// Observe implements IncrementalEstimator: the batch is appended to the
// cumulative set and every key is reported dirty (the adapter knows
// nothing about the wrapped model's locality).
func (a *RefitAdapter) Observe(x [][]float64, y []float64) ([]int, error) {
	if !a.fitted {
		return nil, ErrNotFitted
	}
	if err := ValidateObserved(x, y, len(a.x[0])); err != nil {
		return nil, err
	}
	if len(x) == 0 {
		return nil, nil
	}
	a.append(x, y)
	a.pending = true
	return []int{DirtyAll}, nil
}

// Refit implements IncrementalEstimator: a from-scratch fit on the
// cumulative rows in arrival order, so the result is exactly what a fresh
// estimator would learn.
func (a *RefitAdapter) Refit() error {
	if !a.fitted {
		return ErrNotFitted
	}
	if !a.pending {
		return nil
	}
	if err := a.Est.Fit(a.x, a.y); err != nil {
		return err
	}
	a.pending = false
	return nil
}

func (a *RefitAdapter) append(x [][]float64, y []float64) {
	for _, row := range x {
		a.x = append(a.x, append([]float64(nil), row...))
	}
	a.y = append(a.y, y...)
}
