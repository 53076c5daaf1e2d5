package knn

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/simrand"
)

// perKeyFixture fits a per-key ensemble over nKeys-1 surveyed keys (the
// last key of the one-hot block has no rows, so the global fallback
// answers it) plus a key with fewer than K rows, and returns it with
// queries of every routing kind: one hot key (surveyed, sparse and
// unsurveyed), no hot key and two hot keys.
func perKeyFixture(t *testing.T) (*PerKey, [][]float64) {
	t.Helper()
	rng := simrand.New(91)
	const nKeys = 5
	x, y := knnStream(nKeys-2, 180, 1, rng)
	for i := range x {
		x[i] = append(x[i], 0, 0)
	}
	sparse := []float64{1.5, 1, 1.2, 0, 0, 0, 1, 0} // key 3: one row, below K
	x, y = append(x, sparse), append(y, -71)
	p := &PerKey{Sub: PaperPlainConfig(), KeyOffset: 3}
	if err := p.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	hot, _ := knnStream(nKeys, 40, 1, rng)
	queries := append(hot, fallbackQueries(hot, 3)...)
	return p, queries
}

// TestPerKeyPredictBatchMatchesPredict pins the batch path to Predict's
// bits for every routing case, before and after an unmerged observe.
func TestPerKeyPredictBatchMatchesPredict(t *testing.T) {
	p, queries := perKeyFixture(t)
	check := func(label string) {
		t.Helper()
		got, err := p.PredictBatch(queries)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			want, err := p.Predict(q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("%s: row %d (%v): batch %x, Predict %x", label, i, q, got[i], want)
			}
		}
	}
	check("fitted")
	obs, oy := knnStream(3, 10, 1, simrand.New(5))
	for i := range obs {
		obs[i] = append(obs[i], 0, 0)
	}
	if _, err := p.Observe(obs, oy); err != nil {
		t.Fatal(err)
	}
	check("observed")
	if _, err := p.PredictBatch([][]float64{{1, 2}}); err == nil {
		t.Error("short row accepted")
	}
}

// TestPerKeyPredictBatchAllocs bounds the batch path's allocations: the
// result slice and one neighbour buffer, whatever the batch size.
func TestPerKeyPredictBatchAllocs(t *testing.T) {
	p, queries := perKeyFixture(t)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := p.PredictBatch(queries); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("PredictBatch over %d rows made %.0f allocations, want ≤ 3", len(queries), allocs)
	}
	out := make([]float64, len(queries))
	kth := make([]float64, len(queries))
	xyz := make([][]float64, len(queries))
	for i, q := range queries {
		xyz[i] = q[:3]
	}
	allocs = testing.AllocsPerRun(20, func() {
		if err := p.PredictKeyInto(1, xyz, out, kth, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("PredictKeyInto over %d rows made %.0f allocations, want ≤ 2", len(queries), allocs)
	}
}

// bruteKth is the reference set and bound: the positions of the k
// nearest neighbours of q among rows, ranked by (sqrt of the sum,
// index), and the k-th one's squared distance.
func bruteKth(q []float64, rows [][]float64, k int) ([]int32, float64) {
	type cand struct {
		d, sq float64
		i     int
	}
	cs := make([]cand, len(rows))
	for i, r := range rows {
		var sum float64
		for j := range q {
			d := q[j] - r[j]
			sum += d * d
		}
		cs[i] = cand{math.Sqrt(sum), sum, i}
	}
	sort.Slice(cs, func(a, b int) bool {
		if cs[a].d != cs[b].d {
			return cs[a].d < cs[b].d
		}
		return cs[a].i < cs[b].i
	})
	set := make([]int32, k)
	for i := range set {
		set[i] = int32(cs[i].i)
	}
	return set, cs[k-1].sq
}

// TestPerKeyPredictKeyInto pins the key-addressed path: Predict's bits
// with the key hot, the k nearest rows' positions as the set and the
// k-th one's squared distance as the bound — -1s and +Inf for a key
// below K rows and for the fallback-served key.
func TestPerKeyPredictKeyInto(t *testing.T) {
	p, queries := perKeyFixture(t)
	xyz := make([][]float64, len(queries))
	for i, q := range queries {
		xyz[i] = q[:3]
	}
	out := make([]float64, len(xyz))
	kth := make([]float64, len(xyz))
	k := p.Sub.K
	sets := make([]int32, len(xyz)*k)
	for key := 0; key < 5; key++ {
		if err := p.PredictKeyInto(key, xyz, out, kth, sets); err != nil {
			t.Fatal(err)
		}
		for i, q := range xyz {
			hot := append(append([]float64(nil), q...), 0, 0, 0, 0, 0)
			hot[3+key] = 1
			want, err := p.Predict(hot)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Fatalf("key %d query %d: %x, Predict %x", key, i, out[i], want)
			}
			wantSet, wantK := []int32{-1, -1, -1}, math.Inf(1)
			if sub, ok := p.subs[key]; ok && len(sub.x) >= k {
				wantSet, wantK = bruteKth(q, sub.x, k)
			}
			if math.Float64bits(kth[i]) != math.Float64bits(wantK) {
				t.Fatalf("key %d query %d: bound %v, want %v", key, i, kth[i], wantK)
			}
			if set := sets[i*k : (i+1)*k]; fmt.Sprint(set) != fmt.Sprint(wantSet) {
				t.Fatalf("key %d query %d: set %v, want %v", key, i, set, wantSet)
			}
		}
	}
	if err := p.PredictKeyInto(0, xyz, out[:1], kth, nil); err == nil {
		t.Error("mismatched output length accepted")
	}
	if err := p.PredictKeyInto(0, xyz, out, kth, sets[1:]); err == nil {
		t.Error("mismatched set length accepted")
	}
}

// TestPerKeyExtendKeyInto pins the stored-set update to a full query:
// after each unmerged batch for one key — rows on earlier rows, on the
// queries themselves (zero distances) and at random — extending the
// stored sets gives PredictKeyInto's values, bounds and sets bit for
// bit. Keys without bounded sets are refused.
func TestPerKeyExtendKeyInto(t *testing.T) {
	p, queries := perKeyFixture(t)
	const key = 1
	xyz := make([][]float64, len(queries))
	for i, q := range queries {
		xyz[i] = q[:3]
	}
	k := p.Sub.K
	out, kth, sets := make([]float64, len(xyz)), make([]float64, len(xyz)), make([]int32, len(xyz)*k)
	if err := p.PredictKeyInto(key, xyz, out, kth, sets); err != nil {
		t.Fatal(err)
	}
	rng := simrand.New(17)
	for batch := 0; batch < 6; batch++ {
		var x [][]float64
		var y []float64
		for j := 0; j < 1+rng.Intn(8); j++ {
			row := make([]float64, 8)
			switch rng.Intn(3) {
			case 0:
				copy(row, p.subs[key].x[rng.Intn(len(p.subs[key].x))])
			case 1:
				copy(row, xyz[rng.Intn(len(xyz))])
			default:
				row[0], row[1], row[2] = rng.Range(0, 4), rng.Range(0, 3), rng.Range(0, 2.6)
			}
			row[3+key] = 1
			x, y = append(x, row), append(y, -50-20*rng.Float64())
		}
		if _, err := p.Observe(x, y); err != nil {
			t.Fatal(err)
		}
		if err := p.ExtendKeyInto(key, len(x), xyz, sets, out, kth); err != nil {
			t.Fatal(err)
		}
		wantOut, wantKth, wantSets := make([]float64, len(xyz)), make([]float64, len(xyz)), make([]int32, len(sets))
		if err := p.PredictKeyInto(key, xyz, wantOut, wantKth, wantSets); err != nil {
			t.Fatal(err)
		}
		for i := range xyz {
			if math.Float64bits(out[i]) != math.Float64bits(wantOut[i]) || math.Float64bits(kth[i]) != math.Float64bits(wantKth[i]) {
				t.Fatalf("batch %d query %d: extended %x (bound %v), full query %x (bound %v)", batch, i, out[i], kth[i], wantOut[i], wantKth[i])
			}
		}
		for j := range sets {
			if sets[j] != wantSets[j] {
				t.Fatalf("batch %d: stored sets %v, full query %v", batch, sets, wantSets)
			}
		}
	}
	if p.subs[key].indexed == len(p.subs[key].x) {
		t.Fatal("Observe merged the insert log; the batches should have stayed unmerged")
	}
	for _, bad := range []int{3, 4} { // below K rows; no sub-regressor
		if err := p.ExtendKeyInto(bad, 0, xyz, sets, out, kth); err == nil {
			t.Errorf("key %d has no bounded sets but was extended", bad)
		}
	}
	sets[0] = int32(len(p.subs[key].x))
	if err := p.ExtendKeyInto(key, 0, xyz, sets, out, kth); err == nil {
		t.Error("a stored position past the key's rows was accepted")
	}
}
