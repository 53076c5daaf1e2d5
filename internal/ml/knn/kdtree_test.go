package knn

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"testing"

	"repro/internal/simrand"
)

// syntheticOneHot builds an RSS-like training set in the paper's feature
// layout: xyz in a room-sized box followed by a one-hot key block of the
// given scale.
func syntheticOneHot(rng *simrand.Source, n, keys int, scale float64) ([][]float64, []float64) {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, 3+keys)
		row[0] = rng.Range(0, 4)
		row[1] = rng.Range(0, 3)
		row[2] = rng.Range(0, 2.6)
		row[3+rng.Intn(keys)] = scale
		x[i] = row
		y[i] = rng.Range(-95, -40)
	}
	return x, y
}

// syntheticXYZ builds a coordinate-only training set (the per-MAC
// sub-regressor layout).
func syntheticXYZ(rng *simrand.Source, n int) ([][]float64, []float64) {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.Range(0, 4), rng.Range(0, 3), rng.Range(0, 2.6)}
		y[i] = rng.Range(-95, -40)
	}
	return x, y
}

// fitPair fits a KD-tree-backed and a brute-force regressor on the same
// data.
func fitPair(t *testing.T, cfg Config, x [][]float64, y []float64) (tree, brute *Regressor) {
	t.Helper()
	tree, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bcfg := cfg
	bcfg.BruteForce = true
	brute, err = New(bcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := brute.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if tree.index == nil {
		t.Fatal("Euclidean fit did not build a KD-tree index")
	}
	if brute.index != nil {
		t.Fatal("BruteForce fit built an index")
	}
	return tree, brute
}

// TestKDTreeMatchesBruteForce is the determinism contract: for every
// weighting, k, and feature layout, the KD-tree answer must be
// byte-identical to the brute-force scan.
func TestKDTreeMatchesBruteForce(t *testing.T) {
	cases := []struct {
		name  string
		keys  int
		scale float64
	}{
		{"xyz-only", 0, 0},
		{"one-hot×1", 12, 1},
		{"one-hot×3", 12, 3},
	}
	for _, tc := range cases {
		for _, k := range []int{1, 3, 16, 40} {
			for _, w := range []Weighting{Uniform, Distance} {
				t.Run(fmt.Sprintf("%s/k=%d/%s", tc.name, k, w), func(t *testing.T) {
					rng := simrand.New(42)
					var x [][]float64
					var y []float64
					if tc.keys == 0 {
						x, y = syntheticXYZ(rng, 600)
					} else {
						x, y = syntheticOneHot(rng, 600, tc.keys, tc.scale)
					}
					tree, brute := fitPair(t, Config{K: k, Weights: w, MinkowskiP: 2}, x, y)
					for q := 0; q < 300; q++ {
						query := make([]float64, len(x[0]))
						query[0] = rng.Range(-0.5, 4.5)
						query[1] = rng.Range(-0.5, 3.5)
						query[2] = rng.Range(-0.5, 3)
						if tc.keys > 0 {
							query[3+rng.Intn(tc.keys)] = tc.scale
						}
						want, err := brute.Predict(query)
						if err != nil {
							t.Fatal(err)
						}
						got, err := tree.Predict(query)
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Fatalf("query %d: kdtree %v ≠ brute %v", q, got, want)
						}
					}
				})
			}
		}
	}
}

// TestKDTreeMatchesBruteOnTrainingPoints exercises the zero-distance
// (exact match) path through both backends, including coincident points.
func TestKDTreeMatchesBruteOnTrainingPoints(t *testing.T) {
	rng := simrand.New(7)
	x, y := syntheticOneHot(rng, 400, 8, 3)
	// Duplicate a slice of points so zero-distance ties exist.
	for i := 0; i < 40; i++ {
		x = append(x, append([]float64(nil), x[i]...))
		y = append(y, y[i]-1)
	}
	tree, brute := fitPair(t, Config{K: 16, Weights: Distance, MinkowskiP: 2}, x, y)
	for i := range x {
		want, err := brute.Predict(x[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := tree.Predict(x[i])
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("training point %d: kdtree %v ≠ brute %v", i, got, want)
		}
	}
}

// TestKDTreeUnseenAndMalformedQueries covers queries the per-key forest
// cannot serve natively: a hot key absent from training, a hot value that
// differs from the training scale, and a query with no hot entry — all
// must agree with brute force.
func TestKDTreeUnseenAndMalformedQueries(t *testing.T) {
	rng := simrand.New(13)
	// Keys 0..5 trained out of 8 slots, so 6 and 7 are unseen.
	x, y := syntheticOneHot(rng, 300, 6, 3)
	for i := range x {
		x[i] = append(x[i], 0, 0) // widen the one-hot block to 8 slots
	}
	tree, brute := fitPair(t, Config{K: 5, Weights: Distance, MinkowskiP: 2}, x, y)
	queries := [][]float64{
		append([]float64{1, 1, 1}, 0, 0, 0, 0, 0, 0, 3, 0), // unseen key 6
		append([]float64{1, 1, 1}, 5, 0, 0, 0, 0, 0, 0, 0), // wrong scale
		append([]float64{1, 1, 1}, 0, 0, 0, 0, 0, 0, 0, 0), // no hot entry
		append([]float64{1, 1, 1}, 3, 0, 3, 0, 0, 0, 0, 0), // two hot entries
	}
	for qi, q := range queries {
		want, err := brute.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tree.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("query %d: kdtree %v ≠ brute %v", qi, got, want)
		}
	}
}

// TestPredictBatchMatchesPredict checks the amortised path returns exactly
// the per-call values.
func TestPredictBatchMatchesPredict(t *testing.T) {
	rng := simrand.New(21)
	x, y := syntheticOneHot(rng, 500, 10, 3)
	r, err := New(PaperScaledConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	queries := make([][]float64, 200)
	for i := range queries {
		q := make([]float64, len(x[0]))
		q[0], q[1], q[2] = rng.Range(0, 4), rng.Range(0, 3), rng.Range(0, 2.6)
		q[3+rng.Intn(10)] = 3
		queries[i] = q
	}
	batch, err := r.PredictBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		single, err := r.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != single {
			t.Fatalf("row %d: batch %v ≠ single %v", i, batch[i], single)
		}
	}
	if _, err := (&Regressor{cfg: PaperPlainConfig()}).PredictBatch(queries); err == nil {
		t.Error("unfitted PredictBatch accepted")
	}
}

// TestConcurrentPredict hammers one fitted regressor from many goroutines;
// run under -race this proves the query path shares no mutable state.
func TestConcurrentPredict(t *testing.T) {
	rng := simrand.New(5)
	x, y := syntheticOneHot(rng, 400, 8, 3)
	r, err := New(PaperScaledConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	q := append([]float64{2, 1.5, 1.3}, make([]float64, 8)...)
	q[3] = 3
	want, err := r.Predict(q)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				got, err := r.Predict(q)
				if err != nil || got != want {
					t.Errorf("concurrent predict = %v, %v; want %v", got, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestBruteForceTieOrdering pins the canonical ordering: with more
// equidistant points than k, the lowest training indices win, for both
// backends.
func TestBruteForceTieOrdering(t *testing.T) {
	// Four corners of a square, query at the centre: all at distance √2/2.
	x := [][]float64{{0, 0, 9}, {1, 0, 9}, {0, 1, 9}, {1, 1, 9}}
	y := []float64{1, 2, 4, 8}
	for _, brute := range []bool{false, true} {
		r, err := New(Config{K: 2, Weights: Uniform, MinkowskiP: 2, BruteForce: brute})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		got, err := r.Predict([]float64{0.5, 0.5, 9})
		if err != nil {
			t.Fatal(err)
		}
		if got != 1.5 { // indices 0 and 1 win the tie
			t.Errorf("brute=%v: tie-broken k=2 mean = %v, want 1.5", brute, got)
		}
	}
}

// sortBuild is the reference KD build: every level fully sorted by
// (coordinate, tree-local position) and split at the middle element. The
// selecting build must reproduce it node for node.
func sortBuild(pts [][]float64) *kdTree {
	t := &kdTree{pts: pts, order: make([]int, len(pts))}
	for i := range t.order {
		t.order[i] = i
	}
	var build func(lo, hi int) int32
	build = func(lo, hi int) int32 {
		ni := int32(len(t.nodes))
		t.nodes = append(t.nodes, kdNode{left: -1, right: -1, lo: int32(lo), hi: int32(hi)})
		if hi-lo <= kdLeafSize {
			return ni
		}
		axis, spread := t.widestAxis(lo, hi)
		if spread == 0 {
			return ni
		}
		seg := t.order[lo:hi]
		sort.Slice(seg, func(a, b int) bool {
			pa, pb := t.pts[seg[a]][axis], t.pts[seg[b]][axis]
			if pa != pb {
				return pa < pb
			}
			return seg[a] < seg[b]
		})
		mid := lo + (hi-lo)/2
		t.nodes[ni].axis = axis
		t.nodes[ni].split = t.pts[t.order[mid]][axis]
		left := build(lo, mid)
		right := build(mid, hi)
		t.nodes[ni].left, t.nodes[ni].right = left, right
		return ni
	}
	if len(pts) > 0 {
		build(0, len(pts))
	}
	return t
}

// kdShapes are point clouds that stress the build's selection: heavy
// coordinate ties, full coincidence, sizes around the leaf bound, sorted
// and reverse-sorted input, and the organ-pipe order that defeats a
// median-of-three pivot until the round budget runs out and the segment
// is sorted outright.
func kdShapes() map[string][][]float64 {
	rng := simrand.New(2024)
	shapes := map[string][][]float64{}
	random := func(n int, grid float64) [][]float64 {
		pts := make([][]float64, n)
		for i := range pts {
			p := []float64{rng.Range(0, 4), rng.Range(0, 3), rng.Range(0, 2.6)}
			if grid > 0 {
				for a := range p {
					p[a] = math.Floor(p[a] * grid)
				}
			}
			pts[i] = p
		}
		return pts
	}
	line := func(n int, at func(i int) float64) [][]float64 {
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{at(i), 0.5 * float64(i%3), 1}
		}
		return pts
	}
	shapes["random-1000"] = random(1000, 0)
	shapes["repeated-coords-1000"] = random(1000, 1)
	shapes["repeated-coords-4000"] = random(4000, 2)
	coincident := make([][]float64, 300)
	for i := range coincident {
		coincident[i] = []float64{1, 2, 0.5}
	}
	shapes["all-coincident"] = coincident
	for _, n := range []int{kdLeafSize - 1, kdLeafSize, kdLeafSize + 1, 2*kdLeafSize + 1} {
		shapes[fmt.Sprintf("random-%d", n)] = random(n, 0)
		shapes[fmt.Sprintf("repeated-coords-%d", n)] = random(n, 1)
	}
	for _, n := range []int{1000, 4097} {
		shapes[fmt.Sprintf("sorted-%d", n)] = line(n, func(i int) float64 { return float64(i) })
		shapes[fmt.Sprintf("reverse-%d", n)] = line(n, func(i int) float64 { return float64(n - i) })
		shapes[fmt.Sprintf("organ-pipe-%d", n)] = line(n, func(i int) float64 { return float64(min(i, n-1-i)) })
	}
	return shapes
}

// TestKDBuildMatchesSortBuild: building by selection yields the same
// nodes — axis, split, point range and children — as sorting every
// level, and the same set of points in every leaf. Only the order of
// points inside a leaf may differ, which no search depends on.
func TestKDBuildMatchesSortBuild(t *testing.T) {
	for name, pts := range kdShapes() {
		t.Run(name, func(t *testing.T) {
			ids := make([]int, len(pts))
			for i := range ids {
				ids[i] = i
			}
			got, want := newKDTree(pts, ids), sortBuild(pts)
			if len(got.nodes) != len(want.nodes) {
				t.Fatalf("%d nodes, want %d", len(got.nodes), len(want.nodes))
			}
			for i, n := range got.nodes {
				if n != want.nodes[i] {
					t.Fatalf("node %d = %+v, want %+v", i, n, want.nodes[i])
				}
				if n.left >= 0 {
					continue
				}
				a := append([]int(nil), got.order[n.lo:n.hi]...)
				b := append([]int(nil), want.order[n.lo:n.hi]...)
				sort.Ints(a)
				sort.Ints(b)
				if fmt.Sprint(a) != fmt.Sprint(b) {
					t.Fatalf("leaf node %d holds %v, want %v", i, a, b)
				}
			}
		})
	}
}

// TestSelectNthRoundBudget: selection puts the sort-order element at nth
// with every smaller element before it and every larger one after, for
// any round budget — zero sorts at once, a small budget runs out part
// way and sorts the segment left — and leaves the rest of order alone.
func TestSelectNthRoundBudget(t *testing.T) {
	for name, pts := range kdShapes() {
		n := len(pts)
		sorted := make([]int, n)
		for i := range sorted {
			sorted[i] = i
		}
		ref := &kdTree{pts: pts}
		sort.Slice(sorted, func(a, b int) bool { return ref.less(0, sorted[a], sorted[b]) })
		rank := make([]int, n)
		for r, p := range sorted {
			rank[p] = r
		}
		for _, rounds := range []int{0, 1, 3, 2 * bits.Len(uint(n))} {
			for _, nth := range []int{0, n / 3, n / 2, n - 1} {
				tr := &kdTree{pts: pts, order: make([]int, n)}
				for i := range tr.order {
					tr.order[i] = i
				}
				tr.selectNth(0, n, nth, 0, rounds)
				if got := tr.order[nth]; rank[got] != nth {
					t.Fatalf("%s rounds=%d nth=%d: order[nth] has rank %d", name, rounds, nth, rank[got])
				}
				seen := make([]bool, n)
				for i, p := range tr.order {
					if seen[p] {
						t.Fatalf("%s rounds=%d: position %d duplicated", name, rounds, p)
					}
					seen[p] = true
					if (i < nth && rank[p] > nth) || (i > nth && rank[p] < nth) {
						t.Fatalf("%s rounds=%d nth=%d: rank %d on the wrong side at %d", name, rounds, nth, rank[p], i)
					}
				}
			}
		}
	}
}
