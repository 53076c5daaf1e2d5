package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/ml/knn"
	"repro/internal/rem"
	"repro/internal/remwal"
	"repro/internal/simrand"
)

// These tests pin the ingest loop's masked path (ingestRaster): a batch
// re-predicts only the cells its rows can reach, and the published
// snapshots stay exactly the full-key rebuild's (rule 7).

var maskRes = [3]int{6, 5, 4}

// maskDataset is streamDataset plus "ee:44" with two samples: a key whose
// sub-regressor holds fewer than k=3 rows, so its cells have no finite
// bound until a batch grows it (kept by MinSamplesPerMAC 1).
func maskDataset() *dataset.Dataset {
	d := streamDataset()
	for _, p := range []geom.Vec3{geom.V(0.4, 2.6, 0.3), geom.V(3.3, 0.2, 1.9)} {
		d.Add(dataset.Sample{UAV: "A", X: p.X, Y: p.Y, Z: p.Z, MAC: "ee:44", SSID: "net", RSSI: -77, Channel: 6})
	}
	return d
}

// maskCentres returns the maskRes grid's cell centres by the rasteriser's
// own formula.
func maskCentres(t *testing.T) []geom.Vec3 {
	t.Helper()
	zero := func(c []geom.Vec3, _ int) ([]float64, error) { return make([]float64, len(c)), nil }
	m, err := rem.BuildMapBatch(geom.PaperScanVolume(), maskRes[0], maskRes[1], maskRes[2], []string{"k"}, zero, rem.BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]geom.Vec3, maskRes[0]*maskRes[1]*maskRes[2])
	for i := range out {
		out[i] = m.CellCenter(i)
	}
	return out
}

// maskBatches draws n seeded single-key batches over the maskDataset
// vocabulary. The sparse key comes first (its bound is +Inf, so that
// batch must take the full path). Rows land at random positions, exactly
// on cell centres, or on earlier rows, and some batches repeat a row.
func maskBatches(seed uint64, n int, centres []geom.Vec3) []remwal.Batch {
	rng := simrand.New(seed)
	keys := []string{"aa:00", "bb:11", "cc:22", "dd:33", "ee:44"}
	out := []remwal.Batch{{Key: "ee:44", Points: []geom.Vec3{geom.V(3.2, 2.1, 1.7)}, Values: []float64{-58}}}
	seen := append([]geom.Vec3(nil), out[0].Points...)
	for len(out) < n {
		b := remwal.Batch{Key: keys[rng.Intn(len(keys))]}
		for j, rows := 0, 1+rng.Intn(6); j < rows; j++ {
			var p geom.Vec3
			switch rng.Intn(4) {
			case 0:
				p = centres[rng.Intn(len(centres))]
			case 1:
				p = seen[rng.Intn(len(seen))]
			default:
				p = geom.V(rng.Range(0, 3.74), rng.Range(0, 3.2), rng.Range(0, 2.1))
			}
			b.Points = append(b.Points, p)
			b.Values = append(b.Values, -45-30*rng.Float64())
		}
		if rng.Intn(3) == 0 {
			b.Points = append(b.Points, b.Points[0])
			b.Values = append(b.Values, b.Values[0])
		}
		seen = append(seen, b.Points...)
		out = append(out, b)
	}
	return out
}

// maskRig is the ingest loop's rasterisation, driven step by step: the
// estimator, its ingestRaster and the cumulative rows in arrival order.
type maskRig struct {
	pre   *dataset.Preprocessed
	pk    *knn.PerKey
	ras   *ingestRaster
	cur   *rem.Map
	dim   int
	cumX  [][]float64
	cumY  []float64
	xyz   [][]float64 // cell centres as query rows
	stepN int
}

func newMaskRig(t *testing.T, workers int) *maskRig {
	t.Helper()
	pre, err := dataset.Preprocess(maskDataset(), 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := DefaultStreamSpec()
	est, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	g := &maskRig{pre: pre, pk: est.(*knn.PerKey), dim: pre.FeatureDim(spec.Features)}
	g.cumX, g.cumY = pre.DesignMatrix(spec.Features)
	if err := g.pk.Fit(g.cumX, g.cumY); err != nil {
		t.Fatal(err)
	}
	g.ras = newIngestRaster(g.pk, g.dim, spec.Features.OneHotMACScale, maskRes, rem.BuildOptions{Workers: workers})
	if g.cur, err = g.ras.bootstrap(geom.PaperScanVolume(), pre.MACs); err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < g.ras.stride; idx++ {
		c := g.cur.CellCenter(idx)
		g.xyz = append(g.xyz, []float64{c.X, c.Y, c.Z})
	}
	return g
}

// encode builds the batch's design rows exactly as the loop does.
func (g *maskRig) encode(t *testing.T, b remwal.Batch) (int, [][]float64, []float64) {
	t.Helper()
	ki := sort.SearchStrings(g.pre.MACs, b.Key)
	if ki == len(g.pre.MACs) || g.pre.MACs[ki] != b.Key {
		t.Fatalf("key %q outside the vocabulary", b.Key)
	}
	x := make([][]float64, len(b.Points))
	for i, p := range b.Points {
		x[i] = make([]float64, g.dim)
		x[i][0], x[i][1], x[i][2] = p.X, p.Y, p.Z
		x[i][3+ki] = 1
	}
	return ki, x, append([]float64(nil), b.Values...)
}

// keyState is one key's values and bounds at every cell under the
// estimator's current fit.
func (g *maskRig) keyState(t *testing.T, ki int) (vals, kth []float64) {
	t.Helper()
	vals = make([]float64, len(g.xyz))
	kth = make([]float64, len(g.xyz))
	if err := g.pk.PredictKeyInto(ki, g.xyz, vals, kth, nil); err != nil {
		t.Fatal(err)
	}
	return vals, kth
}

// fromScratch is the rule 7 comparator: a fresh estimator fitted on the
// cumulative rows, rasterised from scratch.
func (g *maskRig) fromScratch(t *testing.T) *rem.Map {
	t.Helper()
	est, err := DefaultStreamSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := est.Fit(g.cumX, g.cumY); err != nil {
		t.Fatal(err)
	}
	m, err := rem.BuildMapBatch(geom.PaperScanVolume(), maskRes[0], maskRes[1], maskRes[2], g.pre.MACs,
		BatchPredictorFor(est, g.dim, 1), rem.BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// step runs one batch through Observe → Refit → ingestRaster.next and
// checks the derivation against its oracles: the reached set is exactly
// the brute-force {c : some row's sum < R_old(c)} and holds every cell
// whose value changed, the refreshed bounds are the refitted model's,
// and the derived map equals a full-key rebuild of the same parent.
func (g *maskRig) step(t *testing.T, b remwal.Batch) {
	t.Helper()
	g.stepN++
	ki, x, y := g.encode(t, b)
	before, rOld := g.keyState(t, ki)
	dirty, err := g.pk.Observe(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.pk.Refit(); err != nil {
		t.Fatal(err)
	}
	g.cumX, g.cumY = append(g.cumX, x...), append(g.cumY, y...)
	dirtyKeys := resolveDirty(dirty, len(g.pre.MACs), false)
	next, cells, err := g.ras.next(g.cur, ki, x, dirtyKeys)
	if err != nil {
		t.Fatal(err)
	}
	after, rNew := g.keyState(t, ki)
	if g.ras.masked {
		if cells != len(g.ras.reached) {
			t.Fatalf("batch %d: reported %d cells, re-predicted %d", g.stepN, cells, len(g.ras.reached))
		}
		var brute []int
		for c, q := range g.xyz {
			if math.IsInf(rOld[c], 0) || math.IsNaN(rOld[c]) {
				t.Fatalf("batch %d: masked path ran with cell %d bound %v", g.stepN, c, rOld[c])
			}
			for _, row := range x {
				var sum float64
				for i := range q {
					d := q[i] - row[i]
					sum += d * d
				}
				if sum < rOld[c] {
					brute = append(brute, c)
					break
				}
			}
		}
		if fmt.Sprint(brute) != fmt.Sprint(g.ras.reached) {
			t.Fatalf("batch %d key %d: re-predicted %v, brute-force reach %v", g.stepN, ki, g.ras.reached, brute)
		}
		in := map[int]bool{}
		for _, c := range brute {
			in[c] = true
		}
		for c := range before {
			if math.Float64bits(before[c]) != math.Float64bits(after[c]) && !in[c] {
				t.Fatalf("batch %d key %d: cell %d changed but was not re-predicted", g.stepN, ki, c)
			}
		}
	} else if cells != len(dirtyKeys)*g.ras.stride {
		t.Fatalf("batch %d: full path reported %d cells for %d keys", g.stepN, cells, len(dirtyKeys))
	}
	got := g.ras.kth[ki*g.ras.stride : (ki+1)*g.ras.stride]
	for c := range rNew {
		if math.Float64bits(got[c]) != math.Float64bits(rNew[c]) {
			t.Fatalf("batch %d key %d: cell %d bound %v, refitted model says %v", g.stepN, ki, c, got[c], rNew[c])
		}
	}
	full, err := g.cur.RebuildKeys(dirtyKeys, g.ras.predict, rem.BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !next.Equal(full) {
		t.Fatalf("batch %d key %d (masked=%v): derived map differs from a full-key rebuild", g.stepN, ki, g.ras.masked)
	}
	g.cur = next
}

// TestIngestReachedSetOracle drives the loop's derivation batch by batch
// against the reach, change and bound oracles, and checks both paths
// ran: the sparse key's first batch must fall back (no finite bound),
// and most batches must take the masked path.
func TestIngestReachedSetOracle(t *testing.T) {
	centres := maskCentres(t)
	for _, seed := range []uint64{1, 2} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g := newMaskRig(t, 2)
			masked, full := 0, 0
			for i, b := range maskBatches(seed, 60, centres) {
				g.step(t, b)
				if i == 0 && g.ras.masked {
					t.Fatal("batch below k rows took the masked path")
				}
				if g.ras.masked {
					masked++
				} else {
					full++
				}
			}
			if masked < 40 || full < 1 {
				t.Fatalf("masked %d, full %d batches: both paths must run", masked, full)
			}
			if !g.cur.Equal(g.fromScratch(t)) {
				t.Fatal("final map differs from a from-scratch build")
			}
		})
	}
}

// TestIngestMaskedSnapshotsMatchFromScratch is rule 7 through the real
// loop: after every batch the published snapshot equals a from-scratch
// BuildMapBatch on the cumulative rows, for any worker count.
func TestIngestMaskedSnapshotsMatchFromScratch(t *testing.T) {
	centres := maskCentres(t)
	for _, seed := range []uint64{1, 2} {
		batches := maskBatches(seed, 40, centres)
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("seed%d/workers%d", seed, workers), func(t *testing.T) {
				q := remwal.NewQueue(remwal.QueueConfig{Capacity: len(batches) + 1})
				for _, b := range batches {
					if _, err := q.Submit(b); err != nil {
						t.Fatal(err)
					}
				}
				q.Close()
				cfg := ingestCfg()
				cfg.REMResolution = maskRes
				cfg.MinSamplesPerMAC = 1
				cfg.Workers = workers
				cfg.MaxHistory = len(batches) + 2
				cfg.Queue = q
				cfg.Context = context.Background()
				res, err := RunIngestWithDataset(cfg, maskDataset(), nil)
				if !errors.Is(err, remwal.ErrClosed) {
					t.Fatalf("ingest ended with %v, want queue closure", err)
				}
				g := newMaskRig(t, 1)
				for i, b := range batches {
					_, x, y := g.encode(t, b)
					g.cumX, g.cumY = append(g.cumX, x...), append(g.cumY, y...)
					snap := res.Store.SnapshotAt(uint64(i + 2))
					if snap == nil {
						t.Fatalf("version %d missing", i+2)
					}
					if !snap.Map().Equal(g.fromScratch(t)) {
						t.Fatalf("batch %d (%s): snapshot differs from a from-scratch build", i+1, b.Key)
					}
				}
			})
		}
	}
}

// TestIngestBoundRowOneUlpInside crafts a row whose squared distance to
// a cell centre is exactly one ulp below that cell's bound R and whose
// distance after sqrt is strictly below the k-th neighbour's: it enters
// the neighbour set, so the strict < on the unshrunk sum must reach the
// cell. A bound shrunk by one ulp would miss it.
func TestIngestBoundRowOneUlpInside(t *testing.T) {
	g := newMaskRig(t, 1)
	const ki = 0
	var rows [][]float64
	for _, row := range g.cumX {
		if row[3+ki] != 0 {
			rows = append(rows, row[:3])
		}
	}
	kth := g.ras.kth[ki*g.ras.stride : (ki+1)*g.ras.stride]
	for c, q := range g.xyz {
		R := kth[c]
		target := math.Nextafter(R, 0)
		if !(math.Sqrt(target) < math.Sqrt(R)) {
			continue
		}
		// The k-th neighbour is the row at distance R; walk a few ulps
		// around it looking for a sum of exactly R less one ulp.
		var p []float64
		for _, r := range rows {
			if knn.SquaredDistance(q, r) == R {
				p = r
				break
			}
		}
		if p == nil {
			t.Fatalf("cell %d: no training row at the bound", c)
		}
		if row := ulpWalk(q, p, target); row != nil {
			b := remwal.Batch{Key: g.pre.MACs[ki], Points: []geom.Vec3{geom.V(row[0], row[1], row[2])}, Values: []float64{20}}
			g.step(t, b)
			if !g.ras.masked {
				t.Fatal("crafted batch took the full path")
			}
			found := false
			for _, r := range g.ras.reached {
				found = found || r == c
			}
			if !found {
				t.Fatalf("cell %d: row one ulp inside its bound not re-predicted", c)
			}
			return
		}
	}
	t.Fatal("no cell admits a row one ulp inside its bound")
}

// ulpWalk searches rows within ±12 ulps of p per axis for one whose
// squared distance to q is exactly target.
func ulpWalk(q, p []float64, target float64) []float64 {
	const span = 12
	step := func(v float64, n int) float64 {
		for ; n > 0; n-- {
			v = math.Nextafter(v, math.Inf(1))
		}
		for ; n < 0; n++ {
			v = math.Nextafter(v, math.Inf(-1))
		}
		return v
	}
	for i := -span; i <= span; i++ {
		for j := -span; j <= span; j++ {
			for k := -span; k <= span; k++ {
				row := []float64{step(p[0], i), step(p[1], j), step(p[2], k)}
				if knn.SquaredDistance(q, row) == target {
					return row
				}
			}
		}
	}
	return nil
}
