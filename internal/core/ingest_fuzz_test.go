package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/remwal"
)

// FuzzIngestRaster is the differential fuzzer of the ingest loop's
// derivation (ingestRaster). Bytes decode to a short sequence of batches
// on the maskRes grid, driven exactly as RunIngestWithDataset drives
// them — Observe, then next, with no Refit of the test's own. Rows snap
// to cell centres, midpoints of two centres, earlier rows and mirror
// images of earlier rows through a centre, so distance ties are common;
// some batches carry rows of a second key, and so take the full-key
// path. After every batch the derived map must equal a from-scratch
// build on the cumulative rows (rule 7), and every stored neighbour set
// and bound must equal a brute-force k-nearest over its key's rows.
// Some batches carry a non-finite value or coordinate: the queue must
// refuse them before the WAL, and Observe must refuse them too (an
// in-process replay), leaving the model as it was.
func FuzzIngestRaster(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 0, 0, 5},
		{1, 0, 2, 7, 2, 9, 3, 200, 0, 4, 17, 40, 90},
		{7, 0, 0, 11, 1, 11, 1, 11, 2, 0, 3, 5, 6, 0, 12, 0, 12},
		{33, 6, 5, 3, 2, 1, 0, 70, 1, 4, 4, 4, 9, 250, 11, 30, 0, 2},
		{14, 1, 3, 0, 99, 5, 10, 20, 30, 8, 0, 2, 1, 1, 77},
		{22, 2, 0, 64, 3, 64, 1, 64, 65, 28, 3, 4, 3, 5, 2, 3},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := newMaskRig(t, 1)
		in := fuzzInput(data)
		seen := make([][]float64, 0, len(g.cumX))
		for _, row := range g.cumX {
			seen = append(seen, row[:3])
		}
		nKeys := len(g.pre.MACs)
		for n := 0; n < 8 && len(in) > 0; n++ {
			head, flags := in.next(), in.next()
			ki := head % nKeys
			rows := 1 + (head/nKeys)%6
			var x [][]float64
			var y []float64
			for j := 0; j < rows; j++ {
				p := fuzzPoint(&in, g.xyz, seen)
				row := make([]float64, g.dim)
				copy(row, p)
				row[3+ki] = 1
				x = append(x, row)
				y = append(y, -45-float64(in.next()%40))
				seen = append(seen, row[:3])
			}
			if flags&1 != 0 {
				// A row of the next key: a multi-key batch.
				row := make([]float64, g.dim)
				copy(row, x[0][:3])
				row[3+(ki+1)%nKeys] = 1
				x, y = append(x, row), append(y, y[0])
			}
			if flags&6 == 6 {
				// One non-finite value or coordinate.
				j := in.next() % len(x)
				switch in.next() % 5 {
				case 0:
					y[j] = math.NaN()
				case 1:
					y[j] = math.Inf(1)
				case 2:
					y[j] = math.Inf(-1)
				case 3:
					x[j][0] = math.Inf(1)
				default:
					x[j][2] = math.Inf(-1)
				}
				g.requireRefused(t, n, ki, x, y)
				continue
			}
			g.fuzzStep(t, n, ki, x, y)
		}
	})
}

// fuzzInput reads the fuzzer's bytes, then zeros once they run out.
type fuzzInput []byte

func (in *fuzzInput) next() int {
	if len(*in) == 0 {
		return 0
	}
	v := (*in)[0]
	*in = (*in)[1:]
	return int(v)
}

// fuzzPoint decodes one row position: a cell centre, the midpoint of two
// centres, an earlier row, the mirror image of an earlier row through a
// centre (equidistant from it), or a point on a coarse lattice.
func fuzzPoint(in *fuzzInput, centres, seen [][]float64) []float64 {
	p := make([]float64, 3)
	switch in.next() % 5 {
	case 0:
		copy(p, centres[in.next()%len(centres)])
	case 1:
		a, b := centres[in.next()%len(centres)], centres[in.next()%len(centres)]
		for i := range p {
			p[i] = (a[i] + b[i]) / 2
		}
	case 2:
		copy(p, seen[in.next()%len(seen)])
	case 3:
		c, r := centres[in.next()%len(centres)], seen[in.next()%len(seen)]
		for i := range p {
			p[i] = c[i] - (r[i] - c[i])
		}
	default:
		p[0], p[1], p[2] = 3.74*float64(in.next())/255, 3.2*float64(in.next())/255, 2.1*float64(in.next())/255
	}
	return p
}

// fuzzStep runs one batch as the loop does and checks it against both
// oracles.
func (g *maskRig) fuzzStep(t *testing.T, n, ki int, x [][]float64, y []float64) {
	t.Helper()
	dirty, err := g.pk.Observe(x, y)
	if err != nil {
		t.Fatal(err)
	}
	next, _, err := g.ras.next(g.cur, ki, x, resolveDirty(dirty, len(g.pre.MACs), false))
	if err != nil {
		t.Fatal(err)
	}
	g.cumX, g.cumY = append(g.cumX, x...), append(g.cumY, y...)
	if !next.Equal(g.fromScratch(t)) {
		t.Fatalf("batch %d key %d (masked=%v): derived map differs from a from-scratch build", n, ki, g.ras.masked)
	}
	g.cur = next
	g.checkSets(t, fmt.Sprintf("batch %d (masked=%v)", n, g.ras.masked))
}

// requireRefused asserts a batch with a non-finite row never reaches the
// model: Queue.Submit refuses it before any WAL append, and Observe
// refuses it as well.
func (g *maskRig) requireRefused(t *testing.T, n, ki int, x [][]float64, y []float64) {
	t.Helper()
	b := remwal.Batch{Key: g.pre.MACs[ki]}
	for i, row := range x {
		b.Points = append(b.Points, geom.V(row[0], row[1], row[2]))
		b.Values = append(b.Values, y[i])
	}
	q := remwal.NewQueue(remwal.QueueConfig{})
	defer q.Close()
	if _, err := q.Submit(b); err == nil {
		t.Fatalf("batch %d: the queue accepted a non-finite row", n)
	}
	if _, err := g.pk.Observe(x, y); err == nil {
		t.Fatalf("batch %d: Observe accepted a non-finite row", n)
	}
}

// checkSets compares every stored neighbour set and bound with a
// brute-force k-nearest over the key's rows in arrival order, ranked by
// (sqrt of the sum, position): positions -1 and bound +Inf for a key
// below k rows.
func (g *maskRig) checkSets(t *testing.T, label string) {
	t.Helper()
	k, stride := g.ras.k, g.ras.stride
	for ki := range g.pre.MACs {
		var rows [][]float64
		for _, row := range g.cumX {
			if row[3+ki] != 0 {
				rows = append(rows, row[:3])
			}
		}
		for c, q := range g.xyz {
			set := g.ras.sets[(ki*stride+c)*k : (ki*stride+c+1)*k]
			R := g.ras.kth[ki*stride+c]
			want, wantR := bruteSet(q, rows, k)
			if fmt.Sprint(set) != fmt.Sprint(want) || math.Float64bits(R) != math.Float64bits(wantR) {
				t.Fatalf("%s: key %d cell %d: set %v bound %v, brute force %v bound %v", label, ki, c, set, R, want, wantR)
			}
		}
	}
}

// bruteSet is the k nearest of rows to q by full scan.
func bruteSet(q []float64, rows [][]float64, k int) ([]int32, float64) {
	if len(rows) < k {
		set := make([]int32, k)
		for i := range set {
			set[i] = -1
		}
		return set, math.Inf(1)
	}
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
