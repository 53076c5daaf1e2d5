package rem

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/simrand"
)

// TestWithCellsWritesOnlyGivenCells: the derived map holds the given
// values at the given cells and the parent's bits everywhere else, is
// Equal to the same write done through a full-key rebuild, clones only
// the tiles whose bits changed, and leaves the parent untouched.
func TestWithCellsWritesOnlyGivenCells(t *testing.T) {
	m := buildTestMap(t, field(0), 1) // 315 cells per key: tiles of 256 + 59
	const ki = 2
	cells := []int{3, 200, 260} // tile 0 twice, tile 1 once
	vals := []float64{-1, -2, -3}
	next, err := m.WithCells(ki, cells, vals)
	if err != nil {
		t.Fatal(err)
	}
	if next.Version() != m.Version()+1 {
		t.Fatalf("version %d, want %d", next.Version(), m.Version()+1)
	}
	want := map[int]float64{3: -1, 200: -2, 260: -3}
	f0 := field(0)
	ref, err := m.RebuildKeys([]int{ki}, func(c []geom.Vec3, k int) ([]float64, error) {
		out, _ := f0(c, k)
		for i, p := range c {
			for idx, v := range want {
				if p == m.CellCenter(idx) {
					out[i] = v
				}
			}
		}
		return out, nil
	}, BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !next.Equal(ref) {
		t.Fatal("WithCells differs from the same write through RebuildKeys")
	}
	for idx, v := range want {
		if got := next.val(ki, idx); got != v {
			t.Fatalf("cell %d = %v, want %v", idx, got, v)
		}
		if got, _ := f0([]geom.Vec3{m.CellCenter(idx)}, ki); m.val(ki, idx) != got[0] {
			t.Fatalf("parent cell %d was modified", idx)
		}
	}
	if shared := next.SharedTiles(m); shared != m.NumTiles()-2 {
		t.Fatalf("shared %d of %d tiles, want all but the two written", shared, m.NumTiles())
	}
	// Rewriting the current bits clones nothing.
	same, err := next.WithCells(ki, cells, vals)
	if err != nil {
		t.Fatal(err)
	}
	if same.SharedTiles(next) != next.NumTiles() || !same.Equal(next) {
		t.Fatal("an unchanged write did not share every tile")
	}
	// A NaN rewritten with the same payload is unchanged too.
	nan := math.Float64frombits(0x7ff8000000000abc)
	withNaN, err := next.WithCells(0, []int{7}, []float64{nan})
	if err != nil {
		t.Fatal(err)
	}
	again, err := withNaN.WithCells(0, []int{7}, []float64{nan})
	if err != nil {
		t.Fatal(err)
	}
	if again.SharedTiles(withNaN) != withNaN.NumTiles() {
		t.Fatal("rewriting a NaN payload cloned a tile")
	}
}

func TestWithCellsValidation(t *testing.T) {
	m := buildTestMap(t, field(0), 1)
	for name, call := range map[string]func() error{
		"key below":   func() error { _, err := m.WithCells(-1, nil, nil); return err },
		"key above":   func() error { _, err := m.WithCells(4, nil, nil); return err },
		"cell above":  func() error { _, err := m.WithCells(0, []int{315}, []float64{1}); return err },
		"cell below":  func() error { _, err := m.WithCells(0, []int{-1}, []float64{1}); return err },
		"length skew": func() error { _, err := m.WithCells(0, []int{1, 2}, []float64{1}); return err },
	} {
		if call() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestCoverIndexMendWithCells: rule 9 holds on chains of cell-masked
// derivations, whose index is mended around the changed cells only, and
// a write that changes nothing shares the parent's index outright.
func TestCoverIndexMendWithCells(t *testing.T) {
	rng := simrand.New(9003)
	for trial := 0; trial < 15; trial++ {
		m := gnarlyMap(t, rng, uint64(trial))
		m.BuildCoverIndex()
		for gen := 1; gen <= 4; gen++ {
			ki := rng.Intn(len(m.Keys()))
			palette := gnarlyPredict(uint64(trial)*100 + uint64(gen))
			var cells []int
			for idx := 0; idx < m.stride; idx++ {
				if rng.Intn(3) == 0 {
					cells = append(cells, idx)
				}
			}
			centres := make([]geom.Vec3, len(cells))
			for i, idx := range cells {
				centres[i] = m.CellCenter(idx)
			}
			vals, _ := palette(centres, ki)
			next, err := m.WithCells(ki, cells, vals)
			if err != nil {
				t.Fatal(err)
			}
			tag := fmt.Sprintf("trial %d gen %d", trial, gen)
			requireRule9(t, rng, next, tag)
			if mended, _ := next.CoverMendStats(); mended > 8*len(cells) {
				t.Fatalf("%s: mended %d cubes for %d written cells", tag, mended, len(cells))
			}
			m = next
		}
		same, err := m.WithCells(0, []int{0}, []float64{m.val(0, 0)})
		if err != nil {
			t.Fatal(err)
		}
		if same.cover.Load() != m.cover.Load() {
			t.Fatalf("trial %d: an unchanged write did not share the index", trial)
		}
	}
}
