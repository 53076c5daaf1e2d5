package remstore

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/rem"
)

// gradMap builds a map whose field tilts with the generation, so every
// RebuildKeys derivation really moves cells and forces an index mend.
func gradMap(t testing.TB, gen int, keys []string) *rem.Map {
	t.Helper()
	m, err := rem.BuildMapBatch(testVol, 6, 5, 4, keys, gradPredict(gen), rem.BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func gradPredict(gen int) rem.BatchPredictFunc {
	return func(centers []geom.Vec3, k int) ([]float64, error) {
		out := make([]float64, len(centers))
		for i, p := range centers {
			out[i] = -60 - p.X*float64(gen) - 2*p.Y + float64(k)*0.5
		}
		return out, nil
	}
}

// TestPublishBuildsCoverIndex: a published map carries a coverage index
// (built at publish time before the snapshot becomes visible), and the
// served answers match the brute scan (rule 9 at the store layer).
func TestPublishBuildsCoverIndex(t *testing.T) {
	keys := []string{"a", "b", "c"}
	st := New(2)
	if _, err := st.Publish(gradMap(t, 1, keys), len(keys)); err != nil {
		t.Fatal(err)
	}
	s := st.Current()
	if !s.Map().HasCoverIndex() {
		t.Fatal("published snapshot has no coverage index")
	}
	p := geom.V(1.3, 0.7, 1.1)
	key, v, _, err := st.Strongest(p)
	if err != nil {
		t.Fatal(err)
	}
	bk, bv := s.Map().StrongestBrute(p)
	if key != bk || math.Float64bits(v) != math.Float64bits(bv) {
		t.Fatalf("indexed store answer (%q, %v) != brute (%q, %v)", key, v, bk, bv)
	}
}

// TestStrongestBatchIntoMatchesStrongest: the zero-alloc batch entry
// point answers exactly like per-point Strongest against one snapshot.
func TestStrongestBatchIntoMatchesStrongest(t *testing.T) {
	keys := []string{"a", "b", "c", "d"}
	st := New(2)
	if _, err := st.Publish(gradMap(t, 2, keys), len(keys)); err != nil {
		t.Fatal(err)
	}
	pts := []geom.Vec3{{X: 0.2, Y: 0.3, Z: 0.1}, {X: 3.9, Y: 2.8, Z: 2.5}, {X: 2, Y: 1.5, Z: 1.3}}
	ks := make([]string, len(pts))
	vs := make([]float64, len(pts))
	ver, err := st.StrongestBatchInto(ks, vs, pts)
	if err != nil {
		t.Fatal(err)
	}
	if ver != st.Current().Version() {
		t.Fatalf("batch version %d, serving %d", ver, st.Current().Version())
	}
	for i, p := range pts {
		wk, wv, _, err := st.Strongest(p)
		if err != nil {
			t.Fatal(err)
		}
		if ks[i] != wk || math.Float64bits(vs[i]) != math.Float64bits(wv) {
			t.Fatalf("point %d: batch (%q, %v) != Strongest (%q, %v)", i, ks[i], vs[i], wk, wv)
		}
	}
	if _, err := st.StrongestBatchInto(ks[:1], vs, pts); err == nil {
		t.Fatal("mismatched buffers accepted")
	}
}

// TestCoverIndexPublishRace hammers Strongest/StrongestBatch readers
// while a publisher streams index-mending RebuildKeys generations
// through the store — the in-flight-query-during-mend scenario. Run
// under -race in CI; the readers also verify each answer against the
// brute scan on the same snapshot, so a torn index would fail loudly
// even without the race detector.
func TestCoverIndexPublishRace(t *testing.T) {
	keys := []string{"k0", "k1", "k2", "k3", "k4"}
	st := New(3)
	m := gradMap(t, 1, keys)
	if _, err := st.Publish(m, len(keys)); err != nil {
		t.Fatal(err)
	}

	const rounds = 40
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			pts := make([]geom.Vec3, 8)
			ks := make([]string, len(pts))
			vs := make([]float64, len(pts))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := geom.V(float64((i+seed)%5), float64(i%4)*0.7, float64(i%3)*0.9)
				s := st.Current()
				key, v := s.Map().Strongest(p)
				bk, bv := s.Map().StrongestBrute(p)
				if key != bk || math.Float64bits(v) != math.Float64bits(bv) {
					panic(fmt.Sprintf("indexed (%q, %v) != brute (%q, %v) during publish race", key, v, bk, bv))
				}
				for j := range pts {
					pts[j] = geom.V(p.X+float64(j)*0.3, p.Y, p.Z)
				}
				if _, err := st.StrongestBatchInto(ks, vs, pts); err != nil {
					panic(err)
				}
			}
		}(r)
	}
	cur := m
	for gen := 2; gen <= rounds; gen++ {
		next, err := cur.RebuildKeys([]int{gen % len(keys), (gen + 1) % len(keys)}, gradPredict(gen), rem.BuildOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !next.HasCoverIndex() {
			t.Fatalf("gen %d: rebuild lost the index", gen)
		}
		if _, err := st.Publish(next, 2); err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	close(stop)
	wg.Wait()
}
