package main

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/geom"
)

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	a, b, c := newWorld(7), newWorld(7), newWorld(8)
	if !reflect.DeepEqual(a.macs, b.macs) || !reflect.DeepEqual(a.aps, b.aps) || !reflect.DeepEqual(a.zipf, b.zipf) {
		t.Fatal("same seed, different worlds")
	}
	if reflect.DeepEqual(a.macs, c.macs) || reflect.DeepEqual(a.zipf.perm, c.zipf.perm) {
		t.Fatal("different seeds, same world")
	}
	if len(a.macs) != numAPs {
		t.Fatalf("%d APs, want %d", len(a.macs), numAPs)
	}
	// The building and the flight plan are the same for every seed; only
	// which AP carries which MAC changes.
	if !reflect.DeepEqual(a.waypoints, c.waypoints) || len(a.waypoints) != numWaypoints {
		t.Fatal("waypoints differ across seeds")
	}
	if !reflect.DeepEqual(sortedPositions(a.aps), sortedPositions(c.aps)) {
		t.Fatal("AP positions differ across seeds")
	}
	for i := 1; i < len(a.macs); i++ {
		if a.macs[i-1] >= a.macs[i] {
			t.Fatalf("MACs not sorted and distinct at %d", i)
		}
	}

	sa, sb, sc := a.survey(), b.survey(), c.survey()
	if !reflect.DeepEqual(sa, sb) {
		t.Fatal("survey differs for the same seed")
	}
	if reflect.DeepEqual(sa.Samples, sc.Samples) {
		t.Fatal("survey identical across seeds")
	}
	if got := sa.Len(); got != numWaypoints*numAPs {
		t.Fatalf("survey has %d samples, want %d", got, numWaypoints*numAPs)
	}
	if st := sa.Stats(); st.PerUAV["A"] != st.PerUAV["B"] || st.DistinctMACs != numAPs {
		t.Fatalf("survey stats %+v", st)
	}

	oa, ob, oc := a.observations(20), b.observations(20), c.observations(20)
	if !reflect.DeepEqual(oa, ob) {
		t.Fatal("observations differ for the same seed")
	}
	if reflect.DeepEqual(oa, oc) {
		t.Fatal("observations identical across seeds")
	}
	for i, batch := range oa {
		if len(batch.Points) != readingsPerObs || len(batch.Values) != readingsPerObs {
			t.Fatalf("batch %d has %d readings", i, len(batch.Points))
		}
		for j, p := range batch.Points {
			if !a.vol.Contains(p) {
				t.Fatalf("batch %d reading %d at %v outside the scan volume", i, j, p)
			}
		}
	}
	// The walk alternates between two UAVs; each UAV's consecutive
	// readings are at most one step apart.
	for i := 2; i < len(oa); i++ {
		prev, cur := oa[i-2].Points[readingsPerObs-1], oa[i].Points[0]
		if d := prev.Dist(cur); d > maxStep+1e-12 {
			t.Fatalf("UAV path jumps %g m between batches %d and %d", d, i-2, i)
		}
	}

	qa, qb, qc := a.queries("x", 50), b.queries("x", 50), c.queries("x", 50)
	if !reflect.DeepEqual(qa, qb) || reflect.DeepEqual(qa, qc) {
		t.Fatal("queries not deterministic per seed or not seed-dependent")
	}
	if reflect.DeepEqual(qa, a.queries("y", 50)) {
		t.Fatal("query streams of different clients coincide")
	}
}

func sortedPositions(ps []geom.Vec3) []geom.Vec3 {
	out := append([]geom.Vec3(nil), ps...)
	sort.Slice(out, func(i, j int) bool { return out[i].X < out[j].X })
	return out
}

func TestZipfFavoursLowRanks(t *testing.T) {
	w := newWorld(3)
	r := newRNG(3, "zipf-test")
	counts := make([]int, numAPs)
	for i := 0; i < 200000; i++ {
		counts[w.zipf.draw(r)]++
	}
	hot, cold := counts[w.zipf.perm[0]], counts[w.zipf.perm[numAPs-1]]
	// P(rank 1)/P(rank 44) = 44^1.1 ≈ 64.
	if ratio := float64(hot) / float64(cold); ratio < 40 || ratio > 100 {
		t.Fatalf("hot/cold draw ratio %g, want ≈ 64 (counts %d/%d)", ratio, hot, cold)
	}
}
