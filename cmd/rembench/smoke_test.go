package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// schema test compares against the code.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, workloads)
	}
	var e2e, layer []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %s: better %q bound %g", m.Name, m.Better, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, code reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, code reports %v", layer, perLayer)
	}
}

// smokeConfig is the benchmark at a scale that runs every workload in
// a few seconds: small grids, short batches, one set-up.
func smokeConfig(t *testing.T) config {
	cfg := defaultConfig()
	cfg.seconds = 0.3
	cfg.workdir = t.TempDir()
	cfg.bulkGrid = [3]int{12, 10, 6}
	cfg.bulkPoints = 32
	cfg.setups, cfg.setupTime = 1, 0
	cfg.maxLate = time.Second // timing is not under test here, and -race is slow
	return cfg
}

// TestSmokeEveryWorkload runs each workload untraced and traced, in
// the order of a `-workload all` run (so recover checks ingest_live's
// final snapshot), and checks that nothing failed and that each result
// line carries exactly the declared metrics.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the serving stacks")
	}
	for _, traced := range []bool{false, true} {
		cfg := smokeConfig(t)
		w := newWorld(cfg.seed)
		sh := &shared{}
		for _, name := range workloads {
			var tr *tracer
			table, required := endToEnd, true
			if traced {
				tr, table, required = &tracer{}, perLayer, false
			}
			rep := runWorkload(cfg, name, w, tr, sh)
			res := resultFor(rep, table, required)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced %v): correct %v, %d of %d failed: %v", name, traced, res.Correct, res.Failed, res.Attempted, rep.problems)
			}
			var got, want []string
			for k, v := range res.Metrics {
				got = append(got, k)
				if u, _ := unitOf(k); v.Unit != u {
					t.Errorf("%s: %s unit %q, declared %q", name, k, v.Unit, u)
				}
			}
			for _, m := range table {
				want = append(want, m.name)
			}
			sort.Strings(got)
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (traced %v) emitted %v, want %v", name, traced, got, want)
			}
			if !traced {
				for _, m := range endToEnd {
					if v := res.Metrics[m.name].Value; !(v > 0) {
						t.Errorf("%s: end-to-end %s = %g, must be positive", name, m.name, v)
					}
				}
			}
		}
		if sh.ingestSHA == nil {
			t.Errorf("traced %v: ingest_live recorded no final snapshot for recover to check", traced)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-trace", "2"},
		{"-seconds", "0"},
		{"extra"},
		{"-nosuchflag"},
	} {
		if code := run(args, os.Stdout, devNull(t)); code == 0 {
			t.Errorf("run(%v) exited 0", args)
		}
	}
}

func devNull(t *testing.T) *os.File {
	f, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}
