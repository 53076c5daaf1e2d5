package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// metricDef declares one reported metric. The two tables below are the
// benchmark's schema; BENCHMARK.json at the repository root declares
// exactly the same names and units (TestSchemaMatchesBenchmarkJSON).
type metricDef struct{ name, unit string }

// endToEnd is what a user of the stack sees. Every workload reports
// every one of them; what "a point" and "the latency" mean on each
// workload is in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"pts_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
}

// perLayer is what the traced run reports, one rung of the query or
// ingest ladder each. A workload that does not exercise a layer
// reports 0 for it, with a count of 0 beside it where there is one.
var perLayer = []metricDef{
	{"remserve.get_at.p50_us", "us"},
	{"remserve.get_at.p99_us", "us"},
	{"remserve.get_at.count", "count"},
	{"remserve.get_strongest.p50_us", "us"},
	{"remserve.get_strongest.p99_us", "us"},
	{"remserve.get_strongest.count", "count"},
	{"remserve.post_at_bin.p50_us", "us"},
	{"remserve.post_at_bin.p99_us", "us"},
	{"remserve.post_at_bin.count", "count"},
	{"remserve.post_strongest_bin.p50_us", "us"},
	{"remserve.post_strongest_bin.p99_us", "us"},
	{"remserve.post_strongest_bin.count", "count"},
	{"remserve.overhead_us_per_req", "us"},
	{"remserve.post_observe.ack_p50_ms", "ms"},
	{"remserve.post_observe.ack_tail_ms", "ms"},
	{"remserve.post_observe.refused", "count"},
	{"rem.at_ns", "ns"},
	{"rem.strongest_ns", "ns"},
	{"rem.at_batch_ns_per_pt", "ns"},
	{"rem.strongest_batch_ns_per_pt", "ns"},
	{"rem.coverindex.candidates_per_cube", "count"},
	{"rem.coverindex.prune_ratio", "ratio"},
	{"rem.snapshot_bytes", "bytes"},
	{"remwal.append_fsync.p50_us", "us"},
	{"remwal.append_fsync.p99_us", "us"},
	{"remwal.replay_ms", "ms"},
	{"remwal.replay_mb_per_s", "MB/s"},
	{"remwal.queue_wait_ms.p50", "ms"},
	{"remwal.queue_wait_ms.tail", "ms"},
	{"core.batch_ms.p50", "ms"},
	{"core.batch_ms.tail", "ms"},
	{"core.replay_batch_ms.p50", "ms"},
	{"core.replay_batch_ms.tail", "ms"},
	{"core.bootstrap_ms", "ms"},
	{"core.observe_ms_mean", "ms"},
	{"core.refit_ms_mean", "ms"},
	{"core.rebuild_ms_mean", "ms"},
	{"core.publish_ms_mean", "ms"},
	{"core.coverindex_mend_ms_mean", "ms"},
	{"remfollow.lag_ms.p50", "ms"},
	{"remfollow.lag_ms.tail", "ms"},
	{"remfollow.replica_visible_ms.p50", "ms"},
	{"remfollow.replica_visible_ms.tail", "ms"},
	{"remfollow.read_p50_us", "us"},
	{"remfollow.read_p99_us", "us"},
	{"remfollow.not_modified_ratio", "ratio"},
	{"remfollow.delta_bytes_per_delta", "bytes"},
	{"remfollow.fulls", "count"},
	{"remfollow.failures", "count"},
	{"remfollow.sync_ms_mean", "ms"},
	{"gen.late_ms.tail", "ms"},
	{"gen.timer_overshoot_us.p50", "us"},
	{"trace.spans", "count"},
}

// unitOf finds a declared metric's unit.
func unitOf(name string) (string, bool) {
	for _, t := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range t {
			if m.name == name {
				return m.unit, true
			}
		}
	}
	return "", false
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one workload's measurements, its operation counts
// and anything that went wrong.
type report struct {
	values    map[string]float64
	notes     map[string]string
	order     []string
	attempted int
	failed    int
	problems  []string
	// extra lines for the human-readable part (ladder sums, checks).
	lines []string
}

func newReport() *report {
	return &report{values: map[string]float64{}, notes: map[string]string{}}
}

// set records a declared metric with an optional note (sample count,
// percentile used). Setting an undeclared name is a bug.
func (r *report) set(name string, v float64, note string) {
	if _, ok := unitOf(name); !ok {
		panic("rembench: undeclared metric " + name)
	}
	if _, seen := r.values[name]; !seen {
		r.order = append(r.order, name)
	}
	r.values[name] = v
	r.notes[name] = note
}

// fail records a failed, refused or wrong operation.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problem(format, args...)
}

// problem records something that makes the run incorrect without being
// an operation of its own (a check on aggregate results). Only the
// first few messages are kept: one is enough to start debugging.
func (r *report) problem(format string, args ...any) {
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	if r.failed == 0 {
		r.failed = 1
	}
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// writeHuman prints every recorded metric by name, value, unit and
// note, then the extra lines and any problems.
func (r *report) writeHuman(w io.Writer) {
	for _, name := range r.order {
		unit, _ := unitOf(name)
		fmt.Fprintf(w, "  %-38s %-14s %-6s %s\n", name, fmtValue(r.values[name]), unit, r.notes[name])
	}
	for _, l := range r.lines {
		fmt.Fprintf(w, "  %s\n", l)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d\n", r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
}

func fmtValue(v float64) string {
	s := fmt.Sprintf("%.6g", v)
	if strings.ContainsAny(s, "e") {
		return fmt.Sprintf("%.1f", v)
	}
	return s
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultFor assembles the result line over the given metric table. A
// per-layer metric the workload does not exercise is reported as 0; an
// end-to-end metric must always be present.
func resultFor(r *report, table []metricDef, required bool) result {
	res := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range table {
		v, ok := r.values[m.name]
		if !ok && required {
			res.Correct = false
			if res.Failed == 0 {
				res.Failed = 1
			}
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	return res
}

func writeResult(w io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
