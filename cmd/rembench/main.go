// Command rembench is the repository's end-to-end benchmark: it boots
// the REM serving stack in this process on 127.0.0.1 — the same public
// constructors remgen uses, with a remobs Observer attached — drives it
// over real sockets with inputs generated from -seed, checks every
// answer, and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":U},…}}
//
// holding the end-to-end metrics, or with -trace 1 the per-layer ones.
// Workloads (see README.md for why each exists):
//
//	query_point   closed loop, 2 clients: GET /at and GET /strongest, paper grid
//	query_bulk    closed loop, 2 clients: binary POST /at and /strongest, fine grid
//	ingest_live   open-loop POST /observe writer + closed-loop follower reader
//	recover       restart from the WAL ingest_live leaves behind
//
// Usage (from the repository root; run.sh builds from source first):
//
//	bash cmd/rembench/run.sh -workload query_point -seed 1 -seconds 20 -trace 0
//	bash cmd/rembench/run.sh -workload all -seed 1
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// config is one run's settings. The command line sets the seed, the
// duration and tracing; the rest are the benchmark's fixed scale, which
// the smoke test shrinks.
type config struct {
	seed       uint64
	seconds    float64
	trace      bool
	spans      string // JSON-lines span file of a traced run
	workdir    string // WALs live here during the run
	bulkGrid   [3]int
	bulkPoints int
	setups     int           // at least this many set-ups per run...
	setupTime  time.Duration // ...and more, up to maxSetups, until this much time is spent
	// maxLate is how late the open-loop writer may run at its tail
	// before the run is rejected: past it, the numbers measure the
	// generator.
	maxLate time.Duration
}

func defaultConfig() config {
	return config{
		seed:       1,
		seconds:    20,
		workdir:    filepath.Join(".bench_build", "rembench"),
		bulkGrid:   [3]int{24, 20, 12}, // the "fine-grained" REM: 8x the paper's cells, ~2 MB
		bulkPoints: 512,
		setups:     3,
		setupTime:  time.Second,
		maxLate:    10 * time.Millisecond,
	}
}

func (c config) measure() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// warmup lets connections, pools and caches settle before the closed
// loops are measured: a fifth of the run, between 0.2 s and 5 s.
func (c config) warmup() time.Duration {
	return min(max(c.measure()/5, 200*time.Millisecond), 5*time.Second)
}

const (
	// maxSetups bounds the set-ups of one run.
	maxSetups = 15
	// numClients is the closed loops' client count: one connection
	// each, nproc on the reference host.
	numClients = 2
	// ingestRate is ingest_live's open-loop rate, in batches per second.
	ingestRate = 10.0
)

// pointGrid is query_point's grid, the paper's: 254 KB of cells, fits
// in L2.
var pointGrid = [3]int{12, 10, 6}

// moreSetups reports whether set-up i should run: set-up time is the
// median of several set-ups, as many as fit in setupTime (at least
// setups, at most maxSetups), so that cheap set-ups are timed often.
func (c config) moreSetups(i int, start time.Time) bool {
	return i < c.setups || (i < maxSetups && time.Since(start) < c.setupTime)
}

// batches is how many observation batches ingest_live sends in its
// run, and so how long a WAL recover replays.
func (c config) batches() int { return max(1, int(math.Round(ingestRate*c.seconds))) }

// shared carries results between the workloads of one `-workload all`
// run, which run one after another: ingest_live's final leader
// snapshot, which recover's restarts must reproduce byte for byte
// (rule 10).
type shared struct {
	ingestSHA     *[32]byte
	ingestVersion uint64
}

var workloads = []string{"query_point", "query_bulk", "ingest_live", "recover"}

// runWorkload runs one workload; tr is nil for an untraced run.
func runWorkload(cfg config, name string, w *world, tr *tracer, sh *shared) *report {
	switch name {
	case "query_point":
		return runQuery(cfg, w, false, tr)
	case "query_bulk":
		return runQuery(cfg, w, true, tr)
	case "ingest_live":
		return runIngestLive(cfg, w, tr, sh)
	case "recover":
		return runRecover(cfg, w, tr, sh)
	}
	rep := newReport()
	rep.fail("unknown workload %q (want %s or all)", name, strings.Join(workloads, ", "))
	return rep
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("rembench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(workloads, ", ")+" or all")
	fs.Uint64Var(&cfg.seed, "seed", cfg.seed, "seed every input is generated from")
	fs.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "measured duration of each workload")
	trace := fs.Int("trace", 0, "1: report the per-layer metrics and write spans (see -spans)")
	fs.StringVar(&cfg.spans, "spans", "", "span file of a traced run (default <workdir>/spans-<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || cfg.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "rembench: want -workload W -seed N -seconds S -trace 0|1 and no other arguments")
		return 2
	}
	cfg.trace = *trace == 1
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "rembench:", err)
		return 1
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	}

	bw := bufio.NewWriter(stdout)
	defer bw.Flush()
	fmt.Fprintf(bw, "rembench seed=%d seconds=%g trace=%d cpu=%q num_cpu=%d gomaxprocs=%d go=%s\n",
		cfg.seed, cfg.seconds, *trace, cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	w := newWorld(cfg.seed)
	sh := &shared{}
	total := newReport()
	var res result
	for _, name := range names {
		// A workload of the benchmark's own length must end inside
		// three minutes; a wedged one is reported, never waited on.
		watchdog := time.AfterFunc(max(170*time.Second, 3*cfg.measure()+30*time.Second), func() {
			fmt.Fprintf(stderr, "rembench: %s did not finish in time\n", name)
			os.Exit(3)
		})
		var tr *tracer
		var overshoot float64
		if cfg.trace {
			tr = &tracer{}
			overshoot = timerOvershoot()
		}
		rep := runWorkload(cfg, name, w, tr, sh)
		watchdog.Stop()
		table, required := endToEnd, true
		if tr != nil {
			table, required = perLayer, false
			rep.set("gen.timer_overshoot_us.p50", overshoot, "time.Sleep(500µs) before the workload, n=200")
			path := cfg.spans
			if path == "" || len(names) > 1 {
				path = filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d.jsonl", name, cfg.seed))
			}
			rep.set("trace.spans", float64(tr.len()), path)
			if err := tr.write(path); err != nil {
				rep.problem("writing spans: %v", err)
			}
		}
		fmt.Fprintf(bw, "%s\n", name)
		rep.writeHuman(bw)
		for _, p := range rep.problems {
			fmt.Fprintf(stderr, "rembench: %s: %s\n", name, p)
		}
		res = resultFor(rep, table, required)
		total.attempted += res.Attempted
		total.failed += res.Failed
		if !res.Correct {
			total.problem("%s is not correct", name)
		}
	}
	if len(names) > 1 {
		// The result line of a single workload carries its metrics; a
		// run of all of them only the totals (each workload's metrics
		// are in the lines above).
		res = result{Correct: total.correct(), Attempted: total.attempted, Failed: total.failed, Metrics: map[string]metricValue{}}
	}
	if err := writeResult(bw, res); err != nil {
		fmt.Fprintln(stderr, "rembench:", err)
		return 1
	}
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// cpuModel is the CPU model line of /proc/cpuinfo, for the result
// stamp ("unknown" where there is none).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
