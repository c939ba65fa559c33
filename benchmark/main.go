// Command benchmark is the repository's end-to-end benchmark. It runs one
// workload for a fixed time, checks every output, and prints its metrics
// as one JSON object on the last line of standard output:
//
//	bash benchmark/run.sh --workload scenario_cold --seed 1 --seconds 20 --trace 0
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//   - fig10_small: experiments.Fig10(experiments.Small), the paper's Fig. 10
//     pipeline (7 DQN training cells, 63 GTS/static/hybrid sample cells),
//     on a fresh in-memory store per pass.
//   - scenario_cold: a scenario.Matrix of 120 generated programs on three
//     machines of the default zoo, through a loopback coordinator and one
//     campaign.Worker, into a fresh on-disk ShardedStore per pass.
//   - scenario_warm: the same matrix, banked once, then re-read per pass by
//     reopening the store and running the grid on the in-process pool.
//
// Every workload uses one executor, and GOGC/GOMAXPROCS keep their
// defaults. --trace 1 alternates traced and untraced passes: the traced
// passes give the per-layer metrics, the untraced ones the tracing
// overhead. The spans are written to <work>/trace/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed whose result fingerprints are committed in
// reference.json.
const defaultSeed = 1

// defaultPrograms is the scenario workloads' program count (see
// scenarioMatrix).
const defaultPrograms = 120

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workDir  string // stores, temp directories and traces live under it

	// Grid size of the scenario workloads.
	programs  int
	platforms []string // nil = three machines of the default zoo

	maxPasses int    // 0 = as many as --seconds allows
	reference string // expected result fingerprint; "" = not checked
}

// workload runs passes: one set-up and one timed phase each.
type workload interface {
	// pass runs one pass; tr is nil on untraced passes.
	pass(tr *tracer) (pass, error)
	// fingerprint is the result fingerprint every pass must reproduce.
	fingerprint() string
	// table breaks a traced cell down by layer.
	table(tr *tracer, traced []pass) []row
	close()
}

var workloadNames = []string{"fig10_small", "scenario_cold", "scenario_warm"}

func newWorkload(o options, c *checker) (workload, error) {
	switch o.workload {
	case "fig10_small":
		return newFig10(o, c), nil
	case "scenario_cold":
		return &scenarioCold{o: o, c: c}, nil
	case "scenario_warm":
		return newScenarioWarm(o, c)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames, ", "))
}

// checker counts output checks and keeps the failures.
type checker struct {
	checks   int
	failures []string
}

func (c *checker) expect(ok bool, format string, args ...any) {
	c.checks++
	if !ok {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// samePass expects every pass of a run to reproduce the first pass's
// result fingerprint, which it records in *first.
func (c *checker) samePass(first *string, fp string) {
	if *first == "" {
		*first = fp
	}
	c.expect(fp == *first, "pass fingerprint %s differs from the first pass's %s", fp, *first)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	label string  // which percentile a tail value is
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	checks   int
	failures []string
	table    []row
	tr       *tracer
	passes   []pass
	fp       string
}

func run(o options) (*result, error) {
	if err := os.MkdirAll(filepath.Join(o.workDir, "tmp"), 0o755); err != nil {
		return nil, err
	}
	c := &checker{}
	w, err := newWorkload(o, c)
	if err != nil {
		return nil, err
	}
	defer w.close()

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var passes []pass
	start := time.Now()
	for i := 0; ; i++ {
		var t *tracer
		if o.trace && i%2 == 0 {
			t = tr
		}
		p, err := w.pass(t)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		n := i + 1
		if o.maxPasses > 0 && n >= o.maxPasses {
			break
		}
		if time.Since(start).Seconds() >= o.seconds && (!o.trace || n >= 2) {
			break
		}
	}
	if o.reference != "" {
		c.expect(w.fingerprint() == o.reference, "result fingerprint %s, reference %s", w.fingerprint(), o.reference)
	}

	r := &result{Metrics: map[string]metric{}, tr: tr, passes: passes, fp: w.fingerprint()}
	var traced, plain []pass
	for _, p := range passes {
		r.Attempted += p.cells
		r.Failed += p.failed
		if p.traced {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}
	r.Failed += len(c.failures)
	r.checks, r.failures = c.checks, c.failures
	r.Correct = len(c.failures) == 0 && r.Failed == 0
	if o.trace {
		r.table = w.table(tr, traced)
		layerMetrics(r.Metrics, tr, traced, plain, r.table)
	} else {
		endToEnd(r.Metrics, plain)
	}
	return r, nil
}

// endToEnd reports the medians over passes of the metrics a user sees.
// Throughput is per CPU second: on a small shared machine the wall-clock
// rate also moves with how much of the second core the process gets (the
// loopback workload overlaps its coordinator and worker), and between runs
// of the same code it spread by up to 31% (interquartile range over ten
// seeds), more than any bound the benchmark could keep. The summary still
// prints it.
func endToEnd(m map[string]metric, ps []pass) {
	var setup, alloc []float64
	for _, p := range ps {
		setup = append(append(setup, p.setupS), p.moreSetupS...)
		alloc = append(alloc, float64(p.alloc)/1024/float64(p.cells))
	}
	m["setup_s"] = metric{Value: median(setup), Unit: "s"}
	m["cells_per_cpu_s"] = metric{Value: cellsPerCPUS(ps), Unit: "1/s"}
	m["alloc_kb_per_cell"] = metric{Value: median(alloc), Unit: "KiB"}
}

func main() {
	var o options
	var traceFlag int
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", defaultSeed, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "measure for this long; the last pass started finishes")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	fs.StringVar(&o.workDir, "work", ".bench_build", "directory for stores, temp files and traces")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: --trace takes 0 or 1")
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	o.programs = defaultPrograms
	if o.seed == defaultSeed {
		ref, err := loadReference()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		o.reference = ref[o.workload]
	}

	r, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	summary := summarize(o, r)
	fmt.Print(summary)
	if r.tr != nil {
		base := filepath.Join(o.workDir, "trace", fmt.Sprintf("%s-seed%d", o.workload, o.seed))
		if err := r.tr.write(base + ".json"); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: writing spans:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(base+".txt", []byte(summary), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: writing the summary:", err)
			os.Exit(1)
		}
		fmt.Printf("spans and summary: %s.{json,txt}\n", base)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !r.Correct {
		os.Exit(1)
	}
}

func summarize(o options, r *result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s seed %d: %d passes, %d cells, %.4g cells per wall second, %d output checks, fingerprint %s\n",
		o.workload, o.seed, len(r.passes), r.Attempted, cellsPerS(r.passes), r.checks, r.fp)
	for i, p := range r.passes {
		fmt.Fprintf(&sb, "  pass %d traced=%t: setup %.4fs, %d cells in %.3fs wall, %.3fs cpu, %.0f KiB allocated\n",
			i, p.traced, p.setupS, p.cells, p.wallS, p.cpuS, float64(p.alloc)/1024)
	}
	for _, f := range r.failures {
		fmt.Fprintln(&sb, "CHECK FAILED:", f)
	}
	if r.table != nil {
		sb.WriteString(renderTable(o.workload, r.table))
		fmt.Fprintf(&sb, "  tracing overhead: %+.2f%% (untraced against traced cells per CPU second)\n", r.Metrics["trace.overhead_pct"].Value)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(&sb, "  %-34s %14.6g %s %s\n", n, m.Value, m.Unit, m.label)
	}
	return sb.String()
}
