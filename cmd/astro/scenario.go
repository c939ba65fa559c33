package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"astro/internal/campaign"
	"astro/internal/features"
	"astro/internal/hw"
	"astro/internal/scenario"
	"astro/internal/tablefmt"
)

// cmdScenario drives the scenario generator: synthesize single programs,
// sweep a generated program × platform matrix through the campaign pool,
// or render just the scheduler report of a sweep (cheap when the result
// cache is warm).
func cmdScenario(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("scenario needs a mode: generate, sweep or report")
	}
	mode, rest := args[0], args[1:]
	switch mode {
	case "generate":
		return scenarioGenerate(rest)
	case "sweep":
		return scenarioSweep(rest, false)
	case "report":
		return scenarioSweep(rest, true)
	}
	return fmt.Errorf("unknown scenario mode %q (have generate, sweep, report)", mode)
}

// scenarioGenerate synthesizes one program and prints its source (and,
// optionally, its feature/phase table).
func scenarioGenerate(args []string) error {
	fs := flag.NewFlagSet("scenario generate", flag.ExitOnError)
	seed := fs.Int64("seed", 0, "generator seed")
	cpu := fs.Int("cpu", 0, "CPU-bound functions (0s across the mix select the default 2/1/1/1)")
	io := fs.Int("io", 0, "IO-bound functions")
	blocked := fs.Int("blocked", 0, "blocked functions")
	mixed := fs.Int("mixed", 0, "mixed (Other-phase) functions")
	threads := fs.Int("threads", 0, "worker threads (default 4)")
	depth := fs.Int("depth", 0, "CPU kernel loop nesting depth (default 2)")
	trip := fs.Int("trip", 0, "base loop trip count (default 16)")
	mutexes := fs.Int("mutexes", 0, "worker-loop mutex contention (0 = none)")
	barrier := fs.Bool("barrier", false, "barrier-step the worker loop")
	showFeatures := fs.Bool("features", false, "print the feature/phase table instead of source")
	out := fs.String("o", "", "write source to file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pp := scenario.ProgramParams{
		Seed: *seed, CPU: *cpu, IO: *io, Blocked: *blocked, Mixed: *mixed,
		Threads: *threads, LoopDepth: *depth, Trip: *trip,
		Mutexes: *mutexes, Barrier: *barrier,
	}
	spec, err := scenario.Generate(pp)
	if err != nil {
		return err
	}
	if *showFeatures {
		mod, err := spec.Compile()
		if err != nil {
			return err
		}
		mi := features.AnalyzeModule(mod, features.Options{})
		tb := tablefmt.NewTable("function", "phase", "io", "mem", "int", "fp", "lock")
		for _, f := range mi.Funcs {
			tb.Row(f.Name, f.Phase.String(), f.Vec.IODens, f.Vec.MemDens,
				f.Vec.IntDens, f.Vec.FPDens, f.Vec.LockDens)
		}
		fmt.Printf("// %s\n%s", spec.Name, tb.String())
		return nil
	}
	if *out != "" {
		return os.WriteFile(*out, []byte(spec.Source), 0o644)
	}
	fmt.Print(spec.Source)
	return nil
}

// scenarioSweep expands a matrix (JSON spec or flags), validates every axis
// up front, runs the batches through the campaign pool and renders results
// plus the scheduler report. reportOnly suppresses the per-batch result
// tables (the sweep still runs, so a warm cache makes it cheap).
func scenarioSweep(args []string, reportOnly bool) error {
	fs := flag.NewFlagSet("scenario sweep", flag.ExitOnError)
	specPath := fs.String("spec", "", "JSON scenario matrix file (overrides the grid flags)")
	programs := fs.Int("programs", 5, "generated program count (preset mix cycle)")
	pseed := fs.Int64("pseed", 0, "base program seed")
	platforms := fs.String("platforms", "", "comma-separated platform names (built-in or zoo:...)")
	zoo := fs.Bool("zoo", false, "append the default platform zoo (4 topologies x 3 DVFS steps)")
	scheds := fs.String("sched", "default,gts", "comma-separated schedulers")
	configs := fs.String("configs", "", "comma-separated initial configs: <xLyB>, all-on, all")
	seeds := fs.String("seeds", "", "comma-separated simulator seeds (default 0)")
	scale := fs.String("scale", "small", "benchmark scale: small or paper")
	batch := fs.Int("batch", 0, "programs per campaign batch (0 = all in one)")
	jobs := fs.Int("j", runtime.NumCPU(), "worker pool width")
	workers := fs.Int("workers", 0, "run through N pull-based loopback workers over the distributed protocol (0 = in-process pool)")
	cacheDir := fs.String("cache", "", "on-disk result cache directory")
	timeout := fs.Duration("timeout", 0, "stop scheduling jobs after this duration (0 = none)")
	quiet := fs.Bool("q", false, "suppress per-job progress on stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var m scenario.Matrix
	if *specPath != "" {
		data, err := os.ReadFile(*specPath)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &m); err != nil {
			return fmt.Errorf("scenario matrix %s: %w", *specPath, err)
		}
	} else {
		m = scenario.Matrix{
			ProgramCount: *programs,
			ProgramSeed:  *pseed,
			Platforms:    splitList(*platforms),
			Schedulers:   splitList(*scheds),
			Configs:      splitList(*configs),
			Scale:        *scale,
			Batch:        *batch,
		}
		if *zoo {
			m.Zoo = &scenario.ZooParams{}
		}
		for _, s := range splitList(*seeds) {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return fmt.Errorf("bad seed %q: %w", s, err)
			}
			m.Seeds = append(m.Seeds, v)
		}
	}

	// Fail fast on typo-prone axes, before any program synthesizes or
	// simulates (satellite of the scenario subsystem: the same early
	// validation the campaign subcommand performs).
	if err := validateAxes(m.Platforms, m.Schedulers); err != nil {
		return err
	}

	// Remote dispatch works in smaller batches: a slow worker then gates one
	// slice of the program axis, not the whole matrix.
	m.AutoBatch(*workers)
	specs, err := m.Campaigns()
	if err != nil {
		return err
	}
	store, err := campaign.OpenStore(*cacheDir)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	runner, cleanup, err := newRunner(*jobs, *workers, store)
	if err != nil {
		return err
	}
	defer cleanup()
	fmt.Fprintf(os.Stderr, "scenario: %d cells in %d batches on %d workers\n", m.Cells(), len(specs), max(*jobs, *workers))
	start := time.Now()
	var sets []*campaign.ResultSet
	var firstErr error
	for _, sp := range specs {
		expanded, err := sp.Expand()
		if err != nil {
			return err
		}
		outs, runErr := runner.Run(ctx, expanded, func(p campaign.Progress) {
			if *quiet {
				return
			}
			mark := " "
			if p.CacheHit {
				mark = "+"
			}
			if p.Err != "" {
				mark = "!"
			}
			fmt.Fprintf(os.Stderr, "[%4d/%4d]%s %s (%.2fs)\n", p.Done, p.Total, mark, p.Label, p.WallS)
		})
		if runErr != nil && firstErr == nil {
			firstErr = runErr
		}
		rs := campaign.Aggregate(sp.Name, outs)
		sets = append(sets, rs)
		if !reportOnly {
			fmt.Println(rs.Render())
		}
	}
	rep := scenario.BuildReport(m.Name, sets...)
	fmt.Println(rep.Render())
	fmt.Fprintf(os.Stderr, "scenario: %d batches in %v\n", len(specs), time.Since(start).Round(time.Millisecond))
	return firstErr
}

// validateAxes rejects unknown platform or scheduler names with the list of
// valid choices, before any compilation or simulation happens.
func validateAxes(platforms, schedulers []string) error {
	for _, p := range platforms {
		if _, err := hw.ByName(p); err != nil {
			return err
		}
	}
	for _, tok := range schedulers {
		if err := campaign.ValidateScheduler(tok); err != nil {
			return err
		}
	}
	return nil
}
