package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"astro/internal/campaign"
)

// cmdCampaign runs a declarative simulation campaign: either a JSON spec
// file (-spec, the same body astro-serve accepts) or a grid assembled from
// flags. Progress streams to stderr; the aggregated result set renders to
// stdout.
func cmdCampaign(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	specPath := fs.String("spec", "", "JSON campaign spec file (overrides the grid flags)")
	bench := fs.String("bench", "", "comma-separated benchmark patterns (names, suites, 'all', prefix globs)")
	platforms := fs.String("platforms", "", "comma-separated platform names (default odroid-xu4)")
	scheds := fs.String("sched", "", "comma-separated schedulers: default,gts,octopus-man,fixed:<xLyB>,random:<seed>")
	configs := fs.String("configs", "", "comma-separated initial configs: <xLyB>, all-on, all")
	seeds := fs.String("seeds", "", "comma-separated int64 seeds (default 0)")
	scale := fs.String("scale", "small", "benchmark scale: small or paper")
	jobs := fs.Int("j", runtime.NumCPU(), "worker pool width")
	workers := fs.Int("workers", 0, "run through N pull-based loopback workers over the distributed protocol (0 = in-process pool)")
	cacheDir := fs.String("cache", "", "on-disk result cache directory")
	timeout := fs.Duration("timeout", 0, "stop scheduling jobs after this duration; in-flight jobs finish (0 = none)")
	quiet := fs.Bool("q", false, "suppress per-job progress on stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var spec campaign.Spec
	switch {
	case *specPath != "":
		data, err := os.ReadFile(*specPath)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &spec); err != nil {
			return fmt.Errorf("campaign spec %s: %w", *specPath, err)
		}
	case *bench != "":
		spec = campaign.Spec{
			Benchmarks: splitList(*bench),
			Platforms:  splitList(*platforms),
			Schedulers: splitList(*scheds),
			Configs:    splitList(*configs),
			Scale:      *scale,
		}
		for _, s := range splitList(*seeds) {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return fmt.Errorf("bad seed %q: %w", s, err)
			}
			spec.Seeds = append(spec.Seeds, v)
		}
	default:
		return fmt.Errorf("campaign needs -spec file or -bench patterns")
	}

	// Spec.Expand validates every axis (platforms, schedulers, configs,
	// benchmark patterns) before compiling or simulating anything, so typos
	// fail here with the list of valid choices.
	expanded, err := spec.Expand()
	if err != nil {
		return err
	}
	store, err := campaign.NewShardedStore(*cacheDir, 0)
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
	fmt.Fprintf(os.Stderr, "campaign: %d jobs on %d workers\n", len(expanded), max(*jobs, *workers))
	start := time.Now()
	onProgress := func(p campaign.Progress) {
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
	}
	outs, runErr := runner.Run(ctx, expanded, onProgress)
	rs := campaign.Aggregate(spec.Name, outs)
	fmt.Println(rs.Render())
	fmt.Fprintf(os.Stderr, "campaign: %d jobs, %d cache hits, %d errors in %v\n",
		rs.Total, rs.CacheHits, rs.Errors, time.Since(start).Round(time.Millisecond))
	return runErr
}

func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
