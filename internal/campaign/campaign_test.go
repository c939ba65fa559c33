package campaign

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"astro/internal/hw"
	"astro/internal/sim"
	"astro/internal/workloads"
)

// testSpec is a small but non-trivial grid over the micro benchmarks:
// 2 benchmarks x 2 schedulers x 2 configs x 2 seeds = 16 jobs.
func testSpec() Spec {
	return Spec{
		Name:       "unit",
		Benchmarks: []string{"micro"},
		Schedulers: []string{"default", "gts"},
		Configs:    []string{"1L1B", "4L4B"},
		Seeds:      []int64{1, 2},
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{},                             // no benchmarks
		{Benchmarks: []string{"nope"}}, // unknown benchmark
		{Benchmarks: []string{"spin"}, Scale: "huge"},
		{Benchmarks: []string{"spin"}, Platforms: []string{"cray"}},
		{Benchmarks: []string{"spin"}, Schedulers: []string{"fifo"}},
		{Benchmarks: []string{"spin"}, Configs: []string{"9L9B"}},
		{Benchmarks: []string{"spin"}, Configs: []string{"0L0B"}},
		{Benchmarks: []string{"spin"}, Schedulers: []string{"fixed:bogus"}},
		// 2L3B parses but is invalid on the TK1 (1 LITTLE, 4 big): an
		// unchecked fixed: actuator would silently measure the all-on
		// default under a "fixed:2L3B" label.
		{Benchmarks: []string{"spin"}, Platforms: []string{"jetson-tk1"}, Schedulers: []string{"fixed:2L3B"}},
		{Benchmarks: []string{"spin"}, Schedulers: []string{"fixed:9L9B"}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d: expected validation error, got none", i)
		}
	}
	good := testSpec()
	if err := good.Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
}

func TestSpecExpand(t *testing.T) {
	spec := testSpec()
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	micro := len(workloads.Suite("micro"))
	want := micro * 2 * 2 * 2
	if len(jobs) != want {
		t.Fatalf("expanded to %d jobs, want %d", len(jobs), want)
	}
	for i, j := range jobs {
		if j.Index != i {
			t.Errorf("job %d has index %d", i, j.Index)
		}
		if j.Module == nil || j.Label == "" {
			t.Errorf("job %d incomplete: %+v", i, j)
		}
	}
	// Cross-product sweep of all configurations.
	all := Spec{Benchmarks: []string{"spin"}, Configs: []string{"all"}}
	jobs, err = all.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if n := hw.OdroidXU4().NumConfigs(); len(jobs) != n {
		t.Fatalf("config sweep expanded to %d jobs, want %d", len(jobs), n)
	}
	// Modules are compiled once per benchmark and shared across the grid.
	spec2 := testSpec()
	jobs, err = spec2.Expand()
	if err != nil {
		t.Fatal(err)
	}
	mods := map[string]interface{}{}
	for _, j := range jobs {
		if prev, ok := mods[j.Benchmark]; ok && prev != j.Module {
			t.Fatalf("benchmark %s compiled more than once", j.Benchmark)
		}
		mods[j.Benchmark] = j.Module
	}
}

func TestJobKey(t *testing.T) {
	spec := testSpec()
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{}
	for _, j := range jobs {
		key, ok := j.Key()
		if !ok {
			t.Fatalf("job %s not cacheable", j.Label)
		}
		if prev, dup := seen[key]; dup {
			t.Fatalf("key collision between %s and %s", prev, j.Label)
		}
		seen[key] = j.Label
		// The key is stable across recomputation.
		again, _ := j.Key()
		if again != key {
			t.Fatalf("job %s: unstable key", j.Label)
		}
	}
	// Seed/Args/InitialConfig stashed in Opts do not leak into the key.
	j := *jobs[0]
	k1, _ := j.Key()
	j.Opts.Seed, j.Opts.Args = 999, []int64{9, 9}
	k2, _ := j.Key()
	if k1 != k2 {
		t.Fatal("Opts seed/args changed the key; they are carried by job fields")
	}
	// Custom hybrid policies without a name are uncacheable.
	j.Hybrid = func() sim.HybridPolicy { return nopHybrid{} }
	if _, ok := j.Key(); ok {
		t.Fatal("unnamed hybrid policy must be uncacheable")
	}
	j.HybridKey = "named"
	if _, ok := j.Key(); !ok {
		t.Fatal("named hybrid policy must be cacheable")
	}
}

// nopHybrid is a throwaway sim.HybridPolicy for key tests.
type nopHybrid struct{}

func (nopHybrid) DetermineConfig(s sim.HybridState) hw.Config { return s.Config }

func TestPoolErrorsAggregate(t *testing.T) {
	jobs, err := (&Spec{Benchmarks: []string{"spin"}, Seeds: []int64{1, 2, 3}}).Expand()
	if err != nil {
		t.Fatal(err)
	}
	jobs[1].Args = []int64{1} // main(scale, threads) takes 2 args -> sim.New error
	p := &Pool{Workers: 2, Store: NewMemStore()}
	outs, err := p.Run(context.Background(), jobs, nil)
	if err == nil {
		t.Fatal("expected aggregated error")
	}
	if !strings.Contains(err.Error(), "job 1") {
		t.Fatalf("error does not name the failing job: %v", err)
	}
	if outs[0].Err != nil || outs[2].Err != nil {
		t.Fatalf("healthy jobs were poisoned: %v %v", outs[0].Err, outs[2].Err)
	}
	if outs[1].Err == nil {
		t.Fatal("failing job reported no error")
	}
	rs := Aggregate("errs", outs)
	if rs.Errors != 1 || rs.Total != 3 {
		t.Fatalf("aggregate counters wrong: %+v", rs)
	}
}

func TestPoolCancellation(t *testing.T) {
	jobs, err := (&Spec{Benchmarks: []string{"spin"}, Seeds: []int64{1, 2, 3, 4, 5}}).Expand()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pool{Workers: 1}
	outs, err := p.Run(ctx, jobs, func(pr Progress) {
		if pr.Done == 1 {
			cancel()
		}
	})
	if err == nil {
		t.Fatal("expected context error in aggregate")
	}
	if outs[0].Err != nil || outs[0].Result == nil {
		t.Fatalf("first job should have completed: %+v", outs[0])
	}
	cancelled := 0
	for _, o := range outs[1:] {
		if o.Err == context.Canceled {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatal("no job observed the cancellation")
	}
}

func TestStoreDiskTier(t *testing.T) {
	dir := t.TempDir()
	jobs, err := (&Spec{Benchmarks: []string{"matrixmul"}, Seeds: []int64{7}}).Expand()
	if err != nil {
		t.Fatal(err)
	}
	s1, err := NewShardedStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := &Pool{Workers: 2, Store: s1}
	outs, err := p.Run(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if CacheHits(outs) != 0 {
		t.Fatal("cold run reported cache hits")
	}

	// A fresh store over the same directory serves the whole campaign from
	// disk: zero fresh simulations.
	s2, err := NewShardedStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	p2 := &Pool{Workers: 2, Store: s2}
	outs2, err := p2.Run(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if CacheHits(outs2) != len(jobs) {
		t.Fatalf("warm disk run: %d/%d cache hits", CacheHits(outs2), len(jobs))
	}
	if _, _, puts := s2.Stats(); puts != 0 {
		t.Fatalf("warm run wrote %d fresh results", puts)
	}
	for i := range outs {
		if !bytes.Equal(outs[i].Bytes, outs2[i].Bytes) {
			t.Fatalf("job %d: disk round-trip changed result bytes", i)
		}
	}
}

func TestAggregateShape(t *testing.T) {
	spec := testSpec()
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	p := &Pool{Workers: 4, Store: NewMemStore()}
	outs, err := p.Run(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs := Aggregate("unit", outs)
	// 2 benchmarks x 2 schedulers x 2 configs = 8 cells, 2 seeds each.
	if len(rs.Cells) != 8 {
		t.Fatalf("%d cells, want 8", len(rs.Cells))
	}
	for _, c := range rs.Cells {
		if c.Jobs != 2 || c.Time.N != 2 {
			t.Errorf("cell %+v: want 2 samples", c)
		}
		if c.Time.Mean <= 0 || c.Energy.Mean <= 0 {
			t.Errorf("cell %+v: degenerate summary", c)
		}
	}
	out := rs.Render()
	if !strings.Contains(out, "fingerprint") || !strings.Contains(out, "spin") {
		t.Fatalf("render incomplete:\n%s", out)
	}
}

func TestValidateScheduler(t *testing.T) {
	for _, tok := range []string{"", "default", "gts", "octopus-man", "fixed:2L2B", "random:7"} {
		if err := ValidateScheduler(tok); err != nil {
			t.Errorf("ValidateScheduler(%q): %v", tok, err)
		}
	}
	for _, tok := range []string{"warp", "fixed:", "fixed:zzz", "fixed:0L0B", "random:x"} {
		if err := ValidateScheduler(tok); err == nil {
			t.Errorf("ValidateScheduler(%q) should fail", tok)
		}
	}
}
