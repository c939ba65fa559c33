package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	"astro/internal/campaign"
)

// tiny is a scenario grid of 3 programs on one platform: 6 cells a pass.
func tiny(t *testing.T, workload string, trace bool) options {
	return options{
		workload:  workload,
		seed:      defaultSeed,
		trace:     trace,
		seconds:   60,
		workDir:   t.TempDir(),
		programs:  3,
		platforms: []string{campaign.DefaultPlatform},
		maxPasses: 2,
	}
}

func mustRun(t *testing.T, o options) *result {
	t.Helper()
	r, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestScenarioWorkloads(t *testing.T) {
	for _, wl := range []string{"scenario_cold", "scenario_warm"} {
		for _, trace := range []bool{false, true} {
			r := mustRun(t, tiny(t, wl, trace))
			if !r.Correct || r.Failed != 0 || r.Attempted != 12 {
				t.Errorf("%s trace=%t: correct=%t failed=%d attempted=%d, failures %v",
					wl, trace, r.Correct, r.Failed, r.Attempted, r.failures)
			}
			if trace && len(r.table) == 0 {
				t.Errorf("%s: traced run has no time table", wl)
			}
		}
	}
}

func TestColdAndWarmAgree(t *testing.T) {
	cold := mustRun(t, tiny(t, "scenario_cold", false))
	warm := mustRun(t, tiny(t, "scenario_warm", false))
	if cold.fp == "" || cold.fp != warm.fp {
		t.Fatalf("cold fingerprint %q, warm %q", cold.fp, warm.fp)
	}
}

func TestWrongReferenceFailsTheRun(t *testing.T) {
	o := tiny(t, "scenario_cold", false)
	o.reference = "0000000000000000000000000000000000000000000000000000000000000000"
	r := mustRun(t, o)
	if r.Correct || r.Failed == 0 {
		t.Fatalf("a wrong reference fingerprint passed: correct=%t failed=%d", r.Correct, r.Failed)
	}
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	keys := func(m map[string]metric) []string {
		var out []string
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	plain := mustRun(t, tiny(t, "scenario_warm", false))
	traced := mustRun(t, tiny(t, "scenario_cold", true))
	if got, want := keys(plain.Metrics), names(spec.EndToEnd); !equal(got, want) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json lists %v", got, want)
	}
	if got, want := keys(traced.Metrics), names(spec.PerLayer); !equal(got, want) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json lists %v", got, want)
	}
	if traced.Metrics["campaign.wire_overhead_ms.calls_per_cell"].Value != 1 || traced.Metrics["sim.run_ms.calls_per_cell"].Value == 0 {
		t.Errorf("traced cold run measured wire overhead other than once per cell, or no simulation: %v", traced.Metrics)
	}
}

func TestTail(t *testing.T) {
	for _, c := range []struct {
		n     int
		value float64
		label string
	}{{10000, 9990, "p99.9"}, {1000, 990, "p99"}, {100, 90, "p90"}, {99, 99, "max"}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(c.n - i) // 1..n, unsorted
		}
		if v, l := tail(xs); v != c.value || l != c.label {
			t.Errorf("tail of 1..%d = %v (%s), want %v (%s)", c.n, v, l, c.value, c.label)
		}
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestReferences runs one pass of the full-size scenario re-read and of the
// paper pipeline (about ten seconds) against the committed references.
func TestReferences(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		workload string
		cells    int
	}{{"scenario_warm", 720}, {"fig10_small", 70}} {
		if c.workload == "fig10_small" && testing.Short() {
			t.Skip("runs the Fig. 10 pipeline")
		}
		o := options{workload: c.workload, seed: defaultSeed, workDir: t.TempDir(), programs: defaultPrograms, maxPasses: 1, reference: ref[c.workload]}
		r := mustRun(t, o)
		if !r.Correct || r.Attempted != c.cells {
			t.Errorf("%s: correct=%t attempted=%d failures %v", c.workload, r.Correct, r.Attempted, r.failures)
		}
	}
}
