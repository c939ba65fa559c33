package campaign

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"astro/internal/hw"
	"astro/internal/rl"
	"astro/internal/sim"
)

var updateKeys = flag.Bool("update", false, "rewrite testdata/keys.golden")

// goldenKeyOpts are non-default simulator knobs for the key golden: every
// float that needs 'e' notation under %v (4e-07, 1e+21), one that does not
// (0.0001), a negative, every bool set and the integer knobs moved.
func goldenKeyOpts() []sim.Options {
	return []sim.Options{
		{QuantumS: 0.0001, TickS: 4e-07, CheckpointS: 1e+21},
		{SampleS: 1e-5, MaxTimeS: 12.5, MaxThreads: 8, StackCells: 4096},
		{BoundsCheck: true, CaptureOutput: true, MaxOutput: 17, LegacyInterp: true},
		{UserInputLatencyS: 3.0000000000000004e-3, FileReadLatencyS: -2e-6,
			WriteLatencyS: 1.5e-6, NetLatencyS: 123456789, WakeLatencyS: math.SmallestNonzeroFloat64},
		// Seed, Args and InitialConfig in Opts are carried by the job
		// fields; Job.Key clears them, TrainSpec.Key keeps InitialConfig.
		{Seed: 7, Args: []int64{1, -2}, InitialConfig: hw.Config{Little: 2, Big: 3}, QuantumS: 2e-4},
	}
}

// goldenKeys lists "<label> <key>" for every job and training cell the key
// golden covers.
func goldenKeys(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	line := func(label, key string) { fmt.Fprintf(&sb, "%s %s\n", label, key) }
	jobKey := func(label string, j *Job) {
		k, ok := j.Key()
		if !ok {
			t.Fatalf("%s: not cacheable", label)
		}
		line(label, k)
	}

	grids := []Spec{
		{
			Benchmarks: []string{"micro"},
			Platforms:  []string{"odroid-xu4", "jetson-tk1"},
			Schedulers: []string{"default", "gts", "octopus-man", "fixed:1L1B"},
			Seeds:      []int64{1, 2},
		},
		{Benchmarks: []string{"spin"}, Configs: []string{"all"}, Scale: "paper"},
	}
	var base *Job
	for _, spec := range grids {
		jobs, err := spec.Expand()
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			jobKey(j.Label, j)
		}
		if base == nil {
			base = jobs[0]
		}
	}

	args := *base
	args.Args = []int64{0, -1, math.MaxInt64, math.MinInt64, 42}
	jobKey("args", &args)
	noArgs := *base
	noArgs.Args = nil
	jobKey("args-nil", &noArgs)
	agent := *base
	agent.AgentKey = strings.Repeat("ab", 32)
	jobKey("agent", &agent)
	for i, o := range goldenKeyOpts() {
		j := *base
		j.Opts = o
		jobKey(fmt.Sprintf("opts-%d", i), &j)
	}

	trains := []TrainSpec{
		{Agent: "dqn"},
		{Agent: "tabular", Gamma: 3.5, Hipster: true, Episodes: 4, Seed: -3},
		{Agent: "dqn", PlatName: "jetson-tk1", OS: "gts", Gamma: 1e-7, Episodes: 30, Seed: 9,
			DQN:  rl.DQNConfig{Hidden: 16, LR: 0.0001, Discount: 0.9, Eps0: 4e-07, EpsMin: 1e+21, EpsDecay: -0.5, Seed: 11, Replay: -1},
			Args: []int64{5, 6}},
	}
	for i, o := range goldenKeyOpts() {
		trains = append(trains, TrainSpec{Agent: "tabular", Opts: o, Label: fmt.Sprintf("opts-%d", i)})
	}
	for i := range trains {
		ts := &trains[i]
		ts.Module = base.Module
		k, err := ts.Key()
		if err != nil {
			t.Fatalf("train %d: %v", i, err)
		}
		line(fmt.Sprintf("train-%d", i), k)
	}
	return sb.String()
}

// TestKeysGolden pins the bytes of Job.Key and TrainSpec.Key. Every store
// on disk is addressed by them, so a change to how a key's preimage is
// written must leave every line here as it is. Regenerate (only for a
// deliberate re-keying) with `go test ./internal/campaign -run KeysGolden -update`.
func TestKeysGolden(t *testing.T) {
	got := goldenKeys(t)
	golden := filepath.Join("testdata", "keys.golden")
	if *updateKeys {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to create)", err)
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d keys, golden has %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("key %d:\n got  %s\n want %s", i, gotLines[i], wantLines[i])
		}
	}
}

// TestAppendDQNConfigMatchesPlusV holds the training key's DQN config
// bytes to what fmt's %+v prints, which every stored training key was
// built from. Fields are filled by reflection, so a field added to
// rl.DQNConfig fails here until appendDQNConfig writes it.
func TestAppendDQNConfigMatchesPlusV(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	floats := []float64{0, math.Copysign(0, -1), 1e-5, 1e-7, 1e20, 1e21, math.Inf(1), math.Inf(-1), 0.03}
	for i := 0; i < 1000; i++ {
		var c rl.DQNConfig
		v := reflect.ValueOf(&c).Elem()
		for f := 0; f < v.NumField(); f++ {
			switch fv := v.Field(f); fv.Kind() {
			case reflect.Int, reflect.Int64:
				fv.SetInt(int64(rng.Uint64()) >> (64 - fv.Type().Bits()) >> rng.Intn(64))
			case reflect.Float64:
				if rng.Intn(2) == 0 {
					fv.SetFloat(floats[rng.Intn(len(floats))])
				} else if x := math.Float64frombits(rng.Uint64()); !math.IsNaN(x) {
					fv.SetFloat(x)
				}
			default:
				t.Fatalf("rl.DQNConfig.%s has kind %s: teach appendDQNConfig and this filler the new field", v.Type().Field(f).Name, fv.Kind())
			}
		}
		if got, want := string(appendDQNConfig([]byte("p"), c)), "p"+fmt.Sprintf("%+v", c); got != want {
			t.Fatalf("appendDQNConfig differs from %%+v:\n got: %s\nwant: %s", got, want)
		}
	}
}

// keyedJob is a registry-module job with arguments and an agent key, its
// module hash already cached as Spec.Expand leaves it.
func keyedJob(tb testing.TB) *Job {
	tb.Helper()
	spec := Spec{Benchmarks: []string{"matrixmul"}, Schedulers: []string{"gts"}}
	jobs, err := spec.Expand()
	if err != nil {
		tb.Fatal(err)
	}
	j := jobs[0]
	j.AgentKey = strings.Repeat("ab", 32)
	return j
}

// TestJobKeyAllocs pins Job.Key at one allocation, the returned string:
// the preimage, its digest and the hex form stay on the stack, and
// nothing on the path reaches fmt or reflect.
func TestJobKeyAllocs(t *testing.T) {
	j := keyedJob(t)
	if allocs := testing.AllocsPerRun(100, func() { j.Key() }); allocs != 1 {
		t.Fatalf("Job.Key allocates %.1f objects/run, want 1", allocs)
	}
}

// BenchmarkJobKey measures the content address every cell computes
// before it reads the store, on a registry module whose hash is cached.
func BenchmarkJobKey(b *testing.B) {
	j := keyedJob(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, ok := j.Key(); !ok {
			b.Fatal("job not cacheable")
		}
	}
}
