package scenario

import "testing"

// benchGrid is the end-to-end benchmark's scenario grid at workload seed
// 1: 120 generated programs on three machines of the default zoo (one per
// DVFS step), under the default and GTS schedulers, at small scale.
func benchGrid(b *testing.B) *Matrix {
	zoo, err := ZooParams{}.Platforms()
	if err != nil {
		b.Fatal(err)
	}
	return &Matrix{
		Name:         "benchmark",
		ProgramCount: 120,
		ProgramSeed:  1000,
		Platforms:    []string{zoo[0], zoo[4], zoo[8]},
		Schedulers:   []string{"default", "gts"},
		Scale:        "small",
		Seeds:        []int64{1},
	}
}

// BenchmarkCompileGrid measures a scenario campaign's set-up: generating
// and registering the grid's programs, compiling each with lang.Compile,
// hashing its module and expanding the 720-cell grid into jobs.
func BenchmarkCompileGrid(b *testing.B) {
	m := benchGrid(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		specs, err := m.Campaigns()
		if err != nil {
			b.Fatal(err)
		}
		jobs, err := specs[0].Expand()
		if err != nil {
			b.Fatal(err)
		}
		if len(jobs) != 720 {
			b.Fatalf("%d jobs, want 720", len(jobs))
		}
		m.Unregister()
	}
}
