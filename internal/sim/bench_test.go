package sim

// Micro-benchmarks and allocation-regression pins for the burst executor —
// the inner loop every experiment in the repo ultimately spends its time in.
// The benchmarks drive coreStep directly (one scheduling quantum per call)
// so they measure the burst path without event-loop or setup noise, and the
// steady-state loop is asserted allocation-free with testing.AllocsPerRun.
//
// Regenerate the committed BENCH_*.json baseline (and gate the pinned
// Minstr/s throughput metrics against the prior one) with:
//
//	(go test -run '^$' -bench 'BenchmarkBurst|BenchmarkCoreStepCalls|BenchmarkFig1Workload|BenchmarkNewMachine|BenchmarkMachineRun|BenchmarkHierarchyAccess|BenchmarkEncodeResult|BenchmarkDecodeResult|BenchmarkCompileModule' -benchmem -benchtime 0.3s -count 3 ./internal/sim/ ./internal/cache/
//	 go test -run '^$' -bench 'BenchmarkObserve' -benchmem -benchtime 0.3s -count 3 ./internal/rl/
//	 go test -run '^$' -bench 'BenchmarkWireJobDecode|BenchmarkStorePut|BenchmarkStoreGet' -benchmem -benchtime 0.3s -count 3 ./internal/campaign/
//	 go test -run '^$' -bench '^BenchmarkCompile(Grid)?$' -benchmem -benchtime 0.3s -count 3 . ./internal/scenario/) \
//	  | go run ./cmd/astro-bench -o BENCH_24.json -prev BENCH_23.json -max-regress 15
//
// Only the Minstr/s metrics gate. The result codec's rungs
// (BenchmarkEncodeResult, BenchmarkDecodeResult, in codec_test.go),
// BenchmarkCompileModule, BenchmarkMachineRun, the front end's, the
// worker decode's and the result store's rungs are recorded but not gated.

import (
	"fmt"
	"testing"

	"astro/internal/hw"
	"astro/internal/ir"
	"astro/internal/lang"
	"astro/internal/workloads"
)

// benchSources: one ALU/FP-heavy kernel (dispatch-bound, the fast path's
// best case) and one memory-walking kernel (cache-model-bound).
const benchSpinSrc = `
func main() {
	var x float = 1.0;
	var i int = 0;
	while (1 == 1) {
		x = x * 1.000001 + 0.5;
		i = i + 1;
		if (i > 1000000000) { i = 0; }
	}
}
`

const benchMemSrc = `
var buf[4096] int;
func main() {
	var i int = 0;
	var s int = 0;
	while (1 == 1) {
		s = s + buf[i % 4096];
		buf[(i * 7) % 4096] = s;
		i = i + 1;
	}
}
`

// benchMachine builds a machine running src and performs the boot steps of
// Run (create main, place it, pop the initial core-run event) so coreStep
// can be driven directly.
func benchMachine(tb testing.TB, src string, legacy bool) (*Machine, *core) {
	tb.Helper()
	mod, err := lang.Compile("bench", src)
	if err != nil {
		tb.Fatalf("compile: %v", err)
	}
	m, err := New(mod, hw.OdroidXU4(), Options{
		Seed:         1,
		LegacyInterp: legacy,
		MaxThreads:   8,
		StackCells:   4096,
	})
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	main, err := m.newThread(-1, m.mod.FuncIndex["main"], nil)
	if err != nil {
		tb.Fatalf("newThread: %v", err)
	}
	m.placeThread(main)
	e := m.events.pop()
	c := m.cores[e.core]
	c.runPending = false
	return m, c
}

// step runs one quantum and re-arms the core (what the event loop does
// between core-run events for a spinning thread).
func step(m *Machine, c *core) {
	m.coreStep(c)
	e := m.events.pop()
	m.now = e.time
	m.cores[e.core].runPending = false
}

// stepEvent processes the next event the way Run's loop does.
func stepEvent(m *Machine) {
	e := m.events.pop()
	if e.time > m.now {
		m.now = e.time
	}
	switch e.kind {
	case evWake:
		m.wakes--
		m.handleWake(e.thread)
	case evCoreRun:
		c := m.cores[e.core]
		c.runPending = false
		if c.active {
			m.coreStep(c)
		}
	case evTick:
		m.updateLoads()
		m.opts.OS.Rebalance(m)
		m.schedule(event{time: m.now + m.opts.TickS, kind: evTick})
	}
}

func benchCoreStep(b *testing.B, src string, legacy bool) {
	m, c := benchMachine(b, src, legacy)
	step(m, c) // warm caches and pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(m, c)
	}
	b.StopTimer()
	if m.err != nil {
		b.Fatal(m.err)
	}
	t := m.threads[0]
	b.ReportMetric(float64(t.instr)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkBurstFast / BenchmarkBurstLegacy measure the same ALU-heavy
// quantum on the precompiled fast path and on the legacy interpreter; their
// ns/op ratio is the fast-path speedup on pure compute.
func BenchmarkBurstFast(b *testing.B)   { benchCoreStep(b, benchSpinSrc, false) }
func BenchmarkBurstLegacy(b *testing.B) { benchCoreStep(b, benchSpinSrc, true) }

// BenchmarkBurstMemFast / BenchmarkBurstMemLegacy do the same for a
// memory-walking kernel where the shared cache model bounds the gain.
func BenchmarkBurstMemFast(b *testing.B)   { benchCoreStep(b, benchMemSrc, false) }
func BenchmarkBurstMemLegacy(b *testing.B) { benchCoreStep(b, benchMemSrc, true) }

// callHeavySrc exercises the call/return path (frame push/pop, register
// file recycling) rather than straight-line compute.
const benchCallSrc = `
func leaf(a int, b int) int {
	return a * 2 + b;
}
func main() {
	var i int = 0;
	var s int = 0;
	while (1 == 1) {
		s = leaf(s, i);
		i = i + 1;
		if (i > 1000000000) { i = 0; }
	}
}
`

func BenchmarkCoreStepCalls(b *testing.B) { benchCoreStep(b, benchCallSrc, false) }

// BenchmarkFig1WorkloadFast / BenchmarkFig1WorkloadLegacy run one complete
// simulation of each Fig. 1 benchmark (freqmine, streamcluster) per
// iteration — the end-to-end cold cost of one fig1 sweep cell, machine
// construction included, on each execution path.
func benchFig1Workloads(b *testing.B, legacy bool) {
	type prog struct {
		mod  *ir.Module
		args []int64
	}
	var progs []prog
	for _, name := range []string{"freqmine", "streamcluster"} {
		spec, ok := workloads.ByName(name)
		if !ok {
			b.Fatalf("workload %s not registered", name)
		}
		mod, err := spec.Compile()
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, prog{mod, spec.SmallArgs()})
	}
	plat := hw.OdroidXU4()
	b.ReportAllocs()
	b.ResetTimer()
	var instr uint64
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			m, err := New(p.mod, plat, Options{
				Seed:         13,
				Args:         p.args,
				CheckpointS:  400e-6,
				QuantumS:     50e-6,
				TickS:        200e-6,
				LegacyInterp: legacy,
			})
			if err != nil {
				b.Fatal(err)
			}
			res, err := m.Run()
			if err != nil {
				b.Fatal(err)
			}
			instr += res.Instructions
		}
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

func BenchmarkFig1WorkloadFast(b *testing.B)   { benchFig1Workloads(b, false) }
func BenchmarkFig1WorkloadLegacy(b *testing.B) { benchFig1Workloads(b, true) }

// BenchmarkNewMachine measures machine construction alone — the fixed cost
// every simulated cell pays before its first instruction — on the paper's
// board with default Options, for a program already in the compile cache.
// It is recorded in the BENCH trajectory (ns/op, B/op, allocs/op), not gated.
func BenchmarkNewMachine(b *testing.B) {
	mod, err := lang.Compile("bench", benchMemSrc)
	if err != nil {
		b.Fatal(err)
	}
	plat := hw.OdroidXU4()
	if _, err := New(mod, plat, Options{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := New(mod, plat, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMachineRun runs one complete simulation of a Fig. 10 benchmark
// (hotspot) per iteration at fig10's Small scale, machine construction
// included: the simulator's share of one fig10 sample cell (fig10 cells
// run under GTS, which lives above this package, so this one keeps the
// default OS policy). Each iteration's machine takes the memory and caches
// the previous one released. It is recorded in the BENCH trajectory
// (ns/op, B/op, allocs/op), not gated.
func BenchmarkMachineRun(b *testing.B) {
	spec, ok := workloads.ByName("hotspot")
	if !ok {
		b.Fatal("workload hotspot not registered")
	}
	mod, err := spec.Compile()
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Seed: 9000, Args: spec.SmallArgs(), CheckpointS: 400e-6, QuantumS: 50e-6, TickS: 200e-6}
	b.ReportAllocs()
	for b.Loop() {
		m, err := New(mod, hw.OdroidXU4(), opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileModule measures the fast path's lowering of one registry
// workload (freqmine) — what a cell pays when its module misses the
// compiled-program cache. It is recorded in the BENCH trajectory, not
// gated.
func BenchmarkCompileModule(b *testing.B) {
	spec, ok := workloads.ByName("freqmine")
	if !ok {
		b.Fatal("workload freqmine not registered")
	}
	mod, err := spec.Compile()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		CompileModule(mod)
	}
}

// benchWakeSrc keeps four threads contending for one lock and meeting at a
// barrier forever, so nearly every event is a block, a wake or a placement.
const benchWakeSrc = `
var counter int;
mutex mu;
barrier gate;
func worker(id int) {
	while (1 == 1) {
		lock(mu);
		counter = counter + id;
		unlock(mu);
		barrier_wait(gate);
	}
}
func main() {
	barrier_init(gate, 4);
	var i int;
	for (i = 1; i < 4; i = i + 1) { spawn worker(i); }
	worker(0);
}
`

// wakeMachine boots benchWakeSrc and arms its event loop: main's first
// core run and the OS tick, so stepEvent can drive it.
func wakeMachine(tb testing.TB, legacy bool) *Machine {
	m, c := benchMachine(tb, benchWakeSrc, legacy)
	c.runPending = true
	m.schedule(event{time: m.now, kind: evCoreRun, core: c.idx})
	m.schedule(event{time: m.opts.TickS, kind: evTick})
	return m
}

// TestSteadyStateBurstZeroAllocs pins the allocation discipline: once warm,
// a scheduling quantum — burst execution, accounting, event push/pop —
// performs zero heap allocations, for both pure-compute and call-heavy
// steady states, on both execution paths. The wake case drives the event
// loop itself through lock handoffs, barrier releases, thread placement and
// OS ticks, and counts every allocation over a thousand events.
func TestSteadyStateBurstZeroAllocs(t *testing.T) {
	for _, legacy := range []bool{false, true} {
		t.Run(fmt.Sprintf("wake/legacy=%t", legacy), func(t *testing.T) {
			m := wakeMachine(t, legacy)
			for i := 0; i < 5000; i++ {
				stepEvent(m)
			}
			if m.err != nil || len(m.threads) != 4 {
				t.Fatalf("warm-up: %d threads, err %v", len(m.threads), m.err)
			}
			allocs := testing.AllocsPerRun(1, func() {
				for i := 0; i < 1000; i++ {
					stepEvent(m)
				}
			})
			if m.err != nil {
				t.Fatal(m.err)
			}
			if allocs != 0 {
				t.Fatalf("1000 warm events allocate %.0f objects, want 0", allocs)
			}
		})
	}

	cases := []struct {
		name   string
		src    string
		legacy bool
	}{
		{"fast/alu", benchSpinSrc, false},
		{"fast/mem", benchMemSrc, false},
		{"fast/calls", benchCallSrc, false},
		{"legacy/alu", benchSpinSrc, true},
		{"legacy/calls", benchCallSrc, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			m, c := benchMachine(t, tc.src, tc.legacy)
			for i := 0; i < 32; i++ {
				step(m, c) // reach steady state (pools, heap capacity)
			}
			if m.err != nil {
				t.Fatal(m.err)
			}
			allocs := testing.AllocsPerRun(100, func() { step(m, c) })
			if allocs != 0 {
				t.Fatalf("steady-state quantum allocates %.1f objects/run, want 0", allocs)
			}
		})
	}
}
