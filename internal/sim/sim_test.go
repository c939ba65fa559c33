package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"astro/internal/hw"
	"astro/internal/ir"
	"astro/internal/lang"
)

func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := lang.Compile("test", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return m
}

func run(t *testing.T, src string, opts Options) *Result {
	t.Helper()
	res, err := runE(t, src, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func runE(t *testing.T, src string, opts Options) (*Result, error) {
	t.Helper()
	mod := compile(t, src)
	opts.CaptureOutput = true
	opts.BoundsCheck = true
	m, err := New(mod, hw.OdroidXU4(), opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m.Run()
}

func TestFibonacciCorrect(t *testing.T) {
	res := run(t, `
func fib(n int) int {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
func main() { print_int(fib(15)); }
`, Options{})
	if len(res.Output) != 1 || res.Output[0] != "610" {
		t.Fatalf("output = %v, want [610]", res.Output)
	}
	if res.TimeS <= 0 || res.EnergyJ <= 0 || res.Instructions == 0 {
		t.Errorf("result: %+v", res)
	}
}

func TestArithmeticAndControlFlow(t *testing.T) {
	res := run(t, `
func main() {
	var s int = 0;
	var i int;
	for (i = 0; i < 100; i = i + 1) {
		if (i % 3 == 0) { s = s + i; } else { s = s - 1; }
	}
	print_int(s);
	var x float = 2.0;
	x = sqrt(x * 8.0);
	print_float(x);
	var b bool = 3 > 2 && 1 < 2 || false;
	if (b) { print_int(1); } else { print_int(0); }
	print_int(min(3, max(1, 2)));
	print_int(abs(-42));
}
`, Options{})
	// s = sum of multiples of 3 below 100 (0,3,...,99 -> 1683) minus 66.
	want := []string{"1617", "4", "1", "2", "42"}
	if len(res.Output) != len(want) {
		t.Fatalf("output = %v, want %v", res.Output, want)
	}
	for i := range want {
		if res.Output[i] != want[i] {
			t.Errorf("output[%d] = %q, want %q", i, res.Output[i], want[i])
		}
	}
}

func TestArraysAndGlobals(t *testing.T) {
	res := run(t, `
var acc int;
var table [64]int;
func main() {
	var local [16]float;
	var i int;
	for (i = 0; i < 64; i = i + 1) { table[i] = i * 2; }
	for (i = 0; i < 16; i = i + 1) { local[i] = float(i) * 0.5; }
	acc = table[10] + table[63] + int(local[8] * 2.0);
	print_int(acc);
}
`, Options{})
	// 20 + 126 + 8 = 154
	if len(res.Output) != 1 || res.Output[0] != "154" {
		t.Fatalf("output = %v, want [154]", res.Output)
	}
}

func TestSpawnJoinAndLocks(t *testing.T) {
	res := run(t, `
var counter int;
mutex m;
func worker(n int) {
	var i int;
	for (i = 0; i < n; i = i + 1) {
		lock(m);
		counter = counter + 1;
		unlock(m);
	}
}
func main() {
	var i int;
	for (i = 0; i < 4; i = i + 1) { spawn worker(500); }
	join();
	print_int(counter);
}
`, Options{})
	if len(res.Output) != 1 || res.Output[0] != "2000" {
		t.Fatalf("counter = %v, want [2000] (lock mutual exclusion)", res.Output)
	}
}

func TestBarrierSynchronization(t *testing.T) {
	res := run(t, `
var ready int;
var sum int;
mutex m;
barrier gate;
func worker(id int) {
	lock(m);
	ready = ready + 1;
	unlock(m);
	barrier_wait(gate);
	// After the barrier every worker must observe all arrivals.
	lock(m);
	sum = sum + ready;
	unlock(m);
}
func main() {
	barrier_init(gate, 4);
	var i int;
	for (i = 0; i < 4; i = i + 1) { spawn worker(i); }
	join();
	print_int(sum);
}
`, Options{})
	if len(res.Output) != 1 || res.Output[0] != "16" {
		t.Fatalf("sum = %v, want [16] (4 workers x ready=4)", res.Output)
	}
}

func TestDeterminism(t *testing.T) {
	src := `
var counter int;
mutex m;
func worker(n int) {
	var i int;
	var x float = 0.0;
	for (i = 0; i < n; i = i + 1) {
		x = x + sqrt(float(i));
		if (i % 64 == 0) {
			lock(m);
			counter = counter + 1;
			unlock(m);
		}
	}
}
func main() {
	spawn worker(3000);
	spawn worker(2000);
	spawn worker(1000);
	join();
	print_int(counter);
}
`
	a := run(t, src, Options{Seed: 42})
	b := run(t, src, Options{Seed: 42})
	if a.TimeS != b.TimeS || a.EnergyJ != b.EnergyJ || a.Instructions != b.Instructions {
		t.Fatalf("same seed diverged: %v/%v, %v/%v, %d/%d",
			a.TimeS, b.TimeS, a.EnergyJ, b.EnergyJ, a.Instructions, b.Instructions)
	}
	c := run(t, src, Options{Seed: 43})
	if a.TimeS == c.TimeS && a.EnergyJ == c.EnergyJ {
		t.Log("different seeds produced identical results (possible but suspicious)")
	}
}

func TestMoreCoresHelpParallelWork(t *testing.T) {
	src := `
func worker(n int) {
	var i int;
	var x float = 1.0;
	for (i = 0; i < n; i = i + 1) { x = x * 1.000001 + 0.5; }
}
func main() {
	var i int;
	for (i = 0; i < 4; i = i + 1) { spawn worker(40000); }
	join();
}
`
	one := run(t, src, Options{InitialConfig: hw.Config{Big: 1}})
	four := run(t, src, Options{InitialConfig: hw.Config{Big: 4}})
	if !(four.TimeS < one.TimeS/2) {
		t.Errorf("4 big cores (%.6fs) should be >2x faster than 1 (%.6fs)", four.TimeS, one.TimeS)
	}
}

func TestBigFasterLittleCheaper(t *testing.T) {
	src := `
func main() {
	var i int;
	var x float = 1.0;
	for (i = 0; i < 60000; i = i + 1) { x = x * 1.000001 + 0.5; }
}
`
	big := run(t, src, Options{InitialConfig: hw.Config{Big: 1}})
	little := run(t, src, Options{InitialConfig: hw.Config{Little: 1}})
	if !(big.TimeS < little.TimeS) {
		t.Errorf("big (%.6fs) should beat LITTLE (%.6fs)", big.TimeS, little.TimeS)
	}
	if !(big.AvgWatts() > little.AvgWatts()) {
		t.Errorf("big power (%.3fW) should exceed LITTLE (%.3fW)", big.AvgWatts(), little.AvgWatts())
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"div by zero", `func main() { var z int = 0; print_int(7 / z); }`, "division by zero"},
		{"array oob", `func main() { var a [4]int; var i int = 9; a[i] = 1; }`, "out of range"},
		{"global oob", `var g [4]int; func main() { var i int = -1; g[i] = 1; }`, "out of range"},
		{"bad unlock", `mutex m; func main() { unlock(m); }`, "does not hold"},
		{"uninit barrier", `barrier b; func main() { barrier_wait(b); }`, "before barrier_init"},
		{"bad mutex id", `func main() { lock(5); }`, "no such mutex"},
		{"bad barrier parties", `barrier b; func main() { barrier_init(b, 0); barrier_wait(b); }`, "invalid party"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := runE(t, c.src, Options{})
			if err == nil {
				t.Fatal("no error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q, want containing %q", err, c.want)
			}
		})
	}
}

func TestDeadlockDetected(t *testing.T) {
	_, err := runE(t, `
mutex m;
func main() {
	lock(m);
	lock(m);
}
`, Options{})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

func TestRunawayProgramHitsMaxTime(t *testing.T) {
	_, err := runE(t, `
func main() {
	while (true) { sleep_ms(10); }
}
`, Options{MaxTimeS: 0.05})
	if err == nil || !strings.Contains(err.Error(), "MaxTimeS") {
		t.Fatalf("err = %v, want MaxTimeS exceeded", err)
	}
}

func TestSleepAdvancesTime(t *testing.T) {
	res := run(t, `func main() { sleep_ms(20); }`, Options{})
	if res.TimeS < 0.020 {
		t.Errorf("TimeS = %v, want >= 0.020", res.TimeS)
	}
	if res.TimeS > 0.030 {
		t.Errorf("TimeS = %v, sleep should dominate", res.TimeS)
	}
}

func TestCheckpointsRecorded(t *testing.T) {
	res := run(t, `
func main() {
	var i int;
	var x float = 1.0;
	for (i = 0; i < 200000; i = i + 1) { x = x * 1.000001 + 0.5; }
}
`, Options{CheckpointS: 1e-3})
	if len(res.Checkpoints) < 2 {
		t.Fatalf("only %d checkpoints", len(res.Checkpoints))
	}
	for _, ck := range res.Checkpoints {
		if ck.EnergyJ <= 0 {
			t.Errorf("checkpoint %d: energy %v", ck.Index, ck.EnergyJ)
		}
		if ck.DurS != 1e-3 {
			t.Errorf("checkpoint %d: dur %v", ck.Index, ck.DurS)
		}
	}
	// A single-threaded CPU loop on an 8-core machine: utilization bucket 0
	// (1/8 = 12.5% < 20%).
	mid := res.Checkpoints[len(res.Checkpoints)/2]
	if mid.HWPhase.CPUBucket != 0 {
		t.Errorf("CPU bucket = %d, want 0 (util=%v)", mid.HWPhase.CPUBucket, mid.HW.Util())
	}
	if mid.HW.IPC() <= 0 {
		t.Errorf("IPC = %v", mid.HW.IPC())
	}
}

func TestPowerSampling(t *testing.T) {
	res := run(t, `
func main() {
	var i int;
	var x float = 1.0;
	for (i = 0; i < 40000; i = i + 1) { x = x * 1.000001 + 0.5; }
	sleep_ms(5);
	for (i = 0; i < 40000; i = i + 1) { x = x * 1.000001 + 0.5; }
}
`, Options{SampleS: 100e-6, InitialConfig: hw.Config{Big: 1}})
	if res.Samples == nil || len(res.Samples.Samples) < 20 {
		t.Fatal("sampling did not produce a series")
	}
	// During the sleep the board must draw close to idle power; during
	// compute, more.
	min, max := res.Samples.Samples[0].Watts, res.Samples.Samples[0].Watts
	for _, s := range res.Samples.Samples {
		if s.Watts < min {
			min = s.Watts
		}
		if s.Watts > max {
			max = s.Watts
		}
	}
	if !(max > min*1.5) {
		t.Errorf("power range [%v, %v] shows no phases", min, max)
	}
}

func TestEnergyIsTimePowerConsistent(t *testing.T) {
	res := run(t, `
func main() {
	var i int;
	var x float = 1.0;
	for (i = 0; i < 50000; i = i + 1) { x = x * 1.000001 + 0.5; }
}
`, Options{InitialConfig: hw.Config{Big: 2}})
	p := hw.OdroidXU4()
	lo := p.IdleConfigPower(hw.Config{Big: 2}) * res.TimeS * 0.5
	hi := p.MaxConfigPower(hw.Config{Big: 2}) * res.TimeS * 1.5
	if res.EnergyJ < lo || res.EnergyJ > hi {
		t.Errorf("energy %v J outside physical bounds [%v, %v]", res.EnergyJ, lo, hi)
	}
}

func TestThreadLimit(t *testing.T) {
	_, err := runE(t, `
func w() { sleep_ms(1); }
func main() {
	var i int;
	for (i = 0; i < 100; i = i + 1) { spawn w(); }
	join();
}
`, Options{MaxThreads: 8})
	if err == nil || !strings.Contains(err.Error(), "thread limit") {
		t.Fatalf("err = %v, want thread limit", err)
	}
}

func TestStackOverflowDetected(t *testing.T) {
	_, err := runE(t, `
func deep(n int) {
	var pad [512]float;
	pad[0] = float(n);
	if (n > 0) { deep(n - 1); }
}
func main() { deep(1000); }
`, Options{})
	if err == nil || !strings.Contains(err.Error(), "stack overflow") {
		t.Fatalf("err = %v, want stack overflow", err)
	}
}

func TestMainArgsPassed(t *testing.T) {
	mod := compile(t, `func main(a int, b int) { print_int(a * 100 + b); }`)
	m, err := New(mod, hw.OdroidXU4(), Options{Args: []int64{7, 3}, CaptureOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 1 || res.Output[0] != "703" {
		t.Fatalf("output = %v", res.Output)
	}
	// Arg count mismatch rejected.
	if _, err := New(mod, hw.OdroidXU4(), Options{}); err == nil {
		t.Fatal("missing args accepted")
	}
}

func TestMachineRunsOnce(t *testing.T) {
	mod := compile(t, `func main() { }`)
	m, err := New(mod, hw.OdroidXU4(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil {
		t.Fatal("second Run accepted")
	}
}

func TestRandBuiltinsDeterministicPerSeed(t *testing.T) {
	src := `func main() { print_int(rand_int(1000)); print_float(rand_float); }`
	// fix: rand_float is a call
	src = `func main() { print_int(rand_int(1000)); print_float(rand_float()); }`
	a := run(t, src, Options{Seed: 5})
	b := run(t, src, Options{Seed: 5})
	if a.Output[0] != b.Output[0] || a.Output[1] != b.Output[1] {
		t.Fatalf("rand not deterministic: %v vs %v", a.Output, b.Output)
	}
}

// scanCheckPolicy is LeastLoaded that runs check before every placement.
type scanCheckPolicy struct {
	LeastLoaded
	check func(when string)
}

func (p *scanCheckPolicy) PlaceThread(m *Machine, t *Thread) int {
	p.check("at placement")
	return p.LeastLoaded.PlaceThread(m, t)
}

// TestActiveListsMatchScan checks the machine-owned active core lists
// against a fresh scan of the cores' active flags after every configuration
// change and at every thread placement, including the re-placement of the
// threads a change displaces.
func TestActiveListsMatchScan(t *testing.T) {
	m := wakeMachine(t, false)
	check := func(when string) {
		var all, bigs, littles []int
		for _, c := range m.cores {
			if !c.active {
				continue
			}
			all = append(all, c.idx)
			if c.spec.Type == hw.Big {
				bigs = append(bigs, c.idx)
			} else {
				littles = append(littles, c.idx)
			}
		}
		gotBigs, gotLittles := m.ActiveCoreIDsByType()
		if !slices.Equal(m.ActiveCoreIDs(), all) || !slices.Equal(gotBigs, bigs) || !slices.Equal(gotLittles, littles) {
			t.Fatalf("%s %v: active %v big %v LITTLE %v, scan finds %v, %v, %v",
				when, m.cfg, m.ActiveCoreIDs(), gotBigs, gotLittles, all, bigs, littles)
		}
	}
	m.opts.OS = &scanCheckPolicy{check: check}
	check("after New")
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		m.requestConfig(m.plat.ConfigFromID(rng.Intn(m.plat.NumConfigs())))
		check("after requestConfig")
		for j := 0; j < 20; j++ {
			stepEvent(m)
		}
		if m.err != nil {
			t.Fatal(m.err)
		}
	}
	if m.switches < 200 {
		t.Fatalf("only %d configuration changes applied", m.switches)
	}
}

// TestPrintOutputOnlyWhenCaptured runs a print-heavy program with capture
// on, off and truncated, on both tiers. The print builtins format a value
// only when it is kept, so capture must change Output and OutputTrunc and
// not one other byte of the result.
func TestPrintOutputOnlyWhenCaptured(t *testing.T) {
	mod := compile(t, `
func main(n int) {
	var i int;
	for (i = 0; i < n; i = i + 1) {
		print_int(i * 37 - 500);
		print_float(float(i) / 8.0 - 3.0);
		print_char(65 + i % 26);
	}
}`)
	const n = 200
	var want []string
	for i := 0; i < n; i++ {
		want = append(want, fmt.Sprintf("%d", i*37-500), fmt.Sprintf("%g", float64(i)/8-3), string(rune(65+i%26)))
	}
	for _, legacy := range []bool{false, true} {
		runWith := func(capture bool, maxOutput int) *Result {
			t.Helper()
			m, err := New(mod, hw.OdroidXU4(), Options{Args: []int64{n}, Seed: 3, CaptureOutput: capture, MaxOutput: maxOutput, LegacyInterp: legacy})
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		encodeWithout := func(r *Result) string {
			t.Helper()
			c := *r
			c.Output, c.OutputTrunc = nil, false
			b, err := EncodeResult(&c)
			if err != nil {
				t.Fatal(err)
			}
			return string(b)
		}
		on, off, trunc := runWith(true, 0), runWith(false, 0), runWith(true, 50)
		if !reflect.DeepEqual(on.Output, want) || on.OutputTrunc {
			t.Fatalf("legacy=%t: captured %d lines (trunc %t), want %d", legacy, len(on.Output), on.OutputTrunc, len(want))
		}
		if off.Output != nil || off.OutputTrunc {
			t.Fatalf("legacy=%t: capture off kept %d lines (trunc %t)", legacy, len(off.Output), off.OutputTrunc)
		}
		if !reflect.DeepEqual(trunc.Output, want[:50]) || !trunc.OutputTrunc {
			t.Fatalf("legacy=%t: MaxOutput 50 kept %d lines (trunc %t)", legacy, len(trunc.Output), trunc.OutputTrunc)
		}
		base := encodeWithout(on)
		if encodeWithout(off) != base || encodeWithout(trunc) != base {
			t.Fatalf("legacy=%t: capture changed result bytes beyond Output", legacy)
		}
	}
}
