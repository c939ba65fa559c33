package sim

// Differential testing: generate random arithmetic/logic expression
// programs, evaluate them both with a host-side Go evaluator and with the
// full compile-to-IR + simulate pipeline, and require identical results.
// This covers the front end's lowering, the verifier and the interpreter's
// instruction semantics in one sweep.

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"astro/internal/hw"
	"astro/internal/ir"
	"astro/internal/workloads"
)

// expr is a host-evaluable random expression tree over int.
type expr interface {
	src() string
	eval() int64
}

type lit struct{ v int64 }

func (l lit) src() string { return fmt.Sprintf("%d", l.v) }
func (l lit) eval() int64 { return l.v }

type binop struct {
	op   string
	l, r expr
}

func (b binop) src() string { return "(" + b.l.src() + " " + b.op + " " + b.r.src() + ")" }
func (b binop) eval() int64 {
	x, y := b.l.eval(), b.r.eval()
	switch b.op {
	case "+":
		return x + y
	case "-":
		return x - y
	case "*":
		return x * y
	case "/":
		return x / y
	case "%":
		return x % y
	}
	panic("bad op")
}

type condop struct {
	cmp       string
	a, b      expr
	then, els expr
}

func (c condop) src() string {
	// Lowered via a helper function with if/else, exercising control flow.
	return fmt.Sprintf("pick%s(%s, %s, %s, %s)", c.cmpName(), c.a.src(), c.b.src(), c.then.src(), c.els.src())
}

func (c condop) cmpName() string {
	switch c.cmp {
	case "<":
		return "lt"
	case "<=":
		return "le"
	case "==":
		return "eq"
	}
	return "ne"
}

func (c condop) eval() int64 {
	var t bool
	switch c.cmp {
	case "<":
		t = c.a.eval() < c.b.eval()
	case "<=":
		t = c.a.eval() <= c.b.eval()
	case "==":
		t = c.a.eval() == c.b.eval()
	default:
		t = c.a.eval() != c.b.eval()
	}
	if t {
		return c.then.eval()
	}
	return c.els.eval()
}

// genExpr builds a random tree of the given depth. Divisors are shifted
// away from zero so host and simulated evaluation are both defined.
func genExpr(rng *rand.Rand, depth int) expr {
	if depth == 0 || rng.Intn(4) == 0 {
		return lit{int64(rng.Intn(199) - 99)}
	}
	switch rng.Intn(7) {
	case 0, 1:
		return binop{"+", genExpr(rng, depth-1), genExpr(rng, depth-1)}
	case 2:
		return binop{"-", genExpr(rng, depth-1), genExpr(rng, depth-1)}
	case 3:
		return binop{"*", genExpr(rng, depth-1), genExpr(rng, depth-1)}
	case 4:
		// Divisor strictly positive: d = |sub| + 1 via host-side constant.
		d := int64(rng.Intn(97) + 1)
		return binop{"/", genExpr(rng, depth-1), lit{d}}
	case 5:
		d := int64(rng.Intn(97) + 1)
		return binop{"%", genExpr(rng, depth-1), lit{d}}
	default:
		cmps := []string{"<", "<=", "==", "!="}
		return condop{
			cmp:  cmps[rng.Intn(len(cmps))],
			a:    genExpr(rng, depth-1),
			b:    genExpr(rng, depth-1),
			then: genExpr(rng, depth-1),
			els:  genExpr(rng, depth-1),
		}
	}
}

const pickHelpers = `
func picklt(a int, b int, t int, e int) int {
	if (a < b) { return t; }
	return e;
}
func pickle(a int, b int, t int, e int) int {
	if (a <= b) { return t; }
	return e;
}
func pickeq(a int, b int, t int, e int) int {
	if (a == b) { return t; }
	return e;
}
func pickne(a int, b int, t int, e int) int {
	if (a != b) { return t; }
	return e;
}
`

func TestDifferentialExpressions(t *testing.T) {
	rng := rand.New(rand.NewSource(20260610))
	plat := hw.OdroidXU4()
	for trial := 0; trial < 60; trial++ {
		var exprs []expr
		var prints []string
		for i := 0; i < 5; i++ {
			e := genExpr(rng, 4)
			exprs = append(exprs, e)
			prints = append(prints, fmt.Sprintf("\tprint_int(%s);", e.src()))
		}
		src := pickHelpers + "func main() {\n" + strings.Join(prints, "\n") + "\n}\n"
		mod := compile(t, src)
		m, err := New(mod, plat, Options{CaptureOutput: true, BoundsCheck: true, Seed: int64(trial)})
		if err != nil {
			t.Fatalf("trial %d: New: %v\n%s", trial, err, src)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("trial %d: Run: %v\n%s", trial, err, src)
		}
		if len(res.Output) != len(exprs) {
			t.Fatalf("trial %d: %d outputs, want %d", trial, len(res.Output), len(exprs))
		}
		for i, e := range exprs {
			want := fmt.Sprintf("%d", e.eval())
			if res.Output[i] != want {
				t.Fatalf("trial %d expr %d: simulated %s, host %s\nexpr: %s",
					trial, i, res.Output[i], want, e.src())
			}
		}
	}
}

// runEncoded executes mod on plat and returns the canonical result bytes.
func runEncoded(t *testing.T, mod *ir.Module, plat *hw.Platform, opts Options) []byte {
	t.Helper()
	m, err := New(mod, plat, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	data, err := EncodeResult(res)
	if err != nil {
		t.Fatalf("EncodeResult: %v", err)
	}
	return data
}

// TestDifferentialFastPathWorkloads runs every bundled workload (parsec,
// rodinia and micro suites) on both execution tiers — the compiled fast
// path and the legacy interpreter — and requires the canonical result
// encodings to be byte-identical: same times, energies, counters,
// checkpoints and outputs. This is the contract that lets the fast path
// replace the interpreter for all campaign and experiment runs without
// perturbing cached results.
func TestDifferentialFastPathWorkloads(t *testing.T) {
	plat := hw.OdroidXU4()
	for _, spec := range workloads.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			mod, err := spec.Compile()
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			opts := Options{
				Seed:          7,
				Args:          spec.SmallArgs(),
				CheckpointS:   400e-6,
				QuantumS:      50e-6,
				TickS:         200e-6,
				CaptureOutput: true,
				BoundsCheck:   true,
			}
			fast := runEncoded(t, mod, plat, opts)
			legacy := opts
			legacy.LegacyInterp = true
			slow := runEncoded(t, mod, plat, legacy)
			if !bytes.Equal(fast, slow) {
				t.Fatalf("fast path diverged from interpreter:\nfast:   %.400s\nlegacy: %.400s", fast, slow)
			}
		})
	}
}

// cyclingActuator deterministically rotates the hardware configuration at
// every checkpoint, exercising requestConfig (hotplug stalls, migrations,
// L1 invalidation) under both execution paths.
type cyclingActuator struct {
	plat *hw.Platform
	n    int
}

func (a *cyclingActuator) Name() string { return "cycling-test" }

func (a *cyclingActuator) OnCheckpoint(m *Machine, ck Checkpoint) hw.Config {
	a.n++
	return a.plat.ConfigFromID(a.n % a.plat.NumConfigs())
}

// TestDifferentialFastPathActuated cross-checks the paths under config
// churn: every checkpoint switches configuration, forcing migrations,
// displaced run queues and cache invalidations between bursts.
func TestDifferentialFastPathActuated(t *testing.T) {
	plat := hw.OdroidXU4()
	spec, ok := workloads.ByName("fluidanimate")
	if !ok {
		t.Fatal("fluidanimate not registered")
	}
	mod, err := spec.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	base := Options{
		Seed:          11,
		Args:          spec.SmallArgs(),
		CheckpointS:   160e-6,
		QuantumS:      50e-6,
		TickS:         100e-6,
		CaptureOutput: true,
		BoundsCheck:   true,
	}
	run := func(opts Options) []byte {
		opts.Actuator = &cyclingActuator{plat: plat}
		return runEncoded(t, mod, plat, opts)
	}
	fast := run(base)
	legacy := base
	legacy.LegacyInterp = true
	slow := run(legacy)
	if !bytes.Equal(fast, slow) {
		t.Fatalf("actuated fast path diverged from interpreter:\nfast:   %.400s\nlegacy: %.400s", fast, slow)
	}
}

// TestDifferentialFloatKernels cross-checks float arithmetic through an
// accumulation loop whose result is computed host-side with identical
// operation order.
func TestDifferentialFloatKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 50 + rng.Intn(200)
		a := 0.5 + rng.Float64()
		b := rng.Float64()
		src := fmt.Sprintf(`
func main() {
	var acc float = 0.0;
	var i int;
	for (i = 0; i < %d; i = i + 1) {
		acc = acc * %v + float(i) * %v;
	}
	print_float(acc);
}
`, n, a, b)
		var acc float64
		for i := 0; i < n; i++ {
			acc = acc*a + float64(i)*b
		}
		res := run(t, src, Options{Seed: int64(trial)})
		want := fmt.Sprintf("%g", acc)
		if res.Output[0] != want {
			t.Fatalf("trial %d: simulated %s, host %s (n=%d a=%v b=%v)",
				trial, res.Output[0], want, n, a, b)
		}
	}
}
