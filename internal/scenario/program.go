// Package scenario turns the reproduction's fixed evaluation (18 hand-
// ported benchmarks on two boards) into a generated one: seeded synthesis
// of astc programs with controllable phase structure, a parametric
// big.LITTLE platform zoo, and a declarative matrix that compiles program ×
// platform × scheduler × seed grids down to campaign specs.
//
// Determinism contract: every generator in this package is a pure function
// of its parameters. The same ProgramParams always yield the same astc
// source text, hence the same IR module and the same ir.Encode bytes, hence
// the same campaign job keys — so scenario sweeps hit the content-addressed
// result store exactly like hand-written benchmarks do. The only source of
// variety is the explicit Seed, threaded through a private math/rand stream
// (never the global one, never time or map order). Generated names encode
// their parameters (programs: "scn-<seed>-c2-i1-..."; platforms: the
// canonical "zoo:..." names of internal/hw), so name identity is object
// identity across processes and machines.
//
// Matrix compiles the generated axes into campaign.Spec batches. Batching
// (Batch) only regroups jobs — job keys are independent of
// batch size, worker count and execution backend, so a matrix swept
// in-process, through -workers loopback clusters, or across a distributed
// fleet produces byte-identical result sets against the same store.
package scenario

import (
	"fmt"
	"math/rand"
	"strings"

	"astro/internal/workloads"
)

// ProgramParams are the synthesis knobs for one generated program. The
// zero value of a count field means "none of that bucket"; an all-zero mix
// is rejected. Knobs deliberately mirror the feature axes of
// internal/features: the generator emits functions that the Phase-Extractor
// classifies into the requested buckets, which is pinned by tests.
type ProgramParams struct {
	Seed int64 `json:"seed"`

	// Phase mix: how many functions of each static phase the program has.
	CPU     int `json:"cpu"`     // CPU-bound kernels (int/FP arithmetic chains)
	IO      int `json:"io"`      // IO-bound readers/writers
	Blocked int `json:"blocked"` // blocked waiters (sleep/net/lock-dense)
	Mixed   int `json:"mixed"`   // balanced bodies that classify as Other

	Threads int `json:"threads"` // worker thread count (default 4, max 16)

	// Loop structure of CPU kernels: nesting depth (1..4, default 2) and
	// base trip count (default 16; per-function trips jitter in
	// [trip/2, trip], resampled from the seed).
	LoopDepth int `json:"loop_depth"`
	Trip      int `json:"trip"`

	// Contention: number of mutexes worker threads contend on inside their
	// main loop (0 = no lock glue, max 8), and whether workers barrier-step
	// each iteration.
	Mutexes int  `json:"mutexes"`
	Barrier bool `json:"barrier"`

	// Campaign scales (workloads.Spec DefaultScale/SmallScale); defaults 6/2.
	DefaultScale int64 `json:"default_scale"`
	SmallScale   int64 `json:"small_scale"`
}

// Canon fills defaults, returning the canonical parameter set (the one the
// program name encodes).
func (pp ProgramParams) Canon() ProgramParams {
	if pp.CPU == 0 && pp.IO == 0 && pp.Blocked == 0 && pp.Mixed == 0 {
		pp.CPU, pp.IO, pp.Blocked, pp.Mixed = 2, 1, 1, 1
	}
	if pp.Threads == 0 {
		pp.Threads = 4
	}
	if pp.LoopDepth == 0 {
		pp.LoopDepth = 2
	}
	if pp.Trip == 0 {
		pp.Trip = 16
	}
	if pp.DefaultScale == 0 {
		pp.DefaultScale = 6
	}
	if pp.SmallScale == 0 {
		pp.SmallScale = 2
	}
	return pp
}

// Validate rejects parameter sets outside the generator's envelope.
func (pp ProgramParams) Validate() error {
	c := pp.Canon()
	for name, v := range map[string]int{"cpu": c.CPU, "io": c.IO, "blocked": c.Blocked, "mixed": c.Mixed} {
		if v < 0 || v > 16 {
			return fmt.Errorf("scenario: %s function count %d out of range [0, 16]", name, v)
		}
	}
	if c.CPU+c.IO+c.Blocked+c.Mixed == 0 {
		return fmt.Errorf("scenario: program needs at least one phase function")
	}
	if c.Threads < 1 || c.Threads > 16 {
		return fmt.Errorf("scenario: threads %d out of range [1, 16]", c.Threads)
	}
	if c.LoopDepth < 1 || c.LoopDepth > 4 {
		return fmt.Errorf("scenario: loop depth %d out of range [1, 4]", c.LoopDepth)
	}
	if c.Trip < 2 || c.Trip > 4096 {
		return fmt.Errorf("scenario: trip count %d out of range [2, 4096]", c.Trip)
	}
	if c.Mutexes < 0 || c.Mutexes > 8 {
		return fmt.Errorf("scenario: mutex count %d out of range [0, 8]", c.Mutexes)
	}
	if c.SmallScale < 1 || c.DefaultScale < c.SmallScale {
		return fmt.Errorf("scenario: scales (default %d, small %d) must satisfy 1 <= small <= default",
			c.DefaultScale, c.SmallScale)
	}
	return nil
}

// Name derives the program's benchmark name. It encodes every parameter
// that influences the generated source or the campaign arguments, so equal
// names imply identical programs (mirroring the zoo platform naming).
func (pp ProgramParams) Name() string {
	c := pp.Canon()
	bar := 0
	if c.Barrier {
		bar = 1
	}
	return fmt.Sprintf("scn-%d-c%d-i%d-b%d-x%d-t%d-d%d-r%d-m%d-w%d-s%dx%d",
		c.Seed, c.CPU, c.IO, c.Blocked, c.Mixed, c.Threads,
		c.LoopDepth, c.Trip, c.Mutexes, bar, c.DefaultScale, c.SmallScale)
}

// Generate synthesizes the program and returns it as a registrable
// workloads spec (suite "scenario"). Same params in, byte-identical source
// out.
func Generate(pp ProgramParams) (workloads.Spec, error) {
	return generate(pp, rand.New(rand.NewSource(0)))
}

// generate is Generate drawing from rng, which it reseeds with the
// program's seed. Reseeding yields the same stream as a fresh source, so a
// caller synthesizing many programs reuses one source (a math/rand source
// is a ~4.9 KB allocation).
func generate(pp ProgramParams, rng *rand.Rand) (workloads.Spec, error) {
	if err := pp.Validate(); err != nil {
		return workloads.Spec{}, err
	}
	c := pp.Canon()
	rng.Seed(c.Seed)
	g := &progGen{p: c, rng: rng}
	src := g.source()
	return workloads.Spec{
		Name:         c.Name(),
		Suite:        "scenario",
		Desc:         fmt.Sprintf("generated: %d cpu / %d io / %d blocked / %d mixed funcs, %d threads", c.CPU, c.IO, c.Blocked, c.Mixed, c.Threads),
		Source:       src,
		DefaultScale: c.DefaultScale,
		SmallScale:   c.SmallScale,
		Threads:      int64(c.Threads),
	}, nil
}

// progGen carries the synthesis state: parameters, the seeded stream, and
// the emitted phase-function names in worker call order.
type progGen struct {
	p     ProgramParams
	rng   *rand.Rand
	funcs []string
	sb    strings.Builder
}

func (g *progGen) trip() int {
	t := g.p.Trip/2 + g.rng.Intn(g.p.Trip/2+1)
	if t < 2 {
		t = 2
	}
	return t
}

// coef draws a small FP coefficient in (0, 1], printed with a fixed format
// so source text is reproducible.
func (g *progGen) coef() string {
	return fmt.Sprintf("0.%03d", 1+g.rng.Intn(999))
}

func (g *progGen) line(format string, args ...any) {
	fmt.Fprintf(&g.sb, format+"\n", args...)
}

func (g *progGen) source() string {
	g.line("// Generated by internal/scenario; do not edit. %s", g.p.Name())
	g.line("var data [1024]float;")
	g.line("var buf [1024]float;")
	g.line("var acc [64]float;")
	if g.p.Mutexes > 0 || g.p.Blocked > 0 {
		g.line("mutex mu[8];")
	}
	if g.p.Barrier {
		g.line("barrier step;")
	}
	g.line("")
	for i := 0; i < g.p.CPU; i++ {
		g.cpuFunc(i)
	}
	for i := 0; i < g.p.IO; i++ {
		g.ioFunc(i)
	}
	for i := 0; i < g.p.Blocked; i++ {
		g.blockedFunc(i)
	}
	for i := 0; i < g.p.Mixed; i++ {
		g.mixedFunc(i)
	}
	g.workerFunc()
	g.mainFunc()
	return g.sb.String()
}

// cpuFunc emits a CPU-bound kernel: a depth-nested loop over scalar
// arithmetic chains. Every non-control instruction it lowers to is int or
// FP ALU work, so IntDens+FPDens dominates regardless of depth.
func (g *progGen) cpuFunc(i int) {
	name := fmt.Sprintf("cpu_%d", i)
	g.funcs = append(g.funcs, name)
	depth := 1 + g.rng.Intn(g.p.LoopDepth)
	useFP := g.rng.Intn(2) == 0
	g.line("func %s(id int) {", name)
	indent := "\t"
	for d := 0; d < depth; d++ {
		g.line("%svar i%d int;", indent, d)
	}
	if useFP {
		g.line("%svar s float = %s;", indent, g.coef())
		g.line("%svar t float = %s;", indent, g.coef())
	} else {
		g.line("%svar a int = %d;", indent, 1+g.rng.Intn(9))
		g.line("%svar b int = %d;", indent, 1+g.rng.Intn(9))
	}
	for d := 0; d < depth; d++ {
		trip := g.trip()
		if d > 0 {
			trip = 2 + g.rng.Intn(3) // keep nested work polynomial, not explosive
		}
		g.line("%sfor (i%d = 0; i%d < %d; i%d = i%d + 1) {", indent, d, d, trip, d, d)
		indent += "\t"
	}
	lines := 4 + g.rng.Intn(4)
	for l := 0; l < lines; l++ {
		if useFP {
			switch g.rng.Intn(3) {
			case 0:
				g.line("%ss = s * %s + %s;", indent, g.coef(), g.coef())
			case 1:
				g.line("%st = t + s * %s;", indent, g.coef())
			default:
				g.line("%ss = s - t * %s;", indent, g.coef())
			}
		} else {
			switch g.rng.Intn(3) {
			case 0:
				g.line("%sa = a * %d + %d;", indent, 3+g.rng.Intn(5), 1+g.rng.Intn(7))
			case 1:
				g.line("%sb = b + a / %d;", indent, 2+g.rng.Intn(6))
			default:
				g.line("%sa = a - b %% %d;", indent, 5+g.rng.Intn(11))
			}
		}
	}
	if useFP && g.rng.Intn(2) == 0 {
		g.line("%st = t + sqrt(fabs(s) + %s);", indent, g.coef())
	}
	for d := depth - 1; d >= 0; d-- {
		indent = indent[:len(indent)-1]
		g.line("%s}", indent)
	}
	if useFP {
		g.line("\tacc[id %% 64] = s + t;")
	} else {
		g.line("\tacc[id %% 64] = float(a + b);")
	}
	g.line("}")
	g.line("")
}

// ioFunc emits an IO-bound function: unrolled blocking reads/writes through
// a private slice of buf, so IODens+MemDens dominates and LockDens is 0.
func (g *progGen) ioFunc(i int) {
	name := fmt.Sprintf("io_%d", i)
	g.funcs = append(g.funcs, name)
	g.line("func %s(id int) {", name)
	g.line("\tvar i int;")
	g.line("\tvar base int = (id %% 16) * 64;")
	g.line("\tfor (i = 0; i < %d; i = i + 1) {", g.trip())
	reads := 3 + g.rng.Intn(3)
	for r := 0; r < reads; r++ {
		g.line("\t\tbuf[base] = buf[base] + read_float();")
	}
	writes := 2 + g.rng.Intn(2)
	for w := 0; w < writes; w++ {
		g.line("\t\tprint_float(buf[base + %d]);", g.rng.Intn(64))
	}
	g.line("\t}")
	g.line("}")
	g.line("")
}

// blockedFunc emits a Blocked-phase function. Three variants map to the
// three blocking traits the Phase-Extractor recognizes: an unconditional
// sleep, a network wait, and a lock-dense body (LockDens > 0.5).
func (g *progGen) blockedFunc(i int) {
	name := fmt.Sprintf("blk_%d", i)
	g.funcs = append(g.funcs, name)
	g.line("func %s(id int) {", name)
	switch g.rng.Intn(3) {
	case 0: // sleeper
		g.line("\tvar i int;")
		g.line("\tfor (i = 0; i < %d; i = i + 1) {", 1+g.rng.Intn(2))
		g.line("\t\tsleep_ms(1);")
		g.line("\t\tacc[id %% 64] = acc[id %% 64] + %s;", g.coef())
		g.line("\t}")
	case 1: // network round-trip
		g.line("\tnet_send(id);")
		g.line("\tacc[id %% 64] = acc[id %% 64] + float(net_recv());")
	default: // lock-dense: a run of short critical sections on one mutex
		g.line("\tvar m int = mu[id %% 8];")
		pairs := 6 + g.rng.Intn(3)
		for p := 0; p < pairs; p++ {
			g.line("\tlock(m);")
			if p == pairs/2 {
				g.line("\tacc[id %% 64] = acc[id %% 64] + %s;", g.coef())
			}
			g.line("\tunlock(m);")
		}
	}
	g.line("}")
	g.line("")
}

// mixedFunc emits a body balanced between memory traffic and arithmetic so
// that neither the IO/Mem nor the Int/FP predicate crosses 0.5: it
// classifies as Other.
func (g *progGen) mixedFunc(i int) {
	name := fmt.Sprintf("mix_%d", i)
	g.funcs = append(g.funcs, name)
	g.line("func %s(id int) {", name)
	g.line("\tvar i int;")
	g.line("\tvar x float = %s;", g.coef())
	// The loop index addresses arrays directly, so the trip is capped at
	// the shared 1024-element footprint.
	trip := g.trip()
	if trip > 1024 {
		trip = 1024
	}
	g.line("\tfor (i = 0; i < %d; i = i + 1) {", trip)
	pairs := 2 + g.rng.Intn(2)
	for p := 0; p < pairs; p++ {
		// One memory-heavy statement (3 addr + 2 loads + 1 store = 6 Mem,
		// 1 FP, no index arithmetic) paired with one arithmetic statement
		// (2 FP) keeps both densities in the 0.40-0.49 band, under both
		// classification thresholds.
		g.line("\t\tdata[i] = data[i] + buf[i];")
		g.line("\t\tx = x * %s + %s;", g.coef(), g.coef())
	}
	g.line("\t}")
	g.line("\tacc[id %% 64] = x;")
	g.line("}")
	g.line("")
}

// workerFunc emits the per-thread driver: scale iterations over every phase
// function (order shuffled per seed), optional mutex contention glue, and
// the optional barrier step.
func (g *progGen) workerFunc() {
	order := append([]string(nil), g.funcs...)
	g.rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
	g.line("func worker(id int, scale int, threads int) {")
	g.line("\tvar it int;")
	g.line("\tfor (it = 0; it < scale; it = it + 1) {")
	for _, fn := range order {
		g.line("\t\t%s(id);", fn)
	}
	if g.p.Mutexes > 0 {
		g.line("\t\tlock(mu[id %% %d]);", g.p.Mutexes)
		g.line("\t\tacc[0] = acc[0] + acc[id %% 64];")
		g.line("\t\tunlock(mu[id %% %d]);", g.p.Mutexes)
	}
	if g.p.Barrier {
		g.line("\t\tbarrier_wait(step);")
	}
	g.line("\t}")
	g.line("}")
	g.line("")
}

func (g *progGen) mainFunc() {
	g.line("func main(scale int, threads int) {")
	g.line("\tvar i int;")
	g.line("\tfor (i = 0; i < 1024; i = i + 1) {")
	g.line("\t\tdata[i] = float(i %% 97) * %s;", g.coef())
	g.line("\t\tbuf[i] = float(i %% 31) * %s;", g.coef())
	g.line("\t}")
	if g.p.Barrier {
		g.line("\tbarrier_init(step, threads);")
	}
	g.line("\tfor (i = 0; i < threads; i = i + 1) {")
	g.line("\t\tspawn worker(i, scale, threads);")
	g.line("\t}")
	g.line("\tjoin();")
	g.line("\tprint_float(acc[0]);")
	g.line("}")
}
