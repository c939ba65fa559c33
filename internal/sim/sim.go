// Package sim is the execution substrate of the reproduction: a
// deterministic discrete-event simulator of a big.LITTLE machine that runs
// compiled (and possibly instrumented) IR programs on simulated cores with
// private L1 / per-cluster L2 caches, an OS-level thread scheduler, hardware
// performance counters, a power meter, and periodic actuation checkpoints.
//
// It stands in for the paper's Odroid XU4 + Linux (GTS) + PowMon stack. The
// machine executes threads in bursts: pure compute runs freely inside a
// burst, while every globally-visible operation (locks, barriers, I/O,
// spawns, configuration changes) executes only when its core holds the
// minimum virtual clock, which makes the simulation deterministic for a
// given seed.
package sim

import (
	"fmt"

	"astro/internal/cache"
	"astro/internal/hw"
	"astro/internal/ir"
	"astro/internal/perfmon"
	"astro/internal/powmon"
)

// Options configures a machine run.
type Options struct {
	Seed int64
	Args []int64 // arguments for main (must match its int parameters)

	InitialConfig hw.Config // zero value means all cores on

	QuantumS    float64 // scheduling quantum (default 100 µs)
	TickS       float64 // OS load-balance period (default 1 ms)
	CheckpointS float64 // actuation/monitoring period (default 2 ms; the
	// paper uses 500 ms on minutes-long runs — we scale the whole time axis
	// down, keeping the checkpoints-per-run ratio, see DESIGN.md)
	SampleS  float64 // power sample period (0 = sampling off)
	MaxTimeS float64 // simulation time limit (default 300 s)

	// MaxThreads × StackCells cells are reserved as address space behind
	// the globals; the cells are allocated on first touch, so an unused
	// stack costs nothing (see Machine.growMem).
	MaxThreads int   // default 64
	StackCells int64 // per-thread stack cells (default 16384)

	OS       OSPolicy     // nil = least-loaded round-robin
	Actuator Actuator     // nil = no actuation (fixed config)
	Hybrid   HybridPolicy // consulted by OpDetermineConf instrumentation

	// BoundsCheck adds per-array index checks (default off). Loads and
	// stores outside the address space fault either way.
	BoundsCheck   bool
	CaptureOutput bool
	MaxOutput     int // default 10000 entries

	// LegacyInterp disables the precompiled fast path and interprets the IR
	// structure directly (the original per-instruction decoder). The two
	// paths produce byte-identical results — differential tests pin this —
	// so the flag exists for cross-checking and for isolating fast-path
	// regressions, not for behavioural choice.
	LegacyInterp bool

	// Blocking latencies (seconds). Zero values take defaults. These model
	// the simulated board's I/O paths, scaled with the time axis.
	UserInputLatencyS float64 // read_user_data (default 3 ms)
	FileReadLatencyS  float64 // read_int/read_float (default 2 µs)
	WriteLatencyS     float64 // print_* (default 1.5 µs)
	NetLatencyS       float64 // net_recv (default 300 µs); net_send is 1/4

	// WakeLatencyS is the scheduler wake-up cost charged on the critical
	// path when a blocked thread is released (contended lock handoff,
	// barrier release, join completion) — the futex-wake path on a real
	// kernel. It is what makes contended synchronization slower than
	// uncontended execution. Default 0.4 µs.
	WakeLatencyS float64
}

func (o *Options) setDefaults() {
	if o.QuantumS == 0 {
		o.QuantumS = 100e-6
	}
	if o.TickS == 0 {
		o.TickS = 1e-3
	}
	if o.CheckpointS == 0 {
		o.CheckpointS = 2e-3
	}
	if o.MaxTimeS == 0 {
		o.MaxTimeS = 300
	}
	if o.MaxThreads == 0 {
		o.MaxThreads = 64
	}
	if o.StackCells == 0 {
		o.StackCells = 16384
	}
	if o.MaxOutput == 0 {
		o.MaxOutput = 10000
	}
	if o.UserInputLatencyS == 0 {
		o.UserInputLatencyS = 3e-3
	}
	if o.FileReadLatencyS == 0 {
		o.FileReadLatencyS = 2e-6
	}
	if o.WriteLatencyS == 0 {
		o.WriteLatencyS = 1.5e-6
	}
	if o.NetLatencyS == 0 {
		o.NetLatencyS = 300e-6
	}
	if o.WakeLatencyS == 0 {
		o.WakeLatencyS = 0.4e-6
	}
}

// Result summarizes a completed run.
type Result struct {
	TimeS        float64
	EnergyJ      float64
	Instructions uint64
	Checkpoints  []Checkpoint
	Samples      *powmon.Series // nil unless SampleS > 0
	Output       []string       // print_* output if captured
	OutputTrunc  bool
	Switches     int // configuration changes applied
	Migrations   int // thread migrations
	FinalConfig  hw.Config
}

// MIPS returns average millions of instructions per second.
func (r *Result) MIPS() float64 {
	if r.TimeS == 0 {
		return 0
	}
	return float64(r.Instructions) / r.TimeS / 1e6
}

// AvgWatts returns average power over the run.
func (r *Result) AvgWatts() float64 {
	if r.TimeS == 0 {
		return 0
	}
	return r.EnergyJ / r.TimeS
}

// Machine is a single simulated big.LITTLE board executing one program.
type Machine struct {
	plat *hw.Platform
	mod  *ir.Module
	prog *Program // precompiled fast-path code (nil with Options.LegacyInterp)
	opts Options

	mem      []uint64 // the allocated prefix of the address space
	memCells int64    // logical size: globals plus every thread's stack
	cores    []*core
	l2       map[hw.CoreType]*cache.Cache
	threads  []*Thread
	live     int // threads not yet done
	runnable int

	locks    []lockState
	barriers []barrierState

	cfg      hw.Config
	now      float64
	doneTime float64
	events   eventHeap
	seq      uint64
	wakes    int // outstanding wake events (deadlock detection)

	meter      powmon.Meter
	samples    *powmon.Series
	output     []string
	outTrunc   bool
	switches   int
	migrations int

	// Telemetry accumulators: plain (non-atomic) per-run totals, flushed
	// to the shared registry with one atomic add each in finish(). They
	// are never read by the simulation itself.
	quanta  uint64
	tCycles uint64

	ckIndex     int
	checkpoints []Checkpoint
	lastHW      perfmon.HWPhase

	rngState uint64
	err      error
}

type lockState struct {
	held    bool
	owner   int
	waiters []int // thread ids, FIFO
}

type barrierState struct {
	parties int
	waiting []int
}

type core struct {
	idx    int
	spec   *hw.CoreSpec
	hier   cache.Hierarchy
	costs  costTable // resolved per-class cycle costs for spec
	active bool

	costv costVariant // per-instruction charges specialized for costs (nil with LegacyInterp)

	cur        *Thread
	runq       []*Thread
	availAt    float64 // busy frontier: earliest next burst start
	idleFrom   float64 // start of current idle period (energy accounting)
	runPending bool    // an evCoreRun is queued

	burstStart, burstEnd, burstPower float64

	// Window performance counters (reset each checkpoint).
	wInstr, wCycles, wAcc, wMiss uint64
	wBusy                        float64

	tInstr uint64 // total retired
}

// New builds a machine for the module on the platform. The module must have
// a main function whose parameters are all int and match len(opts.Args).
func New(mod *ir.Module, plat *hw.Platform, opts Options) (*Machine, error) {
	return NewWithProgram(mod, plat, opts, nil)
}

// NewWithProgram builds a machine that executes an already-compiled program
// — typically one decoded from its canonical byte encoding (DecodeProgram)
// after being shipped over the wire — instead of compiling mod itself. prog
// must have been compiled from (or decoded against) exactly this module;
// since compilation and decoding both bind the module pointer, that is
// checked by identity. A nil prog compiles locally through the cache, and
// Options.LegacyInterp ignores prog entirely: the program is an acceleration
// structure, never a behavioural input (DESIGN.md invariant 12).
func NewWithProgram(mod *ir.Module, plat *hw.Platform, opts Options, prog *Program) (*Machine, error) {
	opts.setDefaults()
	if prog != nil && prog.mod != mod {
		return nil, fmt.Errorf("sim: program was compiled from a different module than %q", mod.Name)
	}
	mainFn := mod.FuncByName("main")
	if mainFn == nil {
		return nil, fmt.Errorf("sim: module %q has no main", mod.Name)
	}
	if len(opts.Args) != len(mainFn.Params) {
		return nil, fmt.Errorf("sim: main takes %d args, got %d", len(mainFn.Params), len(opts.Args))
	}
	for i, p := range mainFn.Params {
		if p != ir.TInt {
			return nil, fmt.Errorf("sim: main parameter %d must be int", i)
		}
	}
	cfg := opts.InitialConfig
	if cfg.Cores() == 0 {
		cfg = plat.AllOn()
	}
	if !cfg.Valid(plat.MaxLittle(), plat.MaxBig()) {
		return nil, fmt.Errorf("sim: invalid initial config %v", cfg)
	}
	m := &Machine{
		plat:     plat,
		mod:      mod,
		opts:     opts,
		locks:    make([]lockState, mod.NumMutex),
		barriers: make([]barrierState, mod.NumBarrier),
		l2:       map[hw.CoreType]*cache.Cache{},
		rngState: uint64(opts.Seed)*2654435761 + 0x9E3779B97F4A7C15,
	}
	m.memCells = mod.GlobalCells() + int64(opts.MaxThreads)*opts.StackCells
	m.mem = make([]uint64, mod.GlobalCells())
	for ct, kb := range plat.L2KB {
		m.l2[ct] = cache.MustNew(kb*1024, plat.L2Ways, plat.LineBytes)
	}
	for i := range plat.Cores {
		spec := &plat.Cores[i]
		c := &core{
			idx:   i,
			spec:  spec,
			costs: makeCostTable(spec),
			hier: cache.Hierarchy{
				L1c: cache.MustNew(plat.L1KB*1024, plat.L1Ways, plat.LineBytes),
				L2c: m.l2[spec.Type],
			},
		}
		m.cores = append(m.cores, c)
	}
	if !opts.LegacyInterp {
		if prog != nil {
			m.prog = prog
		} else {
			m.prog = CompiledProgram(mod)
		}
		// Bind each core's cost-specialized charge arrays up front: the
		// variant build is the per-core-cost specialization pass, and doing
		// it here keeps the steady-state quantum at 0 allocs/op.
		for _, c := range m.cores {
			c.costv = m.prog.variant(c.costs)
		}
	}
	for _, ci := range plat.ActiveCores(cfg) {
		m.cores[ci].active = true
	}
	m.cfg = cfg
	if opts.SampleS > 0 {
		m.samples = &powmon.Series{IntervalS: opts.SampleS}
	}
	if m.opts.OS == nil {
		m.opts.OS = &LeastLoaded{}
	}
	return m, nil
}

// growMem backs addr with allocated memory, zero-filling every new cell and
// at least doubling the allocation so repeated growth stays amortized O(1).
// It reports false, leaving memory alone, when addr lies outside the logical
// address space [0, memCells) — the only addresses that fault. Every caller
// inside a burst must reload its cached copy of m.mem afterwards.
func (m *Machine) growMem(addr int64) bool {
	if addr < 0 || addr >= m.memCells {
		return false
	}
	if old := int64(len(m.mem)); addr >= old {
		n := min(max(addr+1, 2*old), m.memCells)
		m.mem = append(m.mem, make([]uint64, n-old)...)
	}
	return true
}

// Accessors used by OS policies, actuators and tests.

// Platform returns the machine's hardware description.
func (m *Machine) Platform() *hw.Platform { return m.plat }

// Config returns the current hardware configuration.
func (m *Machine) Config() hw.Config { return m.cfg }

// Now returns the current virtual time in seconds.
func (m *Machine) Now() float64 { return m.now }

// ActiveCoreIDs lists the currently active core indices.
func (m *Machine) ActiveCoreIDs() []int {
	var out []int
	for _, c := range m.cores {
		if c.active {
			out = append(out, c.idx)
		}
	}
	return out
}

// CoreType returns the type of core i.
func (m *Machine) CoreType(i int) hw.CoreType { return m.cores[i].spec.Type }

// QueueLen returns the run-queue length of core i (including the running
// thread).
func (m *Machine) QueueLen(i int) int {
	c := m.cores[i]
	n := len(c.runq)
	if c.cur != nil {
		n++
	}
	return n
}

// LastHWPhase returns the hardware phase observed at the latest checkpoint.
func (m *Machine) LastHWPhase() perfmon.HWPhase { return m.lastHW }

// Threads returns the live thread handles (for policies).
func (m *Machine) Threads() []*Thread {
	var out []*Thread
	for _, t := range m.threads {
		if t.state != tsDone {
			out = append(out, t)
		}
	}
	return out
}

// rand64 is the machine-level deterministic RNG (xorshift64*).
func (m *Machine) rand64() uint64 {
	x := m.rngState
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	m.rngState = x
	return x * 2685821657736338717
}

// randFloat returns a uniform float64 in [0, 1).
func (m *Machine) randFloat() float64 {
	return float64(m.rand64()>>11) / (1 << 53)
}

// jitter returns base scaled by a deterministic factor in [1-f, 1+f].
func (m *Machine) jitter(base, f float64) float64 {
	return base * (1 + f*(2*m.randFloat()-1))
}
