package sim

import (
	"fmt"
	"math"

	"astro/internal/features"
	"astro/internal/ir"
)

type tState uint8

const (
	tsReady tState = iota
	tsRunning
	tsBlocked
	tsDone
)

// blockReason records why a thread is blocked, for diagnostics and for the
// effective-phase computation at checkpoints.
type blockReason uint8

const (
	brNone blockReason = iota
	brSleep
	brIO
	brNet
	brLock
	brBarrier
	brJoin
)

// Thread is a simulated thread of execution.
type Thread struct {
	ID       int
	parentID int
	state    tState
	reason   blockReason

	frames    []frame
	stackBase int64
	sp        int64

	coreHint int // core the thread last ran on (-1 initially)
	children int
	joining  bool

	// Instrumentation state (Sec. 3.2.1: the Log component).
	phase       features.Phase
	blockedFlag bool

	// Per-thread deterministic RNG for rand_int/rand_float.
	rng uint64

	instr uint64 // instructions retired

	// Load is an EWMA of recent CPU demand maintained for OS policies
	// (GTS-style load tracking). busyAcc accumulates busy seconds since the
	// last tick.
	Load    float64
	busyAcc float64

	migrPenaltyS float64 // latency charged to the next burst after migration

	// Frame-storage recycling: register files and array-base tables of
	// popped frames are kept for reuse by later calls, so a steady-state
	// call/return cycle performs no heap allocations. Frames are strictly
	// LIFO per thread, which makes the top of the free list almost always
	// the right size for the next call.
	regPool [][]uint64
	arrPool [][]int64
}

// allocRegs returns a zeroed register file of length n, reusing a recycled
// one when possible (matching the make() the allocation path used to do).
func (t *Thread) allocRegs(n int) []uint64 {
	if k := len(t.regPool); k > 0 {
		if s := t.regPool[k-1]; cap(s) >= n {
			t.regPool = t.regPool[:k-1]
			s = s[:n]
			clear(s)
			return s
		}
	}
	return make([]uint64, n)
}

// allocArrays returns an array-base table of length n; every entry is
// assigned by the caller, so recycled storage needs no zeroing.
func (t *Thread) allocArrays(n int) []int64 {
	if k := len(t.arrPool); k > 0 {
		if s := t.arrPool[k-1]; cap(s) >= n {
			t.arrPool = t.arrPool[:k-1]
			return s[:n]
		}
	}
	return make([]int64, n)
}

// Phase returns the thread's current static program phase, accounting for
// the blocking-region toggle.
func (t *Thread) Phase() features.Phase {
	if t.blockedFlag || t.state == tsBlocked {
		return features.PhaseBlocked
	}
	return t.phase
}

// State exposes a coarse view for policies: true if the thread is ready or
// running.
func (t *Thread) Runnable() bool { return t.state == tsReady || t.state == tsRunning }

// Ready reports whether the thread is queued (not running, blocked or done);
// only ready threads can be migrated.
func (t *Thread) Ready() bool { return t.state == tsReady }

// Core returns the core the thread last ran on (or was queued to).
func (t *Thread) Core() int { return t.coreHint }

// Instructions returns the thread's retired instruction count.
func (t *Thread) Instructions() uint64 { return t.instr }

// NewThreadForTest builds a detached Thread with the given observable
// scheduling state. It exists solely so OS-policy packages can unit-test
// placement decisions; such threads must never be handed to a Machine.
func NewThreadForTest(load float64, instr uint64, core int) *Thread {
	return &Thread{Load: load, instr: instr, coreHint: core, state: tsReady}
}

type frame struct {
	fn     *ir.Function
	fnIdx  int32 // index of fn in the module (fast-path code lookup)
	regs   []uint64
	arrays []int64 // base cell address per frame array
	block  int32
	pc     int32
	retReg int32 // caller register receiving the return value (NoReg: none)
	spSave int64
}

// Register bit conversion helpers: registers and memory cells hold raw
// 64-bit payloads; the static type decides interpretation.
func f2b(f float64) uint64 { return math.Float64bits(f) }
func b2f(b uint64) float64 { return math.Float64frombits(b) }

// newThread creates a thread running fn(args...) with int arguments (the
// main-thread entry path).
func (m *Machine) newThread(parent int, fnIdx int, args []int64) (*Thread, error) {
	fn := m.mod.Funcs[fnIdx]
	regs := make([]uint64, len(fn.Regs))
	for i, a := range args {
		regs[i] = uint64(a)
	}
	return m.newThreadBits(parent, fnIdx, regs)
}

// newThreadBits creates a thread whose entry frame registers are pre-filled
// (spawn path, where arguments may be floats).
func (m *Machine) newThreadBits(parent int, fnIdx int, regs []uint64) (*Thread, error) {
	fn := m.mod.Funcs[fnIdx]
	if len(m.threads) >= m.opts.MaxThreads {
		return nil, fmt.Errorf("sim: thread limit %d exceeded", m.opts.MaxThreads)
	}
	id := len(m.threads)
	t := &Thread{
		ID:        id,
		parentID:  parent,
		state:     tsReady,
		coreHint:  -1,
		stackBase: m.mod.GlobalCells() + int64(id)*m.opts.StackCells,
		rng:       uint64(m.opts.Seed)*0x9E3779B97F4A7C15 + uint64(id)*0xBF58476D1CE4E5B9 + 1,
	}
	t.sp = t.stackBase
	full := make([]uint64, len(fn.Regs))
	copy(full, regs)
	if _, err := m.pushFramePrepared(t, fnIdx, fn, full, ir.NoReg); err != nil {
		return nil, err
	}
	m.threads = append(m.threads, t)
	m.live++
	m.runnable++
	return t, nil
}

// pushFramePrepared installs a frame whose register file is pre-filled with
// arguments.
func (m *Machine) pushFramePrepared(t *Thread, fnIdx int, fn *ir.Function, regs []uint64, retReg int32) (*frame, error) {
	if len(t.frames) >= 10000 {
		return nil, fmt.Errorf("sim: call depth limit in thread %d (%s)", t.ID, fn.Name)
	}
	fr := frame{
		fn:     fn,
		fnIdx:  int32(fnIdx),
		regs:   regs,
		retReg: retReg,
		spSave: t.sp,
	}
	if n := len(fn.Arrays); n > 0 {
		fr.arrays = t.allocArrays(n)
		for i, a := range fn.Arrays {
			fr.arrays[i] = t.sp
			t.sp += a.Size
		}
		if t.sp-t.stackBase > m.opts.StackCells {
			return nil, fmt.Errorf("sim: stack overflow in thread %d calling %s (%d cells > %d)",
				t.ID, fn.Name, t.sp-t.stackBase, m.opts.StackCells)
		}
		m.growMem(t.sp - 1) // always in range: the overflow check bounds t.sp
		// Zero the freshly allocated frame arrays for determinism.
		for i := fr.arrays[0]; i < t.sp; i++ {
			m.mem[i] = 0
		}
	}
	t.frames = append(t.frames, fr)
	return &t.frames[len(t.frames)-1], nil
}

// popFrame returns from the current function, writing retBits into the
// caller's return register if requested. It reports whether the thread has
// finished.
func (t *Thread) popFrame(retBits uint64, hasRet bool) bool {
	fr := &t.frames[len(t.frames)-1]
	t.sp = fr.spSave
	retReg := fr.retReg
	t.regPool = append(t.regPool, fr.regs)
	if fr.arrays != nil {
		t.arrPool = append(t.arrPool, fr.arrays)
	}
	fr.regs, fr.arrays, fr.fn = nil, nil, nil
	t.frames = t.frames[:len(t.frames)-1]
	if len(t.frames) == 0 {
		return true
	}
	if hasRet && retReg != ir.NoReg {
		caller := &t.frames[len(t.frames)-1]
		caller.regs[retReg] = retBits
	}
	return false
}

// threadRand is the per-thread xorshift64* generator.
func (t *Thread) threadRand() uint64 {
	x := t.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	t.rng = x
	return x * 2685821657736338717
}

func (t *Thread) threadRandFloat() float64 {
	return float64(t.threadRand()>>11) / (1 << 53)
}

// placeThread asks the OS policy for a core and enqueues the thread there.
func (m *Machine) placeThread(t *Thread) {
	ci := m.opts.OS.PlaceThread(m, t)
	c := m.cores[ci]
	if !c.active {
		// Policy bug fallback: first active core.
		for _, cc := range m.cores {
			if cc.active {
				c = cc
				break
			}
		}
	}
	if t.coreHint >= 0 && t.coreHint != c.idx {
		t.migrPenaltyS += float64(m.plat.MigrationLatencyUs) * 1e-6
		m.migrations++
	}
	t.coreHint = c.idx
	t.state = tsReady
	c.runq = append(c.runq, t)
	m.scheduleCoreRun(c, maxf(m.now, c.availAt))
}

// MigrateThread moves a ready thread to another core's queue (used by OS
// policies during rebalancing). Running or blocked threads are not moved.
func (m *Machine) MigrateThread(t *Thread, toCore int) bool {
	if t.state != tsReady || !m.cores[toCore].active {
		return false
	}
	from := m.cores[t.coreHint]
	found := false
	for i, q := range from.runq {
		if q == t {
			from.runq = append(from.runq[:i], from.runq[i+1:]...)
			found = true
			break
		}
	}
	if !found {
		return false
	}
	to := m.cores[toCore]
	if to.idx != t.coreHint {
		t.migrPenaltyS += float64(m.plat.MigrationLatencyUs) * 1e-6
		m.migrations++
	}
	t.coreHint = to.idx
	to.runq = append(to.runq, t)
	m.scheduleCoreRun(to, maxf(m.now, to.availAt))
	return true
}

// blockThread removes the running thread from its core.
func (m *Machine) blockThread(t *Thread, why blockReason) {
	t.state = tsBlocked
	t.reason = why
	m.runnable--
}

// wakeAt schedules a thread wake event.
func (m *Machine) wakeAt(t *Thread, at float64) {
	m.wakes++
	m.schedule(event{time: at, kind: evWake, thread: t.ID})
}

// handleWake makes a blocked thread runnable again.
func (m *Machine) handleWake(tid int) {
	t := m.threads[tid]
	if t.state != tsBlocked {
		return // e.g. woken by both timer and event; ignore stale wake
	}
	t.reason = brNone
	m.runnable++
	m.placeThread(t)
}

// wakeRelease wakes a thread released by another thread (lock handoff,
// barrier release, join completion), charging the scheduler wake-up latency
// on the critical path.
func (m *Machine) wakeRelease(t *Thread) {
	if t.state != tsBlocked {
		return
	}
	m.wakeAt(t, m.now+m.opts.WakeLatencyS)
}

// exitThread finalizes a finished thread.
func (m *Machine) exitThread(t *Thread) {
	t.state = tsDone
	m.live--
	m.runnable--
	if t.parentID >= 0 {
		p := m.threads[t.parentID]
		p.children--
		if p.joining && p.children == 0 {
			p.joining = false
			m.wakeRelease(p)
		}
	}
	if m.live == 0 {
		// Completion time is the finishing core's busy frontier.
		if m.doneTime < m.now {
			m.doneTime = m.now
		}
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
