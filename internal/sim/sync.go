package sim

import (
	"fmt"

	"astro/internal/features"
	"astro/internal/hw"
	"astro/internal/ir"
)

// execSync executes one synchronizing instruction at a globally ordered
// point in virtual time (the machine's event loop guarantees every earlier
// event has been processed). Blocking operations advance the program counter
// first, so the thread resumes after the call once woken.
func (m *Machine) execSync(c *core, t *Thread, in *ir.Instr, bc *burstCtx) burstStatus {
	fr := &t.frames[len(t.frames)-1]
	bc.instr++
	switch in.Op {
	case ir.OpSpawn:
		fr.pc++
		bc.cycles += 2500 // thread-creation overhead
		callee := m.mod.Funcs[in.Sym]
		regs := make([]uint64, len(callee.Regs))
		for i, a := range in.Args {
			regs[i] = fr.regs[a]
		}
		nt, err := m.newThreadBits(t.ID, int(in.Sym), regs)
		if err != nil {
			m.fail("%v", err)
			return stErr
		}
		t.children++
		m.placeThread(nt)
		return stRun

	case ir.OpSetConfig:
		fr.pc++
		bc.cycles += 60
		cfg := m.plat.ConfigFromID(int(in.Imm))
		if !cfg.Valid(m.plat.MaxLittle(), m.plat.MaxBig()) {
			m.fail("setconfig with invalid id %d", in.Imm)
			return stErr
		}
		m.requestConfig(cfg)
		return stRun

	case ir.OpDetermineConf:
		fr.pc++
		bc.cycles += 450 // reads performance counters before deciding
		if m.opts.Hybrid != nil {
			cfg := m.opts.Hybrid.DetermineConfig(HybridState{
				Phase:   features.Phase(in.Imm),
				Config:  m.cfg,
				HWPhase: m.lastHW,
				TimeS:   m.now,
			})
			if cfg.Valid(m.plat.MaxLittle(), m.plat.MaxBig()) {
				m.requestConfig(cfg)
			}
		}
		return stRun

	case ir.OpBuiltin:
		return m.execSyncBuiltin(c, t, fr, in, bc)
	}
	m.fail("non-sync op %s reached execSync", in.Op.Name())
	return stErr
}

func (m *Machine) execSyncBuiltin(c *core, t *Thread, fr *frame, in *ir.Instr, bc *burstCtx) burstStatus {
	id := ir.BuiltinID(in.Sym)
	bi := ir.Builtin(id)
	bc.cycles += float64(bi.BaseCycles)
	fr.pc++ // resume after the call in every outcome
	set := func(bits uint64) {
		if in.Dst != ir.NoReg {
			fr.regs[in.Dst] = bits
		}
	}
	argI := func(i int) int64 { return int64(fr.regs[in.Args[i]]) }
	argF := func(i int) float64 { return b2f(fr.regs[in.Args[i]]) }

	switch id {
	case ir.BLock:
		mid := argI(0)
		if mid < 0 || mid >= int64(len(m.locks)) {
			m.fail("lock(%d): no such mutex (have %d)", mid, len(m.locks))
			return stErr
		}
		ls := &m.locks[mid]
		if !ls.held {
			ls.held = true
			ls.owner = t.ID
			return stRun
		}
		ls.waiters = append(ls.waiters, t.ID)
		m.blockThread(t, brLock)
		return stBlocked

	case ir.BUnlock:
		mid := argI(0)
		if mid < 0 || mid >= int64(len(m.locks)) {
			m.fail("unlock(%d): no such mutex", mid)
			return stErr
		}
		ls := &m.locks[mid]
		if !ls.held || ls.owner != t.ID {
			m.fail("unlock(%d) by thread %d which does not hold it", mid, t.ID)
			return stErr
		}
		if len(ls.waiters) > 0 {
			next := ls.waiters[0]
			// Shift down rather than reslice, so the queue keeps its
			// capacity and a warm lock never reallocates it.
			ls.waiters = ls.waiters[:copy(ls.waiters, ls.waiters[1:])]
			ls.owner = next // direct handoff
			m.wakeRelease(m.threads[next])
		} else {
			ls.held = false
		}
		return stRun

	case ir.BBarrierInit:
		bid, parties := argI(0), argI(1)
		if bid < 0 || bid >= int64(len(m.barriers)) {
			m.fail("barrier_init(%d): no such barrier", bid)
			return stErr
		}
		if parties <= 0 || parties > int64(m.opts.MaxThreads) {
			m.fail("barrier_init(%d, %d): invalid party count", bid, parties)
			return stErr
		}
		m.barriers[bid].parties = int(parties)
		return stRun

	case ir.BBarrierWait:
		bid := argI(0)
		if bid < 0 || bid >= int64(len(m.barriers)) {
			m.fail("barrier_wait(%d): no such barrier", bid)
			return stErr
		}
		bs := &m.barriers[bid]
		if bs.parties == 0 {
			m.fail("barrier_wait(%d) before barrier_init", bid)
			return stErr
		}
		bs.waiting = append(bs.waiting, t.ID)
		if len(bs.waiting) >= bs.parties {
			for _, tid := range bs.waiting {
				if tid != t.ID {
					m.wakeRelease(m.threads[tid])
				}
			}
			bs.waiting = bs.waiting[:0]
			return stRun
		}
		m.blockThread(t, brBarrier)
		return stBlocked

	case ir.BJoin:
		if t.children == 0 {
			return stRun
		}
		t.joining = true
		m.blockThread(t, brJoin)
		return stBlocked

	case ir.BSleepMs:
		ms := argI(0)
		if ms < 0 {
			ms = 0
		}
		m.blockThread(t, brSleep)
		m.wakeAt(t, m.now+float64(ms)*1e-3)
		return stBlocked

	case ir.BReadUserData:
		set(t.threadRand() % 10)
		m.blockThread(t, brIO)
		m.wakeAt(t, m.now+m.jitter(m.opts.UserInputLatencyS, 0.4))
		return stBlocked

	case ir.BReadInt:
		set(t.threadRand() % 1000)
		m.blockThread(t, brIO)
		m.wakeAt(t, m.now+m.jitter(m.opts.FileReadLatencyS, 0.5))
		return stBlocked

	case ir.BReadFloat:
		set(f2b(t.threadRandFloat()))
		m.blockThread(t, brIO)
		m.wakeAt(t, m.now+m.jitter(m.opts.FileReadLatencyS, 0.5))
		return stBlocked

	case ir.BPrintInt, ir.BPrintFloat, ir.BPrintChar:
		if m.keepsOutput() {
			var s string
			switch id {
			case ir.BPrintInt:
				s = fmt.Sprintf("%d", argI(0))
			case ir.BPrintFloat:
				s = fmt.Sprintf("%g", argF(0))
			default:
				s = string(rune(argI(0)))
			}
			m.output = append(m.output, s)
		}
		m.blockThread(t, brIO)
		m.wakeAt(t, m.now+m.jitter(m.opts.WriteLatencyS, 0.3))
		return stBlocked

	case ir.BNetRecv:
		set(t.threadRand() % 4096)
		m.blockThread(t, brNet)
		m.wakeAt(t, m.now+m.jitter(m.opts.NetLatencyS, 0.5))
		return stBlocked

	case ir.BNetSend:
		m.blockThread(t, brNet)
		m.wakeAt(t, m.now+m.jitter(m.opts.NetLatencyS/4, 0.5))
		return stBlocked
	}
	m.fail("builtin %s reached sync execution path", bi.Name)
	return stErr
}

// keepsOutput reports whether the next printed value is recorded, so the
// print builtins format a value only when it is kept: capture is on and
// under MaxOutput. A print past MaxOutput marks the output truncated.
func (m *Machine) keepsOutput() bool {
	if !m.opts.CaptureOutput {
		return false
	}
	if len(m.output) >= m.opts.MaxOutput {
		m.outTrunc = true
		return false
	}
	return true
}

// requestConfig applies a hardware configuration change: newly disabled
// cores hand their threads back to the scheduler, newly enabled cores come
// online after the switch latency, and every core stalls for the switch
// (modelling the hotplug freeze the paper identifies as the cost that can
// "overshadow possible gains" on small inputs).
func (m *Machine) requestConfig(cfg hw.Config) {
	if cfg == m.cfg || !cfg.Valid(m.plat.MaxLittle(), m.plat.MaxBig()) {
		return
	}
	m.switches++
	m.cfg = cfg
	stallEnd := m.now + float64(m.plat.SwitchLatencyUs)*1e-6

	want := make([]bool, len(m.cores))
	for _, ci := range m.plat.ActiveCores(cfg) {
		want[ci] = true
	}
	var displaced []*Thread
	for _, c := range m.cores {
		switch {
		case c.active && !want[c.idx]:
			c.active = false
			c.hier.L1c.Invalidate()
			if c.cur != nil {
				c.cur.state = tsReady
				displaced = append(displaced, c.cur)
				c.cur = nil
			}
			displaced = append(displaced, c.runq...)
			c.runq = c.runq[:0]
		case !c.active && want[c.idx]:
			c.active = true
			c.hier.L1c.Invalidate()
			c.availAt = maxf(c.availAt, stallEnd)
			c.idleFrom = stallEnd
		case c.active:
			// Settle idle energy, then freeze through the switch.
			if c.idleFrom < m.now && c.availAt <= m.now {
				m.meter.Add(m.now-c.idleFrom, c.spec.IdleWatts)
			}
			c.availAt = maxf(c.availAt, stallEnd)
			c.idleFrom = maxf(c.idleFrom, stallEnd)
		}
	}
	m.setActive()
	for _, t := range displaced {
		t.state = tsReady
		m.placeThread(t)
	}
	// Kick the newly enabled cores so they pull queued work.
	for _, c := range m.cores {
		if c.active && len(c.runq) > 0 {
			m.scheduleCoreRun(c, c.availAt)
		}
	}
}
