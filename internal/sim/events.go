package sim

import (
	"fmt"
)

// Event kinds, in tie-break priority order at equal times.
type evKind uint8

const (
	evWake       evKind = iota // a blocked thread becomes runnable
	evCoreRun                  // a core should execute its next burst
	evTick                     // OS load-balance tick
	evCheckpoint               // actuation checkpoint
	evSample                   // power sample
)

type event struct {
	time   float64
	kind   evKind
	core   int
	thread int
	seq    uint64
}

// eventHeap is a binary min-heap ordered by (time, kind, seq). It is typed
// (no container/heap) because the heap interface boxes every pushed and
// popped element into an interface value, which costs one heap allocation
// per scheduled event — the dominant steady-state allocation of a run.
// (time, kind, seq) is a strict total order (seq is unique), so the pop
// sequence is fully determined by the comparator and simulation determinism
// does not depend on the heap's internal arrangement.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	a, b := h[i], h[j]
	if a.time != b.time {
		return a.time < b.time
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	hh := *h
	i := len(hh) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !hh.less(i, p) {
			break
		}
		hh[i], hh[p] = hh[p], hh[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	hh := *h
	top := hh[0]
	n := len(hh) - 1
	hh[0] = hh[n]
	hh = hh[:n]
	*h = hh
	i := 0
	for {
		s := i
		if l := 2*i + 1; l < n && hh.less(l, s) {
			s = l
		}
		if r := 2*i + 2; r < n && hh.less(r, s) {
			s = r
		}
		if s == i {
			break
		}
		hh[i], hh[s] = hh[s], hh[i]
		i = s
	}
	return top
}

func (m *Machine) schedule(e event) {
	m.seq++
	e.seq = m.seq
	m.events.push(e)
}

// scheduleCoreRun arms a core-run event unless one is already pending.
func (m *Machine) scheduleCoreRun(c *core, at float64) {
	if c.runPending || !c.active {
		return
	}
	c.runPending = true
	if at < m.now {
		at = m.now
	}
	m.schedule(event{time: at, kind: evCoreRun, core: c.idx})
}

// Run executes the program to completion and returns the result. A machine
// runs once: a second call is an error. On every return, success or error,
// Run hands the machine's memory and caches to the pools New draws from,
// after the result is built, so nothing may read them once Run returns;
// the result and the accessors policies use stay valid.
func (m *Machine) Run() (*Result, error) {
	if m.ran {
		return nil, fmt.Errorf("sim: machine already ran")
	}
	m.ran = true
	defer m.release()
	// Boot: create the main thread and start the periodic machinery.
	main, err := m.newThread(-1, m.mod.FuncIndex["main"], m.opts.Args)
	if err != nil {
		return nil, err
	}
	m.placeThread(main)
	m.schedule(event{time: m.opts.TickS, kind: evTick})
	m.schedule(event{time: m.opts.CheckpointS, kind: evCheckpoint})
	if m.opts.SampleS > 0 {
		m.schedule(event{time: 0, kind: evSample})
	}

	for m.live > 0 {
		if m.err != nil {
			return nil, m.err
		}
		if len(m.events) == 0 {
			return nil, fmt.Errorf("sim: no events with %d live threads (internal error)", m.live)
		}
		e := m.events.pop()
		if e.time > m.opts.MaxTimeS {
			return nil, fmt.Errorf("sim: exceeded MaxTimeS=%gs (deadlock or runaway program)", m.opts.MaxTimeS)
		}
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
			if m.live > 0 {
				m.schedule(event{time: m.now + m.opts.TickS, kind: evTick})
			}
		case evCheckpoint:
			m.checkpoint()
			if m.live > 0 {
				m.schedule(event{time: m.now + m.opts.CheckpointS, kind: evCheckpoint})
			}
		case evSample:
			m.samplePower()
			if m.live > 0 {
				m.schedule(event{time: m.now + m.opts.SampleS, kind: evSample})
			}
		}
		if m.live > 0 && m.runnable == 0 && m.wakes == 0 {
			return nil, fmt.Errorf("sim: deadlock at t=%.6fs: %d threads blocked", m.now, m.live)
		}
	}
	if m.err != nil {
		return nil, m.err
	}
	return m.finish(), nil
}

func (m *Machine) finish() *Result {
	end := m.doneTime
	// Account trailing idle energy on active cores and SoC base power.
	for _, c := range m.cores {
		if c.active && c.idleFrom < end {
			m.meter.Add(end-c.idleFrom, c.spec.IdleWatts)
			c.idleFrom = end
		}
	}
	m.meter.Add(end, m.plat.BasePowerWatts)
	var instr uint64
	for _, c := range m.cores {
		instr += c.tInstr
	}
	mRuns.Inc()
	mQuanta.Add(m.quanta)
	mInstr.Add(instr)
	mCycles.Add(m.tCycles)
	return &Result{
		TimeS:        end,
		EnergyJ:      m.meter.TotalJ(),
		Instructions: instr,
		Checkpoints:  m.checkpoints,
		Samples:      m.samples,
		Output:       m.output,
		OutputTrunc:  m.outTrunc,
		Switches:     m.switches,
		Migrations:   m.migrations,
		FinalConfig:  m.cfg,
	}
}

// fail aborts the run with a runtime error.
func (m *Machine) fail(format string, args ...any) {
	if m.err == nil {
		m.err = fmt.Errorf("sim: t=%.6fs: %s", m.now, fmt.Sprintf(format, args...))
	}
}

// samplePower records an instantaneous whole-board power reading, as the
// JetsonLeap apparatus would.
func (m *Machine) samplePower() {
	if m.samples == nil {
		return
	}
	w := m.plat.BasePowerWatts
	for _, c := range m.cores {
		if !c.active {
			continue
		}
		if m.now >= c.burstStart && m.now < c.burstEnd {
			w += c.burstPower
		} else {
			w += c.spec.IdleWatts
		}
	}
	m.samples.Append(m.now, w)
}
