package sched

import (
	"testing"

	"astro/internal/features"
	"astro/internal/hw"
	"astro/internal/perfmon"
	"astro/internal/rl"
	"astro/internal/sim"
)

// fakeEnv simulates checkpoint generation: the reward of the configuration
// chosen at checkpoint i is observed at checkpoint i+1, like the real
// monitor. goodCfg earns 4x the MIPS of any other config at equal power.
type fakeEnv struct {
	plat    *hw.Platform
	goodCfg hw.Config
	phase   features.Phase
}

func (e *fakeEnv) checkpoint(idx int, cfg hw.Config) sim.Checkpoint {
	mips := 200.0
	if cfg == e.goodCfg {
		mips = 1600.0
	}
	instr := uint64(mips * 1e6 * 1e-3)
	return sim.Checkpoint{
		Index:     idx,
		TimeS:     float64(idx) * 1e-3,
		DurS:      1e-3,
		Config:    cfg,
		ProgPhase: e.phase,
		HW:        perfmon.Counters{Instructions: instr, Cycles: instr, BusySeconds: 1e-3, WindowSeconds: 8e-3},
		HWPhase:   perfmon.HWPhase{IPCBucket: 1, CPUBucket: 0},
		EnergyJ:   3.0 * 1e-3, // 3 W
	}
}

func TestAstroActuatorLearnsGoodConfig(t *testing.T) {
	plat := hw.OdroidXU4()
	good := hw.Config{Big: 4}
	env := &fakeEnv{plat: plat, goodCfg: good, phase: features.PhaseCPUBound}
	agent := rl.NewDQN(plat.NumConfigs(), rl.DQNConfig{Seed: 1, LR: 0.08})
	act := NewAstro(agent, plat, true)

	cfg := plat.AllOn()
	for ep := 0; ep < 30; ep++ {
		for i := 0; i < 60; i++ {
			cfg = act.OnCheckpoint(nil, env.checkpoint(i, cfg))
		}
		act.EndEpisode()
	}
	// Exploit: the greedy policy should now find the good config quickly.
	act.Learn = false
	cfg = plat.AllOn()
	hits := 0
	for i := 0; i < 20; i++ {
		cfg = act.OnCheckpoint(nil, env.checkpoint(i, cfg))
		if cfg == good {
			hits++
		}
	}
	if hits < 15 {
		t.Errorf("exploitation picked %v only %d/20 times", good, hits)
	}
}

func TestHipsterIgnoresProgramPhase(t *testing.T) {
	plat := hw.OdroidXU4()
	agent := rl.NewDQN(plat.NumConfigs(), rl.DQNConfig{Seed: 2})
	h := NewHipster(agent, plat, true)
	if h.Name() != "hipster" {
		t.Errorf("name = %q", h.Name())
	}
	ckA := sim.Checkpoint{Config: plat.AllOn(), ProgPhase: features.PhaseCPUBound}
	ckB := sim.Checkpoint{Config: plat.AllOn(), ProgPhase: features.PhaseBlocked}
	if h.state(ckA) != h.state(ckB) {
		t.Error("hipster state must not depend on program phase")
	}
	a := NewAstro(agent, plat, true)
	if a.state(ckA) == a.state(ckB) {
		t.Error("astro state must depend on program phase")
	}
}

func TestExtractPolicyProducesValidConfigs(t *testing.T) {
	plat := hw.OdroidXU4()
	agent := rl.NewTabular(plat.NumConfigs(), 3)
	// Teach the table: CPU phase loves 0L4B, Blocked loves 1L0B.
	cpuCfg := plat.ConfigID(hw.Config{Big: 4})
	littleCfg := plat.ConfigID(hw.Config{Little: 1})
	for hwp := 0; hwp < 81; hwp++ {
		for cfg := 0; cfg < plat.NumConfigs(); cfg++ {
			sCPU := rl.State{ConfigID: cfg, ProgPhase: int(features.PhaseCPUBound), HWPhaseID: hwp}
			agent.Observe(sCPU, cpuCfg, 1.0, sCPU)
			sBlk := rl.State{ConfigID: cfg, ProgPhase: int(features.PhaseBlocked), HWPhaseID: hwp}
			agent.Observe(sBlk, littleCfg, 1.0, sBlk)
		}
	}
	pol := ExtractPolicy(agent, plat)
	if pol.PerPhase[features.PhaseCPUBound] != (hw.Config{Big: 4}) {
		t.Errorf("CPU phase -> %v, want 0L4B", pol.PerPhase[features.PhaseCPUBound])
	}
	if pol.PerPhase[features.PhaseBlocked] != (hw.Config{Little: 1}) {
		t.Errorf("Blocked phase -> %v, want 1L0B", pol.PerPhase[features.PhaseBlocked])
	}
	for p, cfg := range pol.PerPhase {
		if !cfg.Valid(plat.MaxLittle(), plat.MaxBig()) {
			t.Errorf("phase %d: invalid config %v", p, cfg)
		}
	}
}

func TestOctopusManLadder(t *testing.T) {
	plat := hw.OdroidXU4()
	o := NewOctopusMan(plat)
	mkCk := func(util float64) sim.Checkpoint {
		return sim.Checkpoint{
			DurS: 1e-3,
			HW:   perfmon.Counters{BusySeconds: util, WindowSeconds: 1},
		}
	}
	start := o.Rung()
	var cfg hw.Config
	for i := 0; i < 5; i++ {
		cfg = o.OnCheckpoint(nil, mkCk(0.95))
	}
	if o.Rung() != start+5 {
		t.Errorf("rung after 5 saturated windows = %d, want %d", o.Rung(), start+5)
	}
	capUp := plat.Capability(cfg)
	for i := 0; i < 3; i++ {
		cfg = o.OnCheckpoint(nil, mkCk(0.05))
	}
	if !(plat.Capability(cfg) < capUp) {
		t.Error("low utilization must descend the ladder")
	}
	// Bounds: never below rung 0, never past the top.
	for i := 0; i < 100; i++ {
		o.OnCheckpoint(nil, mkCk(0.0))
	}
	if o.Rung() != 0 {
		t.Errorf("rung bottomed at %d", o.Rung())
	}
	for i := 0; i < 100; i++ {
		cfg = o.OnCheckpoint(nil, mkCk(1.0))
	}
	if o.Rung() != plat.NumConfigs()-1 {
		t.Errorf("rung topped at %d", o.Rung())
	}
	if cfg != plat.AllOn() {
		t.Errorf("top rung config = %v", cfg)
	}
	// Mid-utilization holds steady.
	r := o.Rung()
	o.OnCheckpoint(nil, mkCk(0.5))
	if o.Rung() != r {
		t.Error("mid utilization should not move the ladder")
	}
}

func TestFixedAndRandomActuators(t *testing.T) {
	plat := hw.OdroidXU4()
	f := &Fixed{Config: hw.Config{Little: 2, Big: 1}}
	if f.Name() != "fixed-2L1B" {
		t.Errorf("name = %q", f.Name())
	}
	if got := f.OnCheckpoint(nil, sim.Checkpoint{}); got != f.Config {
		t.Errorf("fixed returned %v", got)
	}
	r := &Random{Plat: plat, Seed: 9}
	seen := map[hw.Config]bool{}
	for i := 0; i < 200; i++ {
		cfg := r.OnCheckpoint(nil, sim.Checkpoint{})
		if !cfg.Valid(plat.MaxLittle(), plat.MaxBig()) {
			t.Fatalf("random produced invalid %v", cfg)
		}
		seen[cfg] = true
	}
	if len(seen) < 10 {
		t.Errorf("random visited only %d configs", len(seen))
	}
}

func testMachine(t *testing.T) *sim.Machine {
	t.Helper()
	mod := compileT(t, `func main() { }`)
	m, err := sim.New(mod, hw.OdroidXU4(), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGTSPlacement(t *testing.T) {
	m := testMachine(t)
	g := NewGTS()
	heavy := sim.NewThreadForTest(0.9, 1000, 0)
	light := sim.NewThreadForTest(0.05, 1000, 5)
	fresh := sim.NewThreadForTest(0, 0, -1)
	if ci := g.PlaceThread(m, heavy); m.CoreType(ci) != hw.Big {
		t.Errorf("heavy thread placed on %v core", m.CoreType(ci))
	}
	if ci := g.PlaceThread(m, light); m.CoreType(ci) != hw.Little {
		t.Errorf("light thread placed on %v core", m.CoreType(ci))
	}
	if ci := g.PlaceThread(m, fresh); m.CoreType(ci) != hw.Big {
		t.Errorf("new thread placed on %v core (GTS is performance-first)", m.CoreType(ci))
	}
}

func TestGTSPlacementWithoutBigCores(t *testing.T) {
	mod := compileT(t, `func main() { }`)
	m, err := sim.New(mod, hw.OdroidXU4(), sim.Options{InitialConfig: hw.Config{Little: 3}})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGTS()
	heavy := sim.NewThreadForTest(0.9, 1000, 0)
	ci := g.PlaceThread(m, heavy)
	if m.CoreType(ci) != hw.Little {
		t.Errorf("with no big cores active, placement must fall back to LITTLE")
	}
}

func TestGTSRunsRealWorkload(t *testing.T) {
	src := `
func spin(n int) {
	var i int;
	var x float = 1.0;
	for (i = 0; i < n; i = i + 1) { x = x * 1.000001 + 0.5; }
}
func light() {
	var i int;
	for (i = 0; i < 6; i = i + 1) { sleep_ms(1); }
}
func main() {
	spawn spin(60000);
	spawn spin(60000);
	spawn light();
	spawn light();
	join();
}
`
	mod := compileT(t, src)
	run := func(os sim.OSPolicy) float64 {
		m, err := sim.New(mod, hw.OdroidXU4(), sim.Options{OS: os, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.TimeS
	}
	gts := run(NewGTS())
	def := run(nil) // least-loaded default
	if gts > def*1.5 {
		t.Errorf("GTS (%.6fs) much slower than default policy (%.6fs)", gts, def)
	}
}

// allocProbeGTS is GTS that, at its third OS tick, when every thread of
// the run is spawned and the machine's reused buffers have grown, measures
// the allocations of PlaceThread for each kind of thread and of Rebalance.
type allocProbeGTS struct {
	*GTS
	ticks      int
	live       int
	place, reb float64
}

func (p *allocProbeGTS) Rebalance(m *sim.Machine) {
	if p.ticks++; p.ticks == 3 {
		p.live = len(m.Threads())
		// Fresh, light, mixed and heavy load: every PlaceThread branch.
		for i, load := range []float64{0, 0.05, 0.4, 0.9} {
			th := sim.NewThreadForTest(load, 1000*uint64(i), i)
			p.place += testing.AllocsPerRun(50, func() { p.GTS.PlaceThread(m, th) })
		}
		p.reb = testing.AllocsPerRun(50, func() { p.GTS.Rebalance(m) })
	}
	p.GTS.Rebalance(m)
}

// TestGTSZeroAllocs pins GTS.PlaceThread and GTS.Rebalance at zero heap
// allocations on a warm machine whose threads sleep, wake and contend for
// a lock on both clusters.
func TestGTSZeroAllocs(t *testing.T) {
	mod := compileT(t, `
mutex mu;
var total int;
func spin(n int) {
	var i int;
	for (i = 0; i < n; i = i + 1) {
		lock(mu);
		total = total + i;
		unlock(mu);
	}
}
func light() {
	var i int;
	for (i = 0; i < 10; i = i + 1) { sleep_ms(1); }
}
func main() {
	spawn spin(3000);
	spawn spin(3000);
	spawn light();
	spawn light();
	join();
}
`)
	p := &allocProbeGTS{GTS: NewGTS()}
	m, err := sim.New(mod, hw.OdroidXU4(), sim.Options{OS: p, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if p.ticks < 3 || p.live < 3 {
		t.Fatalf("probe ran at tick %d with %d live threads; want a warm multi-threaded machine", p.ticks, p.live)
	}
	if p.place != 0 || p.reb != 0 {
		t.Errorf("warm GTS allocates: %.0f objects over four PlaceThread calls, %.0f per Rebalance", p.place, p.reb)
	}
}
