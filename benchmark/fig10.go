package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"astro/internal/campaign"
	"astro/internal/experiments"
	"astro/internal/lang"
	"astro/internal/sim"
	"astro/internal/workloads"
)

// fig10 runs experiments.Fig10(experiments.Small). Fig10 takes no seed, so
// the benchmark's executor shifts every sample cell's simulator seed by
// the workload seed (no shift at defaultSeed, where the run is the paper
// figure exactly). Training keeps its seeds: the hybrid cells name their
// trained agent by the training spec's content key.
type fig10 struct {
	o  options
	c  *checker
	fp string
	// legacyDone is set once a pass's sample cells were re-executed on
	// the legacy interpreter.
	legacyDone bool
}

func newFig10(o options, c *checker) *fig10 { return &fig10{o: o, c: c} }

// fig10Exec is the executor installed with experiments.Configure for one
// pass: it times the pass's set-up (everything before the first training
// cell) and keeps the outcomes for the output checks.
type fig10Exec struct {
	inner interface {
		campaign.Runner
		campaign.Trainer
	}
	seedShift int64
	p         *pass
	passStart time.Time
	m         *meter
	outs      []*campaign.Outcome
	trained   []*campaign.Trained
}

func (e *fig10Exec) begin() {
	if e.m == nil {
		e.p.setupS = time.Since(e.passStart).Seconds()
		m := startMeter()
		e.m = &m
	}
}

func (e *fig10Exec) Train(ctx context.Context, specs []*campaign.TrainSpec) ([]*campaign.Trained, error) {
	e.begin()
	t0 := time.Now()
	tr, err := e.inner.Train(ctx, specs)
	e.p.trainS += time.Since(t0).Seconds()
	e.trained = append(e.trained, tr...)
	return tr, err
}

func (e *fig10Exec) Run(ctx context.Context, jobs []*campaign.Job, onProgress func(campaign.Progress)) ([]*campaign.Outcome, error) {
	e.begin()
	for _, j := range jobs {
		j.Seed += e.seedShift
	}
	outs, err := e.inner.Run(ctx, jobs, onProgress)
	e.outs = append(e.outs, outs...)
	return outs, err
}

// fig10SetupRepeats is how many extra set-ups each untraced pass times:
// Fig10's set-up takes about 2 ms, too short for a few samples per run to
// be steady, and a hundred take a fifth of a second.
const fig10SetupRepeats = 100

var errSetupOnly = errors.New("set-up only")

// setupProbe is an executor that stops Fig10 at its first cell, so a call
// of Fig10 times its set-up alone.
type setupProbe struct {
	start  time.Time
	setupS float64
}

func (s *setupProbe) Train(context.Context, []*campaign.TrainSpec) ([]*campaign.Trained, error) {
	s.setupS = time.Since(s.start).Seconds()
	return nil, errSetupOnly
}

func (s *setupProbe) Run(context.Context, []*campaign.Job, func(campaign.Progress)) ([]*campaign.Outcome, error) {
	s.setupS = time.Since(s.start).Seconds()
	return nil, errSetupOnly
}

func (w *fig10) pass(tr *tracer) (pass, error) {
	p := pass{traced: tr != nil}
	for i := 0; i < fig10SetupRepeats && tr == nil; i++ {
		probe := &setupProbe{start: startSetup()}
		experiments.Configure(experiments.ExecConfig{Workers: 1, Store: campaign.NewMemStore(), Runner: probe})
		if _, err := experiments.Fig10(experiments.Small); !errors.Is(err, errSetupOnly) {
			return p, fmt.Errorf("fig10 set-up: %v", err)
		}
		p.moreSetupS = append(p.moreSetupS, probe.setupS)
	}
	e := &fig10Exec{seedShift: 1000 * (w.o.seed - defaultSeed), p: &p, passStart: startSetup()}
	// A fresh store per pass: the executor is process-global, so a reused
	// store would make every pass after the first a warm re-read.
	var store campaign.ResultStore = campaign.NewMemStore()
	if tr != nil {
		tr.setPhase("setup")
		sp := tr.begin("campaign.store_open", "", 0)
		store = campaign.NewMemStore()
		tr.end(sp)
		store = &timedStore{store, tr}
		e.inner = &tracedPool{store: store, tr: tr}
	} else {
		e.inner = &campaign.Pool{Workers: 1, Store: store}
	}
	experiments.Configure(experiments.ExecConfig{Workers: 1, Store: store, Runner: e, Ctx: context.Background()})
	if tr != nil {
		tr.setPhase("timed")
	}
	res, err := experiments.Fig10(experiments.Small)
	if e.m == nil {
		return p, fmt.Errorf("fig10 ran no cell: %v", err)
	}
	e.m.stop(&p)
	if tr != nil {
		tr.setPhase("check")
	}

	countOutcomes(&p, e.outs)
	p.cells += len(e.trained)
	for _, t := range e.trained {
		if t == nil {
			p.failed++
		} else if t.CacheHit {
			p.hits++
		}
	}
	w.c.expect(p.hits == 0, "fig10 pass on a fresh store: %d cache hits, want 0", p.hits)
	w.c.expect(err == nil, "fig10: %v", err)
	rows := 0
	if res != nil {
		rows = len(res.Rows)
	}
	w.c.expect(rows == 7 && len(e.trained) == 7 && len(e.outs) == 63,
		"fig10: %d rows, %d training cells, %d sample cells; want 7, 7, 63", rows, len(e.trained), len(e.outs))
	w.c.samePass(&w.fp, campaign.Fingerprint(e.outs))
	if !w.legacyDone && len(e.outs) == 63 {
		w.legacyDone = true
		// The first sample of each treatment of the first benchmark.
		for _, i := range []int{0, 3, 6} {
			legacyCheck(w.c, e.outs[i])
		}
	}
	if tr != nil {
		compileSources(w.c, tr, e.outs)
	}
	return p, nil
}

func (w *fig10) fingerprint() string { return w.fp }

func (w *fig10) table(tr *tracer, traced []pass) []row { return selfRows(tr, traced) }

func (w *fig10) close() {
	experiments.Configure(experiments.ExecConfig{Runner: &campaign.Pool{Workers: 1, Store: campaign.NewMemStore()}})
}

// compileSources times lang.Compile on the source of every distinct
// registered benchmark the outcomes ran.
func compileSources(c *checker, tr *tracer, outs []*campaign.Outcome) {
	seen := map[string]bool{}
	for _, o := range outs {
		name := o.Job.Benchmark
		if seen[name] {
			continue
		}
		seen[name] = true
		spec, ok := workloads.ByName(name)
		if !ok {
			continue
		}
		sp := tr.begin("lang.compile", name, 0)
		_, err := lang.Compile(spec.Name, spec.Source)
		tr.end(sp)
		c.expect(err == nil, "lang.Compile %s: %v", name, err)
	}
}

// legacyCheck re-executes an outcome's cell on the legacy interpreter, an
// independent implementation of the simulator, and expects the same bytes.
func legacyCheck(c *checker, o *campaign.Outcome) {
	j := *o.Job
	j.Opts.LegacyInterp = true
	res, err := j.Execute()
	if err != nil {
		c.expect(false, "legacy re-execution of %s: %v", j.Label, err)
		return
	}
	data, err := sim.EncodeResult(res)
	c.expect(err == nil && string(data) == string(o.Bytes), "legacy re-execution of %s: result bytes differ", j.Label)
}
