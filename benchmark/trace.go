package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"astro/internal/campaign"
	"astro/internal/hw"
	"astro/internal/sched"
	"astro/internal/sim"
)

// span is one call into a layer. Cell is the content key of the cell the
// call served (a job or training-spec key; a label where the caller only
// sees labels), Parent the id of the enclosing span (0 = none).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Cell    string  `json:"cell,omitempty"`
	Name    string  `json:"name"`
	Phase   string  `json:"phase"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	// Allocated heap bytes (sim.new) and retired instructions (sim.run).
	AllocB uint64 `json:"alloc_b,omitempty"`
	Instr  uint64 `json:"instr,omitempty"`
	// Calls is how many calls the span covers when it times a batch
	// (scenario generation); 0 means one.
	Calls int `json:"calls,omitempty"`

	start time.Time
}

// tracer keeps every span of a traced run in memory until the run ends.
// Calls come from the benchmark's own goroutine and, on the loopback
// workload, from the coordinator's HTTP handlers, hence the lock.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []*span
	phase string // "setup", "timed" or "check"
	cur   int    // enclosing cell span of calls made without one (store calls)
}

func newTracer() *tracer { return &tracer{t0: time.Now(), phase: "setup"} }

func (t *tracer) setPhase(p string) {
	t.mu.Lock()
	t.phase = p
	t.mu.Unlock()
}

// begin opens a span; parent < 0 means the current cell span.
func (t *tracer) begin(name, cell string, parent int) *span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent < 0 {
		parent = t.cur
	}
	s := &span{ID: len(t.spans) + 1, Parent: parent, Cell: cell, Name: name, Phase: t.phase, start: time.Now()}
	t.spans = append(t.spans, s)
	return s
}

func (t *tracer) end(s *span) {
	now := time.Now()
	t.mu.Lock()
	s.StartUS = float64(s.start.Sub(t.t0).Nanoseconds()) / 1e3
	s.DurUS = float64(now.Sub(s.start).Nanoseconds()) / 1e3
	t.mu.Unlock()
}

// record adds a span that was timed elsewhere (Worker.OnProgress reports a
// duration after the fact).
func (t *tracer) record(name, cell string, dur time.Duration) {
	s := t.begin(name, cell, 0)
	s.start = time.Now().Add(-dur)
	t.end(s)
}

func (t *tracer) setCur(id int) {
	t.mu.Lock()
	t.cur = id
	t.mu.Unlock()
}

// totalUS sums the durations, in µs, of the named spans of a phase.
func (t *tracer) totalUS(name, phase string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := 0.0
	for _, s := range t.spans {
		if s.Name == name && s.Phase == phase {
			total += s.DurUS
		}
	}
	return total
}

// selfUS sums, per span name, the spans' self time within a phase: each
// span's duration minus that of its direct children.
func (t *tracer) selfUS(phase string) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[int]float64{}
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.DurUS
		}
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		if s.Phase == phase {
			self[s.Name] += max(0, s.DurUS-child[s.ID])
		}
	}
	return self
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timedStore records a span around every Get and Put of the store it wraps.
type timedStore struct {
	campaign.ResultStore
	tr *tracer
}

func (s *timedStore) Get(key string) ([]byte, bool) {
	sp := s.tr.begin("campaign.store_get", key, -1)
	data, ok := s.ResultStore.Get(key)
	s.tr.end(sp)
	return data, ok
}

func (s *timedStore) Put(key string, data []byte) error {
	sp := s.tr.begin("campaign.store_put", key, -1)
	err := s.ResultStore.Put(key, data)
	s.tr.end(sp)
	return err
}

// tracedPool is a width-1 campaign.Pool that drives each cell through the
// layers' public calls itself, one span per call: Job.Key, the store's
// Get/Put, then sim.DecodeResult on a hit, or sim.CompileModule,
// sim.NewWithProgram, Machine.Run and sim.EncodeResult on a miss. Training
// cells are one campaign.TrainCell each. Outcomes are the pool's,
// byte for byte; every run checks that against its untraced passes.
type tracedPool struct {
	store campaign.ResultStore
	tr    *tracer
}

func (p *tracedPool) Run(ctx context.Context, jobs []*campaign.Job, _ func(campaign.Progress)) ([]*campaign.Outcome, error) {
	outs := make([]*campaign.Outcome, len(jobs))
	var errs []error
	for i, j := range jobs {
		o := &campaign.Outcome{Job: j}
		outs[i] = o
		if o.Err = ctx.Err(); o.Err == nil {
			o.Err = p.runOne(j, o)
		}
		if o.Err != nil {
			errs = append(errs, fmt.Errorf("job %d (%s): %w", j.Index, j.Label, o.Err))
		}
	}
	return outs, errors.Join(errs...)
}

func (p *tracedPool) runOne(j *campaign.Job, o *campaign.Outcome) error {
	root := p.tr.begin("cell", j.Label, 0)
	defer p.tr.end(root)
	p.tr.setCur(root.ID)
	defer p.tr.setCur(0)

	sp := p.tr.begin("campaign.key", j.Label, root.ID)
	key, cacheable := j.Key()
	p.tr.end(sp)
	root.Cell = key
	if cacheable {
		if data, ok := p.store.Get(key); ok {
			sp := p.tr.begin("sim.decode", key, root.ID)
			res, err := sim.DecodeResult(data)
			p.tr.end(sp)
			if err == nil {
				o.Result, o.Bytes, o.CacheHit = res, data, true
				return nil
			}
		}
	}
	if j.AgentKey != "" && j.Agents == nil {
		j.Agents = p.store
	}
	res, data, err := p.tr.execute(j, key, root.ID)
	if err != nil {
		return err
	}
	o.Result, o.Bytes = res, data
	if cacheable {
		_ = p.store.Put(key, data) // a failed cache fill only costs memoization, as in Pool
	}
	return nil
}

func (p *tracedPool) Train(ctx context.Context, specs []*campaign.TrainSpec) ([]*campaign.Trained, error) {
	outs := make([]*campaign.Trained, len(specs))
	var errs []error
	for i, ts := range specs {
		if err := ctx.Err(); err != nil {
			return outs, err
		}
		key, err := ts.Key()
		if err != nil {
			return outs, err
		}
		sp := p.tr.begin("rl.train", key, 0)
		p.tr.setCur(sp.ID)
		outs[i], err = campaign.TrainCell(p.store, ts)
		p.tr.setCur(0)
		p.tr.end(sp)
		if err != nil {
			errs = append(errs, fmt.Errorf("cell %d (%s): %w", i, ts.Label, err))
		}
	}
	return outs, errors.Join(errs...)
}

// execute runs one job as Job.Execute does, through the public calls one
// span each. Jobs whose policies have no public constructor here (hybrid
// agents, actuators) run whole, as one campaign.execute span.
func (t *tracer) execute(j *campaign.Job, key string, parent int) (*sim.Result, []byte, error) {
	var (
		res *sim.Result
		err error
	)
	if j.AgentKey != "" || j.Hybrid != nil || j.Actuator != "" || (j.OS != "" && j.OS != "gts") {
		sp := t.begin("campaign.execute", key, parent)
		res, err = j.Execute()
		t.end(sp)
	} else {
		res, err = t.simulate(j, key, parent)
	}
	if err != nil {
		return nil, nil, err
	}
	sp := t.begin("sim.encode", key, parent)
	data, err := sim.EncodeResult(res)
	t.end(sp)
	return res, data, err
}

func (t *tracer) simulate(j *campaign.Job, key string, parent int) (*sim.Result, error) {
	name := j.PlatName
	if name == "" {
		name = campaign.DefaultPlatform
	}
	plat, err := hw.ByName(name)
	if err != nil {
		return nil, err
	}
	opts := j.Opts
	opts.Seed, opts.Args, opts.InitialConfig = j.Seed, j.Args, j.Config
	if j.OS == "gts" {
		opts.OS = sched.NewGTS()
	}
	sp := t.begin("sim.compile", key, parent)
	prog := sim.CompileModule(j.Module)
	t.end(sp)

	sp = t.begin("sim.new", key, parent)
	a0 := heapAllocs()
	m, err := sim.NewWithProgram(j.Module, plat, opts, prog)
	sp.AllocB = heapAllocs() - a0
	t.end(sp)
	if err != nil {
		return nil, err
	}

	sp = t.begin("sim.run", key, parent)
	res, err := m.Run()
	t.end(sp)
	if err == nil {
		sp.Instr = res.Instructions
	}
	return res, err
}
