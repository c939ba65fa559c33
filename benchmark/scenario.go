package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"astro/internal/campaign"
	"astro/internal/lang"
	"astro/internal/scenario"
	"astro/internal/sim"
	"astro/internal/workloads"
)

// storeShards is the on-disk store's shard count.
const storeShards = 4

// coldSetupRepeats is how many extra set-ups each untraced scenario_cold
// pass times: a pass takes seconds and its set-up tens of milliseconds, so
// one set-up sample per pass would leave setup_s a median of three or four.
const coldSetupRepeats = 8

// scenarioMatrix is the grid both scenario workloads run: o.programs
// programs generated from the matrix's preset cycle, under the default and
// GTS schedulers, at small scale, on o.platforms (nil: three machines of
// the default platform zoo, one per DVFS step). The workload seed picks the
// program seeds and the simulator seed.
//
// A generated program's cost varies widely with its seed (loop depths and
// trip counts are drawn from it), so the grid spends its cells on many
// programs and few platforms: over ten seeds, the grid's result bytes
// spread by 30% (interquartile range) with 15 programs on the whole
// 12-machine zoo, 9% with 60 programs on 3 machines and 4% with 120.
func scenarioMatrix(o options) (*scenario.Matrix, error) {
	m := &scenario.Matrix{
		Name:         "benchmark",
		ProgramCount: o.programs,
		ProgramSeed:  1000 * o.seed,
		Platforms:    o.platforms,
		Schedulers:   []string{"default", "gts"},
		Scale:        "small",
		Seeds:        []int64{o.seed},
	}
	if m.Platforms == nil {
		zoo, err := (&scenario.ZooParams{}).Platforms()
		if err != nil {
			return nil, err
		}
		// Topology-major order: 4L4B low, 2L4B mid, 4L2B high.
		m.Platforms = []string{zoo[0], zoo[4], zoo[8]}
	}
	return m, nil
}

// expandMatrix generates and registers the matrix's programs, compiles
// them and expands the grid. Traced passes also time lang.Compile on each
// program's source.
func expandMatrix(m *scenario.Matrix, tr *tracer) ([]*campaign.Job, error) {
	var sp *span
	if tr != nil {
		sp = tr.begin("scenario.generate", "", 0)
	}
	specs, err := m.Campaigns()
	if tr != nil {
		tr.end(sp)
	}
	if err != nil {
		return nil, err
	}
	if len(specs) != 1 {
		return nil, fmt.Errorf("scenario matrix compiled to %d campaign specs, want 1", len(specs))
	}
	programs := specs[0].Benchmarks
	if tr != nil {
		sp.Calls = len(programs)
	}
	jobs, err := specs[0].Expand()
	if err != nil || tr == nil {
		return jobs, err
	}
	for _, name := range programs {
		spec, ok := workloads.ByName(name)
		if !ok {
			return nil, fmt.Errorf("generated program %s is not registered", name)
		}
		sp := tr.begin("lang.compile", name, 0)
		_, err := lang.Compile(spec.Name, spec.Source)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	return jobs, nil
}

// countOutcomes fills a pass's cell, failure and hit counts.
func countOutcomes(p *pass, outs []*campaign.Outcome) {
	p.cells = len(outs)
	for _, o := range outs {
		if o == nil || o.Err != nil {
			p.failed++
		} else if o.CacheHit {
			p.hits++
		}
	}
}

// scenarioCold sweeps the matrix through a loopback coordinator and one
// campaign.Worker, set up like the CLI's `-workers 1` cluster, into a fresh
// on-disk ShardedStore per pass.
type scenarioCold struct {
	o          options
	c          *checker
	fp         string
	legacyDone bool
}

// coldRig is what one scenario_cold pass sets up: the registered
// programs, the expanded grid, a fresh store directory and the loopback
// pair.
type coldRig struct {
	m     *scenario.Matrix
	jobs  []*campaign.Job
	dir   string
	store campaign.ResultStore
	lb    *loopback
}

func (w *scenarioCold) setUp(tr *tracer) (*coldRig, error) {
	m, err := scenarioMatrix(w.o)
	if err != nil {
		return nil, err
	}
	r := &coldRig{m: m}
	if r.jobs, err = expandMatrix(m, tr); err != nil {
		r.tearDown()
		return nil, err
	}
	if r.dir, err = os.MkdirTemp(filepath.Join(w.o.workDir, "tmp"), "cold-"); err != nil {
		r.tearDown()
		return nil, err
	}
	r.store, err = openStore(tr, func() (campaign.ResultStore, error) { return campaign.NewShardedStore(r.dir, storeShards) })
	if err == nil {
		r.lb, err = startLoopback(r.store, tr)
	}
	if err != nil {
		r.tearDown()
		return nil, err
	}
	return r, nil
}

// tearDown stops the loopback pair, deletes the store directory and
// unregisters the programs.
func (r *coldRig) tearDown() {
	if r.lb != nil {
		r.lb.close()
	}
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
	r.m.Unregister()
}

func (w *scenarioCold) pass(tr *tracer) (pass, error) {
	p := pass{traced: tr != nil}
	for i := 0; i < coldSetupRepeats && tr == nil; i++ {
		start := startSetup()
		r, err := w.setUp(nil)
		if err != nil {
			return p, err
		}
		p.moreSetupS = append(p.moreSetupS, time.Since(start).Seconds())
		r.tearDown()
	}
	start := startSetup()
	if tr != nil {
		tr.setPhase("setup")
	}
	r, err := w.setUp(tr)
	if err != nil {
		return p, err
	}
	defer r.tearDown()
	lb := r.lb
	p.setupS = time.Since(start).Seconds()

	if tr != nil {
		tr.setPhase("timed")
	}
	mt := startMeter()
	lb.startTimed()
	outs, _ := lb.runner.Run(context.Background(), r.jobs, nil) // failed cells are counted below
	mt.stop(&p)
	// Read before close: a lease in flight when the worker stops fails too.
	p.leaseErrors = int(lb.worker.LeaseErrors())
	lb.close()
	if tr != nil {
		tr.setPhase("check")
	}
	countOutcomes(&p, outs)
	p.workerS = lb.workerS

	w.c.expect(p.hits == 0, "scenario_cold pass on a fresh store: %d cache hits, want 0", p.hits)
	w.c.samePass(&w.fp, campaign.Fingerprint(outs))
	if !w.legacyDone {
		w.legacyDone = true
		for _, i := range legacySample(len(outs)) {
			legacyCheck(w.c, outs[i])
		}
	}
	if tr != nil {
		redrive(w.c, tr, outs)
	}
	return p, nil
}

// legacySample picks six cells spread over the grid.
func legacySample(n int) []int {
	var idx []int
	for k := 0; k < 6 && k < n; k++ {
		idx = append(idx, k*n/6)
	}
	return idx
}

// redrive re-executes each cold cell in process through the public layer
// calls, one span each, and expects the loopback result's bytes. The
// worker's own execution is not visible from outside campaign.Worker; this
// attributes the worker-side cell time to layers.
func redrive(c *checker, tr *tracer, outs []*campaign.Outcome) {
	for _, o := range outs {
		if o == nil || o.Err != nil {
			continue
		}
		sp := tr.begin("campaign.key", o.Job.Label, 0)
		key, _ := o.Job.Key()
		tr.end(sp)
		sp = tr.begin("sim.decode", key, 0)
		_, err := sim.DecodeResult(o.Bytes)
		tr.end(sp)
		c.expect(err == nil, "decoding the stored result of %s: %v", o.Job.Label, err)
		_, data, err := tr.execute(o.Job, key, 0)
		c.expect(err == nil && string(data) == string(o.Bytes), "in-process re-execution of %s: result differs from the loopback run (%v)", o.Job.Label, err)
	}
}

func (w *scenarioCold) fingerprint() string { return w.fp }

// table splits the loopback cell into wire overhead and worker-side time;
// the worker side into the coordinator's store Put (the worker waits for
// it while submitting) and the in-process re-drive's simulator calls.
func (w *scenarioCold) table(tr *tracer, traced []pass) []row {
	var wallS, workerS float64
	cells := 0
	for _, p := range traced {
		wallS += p.wallS
		workerS += p.workerS
		cells += p.cells
	}
	if cells == 0 {
		return nil
	}
	per := func(us float64) float64 { return us / float64(cells) }
	sum := tr.totalUS
	rows := []row{
		{name: rowTotal, us: per(wallS * 1e6)},
		{name: "campaign.wire_overhead", us: per((wallS - workerS) * 1e6), note: "lease, wire encode/decode, idle polls"},
	}
	rest := workerS * 1e6
	for _, r := range []row{
		{name: "campaign.store_put", us: sum("campaign.store_put", "timed"), note: "coordinator, inside the worker's submit"},
		{name: "sim.new", us: sum("sim.new", "check"), note: "re-driven in process"},
		{name: "sim.run", us: sum("sim.run", "check"), note: "re-driven in process"},
		{name: "sim.encode", us: sum("sim.encode", "check"), note: "re-driven in process"},
	} {
		rest -= r.us
		r.us = per(r.us)
		rows = append(rows, r)
	}
	rows = append(rows, row{name: rowUnattributed, us: per(rest), note: "worker: job/program decode, JSON, HTTP"})
	compile := per(sum("sim.compile", "check"))
	return append(rows, row{name: "(sim.compile)", us: compile, note: "not on the cold path: the coordinator ships compiled programs"})
}

func (w *scenarioCold) close() {}

// openStore opens a store, timing the open on traced passes and wrapping
// the store so its Gets and Puts are timed too.
func openStore(tr *tracer, open func() (campaign.ResultStore, error)) (campaign.ResultStore, error) {
	if tr == nil {
		return open()
	}
	sp := tr.begin("campaign.store_open", "", 0)
	s, err := open()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &timedStore{s, tr}, nil
}

// loopback is a coordinator (campaign.WorkHandler over a WorkQueue) and one
// pull-based campaign.Worker with one executor over one connection, like
// the CLI's `-workers 1` cluster.
type loopback struct {
	runner *campaign.RemoteRunner
	worker *campaign.Worker
	client *http.Client

	srv       *http.Server
	served    chan struct{}
	cancel    context.CancelFunc
	exited    chan struct{}
	stopSweep func()
	once      sync.Once

	mu      sync.Mutex
	workerS float64   // summed Worker.OnProgress cell time
	last    time.Time // the previous cell's OnProgress, or the timed phase's start
}

func startLoopback(store campaign.ResultStore, tr *tracer) (*loopback, error) {
	q := campaign.NewWorkQueue(campaign.DefaultLeaseTTL)
	q.Store = store
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loopback: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	lb := &loopback{
		srv:    &http.Server{Handler: http.StripPrefix("/work", campaign.WorkHandler(q, store))},
		served: make(chan struct{}),
		cancel: cancel,
		exited: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}},
	}
	lb.stopSweep = q.StartSweeper(0)
	go func() {
		defer close(lb.served)
		_ = lb.srv.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	lb.worker = &campaign.Worker{
		Coordinator: "http://" + ln.Addr().String() + "/work",
		ID:          "bench-0",
		Max:         2,
		Poll:        20 * time.Millisecond,
		Client:      lb.client,
		// One executor runs the cells one after another, so the time
		// between two OnProgress calls is one cell's share of the loopback
		// wall time; less the worker-side time it reports, that is the
		// cell's wire overhead.
		OnProgress: func(p campaign.Progress) {
			now := time.Now()
			lb.mu.Lock()
			wire := now.Sub(lb.last) - time.Duration(p.WallS*1e9)
			lb.last = now
			lb.workerS += p.WallS
			lb.mu.Unlock()
			if tr != nil {
				tr.record("campaign.wire_overhead", p.Label, wire)
			}
		},
	}
	go func() {
		defer close(lb.exited)
		if err := lb.worker.Run(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: worker:", err)
		}
	}()
	lb.runner = &campaign.RemoteRunner{
		Queue:        q,
		Store:        store,
		Local:        campaign.Pool{Workers: 1, Store: store},
		ShipPrograms: true,
	}
	return lb, nil
}

// startTimed marks the start of the timed phase for the first cell's wire
// overhead.
func (lb *loopback) startTimed() {
	lb.mu.Lock()
	lb.last = time.Now()
	lb.mu.Unlock()
}

// close stops the worker, the sweeper and the coordinator, and waits for
// each to finish.
func (lb *loopback) close() {
	lb.once.Do(func() {
		lb.cancel()
		<-lb.exited
		lb.stopSweep()
		ctx, done := context.WithTimeout(context.Background(), 5*time.Second)
		defer done()
		_ = lb.srv.Shutdown(ctx) // a timeout leaves only idle connections behind
		<-lb.served
		lb.client.CloseIdleConnections()
	})
}

// scenarioWarm banks the matrix once, then re-reads it each pass: reopen
// the store with campaign.OpenStore, re-expand the grid and run it on the
// in-process pool, so every cell is a store hit.
type scenarioWarm struct {
	o    options
	c    *checker
	dir  string
	cold []*campaign.Outcome
	fp   string
}

func newScenarioWarm(o options, c *checker) (*scenarioWarm, error) {
	w := &scenarioWarm{o: o, c: c}
	dir, err := os.MkdirTemp(filepath.Join(o.workDir, "tmp"), "warm-")
	if err != nil {
		return nil, err
	}
	w.dir = dir
	if err := w.fill(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// fill banks the matrix in a fresh on-disk store before any timed pass.
func (w *scenarioWarm) fill() error {
	m, err := scenarioMatrix(w.o)
	if err != nil {
		return err
	}
	defer m.Unregister()
	jobs, err := expandMatrix(m, nil)
	if err != nil {
		return err
	}
	store, err := campaign.NewShardedStore(w.dir, storeShards)
	if err != nil {
		return err
	}
	outs, err := (&campaign.Pool{Workers: 1, Store: store}).Run(context.Background(), jobs, nil)
	if err != nil {
		return fmt.Errorf("banking the warm store: %w", err)
	}
	w.cold, w.fp = outs, campaign.Fingerprint(outs)
	for _, i := range legacySample(len(outs)) {
		legacyCheck(w.c, outs[i])
	}
	return nil
}

func (w *scenarioWarm) pass(tr *tracer) (pass, error) {
	p := pass{traced: tr != nil}
	start := startSetup()
	if tr != nil {
		tr.setPhase("setup")
	}
	m, err := scenarioMatrix(w.o)
	if err != nil {
		return p, err
	}
	defer m.Unregister()
	jobs, err := expandMatrix(m, tr)
	if err != nil {
		return p, err
	}
	store, err := openStore(tr, func() (campaign.ResultStore, error) { return campaign.OpenStore(w.dir) })
	if err != nil {
		return p, err
	}
	var runner campaign.Runner = &campaign.Pool{Workers: 1, Store: store}
	if tr != nil {
		runner = &tracedPool{store: store, tr: tr}
	}
	p.setupS = time.Since(start).Seconds()

	if tr != nil {
		tr.setPhase("timed")
	}
	mt := startMeter()
	outs, _ := runner.Run(context.Background(), jobs, nil) // failed cells are counted below
	mt.stop(&p)
	if tr != nil {
		tr.setPhase("check")
	}
	countOutcomes(&p, outs)

	w.c.expect(p.hits == p.cells, "scenario_warm: %d hits of %d cells, want all", p.hits, p.cells)
	same := len(outs) == len(w.cold)
	for i := 0; same && i < len(outs); i++ {
		same = outs[i] != nil && string(outs[i].Bytes) == string(w.cold[i].Bytes)
	}
	w.c.expect(same, "scenario_warm: warm result bytes differ from the cold fill's")
	w.c.expect(campaign.Fingerprint(outs) == w.fp, "scenario_warm: pass fingerprint differs from the cold fill's")
	return p, nil
}

func (w *scenarioWarm) fingerprint() string { return w.fp }

func (w *scenarioWarm) table(tr *tracer, traced []pass) []row { return selfRows(tr, traced) }

func (w *scenarioWarm) close() {
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}
