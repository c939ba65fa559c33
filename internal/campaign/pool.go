package campaign

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"astro/internal/sim"
)

// Progress is one per-job event on the streaming progress API.
type Progress struct {
	JobIndex int     `json:"job"`
	Label    string  `json:"label"`
	Done     int     `json:"done"`  // jobs finished so far (including this one)
	Total    int     `json:"total"` // jobs in the batch
	Worker   int     `json:"worker"`
	CacheHit bool    `json:"cache_hit"`
	WallS    float64 `json:"wall_s"`
	Err      string  `json:"err,omitempty"`
	// Simulated work delivered by the job (whether simulated fresh or
	// served from cache): retired instructions and core cycles. The engine
	// aggregates these into campaign throughput (simulated cycles per wall
	// second), which is how fast-path and cache speedups show up over HTTP.
	SimInstr  uint64 `json:"sim_instr,omitempty"`
	SimCycles uint64 `json:"sim_cycles,omitempty"`
}

// Outcome is one job's terminal state.
type Outcome struct {
	Job       *Job
	Result    *sim.Result
	Bytes     []byte // canonical result encoding (what the store holds)
	CacheHit  bool
	Err       error
	Attempts  int
	Worker    int
	WallS     float64
	SimInstr  uint64 // retired instructions in the simulated run
	SimCycles uint64 // core cycles across the run's checkpoints
}

// progress is the event reporting o as the done-th of total finished jobs.
func (o *Outcome) progress(done, total int) Progress {
	p := Progress{
		JobIndex:  o.Job.Index,
		Label:     o.Job.Label,
		Done:      done,
		Total:     total,
		Worker:    o.Worker,
		CacheHit:  o.CacheHit,
		WallS:     o.WallS,
		SimInstr:  o.SimInstr,
		SimCycles: o.SimCycles,
	}
	if o.Err != nil {
		p.Err = o.Err.Error()
	}
	return p
}

// resultWork extracts a result's simulated-work totals.
func resultWork(r *sim.Result) (instr, cycles uint64) {
	if r == nil {
		return 0, 0
	}
	for _, ck := range r.Checkpoints {
		cycles += ck.HW.Cycles
	}
	return r.Instructions, cycles
}

// Pool executes job batches. Jobs are sharded statically (see partition),
// so each worker's share is independent of run-to-run timing. The zero
// value is a serial, uncached pool.
type Pool struct {
	Workers int         // concurrent workers; <= 0 means 1
	Store   ResultStore // nil disables caching
	Retries int         // extra attempts per failing job
}

// Run executes the batch. It returns one outcome per job, in job order,
// together with the aggregate of every job error (nil when all jobs
// succeeded). onProgress, when non-nil, is invoked once per finished job;
// calls are serialized. Cancelling ctx stops workers between jobs and
// returns ctx's error for jobs never started.
func (p *Pool) Run(ctx context.Context, jobs []*Job, onProgress func(Progress)) ([]*Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	outs := make([]*Outcome, len(jobs))
	report := reporter(len(jobs), onProgress)
	partition(len(jobs), p.Workers, func(i, w int) {
		if err := ctx.Err(); err != nil {
			outs[i] = &Outcome{Job: jobs[i], Err: err, Worker: w}
			return
		}
		outs[i] = p.runOne(jobs[i], w)
		report(outs[i])
	})
	return outs, jobErrors(outs)
}

// partition calls f(i, w) for every i < n on up to workers goroutines
// (at least one): worker w owns indices w, w+W, w+2·W, … — a
// deterministic split that needs no locked queue. It returns once every
// call has.
func partition(n, workers int, f func(i, w int)) {
	workers = min(max(workers, 1), n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				f(i, w)
			}
		}(w)
	}
	wg.Wait()
}

// reporter returns a progress hook that counts finished jobs out of total
// and forwards each as an event to onProgress (nil = none); calls are
// serialized.
func reporter(total int, onProgress func(Progress)) func(*Outcome) {
	var (
		mu   sync.Mutex
		done int
	)
	return func(o *Outcome) {
		mu.Lock()
		defer mu.Unlock()
		done++
		if onProgress != nil {
			onProgress(o.progress(done, total))
		}
	}
}

// jobErrors joins the errors of a batch's outcomes, naming each job.
func jobErrors(outs []*Outcome) error {
	var errs []error
	for _, o := range outs {
		if o != nil && o.Err != nil {
			errs = append(errs, fmt.Errorf("job %d (%s): %w", o.Job.Index, o.Job.Label, o.Err))
		}
	}
	return errors.Join(errs...)
}

// runOne executes one job: cache lookup, simulation with retries, cache
// fill.
func (p *Pool) runOne(j *Job, worker int) *Outcome {
	start := time.Now()
	o := &Outcome{Job: j, Worker: worker}
	key, cacheable := j.Key()
	if cacheable && p.Store != nil {
		if data, ok := p.Store.Get(key); ok {
			res, err := sim.DecodeResult(data)
			if err == nil {
				o.Result, o.Bytes, o.CacheHit = res, data, true
				o.SimInstr, o.SimCycles = resultWork(res)
				o.WallS = time.Since(start).Seconds()
				cPoolHit.Inc()
				return o
			}
			// A corrupt or non-canonical entry falls through to a fresh
			// simulation that will overwrite it.
		}
	}

	if j.AgentKey != "" && j.Agents == nil {
		// Agent-keyed hybrid jobs resolve their snapshot at execution time;
		// default to the pool's own store (where TrainCell banked it).
		j.Agents = p.Store
	}
	execStart := time.Now()
	for attempt := 0; ; attempt++ {
		o.Attempts = attempt + 1
		res, err := j.Execute()
		if err == nil {
			o.Result = res
			break
		}
		o.Err = err
		if attempt >= p.Retries {
			o.WallS = time.Since(start).Seconds()
			cPoolErr.Inc()
			return o
		}
	}
	o.Err = nil
	cPoolExec.Inc()
	hPoolExec.Observe(time.Since(execStart).Seconds())
	o.SimInstr, o.SimCycles = resultWork(o.Result)

	data, err := sim.EncodeResult(o.Result)
	if err != nil {
		o.Err = err
		o.WallS = time.Since(start).Seconds()
		return o
	}
	o.Bytes = data
	if cacheable && p.Store != nil {
		// A cache-fill failure (disk full, unwritable directory) must not
		// discard a successfully computed result: the simulation stands,
		// only future runs lose the memoization.
		_ = p.Store.Put(key, data)
	}
	o.WallS = time.Since(start).Seconds()
	return o
}

// Train implements Trainer on the in-process pool: independent training
// cells shard across the pool's width with the same deterministic
// partition as Run, memoizing snapshots into the pool's store. The context
// is accepted for symmetry with RemoteRunner.Train; a training cell is
// internally sequential (episodes feed the next) and finishes once
// started.
func (p *Pool) Train(ctx context.Context, specs []*TrainSpec) ([]*Trained, error) {
	return TrainCells(p.Store, specs, p.Workers)
}

// Results unwraps outcomes into results in job order; it fails on the first
// job error (convenience for callers that need all results).
func Results(outs []*Outcome) ([]*sim.Result, error) {
	rs := make([]*sim.Result, len(outs))
	for i, o := range outs {
		if o == nil {
			return nil, fmt.Errorf("campaign: job %d never ran", i)
		}
		if o.Err != nil {
			return nil, o.Err
		}
		rs[i] = o.Result
	}
	return rs, nil
}

// CacheHits counts cache-served outcomes.
func CacheHits(outs []*Outcome) int {
	n := 0
	for _, o := range outs {
		if o != nil && o.CacheHit {
			n++
		}
	}
	return n
}
