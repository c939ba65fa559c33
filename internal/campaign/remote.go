package campaign

import (
	"context"
	"errors"
	"sync"
	"time"

	"astro/internal/sim"
)

// RemoteRunner executes job batches by leasing cells to pull-based workers
// through a WorkQueue, drop-in beside the local Pool: same jobs, same keys,
// same store discipline, byte-identical outcomes (the remote byte-identity
// test pins a 60-cell matrix in-process against two workers).
//
// Run (simulation cells) and Train (training cells, WireJob kind "train")
// share one lease path. Per cell, in order:
//
//   - cache: the shared store is consulted first, exactly like Pool — a
//     warm store means nothing is ever enqueued, so a warm re-run through
//     workers performs zero fresh work anywhere. A stored entry that does
//     not decode is leased afresh, and its validated result overwrites it.
//   - every other cell is wired and enqueued — hybrid jobs included, whose
//     trained agent travels by content key (GET /work/agents/{key}). The
//     call keys each cell once, for its store lookup and its wire form,
//     and encodes each distinct module once, however many cells share it.
//     The queue deduplicates by key, leases cells to whichever workers poll,
//     re-issues expired leases, and validates and banks results before any
//     waiter sees them. A cell that does not wire (no module, or the
//     deprecated Hybrid factory) fails at its index; nothing runs on the
//     coordinator.
//
// The queue is the only place a leased result is banked, so the runner
// requires Queue.Store to be its Store (astro-serve, astro-experiments
// -remote and the CLI cluster all build it that way); Run and Train refuse
// any other configuration before enqueueing anything. Trained agents come
// back restored from snapshot bytes and therefore inference-exact, so a
// fig10-style suite distributes its training and its hybrid sampling with
// zero coordinator-local work.
//
// Cancellation withdraws not-yet-completed cells from the queue; a cell a
// worker already holds finishes harmlessly — its late result is
// acknowledged and banked for any future campaign wanting the same key.
type RemoteRunner struct {
	Queue *WorkQueue
	Store ResultStore // shared result store, consulted before leasing; must be Queue.Store

	// Deprecated: Local is ignored. Every cell leases through Queue.
	Local Pool

	// Deprecated: ShipPrograms is ignored. Workers compile the modules of
	// the cells they lease, exactly as the in-process Pool does.
	ShipPrograms bool
}

// Run implements Runner.
func (r *RemoteRunner) Run(ctx context.Context, jobs []*Job, onProgress func(Progress)) ([]*Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	outs := make([]*Outcome, len(jobs))
	starts := make([]time.Time, len(jobs))
	report := reporter(len(jobs), onProgress)
	mods := moduleBytes{}
	err := r.lease(ctx, len(jobs),
		func(i int) string {
			key, _ := jobs[i].Key()
			return key
		},
		func(i int, key string) (*WireJob, error) {
			starts[i] = time.Now()
			return jobs[i].wire(key, mods)
		},
		func(i int, data []byte, hit bool, err error) bool {
			o := &Outcome{Job: jobs[i], CacheHit: hit, Err: err, Worker: -1}
			if err == nil {
				o.Result, o.Err = sim.DecodeResult(data)
			}
			if o.Err != nil && hit {
				return false
			}
			if o.Err == nil {
				o.Bytes = data
				o.SimInstr, o.SimCycles = resultWork(o.Result)
			}
			if !hit {
				o.WallS = time.Since(starts[i]).Seconds()
			}
			outs[i] = o
			// A withdrawn cell never ran; like Pool.Run, it is not progress.
			if withdrawn := err != nil && err == ctx.Err(); !withdrawn {
				report(o)
			}
			return true
		})
	if err != nil {
		return nil, err
	}
	return outs, jobErrors(outs)
}

// Train implements Trainer by leasing training cells to the worker fleet.
// The returned agents are restored from snapshot bytes and therefore
// inference-exact — byte-identical downstream results to training
// in-process, which the distributed fig10 identity test pins.
func (r *RemoteRunner) Train(ctx context.Context, specs []*TrainSpec) ([]*Trained, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	outs := make([]*Trained, len(specs))
	errs := make([]error, len(specs))
	mods := moduleBytes{}
	err := r.lease(ctx, len(specs),
		func(i int) string {
			key, _ := specs[i].Key() // a spec whose key fails does not wire either
			return key
		},
		func(i int, key string) (*WireJob, error) { return specs[i].wire(key, mods) },
		func(i int, data []byte, hit bool, err error) bool {
			if err == nil {
				outs[i], err = restoreTrained(data)
			}
			if err != nil && hit {
				return false
			}
			if err == nil {
				outs[i].CacheHit = hit
			}
			errs[i] = err
			return true
		})
	if err != nil {
		return nil, err
	}
	return outs, cellErrors(specs, errs)
}

// lease drives n cells through the shared store and the queue. Cell i is
// looked up in the store under key(i) first ("" skips the lookup) and a
// hit goes to finish(i, data, true, nil); only when finish refuses it
// (the bytes do not decode) is the cell leased afresh. Every other cell
// is enqueued as wire(i, key(i)), and the queue's callback calls
// finish(i, data, false, err) with validated, already banked bytes; a cell
// that does not wire finishes with the wiring error. finish may run
// concurrently.
//
// When ctx is done first, every cell whose callback has not fired is
// withdrawn: cancel() returning true hands its outcome to us, and it
// finishes with ctx's error; false means the callback ran (or is running)
// and fills the outcome itself. lease returns only after every finish has.
func (r *RemoteRunner) lease(ctx context.Context, n int, key func(int) string, wire func(i int, key string) (*WireJob, error), finish func(i int, data []byte, hit bool, err error) bool) error {
	if r.Queue == nil {
		return errors.New("campaign: RemoteRunner has no Queue")
	}
	if r.Queue.Store != r.Store {
		return errors.New("campaign: RemoteRunner's Store must be its Queue's Store, where the queue banks leased results")
	}
	var (
		wg      sync.WaitGroup
		cancels []func() bool
		leased  []int
	)
	for i := 0; i < n; i++ {
		k := key(i)
		if k != "" && r.Store != nil {
			if data, ok := r.Store.Get(k); ok && finish(i, data, true, nil) {
				continue
			}
		}
		w, err := wire(i, k)
		if err != nil {
			finish(i, nil, false, err)
			continue
		}
		w.Campaign = CampaignIDFromContext(ctx) // trace annotation; inert
		wg.Add(1)
		cancels = append(cancels, r.Queue.Enqueue(w, func(data []byte, err error) {
			defer wg.Done()
			finish(i, data, false, err)
		}))
		leased = append(leased, i)
	}

	waitCh := make(chan struct{})
	go func() { wg.Wait(); close(waitCh) }()
	select {
	case <-waitCh:
	case <-ctx.Done():
		for k, c := range cancels {
			if c() {
				finish(leased[k], nil, false, ctx.Err())
				wg.Done()
			}
		}
		<-waitCh // in-flight callbacks finish; outcomes are quiescent after this
	}
	return nil
}
