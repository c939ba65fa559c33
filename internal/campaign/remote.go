package campaign

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"astro/internal/sim"
)

// RemoteRunner executes job batches by leasing cells to pull-based workers
// through a WorkQueue, drop-in beside the local Pool: same jobs, same keys,
// same store discipline, byte-identical outcomes (the remote byte-identity
// test pins a 60-cell matrix in-process against two workers).
//
// Per job, in order:
//
//   - cache: the shared store is consulted first, exactly like Pool — a
//     warm store means nothing is ever enqueued, so a warm re-run through
//     workers performs zero fresh simulations anywhere.
//   - every other job is wired and enqueued — hybrid jobs included, whose
//     trained agent travels by content key through the agent exchange; the
//     queue deduplicates by key, leases cells to whichever workers poll,
//     re-issues expired leases, and validates results before this runner
//     stores them. A job that does not wire (no module, or the deprecated
//     Hybrid factory) fails at its index; nothing runs on the coordinator.
//
// Train is the training counterpart: training cells lease out exactly like
// simulation cells (WireJob kind "train"), workers push the finished
// snapshots back, and the restored agents are inference-exact — so a
// fig10-style suite distributes its training and its hybrid sampling with
// zero coordinator-local work.
//
// Cancellation withdraws not-yet-completed cells from the queue; a cell a
// worker already holds finishes harmlessly — its late result is
// acknowledged and, when the queue's Store is configured (astro-serve and
// the CLI cluster point it at the shared store), kept for any future
// campaign wanting the same key.
type RemoteRunner struct {
	Queue *WorkQueue
	Store ResultStore // shared result store, consulted before leasing
	Local Pool        // runs everything when Queue is nil

	// Deprecated: ShipPrograms is ignored. Workers compile the module of
	// every cell they lease, exactly as the in-process Pool does.
	ShipPrograms bool
}

// Run implements Runner.
func (r *RemoteRunner) Run(ctx context.Context, jobs []*Job, onProgress func(Progress)) ([]*Outcome, error) {
	if r.Queue == nil {
		return r.Local.Run(ctx, jobs, onProgress)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	outs := make([]*Outcome, len(jobs))
	var (
		progMu sync.Mutex
		done   int
	)
	report := func(o *Outcome) {
		progMu.Lock()
		defer progMu.Unlock()
		done++
		if onProgress != nil {
			onProgress(o.progress(done, len(jobs)))
		}
	}

	var (
		wg        sync.WaitGroup
		cancels   []func() bool
		remoteIdx []int
	)
	for i, j := range jobs {
		key, cacheable := j.Key()
		if cacheable && r.Store != nil {
			if data, ok := r.Store.Get(key); ok {
				if res, err := sim.DecodeResult(data); err == nil {
					o := &Outcome{Job: j, Result: res, Bytes: data, CacheHit: true, Worker: -1}
					o.SimInstr, o.SimCycles = resultWork(res)
					outs[i] = o
					report(o)
					continue
				}
				// Corrupt entry: fall through to a fresh (remote) run that
				// overwrites it.
			}
		}
		wire, err := j.Wire()
		if err != nil {
			o := &Outcome{Job: j, Err: err, Worker: -1}
			outs[i] = o
			report(o)
			continue
		}
		wire.Campaign = CampaignIDFromContext(ctx) // trace annotation; inert
		wg.Add(1)
		start := time.Now()
		cancel := r.Queue.Enqueue(wire, func(data []byte, qerr error) {
			defer wg.Done()
			o := &Outcome{Job: j, Worker: -1}
			if qerr != nil {
				o.Err = qerr
			} else if res, derr := sim.DecodeResult(data); derr != nil {
				o.Err = derr // cannot pass queue validation; belt and braces
			} else {
				o.Result, o.Bytes = res, data
				o.SimInstr, o.SimCycles = resultWork(res)
				// Best effort, like Pool's cache fill: a failed Put only
				// costs future memoization. Skipped when the queue already
				// banks results into the same store — one fsync per cell,
				// not two.
				if r.Store != nil && r.Store != r.Queue.Store {
					_ = r.Store.Put(wire.Key, data)
				}
			}
			o.WallS = time.Since(start).Seconds()
			outs[i] = o
			report(o)
		})
		cancels = append(cancels, cancel)
		remoteIdx = append(remoteIdx, i)
	}

	waitCh := make(chan struct{})
	go func() { wg.Wait(); close(waitCh) }()
	select {
	case <-waitCh:
	case <-ctx.Done():
		// Withdraw every cell whose callback has not fired. cancel()
		// returning true transfers outcome ownership to us; false means the
		// callback ran (or is running) and will fill the slot itself.
		for k, c := range cancels {
			if c() {
				i := remoteIdx[k]
				outs[i] = &Outcome{Job: jobs[i], Err: ctx.Err(), Worker: -1}
				wg.Done()
			}
		}
		<-waitCh // in-flight callbacks finish; outs is quiescent after this
	}

	var errs []error
	for _, o := range outs {
		if o != nil && o.Err != nil {
			errs = append(errs, fmt.Errorf("job %d (%s): %w", o.Job.Index, o.Job.Label, o.Err))
		}
	}
	return outs, errors.Join(errs...)
}

// Train implements Trainer by leasing training cells to the worker fleet.
// Per spec, in order: the shared store is consulted first (a warm store
// trains nothing anywhere, same as TrainCell), then the cell is enqueued
// as a WireJob of kind "train" and some worker trains it and pushes the
// snapshot back. The returned agents are restored from snapshot bytes and
// therefore inference-exact — byte-identical downstream results to
// training in-process, which the distributed fig10 identity test pins.
//
// Cancellation withdraws cells no worker has picked up; a training cell a
// worker already holds finishes and its snapshot is banked into the
// queue's store for the next campaign.
func (r *RemoteRunner) Train(ctx context.Context, specs []*TrainSpec) ([]*Trained, error) {
	if r.Queue == nil {
		return r.Local.Train(ctx, specs)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	outs := make([]*Trained, len(specs))
	errs := make([]error, len(specs))
	var (
		wg        sync.WaitGroup
		cancels   []func() bool
		cancelIdx []int
	)
	for i, ts := range specs {
		key, err := ts.Key()
		if err != nil {
			errs[i] = err
			continue
		}
		if r.Store != nil {
			if data, ok := r.Store.Get(key); ok {
				if tr, rerr := restoreTrained(data); rerr == nil {
					tr.CacheHit = true
					outs[i] = tr
					continue
				}
				// Corrupt snapshot: fall through to a fresh remote training
				// that overwrites it.
			}
		}
		wire, err := ts.Wire()
		if err != nil {
			errs[i] = err
			continue
		}
		wire.Campaign = CampaignIDFromContext(ctx) // trace annotation; inert
		wg.Add(1)
		cancel := r.Queue.Enqueue(wire, func(data []byte, qerr error) {
			defer wg.Done()
			if qerr != nil {
				errs[i] = qerr
				return
			}
			tr, rerr := restoreTrained(data)
			if rerr != nil {
				errs[i] = rerr // cannot pass queue validation; belt and braces
				return
			}
			outs[i] = tr
			if r.Store != nil && r.Store != r.Queue.Store {
				_ = r.Store.Put(key, data)
			}
		})
		cancels = append(cancels, cancel)
		cancelIdx = append(cancelIdx, i)
	}

	waitCh := make(chan struct{})
	go func() { wg.Wait(); close(waitCh) }()
	select {
	case <-waitCh:
	case <-ctx.Done():
		for k, c := range cancels {
			if c() {
				errs[cancelIdx[k]] = ctx.Err()
				wg.Done()
			}
		}
		<-waitCh
	}

	var joined []error
	for i, err := range errs {
		if err != nil {
			joined = append(joined, fmt.Errorf("cell %d (%s): %w", i, specs[i].Label, err))
		}
	}
	return outs, errors.Join(joined...)
}
