// Package campaign_test holds the cross-package distributed-execution
// tests: they generate work with internal/scenario (which itself depends on
// campaign), so they live in the external test package.
package campaign_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"astro/internal/campaign"
	"astro/internal/scenario"
)

// sixtyCellMatrix is the grid the acceptance criterion names: a generated
// 60-cell scenario matrix (5 synthesized programs × 3 schedulers × 2
// configs × 2 seeds on the default platform).
func sixtyCellMatrix() scenario.Matrix {
	return scenario.Matrix{
		Name:         "remote-60",
		ProgramCount: 5,
		ProgramSeed:  7,
		Schedulers:   []string{"default", "gts", "octopus-man"},
		Configs:      []string{"1L1B", "all-on"},
		Seeds:        []int64{0, 1},
	}
}

// expand compiles the matrix to its job list (single batch).
func expandMatrix(t *testing.T, m scenario.Matrix) []*campaign.Job {
	t.Helper()
	specs, err := m.Campaigns()
	if err != nil {
		t.Fatal(err)
	}
	var jobs []*campaign.Job
	for _, sp := range specs {
		batch, err := sp.Expand()
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, batch...)
	}
	return jobs
}

// TestRemoteByteIdentity pins the distributed contract end to end: the same
// generated 60-cell matrix executed (a) on the in-process pool and (b)
// through two pull-based workers over real loopback HTTP produces
// byte-identical fingerprints and equally sized stores, and a warm
// re-run through the workers performs zero fresh simulations anywhere.
func TestRemoteByteIdentity(t *testing.T) {
	m := sixtyCellMatrix()
	if got := m.Cells(); got != 60 {
		t.Fatalf("matrix expands to %d cells, want 60", got)
	}

	// Leg A: in-process pool.
	jobsA := expandMatrix(t, m)
	if len(jobsA) != 60 {
		t.Fatalf("expanded to %d jobs, want 60", len(jobsA))
	}
	poolStore := campaign.NewMemStore()
	pool := &campaign.Pool{Workers: 4, Store: poolStore}
	outsA, err := pool.Run(context.Background(), jobsA, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Leg B: coordinator + two workers over HTTP.
	remoteStore := campaign.NewMemStore()
	q := campaign.NewWorkQueue(time.Minute)
	q.Store = remoteStore
	srv := httptest.NewServer(http.StripPrefix("/work", campaign.WorkHandler(q, remoteStore)))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		w := &campaign.Worker{
			Coordinator: srv.URL + "/work",
			ID:          []string{"worker-a", "worker-b"}[i],
			Max:         2,
			Poll:        5 * time.Millisecond,
		}
		go w.Run(ctx)
	}
	// ShipPrograms is set the way older callers still set it: the field is
	// deprecated and must change nothing, so the shared store ends up
	// holding exactly the 60 results and no program artifacts beside them.
	runner := &campaign.RemoteRunner{Queue: q, Store: remoteStore, ShipPrograms: true}
	jobsB := expandMatrix(t, m)
	outsB, err := runner.Run(context.Background(), jobsB, nil)
	if err != nil {
		t.Fatal(err)
	}

	fa, fb := campaign.Fingerprint(outsA), campaign.Fingerprint(outsB)
	if fa != fb {
		t.Fatalf("distributed fingerprint %s != in-process %s", fb, fa)
	}
	if hits := campaign.CacheHits(outsB); hits != 0 {
		t.Fatalf("cold distributed run claims %d cache hits", hits)
	}
	if got, want := remoteStore.Len(), poolStore.Len(); got != want {
		t.Fatalf("coordinator store holds %d entries, in-process store %d: only results belong there", got, want)
	}
	// Both workers should have participated (60 cells, 2-cell leases).
	st := q.Stats()
	if len(st.Workers) != 2 {
		t.Fatalf("expected 2 workers in status, got %+v", st.Workers)
	}
	total := 0
	for _, w := range st.Workers {
		total += w.Completed
	}
	if total != 60 || st.Done != 60 {
		t.Fatalf("workers completed %d cells, queue done %d; want 60/60", total, st.Done)
	}

	// Warm re-run through the same runner: everything is served from the
	// shared store — zero fresh simulations, nothing new leased or done.
	_, _, putsBefore := remoteStore.Stats()
	outsWarm, err := runner.Run(context.Background(), expandMatrix(t, m), nil)
	if err != nil {
		t.Fatal(err)
	}
	if hits := campaign.CacheHits(outsWarm); hits != 60 {
		t.Fatalf("warm re-run: %d/60 cache hits", hits)
	}
	if fw := campaign.Fingerprint(outsWarm); fw != fa {
		t.Fatalf("warm fingerprint %s != cold %s", fw, fa)
	}
	if _, _, putsAfter := remoteStore.Stats(); putsAfter != putsBefore {
		t.Fatalf("warm re-run wrote %d fresh results", putsAfter-putsBefore)
	}
	if st := q.Stats(); st.Done != 60 {
		t.Fatalf("warm re-run enqueued fresh cells: queue done %d", st.Done)
	}
}

// TestRemoteRunnerCancellation withdraws queued cells of both kinds when
// the context dies: no worker is running, so every cell is still pending
// and each run returns promptly with ctx's error at every index instead
// of hanging, leaving the queue empty.
func TestRemoteRunnerCancellation(t *testing.T) {
	m := sixtyCellMatrix()
	jobs := expandMatrix(t, m)
	store := campaign.NewMemStore()
	q := campaign.NewWorkQueue(time.Minute)
	q.Store = store
	runner := &campaign.RemoteRunner{Queue: q, Store: store}
	cancelSoon := func() context.Context {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(50 * time.Millisecond)
			cancel()
		}()
		return ctx
	}
	checkQueue := func(leg string) {
		t.Helper()
		if st := q.Stats(); st.Pending != 0 || st.Leased != 0 {
			t.Fatalf("%s: cancelled run left %d cells pending, %d leased", leg, st.Pending, st.Leased)
		}
	}

	start := time.Now()
	outs, err := runner.Run(cancelSoon(), jobs, nil)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation did not unblock the run")
	}
	if len(outs) != len(jobs) {
		t.Fatalf("cancelled run returned %d outcomes for %d jobs", len(outs), len(jobs))
	}
	for i, o := range outs {
		if o == nil {
			t.Fatalf("job %d has no outcome after cancellation", i)
		}
		if !errors.Is(o.Err, context.Canceled) {
			t.Fatalf("job %d: error %v, want context.Canceled", i, o.Err)
		}
	}
	checkQueue("run")

	// Train leg: the same withdrawal through the shared lease path. The
	// specs never execute, so any module wires.
	specs := make([]*campaign.TrainSpec, 4)
	for i := range specs {
		specs[i] = &campaign.TrainSpec{Label: fmt.Sprintf("train/%d", i), Module: jobs[0].Module, Seed: int64(i)}
	}
	start = time.Now()
	trained, err := runner.Train(cancelSoon(), specs)
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation did not unblock the training run")
	}
	if err == nil {
		t.Fatal("cancelled training returned nil error")
	}
	for i, ts := range specs {
		if trained[i] != nil {
			t.Fatalf("cell %d trained after cancellation", i)
		}
		if want := fmt.Sprintf("cell %d (%s): %v", i, ts.Label, context.Canceled); !strings.Contains(err.Error(), want) {
			t.Fatalf("training error %q lacks %q", err, want)
		}
	}
	checkQueue("train")
	if store.Len() != 0 {
		t.Fatalf("cancelled runs banked %d entries", store.Len())
	}
}
