package campaign

// Distributed-training and hybrid-by-agent-key tests: the fig10-style
// acceptance path (train cells + agent-keyed hybrid sampling leased to
// workers over real HTTP, byte-identical to in-process execution) and the
// lease-renewal protocol that lets training cells outrun the TTL.

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"astro/internal/features"
	"astro/internal/instrument"
	"astro/internal/ir"
	"astro/internal/rl"
	"astro/internal/sim"
	"astro/internal/workloads"
)

// fig10Cell bundles one benchmark's artifacts for a fig10-style matrix:
// the training recipe plus the plain and hybrid-instrumented modules.
type fig10Cell struct {
	name   string
	spec   *TrainSpec
	plain  *ir.Module
	hybrid *ir.Module
	args   []int64
}

// fig10StyleCells builds the paper-shaped work: per benchmark, a training
// cell and the modules its treatments sample.
func fig10StyleCells(t testing.TB, benchmarks []string) []*fig10Cell {
	t.Helper()
	cells := make([]*fig10Cell, 0, len(benchmarks))
	for _, name := range benchmarks {
		spec, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("workload %s not registered", name)
		}
		mod, err := spec.Compile()
		if err != nil {
			t.Fatal(err)
		}
		mi := features.AnalyzeModule(mod, features.Options{})
		learn, err := instrument.ForLearning(mod, mi)
		if err != nil {
			t.Fatal(err)
		}
		hyb, err := instrument.ForHybrid(mod, mi)
		if err != nil {
			t.Fatal(err)
		}
		opts := sim.Options{CheckpointS: 200e-6, QuantumS: 50e-6, TickS: 100e-6}
		cells = append(cells, &fig10Cell{
			name: name,
			spec: &TrainSpec{
				Label:    "dfig10/train/" + name,
				Module:   learn,
				OS:       "gts",
				Agent:    "dqn",
				DQN:      rl.DQNConfig{Seed: 301, LR: 0.05},
				Episodes: 2,
				Seed:     41,
				Args:     spec.SmallArgs(),
				Opts:     opts,
			},
			plain:  mod,
			hybrid: hyb,
			args:   spec.SmallArgs(),
		})
	}
	return cells
}

// fig10StyleJobs expands the cells into the sampling batch: per benchmark,
// GTS samples on the plain module and hybrid samples keyed to the trained
// agent's snapshot. agents supplies the snapshot store for in-process
// execution; remote legs leave it nil (workers fetch from the coordinator).
func fig10StyleJobs(t testing.TB, cells []*fig10Cell, samples int, agents ResultStore) []*Job {
	t.Helper()
	var jobs []*Job
	for _, c := range cells {
		agentKey, err := c.spec.Key()
		if err != nil {
			t.Fatal(err)
		}
		add := func(kind string, mod *ir.Module, hybrid bool) {
			for s := 0; s < samples; s++ {
				j := &Job{
					Index:     len(jobs),
					Label:     fmt.Sprintf("dfig10/%s/%s/sample%d", c.name, kind, s),
					Benchmark: c.name,
					Module:    mod,
					OS:        "gts",
					Seed:      int64(9000 + 97*s),
					Args:      c.args,
					Opts:      sim.Options{CheckpointS: 200e-6, QuantumS: 50e-6, TickS: 100e-6},
				}
				if hybrid {
					j.AgentKey = agentKey
					j.Agents = agents
				}
				jobs = append(jobs, j)
			}
		}
		add("gts", c.plain, false)
		add("hybrid", c.hybrid, true)
	}
	return jobs
}

// TestDistributedFig10ByteIdentity pins the acceptance criterion end to
// end: a fig10-style matrix — training cells plus GTS and
// hybrid-by-agent-key samples — executed (a) in-process and (b) through
// two pull-based workers over loopback HTTP produces byte-identical
// fingerprints, with zero coordinator-local simulations or trainings on
// the cold distributed run and zero fresh work of either kind on the warm
// re-run.
func TestDistributedFig10ByteIdentity(t *testing.T) {
	benchmarks := []string{"spin", "matrixmul"}
	const samples = 2

	// Leg A: in-process (the pool is both Runner and Trainer).
	cellsA := fig10StyleCells(t, benchmarks)
	storeA := NewMemStore()
	pool := &Pool{Workers: 2, Store: storeA}
	specsA := make([]*TrainSpec, len(cellsA))
	for i, c := range cellsA {
		specsA[i] = c.spec
	}
	trainedA, err := pool.Train(context.Background(), specsA)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range trainedA {
		if tr.CacheHit {
			t.Fatalf("cold in-process training %d claims a cache hit", i)
		}
	}
	outsA, err := pool.Run(context.Background(), fig10StyleJobs(t, cellsA, samples, storeA), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Leg B: coordinator + two workers over HTTP.
	cellsB := fig10StyleCells(t, benchmarks)
	storeB := NewMemStore()
	q := NewWorkQueue(time.Minute)
	q.Store = storeB
	srv := startCoordinator(t, q, storeB)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, id := range []string{"fleet-a", "fleet-b"} {
		w := &Worker{Coordinator: srv.URL + "/work", ID: id, Max: 1, Poll: 2 * time.Millisecond}
		go w.Run(ctx)
	}
	runner := &RemoteRunner{Queue: q, Store: storeB, Local: Pool{Workers: 1, Store: storeB}}

	specsB := make([]*TrainSpec, len(cellsB))
	for i, c := range cellsB {
		specsB[i] = c.spec
	}
	trainedB, err := runner.Train(context.Background(), specsB)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range trainedB {
		if tr.CacheHit {
			t.Fatalf("cold distributed training %d claims a cache hit", i)
		}
		if a, b := agentFingerprint(t, trainedA[i].Agent), agentFingerprint(t, tr.Agent); string(a) != string(b) {
			t.Fatalf("training cell %d: remote agent is not inference-identical to in-process", i)
		}
	}
	jobsB := fig10StyleJobs(t, cellsB, samples, nil)
	outsB, err := runner.Run(context.Background(), jobsB, nil)
	if err != nil {
		t.Fatal(err)
	}

	if fa, fb := Fingerprint(outsA), Fingerprint(outsB); fa != fb {
		t.Fatalf("distributed fingerprint %s != in-process %s", fb, fa)
	}
	if hits := CacheHits(outsB); hits != 0 {
		t.Fatalf("cold distributed run claims %d cache hits", hits)
	}
	st := q.Stats()
	wantDone := len(specsB) + len(jobsB)
	if st.Done != wantDone {
		t.Fatalf("queue completed %d cells, want %d (train %d + sim %d)", st.Done, wantDone, len(specsB), len(jobsB))
	}
	completed := 0
	for _, w := range st.Workers {
		completed += w.Completed
	}
	if completed != wantDone {
		t.Fatalf("workers completed %d cells, want %d", completed, wantDone)
	}

	// Warm re-run: everything — training cells included — is served from
	// the shared store; nothing is leased and nothing is stored afresh.
	_, _, putsBefore := storeB.Stats()
	warmTrained, err := runner.Train(context.Background(), fig10SpecsOf(t, benchmarks))
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range warmTrained {
		if !tr.CacheHit {
			t.Fatalf("warm training cell %d was re-trained", i)
		}
	}
	warmOuts, err := runner.Run(context.Background(), fig10StyleJobs(t, fig10StyleCells(t, benchmarks), samples, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if hits := CacheHits(warmOuts); hits != len(warmOuts) {
		t.Fatalf("warm re-run: %d/%d cache hits", hits, len(warmOuts))
	}
	if fw := Fingerprint(warmOuts); fw != Fingerprint(outsA) {
		t.Fatalf("warm fingerprint diverged")
	}
	if _, _, putsAfter := storeB.Stats(); putsAfter != putsBefore {
		t.Fatalf("warm re-run wrote %d fresh results", putsAfter-putsBefore)
	}
	if st := q.Stats(); st.Done != wantDone {
		t.Fatalf("warm re-run enqueued fresh cells: done %d, want %d", st.Done, wantDone)
	}
}

// fig10SpecsOf rebuilds just the training specs (fresh modules, same
// keys), so warm-path calls cannot share pointers with the cold run.
func fig10SpecsOf(t *testing.T, benchmarks []string) []*TrainSpec {
	t.Helper()
	cells := fig10StyleCells(t, benchmarks)
	specs := make([]*TrainSpec, len(cells))
	for i, c := range cells {
		specs[i] = c.spec
	}
	return specs
}

// TestTrainLeaseRenewalKeepsLongCellAlive pins the acceptance criterion's
// renewal half with real clocks: a training cell whose runtime exceeds the
// lease TTL several times over survives on one worker because its
// heartbeat renews the lease — the queue never re-issues the cell, and the
// waiter receives the snapshot from the original holder.
func TestTrainLeaseRenewalKeepsLongCellAlive(t *testing.T) {
	const ttl = 300 * time.Millisecond
	ts := trainSpecFor(t, "spin", 77)
	ts.Episodes = 400 // runs several TTLs long, yet fast enough for CI

	store := NewMemStore()
	q := NewWorkQueue(ttl)
	q.Store = store
	srv := startCoordinator(t, q, store)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{
		Coordinator: srv.URL + "/work",
		ID:          "long-hauler",
		Max:         1,
		Poll:        2 * time.Millisecond,
		Renew:       30 * time.Millisecond,
	}
	go w.Run(ctx)

	runner := &RemoteRunner{Queue: q, Store: store}
	start := time.Now()
	trained, err := runner.Train(context.Background(), []*TrainSpec{ts})
	if err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall <= ttl {
		t.Fatalf("training finished in %v, inside the %v TTL — the test no longer exercises renewal; raise Episodes", wall, ttl)
	}
	if trained[0] == nil || trained[0].Agent == nil {
		t.Fatal("no trained agent returned")
	}
	st := q.Stats()
	if st.Requeues != 0 {
		t.Fatalf("lease was re-issued %d times despite renewal", st.Requeues)
	}
	if st.Renewals == 0 {
		t.Fatal("no renewals recorded — heartbeat never reached the queue")
	}
	if st.Done != 1 {
		t.Fatalf("queue done = %d, want 1", st.Done)
	}
}

// TestDeprecatedHybridRefused pins that the deprecated Hybrid factory is
// never executed: on the in-process pool and on the remote runner a job
// that sets it finishes as an error outcome at its own index, is never
// leased, and leaves no store entry, while its neighbours run normally.
func TestDeprecatedHybridRefused(t *testing.T) {
	factoryJobs := func() []*Job {
		jobs := fig10StyleJobs(t, fig10StyleCells(t, []string{"spin"}), 1, nil)[:1]
		factory := *jobs[0]
		factory.Index = 1
		factory.Hybrid = func() sim.HybridPolicy { return nil }
		return append(jobs, &factory)
	}
	check := func(leg string, outs []*Outcome, err error, store *ShardedStore) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "AgentKey") {
			t.Fatalf("%s: batch error %v, want the factory refused with a pointer to AgentKey", leg, err)
		}
		if outs[0].Err != nil {
			t.Fatalf("%s: plain job failed beside the refused one: %v", leg, outs[0].Err)
		}
		if outs[1].Err == nil || outs[1].Result != nil {
			t.Fatalf("%s: factory job ran: %+v", leg, outs[1])
		}
		if n := store.Len(); n != 1 {
			t.Fatalf("%s: store holds %d entries, want only the plain job's", leg, n)
		}
	}

	poolStore := NewMemStore()
	outs, err := (&Pool{Workers: 2, Store: poolStore}).Run(context.Background(), factoryJobs(), nil)
	check("pool", outs, err, poolStore)

	store := NewMemStore()
	q := NewWorkQueue(time.Minute)
	q.Store = store
	srv := startCoordinator(t, q, store)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{Coordinator: srv.URL + "/work", ID: "wire-only", Max: 2, Poll: 2 * time.Millisecond}
	go w.Run(ctx)
	localStore := NewMemStore()
	runner := &RemoteRunner{Queue: q, Store: store, Local: Pool{Workers: 1, Store: localStore}}
	outs, err = runner.Run(context.Background(), factoryJobs(), nil)
	check("remote", outs, err, store)
	if st := q.Stats(); st.Done != 1 || st.Pending != 0 || st.Leased != 0 {
		t.Fatalf("queue saw the refused job: %+v", st)
	}
	if n := localStore.Len(); n != 0 {
		t.Fatalf("coordinator-local pool ran %d jobs", n)
	}
}

// TestAgentKeyWithoutSnapshotFails pins the loud failure fig10 relies on:
// an agent-keyed job whose store lacks the snapshot fails on both runners
// with an error naming the key, and never runs as a plain simulation.
func TestAgentKeyWithoutSnapshotFails(t *testing.T) {
	cells := fig10StyleCells(t, []string{"spin"})
	agentKey, err := cells[0].spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	check := func(leg string, outs []*Outcome, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: hybrid job without a snapshot succeeded", leg)
		}
		for _, o := range outs {
			if o.Job.AgentKey == "" {
				if o.Err != nil {
					t.Fatalf("%s: plain job failed: %v", leg, o.Err)
				}
				continue
			}
			if o.Err == nil || !strings.Contains(o.Err.Error(), "no trained-agent snapshot under "+agentKey) {
				t.Fatalf("%s: hybrid job error %v, want one naming snapshot %s", leg, o.Err, agentKey)
			}
		}
	}

	outs, err := (&Pool{Workers: 1, Store: NewMemStore()}).Run(context.Background(), fig10StyleJobs(t, cells, 1, nil), nil)
	check("pool", outs, err)

	store := NewMemStore()
	q := NewWorkQueue(time.Minute)
	q.Store = store
	q.SetMaxAttempts(1)
	srv := startCoordinator(t, q, store)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{Coordinator: srv.URL + "/work", ID: "no-agents", Max: 1, Poll: 2 * time.Millisecond}
	go w.Run(ctx)
	runner := &RemoteRunner{Queue: q, Store: store}
	outs, err = runner.Run(context.Background(), fig10StyleJobs(t, fig10StyleCells(t, []string{"spin"}), 1, nil), nil)
	check("remote", outs, err)
}
