package campaign

// The worker's module memo: every cell of one module reuses one decoded
// *ir.Module, so the module is decoded, hashed and compiled once per worker
// instead of once per cell, while every cell still recomputes and checks
// its key.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"

	"astro/internal/hw"
	"astro/internal/ir"
	"astro/internal/lang"
	"astro/internal/telemetry"
	"astro/internal/workloads"
)

// compileHits reads the simulator's compiled-program cache hit counter.
func compileHits() uint64 {
	return telemetry.Default.Counter("astro_sim_compile_cache_hits_total", "").Value()
}

// mustWire wires a job or a training spec, failing the test on error.
func mustWire(t *testing.T, wire func() (*WireJob, error)) *WireJob {
	t.Helper()
	wj, err := wire()
	if err != nil {
		t.Fatal(err)
	}
	return wj
}

func TestWorkerModuleMemo(t *testing.T) {
	w := &Worker{}
	jobs, err := (&Spec{Benchmarks: []string{"spin", "matrixmul"}, Schedulers: []string{"default", "gts"}, Seeds: []int64{1}}).Expand()
	if err != nil {
		t.Fatal(err)
	}
	spin, spinGTS, mm := jobs[0], jobs[1], jobs[2]
	if spin.Module != spinGTS.Module || spin.Module == mm.Module {
		t.Fatalf("expanded jobs do not share modules per benchmark: %s, %s, %s", spin.Label, spinGTS.Label, mm.Label)
	}

	t.Run("identical bytes share one module and one compile", func(t *testing.T) {
		a, b := mustWire(t, spin.Wire), mustWire(t, spinGTS.Wire)
		ja, err := a.job(&w.modules)
		if err != nil {
			t.Fatal(err)
		}
		jb, err := b.job(&w.modules)
		if err != nil {
			t.Fatal(err)
		}
		if ja.Module != jb.Module {
			t.Fatal("two cells of one module decoded to distinct *ir.Module")
		}
		if fresh, err := a.Job(); err != nil || fresh.Module == ja.Module {
			t.Fatalf("Job() without a memo returned the memoized module (err %v)", err)
		}
		if _, err := w.executeSim(a); err != nil {
			t.Fatal(err)
		}
		before := compileHits()
		if _, err := w.executeSim(b); err != nil {
			t.Fatal(err)
		}
		if compileHits() == before {
			t.Fatal("the second cell of a memoized module recompiled it")
		}
	})

	t.Run("different bytes give distinct modules", func(t *testing.T) {
		ja, err := mustWire(t, spin.Wire).job(&w.modules)
		if err != nil {
			t.Fatal(err)
		}
		jm, err := mustWire(t, mm.Wire).job(&w.modules)
		if err != nil {
			t.Fatal(err)
		}
		if ja.Module == jm.Module {
			t.Fatal("spin and matrixmul decoded to one module")
		}
		if ja.modHash == jm.modHash {
			t.Fatal("spin and matrixmul share a module hash")
		}
	})

	t.Run("a memo hit still checks the key", func(t *testing.T) {
		tampered := mustWire(t, spin.Wire)
		if _, err := tampered.job(&w.modules); err != nil {
			t.Fatal(err)
		}
		tampered.Key = strings.Repeat("0", 64)
		if _, err := tampered.job(&w.modules); err == nil || !strings.Contains(err.Error(), "key mismatch") {
			t.Fatalf("tampered key on a memo hit: err %v, want a key mismatch", err)
		}
		seedless := mustWire(t, spin.Wire)
		seedless.Seed++
		if _, err := seedless.job(&w.modules); err == nil || !strings.Contains(err.Error(), "key mismatch") {
			t.Fatalf("tampered seed on a memo hit: err %v, want a key mismatch", err)
		}

		train := mustWire(t, trainSpecFor(t, "spin", 5).Wire)
		if _, err := train.trainSpec(&w.modules); err != nil {
			t.Fatal(err)
		}
		train.Key = strings.Repeat("0", 64)
		if _, err := train.trainSpec(&w.modules); err == nil || !strings.Contains(err.Error(), "key mismatch") {
			t.Fatalf("tampered train key on a memo hit: err %v, want a key mismatch", err)
		}
	})

	t.Run("a run encodes each module once", func(t *testing.T) {
		q := NewWorkQueue(time.Minute)
		q.Store = NewMemStore()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ran := make(chan struct{})
		go func() {
			defer close(ran)
			(&RemoteRunner{Queue: q, Store: q.Store}).Run(ctx, jobs, nil) // every cell ends withdrawn
		}()
		var cells []*WireJob
		for deadline := time.Now().Add(10 * time.Second); len(cells) < len(jobs); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("leased %d of %d cells", len(cells), len(jobs))
			}
			cells = append(cells, q.Lease("probe", len(jobs))...)
		}
		cancel()
		<-ran
		byKey := map[string]*WireJob{}
		for _, c := range cells {
			byKey[c.Key] = c
		}
		wired := func(j *Job) []byte {
			key, _ := j.Key()
			return byKey[key].Module
		}
		if &wired(spin)[0] != &wired(spinGTS)[0] {
			t.Fatal("two cells of one module carry separately encoded bytes")
		}
		if &wired(spin)[0] == &wired(mm)[0] {
			t.Fatal("spin and matrixmul share module bytes")
		}
	})

	t.Run("the 65th distinct module evicts the first", func(t *testing.T) {
		var memo moduleMemo
		var first, second *ir.Module
		var blobs [][]byte
		for i := 0; i <= memoCap; i++ {
			mod, err := lang.Compile("memo", fmt.Sprintf("func main() { var x int = %d; }", i))
			if err != nil {
				t.Fatal(err)
			}
			blob := ir.Encode(mod)
			blobs = append(blobs, blob)
			got, _, err := memo.decode(blob)
			if err != nil {
				t.Fatal(err)
			}
			switch i {
			case 0:
				first = got
			case 1:
				second = got
			}
		}
		if len(memo.m) != memoCap || len(memo.order) != memoCap {
			t.Fatalf("memo holds %d entries (%d in order), want %d", len(memo.m), len(memo.order), memoCap)
		}
		if got, _, _ := memo.decode(blobs[1]); got != second {
			t.Fatal("the second module was evicted before the first")
		}
		if got, _, _ := memo.decode(blobs[0]); got == first {
			t.Fatal("the first module survived the 65th")
		}
	})

	// The memo keys by sha256(bytes) and stores ModuleHash of the decode;
	// for canonical bytes the two are one hash.
	t.Run("the memo's hash is sha256 of the module bytes", func(t *testing.T) {
		var memo moduleMemo
		for _, s := range workloads.All() {
			m, err := s.Compile()
			if err != nil {
				t.Fatal(err)
			}
			blob := ir.Encode(m)
			sum := sha256.Sum256(blob)
			want := hex.EncodeToString(sum[:])
			if got := ModuleHash(m); got != want {
				t.Errorf("%s: ModuleHash = %s, sha256(ir.Encode) = %s", s.Name, got, want)
			}
			if _, got, err := memo.decode(blob); err != nil || got != want {
				t.Errorf("%s: memo hash = %s (err %v), want %s", s.Name, got, err, want)
			}
		}
	})
}

// TestWorkerSharedModuleByteIdentity runs one module's six cells (three
// machines × {default, gts}, the shape of a scenario grid row) plus an
// agent-keyed hybrid pair through one worker with four executors, so the
// executors decode and compile shared modules concurrently. The outcomes
// must be byte-identical to the in-process pool's. CI runs it under -race.
func TestWorkerSharedModuleByteIdentity(t *testing.T) {
	plats := append(hw.PlatformNames(), hw.DefaultZooParams().String())
	if len(plats) != 3 {
		t.Fatalf("want three machines, have %v", plats)
	}
	spec := Spec{Benchmarks: []string{"spin"}, Platforms: plats, Schedulers: []string{"default", "gts"}, Seeds: []int64{3}}
	cells := fig10StyleCells(t, []string{"spin"})
	hybridJobs := func(agents ResultStore) []*Job {
		jobs, err := spec.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if len(jobs) != 6 {
			t.Fatalf("spec expands to %d cells, want 6", len(jobs))
		}
		for _, j := range fig10StyleJobs(t, cells, 2, agents) {
			if j.AgentKey != "" {
				j.Index = len(jobs)
				jobs = append(jobs, j)
			}
		}
		if len(jobs) != 8 {
			t.Fatalf("%d jobs, want 6 + a hybrid pair", len(jobs))
		}
		return jobs
	}

	poolStore := NewMemStore()
	pool := &Pool{Workers: 4, Store: poolStore}
	if _, err := pool.Train(context.Background(), []*TrainSpec{cells[0].spec}); err != nil {
		t.Fatal(err)
	}
	want, err := pool.Run(context.Background(), hybridJobs(poolStore), nil)
	if err != nil {
		t.Fatal(err)
	}

	store := NewMemStore()
	q := NewWorkQueue(time.Minute)
	q.Store = store
	srv := startCoordinator(t, q, store)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{Coordinator: srv.URL + "/work", ID: "memo", Max: 4, Parallel: 4, Poll: 2 * time.Millisecond}
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	runner := &RemoteRunner{Queue: q, Store: store}
	if _, err := runner.Train(context.Background(), []*TrainSpec{cells[0].spec}); err != nil {
		t.Fatal(err)
	}
	got, err := runner.Run(context.Background(), hybridJobs(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	if fw, fg := Fingerprint(want), Fingerprint(got); fw != fg {
		t.Fatalf("worker fingerprint %s != pool %s", fg, fw)
	}
	for i := range want {
		if string(want[i].Bytes) != string(got[i].Bytes) {
			t.Fatalf("cell %d (%s): worker bytes differ from the pool's", i, want[i].Job.Label)
		}
	}
	// spin, its learning binary and its hybrid binary: three modules.
	if n := len(w.modules.m); n != 3 {
		t.Fatalf("worker memo holds %d modules, want 3", n)
	}
}

// BenchmarkWireJobDecode measures a worker turning one leased simulation
// cell (freqmine at small scale) back into a keyed Job: "cold" decodes and
// hashes the module into an empty memo, "hit" finds it memoized and pays
// only the SHA-256 of the bytes and the key check. Recorded, not gated.
func BenchmarkWireJobDecode(b *testing.B) {
	jobs, err := (&Spec{Benchmarks: []string{"freqmine"}, Seeds: []int64{1}}).Expand()
	if err != nil {
		b.Fatal(err)
	}
	wj, err := jobs[0].Wire()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var memo moduleMemo
			if _, err := wj.job(&memo); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		var memo moduleMemo
		if _, err := wj.job(&memo); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for b.Loop() {
			if _, err := wj.job(&memo); err != nil {
				b.Fatal(err)
			}
		}
	})
}
