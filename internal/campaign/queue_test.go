package campaign

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"astro/internal/sim"
)

// wireJobs expands a small spec and wires every job, returning the wire
// forms plus valid canonical result bytes for the first job (executed
// once, so tests can submit real results).
func wireJobs(t *testing.T, n int) []*WireJob {
	t.Helper()
	spec := Spec{
		Benchmarks: []string{"micro"},
		Schedulers: []string{"default"},
		Seeds:      []int64{11},
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) < n {
		t.Fatalf("spec expands to %d jobs, need %d", len(jobs), n)
	}
	wires := make([]*WireJob, n)
	for i := 0; i < n; i++ {
		w, err := jobs[i].Wire()
		if err != nil {
			t.Fatal(err)
		}
		wires[i] = w
	}
	return wires
}

// validResult executes the wire job for real and returns canonical bytes.
func validResult(t *testing.T, w *WireJob) []byte {
	t.Helper()
	j, err := w.Job()
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Execute()
	if err != nil {
		t.Fatal(err)
	}
	data, err := sim.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// fakeClock pins a queue to manual time.
func fakeClock(q *WorkQueue) *time.Time {
	now := time.Unix(1_000_000, 0)
	q.now = func() time.Time { return now }
	return &now
}

func TestWireJobRoundTrip(t *testing.T) {
	w := wireJobs(t, 1)[0]
	j, err := w.Job()
	if err != nil {
		t.Fatal(err)
	}
	key, ok := j.Key()
	if !ok || key != w.Key {
		t.Fatalf("round-tripped key %q (cacheable=%v) != wire key %q", key, ok, w.Key)
	}
	// Tampering with any field must be detected by the key check.
	w2 := *w
	w2.Seed++
	if _, err := w2.Job(); err == nil || !strings.Contains(err.Error(), "key mismatch") {
		t.Fatalf("tampered wire job accepted: %v", err)
	}
}

// wireTrainCell builds a training lease for the queue tests.
func wireTrainCell(t *testing.T, seed int64) *WireJob {
	t.Helper()
	w, err := trainSpecFor(t, "spin", seed).Wire()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWireTrainRoundTrip(t *testing.T) {
	w := wireTrainCell(t, 31)
	ts, err := w.TrainSpec()
	if err != nil {
		t.Fatal(err)
	}
	key, err := ts.Key()
	if err != nil || key != w.Key {
		t.Fatalf("round-tripped key %q (err %v) != wire key %q", key, err, w.Key)
	}
	// Tampering with the recipe must be detected by the key check.
	w2 := *w
	train := *w2.Train
	train.Episodes++
	w2.Train = &train
	if _, err := w2.TrainSpec(); err == nil || !strings.Contains(err.Error(), "key mismatch") {
		t.Fatalf("tampered wire train cell accepted: %v", err)
	}
	// A training cell is not a simulation job and vice versa.
	if _, err := w.Job(); err == nil {
		t.Fatal("train cell decoded as a simulation job")
	}
	if _, err := wireJobs(t, 1)[0].TrainSpec(); err == nil {
		t.Fatal("simulation cell decoded as a train spec")
	}
}

// TestTrainResultValidatedAsSnapshot pins the per-kind validation: a
// canonical (zero) sim result must not complete a training cell — only a
// restorable trained-agent snapshot may.
func TestTrainResultValidatedAsSnapshot(t *testing.T) {
	q := NewWorkQueue(time.Minute)
	fakeClock(q)
	w := wireTrainCell(t, 33)
	var calls atomic.Int32
	q.Enqueue(w, func(data []byte, err error) {
		calls.Add(1)
		if err != nil {
			t.Errorf("waiter got error: %v", err)
		}
	})
	q.Lease("w1", 1)
	// The zero result passes sim.DecodeResult but is not a snapshot.
	zero, err := sim.EncodeResult(&sim.Result{})
	if err != nil {
		t.Fatal(err)
	}
	if st := q.Complete("w1", w.Key, zero, ""); st != CompleteRejected {
		t.Fatalf("non-snapshot bytes: %v (want rejected)", st)
	}
	if calls.Load() != 0 {
		t.Fatal("waiter saw non-snapshot bytes")
	}
	// The cell re-queued; a real snapshot completes it.
	if cells := q.Lease("w2", 1); len(cells) != 1 {
		t.Fatal("rejected train cell not re-queued")
	}
	ts, err := w.TrainSpec()
	if err != nil {
		t.Fatal(err)
	}
	store := NewMemStore()
	if _, err := TrainCell(store, ts); err != nil {
		t.Fatal(err)
	}
	snap, ok := store.Get(w.Key)
	if !ok {
		t.Fatal("training did not bank a snapshot")
	}
	if st := q.Complete("w2", w.Key, snap, ""); st != CompleteAccepted {
		t.Fatalf("valid snapshot: %v", st)
	}
	if calls.Load() != 1 {
		t.Fatalf("waiter invoked %d times", calls.Load())
	}
}

// outOfRangeSnapshots are training results whose sizes made the agent
// constructors panic (or, for the tabular one, fail fatally in the
// runtime) inside validateWireResult before rl.Snapshot.Restore checked
// shapes. They also seed testdata/fuzz/FuzzDecodeSnapshot.
var outOfRangeSnapshots = map[string]string{
	"negative-configs": `{"agent":{"kind":"dqn","n_configs":-1,"eps":0,"dqn_config":{}},"visits":null,"stats":null}`,
	"negative-hidden":  `{"agent":{"kind":"dqn","n_configs":2,"eps":0,"dqn_config":{"Hidden":-5}},"visits":null,"stats":null}`,
	"huge-tabular":     `{"agent":{"kind":"tabular","n_configs":3037000500,"eps":0},"visits":null,"stats":null}`,
}

// TestOutOfRangeSnapshotRejected: validateWireResult refuses each
// out-of-range snapshot, and a queue handed one as a training cell's
// result rejects it and keeps serving — it runs with the queue lock held,
// so a panic there would wedge every later Lease.
func TestOutOfRangeSnapshotRejected(t *testing.T) {
	for name, data := range outOfRangeSnapshots {
		t.Run(name, func(t *testing.T) {
			if err := validateWireResult(KindTrain, []byte(data)); err == nil {
				t.Fatal("out-of-range snapshot accepted")
			}
			q := NewWorkQueue(time.Minute)
			fakeClock(q)
			w := wireTrainCell(t, 33)
			q.Enqueue(w, func([]byte, error) {})
			q.Lease("w1", 1)
			if st := q.Complete("w1", w.Key, []byte(data), ""); st != CompleteRejected {
				t.Fatalf("out-of-range snapshot: %v (want rejected)", st)
			}
			if cells := q.Lease("w2", 1); len(cells) != 1 || cells[0].Key != w.Key {
				t.Fatal("rejected train cell not re-queued")
			}
		})
	}
}

// TestNonCanonicalResultRejected pins invariant 5 at the queue: a
// submission that decodes but is not byte-for-byte canonical — the
// canonical result wrapped in whitespace, or carrying an unknown field —
// is rejected on the held-cell path and never banked on the unknown-key
// path, for simulation and training cells alike. Neither the waiter nor
// the store ever sees the bytes.
func TestNonCanonicalResultRejected(t *testing.T) {
	simCell := wireJobs(t, 1)[0]
	trainCell := wireTrainCell(t, 35)
	ts, err := trainCell.TrainSpec()
	if err != nil {
		t.Fatal(err)
	}
	trained := NewMemStore()
	if _, err := TrainCell(trained, ts); err != nil {
		t.Fatal(err)
	}
	snap, ok := trained.Get(trainCell.Key)
	if !ok {
		t.Fatal("training did not bank a snapshot")
	}
	for _, kind := range []struct {
		name  string
		cell  *WireJob
		canon []byte
	}{
		{"sim", simCell, validResult(t, simCell)},
		{"train", trainCell, snap},
	} {
		for _, mut := range []struct {
			name string
			data []byte
		}{
			{"whitespace", append(append([]byte(" \n"), kind.canon...), '\n')},
			{"unknown-field", append([]byte(`{"zz":1,`), kind.canon[1:]...)},
		} {
			t.Run(kind.name+"/"+mut.name, func(t *testing.T) {
				if err := validateWireResult(kind.cell.Kind, kind.canon); err != nil {
					t.Fatalf("canonical bytes rejected: %v", err)
				}
				store := NewMemStore()
				q := NewWorkQueue(time.Minute)
				fakeClock(q)
				q.Store = store
				var calls atomic.Int32
				q.Enqueue(kind.cell, func([]byte, error) { calls.Add(1) })
				q.Lease("w1", 1)
				if st := q.Complete("w1", kind.cell.Key, mut.data, ""); st != CompleteRejected {
					t.Fatalf("held cell: %v (want rejected)", st)
				}
				if calls.Load() != 0 {
					t.Fatal("waiter saw non-canonical bytes")
				}
				if _, ok := store.Get(kind.cell.Key); ok {
					t.Fatal("held cell: non-canonical bytes banked")
				}

				// The unknown-key banking path applies the same check.
				bank := NewMemStore()
				q2 := NewWorkQueue(time.Minute)
				q2.Store = bank
				if st := q2.Complete("w1", kind.cell.Key, mut.data, ""); st != CompleteUnknown {
					t.Fatalf("unknown key: %v", st)
				}
				if _, ok := bank.Get(kind.cell.Key); ok {
					t.Fatal("unknown key: non-canonical bytes banked")
				}
				q2.Complete("w1", kind.cell.Key, kind.canon, "")
				if got, ok := bank.Get(kind.cell.Key); !ok || !bytes.Equal(got, kind.canon) {
					t.Fatal("unknown key: canonical bytes not banked")
				}
			})
		}
	}
}

// TestRenewExtendsExactlyOneLease pins the renewal races: renewal extends
// only the named lease — the worker's other cell expires on schedule — and
// a renewal from a worker that does not hold the lease changes nothing.
func TestRenewExtendsExactlyOneLease(t *testing.T) {
	q := NewWorkQueue(time.Minute)
	now := fakeClock(q)
	ws := wireJobs(t, 2)
	q.Enqueue(ws[0], func([]byte, error) {})
	q.Enqueue(ws[1], func([]byte, error) {})
	if cells := q.Lease("w1", 2); len(cells) != 2 {
		t.Fatalf("leased %d cells, want 2", len(cells))
	}
	// A stranger's renewal is rejected outright — and does not register the
	// stranger as a worker in /work/status.
	if renewed := q.Renew("impostor", []string{ws[0].Key}); len(renewed) != 0 {
		t.Fatalf("impostor renewed %v", renewed)
	}
	for _, w := range q.Stats().Workers {
		if w.ID == "impostor" {
			t.Fatal("impostor renewal minted a worker-status row")
		}
	}
	// Half a TTL in, w1 renews only its first cell.
	*now = now.Add(30 * time.Second)
	if renewed := q.Renew("w1", []string{ws[0].Key}); len(renewed) != 1 || renewed[0] != ws[0].Key {
		t.Fatalf("renewed %v, want exactly %s", renewed, ws[0].Key)
	}
	// Past the original expiry: the renewed cell is still held, the
	// unrenewed one has been re-issued.
	*now = now.Add(45 * time.Second)
	reissued := q.Lease("w2", 2)
	if len(reissued) != 1 || reissued[0].Key != ws[1].Key {
		t.Fatalf("re-issue after partial renewal: got %d cells", len(reissued))
	}
	st := q.Stats()
	if st.Leased != 2 || st.Requeues != 1 || st.Renewals != 1 {
		t.Fatalf("stats after partial renewal: %+v", st)
	}
}

// TestRenewAfterExpiryRejected pins the other race: once a training
// cell's lease expires, its renewal is refused and the cell is already
// waiting at the *front* of the queue, ahead of older pending work.
func TestRenewAfterExpiryRejected(t *testing.T) {
	q := NewWorkQueue(time.Minute)
	now := fakeClock(q)
	train := wireTrainCell(t, 35)
	q.Enqueue(train, func([]byte, error) {})
	if cells := q.Lease("w1", 1); len(cells) != 1 {
		t.Fatal("train cell not leased")
	}
	// Fresh work arrives behind the in-flight training cell.
	sim := wireJobs(t, 1)[0]
	q.Enqueue(sim, func([]byte, error) {})
	// The lease expires before the next heartbeat lands.
	*now = now.Add(2 * time.Minute)
	if renewed := q.Renew("w1", []string{train.Key}); len(renewed) != 0 {
		t.Fatalf("renew-after-expiry extended %v", renewed)
	}
	if st := q.Stats(); st.Renewals != 0 || st.Requeues != 1 {
		t.Fatalf("stats after stale renewal: %+v", st)
	}
	// The expired training cell re-issues at the queue front, before the
	// fresh simulation cell.
	next := q.Lease("w2", 1)
	if len(next) != 1 || next[0].Key != train.Key || next[0].Kind != KindTrain {
		t.Fatalf("queue front after expiry: %+v", next)
	}
}

func TestLeaseExpiryReissuesCell(t *testing.T) {
	q := NewWorkQueue(time.Minute)
	now := fakeClock(q)
	w := wireJobs(t, 1)[0]

	var got atomic.Int32
	q.Enqueue(w, func(data []byte, err error) { got.Add(1) })

	first := q.Lease("w1", 4)
	if len(first) != 1 || first[0].Key != w.Key {
		t.Fatalf("lease 1: got %d cells", len(first))
	}
	// Within the TTL the cell must NOT be handed out again.
	if again := q.Lease("w2", 4); len(again) != 0 {
		t.Fatalf("cell double-leased inside TTL")
	}
	// After expiry, the next lease — from any worker — re-issues it.
	*now = now.Add(2 * time.Minute)
	second := q.Lease("w2", 4)
	if len(second) != 1 || second[0].Key != w.Key {
		t.Fatalf("expired cell not re-issued: got %d cells", len(second))
	}
	st := q.Stats()
	if st.Requeues != 1 || st.Leased != 1 || st.Pending != 0 {
		t.Fatalf("stats after re-issue: %+v", st)
	}
	// The late worker finishing first still completes the cell.
	data := validResult(t, w)
	if s := q.Complete("w1", w.Key, data, ""); s != CompleteAccepted {
		t.Fatalf("late completion: %v", s)
	}
	if got.Load() != 1 {
		t.Fatalf("waiter invoked %d times", got.Load())
	}
}

func TestDuplicateResultIsIdempotent(t *testing.T) {
	q := NewWorkQueue(time.Minute)
	fakeClock(q)
	w := wireJobs(t, 1)[0]
	var calls atomic.Int32
	q.Enqueue(w, func(data []byte, err error) {
		if err != nil {
			t.Errorf("waiter got error: %v", err)
		}
		calls.Add(1)
	})
	q.Lease("w1", 1)
	data := validResult(t, w)
	if s := q.Complete("w1", w.Key, data, ""); s != CompleteAccepted {
		t.Fatalf("first submission: %v", s)
	}
	if s := q.Complete("w2", w.Key, data, ""); s != CompleteDuplicate {
		t.Fatalf("second submission: %v (want duplicate)", s)
	}
	if calls.Load() != 1 {
		t.Fatalf("waiter invoked %d times, want exactly once", calls.Load())
	}
	if st := q.Stats(); st.Duplicates != 1 || st.Done != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestMalformedResultRejectedWithoutPoisoning(t *testing.T) {
	q := NewWorkQueue(time.Minute)
	fakeClock(q)
	w := wireJobs(t, 1)[0]
	var calls atomic.Int32
	q.Enqueue(w, func(data []byte, err error) {
		calls.Add(1)
		if err != nil {
			t.Errorf("waiter got error: %v", err)
		}
		if _, derr := sim.DecodeResult(data); derr != nil {
			t.Errorf("waiter received undecodable bytes")
		}
	})
	q.Lease("bad-worker", 1)
	if s := q.Complete("bad-worker", w.Key, []byte("{not json"), ""); s != CompleteRejected {
		t.Fatalf("malformed submission: %v (want rejected)", s)
	}
	if calls.Load() != 0 {
		t.Fatal("waiter saw a malformed result")
	}
	// The cell is back in the queue for another worker.
	cells := q.Lease("good-worker", 1)
	if len(cells) != 1 {
		t.Fatalf("rejected cell not re-queued")
	}
	if s := q.Complete("good-worker", w.Key, validResult(t, w), ""); s != CompleteAccepted {
		t.Fatalf("valid retry: %v", s)
	}
	if calls.Load() != 1 {
		t.Fatalf("waiter invoked %d times", calls.Load())
	}
	if st := q.Stats(); st.Rejects != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestWorkerErrorRequeuesThenFails(t *testing.T) {
	q := NewWorkQueue(time.Minute)
	fakeClock(q)
	w := wireJobs(t, 1)[0]
	var lastErr atomic.Value
	q.Enqueue(w, func(data []byte, err error) {
		if err != nil {
			lastErr.Store(err.Error())
		}
	})
	// maxAttempts is 3: three lease+error cycles exhaust the cell.
	for i := 0; i < 3; i++ {
		cells := q.Lease("w1", 1)
		if len(cells) != 1 {
			t.Fatalf("attempt %d: no cell", i)
		}
		q.Complete("w1", w.Key, nil, "simulated crash")
	}
	msg, _ := lastErr.Load().(string)
	if !strings.Contains(msg, "simulated crash") {
		t.Fatalf("waiter error = %q, want the worker failure surfaced", msg)
	}
	if cells := q.Lease("w1", 1); len(cells) != 0 {
		t.Fatal("failed cell still leasable")
	}
}

func TestEnqueueDeduplicatesAndCancelWithdraws(t *testing.T) {
	q := NewWorkQueue(time.Minute)
	fakeClock(q)
	w := wireJobs(t, 1)[0]
	var a, b atomic.Int32
	q.Enqueue(w, func([]byte, error) { a.Add(1) })
	cancelB := q.Enqueue(w, func([]byte, error) { b.Add(1) })
	if st := q.Stats(); st.Pending != 1 {
		t.Fatalf("duplicate enqueue created %d pending cells", st.Pending)
	}
	if !cancelB() {
		t.Fatal("cancel of pending waiter reported false")
	}
	q.Lease("w1", 1)
	q.Complete("w1", w.Key, validResult(t, w), "")
	if a.Load() != 1 || b.Load() != 0 {
		t.Fatalf("waiters a=%d b=%d, want 1/0", a.Load(), b.Load())
	}
	// Done cells are evicted (their bytes live in the result store, which
	// runners consult first): a later Enqueue of the same key starts a
	// fresh cell rather than replaying queue state.
	var c atomic.Int32
	q.Enqueue(w, func([]byte, error) { c.Add(1) })
	if c.Load() != 0 {
		t.Fatal("enqueue after eviction completed synchronously")
	}
	if st := q.Stats(); st.Pending != 1 {
		t.Fatalf("re-enqueued key not pending: %+v", st)
	}
	// Cancelling the sole waiter of a pending cell drops the cell.
	w2 := wireJobs(t, 1)[0]
	w2b := *w2
	w2b.Key = strings.Repeat("ab", 32) // distinct synthetic key
	cancel := q.Enqueue(&w2b, func([]byte, error) { t.Error("withdrawn cell completed") })
	if !cancel() {
		t.Fatal("cancel reported false")
	}
	for _, cell := range q.Lease("w1", 4) {
		if cell.Key == w2b.Key {
			t.Fatal("withdrawn cell still leased")
		}
	}
}

func TestStaleFailureFromExpiredWorkerIgnored(t *testing.T) {
	q := NewWorkQueue(time.Minute)
	now := fakeClock(q)
	w := wireJobs(t, 1)[0]
	var calls atomic.Int32
	q.Enqueue(w, func(data []byte, err error) {
		calls.Add(1)
		if err != nil {
			t.Errorf("waiter got error: %v", err)
		}
	})
	// Worker A leases, its lease expires, worker B picks the cell up.
	q.Lease("a", 1)
	*now = now.Add(2 * time.Minute)
	if cells := q.Lease("b", 1); len(cells) != 1 {
		t.Fatal("expired cell not re-issued to b")
	}
	// A's late failure report (and late garbage) must not disturb B's lease.
	if st := q.Complete("a", w.Key, nil, "late crash"); st != CompleteUnknown {
		t.Fatalf("stale error report: %v (want unknown)", st)
	}
	if st := q.Complete("a", w.Key, []byte("garbage"), ""); st != CompleteRejected {
		t.Fatalf("stale garbage: %v", st)
	}
	st := q.Stats()
	if st.Leased != 1 || st.Pending != 0 {
		t.Fatalf("stale failure disturbed b's lease: %+v", st)
	}
	// B's valid result completes the cell exactly once.
	if s := q.Complete("b", w.Key, validResult(t, w), ""); s != CompleteAccepted {
		t.Fatalf("b's result: %v", s)
	}
	if calls.Load() != 1 {
		t.Fatalf("waiter invoked %d times", calls.Load())
	}
}

func TestFailedCellRetriesFreshOnResubmission(t *testing.T) {
	q := NewWorkQueue(time.Minute)
	fakeClock(q)
	w := wireJobs(t, 1)[0]
	var firstErr atomic.Value
	q.Enqueue(w, func(data []byte, err error) {
		if err != nil {
			firstErr.Store(err.Error())
		}
	})
	for i := 0; i < 3; i++ { // exhaust maxAttempts
		q.Lease("w1", 1)
		q.Complete("w1", w.Key, nil, "crash")
	}
	if msg, _ := firstErr.Load().(string); !strings.Contains(msg, "crash") {
		t.Fatalf("first campaign did not fail: %q", msg)
	}
	// A resubmitted campaign is not poisoned by the stale failure: the key
	// re-enqueues fresh and can now succeed.
	var ok atomic.Int32
	q.Enqueue(w, func(data []byte, err error) {
		if err == nil {
			ok.Add(1)
		}
	})
	if cells := q.Lease("w2", 1); len(cells) != 1 {
		t.Fatal("resubmitted cell not leasable")
	}
	if s := q.Complete("w2", w.Key, validResult(t, w), ""); s != CompleteAccepted {
		t.Fatalf("retry after failure: %v", s)
	}
	if ok.Load() != 1 {
		t.Fatal("resubmitted campaign did not succeed")
	}
}

func TestCancelledCellResultStillStored(t *testing.T) {
	q := NewWorkQueue(time.Minute)
	fakeClock(q)
	store := NewMemStore()
	q.Store = store
	w := wireJobs(t, 1)[0]
	cancel := q.Enqueue(w, func([]byte, error) { t.Error("cancelled waiter invoked") })
	q.Lease("w1", 1)
	if !cancel() {
		t.Fatal("cancel reported false")
	}
	// The worker finishes after the campaign was cancelled: the simulation
	// is already paid for, so the queue banks the bytes for future runs.
	if s := q.Complete("w1", w.Key, validResult(t, w), ""); s != CompleteAccepted {
		t.Fatalf("late completion: %v", s)
	}
	if _, ok := store.Get(w.Key); !ok {
		t.Fatal("ownerless result discarded instead of stored")
	}
}
