package campaign

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"
)

func checkByName(t *testing.T, st ReadyStatus, name string) ReadyCheck {
	t.Helper()
	for _, c := range st.Checks {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("no %q check in %+v", name, st)
	return ReadyCheck{}
}

// TestReadinessProbes walks the coordinator through the readiness
// transitions an operator would see: sweeper not started, healthy idle,
// outstanding work with a silent fleet, and a fresh worker clearing it.
func TestReadinessProbes(t *testing.T) {
	q := NewWorkQueue(time.Minute)

	// No sweeper yet: not ready, and the sweeper check says why.
	st := Readiness(q, nil)
	if st.Ready {
		t.Fatalf("ready before StartSweeper: %+v", st)
	}
	if c := checkByName(t, st, "sweeper"); c.OK || c.Detail != "not started" {
		t.Fatalf("sweeper check: %+v", c)
	}
	if c := checkByName(t, st, "store"); !c.OK {
		t.Fatalf("nil store should pass: %+v", c)
	}

	stop := q.StartSweeper(time.Hour)
	defer stop()

	// Idle queue with a live sweeper is ready: coordinators are routable
	// before their first campaign arrives.
	if st := Readiness(q, nil); !st.Ready {
		t.Fatalf("idle queue not ready: %+v", st)
	}

	// Outstanding work, fleet silent: the workers probe trips.
	w := wireJobs(t, 1)[0]
	q.Enqueue(w, func([]byte, error) {})
	st = Readiness(q, nil)
	if st.Ready {
		t.Fatalf("ready with outstanding work and no workers: %+v", st)
	}
	if c := checkByName(t, st, "workers"); c.OK {
		t.Fatalf("workers check passed with silent fleet: %+v", c)
	}

	// A worker contacting the queue (real clock: LastSeen is now)
	// clears it.
	if got := q.Lease("w1", 1); len(got) != 1 {
		t.Fatalf("lease: %+v", got)
	}
	if st := Readiness(q, nil); !st.Ready {
		t.Fatalf("not ready with fresh worker: %+v", st)
	}
}

// TestReadinessSweeperStale pins the wedged-sweeper detection: a last
// sweep far older than 4 intervals fails the probe even though the
// sweeper goroutine is nominally running.
func TestReadinessSweeperStale(t *testing.T) {
	q := NewWorkQueue(time.Minute)
	stop := q.StartSweeper(time.Hour)
	defer stop()
	fakeClock(q) // pins q.now deep in the past
	q.Sweep()    // records an ancient lastSweep
	st := Readiness(q, nil)
	if st.Ready {
		t.Fatalf("ready with stale sweeper: %+v", st)
	}
	if c := checkByName(t, st, "sweeper"); c.OK {
		t.Fatalf("sweeper check passed despite staleness: %+v", c)
	}
}

// TestStoreHealthy covers the disk probe: writable dir passes,
// memory-only passes trivially, missing dir fails.
func TestStoreHealthy(t *testing.T) {
	if err := probeDirWritable(t.TempDir()); err != nil {
		t.Fatalf("writable dir: %v", err)
	}
	if err := probeDirWritable(""); err != nil {
		t.Fatalf("memory-only: %v", err)
	}
	if err := probeDirWritable(filepath.Join(t.TempDir(), "gone")); err == nil {
		t.Fatal("missing dir reported healthy")
	}
	store, err := NewShardedStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Healthy(); err != nil {
		t.Fatalf("fresh store unhealthy: %v", err)
	}
}

// TestReadinessStorePressure pins the bounded-store probe: a capped
// store within its cap passes; one held over the cap by pinned bytes —
// the only way a bounded store can stay over it — fails with the pinned
// pressure named, and clears once the pins release and eviction runs.
func TestReadinessStorePressure(t *testing.T) {
	store, err := NewShardedStoreWith(t.TempDir(), 1, StoreConfig{MaxBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	q := NewWorkQueue(time.Minute)
	stop := q.StartSweeper(time.Hour)
	defer stop()

	if err := store.Put(testKey(1), valFor(1, 256)); err != nil {
		t.Fatal(err)
	}
	if st := Readiness(q, store); !st.Ready {
		t.Fatalf("within-cap store not ready: %+v", st)
	}
	if c := checkByName(t, Readiness(q, store), "store_pressure"); !c.OK {
		t.Fatalf("store_pressure failed within cap: %+v", c)
	}

	// Pin everything, then overfill: eviction has nowhere to go and the
	// store sits over cap — the probe must trip.
	for i := 1; i <= 4; i++ {
		store.Pin(testKey(i))
		if err := store.Put(testKey(i), valFor(i, 256)); err != nil {
			t.Fatal(err)
		}
	}
	st := Readiness(q, store)
	if st.Ready {
		t.Fatalf("ready with pinned bytes over the cap: %+v", st)
	}
	if c := checkByName(t, st, "store_pressure"); c.OK {
		t.Fatalf("store_pressure passed over cap: %+v", c)
	}

	// Releasing the pins lets the next write evict back under the cap.
	for i := 1; i <= 4; i++ {
		store.Unpin(testKey(i))
	}
	if err := store.Put(testKey(5), valFor(5, 64)); err != nil {
		t.Fatal(err)
	}
	if c := checkByName(t, Readiness(q, store), "store_pressure"); !c.OK {
		t.Fatalf("store_pressure still failing after pins released: %+v", c)
	}
}

// TestReadyHandlerHTTP checks the wire shape: 503 + JSON body naming the
// failing check, then 200 once the coordinator is actually ready.
func TestReadyHandlerHTTP(t *testing.T) {
	q := NewWorkQueue(time.Minute)
	srv := httptest.NewServer(ReadyHandler(q, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	var st ReadyStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || st.Ready {
		t.Fatalf("pre-sweeper: status %d, body %+v", resp.StatusCode, st)
	}
	if c := checkByName(t, st, "sweeper"); c.OK {
		t.Fatalf("sweeper check in body: %+v", c)
	}

	stop := q.StartSweeper(time.Hour)
	defer stop()
	resp, err = http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !st.Ready {
		t.Fatalf("post-sweeper: status %d, body %+v", resp.StatusCode, st)
	}
}
