package campaign

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// startCoordinator serves the work protocol over real loopback HTTP.
func startCoordinator(t *testing.T, q *WorkQueue, store ResultStore) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.StripPrefix("/work", WorkHandler(q, store)))
	t.Cleanup(srv.Close)
	return srv
}

// TestWorkerExecutesLeasedCells drives the whole pull protocol end to end
// over HTTP: RemoteRunner enqueues, a Worker leases, executes and submits,
// and the outcomes match a local pool run bytewise.
func TestWorkerExecutesLeasedCells(t *testing.T) {
	spec := Spec{
		Benchmarks: []string{"micro"},
		Schedulers: []string{"default", "gts"},
		Seeds:      []int64{5},
	}
	local, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	pool := &Pool{Workers: 4, Store: NewMemStore()}
	want, err := pool.Run(context.Background(), local, nil)
	if err != nil {
		t.Fatal(err)
	}

	store := NewMemStore()
	q := NewWorkQueue(time.Minute)
	q.Store = store
	srv := startCoordinator(t, q, store)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{Coordinator: srv.URL + "/work", ID: "w-test", Max: 3, Poll: 5 * time.Millisecond}
	go w.Run(ctx)

	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	runner := &RemoteRunner{Queue: q, Store: store}
	got, err := runner.Run(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f1, f2 := Fingerprint(want), Fingerprint(got); f1 != f2 {
		t.Fatalf("remote fingerprint %s != local %s", f2, f1)
	}
	st := q.Stats()
	if len(st.Workers) != 1 || st.Workers[0].Completed != len(jobs) {
		t.Fatalf("worker status: %+v", st.Workers)
	}
}

// TestAgentExchangeWarmsTrainingAcrossMachines pins the fig10-style flow:
// machine A trains a cell and publishes the snapshot through the exchange;
// machine B's TrainCell on the same inputs is a cache hit served from the
// coordinator, with an inference-identical agent.
func TestAgentExchangeWarmsTrainingAcrossMachines(t *testing.T) {
	coordStore := NewMemStore()
	q := NewWorkQueue(time.Minute)
	srv := startCoordinator(t, q, coordStore)

	machineA := NewAgentExchange(srv.URL+"/work", NewMemStore())
	cold, err := TrainCell(machineA, trainSpecFor(t, "spin", 21))
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit {
		t.Fatal("cold training claims a cache hit")
	}
	if coordStore.Len() != 1 {
		t.Fatalf("snapshot not published to coordinator (store len %d)", coordStore.Len())
	}

	machineB := NewAgentExchange(srv.URL+"/work", NewMemStore())
	warm, err := TrainCell(machineB, trainSpecFor(t, "spin", 21))
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("training on machine B was not served from the coordinator")
	}
	if a, b := agentFingerprint(t, cold.Agent), agentFingerprint(t, warm.Agent); string(a) != string(b) {
		t.Fatal("exchanged agent is not inference-identical")
	}
}

// TestWorkHandlerRejectsBadKeys keeps crafted paths out of the store.
func TestWorkHandlerRejectsBadKeys(t *testing.T) {
	store := NewMemStore()
	srv := startCoordinator(t, NewWorkQueue(time.Minute), store)
	for _, key := range []string{"../../etc/passwd", "ABCD", strings.Repeat("g", 64)} {
		resp, err := http.Get(srv.URL + "/work/agents/" + key)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound &&
			resp.StatusCode != http.StatusMovedPermanently {
			t.Fatalf("key %q: status %d", key, resp.StatusCode)
		}
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("key %q accepted", key)
		}
	}
	// A well-formed key only accepts a restorable trained-agent snapshot
	// in canonical form (invariant 5): non-JSON, stray JSON ({} — which
	// would decode as a zero sim.Result and poison warm runs if it reached
	// the shared store), truncated snapshots, and a real snapshot padded
	// with whitespace or carrying an unknown field are all refused before
	// Put.
	tr, err := TrainCell(nil, trainSpecFor(t, "spin", 3))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshotBytes(tr)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ab", 32)
	for _, body := range []string{"not json", "{}", `{"agent":{"kind":"dqn"}}`,
		" " + string(snap) + "\n", `{"extra":1,` + string(snap[1:])} {
		req, _ := http.NewRequest(http.MethodPut, srv.URL+"/work/agents/"+key, strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("body %.40q: status %d, want 422", body, resp.StatusCode)
		}
		if _, ok := store.Get(key); ok {
			t.Fatalf("body %.40q reached the store", body)
		}
	}
}

// TestResultSubmissionRejectsTraversalKeys pins that a crafted result key
// can never reach the store's path logic (the unknown-key banking path
// would otherwise write outside the cache directory).
func TestResultSubmissionRejectsTraversalKeys(t *testing.T) {
	store := NewMemStore()
	q := NewWorkQueue(time.Minute)
	q.Store = store
	srv := startCoordinator(t, q, store)
	body := `{"worker_id":"evil","key":"../../evil","data":"e30="}`
	resp, err := http.Post(srv.URL+"/work/result", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("traversal key: status %d, want 400", resp.StatusCode)
	}
	if store.Len() != 0 {
		t.Fatal("traversal key reached the store")
	}
	// The queue API itself also refuses to bank malformed keys.
	if st := q.Complete("evil", "../../evil2", []byte(`{"time_s":0}`), ""); st != CompleteUnknown {
		t.Fatalf("direct complete: %v", st)
	}
	if store.Len() != 0 {
		t.Fatal("malformed key banked through the queue")
	}
}
