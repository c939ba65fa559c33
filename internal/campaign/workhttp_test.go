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
	// Snapshots reach the store only through POST /result under a lease:
	// a PUT on a well-formed key is refused and writes nothing.
	key := strings.Repeat("ab", 32)
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/work/agents/"+key, strings.NewReader("{}"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PUT /work/agents: status %d, want 405", resp.StatusCode)
	}
	if _, ok := store.Get(key); ok {
		t.Fatal("PUT /work/agents reached the store")
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
