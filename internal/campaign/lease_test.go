package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// spinJob is one small wireable simulation job.
func spinJob(t *testing.T) *Job {
	t.Helper()
	jobs, err := (&Spec{Benchmarks: []string{"spin"}, Schedulers: []string{"default"}, Seeds: []int64{1}}).Expand()
	if err != nil {
		t.Fatal(err)
	}
	return jobs[0]
}

// TestRemoteRunnerRefusesSplitStores pins that the queue is the only
// banker: a runner whose Store is not its Queue's Store, or that has no
// Queue, refuses both kinds of batch before enqueueing anything.
func TestRemoteRunnerRefusesSplitStores(t *testing.T) {
	jobs := []*Job{spinJob(t)}
	specs := []*TrainSpec{trainSpecFor(t, "spin", 5)}
	q := NewWorkQueue(time.Minute)
	q.Store = NewMemStore()
	for name, r := range map[string]*RemoteRunner{
		"other store": {Queue: q, Store: NewMemStore()},
		"no store":    {Queue: q},
		"no queue":    {Store: q.Store},
	} {
		if outs, err := r.Run(context.Background(), jobs, nil); err == nil || outs != nil {
			t.Fatalf("%s: Run returned %v, %v; want a refusal", name, outs, err)
		}
		if trained, err := r.Train(context.Background(), specs); err == nil || trained != nil {
			t.Fatalf("%s: Train returned %v, %v; want a refusal", name, trained, err)
		}
	}
	if st := q.Stats(); st.Pending != 0 || st.Leased != 0 || st.Done != 0 {
		t.Fatalf("a refused runner enqueued cells: %+v", st)
	}
}

// TestRemoteRunnerLeasesOverCorruptEntries pins the corrupt-entry
// fall-through for both kinds of cell: a stored entry that does not decode
// is not a hit; the cell is leased afresh and the queue overwrites the
// entry with the worker's validated bytes.
func TestRemoteRunnerLeasesOverCorruptEntries(t *testing.T) {
	job := spinJob(t)
	spec := trainSpecFor(t, "spin", 6)
	jobKey, _ := job.Key()
	specKey, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	store := NewMemStore()
	for _, k := range []string{jobKey, specKey} {
		if err := store.Put(k, []byte("corrupt")); err != nil {
			t.Fatal(err)
		}
	}
	q := NewWorkQueue(time.Minute)
	q.Store = store
	srv := startCoordinator(t, q, store)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{Coordinator: srv.URL + "/work", ID: "mender", Max: 1, Poll: 2 * time.Millisecond}
	go w.Run(ctx)
	runner := &RemoteRunner{Queue: q, Store: store}

	trained, err := runner.Train(context.Background(), []*TrainSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if trained[0].CacheHit {
		t.Fatal("corrupt snapshot served as a cache hit")
	}
	outs, err := runner.Run(context.Background(), []*Job{job}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].CacheHit {
		t.Fatal("corrupt result served as a cache hit")
	}
	for kind, k := range map[string]string{KindTrain: specKey, KindSim: jobKey} {
		data, ok := store.Get(k)
		if !ok {
			t.Fatalf("%s entry missing", kind)
		}
		if err := validateWireResult(kind, data); err != nil {
			t.Fatalf("%s entry not overwritten with canonical bytes: %v", kind, err)
		}
	}
	if st := q.Stats(); st.Done != 2 {
		t.Fatalf("queue done %d, want both cells leased", st.Done)
	}
}

// TestTrainLeasePublishesOnlyThroughResult pins that a worker's trained
// snapshot reaches the coordinator one way: the /result submission that
// completes the lease. No PUT /work/agents is sent, and the store banks
// exactly the submitted bytes.
func TestTrainLeasePublishesOnlyThroughResult(t *testing.T) {
	store := NewMemStore()
	q := NewWorkQueue(time.Minute)
	q.Store = store
	var (
		mu        sync.Mutex
		puts      int
		submitted = map[string][]byte{}
	)
	inner := http.StripPrefix("/work", WorkHandler(q, store))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPut && strings.HasPrefix(r.URL.Path, "/work/agents/"):
			mu.Lock()
			puts++
			mu.Unlock()
		case r.Method == http.MethodPost && r.URL.Path == "/work/result":
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			var sub ResultSubmission
			if err := json.Unmarshal(body, &sub); err != nil {
				t.Error(err)
			}
			mu.Lock()
			submitted[sub.Key] = sub.Data
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{Coordinator: srv.URL + "/work", ID: "trainer", Max: 1, Poll: 2 * time.Millisecond}
	go w.Run(ctx)

	spec := trainSpecFor(t, "spin", 7)
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	runner := &RemoteRunner{Queue: q, Store: store}
	if _, err := runner.Train(context.Background(), []*TrainSpec{spec}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if puts != 0 {
		t.Fatalf("training lease sent %d PUT /work/agents requests", puts)
	}
	sent, ok := submitted[key]
	if !ok {
		t.Fatal("no /result submission for the training cell")
	}
	banked, ok := store.Get(key)
	if !ok || !bytes.Equal(banked, sent) {
		t.Fatal("banked snapshot differs from the submitted bytes")
	}
}

// TestWorkerLeaseBody pins how a worker reads a lease response: into one
// buffer it keeps across leases, and a body that is malformed, cut short
// of its declared length or over the size limit is an error, never a
// partial lease.
func TestWorkerLeaseBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/ok/lease":
			json.NewEncoder(w).Encode(LeaseResponse{Cells: []*WireJob{{Key: "k", Label: "cell"}}, LeaseTTLMS: 1500})
		case "/malformed/lease":
			io.WriteString(w, `{"cells":[`)
		case "/truncated/lease":
			w.Header().Set("Content-Length", "100")
			io.WriteString(w, `{"cells":[]}`)
		}
	}))
	defer srv.Close()
	ctx := context.Background()
	w := &Worker{Coordinator: srv.URL + "/ok", ID: "w"}
	capacity := 0
	for i := 0; i < 3; i++ {
		cells, ttl, err := w.lease(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) != 1 || cells[0].Key != "k" || ttl != 1500*time.Millisecond {
			t.Fatalf("lease %d: %d cells, ttl %v", i, len(cells), ttl)
		}
		if w.leaseBody.Len() == 0 {
			t.Fatalf("lease %d: the body did not go through the worker's buffer", i)
		}
		if i > 0 && w.leaseBody.Cap() != capacity {
			t.Fatalf("lease %d grew the body buffer from %d to %d bytes", i, capacity, w.leaseBody.Cap())
		}
		capacity = w.leaseBody.Cap()
	}
	for _, bad := range []string{"malformed", "truncated"} {
		w.Coordinator = srv.URL + "/" + bad
		if cells, _, err := w.lease(ctx); err == nil {
			t.Fatalf("%s body: leased %d cells, want an error", bad, len(cells))
		}
	}

	// The limit, at a size a test can afford to exceed.
	var buf bytes.Buffer
	if err := readLimited(&buf, strings.NewReader("12345"), 5); err != nil || buf.String() != "12345" {
		t.Fatalf("body at the limit: %q, %v", buf.String(), err)
	}
	if err := readLimited(&buf, strings.NewReader("123456"), 5); err == nil {
		t.Fatal("body over the limit read without an error")
	}
	if err := readLimited(&buf, strings.NewReader("12"), 5); err != nil || buf.String() != "12" {
		t.Fatalf("reused buffer: %q, %v", buf.String(), err)
	}
}
