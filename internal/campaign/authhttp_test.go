package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestBearerAuthGuardsWorkEndpoints: with a token configured, every /work
// request without the exact bearer credential is refused with 401 before
// the handler sees it; the matching credential passes; an empty token
// leaves the handler unwrapped (the trusted-network default).
func TestBearerAuthGuardsWorkEndpoints(t *testing.T) {
	q := NewWorkQueue(time.Minute)
	store := NewMemStore()
	srv := httptest.NewServer(http.StripPrefix("/work",
		WithBearerAuth("s3cret", WorkHandler(q, store))))
	defer srv.Close()

	get := func(auth string) *http.Response {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/work/status", nil)
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := get(""); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("no credential: %d", resp.StatusCode)
	} else if resp.Header.Get("WWW-Authenticate") == "" {
		t.Fatal("401 without a WWW-Authenticate challenge")
	}
	if resp := get("Bearer wrong"); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong token: %d", resp.StatusCode)
	}
	if resp := get("s3cret"); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("missing Bearer scheme: %d", resp.StatusCode)
	}
	if resp := get("Bearer s3cret"); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid token: %d", resp.StatusCode)
	}

	// POST endpoints are guarded the same way (the mount wraps them all).
	body, _ := json.Marshal(LeaseRequest{WorkerID: "w1", Max: 1})
	resp, err := http.Post(srv.URL+"/work/lease", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated lease: %d", resp.StatusCode)
	}
	if len(q.Stats().Workers) != 0 {
		t.Fatal("unauthenticated lease registered a worker")
	}

	// Empty token: pass-through, no wrapper.
	open := WorkHandler(q, store)
	if WithBearerAuth("", open) != open {
		t.Fatal("empty token did not return the handler unwrapped")
	}
}

// TestWorkerAuthenticatesEndToEnd: a worker configured with the token
// completes cells through a guarded coordinator; one without only piles up
// lease errors and never registers.
func TestWorkerAuthenticatesEndToEnd(t *testing.T) {
	q := NewWorkQueue(time.Minute)
	store := NewMemStore()
	srv := httptest.NewServer(http.StripPrefix("/work",
		WithBearerAuth("s3cret", WorkHandler(q, store))))
	defer srv.Close()

	done := make(chan struct{})
	q.Enqueue(wireCells(t, 1)[0], func(data []byte, err error) {
		if err == nil {
			close(done)
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	locked := &Worker{Coordinator: srv.URL + "/work", ID: "w-noauth", Poll: 5 * time.Millisecond}
	go locked.Run(ctx)
	authed := &Worker{Coordinator: srv.URL + "/work", ID: "w-auth", Poll: 5 * time.Millisecond, Token: "s3cret"}
	go authed.Run(ctx)

	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("authenticated worker never completed the cell")
	}
	deadline := time.Now().Add(5 * time.Second)
	for locked.LeaseErrors() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("tokenless worker reported no lease errors against a guarded coordinator")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := q.Stats()
	for _, w := range st.Workers {
		if w.ID == "w-noauth" {
			t.Fatal("tokenless worker registered with the queue")
		}
	}
	if row := workerRow(t, st, "w-auth"); row.Completed != 1 {
		t.Fatalf("authenticated worker completed %d cells", row.Completed)
	}
}

// countingTransport counts the trained-agent fetches a client sends.
type countingTransport struct{ agentGets atomic.Int64 }

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/work/agents/") {
		c.agentGets.Add(1)
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestWorkerFetchesAgentsWithToken: a worker behind a guarded coordinator
// fetches trained-agent snapshots with its own client and bearer token.
// One fig10-style GTS + hybrid pair runs through a RemoteRunner against a
// snapshot banked in the coordinator's store, byte-identical to the
// in-process pool. A fresh worker's agent tier then serves TrainCell a
// remote hit that restores an inference-identical agent, while a
// tokenless worker's fetch is refused.
func TestWorkerFetchesAgentsWithToken(t *testing.T) {
	cells := fig10StyleCells(t, []string{"spin"})
	tr, err := TrainCell(nil, cells[0].spec)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshotBytes(tr)
	if err != nil {
		t.Fatal(err)
	}
	key, err := cells[0].spec.Key()
	if err != nil {
		t.Fatal(err)
	}

	local := NewMemStore()
	if err := local.Put(key, snap); err != nil {
		t.Fatal(err)
	}
	want, err := (&Pool{Workers: 1, Store: local}).Run(context.Background(), fig10StyleJobs(t, cells, 1, nil), nil)
	if err != nil {
		t.Fatal(err)
	}

	store := NewMemStore()
	if err := store.Put(key, snap); err != nil {
		t.Fatal(err)
	}
	q := NewWorkQueue(time.Minute)
	q.Store = store
	srv := httptest.NewServer(http.StripPrefix("/work",
		WithBearerAuth("s3cret", WorkHandler(q, store))))
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	transport := &countingTransport{}
	w := &Worker{Coordinator: srv.URL + "/work", ID: "w-hybrid", Max: 1, Poll: 2 * time.Millisecond,
		Token: "s3cret", Client: &http.Client{Transport: transport}}
	go w.Run(ctx)
	got, err := (&RemoteRunner{Queue: q, Store: store}).Run(context.Background(), fig10StyleJobs(t, cells, 1, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if fw, fg := Fingerprint(want), Fingerprint(got); fw != fg {
		t.Fatalf("remote fingerprint %s != in-process %s", fg, fw)
	}
	if n := transport.agentGets.Load(); n != 1 {
		t.Fatalf("worker's client sent %d agent fetches, want 1", n)
	}

	fresh := &Worker{Coordinator: srv.URL + "/work", ID: "w-fetch", Token: "s3cret"}
	warm, err := TrainCell(fresh.agentStore(), cells[0].spec)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("TrainCell retrained instead of fetching the banked snapshot")
	}
	if a, b := agentFingerprint(t, tr.Agent), agentFingerprint(t, warm.Agent); string(a) != string(b) {
		t.Fatal("fetched agent is not inference-identical")
	}
	tokenless := &Worker{Coordinator: srv.URL + "/work", ID: "w-noauth"}
	if _, ok := tokenless.agentStore().Get(key); ok {
		t.Fatal("tokenless worker fetched a snapshot from a guarded coordinator")
	}
}

// TestDrainEndpoint drives POST /work/drain over the wire: drain reports
// the state and held-lease count, resume flips back to active, and a
// missing worker_id is a 400.
func TestDrainEndpoint(t *testing.T) {
	q := NewWorkQueue(time.Minute)
	store := NewMemStore()
	srv := startCoordinator(t, q, store)

	q.Enqueue(wireCells(t, 1)[0], func([]byte, error) {})
	if cells := q.Lease("w1", 1); len(cells) != 1 {
		t.Fatal("no lease")
	}

	post := func(req DrainRequest) (DrainResponse, int) {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := http.Post(srv.URL+"/work/drain", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var dr DrainResponse
		json.NewDecoder(resp.Body).Decode(&dr)
		return dr, resp.StatusCode
	}

	dr, code := post(DrainRequest{WorkerID: "w1", GraceMS: 60_000})
	if code != http.StatusOK || dr.State != "draining" || dr.Held != 1 {
		t.Fatalf("drain: %d %+v", code, dr)
	}
	dr, code = post(DrainRequest{WorkerID: "w1", Resume: true})
	if code != http.StatusOK || dr.State != "active" {
		t.Fatalf("resume: %d %+v", code, dr)
	}
	if _, code := post(DrainRequest{}); code != http.StatusBadRequest {
		t.Fatalf("empty worker_id: %d", code)
	}
}
