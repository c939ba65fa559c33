package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"astro/internal/campaign"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(newServer(campaign.NewEngine(4, nil), campaign.NewWorkQueue(0), false, ""))
	t.Cleanup(srv.Close)
	return srv
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestServeCampaignLifecycle(t *testing.T) {
	srv := newTestServer(t)

	// Discovery endpoints.
	var names []string
	if code := getJSON(t, srv.URL+"/api/benchmarks", &names); code != 200 || len(names) == 0 {
		t.Fatalf("benchmarks: code %d, %d names", code, len(names))
	}
	if code := getJSON(t, srv.URL+"/healthz", nil); code != 200 {
		t.Fatalf("healthz: %d", code)
	}

	// Submit a small campaign.
	body := `{"name":"http","benchmarks":["spin"],"schedulers":["default","gts"],"seeds":[1,2]}`
	resp, err := http.Post(srv.URL+"/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st campaign.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID == "" || st.Total != 4 {
		t.Fatalf("submit: code %d, status %+v", resp.StatusCode, st)
	}

	// Stream progress to completion over SSE.
	sse, err := http.Get(srv.URL + "/campaigns/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sse.Body.Close()
	if ct := sse.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	var progress, terminal int
	scanner := bufio.NewScanner(sse.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev campaign.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		switch ev.Type {
		case "progress":
			progress++
		case "state":
			terminal++
			if ev.State != campaign.StateDone {
				t.Fatalf("terminal state %s (%s)", ev.State, ev.Error)
			}
		}
	}
	if progress != 4 || terminal != 1 {
		t.Fatalf("SSE delivered %d progress / %d state events", progress, terminal)
	}

	// Status and results after completion. The status carries the
	// cold-vs-cached split and the aggregate simulated-work throughput.
	if code := getJSON(t, srv.URL+"/campaigns/"+st.ID, &st); code != 200 || st.State != campaign.StateDone {
		t.Fatalf("status: code %d, %+v", code, st)
	}
	if st.ColdJobs != st.Total || st.CacheHits != 0 {
		t.Fatalf("first run of a fresh engine must be all cold: %+v", st)
	}
	// Cycle counters accumulate per checkpoint, so ultra-short runs may
	// legitimately report zero cycles; instructions are always present.
	if st.SimInstr == 0 {
		t.Fatalf("simulated-work metrics missing from status: %+v", st)
	}
	if st.SimCycles > 0 && st.SimCyclesPerSec <= 0 {
		t.Fatalf("cycles present but rate missing: %+v", st)
	}
	var rs campaign.ResultSet
	if code := getJSON(t, srv.URL+"/campaigns/"+st.ID+"/results", &rs); code != 200 {
		t.Fatalf("results code %d", code)
	}
	if rs.Total != 4 || rs.Errors != 0 || len(rs.Cells) != 2 || rs.Fingerprint == "" {
		t.Fatalf("results wrong: %+v", rs)
	}

	// The campaign list includes it.
	var list []campaign.Status
	if code := getJSON(t, srv.URL+"/campaigns", &list); code != 200 || len(list) != 1 {
		t.Fatalf("list: code %d, %+v", code, list)
	}
}

func TestServeRejectsBadSpecs(t *testing.T) {
	srv := newTestServer(t)
	cases := []struct {
		body string
		code int
	}{
		{`{not json`, http.StatusBadRequest},
		{`{"benchmarks":["nope"]}`, http.StatusUnprocessableEntity},
		{`{"benchmarks":["spin"],"bogus_field":1}`, http.StatusBadRequest},
		{`{}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		resp, err := http.Post(srv.URL+"/campaigns", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("body %q: code %d, want %d", tc.body, resp.StatusCode, tc.code)
		}
	}
	if code := getJSON(t, srv.URL+"/campaigns/c424242", nil); code != http.StatusNotFound {
		t.Fatalf("unknown campaign: code %d", code)
	}
}

func TestServeCancel(t *testing.T) {
	srv := newTestServer(t)
	body := `{"benchmarks":["matrixmul"],"seeds":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16]}`
	resp, err := http.Post(srv.URL+"/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st campaign.Status
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/campaigns/"+st.ID, nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		getJSON(t, srv.URL+"/campaigns/"+st.ID, &st)
		if st.State != campaign.StateRunning {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.State == campaign.StateRunning {
		t.Fatalf("campaign still running after cancel: %+v", st)
	}
}

// TestServeReadyz probes the readiness endpoint across the states an
// orchestrator's probe would see: not ready while the sweeper has never
// started, ready once it runs, with /healthz up throughout.
func TestServeReadyz(t *testing.T) {
	queue := campaign.NewWorkQueue(time.Minute)
	srv := httptest.NewServer(newServer(campaign.NewEngine(2, nil), queue, false, ""))
	t.Cleanup(srv.Close)

	if code := getJSON(t, srv.URL+"/healthz", nil); code != 200 {
		t.Fatalf("healthz: %d", code)
	}
	var st campaign.ReadyStatus
	if code := getJSON(t, srv.URL+"/readyz", &st); code != http.StatusServiceUnavailable || st.Ready {
		t.Fatalf("pre-sweeper readyz: code %d, %+v", code, st)
	}
	found := false
	for _, c := range st.Checks {
		if c.Name == "sweeper" && !c.OK {
			found = true
		}
	}
	if !found {
		t.Fatalf("readyz body does not name the failing sweeper check: %+v", st)
	}

	stop := queue.StartSweeper(0)
	defer stop()
	if code := getJSON(t, srv.URL+"/readyz", &st); code != 200 || !st.Ready {
		t.Fatalf("post-sweeper readyz: code %d, %+v", code, st)
	}
}

// TestServeRemoteCampaign runs a campaign through a -remote engine: the
// server's /work endpoints hand cells to a pull-based worker, and the
// campaign completes with results identical in shape to local execution.
func TestServeRemoteCampaign(t *testing.T) {
	store := campaign.NewMemStore()
	queue := campaign.NewWorkQueue(time.Minute)
	queue.Store = store
	runner := &campaign.RemoteRunner{Queue: queue, Store: store}
	eng := campaign.NewEngineWith(runner, store)
	srv := httptest.NewServer(newServer(eng, queue, false, ""))
	t.Cleanup(srv.Close)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &campaign.Worker{
		Coordinator: srv.URL + "/work",
		ID:          "serve-test-worker",
		Max:         2,
		Poll:        5 * time.Millisecond,
	}
	go w.Run(ctx)

	body := `{"name":"remote","benchmarks":["spin"],"schedulers":["default","gts"],"seeds":[1,2]}`
	resp, err := http.Post(srv.URL+"/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st campaign.Status
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()

	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		getJSON(t, srv.URL+"/campaigns/"+st.ID, &st)
		if st.State != campaign.StateRunning {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.State != campaign.StateDone || st.Done != 4 {
		t.Fatalf("remote campaign: %+v", st)
	}

	// The fleet status reflects the worker that did the cells.
	var qs campaign.QueueStats
	if code := getJSON(t, srv.URL+"/work/status", &qs); code != 200 {
		t.Fatalf("work status: %d", code)
	}
	if qs.Done != 4 || len(qs.Workers) != 1 || qs.Workers[0].Completed != 4 {
		t.Fatalf("queue stats: %+v", qs)
	}
}
