package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"astro/internal/telemetry"
)

// TestWireCampaignFieldInert pins the inertness invariant for the telemetry
// fields on the wire envelopes: WireJob.Campaign is never read by
// Job()/TrainSpec(), so it cannot reach the recomputed content key, the
// execution, or the result bytes. The key-mismatch check that catches any
// tampered identity field (TestWireJobRoundTrip) therefore passes unchanged
// no matter what Campaign holds — including after a JSON round trip.
func TestWireCampaignFieldInert(t *testing.T) {
	w := wireJobs(t, 1)[0]
	if w.Campaign != "" {
		t.Fatalf("fresh wire job carries campaign %q", w.Campaign)
	}
	stamped := *w
	stamped.Campaign = "c000042"
	data, err := json.Marshal(&stamped)
	if err != nil {
		t.Fatal(err)
	}
	var rt WireJob
	if err := json.Unmarshal(data, &rt); err != nil {
		t.Fatal(err)
	}
	if rt.Campaign != "c000042" {
		t.Fatalf("campaign annotation lost in transit: %q", rt.Campaign)
	}
	j, err := rt.Job()
	if err != nil {
		t.Fatalf("campaign-stamped wire job rejected: %v", err)
	}
	if key, ok := j.Key(); !ok || key != w.Key {
		t.Fatalf("campaign annotation changed the key: %q vs %q", key, w.Key)
	}

	wt := wireTrainCell(t, 31)
	wt.Campaign = "c000042"
	ts, err := wt.TrainSpec()
	if err != nil {
		t.Fatalf("campaign-stamped train cell rejected: %v", err)
	}
	if key, err := ts.Key(); err != nil || key != wt.Key {
		t.Fatalf("campaign annotation changed the train key: %q (err %v) vs %q", key, err, wt.Key)
	}
}

// TestWireProgramFieldInert pins mixed-version compatibility: a lease from
// a coordinator built before program shipping was retired still carries a
// "program" field of compiled bytes. The worker ignores it — the cell
// decodes to the same key and the same job, and compiles its own module.
func TestWireProgramFieldInert(t *testing.T) {
	w := wireJobs(t, 1)[0]
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	if _, ok := fields["program"]; ok {
		t.Fatal("a fresh wire job carries a program field")
	}
	fields["program"] = json.RawMessage(`"bm90IGV2ZW4gYSB2YWxpZCBwcm9ncmFtIGFydGlmYWN0"`)
	if data, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	var rt WireJob
	if err := json.Unmarshal(data, &rt); err != nil {
		t.Fatalf("lease with a program field rejected: %v", err)
	}
	j, err := rt.Job()
	if err != nil {
		t.Fatalf("program-stamped wire job rejected: %v", err)
	}
	if key, ok := j.Key(); !ok || key != w.Key {
		t.Fatalf("program bytes changed the key: %q vs %q", key, w.Key)
	}
}

// TestFleetAndTraceAssembly is the loopback acceptance test for the fleet
// observability surface: a sweep through two pull-based workers over real
// HTTP yields live /work/fleet rows and a coordinator-assembled
// cross-machine trace per cell — the coordinator's lease_wait span joined
// with the worker's queued and execute spans from the result envelope —
// grouped under the submitting campaign's ID.
func TestFleetAndTraceAssembly(t *testing.T) {
	store := NewMemStore()
	q := NewWorkQueue(time.Minute)
	q.Store = store
	srv := httptest.NewServer(http.StripPrefix("/work", WorkHandler(q, store)))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, id := range []string{"worker-a", "worker-b"} {
		w := &Worker{Coordinator: srv.URL + "/work", ID: id, Max: 2, Poll: 5 * time.Millisecond}
		go w.Run(ctx)
	}

	spec := Spec{
		Benchmarks: []string{"micro"},
		Schedulers: []string{"default"},
		Seeds:      []int64{0, 1},
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	runner := &RemoteRunner{Queue: q, Store: store}
	runCtx := WithCampaignID(context.Background(), "c-fleet-test")
	outs, err := runner.Run(runCtx, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(jobs) {
		t.Fatalf("got %d outcomes for %d jobs", len(outs), len(jobs))
	}

	// One assembled trace per completed cell, grouped by campaign.
	traces := q.Traces.List("c-fleet-test", 0)
	if len(traces) != len(jobs) {
		t.Fatalf("assembled %d traces for %d cells", len(traces), len(jobs))
	}
	for _, tr := range traces {
		if tr.Worker == "" || tr.Kind != "sim" || tr.Campaign != "c-fleet-test" {
			t.Fatalf("trace incomplete: %+v", tr)
		}
		names := map[string]bool{}
		for _, s := range tr.Spans {
			names[s.Name] = true
		}
		for _, want := range []string{"lease_wait", "queued", "execute"} {
			if !names[want] {
				t.Fatalf("trace %s missing span %q: %+v", tr.Key, want, tr.Spans)
			}
		}
	}

	// The derived fleet view adds up: every completion is attributed, every
	// row carries liveness columns, and nothing is still leased.
	fleet := q.Fleet()
	total := 0
	for _, fw := range fleet.Workers {
		total += fw.Completed
		if fw.FirstSeen.IsZero() || fw.AgeS < 0 || fw.IdleS < 0 {
			t.Fatalf("fleet row missing liveness: %+v", fw)
		}
		if fw.Leased != 0 || fw.InFlight != "" {
			t.Fatalf("drained fleet still shows in-flight work: %+v", fw)
		}
	}
	if total != len(jobs) {
		t.Fatalf("fleet rows account for %d completions, want %d", total, len(jobs))
	}

	// The same views over HTTP.
	var httpFleet FleetStatus
	getJSON(t, srv.URL+"/work/fleet", &httpFleet)
	if len(httpFleet.Workers) != len(fleet.Workers) {
		t.Fatalf("/work/fleet shows %d workers, want %d", len(httpFleet.Workers), len(fleet.Workers))
	}
	var httpTraces []telemetry.Trace
	getJSON(t, srv.URL+"/work/traces?campaign=c-fleet-test&n="+fmt.Sprint(len(jobs)), &httpTraces)
	if len(httpTraces) != len(jobs) {
		t.Fatalf("/work/traces returned %d traces, want %d", len(httpTraces), len(jobs))
	}
	var one telemetry.Trace
	getJSON(t, srv.URL+"/work/traces/"+httpTraces[0].Key, &one)
	if one.Key != httpTraces[0].Key || len(one.Spans) == 0 {
		t.Fatalf("/work/traces/{key} returned %+v", one)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// TestNoteWorkerLeaseErrors pins the self-reported lease-error semantics:
// the count is a cumulative max (lease requests may arrive out of order),
// and a report can never mint a worker row that no lease created.
func TestNoteWorkerLeaseErrors(t *testing.T) {
	q := NewWorkQueue(time.Minute)
	q.NoteWorkerLeaseErrors("ghost", 7)
	if st := q.Stats(); len(st.Workers) != 0 {
		t.Fatalf("lease-error report minted a worker row: %+v", st.Workers)
	}
	q.Lease("w1", 1) // registers the worker (queue is empty; that is fine)
	q.NoteWorkerLeaseErrors("w1", 3)
	q.NoteWorkerLeaseErrors("w1", 2) // stale, lower: ignored
	st := q.Stats()
	if len(st.Workers) != 1 || st.Workers[0].LeaseErrors != 3 {
		t.Fatalf("lease errors = %+v, want w1:3", st.Workers)
	}
}

// TestWorkStatusHammer is the satellite-2 regression test: many goroutines
// lease, renew, complete, error and abandon cells concurrently against a
// short real TTL (so leases genuinely expire and re-issue mid-hammer),
// while another goroutine snapshots /work/status. At the end the counters
// must sum consistently: nothing pending or leased, every cell finished
// exactly once, and the per-worker Completed columns add up to exactly the
// accepted completions. Run under -race in CI.
func TestWorkStatusHammer(t *testing.T) {
	wires := wireJobs(t, 2)
	data := validResult(t, wires[0]) // any canonical bytes pass validation

	q := NewWorkQueue(40 * time.Millisecond)
	const cells = 64
	var finished, failed atomic.Int64
	for i := 0; i < cells; i++ {
		w := *wires[i%len(wires)]
		w.Key = fmt.Sprintf("%064x", i+1) // distinct synthetic content keys
		q.Enqueue(&w, func(_ []byte, err error) {
			if err != nil {
				failed.Add(1) // exhausted its attempts on errors/expiries
			}
			finished.Add(1)
		})
	}

	var accepted atomic.Int64
	stop := make(chan struct{})
	var snaps sync.WaitGroup
	snaps.Add(1)
	go func() { // concurrent /work/status reader
		defer snaps.Done()
		for {
			select {
			case <-stop:
				return
			default:
				st := q.Stats()
				if st.Pending < 0 || st.Leased < 0 {
					panic(fmt.Sprintf("negative population: %+v", st))
				}
				q.Fleet()
				time.Sleep(time.Millisecond)
			}
		}
	}()

	var wg sync.WaitGroup
	for wi := 0; wi < 6; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			id := fmt.Sprintf("hammer-%d", wi)
			step := 0
			for finished.Load() < cells {
				leased := q.Lease(id, 2)
				if len(leased) == 0 {
					time.Sleep(2 * time.Millisecond)
					continue
				}
				for _, c := range leased {
					step++
					switch step % 5 {
					case 0:
						// Abandon: let the lease expire and re-issue.
					case 1:
						q.Complete(id, c.Key, nil, "induced failure")
					case 2:
						keys := q.Renew(id, []string{c.Key})
						if len(keys) > 1 {
							panic("renewed more keys than named")
						}
						fallthrough
					default:
						if q.Complete(id, c.Key, data, "") == CompleteAccepted {
							accepted.Add(1)
						}
					}
				}
			}
		}(wi)
	}
	wg.Wait()
	close(stop)
	snaps.Wait()
	q.Sweep()

	st := q.Stats()
	if st.Pending != 0 || st.Leased != 0 {
		t.Fatalf("drained queue still has pending=%d leased=%d", st.Pending, st.Leased)
	}
	if st.Done != cells {
		t.Fatalf("queue done=%d, want %d", st.Done, cells)
	}
	if got := finished.Load(); got != cells {
		t.Fatalf("waiters fired %d times for %d cells", got, cells)
	}
	var completed, leasedNow int
	for _, w := range st.Workers {
		completed += w.Completed
		leasedNow += w.Leased
	}
	if int64(completed) != accepted.Load() {
		t.Fatalf("per-worker Completed sums to %d, accepted %d", completed, accepted.Load())
	}
	if leasedNow != 0 {
		t.Fatalf("per-worker Leased sums to %d after drain", leasedNow)
	}
	// Every cell either completed exactly once or failed permanently after
	// exhausting its attempts; the two partitions cover the queue.
	if int64(completed)+failed.Load() != cells {
		t.Fatalf("completed %d + failed %d != %d cells", completed, failed.Load(), cells)
	}
}
