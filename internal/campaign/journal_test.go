package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"astro/internal/journal"
)

// TestQueueJournalReplayMatchesStats scripts a full queue lifecycle —
// enqueue, lease, renew, complete, reject, worker error, expiry,
// attempt exhaustion, duplicate, drain/resume, cancel — against a real
// journal.Writer, then replays the journal and pins the reconstructed
// state to the live queue's Stats(), counter for counter. This is the
// equality `astro journal replay` relies on: the flight recorder is a
// faithful account of the scheduler, not an approximation.
func TestQueueJournalReplayMatchesStats(t *testing.T) {
	dir := t.TempDir()
	jw, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jw.Close()

	q := NewWorkQueue(time.Minute)
	now := fakeClock(q)
	q.Events = jw
	store := NewMemStore()
	q.Store = store

	sims := wireJobs(t, 2)
	a, b := sims[0], sims[1]
	c := wireTrainCell(t, 41)

	noop := func([]byte, error) {}
	q.Enqueue(a, noop)
	q.Enqueue(b, noop)
	q.Enqueue(c, noop)

	if got := q.Lease("w1", 2); len(got) != 2 {
		t.Fatalf("w1 leased %d cells, want 2", len(got))
	}
	if got := q.Lease("w2", 1); len(got) != 1 || got[0].Key != c.Key {
		t.Fatalf("w2 lease: %+v", got)
	}
	if renewed := q.Renew("w1", []string{a.Key}); len(renewed) != 1 {
		t.Fatalf("renewed %v", renewed)
	}

	// w1 finishes A; w2 burns C's attempts: one rejected submission, one
	// worker error, then expiry on the third lease exhausts the cell.
	if st := q.Complete("w1", a.Key, validResult(t, a), ""); st != CompleteAccepted {
		t.Fatalf("complete A: %v", st)
	}
	if st := q.Complete("w2", c.Key, []byte("junk"), ""); st != CompleteRejected {
		t.Fatalf("garbage for C: %v", st)
	}
	if got := q.Lease("w2", 1); len(got) != 1 {
		t.Fatalf("re-lease C: %+v", got)
	}
	if st := q.Complete("w2", c.Key, nil, "boom"); st != CompleteAccepted {
		t.Fatalf("worker error for C: %v", st)
	}
	if got := q.Lease("w2", 1); len(got) != 1 {
		t.Fatalf("third lease of C: %+v", got)
	}

	// Everything leased expires: B (attempt 1) requeues, C (attempt 3)
	// fails for good.
	*now = now.Add(2 * time.Minute)
	q.Sweep()

	if got := q.Lease("w3", 5); len(got) != 1 || got[0].Key != b.Key {
		t.Fatalf("w3 lease after sweep: %+v", got)
	}
	if st := q.Complete("w3", b.Key, validResult(t, b), ""); st != CompleteAccepted {
		t.Fatalf("complete B: %v", st)
	}
	// Late duplicate of A, a drain/resume cycle, and a cancelled cell.
	if st := q.Complete("w3", a.Key, validResult(t, a), ""); st != CompleteDuplicate {
		t.Fatalf("duplicate A: %v", st)
	}
	q.Drain("w2", 0)
	q.Resume("w2")
	cancel := q.Enqueue(wireTrainCell(t, 42), noop)
	if !cancel() {
		t.Fatal("cancel of fresh cell refused")
	}

	events, err := journal.ReadSince(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep := journal.Replay(events)
	live := q.Stats()

	if rep.Pending != live.Pending || rep.Leased != live.Leased || rep.Done != live.Done {
		t.Fatalf("population mismatch: replay %d/%d/%d, live %d/%d/%d",
			rep.Pending, rep.Leased, rep.Done, live.Pending, live.Leased, live.Done)
	}
	if rep.Requeues != live.Requeues || rep.Rejects != live.Rejects ||
		rep.Duplicates != live.Duplicates || rep.Renewals != live.Renewals {
		t.Fatalf("counter mismatch: replay {req %d rej %d dup %d ren %d}, live {req %d rej %d dup %d ren %d}",
			rep.Requeues, rep.Rejects, rep.Duplicates, rep.Renewals,
			live.Requeues, live.Rejects, live.Duplicates, live.Renewals)
	}
	if rep.Completes != 2 || rep.Fails != 1 || rep.Enqueued != 4 || rep.Cancels != 1 {
		t.Fatalf("replay extras: %+v", rep)
	}
	for _, lw := range live.Workers {
		rw := rep.Workers[lw.ID]
		if rw == nil {
			t.Fatalf("worker %s missing from replay", lw.ID)
		}
		if rw.Completed != lw.Completed || rw.Errors != lw.Errors ||
			rw.Rejects != lw.Rejects || rw.State != lw.State {
			t.Fatalf("worker %s: replay %+v, live %+v", lw.ID, rw, lw)
		}
	}

	// The audit invariant: every journaled completion is banked.
	for _, key := range rep.CompletedKeys() {
		if _, ok := store.Get(key); !ok {
			t.Fatalf("journaled completion %s not banked", key)
		}
	}
}

// TestQueueUnbankedCompletionJournaled: when the store refuses a
// completed cell's bytes, the cell still completes — its waiters get the
// bytes, and the replayed counters still equal the live ones — but the
// EvComplete carries the refusal as its cause, and replay leaves the key
// out of CompletedKeys, so the store audit does not expect it.
func TestQueueUnbankedCompletionJournaled(t *testing.T) {
	dir := t.TempDir()
	jw, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jw.Close()

	q := NewWorkQueue(time.Minute)
	fakeClock(q)
	q.Events = jw
	q.Store = refusingStore{}
	w := wireJobs(t, 1)[0]
	got := make(chan []byte, 1)
	q.Enqueue(w, func(data []byte, err error) {
		if err != nil {
			t.Errorf("waiter saw error: %v", err)
		}
		got <- data
	})
	if leased := q.Lease("w1", 1); len(leased) != 1 {
		t.Fatalf("lease: %+v", leased)
	}
	want := validResult(t, w)
	if st := q.Complete("w1", w.Key, want, ""); st != CompleteAccepted {
		t.Fatalf("complete: %v", st)
	}
	if data := <-got; string(data) != string(want) {
		t.Fatal("waiter did not get the submitted bytes")
	}

	events, err := journal.ReadSince(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var complete *journal.Event
	for i := range events {
		if events[i].Type == journal.EvComplete {
			complete = &events[i]
		}
	}
	if complete == nil || complete.Cause != "unbanked: store full" {
		t.Fatalf("EvComplete = %+v, want cause %q", complete, "unbanked: store full")
	}
	rep := journal.Replay(events)
	if live := q.Stats(); rep.Completes != 1 || rep.Done != live.Done || rep.Workers["w1"].Completed != 1 {
		t.Fatalf("replay %+v does not count the completion (live done %d)", rep, live.Done)
	}
	if keys := rep.CompletedKeys(); len(keys) != 0 {
		t.Fatalf("replay lists unbanked keys %v for the store audit", keys)
	}
}

// refusingStore is a ResultStore whose every Put fails.
type refusingStore struct{}

func (refusingStore) Get(string) ([]byte, bool) { return nil, false }
func (refusingStore) Put(string, []byte) error  { return errors.New("store full") }

// TestJournalSinkErrorsAreInert pins invariant 10's failure half: a sink
// whose Record always fails must not change any queue outcome.
func TestJournalSinkErrorsAreInert(t *testing.T) {
	q := NewWorkQueue(time.Minute)
	fakeClock(q)
	q.Events = failingSink{}
	w := wireJobs(t, 1)[0]
	donec := make(chan error, 1)
	q.Enqueue(w, func(_ []byte, err error) { donec <- err })
	if got := q.Lease("w1", 1); len(got) != 1 {
		t.Fatalf("lease under failing sink: %+v", got)
	}
	if st := q.Complete("w1", w.Key, validResult(t, w), ""); st != CompleteAccepted {
		t.Fatalf("complete under failing sink: %v", st)
	}
	if err := <-donec; err != nil {
		t.Fatalf("waiter saw error under failing sink: %v", err)
	}
}

type failingSink struct{}

func (failingSink) Record(journal.Event) (uint64, error) {
	return 0, errors.New("sink down")
}

// TestWorkJournalEndpoint drives GET /journal: cursor paging against a
// live writer, and 404 when journaling is off.
func TestWorkJournalEndpoint(t *testing.T) {
	dir := t.TempDir()
	jw, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jw.Close()
	q := NewWorkQueue(time.Minute)
	fakeClock(q)
	q.Events = jw
	srv := httptest.NewServer(WorkHandler(q, NewMemStore()))
	defer srv.Close()

	w := wireJobs(t, 1)[0]
	q.Enqueue(w, func([]byte, error) {})
	q.Lease("w1", 1)

	page := getJournalPage(t, srv.URL+"/journal")
	if len(page.Events) != 2 || page.Events[0].Type != journal.EvEnqueue || page.Events[1].Type != journal.EvLease {
		t.Fatalf("journal page: %+v", page)
	}
	if page.NextCursor != page.Events[1].Seq {
		t.Fatalf("next_cursor %d, want %d", page.NextCursor, page.Events[1].Seq)
	}
	// Tail from the cursor: empty page, cursor unchanged.
	tail := getJournalPage(t, fmt.Sprintf("%s/journal?cursor=%d", srv.URL, page.NextCursor))
	if len(tail.Events) != 0 || tail.NextCursor != page.NextCursor {
		t.Fatalf("tail page: %+v", tail)
	}
	// n caps the page.
	one := getJournalPage(t, srv.URL+"/journal?n=1")
	if len(one.Events) != 1 || one.NextCursor != one.Events[0].Seq {
		t.Fatalf("capped page: %+v", one)
	}

	// No sink (or a write-only one): the endpoint says so instead of
	// serving an empty journal that looks like a quiet fleet.
	qOff := NewWorkQueue(time.Minute)
	srvOff := httptest.NewServer(WorkHandler(qOff, NewMemStore()))
	defer srvOff.Close()
	resp, err := srvOff.Client().Get(srvOff.URL + "/journal")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("journal without sink: %d, want 404", resp.StatusCode)
	}
}

func getJournalPage(t *testing.T, url string) JournalPage {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	var page JournalPage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	return page
}

// TestJournalSegmentFiles sanity-checks the on-disk shape the queue
// produces: JSONL segments under the journal dir, readable cold (the
// postmortem path reads them with no writer alive).
func TestJournalSegmentFiles(t *testing.T) {
	dir := t.TempDir()
	jw, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := NewWorkQueue(time.Minute)
	fakeClock(q)
	q.Events = jw
	w := wireJobs(t, 1)[0]
	q.Enqueue(w, func([]byte, error) {})
	q.Lease("w1", 1)
	q.Complete("w1", w.Key, validResult(t, w), "")
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "journal-*.jsonl"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no journal segments in %s (err %v)", dir, err)
	}
	events, err := journal.ReadSince(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("cold read got %d events, want 3 (enqueue, lease, complete)", len(events))
	}
}
