package main

import (
	"strings"
	"testing"
	"time"

	"astro/internal/campaign"
	"astro/internal/journal"
)

func TestRenderFleetTop(t *testing.T) {
	f := &fleetFrame{
		When: time.Date(2026, 8, 8, 12, 30, 0, 0, time.UTC),
		Stats: campaign.QueueStats{
			Pending: 3, Leased: 2, Done: 95, Requeues: 7, Rejects: 4, Duplicates: 1, Renewals: 12,
		},
		Fleet: campaign.FleetStatus{Workers: []campaign.FleetWorker{
			{
				WorkerStatus: campaign.WorkerStatus{ID: "w-steady", Leased: 2, Completed: 60, Errors: 1},
				CellsPerSec:  1.25, IdleS: 0.3,
				InFlight: "deadbeefdeadbeefdeadbeef", InFlightKind: "sim", InFlightS: 2.5,
			},
			{
				WorkerStatus: campaign.WorkerStatus{ID: "w-corrupt", State: campaign.WorkerQuarantined, Rejects: 3},
			},
		}},
		Metrics: map[string]float64{
			"astro_journal_events_total":              372,
			"astro_trace_evictions_total":             5,
			`astro_queue_completed_total{kind="sim"}`: 95,
		},
	}
	out := renderFleetTop(f)
	for _, want := range []string{
		"astro fleet top", "12:30:00",
		"pending", "95", // queue table
		"astro_journal_events_total", "372",
		"astro_trace_evictions_total",
		"w-steady", "active", "deadbeefdead…", "(sim)", "2.5s",
		"w-corrupt", campaign.WorkerQuarantined,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	// Every cell is leased to the fleet; the coordinator runs none itself.
	if strings.Contains(out, "local") {
		t.Errorf("frame still reports coordinator-local cells:\n%s", out)
	}

	// No workers yet: the table says so instead of rendering empty.
	empty := &fleetFrame{When: f.When, Metrics: map[string]float64{}}
	if out := renderFleetTop(empty); !strings.Contains(out, "(no workers yet)") {
		t.Errorf("empty fleet frame:\n%s", out)
	}
}

// TestJournalReplayCommand drives the postmortem path end to end on a
// hand-built journal: replay, render, and the store audit in both the
// reconciling and the missing-bytes case.
func TestJournalReplayCommand(t *testing.T) {
	dir := t.TempDir()
	jw, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ab", 32)
	lost := strings.Repeat("cd", 32)
	for _, ev := range []journal.Event{
		{Type: journal.EvEnqueue, Key: key},
		{Type: journal.EvEnqueue, Key: lost},
		{Type: journal.EvLease, Key: key, Worker: "w1", Attempt: 1},
		{Type: journal.EvLease, Key: lost, Worker: "w1", Attempt: 1},
		{Type: journal.EvComplete, Key: key, Worker: "w1"},
		{Type: journal.EvComplete, Key: lost, Worker: "w1"},
	} {
		if _, err := jw.Record(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := journal.ReadSince(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := journal.Replay(events)
	out := renderReplay(st)
	for _, want := range []string{"replayed 6 events", "w1", "active"} {
		if !strings.Contains(out, want) {
			t.Errorf("replay render missing %q:\n%s", want, out)
		}
	}

	// A store holding only one of the two journaled completions: the
	// audit banks one and names the other.
	store := campaign.NewMemStore()
	store.Put(key, []byte("bytes"))
	banked, missing := auditStore(st, store)
	if banked != 1 || len(missing) != 1 || missing[0] != lost {
		t.Fatalf("audit: banked %d, missing %v", banked, missing)
	}
	store.Put(lost, []byte("recovered"))
	if banked, missing := auditStore(st, store); banked != 2 || len(missing) != 0 {
		t.Fatalf("reconciled audit: banked %d, missing %v", banked, missing)
	}
}
