package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"astro/internal/campaign"
	"astro/internal/tablefmt"
	"astro/internal/telemetry"
)

// cmdFleet implements `astro fleet top`: a live terminal dashboard over
// a coordinator's /work/fleet, /work/status and /metrics endpoints —
// top(1) for the worker fleet. Each frame shows queue depth and
// throughput counters, then one row per worker with liveness, rates and
// the oldest in-flight cell. It is read-only: nothing here can mutate
// queue state, so it is safe to leave running against a production
// sweep.
func cmdFleet(args []string) error {
	if len(args) < 1 || args[0] != "top" {
		return fmt.Errorf("usage: astro fleet top [-coordinator URL] [-token t] [-interval d] [-frames N]")
	}
	fs := flag.NewFlagSet("fleet top", flag.ContinueOnError)
	coordinator := fs.String("coordinator", "http://localhost:8080", "coordinator base URL (astro-serve or astro-experiments -remote)")
	token := fs.String("token", "", "bearer token for coordinators started with -token")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	frames := fs.Int("frames", 0, "stop after N frames (0 = run until interrupted)")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	base := strings.TrimRight(*coordinator, "/")
	client := &http.Client{Timeout: 10 * time.Second}

	for n := 0; ; n++ {
		frame, err := fetchFleetFrame(client, base, *token)
		if err != nil {
			return err
		}
		if n > 0 || *frames != 1 {
			fmt.Print("\x1b[2J\x1b[H") // clear + home between refreshes
		}
		fmt.Print(renderFleetTop(frame))
		if *frames > 0 && n+1 >= *frames {
			return nil
		}
		time.Sleep(*interval)
	}
}

// fleetFrame is one dashboard refresh's worth of coordinator state.
type fleetFrame struct {
	When    time.Time
	Stats   campaign.QueueStats
	Fleet   campaign.FleetStatus
	Metrics map[string]float64
}

// fetchFleetFrame polls the three read endpoints. /metrics is optional
// (older coordinators, scrape hiccups): the dashboard degrades to the
// queue/fleet tables rather than dying mid-watch.
func fetchFleetFrame(client *http.Client, base, token string) (*fleetFrame, error) {
	f := &fleetFrame{When: time.Now(), Metrics: map[string]float64{}}
	if err := getJSON(client, base+"/work/status", token, &f.Stats); err != nil {
		return nil, fmt.Errorf("poll %s/work/status: %w", base, err)
	}
	if err := getJSON(client, base+"/work/fleet", token, &f.Fleet); err != nil {
		return nil, fmt.Errorf("poll %s/work/fleet: %w", base, err)
	}
	if resp, err := client.Get(base + "/metrics"); err == nil {
		if resp.StatusCode == http.StatusOK {
			f.Metrics = telemetry.ParseText(io.LimitReader(resp.Body, 4<<20))
		}
		resp.Body.Close()
	}
	return f, nil
}

func getJSON(client *http.Client, url, token string, v any) error {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(v)
}

// renderFleetTop formats one dashboard frame. Split from the poll loop
// so the layout is testable without a live coordinator.
func renderFleetTop(f *fleetFrame) string {
	var b strings.Builder
	fmt.Fprintf(&b, "astro fleet top — %s\n\n", f.When.Format("15:04:05"))

	qt := tablefmt.NewTable("pending", "leased", "done", "requeues", "rejects", "duplicates", "renewals")
	qt.Row(f.Stats.Pending, f.Stats.Leased, f.Stats.Done, f.Stats.Requeues,
		f.Stats.Rejects, f.Stats.Duplicates, f.Stats.Renewals)
	b.WriteString(qt.String())

	if len(f.Metrics) > 0 {
		mt := tablefmt.NewTable("metric", "value")
		for _, name := range []string{
			`astro_queue_completed_total{kind="sim"}`,
			`astro_queue_completed_total{kind="train"}`,
			"astro_journal_events_total",
			"astro_trace_evictions_total",
			`astro_faults_injected_total{site="queue"}`,
		} {
			if v, ok := f.Metrics[name]; ok {
				mt.Row(name, v)
			}
		}
		b.WriteString("\n")
		b.WriteString(mt.String())
	}

	b.WriteString("\n")
	wt := tablefmt.NewTable("worker", "state", "leased", "done", "errors", "cells/s", "idle", "in-flight", "for")
	for _, w := range f.Fleet.Workers {
		state := w.State
		if state == "" {
			state = "active"
		}
		inflight, dur := "-", "-"
		if w.InFlight != "" {
			inflight = shortKey(w.InFlight)
			if w.InFlightKind != "" {
				inflight += " (" + w.InFlightKind + ")"
			}
			dur = fmt.Sprintf("%.1fs", w.InFlightS)
		}
		wt.Row(w.ID, state, w.Leased, w.Completed, w.Errors,
			fmt.Sprintf("%.2f", w.CellsPerSec), fmt.Sprintf("%.1fs", w.IdleS), inflight, dur)
	}
	if len(f.Fleet.Workers) == 0 {
		wt.Row("(no workers yet)", "-", "-", "-", "-", "-", "-", "-", "-")
	}
	b.WriteString(wt.String())
	return b.String()
}
