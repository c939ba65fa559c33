package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sync"

	"astro/internal/campaign"
	"astro/internal/hw"
	"astro/internal/scenario"
	"astro/internal/telemetry"
	"astro/internal/workloads"
)

// newServer wires the campaign engine into an HTTP handler. The API is
// JSON throughout:
//
//	GET    /healthz                  liveness probe (process up)
//	GET    /readyz                   readiness probe (store writable, sweeper live, fleet fresh)
//	GET    /api/benchmarks           bundled benchmark names
//	GET    /api/platforms            platform names
//	POST   /campaigns                submit a campaign.Spec; 202 + status
//	GET    /campaigns                status of every campaign, newest first
//	GET    /campaigns/{id}           one campaign's status
//	GET    /campaigns/{id}/results   aggregated result set (202 while running)
//	GET    /campaigns/{id}/events    Server-Sent Events progress stream
//	DELETE /campaigns/{id}           cancel a running campaign
//	POST   /scenarios                submit a scenario.Matrix; 202 + grouping
//	GET    /scenarios                every scenario, newest first
//	GET    /scenarios/{id}           one scenario's grouping + batch statuses
//	GET    /scenarios/{id}/report    scheduler report (202 while batches run)
//	GET    /scenarios/{id}/events    merged SSE stream across all batches
//	GET    /metrics                  Prometheus text exposition (process-wide)
//	POST   /work/lease               worker protocol: lease campaign cells
//	POST   /work/result              worker protocol: push a cell result
//	GET    /work/status              queue + per-worker fleet status
//	GET    /work/fleet               derived per-worker fleet view (rates, in-flight)
//	GET    /work/traces              coordinator-assembled per-cell traces
//	GET    /work/journal             flight-recorder events (cursor-paged; needs -journal)
//	GET    /work/agents/{key}        trained-agent snapshot fetch (read-only)
//
// The /work endpoints (campaign.WorkHandler) are always mounted; they only
// hand out cells when the engine runs with -remote, but snapshot fetches
// and status are live either way. Campaign SSE progress streams cover
// remote cells too — a leased cell's completion flows through the engine's
// progress path exactly like a locally simulated one.
//
// When pprofOn is true the net/http/pprof profiling endpoints are mounted
// under /debug/pprof/ (opt-in: profiles expose internals and cost CPU).
//
// workToken, when non-empty, guards every /work endpoint behind bearer
// auth (campaign.WithBearerAuth): workers must send
// "Authorization: Bearer <token>". The campaign/scenario API stays open —
// it is the /work surface that accepts result bytes into the store.
func newServer(eng *campaign.Engine, queue *campaign.WorkQueue, pprofOn bool, workToken string) http.Handler {
	mux := http.NewServeMux()
	scenarios := newScenarioStore()
	if queue != nil {
		mux.Handle("/work/", http.StripPrefix("/work",
			campaign.WithBearerAuth(workToken, campaign.WorkHandler(queue, eng.Store()))))
		h, _ := eng.Store().(campaign.Healther)
		mux.Handle("GET /readyz", campaign.ReadyHandler(queue, h))
	}
	mux.Handle("GET /metrics", telemetry.Handler(telemetry.Default))
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	writeJSON := func(w http.ResponseWriter, code int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(v)
	}
	writeErr := func(w http.ResponseWriter, code int, format string, args ...any) {
		writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
	}
	getCampaign := func(w http.ResponseWriter, r *http.Request) (*campaign.Campaign, bool) {
		id := r.PathValue("id")
		c, ok := eng.Get(id)
		if !ok {
			writeErr(w, http.StatusNotFound, "unknown campaign %q", id)
			return nil, false
		}
		return c, true
	}

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("GET /api/benchmarks", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, workloads.Names())
	})
	mux.HandleFunc("GET /api/platforms", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, hw.PlatformNames())
	})

	mux.HandleFunc("POST /campaigns", func(w http.ResponseWriter, r *http.Request) {
		var spec campaign.Spec
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			writeErr(w, http.StatusBadRequest, "bad campaign spec: %v", err)
			return
		}
		c, err := eng.Submit(spec)
		if err != nil {
			writeErr(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		w.Header().Set("Location", "/campaigns/"+c.ID)
		writeJSON(w, http.StatusAccepted, c.Status())
	})

	mux.HandleFunc("GET /campaigns", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, eng.List())
	})

	mux.HandleFunc("GET /campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		if c, ok := getCampaign(w, r); ok {
			writeJSON(w, http.StatusOK, c.Status())
		}
	})

	mux.HandleFunc("GET /campaigns/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		c, ok := getCampaign(w, r)
		if !ok {
			return
		}
		rs := c.Results()
		if rs == nil {
			writeJSON(w, http.StatusAccepted, c.Status())
			return
		}
		writeJSON(w, http.StatusOK, rs)
	})

	mux.HandleFunc("DELETE /campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		c, ok := getCampaign(w, r)
		if !ok {
			return
		}
		eng.Cancel(c.ID)
		writeJSON(w, http.StatusOK, c.Status())
	})

	mux.HandleFunc("POST /scenarios", func(w http.ResponseWriter, r *http.Request) {
		var m scenario.Matrix
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&m); err != nil {
			writeErr(w, http.StatusBadRequest, "bad scenario matrix: %v", err)
			return
		}
		run, err := scenarios.submit(eng, m)
		if err != nil {
			writeErr(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		w.Header().Set("Location", "/scenarios/"+run.ID)
		writeJSON(w, http.StatusAccepted, run)
	})

	mux.HandleFunc("GET /scenarios", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, scenarios.list())
	})

	getScenario := func(w http.ResponseWriter, r *http.Request) (*scenarioRun, bool) {
		run, ok := scenarios.get(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, "unknown scenario %q", r.PathValue("id"))
		}
		return run, ok
	}

	mux.HandleFunc("GET /scenarios/{id}", func(w http.ResponseWriter, r *http.Request) {
		run, ok := getScenario(w, r)
		if !ok {
			return
		}
		statuses := make([]campaign.Status, 0, len(run.Campaigns))
		for _, id := range run.Campaigns {
			if c, ok := eng.Get(id); ok {
				statuses = append(statuses, c.Status())
			}
		}
		writeJSON(w, http.StatusOK, map[string]any{"scenario": run, "batches": statuses})
	})

	mux.HandleFunc("GET /scenarios/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		run, ok := getScenario(w, r)
		if !ok {
			return
		}
		rep, pending, failed, batches := scenarios.report(eng, run)
		if failed > 0 {
			// Per-batch statuses ride along so the client sees which
			// batches sank the report, and how far the others got.
			writeJSON(w, http.StatusConflict, map[string]any{
				"error": fmt.Sprintf("%d of %d batches failed or were cancelled; report unavailable",
					failed, len(run.Campaigns)),
				"failed_batches":  failed,
				"pending_batches": pending,
				"batches":         batches,
			})
			return
		}
		if pending > 0 {
			// Partial-fleet progress: done/total cells, cache hits and
			// errors per batch, not just a count of unfinished batches.
			writeJSON(w, http.StatusAccepted, map[string]any{
				"pending_batches": pending,
				"batches":         batches,
			})
			return
		}
		writeJSON(w, http.StatusOK, rep)
	})

	mux.HandleFunc("GET /campaigns/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		c, ok := getCampaign(w, r)
		if !ok {
			return
		}
		flusher, canFlush := w.(http.Flusher)
		if !canFlush {
			writeErr(w, http.StatusInternalServerError, "streaming unsupported")
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("Connection", "keep-alive")
		w.WriteHeader(http.StatusOK)
		flusher.Flush()

		events, unsub := c.Subscribe()
		defer unsub()
		for {
			select {
			case <-r.Context().Done():
				return
			case ev, ok := <-events:
				if !ok {
					return
				}
				data, err := json.Marshal(ev)
				if err != nil {
					continue
				}
				fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
				flusher.Flush()
			}
		}
	})

	mux.HandleFunc("GET /scenarios/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		run, ok := getScenario(w, r)
		if !ok {
			return
		}
		flusher, canFlush := w.(http.Flusher)
		if !canFlush {
			writeErr(w, http.StatusInternalServerError, "streaming unsupported")
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("Connection", "keep-alive")
		w.WriteHeader(http.StatusOK)
		flusher.Flush()

		// Fan the per-batch campaign streams into one channel. Each batch
		// event is wrapped with its campaign ID so a dashboard can lay out
		// batches side by side; the merged stream ends when every batch has
		// published its terminal state event (all source channels closed).
		type batchEvent struct {
			Batch string `json:"batch"`
			campaign.Event
		}
		merged := make(chan batchEvent, 64)
		var wg sync.WaitGroup
		var unsubs []func()
		for _, id := range run.Campaigns {
			c, ok := eng.Get(id)
			if !ok {
				continue
			}
			events, unsub := c.Subscribe()
			unsubs = append(unsubs, unsub)
			wg.Add(1)
			go func(id string, events <-chan campaign.Event) {
				defer wg.Done()
				for ev := range events {
					select {
					case merged <- batchEvent{Batch: id, Event: ev}:
					case <-r.Context().Done():
						return
					}
				}
			}(id, events)
		}
		go func() { wg.Wait(); close(merged) }()
		defer func() {
			for _, unsub := range unsubs {
				unsub()
			}
		}()

		for {
			select {
			case <-r.Context().Done():
				return
			case ev, ok := <-merged:
				if !ok {
					return
				}
				data, err := json.Marshal(ev)
				if err != nil {
					continue
				}
				fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
				flusher.Flush()
			}
		}
	})

	return mux
}
