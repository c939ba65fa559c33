package campaign

import (
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"strconv"
	"time"

	"astro/internal/journal"
	"astro/internal/telemetry"
)

// Worker protocol, coordinator side. WorkHandler serves the endpoints the
// pull-based workers speak (astro-serve mounts it under /work/, the CLI's
// in-process loopback cluster mounts the same handler):
//
//	POST /lease         LeaseRequest  -> LeaseResponse (content-addressed cells)
//	POST /renew         RenewRequest  -> RenewResponse (heartbeat: extend held leases)
//	POST /result        ResultSubmission -> ResultResponse (fsync-safe once stored)
//	POST /drain         DrainRequest  -> DrainResponse (drain or resume a worker)
//	GET  /status        QueueStats (pending/leased/done + per-worker counters)
//	GET  /fleet         FleetStatus (per-worker registry: liveness, throughput, in-flight cell)
//	GET  /journal       flight-recorder events after ?cursor=N (?n= caps the page)
//	GET  /traces        assembled per-cell traces, newest first (?campaign=, ?n=)
//	GET  /traces/{key}  one cell's trace
//	GET  /agents/{key}  trained-agent snapshot bytes from the shared store
//
// Leased cells are simulation jobs (WireJob kind "") or training cells
// (kind "train"); a training cell's result bytes are the trained-agent
// snapshot, validated to restore before any store sees it. The coordinator's
// store is the fleet's only shared store, and POST /result under a lease is
// the only remote way to write into it. Snapshots live there beside
// simulation results (keyed by TrainSpec.Key), and workers leasing
// hybrid-by-agent-key simulation cells fetch them read-only through
// GET /agents/{key}.

// LeaseRequest asks the coordinator for up to Max cells. LeaseErrors is
// the worker's cumulative count of failed lease attempts, self-reported
// so /work/fleet can show connectivity trouble the coordinator never
// observed directly (the failed connections never reached it).
type LeaseRequest struct {
	WorkerID    string `json:"worker_id"`
	Max         int    `json:"max"`
	LeaseErrors uint64 `json:"lease_errors,omitempty"`
}

// LeaseResponse carries the leased cells. An empty Cells slice means no
// work is available; the worker should poll again after RetryAfterMS.
type LeaseResponse struct {
	Cells        []*WireJob `json:"cells"`
	LeaseTTLMS   int64      `json:"lease_ttl_ms"`
	RetryAfterMS int64      `json:"retry_after_ms"`
}

// ResultSubmission pushes one cell's outcome back. Either Data (canonical
// sim.EncodeResult bytes) or Error (the worker could not execute the cell)
// is set. Spans carries the worker-side timing of the cell ("queued",
// "execute") for coordinator-side trace assembly; it is telemetry only
// and never touches validation, the store, or the result bytes.
type ResultSubmission struct {
	WorkerID string           `json:"worker_id"`
	Key      string           `json:"key"`
	Data     []byte           `json:"data,omitempty"`
	Error    string           `json:"error,omitempty"`
	Spans    []telemetry.Span `json:"spans,omitempty"`
}

// ResultResponse is the coordinator's verdict.
type ResultResponse struct {
	Status CompleteStatus `json:"status"`
}

// RenewRequest is the worker heartbeat: extend the leases it still holds
// on Keys. Workers send it at a third of the lease TTL while executing,
// which is what lets a short -lease-ttl coexist with cells (training
// especially) that run longer than the TTL.
type RenewRequest struct {
	WorkerID string   `json:"worker_id"`
	Keys     []string `json:"keys"`
}

// RenewResponse lists the keys actually renewed (request order). A key the
// worker sent that is absent here was not renewable — its lease expired
// and the cell has been re-queued or re-issued — and the worker abandons
// that cell rather than double-submitting a result another worker is
// already computing.
type RenewResponse struct {
	Renewed    []string `json:"renewed"`
	LeaseTTLMS int64    `json:"lease_ttl_ms"`
}

// DrainRequest flips a worker's coordinator-side state. Without Resume it
// drains: the worker receives no new cells, its held leases keep renewing
// and completing, and anything still held after GraceMS (0 = the lease
// TTL) is requeued. With Resume it returns a drained or quarantined
// worker to active.
type DrainRequest struct {
	WorkerID string `json:"worker_id"`
	GraceMS  int64  `json:"grace_ms,omitempty"`
	Resume   bool   `json:"resume,omitempty"`
}

// DrainResponse reports the worker's state after the transition and the
// held-lease count the drain is waiting on.
type DrainResponse struct {
	State string `json:"state"` // "active", "draining", or "quarantined"
	Held  int    `json:"held"`
}

// keyPattern is what a content address looks like: lowercase SHA-256 hex.
// The agents endpoint rejects anything else so a crafted path can never
// escape the store's key space.
var keyPattern = regexp.MustCompile(`^[0-9a-f]{64}$`)

// maxResultBytes bounds result and snapshot bodies on the wire. Canonical
// results are a few KB; DQN snapshots tens of KB. 32 MiB is paranoia, not a
// target.
const maxResultBytes = 32 << 20

// WorkHandler builds the coordinator HTTP handler over a queue and the
// shared store (which GET /agents reads). Mount it under a prefix with
// http.StripPrefix.
func WorkHandler(q *WorkQueue, store ResultStore) http.Handler {
	mux := http.NewServeMux()
	writeJSON := func(w http.ResponseWriter, code int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(v)
	}
	writeErr := func(w http.ResponseWriter, code int, format string, args ...any) {
		writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
	}

	mux.HandleFunc("POST /lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, "bad lease request: %v", err)
			return
		}
		if req.WorkerID == "" {
			writeErr(w, http.StatusBadRequest, "lease request needs worker_id")
			return
		}
		cells := q.Lease(req.WorkerID, req.Max)
		q.NoteWorkerLeaseErrors(req.WorkerID, req.LeaseErrors)
		writeJSON(w, http.StatusOK, LeaseResponse{
			Cells:        cells,
			LeaseTTLMS:   q.ttl.Milliseconds(),
			RetryAfterMS: 500,
		})
	})

	mux.HandleFunc("POST /renew", func(w http.ResponseWriter, r *http.Request) {
		var req RenewRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, "bad renew request: %v", err)
			return
		}
		if req.WorkerID == "" {
			writeErr(w, http.StatusBadRequest, "renew request needs worker_id")
			return
		}
		renewed := q.Renew(req.WorkerID, req.Keys)
		writeJSON(w, http.StatusOK, RenewResponse{
			Renewed:    renewed,
			LeaseTTLMS: q.ttl.Milliseconds(),
		})
	})

	mux.HandleFunc("POST /result", func(w http.ResponseWriter, r *http.Request) {
		var sub ResultSubmission
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxResultBytes)).Decode(&sub); err != nil {
			writeErr(w, http.StatusBadRequest, "bad result submission: %v", err)
			return
		}
		if sub.WorkerID == "" || sub.Key == "" {
			writeErr(w, http.StatusBadRequest, "result submission needs worker_id and key")
			return
		}
		// Same key discipline as the agents endpoint: a content address is
		// 64 hex chars, and nothing else may reach the store's path logic
		// (the unknown-key banking path writes Store.Put(key, ...) — an
		// unvalidated "../../x" key would escape the cache directory).
		if !keyPattern.MatchString(sub.Key) {
			writeErr(w, http.StatusBadRequest, "malformed key %q", sub.Key)
			return
		}
		st := q.CompleteSpans(sub.WorkerID, sub.Key, sub.Data, sub.Error, sub.Spans)
		code := http.StatusOK
		if st == CompleteRejected {
			code = http.StatusUnprocessableEntity
		}
		writeJSON(w, code, ResultResponse{Status: st})
	})

	mux.HandleFunc("POST /drain", func(w http.ResponseWriter, r *http.Request) {
		var req DrainRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, "bad drain request: %v", err)
			return
		}
		if req.WorkerID == "" {
			writeErr(w, http.StatusBadRequest, "drain request needs worker_id")
			return
		}
		var ws WorkerStatus
		if req.Resume {
			ws = q.Resume(req.WorkerID)
		} else {
			ws = q.Drain(req.WorkerID, time.Duration(req.GraceMS)*time.Millisecond)
		}
		state := ws.State
		if state == WorkerActive {
			state = "active"
		}
		writeJSON(w, http.StatusOK, DrainResponse{State: state, Held: ws.Leased})
	})

	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, q.Stats())
	})

	mux.HandleFunc("GET /fleet", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, q.Fleet())
	})

	mux.HandleFunc("GET /journal", func(w http.ResponseWriter, r *http.Request) {
		jr, ok := q.Events.(JournalReader)
		if !ok {
			writeErr(w, http.StatusNotFound, "journaling disabled (start the coordinator with -journal)")
			return
		}
		var cursor uint64
		if s := r.URL.Query().Get("cursor"); s != "" {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				writeErr(w, http.StatusBadRequest, "bad cursor %q", s)
				return
			}
			cursor = v
		}
		n := 1000
		if s := r.URL.Query().Get("n"); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v > 0 && v <= 10000 {
				n = v
			}
		}
		evs, err := jr.ReadSince(cursor, n)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, "read journal: %v", err)
			return
		}
		next := cursor
		if len(evs) > 0 {
			next = evs[len(evs)-1].Seq
		}
		if evs == nil {
			evs = []journal.Event{}
		}
		writeJSON(w, http.StatusOK, JournalPage{Events: evs, NextCursor: next})
	})

	mux.HandleFunc("GET /traces", func(w http.ResponseWriter, r *http.Request) {
		if q.Traces == nil {
			writeJSON(w, http.StatusOK, []telemetry.Trace{})
			return
		}
		n := 100
		if s := r.URL.Query().Get("n"); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v > 0 {
				n = v
			}
		}
		ts := q.Traces.List(r.URL.Query().Get("campaign"), n)
		if ts == nil {
			ts = []telemetry.Trace{}
		}
		writeJSON(w, http.StatusOK, ts)
	})

	mux.HandleFunc("GET /traces/{key}", func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		if !keyPattern.MatchString(key) {
			writeErr(w, http.StatusBadRequest, "malformed key %q", key)
			return
		}
		if q.Traces == nil {
			writeErr(w, http.StatusNotFound, "trace retention disabled")
			return
		}
		t, ok := q.Traces.Get(key)
		if !ok {
			writeErr(w, http.StatusNotFound, "no trace for %s", key)
			return
		}
		writeJSON(w, http.StatusOK, t)
	})

	mux.HandleFunc("GET /agents/{key}", func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		if !keyPattern.MatchString(key) {
			writeErr(w, http.StatusBadRequest, "malformed key %q", key)
			return
		}
		data, ok := store.Get(key)
		if !ok {
			writeErr(w, http.StatusNotFound, "no snapshot under %s", key)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	})

	return mux
}

// WithBearerAuth guards h behind a shared bearer token: every request
// must carry "Authorization: Bearer <token>" or is refused with 401. An
// empty token returns h unwrapped — today's trusted-network behavior —
// so callers can pass their -token flag through unconditionally. Mount
// it around WorkHandler to guard all /work endpoints:
//
//	http.StripPrefix("/work", campaign.WithBearerAuth(token, campaign.WorkHandler(q, store)))
//
// The comparison is constant-time; the token travels in a header, so run
// TLS (or a trusted network) if the path crosses machines you don't own.
func WithBearerAuth(token string, h http.Handler) http.Handler {
	if token == "" {
		return h
	}
	want := []byte("Bearer " + token)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if subtle.ConstantTimeCompare([]byte(r.Header.Get("Authorization")), want) != 1 {
			w.Header().Set("WWW-Authenticate", `Bearer realm="astro"`)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusUnauthorized)
			json.NewEncoder(w).Encode(map[string]string{"error": "missing or invalid bearer token"})
			return
		}
		h.ServeHTTP(w, r)
	})
}

// LeaseTTL exposes the queue's lease duration (for worker status lines).
func (q *WorkQueue) LeaseTTL() time.Duration { return q.ttl }
