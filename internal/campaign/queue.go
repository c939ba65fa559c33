package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"astro/internal/journal"
	"astro/internal/sim"
	"astro/internal/telemetry"
)

// WorkQueue is the coordinator side of the pull-based worker protocol: a
// deduplicated queue of campaign cells — simulation and training leases
// alike — keyed by content address, with per-cell leases that expire and
// re-issue when a worker dies mid-cell and renew in-protocol while the
// holder keeps heartbeating.
//
// Cell lifecycle (the worker-protocol state machine, also documented in
// DESIGN.md):
//
//	          Enqueue                Lease                Complete(ok)
//	(absent) ────────▶ pending ──────────────▶ leased ────────────────▶ done
//	                      ▲                   ▲      │
//	                      │      Renew (held, │      │
//	                      │      unexpired) ──┘      │
//	                      │   lease expired, or      │
//	                      │   worker error, or       │
//	                      │   malformed result, or   │ attempts > MaxAttempts
//	                      │   holder drained past    ▼
//	                      └── its deadline ───────  done(err)
//
// Workers have their own state machine layered on top (tracked in
// WorkerStatus.State, exposed by /work/status and /work/fleet):
//
//	         Drain                    deadline passes
//	active ─────────▶ draining ──────────────────────▶ (held leases requeue)
//	   │    ▲            │ Resume
//	   │    └────────────┘
//	   │   QuarantineAfter rejected submissions        Resume
//	   └──────────────────────────────▶ quarantined ──────────▶ active
//
// Draining and quarantined workers receive no cells from Lease; their
// held leases still renew, and their valid results still complete cells
// (drain: "finish what you hold"; quarantine: a valid result is valid
// no matter who sent it — validation, not trust, guards the store).
//
// Invariants the failure-path tests pin:
//
//   - A key is enqueued once no matter how many campaigns want it; later
//     Enqueues of a pending/leased key attach additional waiters.
//   - A lease that expires re-queues the cell at the front (the retried
//     cell goes out before fresh work) and counts an attempt.
//   - Renewal extends exactly the named leases, only while the submitter
//     still holds them unexpired; a renew-after-expiry is rejected and the
//     expired cell is already waiting at the queue front.
//   - The first valid result wins; duplicate submissions — the expired
//     worker finishing late — are acknowledged as duplicates and change
//     nothing.
//   - A result that is not the canonical bytes of its cell's kind (a
//     sim.EncodeResult result, or a restorable trained-agent snapshot) is
//     rejected before any waiter (and therefore any store) sees it, and
//     the cell is re-queued.
//   - Error or malformed submissions from a worker that no longer holds
//     the lease (it expired and the cell moved on) are ignored: a stale
//     failure must not re-queue or fail a cell a healthy worker is
//     executing.
//   - A cell that exhausts MaxAttempts completes with an error so campaigns
//     fail loudly instead of hanging on a poisoned cell.
//   - Done cells are evicted immediately: completed bytes live in the
//     ResultStore (which runners consult before enqueueing), a bounded
//     done-key set keeps duplicate detection, and a permanently failed
//     cell is forgotten entirely — a resubmitted campaign retries fresh
//     instead of replaying a stale error forever. The queue's footprint is
//     therefore proportional to in-flight work, not to history.
//
// All methods are safe for concurrent use. Time is read through an
// injectable clock so lease expiry is testable without sleeping.
type WorkQueue struct {
	// Store, when non-nil, receives every validated result the queue
	// accepts — including results whose waiters were all cancelled (a
	// cancelled campaign's in-flight cells), which would otherwise be
	// discarded with the simulation already paid for. Set it before
	// serving; it must be the same store the runners consult.
	Store ResultStore

	// Traces, when non-nil, receives one assembled per-cell trace on every
	// accepted completion: the worker's spans from the result envelope plus
	// the coordinator's own lease_wait span. NewWorkQueue installs a
	// bounded default store; GET /work/traces serves it.
	Traces *telemetry.TraceStore

	// Faults, when non-nil, injects coordinator-side faults (chaos
	// drills): FaultDrop on FaultOpComplete acknowledges a result
	// submission and then discards it, so the lease expires and the cell
	// re-issues — the "coordinator lost the result after the ack" case.
	// Set before serving.
	Faults FaultPolicy

	// QuarantineAfter is the rejected-submission count at which a worker
	// is quarantined (no further leases until Resume). NewWorkQueue sets
	// the default (3); non-positive disables quarantine. Set before
	// serving.
	QuarantineAfter int

	// Events, when non-nil, receives one journal.Event per lifecycle
	// transition — the flight-recorder seam. Emission never fails or
	// delays a queue operation (DESIGN.md invariant 10: journaling is
	// inert on campaign outputs). Set before serving.
	Events EventSink

	mu sync.Mutex

	ttl         time.Duration
	maxAttempts int
	now         func() time.Time

	order    []string // FIFO of (possibly stale) pending keys
	cells    map[string]*workCell
	leased   map[string]*workCell // the cellLeased subset of cells, so expiry sweeps touch only in-flight leases, not the whole campaign
	doneKeys map[string]bool      // successfully completed keys, for duplicate detection
	workers  map[string]*WorkerStatus

	nextWaiter int
	done       int
	requeues   uint64
	rejects    uint64
	duplicates uint64
	renewals   uint64

	// Sweeper bookkeeping for /readyz: every entry point sweeps, so
	// lastSweep advances with traffic as well as with the ticker.
	sweeperOn     bool
	sweepInterval time.Duration
	lastSweep     time.Time
}

// maxDoneKeys bounds the duplicate-detection set. Past the cap it resets:
// the only cost is that a very late duplicate of a very old cell reports
// "unknown" instead of "duplicate" — workers ignore both.
const maxDoneKeys = 1 << 20

type cellState uint8

const (
	cellPending cellState = iota
	cellLeased
	cellDone
)

type workCell struct {
	wire     *WireJob
	state    cellState
	worker   string
	expires  time.Time
	attempts int
	waiters  map[int]func(data []byte, err error)

	// pinned is the trained-agent snapshot key this cell holds a store pin
	// on (hybrid cells reference their agent by content key; workers fetch
	// it from the coordinator's store, so a bounded store must not evict it
	// while this cell is in flight). Pinned on cell creation, unpinned
	// exactly once — when the cell finishes or its last waiter cancels.
	pinned string

	// Telemetry timestamps (never consulted by the lease machinery):
	// enqueuedAt→first lease is the lease_wait span; leasedAt anchors the
	// in-flight elapsed column of /work/fleet.
	enqueuedAt time.Time
	leasedAt   time.Time
}

// CompleteStatus is the coordinator's verdict on a result submission.
type CompleteStatus string

const (
	CompleteAccepted  CompleteStatus = "accepted"
	CompleteDuplicate CompleteStatus = "duplicate" // cell already done; submission ignored
	CompleteRejected  CompleteStatus = "rejected"  // malformed result; cell re-queued
	CompleteUnknown   CompleteStatus = "unknown"   // key never enqueued or withdrawn
)

// Worker states (WorkerStatus.State). The zero value is active so the
// JSON of a healthy fleet is unchanged from before draining existed.
const (
	WorkerActive      = ""            // leasing normally
	WorkerDraining    = "draining"    // finishes held leases, receives no new cells
	WorkerQuarantined = "quarantined" // repeatedly rejected submissions; receives no new cells
)

// WorkerStatus is one worker's view in /work/status: liveness and the
// lease/completion counters the operator watches during a multi-machine
// sweep.
type WorkerStatus struct {
	ID        string    `json:"id"`
	FirstSeen time.Time `json:"first_seen"`
	LastSeen  time.Time `json:"last_seen"`
	Leased    int       `json:"leased"` // cells currently leased to this worker
	Completed int       `json:"completed"`
	Errors    int       `json:"errors"`
	// State is WorkerActive (""), WorkerDraining, or WorkerQuarantined.
	// Draining and quarantined workers receive no cells from Lease.
	State string `json:"state,omitempty"`
	// Rejects counts this worker's submissions rejected by validation —
	// the signal quarantine triggers on (Errors also includes worker-side
	// execution failures, which are honest and must not quarantine).
	Rejects int `json:"rejects,omitempty"`
	// LeaseErrors is the worker's own cumulative count of failed lease
	// attempts (coordinator unreachable, HTTP 5xx), self-reported in each
	// lease request — the coordinator cannot observe connections that never
	// reached it.
	LeaseErrors uint64 `json:"lease_errors,omitempty"`

	// drainDeadline: while draining, when the coordinator stops waiting
	// and requeues whatever this worker still holds.
	drainDeadline time.Time
}

// QueueStats is the aggregate queue snapshot.
type QueueStats struct {
	Pending    int            `json:"pending"`
	Leased     int            `json:"leased"`
	Done       int            `json:"done"`
	Requeues   uint64         `json:"requeues"`
	Rejects    uint64         `json:"rejects"`
	Duplicates uint64         `json:"duplicates"`
	Renewals   uint64         `json:"renewals"`
	Workers    []WorkerStatus `json:"workers"`
}

// DefaultLeaseTTL is how long a worker holds a cell before the coordinator
// re-issues it. It bounds the latency cost of a killed worker: its cells
// re-enter the queue one TTL later. Healthy workers renew their leases
// in-protocol (POST /work/renew, sent by the worker's heartbeat at a
// third of the TTL), so the TTL no longer needs to exceed the slowest
// cell — a short TTL coexists with long-running training cells, and only
// a worker that stops heartbeating loses its leases.
const DefaultLeaseTTL = 2 * time.Minute

// NewWorkQueue builds a queue with the given lease TTL (0 =
// DefaultLeaseTTL) and the default 3-attempt cap per cell.
func NewWorkQueue(ttl time.Duration) *WorkQueue {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	return &WorkQueue{
		ttl:             ttl,
		maxAttempts:     3,
		now:             time.Now,
		cells:           map[string]*workCell{},
		leased:          map[string]*workCell{},
		doneKeys:        map[string]bool{},
		workers:         map[string]*WorkerStatus{},
		Traces:          telemetry.NewTraceStore(0),
		QuarantineAfter: 3,
	}
}

// SetMaxAttempts overrides the per-cell lease-attempt cap (default 3).
// Chaos configurations raise it so injected faults burn attempts without
// failing cells; n < 1 is ignored.
func (q *WorkQueue) SetMaxAttempts(n int) {
	if n < 1 {
		return
	}
	q.mu.Lock()
	q.maxAttempts = n
	q.mu.Unlock()
}

// Enqueue registers a cell and a completion callback: the callback joins
// the waiters of the key's in-flight cell, or a fresh pending cell is
// created. (Completed cells are evicted — callers consult the ResultStore
// before enqueueing, so reaching Enqueue for an already-done key means the
// store lost the bytes and re-simulating is the correct response.) The
// returned cancel function detaches the callback and reports whether it
// succeeded: true means the callback will never be invoked (the caller
// owns the outcome); false means the callback has already run or is being
// invoked concurrently. Cancelling the last waiter of a still-pending cell
// drops the cell entirely — the campaign was cancelled before any worker
// picked it up.
func (q *WorkQueue) Enqueue(wire *WireJob, done func(data []byte, err error)) (cancel func() bool) {
	q.mu.Lock()
	c, ok := q.cells[wire.Key]
	if !ok {
		c = &workCell{wire: wire, waiters: map[int]func([]byte, error){}, enqueuedAt: q.now()}
		// A hybrid cell's trained-agent snapshot must survive in the store
		// until every worker that might lease this cell has fetched it:
		// pin it for the cell's lifetime (released in finishLocked or when
		// the last waiter cancels). Pinning is per-cell, not per-waiter —
		// the ledger refcounts across cells sharing an agent.
		if ps, ok := q.Store.(PinStore); ok && wire.AgentKey != "" {
			ps.Pin(wire.AgentKey)
			c.pinned = wire.AgentKey
		}
		q.cells[wire.Key] = c
		q.order = append(q.order, wire.Key)
		cQEnqueued.Inc()
		q.emit(journal.Event{Type: journal.EvEnqueue, Key: wire.Key, Kind: wire.Kind, Campaign: wire.Campaign})
	}
	id := q.nextWaiter
	q.nextWaiter++
	c.waiters[id] = done
	q.noteGaugesLocked()
	q.mu.Unlock()

	key := wire.Key
	return func() bool {
		q.mu.Lock()
		defer q.mu.Unlock()
		cc, ok := q.cells[key]
		if !ok || cc != c {
			return false
		}
		if _, attached := cc.waiters[id]; !attached {
			return false // finishLocked already snapshotted it
		}
		delete(cc.waiters, id)
		if len(cc.waiters) == 0 && cc.state == cellPending {
			// Lazy removal: the key stays in order but Lease skips cells
			// that are gone from the map.
			delete(q.cells, key)
			q.unpinLocked(cc)
			q.emit(journal.Event{Type: journal.EvCancel, Key: key})
		}
		return true
	}
}

// Lease hands out up to max pending cells to workerID, marking each leased
// until now+TTL. Expired leases are swept (re-queued) first, so a dead
// worker's cells are re-issued by the very next lease call from anyone.
// Draining and quarantined workers get nothing: their lease calls still
// refresh liveness (and still sweep), but no cell is issued to a worker
// that is leaving or untrusted.
func (q *WorkQueue) Lease(workerID string, max int) []*WireJob {
	if max <= 0 {
		max = 1
	}
	q.mu.Lock()
	now := q.now()
	expired := q.sweepLocked(now)
	w := q.workerLocked(workerID, now)
	if w.State != WorkerActive {
		q.noteGaugesLocked()
		q.mu.Unlock()
		expired()
		return nil
	}

	var out []*WireJob
	keep := q.order[:0]
	for _, key := range q.order {
		c, ok := q.cells[key]
		if !ok || c.state != cellPending {
			continue // stale entry (withdrawn, already leased via requeue, or done)
		}
		if len(out) < max {
			c.state = cellLeased
			c.worker = workerID
			c.expires = now.Add(q.ttl)
			c.attempts++
			c.leasedAt = now
			q.leased[key] = c
			w.Leased++
			out = append(out, c.wire)
			cQLeased.Inc()
			q.emit(journal.Event{Type: journal.EvLease, Key: key, Worker: workerID, Kind: c.wire.Kind, Attempt: c.attempts})
			if c.attempts == 1 {
				hQLeaseWait.Observe(now.Sub(c.enqueuedAt).Seconds())
			}
			continue
		}
		keep = append(keep, key)
	}
	q.order = keep
	q.noteGaugesLocked()
	q.mu.Unlock()
	expired()
	return out
}

// Complete records a worker's result for key. workerErr, when non-empty, is
// the worker reporting that it could not execute the cell (module decode
// failure, simulation error): the cell is re-queued, or failed outright
// once its attempts are exhausted. Valid data completes the cell and wakes
// every waiter; see CompleteStatus for the other verdicts.
//
// A valid result is accepted from any submitter — the first one wins, even
// a worker whose lease expired (its simulation is just as deterministic).
// Failure reports, by contrast, only count when the submitter still holds
// the lease: a stale error from an expired worker must not re-queue or
// fail a cell that a healthy worker is currently executing.
func (q *WorkQueue) Complete(workerID, key string, data []byte, workerErr string) CompleteStatus {
	return q.CompleteSpans(workerID, key, data, workerErr, nil)
}

// CompleteSpans is Complete with the worker's per-cell spans from the
// result envelope. On an accepted success the coordinator assembles the
// cross-machine trace: the worker's spans plus its own lease_wait span
// (enqueue → first lease), keyed by cell content key and annotated with
// the campaign that enqueued it.
func (q *WorkQueue) CompleteSpans(workerID, key string, data []byte, workerErr string, spans []telemetry.Span) CompleteStatus {
	// Chaos seam: a coordinator that loses a result after acknowledging
	// it. The worker moves on, the lease expires, the cell re-issues —
	// the protocol recovers exactly as it would from the real thing.
	if q.Faults != nil && workerErr == "" && q.Faults.Fault(FaultOpComplete, workerID, key) == FaultDrop {
		cQFaultsInjected.Inc()
		q.emit(journal.Event{Type: journal.EvFault, Key: key, Worker: workerID, Cause: "drop_complete"})
		return CompleteAccepted
	}
	q.mu.Lock()
	now := q.now()
	expired := q.sweepLocked(now)
	w := q.workerLocked(workerID, now)

	c, ok := q.cells[key]
	if !ok {
		var st CompleteStatus = CompleteUnknown
		if q.doneKeys[key] {
			q.duplicates++
			cQDuplicates.Inc()
			q.emit(journal.Event{Type: journal.EvDuplicate, Key: key, Worker: workerID})
			st = CompleteDuplicate
		}
		q.mu.Unlock()
		expired()
		// A valid result for a key the queue no longer tracks — the cell
		// was withdrawn, or failed after its leases expired while this
		// worker was still computing — is still finished work. Bank the
		// bytes so the next campaign wanting this key is warm. The cell's
		// kind is gone with the cell, so accept either canonical form.
		// Only well-formed content addresses may reach the store's path
		// logic (the HTTP handler rejects others; this guards direct
		// callers too).
		if st == CompleteUnknown && workerErr == "" && q.Store != nil && keyPattern.MatchString(key) {
			if validateWireResult(KindSim, data) == nil || validateWireResult(KindTrain, data) == nil {
				if q.Store.Put(key, data) == nil {
					q.emit(journal.Event{Type: journal.EvBank, Key: key, Worker: workerID})
				}
			}
		}
		return st
	}
	holds := c.state == cellLeased && c.worker == workerID
	if holds {
		w.Leased--
	}
	if workerErr != "" {
		w.Errors++
		q.emit(journal.Event{Type: journal.EvError, Key: key, Worker: workerID, Cause: workerErr})
		if !holds {
			// Stale failure report: the lease moved on. Ignore it.
			q.mu.Unlock()
			expired()
			return CompleteUnknown
		}
		st := q.retryOrFailLocked(c, key, "error", fmt.Errorf("campaign: worker %s: %s", workerID, workerErr))
		q.noteGaugesLocked()
		q.mu.Unlock()
		expired()
		st()
		return CompleteAccepted
	}
	// Validate before any waiter (and any store behind it) can see the
	// bytes: a malformed result must not poison the content-addressed
	// store, whose entries are trusted as canonical on every warm run.
	// Validation is per-kind — a training cell's bytes must be a
	// trained-agent snapshot whose agent restores, not a sim result.
	if err := validateWireResult(c.wire.Kind, data); err != nil {
		q.rejects++
		cQRejects.Inc()
		w.Errors++
		q.emit(journal.Event{Type: journal.EvReject, Key: key, Worker: workerID, Cause: err.Error()})
		q.noteRejectLocked(w)
		if !holds {
			// Stale garbage: reject without disturbing the current holder.
			q.mu.Unlock()
			expired()
			return CompleteRejected
		}
		st := q.retryOrFailLocked(c, key, "reject", fmt.Errorf("campaign: worker %s sent malformed result for %s: %w", workerID, key, err))
		q.noteGaugesLocked()
		q.mu.Unlock()
		expired()
		st()
		return CompleteRejected
	}
	// The cell is finishing; if another worker currently holds the lease
	// (ours expired and it was re-issued), release *its* lease accounting
	// too — its eventual submission will find the cell gone and report as
	// a duplicate, never reaching this bookkeeping.
	if c.state == cellLeased && !holds {
		if hw, ok := q.workers[c.worker]; ok {
			hw.Leased--
		}
	}
	w.Completed++
	if c.wire.Kind == KindTrain {
		cQDoneTrain.Inc()
	} else {
		cQDoneSim.Inc()
	}
	trace := q.assembleTraceLocked(c, key, workerID, now, spans)
	waiters := q.finishLocked(c, key, data, nil)
	q.noteGaugesLocked()
	q.mu.Unlock()
	expired()
	if q.Traces != nil {
		q.Traces.Add(trace)
	}
	// Keep the validated bytes even when every waiter was cancelled (a
	// cancelled campaign's in-flight cell): the simulation is done; a
	// future campaign wanting this key should hit the store, not
	// re-simulate.
	var cause string
	if q.Store != nil {
		if err := q.Store.Put(key, data); err != nil {
			cause = "unbanked: " + err.Error()
		}
	}
	// The completion is journaled only after the bytes reach the store
	// (write data, then log): a journaled EvComplete without a cause
	// therefore implies the result is banked, which is exactly what the
	// postmortem audit checks after a kill -9. A refused Put still
	// completes the cell (its waiters have the bytes), so it is still an
	// EvComplete, carrying the refusal as its cause. The cost is that
	// this one event is emitted outside q.mu; Replay tolerates the benign
	// reorderings that allows.
	q.emit(journal.Event{Type: journal.EvComplete, Key: key, Worker: workerID, Kind: c.wire.Kind, Attempt: c.attempts, Cause: cause})
	waiters()
	return CompleteAccepted
}

// validateWireResult checks a submission's bytes against a cell kind's
// canonical form: simulation cells must decode as sim results, training
// cells must be trained-agent snapshots whose agent restores, and either
// must re-encode to exactly the bytes sent. The store hands its bytes out
// verbatim on every warm run, so a result that decodes but is not
// canonical (surrounding whitespace, unknown fields) is refused, not
// banked (DESIGN.md invariant 5).
func validateWireResult(kind string, data []byte) error {
	var canon []byte
	if kind == KindTrain {
		snap, err := decodeSnapshot(data)
		if err != nil {
			return err
		}
		if _, err := snap.restore(); err != nil {
			return err
		}
		if canon, err = json.Marshal(snap); err != nil {
			return err
		}
	} else {
		res, err := sim.DecodeResult(data)
		if err != nil {
			return err
		}
		if canon, err = sim.EncodeResult(res); err != nil {
			return err
		}
	}
	if !bytes.Equal(canon, data) {
		return errors.New("campaign: result bytes are not in canonical form")
	}
	return nil
}

// Renew extends the leases workerID currently holds on keys to now+TTL and
// returns the keys actually renewed, in request order. A key renews only
// while its cell is still leased to this worker and unexpired: renewal
// after expiry is rejected — the sweep (run first, like every queue entry
// point) has already re-queued the cell at the queue front for the next
// healthy worker — and renewal never touches cells beyond those named, so
// one heartbeat cannot keep a whole worker's forgotten leases alive.
func (q *WorkQueue) Renew(workerID string, keys []string) []string {
	q.mu.Lock()
	now := q.now()
	expired := q.sweepLocked(now)
	// A renewal can only follow a lease, so it refreshes liveness for
	// known workers but never registers one: a stray or spoofed worker_id
	// must not mint permanent zero-count rows in /work/status.
	if w, ok := q.workers[workerID]; ok {
		w.LastSeen = now
	}
	var renewed []string
	for _, key := range keys {
		c, ok := q.cells[key]
		if !ok || c.state != cellLeased || c.worker != workerID || !c.expires.After(now) {
			continue
		}
		c.expires = now.Add(q.ttl)
		renewed = append(renewed, key)
	}
	q.renewals += uint64(len(renewed))
	cQRenewals.Add(uint64(len(renewed)))
	if len(renewed) > 0 {
		q.emit(journal.Event{Type: journal.EvRenew, Worker: workerID, N: len(renewed)})
	}
	q.noteGaugesLocked()
	q.mu.Unlock()
	expired()
	return renewed
}

// Drain flips workerID into the draining state: Lease returns it no new
// cells, while its held leases continue to renew and its submissions
// continue to complete cells. grace bounds the wait — anything the
// worker still holds when now+grace passes is requeued by the next sweep
// (0 = the lease TTL). Draining an unknown worker registers it, so an
// operator can pre-drain a worker that is about to connect. Returns a
// snapshot of the worker's status (Leased is the held-lease count the
// drain is waiting on). Re-draining refreshes the deadline; a
// quarantined worker stays quarantined (Resume clears both).
func (q *WorkQueue) Drain(workerID string, grace time.Duration) WorkerStatus {
	if grace <= 0 {
		grace = q.ttl
	}
	q.mu.Lock()
	now := q.now()
	expired := q.sweepLocked(now)
	w := q.workerLocked(workerID, now)
	if w.State == WorkerActive {
		w.State = WorkerDraining
		cQDrains.Inc()
		q.emit(journal.Event{Type: journal.EvDrain, Worker: workerID})
	}
	if w.State == WorkerDraining {
		w.drainDeadline = now.Add(grace)
	}
	snap := *w
	q.mu.Unlock()
	expired()
	return snap
}

// Resume returns a drained or quarantined worker to active: it leases
// again on its next poll. The rejection counter resets — quarantine is a
// circuit breaker, and resuming closes it.
func (q *WorkQueue) Resume(workerID string) WorkerStatus {
	q.mu.Lock()
	now := q.now()
	expired := q.sweepLocked(now)
	w := q.workerLocked(workerID, now)
	if w.State != WorkerActive {
		w.State = WorkerActive
		w.drainDeadline = time.Time{}
		w.Rejects = 0
		cQResumes.Inc()
		q.emit(journal.Event{Type: journal.EvResume, Worker: workerID})
	}
	snap := *w
	q.mu.Unlock()
	expired()
	return snap
}

// noteRejectLocked counts a rejected submission against its sender and
// quarantines the worker once it crosses QuarantineAfter: a worker whose
// results repeatedly fail validation is corrupting (bad build, bit
// flips, hostile) and must stop burning cells' attempt budgets. Its held
// leases are left to the normal expiry/reject paths — a valid result
// would still be accepted — it just gets nothing new.
func (q *WorkQueue) noteRejectLocked(w *WorkerStatus) {
	w.Rejects++
	if q.QuarantineAfter > 0 && w.Rejects >= q.QuarantineAfter && w.State != WorkerQuarantined {
		w.State = WorkerQuarantined
		w.drainDeadline = time.Time{}
		cQQuarantines.Inc()
		q.emit(journal.Event{Type: journal.EvQuarantine, Worker: w.ID})
	}
}

// StartSweeper runs Sweep on a background ticker so expired leases (and
// drained workers' overdue holds) requeue promptly even when no worker
// is polling — without it, expiry is only detected piggybacked on
// request handling. interval <= 0 picks TTL/4 clamped to [50ms, 30s].
// The returned stop is idempotent and must be called on shutdown.
func (q *WorkQueue) StartSweeper(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = q.ttl / 4
		if interval < 50*time.Millisecond {
			interval = 50 * time.Millisecond
		}
		if interval > 30*time.Second {
			interval = 30 * time.Second
		}
	}
	q.mu.Lock()
	q.sweeperOn = true
	q.sweepInterval = interval
	q.mu.Unlock()
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				q.Sweep()
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// assembleTraceLocked builds the completed cell's cross-machine trace.
func (q *WorkQueue) assembleTraceLocked(c *workCell, key, workerID string, now time.Time, spans []telemetry.Span) telemetry.Trace {
	all := make([]telemetry.Span, 0, len(spans)+1)
	if !c.enqueuedAt.IsZero() && !c.leasedAt.IsZero() {
		all = append(all, telemetry.Span{
			Name:  "lease_wait",
			Host:  "coordinator",
			Start: c.enqueuedAt,
			DurS:  c.leasedAt.Sub(c.enqueuedAt).Seconds(),
		})
	}
	all = append(all, spans...)
	for _, s := range spans {
		if s.Name == "execute" {
			if c.wire.Kind == KindTrain {
				hQExecTrain.Observe(s.DurS)
			} else {
				hQExecSim.Observe(s.DurS)
			}
		}
	}
	kind := c.wire.Kind
	if kind == "" {
		kind = "sim"
	}
	return telemetry.Trace{
		Key:      key,
		Campaign: c.wire.Campaign,
		Kind:     kind,
		Worker:   workerID,
		Done:     now,
		Spans:    all,
	}
}

// noteGaugesLocked publishes the queue's live population gauges.
func (q *WorkQueue) noteGaugesLocked() {
	gQPending.Set(float64(len(q.cells) - len(q.leased)))
	gQLeased.Set(float64(len(q.leased)))
	gQWorkers.Set(float64(len(q.workers)))
}

// NoteWorkerLeaseErrors records a worker's self-reported cumulative count
// of failed lease attempts (sent in each lease request). It never
// registers a new worker: a report can only accompany a lease, which
// registers first.
func (q *WorkQueue) NoteWorkerLeaseErrors(workerID string, n uint64) {
	if n == 0 {
		return
	}
	q.mu.Lock()
	if w, ok := q.workers[workerID]; ok && n > w.LeaseErrors {
		w.LeaseErrors = n
	}
	q.mu.Unlock()
}

// FleetWorker is one row of /work/fleet: WorkerStatus plus derived
// liveness and throughput columns, and the worker's oldest in-flight
// cell with its elapsed lease time.
type FleetWorker struct {
	WorkerStatus
	AgeS          float64 `json:"age_s"`               // since first contact
	IdleS         float64 `json:"idle_s"`              // since last contact
	CellsPerSec   float64 `json:"cells_per_sec"`       // completed / age
	InFlight      string  `json:"in_flight,omitempty"` // oldest leased cell key
	InFlightKind  string  `json:"in_flight_kind,omitempty"`
	InFlightLabel string  `json:"in_flight_label,omitempty"`
	InFlightS     float64 `json:"in_flight_s,omitempty"` // elapsed on that cell
}

// FleetStatus is the /work/fleet payload.
type FleetStatus struct {
	Now     time.Time     `json:"now"`
	Workers []FleetWorker `json:"workers"`
}

// Fleet snapshots the per-worker registry with derived columns. Expired
// leases are swept first so the in-flight columns never show a lease the
// next request would revoke.
func (q *WorkQueue) Fleet() FleetStatus {
	q.mu.Lock()
	now := q.now()
	expired := q.sweepLocked(now)

	// Oldest in-flight cell per worker.
	type inflight struct {
		key, kind, label string
		since            time.Time
	}
	byWorker := map[string]inflight{}
	for key, c := range q.leased {
		cur, ok := byWorker[c.worker]
		if !ok || c.leasedAt.Before(cur.since) {
			kind := c.wire.Kind
			if kind == "" {
				kind = "sim"
			}
			byWorker[c.worker] = inflight{key: key, kind: kind, label: c.wire.Label, since: c.leasedAt}
		}
	}

	out := FleetStatus{Now: now}
	ids := make([]string, 0, len(q.workers))
	for id := range q.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		w := q.workers[id]
		fw := FleetWorker{WorkerStatus: *w}
		fw.AgeS = now.Sub(w.FirstSeen).Seconds()
		fw.IdleS = now.Sub(w.LastSeen).Seconds()
		if fw.AgeS > 0 {
			fw.CellsPerSec = float64(w.Completed) / fw.AgeS
		}
		if inf, ok := byWorker[id]; ok {
			fw.InFlight = inf.key
			fw.InFlightKind = inf.kind
			fw.InFlightLabel = inf.label
			fw.InFlightS = now.Sub(inf.since).Seconds()
		}
		out.Workers = append(out.Workers, fw)
	}
	q.mu.Unlock()
	expired()
	return out
}

// Sweep re-queues expired leases immediately (normally this happens lazily
// on Lease/Complete; the coordinator may also tick it so expiry does not
// wait for traffic).
func (q *WorkQueue) Sweep() {
	q.mu.Lock()
	expired := q.sweepLocked(q.now())
	q.mu.Unlock()
	expired()
}

// sweepLocked returns expired leased cells to the front of the queue, or
// fails them when their attempts are exhausted. A lease is also reclaimed
// — even unexpired, even renewing — when its holder has been draining
// past its drain deadline: the grace period is over and the fleet takes
// the cell back. The returned closure invokes the waiters of failed
// cells; callers run it after releasing the lock. Only q.leased is
// scanned — every Lease and Complete sweeps, so the cost must be bounded
// by in-flight leases, not campaign size.
func (q *WorkQueue) sweepLocked(now time.Time) func() {
	q.lastSweep = now
	var front []string
	var failed []func()
	for key, c := range q.leased {
		if c.state != cellLeased {
			continue
		}
		holder := q.workers[c.worker]
		drained := holder != nil && holder.State == WorkerDraining &&
			!holder.drainDeadline.IsZero() && !holder.drainDeadline.After(now)
		if c.expires.After(now) && !drained {
			continue
		}
		cause := "expire"
		if drained {
			cause = "drain"
			cQDrainRequeues.Inc()
		}
		if w, ok := q.workers[c.worker]; ok {
			w.Leased--
		}
		if c.attempts >= q.maxAttempts {
			q.emit(journal.Event{Type: journal.EvFail, Key: key, Worker: c.worker, Attempt: c.attempts, Cause: cause})
			failed = append(failed, q.finishLocked(c, key, nil, fmt.Errorf("campaign: cell %s (%s) failed after %d lease attempts (last worker %s)", key, c.wire.Label, c.attempts, c.worker)))
			continue
		}
		q.emit(journal.Event{Type: journal.EvRequeue, Key: key, Worker: c.worker, Attempt: c.attempts, Cause: cause})
		c.state = cellPending
		c.worker = ""
		delete(q.leased, key)
		q.requeues++
		cQRequeues.Inc()
		front = append(front, key)
	}
	if len(front) > 0 {
		sort.Strings(front) // map order is random; keep requeue order stable
		q.order = append(front, q.order...)
	}
	return func() {
		for _, fn := range failed {
			fn()
		}
	}
}

// retryOrFailLocked re-queues a cell after a failed attempt, or finishes it
// with err once attempts are exhausted. It returns the (possibly no-op)
// waiter invocation to run outside the lock.
func (q *WorkQueue) retryOrFailLocked(c *workCell, key, cause string, err error) func() {
	if c.attempts >= q.maxAttempts {
		q.emit(journal.Event{Type: journal.EvFail, Key: key, Worker: c.worker, Attempt: c.attempts, Cause: cause})
		return q.finishLocked(c, key, nil, err)
	}
	q.emit(journal.Event{Type: journal.EvRequeue, Key: key, Worker: c.worker, Attempt: c.attempts, Cause: cause})
	c.state = cellPending
	c.worker = ""
	delete(q.leased, key)
	q.requeues++
	cQRequeues.Inc()
	q.order = append([]string{key}, q.order...)
	return func() {}
}

// unpinLocked releases a cell's trained-agent pin (no-op for unpinned
// cells). Called exactly once per cell: on finish or on last-waiter
// cancel, both of which remove the cell from q.cells first.
func (q *WorkQueue) unpinLocked(c *workCell) {
	if c.pinned == "" {
		return
	}
	if ps, ok := q.Store.(PinStore); ok {
		ps.Unpin(c.pinned)
	}
	c.pinned = ""
}

// finishLocked completes a cell and evicts it (the bytes live in the
// ResultStore; the queue keeps only a done-key marker for duplicate
// detection on success, and nothing at all on failure, so a resubmitted
// campaign retries a failed cell fresh). It returns a closure that invokes
// the cell's waiters — callers run it after releasing the lock, since
// waiters call back into stores and progress sinks.
func (q *WorkQueue) finishLocked(c *workCell, key string, data []byte, err error) func() {
	c.state = cellDone
	delete(q.cells, key)
	delete(q.leased, key)
	q.unpinLocked(c)
	if err == nil {
		if len(q.doneKeys) >= maxDoneKeys {
			q.doneKeys = map[string]bool{}
		}
		q.doneKeys[key] = true
	}
	q.done++
	ws := make([]func([]byte, error), 0, len(c.waiters))
	for _, fn := range c.waiters {
		ws = append(ws, fn)
	}
	c.waiters = map[int]func([]byte, error){}
	return func() {
		for _, fn := range ws {
			fn(data, err)
		}
	}
}

func (q *WorkQueue) workerLocked(id string, now time.Time) *WorkerStatus {
	w, ok := q.workers[id]
	if !ok {
		w = &WorkerStatus{ID: id, FirstSeen: now}
		q.workers[id] = w
	}
	w.LastSeen = now
	return w
}

// SweeperHealth reports whether StartSweeper is running, its tick
// interval, and when the queue last swept (every entry point sweeps,
// so lastSweep also advances with request traffic). Readiness probes
// compare the last-sweep age against the interval.
func (q *WorkQueue) SweeperHealth() (running bool, interval time.Duration, last time.Time) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.sweeperOn, q.sweepInterval, q.lastSweep
}

// Stats snapshots the queue.
func (q *WorkQueue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := QueueStats{
		// cells holds exactly the pending and leased population (done
		// cells are evicted), so the split needs no scan.
		Pending:    len(q.cells) - len(q.leased),
		Leased:     len(q.leased),
		Done:       q.done,
		Requeues:   q.requeues,
		Rejects:    q.rejects,
		Duplicates: q.duplicates,
		Renewals:   q.renewals,
	}
	ids := make([]string, 0, len(q.workers))
	for id := range q.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		st.Workers = append(st.Workers, *q.workers[id])
	}
	return st
}
