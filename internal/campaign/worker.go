package campaign

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"astro/internal/ir"
	"astro/internal/sim"
	"astro/internal/telemetry"
)

// Worker is the pull side of the distributed campaign protocol: it leases
// content-addressed cells from a coordinator (astro-serve or the CLI's
// loopback cluster), executes them, and pushes canonical result bytes
// back. Simulation cells run through the same Job.Execute path the local
// pool uses; training cells (WireJob kind "train") run through TrainCell,
// and the result submission that completes the lease is the snapshot's
// only publication. Workers are stateless — identity is just a label for
// lease accounting — so killing one loses at most its in-flight cells,
// which the coordinator re-leases after the TTL.
//
// Parallel sizes the executor pool: one lease/heartbeat loop fans each
// batch out across N goroutines, so a single worker process saturates a
// many-core box (`astro worker -j N`). While executors run, a single
// heartbeat goroutine renews the union of the cells currently executing
// (POST /renew) at a third of the coordinator's TTL, so cells that
// outrun the TTL — long training cells under a short -lease-ttl — stay
// leased as long as the worker stays alive and working on them. Cells
// leased but not yet started are not renewed: they expire on schedule
// and re-issue to idle workers rather than queueing for hours behind a
// long cell. Only a worker that dies (or loses the network) stops
// heartbeating its executing cells, which is exactly when re-issuing
// them is the right call; conversely, a key the coordinator's renew
// response refuses is a lease this worker has lost, and the executor
// abandons that cell rather than double-submitting.
//
// Drain flips the worker into a graceful shutdown: no new leases, the
// held batch finishes and submits, Run returns nil (cmd/astro wires
// SIGTERM here for rolling restarts).
//
// The coordinator's store is the fleet's only shared store: the worker
// keeps no result cache of its own, and reads trained-agent snapshots
// through to the coordinator (GET /agents/{key}) behind a bounded memo.
// Beside it, a bounded memo of decoded modules (moduleMemo) gives every
// cell of one module one decode and one compile.
// Results are validated end-to-end: the worker refuses cells whose
// recomputed key mismatches the coordinator's (codec drift), and the
// coordinator refuses results that do not decode (malformed submission) —
// so neither side can poison the other's content-addressed store.
type Worker struct {
	Coordinator string         // coordinator base URL including the /work mount
	ID          string         // worker identity for lease accounting
	Max         int            // cells per lease (0 = 2 per executor)
	Parallel    int            // executor goroutines per batch (default 1); `astro worker -j`
	Poll        time.Duration  // idle backoff (default 500ms)
	Renew       time.Duration  // heartbeat interval; 0 = a third of the lease TTL, negative = disabled
	Client      *http.Client   // nil = http.DefaultClient
	Token       string         // bearer token for coordinators behind WithBearerAuth ("" = none)
	Faults      FaultPolicy    // optional injected-fault schedule (chaos drills; nil = none)
	OnProgress  func(Progress) // optional per-cell hook (logging); called concurrently when Parallel > 1

	// Logf, when non-nil, receives operational log lines — lease failures
	// with their retry counts and backoff, most importantly, so an
	// unreachable coordinator is visible instead of a silent spin. Called
	// concurrently when Parallel > 1.
	Logf func(format string, args ...any)

	agentsOnce sync.Once
	agents     ResultStore
	modules    moduleMemo   // decoded modules by content; see moduleMemo
	leaseBody  bytes.Buffer // lease response bodies, reused: Run leases one batch at a time

	leaseErrs atomic.Uint64 // cumulative failed lease attempts (also self-reported to the coordinator)
	draining  atomic.Bool   // Drain was called: finish the current batch, then Run returns

	// Seeded jitter stream for lease-failure backoff (see jitteredBackoff).
	rngOnce sync.Once
	rngMu   sync.Mutex
	rng     *rand.Rand
}

// LeaseErrors returns the worker's cumulative count of failed lease
// attempts (coordinator unreachable or non-200 responses).
func (w *Worker) LeaseErrors() uint64 { return w.leaseErrs.Load() }

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return http.DefaultClient
}

func (w *Worker) max() int {
	if w.Max <= 0 {
		return 2 * w.parallel()
	}
	return w.Max
}

func (w *Worker) parallel() int {
	if w.Parallel <= 0 {
		return 1
	}
	return w.Parallel
}

func (w *Worker) setAuth(req *http.Request) {
	if w.Token != "" {
		req.Header.Set("Authorization", "Bearer "+w.Token)
	}
}

// fault consults the injected-fault schedule, counting fired faults.
func (w *Worker) fault(op FaultOp, key string) Fault {
	if w.Faults == nil {
		return FaultNone
	}
	f := w.Faults.Fault(op, w.ID, key)
	if f != FaultNone {
		cWFaults.Inc()
	}
	return f
}

// Drain flips the worker into draining for a rolling restart: it stops
// leasing new cells, finishes, renews, and submits the batch it already
// holds, and then Run returns nil with zero held leases. The coordinator
// is notified (best effort) so /work/fleet shows the state and so a
// worker that dies mid-drain still has its leftovers requeued at the
// drain deadline rather than the lease TTL. Safe to call from any
// goroutine (cmd/astro wires SIGTERM here); repeated calls are no-ops.
func (w *Worker) Drain() {
	if !w.draining.CompareAndSwap(false, true) {
		return
	}
	cWDrains.Inc()
	w.logf("worker %s: draining (finishing held leases, no new work)", w.ID)
	go w.postDrain()
}

// Draining reports whether Drain has been called.
func (w *Worker) Draining() bool { return w.draining.Load() }

func (w *Worker) postDrain() {
	body, _ := json.Marshal(DrainRequest{WorkerID: w.ID})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Coordinator+"/drain", bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	w.setAuth(req)
	if resp, err := w.client().Do(req); err == nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
		resp.Body.Close()
	}
}

// agentStore lazily builds the worker's trained-agent tier. One tier
// serves the whole worker lifetime, so an agent fetched for one hybrid
// cell answers every later cell keyed to the same snapshot, while its
// memo keeps at most memoCap snapshots, evicting the oldest fetch first.
func (w *Worker) agentStore() ResultStore {
	w.agentsOnce.Do(func() {
		w.agents = &agentFetcher{w: w}
	})
	return w.agents
}

// moduleMemo maps the SHA-256 of a module's wire bytes to the decoded
// module and its ModuleHash, bounded FIFO. Every cell of one module then
// carries the same *ir.Module, so the worker decodes, hashes and compiles
// the module once (sim.CompiledProgram keys its cache by pointer) instead
// of once per cell. The zero value is ready to use.
type moduleMemo struct {
	fifoMemo[[sha256.Size]byte, memoModule]
}

type memoModule struct {
	mod  *ir.Module
	hash string
}

// decode returns the module the bytes encode and, from the memo, its
// ModuleHash. The hash is computed from the decoded module when an entry
// is filled — not taken from the bytes — so the caller's key check still
// covers the decode.
func (mm *moduleMemo) decode(data []byte) (*ir.Module, string, error) {
	sum := sha256.Sum256(data)
	if e, ok := mm.get(sum); ok {
		return e.mod, e.hash, nil
	}
	mod, err := ir.Decode(data)
	if err != nil {
		return nil, "", err
	}
	e := mm.add(sum, memoModule{mod: mod, hash: ModuleHash(mod)}) // racing executors keep one pointer
	return e.mod, e.hash, nil
}

// agentFetchTimeout bounds one snapshot fetch: the fetch sits on the
// execution path of hybrid and training cells, where an unbounded request
// against a wedged coordinator would stall the executor (and
// ResultStore.Get carries no context).
const agentFetchTimeout = 30 * time.Second

// agentFetcher is a read-through onto the coordinator's store for
// trained-agent snapshots: Get consults the memo, then sends GET
// {Coordinator}/agents/{key} with the worker's client and credentials.
// Put writes only the memo — the /result submission that completes a
// training lease is the only way a snapshot reaches the coordinator — and
// a key the memo holds keeps its bytes, as keys are content addresses.
type agentFetcher struct {
	w    *Worker
	memo fifoMemo[string, []byte]
}

func (a *agentFetcher) Get(key string) ([]byte, bool) {
	if data, ok := a.memo.get(key); ok {
		return data, true
	}
	ctx, cancel := context.WithTimeout(context.Background(), agentFetchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, a.w.Coordinator+"/agents/"+key, nil)
	if err != nil {
		return nil, false
	}
	a.w.setAuth(req)
	resp, err := a.w.client().Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResultBytes))
	if err != nil {
		return nil, false
	}
	return a.memo.add(key, data), true
}

func (a *agentFetcher) Put(key string, data []byte) error {
	a.memo.add(key, data)
	return nil
}

// Run leases and executes cells until ctx is cancelled (clean shutdown,
// returns nil). Network errors back off and retry: a worker outliving a
// coordinator restart re-attaches by itself.
func (w *Worker) Run(ctx context.Context) error {
	if w.Coordinator == "" {
		return fmt.Errorf("campaign: worker needs a coordinator URL")
	}
	if w.ID == "" {
		return fmt.Errorf("campaign: worker needs an ID")
	}
	poll := w.Poll
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	idle := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil
		}
		if w.draining.Load() {
			w.logf("worker %s: drained with zero held leases", w.ID)
			return nil
		}
		cells, ttl, err := w.lease(ctx)
		if err != nil {
			// Coordinator unreachable or erroring: count it, say so, and
			// retry with capped, jittered exponential backoff.
			n := w.leaseErrs.Add(1)
			cWLeaseErrs.Inc()
			idle++
			wait := w.jitteredBackoff(poll, idle)
			w.logf("worker %s: lease failed (attempt %d, total errors %d, retrying in %s): %v", w.ID, idle, n, wait, err)
			if !sleep(ctx, wait) {
				return nil
			}
			continue
		}
		if len(cells) == 0 {
			idle++
			if !sleep(ctx, poll) {
				return nil
			}
			continue
		}
		idle = 0
		if err := w.executeBatch(ctx, cells, ttl); err != nil {
			return err
		}
	}
}

// executeBatch fans one lease's cells out across Parallel executor
// goroutines under a single heartbeat that renews the union of the cells
// currently *executing*, so a cell that outruns the TTL is not re-issued
// out from under a live worker. Cells queued behind the executors in the
// same batch are deliberately left to expire: an idle worker elsewhere in
// the fleet picks them up after one TTL instead of waiting hours behind
// this worker's long cells. (This is the client half of the queue's
// renewal invariant: one heartbeat must not keep a whole worker's
// untouched leases alive.) A key the coordinator's renew response omits
// is a lost lease — the cell has been re-queued for someone else — and
// the executor abandons it rather than double-submitting. The heartbeat
// stops with the batch. A non-nil error (ErrInjectedCrash) means the
// worker must die.
func (w *Worker) executeBatch(ctx context.Context, cells []*WireJob, ttl time.Duration) error {
	var (
		mu        sync.Mutex
		executing = map[string]bool{} // keys under execution right now
		lost      = map[string]bool{} // leases the coordinator reported lost
	)
	held := func() []string {
		mu.Lock()
		defer mu.Unlock()
		keys := make([]string, 0, len(executing))
		for k := range executing {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys
	}
	markLost := func(keys []string) {
		mu.Lock()
		defer mu.Unlock()
		for _, k := range keys {
			lost[k] = true
		}
	}
	isLost := func(key string) bool {
		mu.Lock()
		defer mu.Unlock()
		return lost[key]
	}

	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	if interval := w.renewInterval(ttl); interval > 0 {
		go w.renewLoop(hbCtx, interval, held, markLost)
	}
	received := time.Now()
	n := w.parallel()
	if n > len(cells) {
		n = len(cells)
	}
	var (
		wg      sync.WaitGroup
		crashed atomic.Bool
		jobs    = make(chan *WireJob)
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cell := range jobs {
				if ctx.Err() != nil || crashed.Load() {
					continue // drain the channel; these leases expire on schedule
				}
				mu.Lock()
				executing[cell.Key] = true
				mu.Unlock()
				err := w.execute(ctx, cell, received, isLost)
				mu.Lock()
				delete(executing, cell.Key)
				mu.Unlock()
				if errors.Is(err, ErrInjectedCrash) {
					crashed.Store(true)
				}
			}
		}()
	}
	for _, cell := range cells {
		jobs <- cell
	}
	close(jobs)
	wg.Wait()
	if crashed.Load() {
		return ErrInjectedCrash
	}
	return nil
}

// renewInterval picks the heartbeat period: the configured Renew, or a
// third of the coordinator's TTL — early enough that one dropped heartbeat
// does not cost the lease. Non-positive TTLs (older coordinators that do
// not advertise one) disable the heartbeat rather than spin.
func (w *Worker) renewInterval(ttl time.Duration) time.Duration {
	if w.Renew < 0 {
		return 0
	}
	if w.Renew > 0 {
		return w.Renew
	}
	if ttl <= 0 {
		return 0
	}
	interval := ttl / 3
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	return interval
}

// renewLoop posts heartbeats for the still-held keys until cancelled.
// Network failures are ignored: a missed renewal either recovers on the
// next tick or the lease expires and the protocol's re-issue path takes
// over. A successful response, though, is authoritative — any requested
// key it does not list as renewed has lost its lease (expired and
// re-queued for another worker), and markLost tells the executors to
// abandon that cell instead of double-submitting its result.
func (w *Worker) renewLoop(ctx context.Context, interval time.Duration, heldKeys func() []string, markLost func([]string)) {
	for {
		if !sleep(ctx, interval) {
			return
		}
		keys := heldKeys()
		if len(keys) == 0 {
			continue
		}
		if w.fault(FaultOpRenew, "") == FaultDrop {
			w.logf("worker %s: injected fault: heartbeat skipped", w.ID)
			continue
		}
		body, _ := json.Marshal(RenewRequest{WorkerID: w.ID, Keys: keys})
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Coordinator+"/renew", bytes.NewReader(body))
		if err != nil {
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		w.setAuth(req)
		resp, err := w.client().Do(req)
		if err != nil {
			continue
		}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
			resp.Body.Close()
			continue
		}
		var rr RenewResponse
		decErr := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&rr)
		resp.Body.Close()
		if decErr != nil {
			continue
		}
		renewed := make(map[string]bool, len(rr.Renewed))
		for _, k := range rr.Renewed {
			renewed[k] = true
		}
		var gone []string
		for _, k := range keys {
			if !renewed[k] {
				gone = append(gone, k)
			}
		}
		if len(gone) > 0 {
			markLost(gone)
		}
	}
}

func backoff(base time.Duration, n int) time.Duration {
	d := base
	for i := 1; i < n && d < 5*time.Second; i++ {
		d *= 2
	}
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	return d
}

// jitteredBackoff is backoff with ±20% seeded jitter: after a
// coordinator restart, a fleet of workers would otherwise all have
// counted the same number of failures and retry in lockstep forever. The
// jitter stream is seeded from the worker ID — deterministic per worker,
// decorrelated across the fleet.
func (w *Worker) jitteredBackoff(base time.Duration, n int) time.Duration {
	d := backoff(base, n)
	w.rngOnce.Do(func() {
		h := fnv.New64a()
		io.WriteString(h, w.ID)
		w.rng = rand.New(rand.NewSource(int64(h.Sum64())))
	})
	w.rngMu.Lock()
	u := w.rng.Float64()
	w.rngMu.Unlock()
	return time.Duration(float64(d) * (0.8 + 0.4*u))
}

func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

func (w *Worker) lease(ctx context.Context) ([]*WireJob, time.Duration, error) {
	body, _ := json.Marshal(LeaseRequest{WorkerID: w.ID, Max: w.max(), LeaseErrors: w.leaseErrs.Load()})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Coordinator+"/lease", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	w.setAuth(req)
	resp, err := w.client().Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
		return nil, 0, fmt.Errorf("campaign: lease: coordinator returned %s", resp.Status)
	}
	if err := readLimited(&w.leaseBody, resp.Body, maxResultBytes); err != nil {
		return nil, 0, fmt.Errorf("campaign: lease: %w", err)
	}
	var lr LeaseResponse
	if err := json.Unmarshal(w.leaseBody.Bytes(), &lr); err != nil {
		return nil, 0, fmt.Errorf("campaign: lease: %w", err)
	}
	return lr.Cells, time.Duration(lr.LeaseTTLMS) * time.Millisecond, nil
}

// readLimited replaces buf's contents with everything r holds, keeping
// buf's capacity, and fails when r holds more than limit bytes.
func readLimited(buf *bytes.Buffer, r io.Reader, limit int64) error {
	buf.Reset()
	if _, err := buf.ReadFrom(io.LimitReader(r, limit+1)); err != nil {
		return err
	}
	if int64(buf.Len()) > limit {
		return fmt.Errorf("body exceeds %d bytes", limit)
	}
	return nil
}

// execute runs one cell — simulation or training — and submits its result
// together with the cell's worker-side spans ("queued": lease receipt to
// execution start; "execute": the execution itself), which the
// coordinator merges with its own lease_wait span into the cell's trace.
// Failures are reported to the coordinator (so the cell can be re-leased
// or failed) rather than swallowed. A cell whose lease the coordinator
// reported lost (isLost) is abandoned without submission: the cell has
// re-queued for another worker, and a late duplicate would only burn
// coordinator validation for nothing. Returns ErrInjectedCrash when the
// fault schedule kills the worker here.
func (w *Worker) execute(ctx context.Context, cell *WireJob, received time.Time, isLost func(string) bool) error {
	fault := w.fault(FaultOpExecute, cell.Key)
	if fault == FaultCrash {
		w.logf("worker %s: injected fault: crashing while holding %s", w.ID, cell.Key)
		return ErrInjectedCrash
	}
	start := time.Now()
	var (
		data    []byte
		execErr error
		hit     bool
	)
	switch cell.Kind {
	case KindTrain:
		data, hit, execErr = w.executeTrain(cell)
	default:
		data, execErr = w.executeSim(cell)
	}

	cWCells.Inc()
	if isLost != nil && isLost(cell.Key) {
		cWAbandoned.Inc()
		w.logf("worker %s: lease lost for %s (%s); abandoning without submission", w.ID, cell.Key, cell.Label)
		if w.OnProgress != nil {
			w.OnProgress(Progress{JobIndex: cell.Index, Label: cell.Label, CacheHit: hit,
				WallS: time.Since(start).Seconds(), Err: "lease lost; abandoned"})
		}
		return nil
	}
	switch fault {
	case FaultDrop:
		w.logf("worker %s: injected fault: dropping result for %s", w.ID, cell.Key)
		if w.OnProgress != nil {
			w.OnProgress(Progress{JobIndex: cell.Index, Label: cell.Label, CacheHit: hit,
				WallS: time.Since(start).Seconds(), Err: "injected fault: result dropped"})
		}
		return nil
	case FaultCorrupt:
		if execErr == nil {
			w.logf("worker %s: injected fault: corrupting result for %s", w.ID, cell.Key)
			data = corruptResult(data)
		}
	}
	spans := []telemetry.Span{
		{Name: "queued", Host: w.ID, Start: received, DurS: start.Sub(received).Seconds()},
		{Name: "execute", Host: w.ID, Start: start, DurS: time.Since(start).Seconds()},
	}
	sub := ResultSubmission{WorkerID: w.ID, Key: cell.Key, Data: data, Spans: spans}
	if execErr != nil {
		sub = ResultSubmission{WorkerID: w.ID, Key: cell.Key, Error: execErr.Error(), Spans: spans}
	}
	status, err := w.submit(ctx, sub)
	if w.OnProgress != nil {
		p := Progress{
			JobIndex: cell.Index,
			Label:    cell.Label,
			CacheHit: hit,
			WallS:    time.Since(start).Seconds(),
		}
		switch {
		case execErr != nil:
			p.Err = execErr.Error()
		case err != nil:
			p.Err = fmt.Sprintf("submit: %v", err)
		case status == CompleteRejected:
			p.Err = "result rejected by coordinator"
		}
		w.OnProgress(p)
	}
	return nil
}

// executeSim runs one simulation cell to canonical result bytes.
// Agent-keyed hybrid cells resolve their snapshot through the worker's
// agent tier — memo first, coordinator on miss.
func (w *Worker) executeSim(cell *WireJob) ([]byte, error) {
	j, err := cell.job(&w.modules)
	if err != nil {
		return nil, err
	}
	if j.AgentKey != "" {
		j.Agents = w.agentStore()
	}
	res, err := j.Execute()
	if err != nil {
		return nil, err
	}
	return sim.EncodeResult(res)
}

// executeTrain runs one training cell to canonical snapshot bytes. A
// snapshot already banked on the coordinator is read through the agent
// tier rather than retrained; a fresh one is trained without a store,
// so the /result submission is its only publication and the queue, which
// validates it, is the only place it is banked.
func (w *Worker) executeTrain(cell *WireJob) (data []byte, hit bool, err error) {
	ts, err := cell.trainSpec(&w.modules)
	if err != nil {
		return nil, false, err
	}
	if stored, ok := w.agentStore().Get(cell.Key); ok && validateWireResult(KindTrain, stored) == nil {
		return stored, true, nil
	}
	tr, err := TrainCell(nil, ts)
	if err != nil {
		return nil, false, err
	}
	data, err = snapshotBytes(tr)
	if err != nil || data == nil {
		return nil, false, fmt.Errorf("campaign: train cell %q produced an unsnapshotable agent", cell.Label)
	}
	return data, false, nil
}

// submit pushes a result, retrying transient network failures a few times —
// losing a computed result to one connection reset would waste a whole
// simulation.
func (w *Worker) submit(ctx context.Context, sub ResultSubmission) (CompleteStatus, error) {
	body, err := json.Marshal(sub)
	if err != nil {
		return "", err
	}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 && !sleep(ctx, time.Duration(attempt)*200*time.Millisecond) {
			return "", ctx.Err()
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Coordinator+"/result", bytes.NewReader(body))
		if err != nil {
			return "", err
		}
		req.Header.Set("Content-Type", "application/json")
		w.setAuth(req)
		resp, err := w.client().Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		// Only 200 (accepted/duplicate/unknown) and 422 (rejected) carry a
		// ResultResponse. Anything else is the coordinator refusing the
		// request wholesale — treating it as success would silently discard
		// a computed simulation, so it is a retryable error.
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusUnprocessableEntity {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
			resp.Body.Close()
			lastErr = fmt.Errorf("campaign: result submission: coordinator returned %s", resp.Status)
			continue
		}
		var rr ResultResponse
		decErr := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&rr)
		resp.Body.Close()
		if decErr != nil {
			lastErr = decErr
			continue
		}
		return rr.Status, nil
	}
	return "", lastErr
}
