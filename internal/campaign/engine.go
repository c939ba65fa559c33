package campaign

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// State is a campaign's lifecycle position.
type State string

const (
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed" // finished with job errors
	StateCancelled State = "cancelled"
)

// Event is one entry on a campaign's progress stream: either a per-job
// progress record or a terminal state change.
type Event struct {
	Type     string    `json:"type"` // "progress" | "state"
	Progress *Progress `json:"progress,omitempty"`
	State    State     `json:"state,omitempty"`
	Error    string    `json:"error,omitempty"`
}

// Status is a campaign snapshot for the HTTP API.
type Status struct {
	ID        string    `json:"id"`
	Name      string    `json:"name,omitempty"`
	State     State     `json:"state"`
	Total     int       `json:"total"`
	Done      int       `json:"done"`
	CacheHits int       `json:"cache_hits"`
	ColdJobs  int       `json:"cold_jobs"` // finished jobs that simulated fresh
	Errors    int       `json:"errors"`
	Created   time.Time `json:"created"`
	ElapsedS  float64   `json:"elapsed_s"`
	Error     string    `json:"error,omitempty"`

	// Aggregate simulated work delivered so far and its wall-clock rate.
	// SimCyclesPerSec is the observable form of every speedup layer: the
	// fast path raises it on cold runs, the caches raise it by orders of
	// magnitude on warm runs.
	SimInstr        uint64  `json:"sim_instructions"`
	SimCycles       uint64  `json:"sim_cycles"`
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`
}

// Campaign is one submitted spec moving through the engine.
type Campaign struct {
	ID   string
	Spec Spec

	mu        sync.Mutex
	state     State
	total     int
	done      int
	cacheHits int
	errors    int
	simInstr  uint64
	simCycles uint64
	created   time.Time
	finished  time.Time
	errMsg    string
	events    []Event
	subs      map[int]chan Event
	nextSub   int
	outcomes  []*Outcome
	results   *ResultSet
	cancel    context.CancelFunc
}

// Engine manages campaign lifecycles: submission, execution on a shared
// pool, observation and cancellation. One engine backs one astro-serve
// process; campaigns share its store, so a resubmitted spec is served
// entirely from cache.
type Engine struct {
	runner Runner
	store  ResultStore

	mu        sync.Mutex
	seq       int
	campaigns map[string]*Campaign
}

// NewEngine builds an engine whose campaigns run in-process on workers
// workers and memoize into store (nil = fresh in-memory store).
func NewEngine(workers int, store ResultStore) *Engine {
	if store == nil {
		store = NewMemStore()
	}
	return NewEngineWith(&Pool{Workers: workers, Store: store}, store)
}

// NewEngineWith builds an engine around an explicit runner — the local Pool
// or a RemoteRunner leasing cells to pull-based workers. The store must be
// the one the runner memoizes into (it backs GET /work/agents/{key} and
// warm-cache accounting).
func NewEngineWith(r Runner, store ResultStore) *Engine {
	if store == nil {
		store = NewMemStore()
	}
	return &Engine{
		runner:    r,
		store:     store,
		campaigns: map[string]*Campaign{},
	}
}

// Store exposes the engine's result store.
func (e *Engine) Store() ResultStore { return e.store }

// Submit expands the spec (validation errors surface synchronously) and
// launches the campaign asynchronously, returning its handle.
func (e *Engine) Submit(spec Spec) (*Campaign, error) {
	jobs, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	e.mu.Lock()
	e.seq++
	c := &Campaign{
		ID:      fmt.Sprintf("c%06d", e.seq),
		Spec:    spec,
		state:   StateRunning,
		total:   len(jobs),
		created: time.Now(),
		subs:    map[int]chan Event{},
		cancel:  cancel,
	}
	e.campaigns[c.ID] = c
	e.mu.Unlock()

	// Telemetry annotation only: runners that wire cells out stamp the
	// campaign ID on the envelope so the coordinator's traces group by
	// campaign. Inert by construction — nothing execution- or key-related
	// reads it back.
	ctx = WithCampaignID(ctx, c.ID)

	go e.run(ctx, c, jobs)
	return c, nil
}

// campaignIDKey carries the submitting campaign's ID through a runner
// context; see WithCampaignID.
type campaignIDKey struct{}

// WithCampaignID annotates ctx with the campaign ID that owns the work.
func WithCampaignID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, campaignIDKey{}, id)
}

// CampaignIDFromContext returns the campaign ID annotation, if any.
func CampaignIDFromContext(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(campaignIDKey{}).(string)
	return id
}

func (e *Engine) run(ctx context.Context, c *Campaign, jobs []*Job) {
	outs, err := e.runner.Run(ctx, jobs, func(p Progress) {
		c.mu.Lock()
		c.done++
		p.Done, p.Total = c.done, c.total
		if p.CacheHit {
			c.cacheHits++
		}
		if p.Err != "" {
			c.errors++
		}
		c.simInstr += p.SimInstr
		c.simCycles += p.SimCycles
		c.publishLocked(Event{Type: "progress", Progress: &p})
		c.mu.Unlock()
	})

	c.mu.Lock()
	defer c.mu.Unlock()
	c.outcomes = outs
	c.results = Aggregate(c.Spec.Name, outs)
	// The canonical result bytes live in the store (and their digest in the
	// result set's fingerprint); dropping them here keeps a long-running
	// server's retained size proportional to summaries, not raw results.
	for _, o := range outs {
		if o != nil {
			o.Bytes = nil
		}
	}
	c.finished = time.Now()
	switch {
	case ctx.Err() != nil:
		c.state = StateCancelled
		c.errMsg = ctx.Err().Error()
	case err != nil:
		c.state = StateFailed
		c.errMsg = err.Error()
	default:
		c.state = StateDone
	}
	ev := Event{Type: "state", State: c.state, Error: c.errMsg}
	c.publishLocked(ev)
	for id, ch := range c.subs {
		close(ch)
		delete(c.subs, id)
	}
}

// maxReplayEvents bounds the per-campaign replay log: live subscribers see
// every event, but late subscribers of very large campaigns replay only
// the most recent window (plus the terminal event, which is always kept) —
// they have the status and results endpoints for the totals.
const maxReplayEvents = 4096

// publishLocked appends to the replay log and fans out to live subscribers.
// Slow subscribers are skipped rather than blocked on (SSE clients can
// re-sync from the replay log or poll the status endpoint).
func (c *Campaign) publishLocked(ev Event) {
	if len(c.events) < maxReplayEvents || ev.Type == "state" {
		c.events = append(c.events, ev)
	}
	for _, ch := range c.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// Get returns a campaign by ID.
func (e *Engine) Get(id string) (*Campaign, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	c, ok := e.campaigns[id]
	return c, ok
}

// List returns snapshots of every campaign, newest first.
func (e *Engine) List() []Status {
	e.mu.Lock()
	var cs []*Campaign
	for _, c := range e.campaigns {
		cs = append(cs, c)
	}
	e.mu.Unlock()
	sort.Slice(cs, func(i, j int) bool { return cs[i].ID > cs[j].ID })
	out := make([]Status, len(cs))
	for i, c := range cs {
		out[i] = c.Status()
	}
	return out
}

// Cancel stops a running campaign (idempotent; false if the ID is unknown).
func (e *Engine) Cancel(id string) bool {
	c, ok := e.Get(id)
	if !ok {
		return false
	}
	c.cancel()
	return true
}

// Status snapshots the campaign.
func (c *Campaign) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		ID:        c.ID,
		Name:      c.Spec.Name,
		State:     c.state,
		Total:     c.total,
		Done:      c.done,
		CacheHits: c.cacheHits,
		ColdJobs:  c.done - c.cacheHits,
		Errors:    c.errors,
		Created:   c.created,
		Error:     c.errMsg,
		SimInstr:  c.simInstr,
		SimCycles: c.simCycles,
	}
	if c.state == StateRunning {
		st.ElapsedS = time.Since(c.created).Seconds()
	} else {
		st.ElapsedS = c.finished.Sub(c.created).Seconds()
	}
	if st.ElapsedS > 0 {
		st.SimCyclesPerSec = float64(st.SimCycles) / st.ElapsedS
	}
	return st
}

// Results returns the aggregated result set once the campaign has finished
// (nil while running).
func (c *Campaign) Results() *ResultSet {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.results
}

// Outcomes returns the raw per-job outcomes once finished (nil while
// running).
func (c *Campaign) Outcomes() []*Outcome {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state == StateRunning {
		return nil
	}
	return c.outcomes
}

// Subscribe returns a channel that replays the campaign's full event log
// and then streams live events; the channel closes when the campaign
// finishes. Call the returned cancel function to unsubscribe early.
func (c *Campaign) Subscribe() (<-chan Event, func()) {
	c.mu.Lock()
	replay := make([]Event, len(c.events))
	copy(replay, c.events)
	terminal := c.state != StateRunning
	ch := make(chan Event, len(replay)+c.total+16)
	for _, ev := range replay {
		ch <- ev
	}
	var id int
	if terminal {
		close(ch)
	} else {
		id = c.nextSub
		c.nextSub++
		c.subs[id] = ch
	}
	c.mu.Unlock()

	cancelFn := func() {
		c.mu.Lock()
		if sub, ok := c.subs[id]; ok && sub == ch {
			delete(c.subs, id)
			close(ch)
		}
		c.mu.Unlock()
	}
	if terminal {
		cancelFn = func() {}
	}
	return ch, cancelFn
}
