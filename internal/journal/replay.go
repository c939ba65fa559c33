package journal

import "sort"

// Replay reconstructs queue and fleet state from an event stream — the
// crash-forensic half of the flight recorder. Feeding it every event of a
// run yields exactly the counters the live queue reported in /work/status
// (the journal-replay tests pin this equality), and feeding it a crashed
// coordinator's journal yields the state at the instant of death: which
// cells were in flight, who held them, what had already completed.
//
// The state machine is event-level, not a re-implementation of the
// queue: each event type maps to one transition, so replay is total and
// order-insensitive within the documented tolerance (a completion's
// journal line is written after its result bytes reach the store, so a
// racing duplicate may precede its completion; both orders replay to the
// same state).

// WorkerState is one worker's replayed view (the WorkerStatus counters
// that are derivable from the journal).
type WorkerState struct {
	Completed int    `json:"completed"`
	Errors    int    `json:"errors"`
	Rejects   int    `json:"rejects,omitempty"`
	State     string `json:"state,omitempty"` // "", "draining", "quarantined"
}

// State is the replayed end-state of a journal.
type State struct {
	Events  int    `json:"events"`   // events replayed
	LastSeq uint64 `json:"last_seq"` // highest sequence seen

	// Queue counters, matching QueueStats field-for-field.
	Pending    int    `json:"pending"` // cells enqueued but not leased at end of log
	Leased     int    `json:"leased"`  // cells leased and unresolved at end of log
	Done       int    `json:"done"`    // completes + fails
	Completes  int    `json:"completes"`
	Fails      int    `json:"fails"`
	Requeues   uint64 `json:"requeues"`
	Rejects    uint64 `json:"rejects"`
	Duplicates uint64 `json:"duplicates"`
	Renewals   uint64 `json:"renewals"`

	// Forensic extras.
	Enqueued uint64 `json:"enqueued"`
	Leases   uint64 `json:"leases"`
	Banked   uint64 `json:"banked"`
	Faults   uint64 `json:"faults"`
	Cancels  uint64 `json:"cancels"`

	Workers map[string]*WorkerState `json:"workers,omitempty"`

	completed map[string]bool // keys that completed successfully and were banked
	banked    map[string]bool // untracked keys whose bytes were banked
	pending   map[string]bool // live pending keys at end of log
	leased    map[string]string
}

// CompletedKeys returns every key the journal says completed successfully
// and banked, sorted. These are the keys the store audit checks: each must
// be in the store. A completion whose Put the store refused is counted in
// Completes but not listed here.
func (s *State) CompletedKeys() []string {
	keys := make([]string, 0, len(s.completed))
	for k := range s.completed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// BankedKeys returns the untracked keys whose valid results were banked
// (late results of withdrawn cells), sorted.
func (s *State) BankedKeys() []string {
	keys := make([]string, 0, len(s.banked))
	for k := range s.banked {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// InFlight returns the cells unresolved at the end of the log: key ->
// holding worker ("" while pending). After a crash these are the cells
// the dead coordinator still owed its campaigns.
func (s *State) InFlight() map[string]string {
	out := make(map[string]string, len(s.pending)+len(s.leased))
	for k := range s.pending {
		out[k] = ""
	}
	for k, w := range s.leased {
		out[k] = w
	}
	return out
}

// Replay runs the event stream through the state machine and returns the
// end state. Events must be in journal order (ReadSince returns them so).
func Replay(events []Event) *State {
	s := &State{
		Workers:   map[string]*WorkerState{},
		completed: map[string]bool{},
		banked:    map[string]bool{},
		pending:   map[string]bool{},
		leased:    map[string]string{},
	}
	worker := func(id string) *WorkerState {
		if id == "" {
			return &WorkerState{} // discard: malformed event, keep replay total
		}
		w, ok := s.Workers[id]
		if !ok {
			w = &WorkerState{}
			s.Workers[id] = w
		}
		return w
	}
	resolve := func(key string) {
		delete(s.pending, key)
		delete(s.leased, key)
	}
	for _, ev := range events {
		s.Events++
		if ev.Seq > s.LastSeq {
			s.LastSeq = ev.Seq
		}
		switch ev.Type {
		case EvEnqueue:
			s.Enqueued++
			s.pending[ev.Key] = true
		case EvLease:
			s.Leases++
			worker(ev.Worker)
			delete(s.pending, ev.Key)
			s.leased[ev.Key] = ev.Worker
		case EvRenew:
			s.Renewals += uint64(ev.N)
			worker(ev.Worker)
		case EvComplete:
			s.Completes++
			s.Done++
			worker(ev.Worker).Completed++
			resolve(ev.Key)
			if ev.Cause == "" { // a cause means the store refused the bytes
				s.completed[ev.Key] = true
			}
		case EvError:
			worker(ev.Worker).Errors++
		case EvReject:
			s.Rejects++
			w := worker(ev.Worker)
			w.Errors++
			w.Rejects++
		case EvDuplicate:
			s.Duplicates++
		case EvRequeue:
			s.Requeues++
			resolve(ev.Key)
			s.pending[ev.Key] = true
		case EvFail:
			s.Fails++
			s.Done++
			resolve(ev.Key)
		case EvBank:
			s.Banked++
			s.banked[ev.Key] = true
		case EvCancel:
			s.Cancels++
			resolve(ev.Key)
		case EvDrain:
			worker(ev.Worker).State = "draining"
		case EvResume:
			w := worker(ev.Worker)
			w.State = ""
			w.Rejects = 0 // Resume closes the quarantine circuit breaker
		case EvQuarantine:
			worker(ev.Worker).State = "quarantined"
		case EvFault:
			s.Faults++
		}
	}
	s.Pending = len(s.pending)
	s.Leased = len(s.leased)
	return s
}
