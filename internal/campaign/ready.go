package campaign

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"time"
)

// Readiness probes. /healthz answers "is the process up"; /readyz
// answers "can this coordinator actually take traffic" — the store
// accepts writes, the sweeper is sweeping, and (when work is
// outstanding) some worker has contacted the queue recently. Probes
// are read-only except for the store's temp-file write, so a failing
// probe never mutates queue state.

// Healther is implemented by stores that can verify their backing
// medium still accepts writes. Memory-only stores are trivially
// healthy; disk-backed stores probe with a temp file.
type Healther interface {
	Healthy() error
}

// Healthy verifies the store's root directory (when configured) still
// accepts writes, by creating and removing a probe file. A read-only
// remount or full disk fails here before it fails a result Put; one probe
// suffices, as the shards live under the same mount.
func (s *ShardedStore) Healthy() error {
	return probeDirWritable(s.dir)
}

func probeDirWritable(dir string) error {
	if dir == "" {
		return nil // memory-only: nothing can go read-only
	}
	f, err := os.CreateTemp(dir, ".readyz*")
	if err != nil {
		return fmt.Errorf("campaign: store dir not writable: %w", err)
	}
	name := f.Name()
	f.Close()
	os.Remove(name)
	return nil
}

// ReadyCheck is one named probe result in the /readyz payload.
type ReadyCheck struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// ReadyStatus is the /readyz payload: ready iff every check passed.
type ReadyStatus struct {
	Ready  bool         `json:"ready"`
	Checks []ReadyCheck `json:"checks"`
}

// Readiness runs the coordinator readiness probes:
//
//   - store: the result store's backing directory accepts writes
//     (nil store or memory-only passes — there is nothing to probe);
//   - sweeper: StartSweeper is running and has swept within 4
//     intervals (a wedged sweeper means expired leases stop
//     re-issuing the moment workers stop polling);
//   - workers: when cells are pending or leased, at least one
//     known worker has contacted the queue within 2 lease TTLs —
//     work outstanding with a silent fleet is a stalled sweep.
//
// An idle queue (no work, no workers) is ready: a coordinator is
// routable before its first campaign arrives.
func Readiness(q *WorkQueue, store Healther) ReadyStatus {
	now := time.Now()
	var out ReadyStatus
	out.Ready = true
	add := func(name string, err error) {
		c := ReadyCheck{Name: name, OK: err == nil}
		if err != nil {
			c.Detail = err.Error()
			out.Ready = false
		}
		out.Checks = append(out.Checks, c)
	}

	if store != nil {
		add("store", store.Healthy())
	} else {
		add("store", nil)
	}

	// Store pressure: a bounded store sitting over its cap can only mean
	// pinned bytes exceed it (eviction handles everything unpinned) —
	// live campaigns reference more trained-agent state than the cap
	// allows, and the next eviction-worthy write has nowhere to go. Fail
	// readiness so the operator raises -store-max-bytes or sheds load
	// before correctness pressure turns into recompute storms.
	if occ, ok := store.(Occupant); ok {
		o := occ.Occupancy()
		switch {
		case o.CapBytes > 0 && o.DiskBytes > o.CapBytes:
			add("store_pressure", fmt.Errorf("disk tier %d bytes over its %d-byte cap (%d pinned bytes held by live campaigns)", o.DiskBytes, o.CapBytes, o.PinnedBytes))
		case o.CapBytes > 0 && o.PinnedBytes > o.CapBytes:
			add("store_pressure", fmt.Errorf("pinned bytes %d exceed the %d-byte cap; the next write must evict a pinned snapshot or stay over cap", o.PinnedBytes, o.CapBytes))
		default:
			add("store_pressure", nil)
		}
	}

	running, interval, last := q.SweeperHealth()
	switch {
	case !running:
		add("sweeper", fmt.Errorf("not started"))
	case !last.IsZero() && now.Sub(last) > 4*interval:
		add("sweeper", fmt.Errorf("last sweep %.1fs ago (interval %s)", now.Sub(last).Seconds(), interval))
	default:
		add("sweeper", nil)
	}

	add("workers", workerFreshness(q.Stats(), q.LeaseTTL(), now))
	return out
}

// workerFreshness fails when work is outstanding but no worker has
// contacted the queue within 2 TTLs (every healthy worker leases or
// renews far more often than that).
func workerFreshness(st QueueStats, ttl time.Duration, now time.Time) error {
	if st.Pending+st.Leased == 0 {
		return nil
	}
	if len(st.Workers) == 0 {
		return fmt.Errorf("%d cells outstanding, no worker has ever connected", st.Pending+st.Leased)
	}
	stale := 2 * ttl
	freshest := time.Duration(1<<62 - 1)
	for _, w := range st.Workers {
		if idle := now.Sub(w.LastSeen); idle < freshest {
			freshest = idle
		}
	}
	if freshest > stale {
		return fmt.Errorf("%d cells outstanding, freshest worker idle %.1fs (threshold %s)",
			st.Pending+st.Leased, freshest.Seconds(), stale)
	}
	return nil
}

// ReadyHandler serves GET /readyz: 200 with the check list when every
// probe passes, 503 otherwise. The body is the same JSON either way,
// so an operator curling a failing probe sees which check tripped.
func ReadyHandler(q *WorkQueue, store Healther) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := Readiness(q, store)
		sort.SliceStable(st.Checks, func(i, j int) bool { return st.Checks[i].Name < st.Checks[j].Name })
		w.Header().Set("Content-Type", "application/json")
		if !st.Ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(st)
	})
}
