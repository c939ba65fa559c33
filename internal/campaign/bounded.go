package campaign

import "sync"

// Bounded-store machinery: the pieces that turn the content-addressed
// result store from "grows forever" into a production tier with a byte
// cap. Two cooperating parts, all policy-free about *what* the bytes
// are (results, trained-agent snapshots — the store never knows):
//
//   - PinLedger: refcounts on content keys. A pinned key is never
//     evicted, no matter how cold; the WorkQueue pins a hybrid cell's
//     trained-agent snapshot on enqueue and unpins when the cell
//     finishes or is cancelled, so a snapshot referenced by a live
//     campaign survives any eviction pressure.
//   - StoreConfig/Occupancy: the knobs and the live accounting that
//     /metrics, /readyz and the soak test read.
//
// The safety contract for all of it is DESIGN.md invariant 11: eviction
// may force recomputation, never corruption. Nothing here rewrites
// bytes; the only mutation is "remove a whole entry" (crash-safe: the
// entry is either fully present or absent).

// StoreConfig bounds a disk-backed store. The zero value means
// unbounded; a negative cap is refused.
type StoreConfig struct {
	// MaxBytes caps the disk tier: once the sum of stored value bytes
	// would exceed it, least-recently-used unpinned entries are evicted
	// (their files removed) until the store fits. 0 = unbounded.
	// The cap splits evenly across shards.
	MaxBytes int64
}

// Occupancy is a live snapshot of a bounded store's accounting: what
// /metrics gauges, the /readyz pressure probe, and the soak test's
// under-the-cap assertion all read.
type Occupancy struct {
	DiskBytes   int64  `json:"disk_bytes"`          // value bytes on disk (capped stores only)
	CapBytes    int64  `json:"cap_bytes,omitempty"` // configured MaxBytes (summed over shards); 0 = unbounded
	DiskKeys    int    `json:"disk_keys"`           // distinct keys on disk (capped stores only)
	PinnedKeys  int    `json:"pinned_keys"`         // pinned keys on disk (capped stores only)
	PinnedBytes int64  `json:"pinned_bytes"`        // on-disk bytes held by pinned keys (capped stores only)
	DiskWrites  uint64 `json:"disk_writes"`         // value files written (one per unique key)
	PutNoops    uint64 `json:"put_noops"`           // Puts of already-stored keys skipped without a write
	Evictions   uint64 `json:"evictions"`           // disk-tier entries evicted, and oversized Puts refused
}

// Occupant is implemented by stores that account their disk tier;
// readiness probes and the soak test consult it through the interface, as
// the ResultStore they hold need not be a ShardedStore.
type Occupant interface {
	Occupancy() Occupancy
}

// PinStore is the pinning seam: the WorkQueue pins a hybrid cell's
// trained-agent snapshot key on enqueue and unpins it when the cell
// finishes or is cancelled; experiments.Fig10 pins its agents across
// training and sampling. Pins are refcounts — two campaigns sharing
// an agent pin it twice, and it stays protected until both let go.
// Pinning a key the store does not (yet) hold is legal: the pin applies
// the moment the bytes arrive.
type PinStore interface {
	Pin(key string)
	Unpin(key string)
}

// PinLedger is the refcount table behind PinStore. One ledger is shared
// by every shard of a store, so a pin protects a key wherever it lands.
type PinLedger struct {
	mu   sync.Mutex
	refs map[string]int
}

// NewPinLedger builds an empty ledger.
func NewPinLedger() *PinLedger {
	return &PinLedger{refs: map[string]int{}}
}

// Pin increments key's refcount.
func (l *PinLedger) Pin(key string) {
	if l == nil || key == "" {
		return
	}
	l.mu.Lock()
	l.refs[key]++
	gStorePinnedKeys.Set(float64(len(l.refs)))
	l.mu.Unlock()
}

// Unpin decrements key's refcount, dropping the pin at zero. Unpinning
// an unpinned key is a no-op (never panics, never goes negative): the
// cancel and finish paths may race benignly.
func (l *PinLedger) Unpin(key string) {
	if l == nil || key == "" {
		return
	}
	l.mu.Lock()
	if n, ok := l.refs[key]; ok {
		if n <= 1 {
			delete(l.refs, key)
		} else {
			l.refs[key] = n - 1
		}
	}
	gStorePinnedKeys.Set(float64(len(l.refs)))
	l.mu.Unlock()
}

// Pinned reports whether key currently holds any pin.
func (l *PinLedger) Pinned(key string) bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	_, ok := l.refs[key]
	l.mu.Unlock()
	return ok
}

// PinnedKeys returns the currently pinned keys (unordered).
func (l *PinLedger) PinnedKeys() []string {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := make([]string, 0, len(l.refs))
	for k := range l.refs {
		out = append(out, k)
	}
	l.mu.Unlock()
	return out
}
