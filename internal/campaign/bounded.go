package campaign

import (
	"container/list"
	"sync"
)

// Bounded-store machinery: the pieces that turn the content-addressed
// result store from "grows forever" into a production tier with a byte
// cap. Three cooperating parts, all policy-free about *what* the bytes
// are (results, trained-agent snapshots — the store never knows):
//
//   - PinLedger: refcounts on content keys. A pinned key is never
//     evicted, no matter how cold; the WorkQueue pins a hybrid cell's
//     trained-agent snapshot on enqueue and unpins when the cell
//     finishes or is cancelled, so a snapshot referenced by a live
//     campaign survives any eviction pressure.
//   - hotCache: a byte-bounded LRU in front of the disk tier, replacing
//     the old unbounded in-memory map whenever a cap is configured.
//     Purely a cache: every entry also lives on disk (or did, before
//     disk eviction), so dropping one costs a re-read or a recompute,
//     never correctness.
//   - StoreConfig/Occupancy: the knobs and the live accounting that
//     /metrics, /readyz and the soak test read.
//
// The safety contract for all of it is DESIGN.md invariant 11: eviction
// may force recomputation, never corruption. Nothing here rewrites
// bytes; the only mutations are "remove a whole entry" (crash-safe: the
// entry is either fully present or absent) and "rewrite keys.idx
// atomically" (compaction, via the same writeFileAtomic discipline as
// values).

// StoreConfig bounds a disk-backed store. The zero value means
// unbounded; negative caps are refused.
type StoreConfig struct {
	// MaxBytes caps the disk tier: once the sum of stored value bytes
	// would exceed it, least-recently-used unpinned entries are evicted
	// (their files removed) until the store fits. 0 = unbounded.
	// The cap splits evenly across shards.
	MaxBytes int64

	// HotBytes caps the in-memory hot cache fronting the disk tier.
	// 0 with MaxBytes set defaults to MaxBytes (memory never holds more
	// than the disk tier may); 0 with MaxBytes unset keeps the legacy
	// unbounded memory tier.
	HotBytes int64
}

func (c StoreConfig) bounded() bool { return c.MaxBytes > 0 || c.HotBytes > 0 }

// effHotBytes is the hot-cache cap the config resolves to.
func (c StoreConfig) effHotBytes() int64 {
	if c.HotBytes > 0 {
		return c.HotBytes
	}
	return c.MaxBytes
}

// Occupancy is a live snapshot of a bounded store's accounting: what
// /metrics gauges, the /readyz pressure probe, and the soak test's
// under-the-cap assertion all read.
type Occupancy struct {
	DiskBytes   int64  `json:"disk_bytes"`          // value bytes currently on disk
	CapBytes    int64  `json:"cap_bytes,omitempty"` // configured MaxBytes (summed over shards); 0 = unbounded
	DiskKeys    int    `json:"disk_keys"`           // distinct keys on disk
	PinnedKeys  int    `json:"pinned_keys"`         // keys currently pinned (refcount > 0)
	PinnedBytes int64  `json:"pinned_bytes"`        // on-disk bytes held by pinned keys
	HotBytes    int64  `json:"hot_bytes"`           // bytes resident in the hot cache
	HotCapBytes int64  `json:"hot_cap_bytes,omitempty"`
	DiskWrites  uint64 `json:"disk_writes"` // value files written (one per unique key)
	PutNoops    uint64 `json:"put_noops"`   // Puts of already-stored keys skipped without a write
	Evictions   uint64 `json:"evictions"`   // disk-tier entries evicted
}

// Occupant is implemented by stores that account their disk tier;
// readiness probes and the soak test consult it through the interface, as
// the ResultStore they hold may be a wrapper such as AgentExchange.
type Occupant interface {
	Occupancy() Occupancy
}

// PinStore is the pinning seam: the WorkQueue pins a hybrid cell's
// trained-agent snapshot key on enqueue and unpins it when the cell
// finishes or is cancelled. Pins are refcounts — two campaigns sharing
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

// hotCache is the byte-bounded LRU memory tier. It is shared by every
// shard of a sharded store (the cache fronts the store, not a shard), so
// it has its own lock; it never calls back into any store, which keeps
// the lock ordering store.mu → hot.mu acyclic.
type hotCache struct {
	mu    sync.Mutex
	max   int64
	bytes int64
	lru   *list.List // front = most recently used; values are *hotEnt
	ent   map[string]*list.Element
}

type hotEnt struct {
	key  string
	data []byte
}

func newHotCache(maxBytes int64) *hotCache {
	return &hotCache{max: maxBytes, lru: list.New(), ent: map[string]*list.Element{}}
}

// get returns the cached bytes and marks the entry most-recently-used.
// It counts hot-tier hits/misses; the caller owns the store-level
// hit/miss accounting (a hot miss may still be a disk hit).
func (h *hotCache) get(key string) ([]byte, bool) {
	h.mu.Lock()
	e, ok := h.ent[key]
	if !ok {
		h.mu.Unlock()
		cHotMisses.Inc()
		return nil, false
	}
	h.lru.MoveToFront(e)
	data := e.Value.(*hotEnt).data
	h.mu.Unlock()
	cHotHits.Inc()
	return data, true
}

// put inserts (or refreshes) an entry and evicts from the cold end until
// the cache fits. An entry larger than the whole cache is not admitted —
// caching it would evict everything for a single key.
func (h *hotCache) put(key string, data []byte) {
	size := int64(len(data))
	if size > h.max {
		return
	}
	h.mu.Lock()
	if e, ok := h.ent[key]; ok {
		h.lru.MoveToFront(e)
		h.bytes += size - int64(len(e.Value.(*hotEnt).data))
		e.Value.(*hotEnt).data = data
	} else {
		h.ent[key] = h.lru.PushFront(&hotEnt{key: key, data: data})
		h.bytes += size
	}
	evicted := 0
	for h.bytes > h.max {
		back := h.lru.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*hotEnt)
		h.lru.Remove(back)
		delete(h.ent, ent.key)
		h.bytes -= int64(len(ent.data))
		evicted++
	}
	gHotBytes.Set(float64(h.bytes))
	h.mu.Unlock()
	if evicted > 0 {
		cHotEvictions.Add(uint64(evicted))
	}
}

// drop removes an entry (used when the disk tier evicts the key, so
// "evicted ⇒ next Get recomputes" holds crisply across both tiers).
func (h *hotCache) drop(key string) {
	h.mu.Lock()
	if e, ok := h.ent[key]; ok {
		h.lru.Remove(e)
		delete(h.ent, key)
		h.bytes -= int64(len(e.Value.(*hotEnt).data))
		gHotBytes.Set(float64(h.bytes))
	}
	h.mu.Unlock()
}

// size returns the resident byte count.
func (h *hotCache) size() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.bytes
}
