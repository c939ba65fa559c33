package campaign

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"astro/internal/telemetry"
)

// shard is one partition of a ShardedStore: a memory tier and, when the
// store has a directory, a disk tier laid out as <key[:2]>/<key>.json
// under shard-XX/ plus the shard's keys.idx. The two-character fan-out
// keeps directories small for hundred-thousand-job campaigns.
//
// In a bounded store the disk tier holds at most maxBytes of value bytes,
// evicting least-recently-used unpinned entries (the whole file — an
// entry is always either fully present or absent), and the memory tier
// is the store's shared byte-bounded hot cache instead of an unbounded
// map. Eviction is safe by construction: a content-addressed entry can
// only be absent (forcing a recomputation that produces the identical
// bytes) or byte-for-byte correct, never stale or torn (DESIGN.md
// invariant 11). Pinned keys — see PinLedger — are skipped by eviction,
// which is how trained-agent snapshots referenced by live campaigns
// survive any pressure.
type shard struct {
	s       *ShardedStore    // owner: shared hot cache, pin ledger, occupancy totals
	dir     string           // "" = memory-only
	idxPath string           // dir/keys.idx
	gauge   *telemetry.Gauge // distinct keys in this shard; nil when memory-only

	// idxMu serializes keys.idx appends, eviction pruning and the
	// compaction swap, so none of them holds mu across file I/O.
	idxMu sync.Mutex

	mu      sync.RWMutex
	mem     map[string][]byte // unbounded memory tier (nil when s.hot is set)
	indexed map[string]bool   // keys recorded in keys.idx (bounded: the open-time scan), pruned on eviction
	nkeys   int               // |mem ∪ indexed|, kept incrementally for Len and the gauge

	// Disk-tier accounting (dir != ""). disk maps every key known to be
	// on disk to its LRU element; for unbounded stores it fills lazily
	// (Put, Get disk hits, Stat probes), for bounded ones it is seeded
	// by a full scan at open so the cap holds across restarts.
	maxBytes  int64
	diskBytes int64
	disk      map[string]*list.Element
	lru       *list.List      // front = most recently used; values are *diskEnt
	writing   map[string]bool // keys with a value write in flight (dedup without holding mu across fsync)

	hits, misses, puts   uint64
	diskWrites, putNoops uint64
	evictions            uint64
}

type diskEnt struct {
	key  string
	size int64
}

// openShard builds shard i, loading its disk tier when the store has a
// directory: a bounded shard scans its files (the cap must hold over what
// a previous process wrote), an unbounded one reads keys.idx.
func (s *ShardedStore) openShard(i int, maxBytes int64) (*shard, error) {
	sh := &shard{s: s}
	if s.hot == nil {
		sh.mem = map[string][]byte{}
	}
	if s.dir == "" {
		return sh, nil
	}
	sh.dir = filepath.Join(s.dir, fmt.Sprintf("shard-%02x", i))
	if err := os.MkdirAll(sh.dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: store dir: %w", err)
	}
	sh.idxPath = filepath.Join(sh.dir, "keys.idx")
	sh.gauge = shardGauge(i)
	sh.maxBytes = maxBytes
	sh.indexed = map[string]bool{}
	sh.disk = map[string]*list.Element{}
	sh.lru = list.New()
	sh.writing = map[string]bool{}
	if s.hot != nil {
		return sh, sh.loadDiskTier()
	}
	sh.loadIndex()
	return sh, nil
}

func (sh *shard) path(key string) string {
	return filepath.Join(sh.dir, key[:2], key+".json")
}

// diskKey reports whether key can name a value file: lowercase hex, as
// every content key is a SHA-256 digest, so no key (a mutated keys.idx
// line included) can reach outside its fan-out directory.
func diskKey(key string) bool {
	if len(key) <= 2 {
		return false
	}
	for i := 0; i < len(key); i++ {
		if c := key[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// loadDiskTier seeds a bounded shard's disk-tier accounting from the
// files already present, ordered oldest-modified first so the LRU starts
// with a sensible cold end, and evicts down to the cap if the directory
// arrives over it (a cap lowered between runs). The scan is ground truth
// for the key set too: stale index lines from evictions before the last
// compaction must not resurrect phantom keys in Len/Keys.
func (sh *shard) loadDiskTier() error {
	type onDisk struct {
		key   string
		size  int64
		mtime time.Time
	}
	var found []onDisk
	err := walkShard(sh.dir, 0, func(key string, f os.DirEntry) {
		if fi, err := f.Info(); err == nil {
			found = append(found, onDisk{key: key, size: fi.Size(), mtime: fi.ModTime()})
		}
	})
	if err != nil {
		return fmt.Errorf("campaign: store scan: %w", err)
	}
	// Oldest first, so the first PushFront calls land at the cold end.
	sort.SliceStable(found, func(i, j int) bool { return found[i].mtime.Before(found[j].mtime) })
	sh.mu.Lock()
	for _, f := range found {
		sh.trackLocked(f.key, f.size)
	}
	sh.evictLocked()
	for k := range sh.disk {
		sh.indexed[k] = true
	}
	sh.nkeys = len(sh.indexed)
	sh.mu.Unlock()
	return nil
}

// loadIndex reads the append-only key index, tolerating a torn final line
// (a crash mid-append): every complete line is a key; anything else is
// skipped.
func (sh *shard) loadIndex() {
	data, err := os.ReadFile(sh.idxPath)
	if err != nil {
		return
	}
	start := 0
	for i := 0; i < len(data); i++ {
		if data[i] == '\n' {
			if key := string(data[start:i]); len(key) == 64 && diskKey(key) {
				sh.indexed[key] = true
			}
			start = i + 1
		}
	}
	sh.nkeys = len(sh.indexed)
}

// walkShard walks a shard directory's two-hex fan-out, calling fn for
// every value file <key[:2]>/<key>.json. Temp files older than
// pruneTmpAge (a failed atomic write's leftovers, at either level) are
// removed; younger ones may be in-flight writes and are left alone, and
// 0 prunes nothing.
func walkShard(dir string, pruneTmpAge time.Duration, fn func(key string, f os.DirEntry)) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	now := time.Now()
	pruneTmp := func(parent string, e os.DirEntry) bool {
		if e.IsDir() || !strings.HasPrefix(e.Name(), ".tmp") {
			return false
		}
		if fi, err := e.Info(); err == nil && pruneTmpAge > 0 && now.Sub(fi.ModTime()) > pruneTmpAge {
			os.Remove(filepath.Join(parent, e.Name()))
		}
		return true
	}
	for _, e := range entries {
		name := e.Name()
		// keys.idx rewrites atomically into this level, so a crashed
		// rewrite leaves its temp file here.
		if pruneTmp(dir, e) || !e.IsDir() || len(name) != 2 {
			continue
		}
		if _, err := strconv.ParseUint(name, 16, 8); err != nil {
			continue
		}
		sub := filepath.Join(dir, name)
		files, err := os.ReadDir(sub)
		if err != nil {
			continue
		}
		for _, f := range files {
			fname := f.Name()
			if pruneTmp(sub, f) || f.IsDir() || filepath.Ext(fname) != ".json" {
				continue
			}
			if key := strings.TrimSuffix(fname, ".json"); diskKey(key) && key[:2] == name {
				fn(key, f)
			}
		}
	}
	return nil
}

// get reads the memory tier, then the disk tier.
func (sh *shard) get(key string) ([]byte, bool) {
	var data []byte
	var ok bool
	if sh.s.hot != nil {
		data, ok = sh.s.hot.get(key)
	}
	sh.mu.Lock()
	if sh.mem != nil {
		data, ok = sh.mem[key]
	}
	if ok {
		sh.hits++
		sh.touchLocked(key)
		sh.mu.Unlock()
		return data, true
	}
	sh.mu.Unlock()
	if sh.dir != "" && diskKey(key) {
		if data, err := os.ReadFile(sh.path(key)); err == nil {
			if sh.s.hot != nil {
				sh.s.hot.put(key, data)
			}
			sh.mu.Lock()
			if sh.mem != nil {
				sh.memPutLocked(key, data)
			}
			sh.hits++
			// An unbounded store discovering a prior process's entry
			// starts tracking it here.
			_, tracked := sh.disk[key]
			sh.trackLocked(key, int64(len(data)))
			sh.mu.Unlock()
			if !tracked {
				sh.publish()
			}
			return data, true
		}
	}
	sh.mu.Lock()
	sh.misses++
	sh.mu.Unlock()
	return nil, false
}

// memPutLocked fills the unbounded memory tier, counting a key new to
// the shard.
func (sh *shard) memPutLocked(key string, data []byte) {
	if _, ok := sh.mem[key]; !ok && !sh.indexed[key] {
		sh.nkeys++
	}
	sh.mem[key] = data
}

// put stores data in the memory tier and, for a disk-backed shard,
// writes it once (see ShardedStore.Put) and records it in keys.idx.
func (sh *shard) put(key string, data []byte) error {
	if sh.s.hot != nil {
		sh.s.hot.put(key, data)
	}
	sh.mu.Lock()
	if sh.mem != nil {
		sh.memPutLocked(key, data)
	}
	sh.puts++
	if sh.dir == "" || !diskKey(key) {
		sh.mu.Unlock()
		return nil
	}
	if _, ok := sh.disk[key]; ok || sh.writing[key] {
		// Already durable (or another goroutine is making it so, and
		// will index it).
		sh.touchLocked(key)
		sh.putNoops++
		sh.mu.Unlock()
		cStorePutNoops.Inc()
		if ok {
			sh.index(key)
		}
		return nil
	}
	if sh.maxBytes > 0 && int64(len(data)) > sh.maxBytes && !sh.s.pins.Pinned(key) {
		// The value alone exceeds this tier's cap: banking it would
		// evict every peer in the shard and the value would still have
		// to go — a whole shard of cache destroyed for nothing. Refuse
		// it up front (it stays in the memory tier for this process and
		// recomputes like any evicted key); a *pinned* oversized value
		// is banked regardless, holding the store over cap exactly as a
		// pinned eviction survivor would (Occupancy/readyz report it).
		sh.evictions++
		sh.mu.Unlock()
		cStoreEvictions.Add(1)
		return nil
	}
	sh.writing[key] = true
	sh.mu.Unlock()

	p := sh.path(key)
	size := int64(len(data))
	// An unbounded store does not scan at open, so a prior process's
	// entry surfaces here: one Stat instead of a rewrite.
	fi, werr := os.Stat(p)
	wrote := werr != nil
	if wrote {
		if werr = os.MkdirAll(filepath.Dir(p), 0o755); werr == nil {
			werr = writeFileAtomic(p, data)
		}
	} else {
		size = fi.Size()
	}
	sh.mu.Lock()
	delete(sh.writing, key)
	var victims []string
	if werr == nil {
		sh.trackLocked(key, size)
		if wrote {
			sh.diskWrites++
			victims = sh.evictLocked()
		} else {
			sh.putNoops++
		}
	}
	sh.mu.Unlock()
	if werr != nil {
		return fmt.Errorf("campaign: store put: %w", werr)
	}
	if wrote {
		cStoreDiskWrites.Inc()
	} else {
		cStorePutNoops.Inc()
	}
	sh.index(key)
	sh.forget(victims)
	return nil
}

// index appends key to keys.idx unless it is already recorded. Best
// effort: the value is already durable; a lost index line only costs
// enumeration, never a wrong Get.
func (sh *shard) index(key string) {
	sh.mu.RLock()
	done := sh.indexed[key]
	sh.mu.RUnlock()
	if done {
		return
	}
	sh.idxMu.Lock()
	defer sh.publish()
	defer sh.idxMu.Unlock()
	sh.mu.RLock()
	done = sh.indexed[key]
	sh.mu.RUnlock()
	if done {
		return
	}
	f, err := os.OpenFile(sh.idxPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	_, err = f.WriteString(key + "\n")
	f.Close()
	if err == nil {
		sh.mu.Lock()
		sh.indexed[key] = true
		if _, ok := sh.mem[key]; !ok {
			sh.nkeys++
		}
		sh.mu.Unlock()
	}
}

// trackLocked records key as on disk with the given size, moving it to
// the hot end.
func (sh *shard) trackLocked(key string, size int64) {
	if e, ok := sh.disk[key]; ok {
		sh.lru.MoveToFront(e)
		ent := e.Value.(*diskEnt)
		sh.diskBytes += size - ent.size
		sh.s.diskBytes.Add(size - ent.size)
		ent.size = size
		return
	}
	sh.disk[key] = sh.lru.PushFront(&diskEnt{key: key, size: size})
	sh.diskBytes += size
	sh.s.diskBytes.Add(size)
	sh.s.diskKeys.Add(1)
}

// touchLocked marks key most-recently-used.
func (sh *shard) touchLocked(key string) {
	if e, ok := sh.disk[key]; ok {
		sh.lru.MoveToFront(e)
	}
}

// evictLocked removes least-recently-used unpinned entries until the
// disk tier fits its cap, returning the evicted keys (the caller runs
// forget outside the lock). Pinned entries are skipped in place — a
// clock-style pass — so a store whose pinned bytes exceed the cap simply
// stays over it (and reports so through Occupancy/readyz) rather than
// evicting a snapshot a live campaign depends on. File removal happens
// inside the lock-held walk but is a plain unlink (no fsync); a
// concurrent Get racing the unlink either reads the full old bytes or
// misses — both correct.
func (sh *shard) evictLocked() []string {
	if sh.maxBytes <= 0 || sh.diskBytes <= sh.maxBytes {
		return nil
	}
	var victims []string
	for e := sh.lru.Back(); e != nil && sh.diskBytes > sh.maxBytes; {
		ent := e.Value.(*diskEnt)
		prev := e.Prev()
		if sh.s.pins.Pinned(ent.key) {
			e = prev
			continue
		}
		os.Remove(sh.path(ent.key))
		sh.lru.Remove(e)
		delete(sh.disk, ent.key)
		sh.diskBytes -= ent.size
		sh.s.diskBytes.Add(-ent.size)
		sh.s.diskKeys.Add(-1)
		sh.evictions++
		victims = append(victims, ent.key)
		e = prev
	}
	cStoreEvictions.Add(uint64(len(victims)))
	return victims
}

// forget runs after an eviction, outside mu: the hot cache drops its
// copy (evicted ⇒ the next Get recomputes, crisply) and the key set
// forgets the key; keys.idx on disk catches up at the next compaction.
func (sh *shard) forget(victims []string) {
	if len(victims) == 0 {
		return
	}
	sh.idxMu.Lock()
	sh.mu.Lock()
	for _, key := range victims {
		sh.s.hot.drop(key)
		if sh.indexed[key] {
			delete(sh.indexed, key)
			sh.nkeys--
		}
	}
	sh.mu.Unlock()
	sh.idxMu.Unlock()
	sh.publish()
}

// publish refreshes the shard's key-count gauge and the store-wide disk
// occupancy gauges. Memory-only shards publish nothing.
func (sh *shard) publish() {
	if sh.gauge == nil {
		return
	}
	sh.mu.RLock()
	n := sh.nkeys
	sh.mu.RUnlock()
	sh.gauge.Set(float64(n))
	gStoreDiskBytes.Set(float64(sh.s.diskBytes.Load()))
	gStoreDiskKeys.Set(float64(sh.s.diskKeys.Load()))
}

// compact rewrites keys.idx down to the live value files (see
// ShardedStore.Compact).
func (sh *shard) compact() error {
	if sh.dir == "" {
		return nil
	}
	live := map[string]bool{}
	if err := walkShard(sh.dir, time.Minute, func(key string, _ os.DirEntry) { live[key] = true }); err != nil {
		return err
	}
	sh.idxMu.Lock()
	defer sh.idxMu.Unlock()
	// Keys indexed between the walk and here are not in the walk; confirm
	// their file and keep them, so compaction never drops a fresh write
	// from the index.
	var fresh []string
	sh.mu.RLock()
	for k := range sh.indexed {
		if !live[k] {
			fresh = append(fresh, k)
		}
	}
	sh.mu.RUnlock()
	for _, k := range fresh {
		if _, err := os.Stat(sh.path(k)); err == nil {
			live[k] = true
		}
	}
	if sh.s.hot != nil {
		// A bounded shard's disk map is ground truth: drop anything
		// evicted after the walk saw its file.
		sh.mu.RLock()
		for k := range live {
			if _, ok := sh.disk[k]; !ok {
				delete(live, k)
			}
		}
		sh.mu.RUnlock()
	}
	keys := make([]string, 0, len(live))
	for k := range live {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('\n')
	}
	if err := writeFileAtomic(sh.idxPath, []byte(b.String())); err != nil {
		return err
	}
	sh.mu.Lock()
	sh.indexed = live
	sh.nkeys = len(live)
	for k := range sh.mem {
		if !live[k] {
			sh.nkeys++
		}
	}
	sh.mu.Unlock()
	cStoreCompactions.Inc()
	sh.publish()
	return nil
}
