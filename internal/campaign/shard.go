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

// shard is one partition of a ShardedStore: when the store has a
// directory, a disk tier laid out as <key[:2]>/<key>.json under
// shard-XX/, and otherwise a plain map. A disk shard keeps no value bytes
// in memory: the value files are the only record of what it holds, and
// the two-character fan-out keeps directories small for
// hundred-thousand-job campaigns.
//
// Only a capped shard keeps a key index, for eviction and /readyz: its
// disk tier holds at most maxBytes of value bytes, evicting
// least-recently-used unpinned entries (the whole file — an entry is
// always either fully present or absent). Eviction is safe by
// construction: a content-addressed entry can only be absent (forcing a
// recomputation that produces the identical bytes) or byte-for-byte
// correct, never stale or torn (DESIGN.md invariant 11). Pinned keys —
// see PinLedger — are skipped by eviction, which is how trained-agent
// snapshots referenced by live campaigns survive any pressure.
type shard struct {
	s     *ShardedStore    // owner: pin ledger, occupancy totals
	dir   string           // "" = memory-only
	gauge *telemetry.Gauge // keys in this shard's index; nil when memory-only

	mu sync.RWMutex

	mem map[string][]byte // a memory-only shard's values (dir == ""); no cap, no LRU

	writing map[string]chan struct{} // dir != "": keys with a value write in flight, closed when it ends (dedup without holding mu across fsync)

	// A capped shard's key index, seeded by a scan at open so the cap
	// holds across restarts; nil when uncapped.
	maxBytes  int64
	diskBytes int64
	disk      map[string]*list.Element
	lru       *list.List // front = most recently used; values are *diskEnt

	hits, misses, puts   uint64
	diskWrites, putNoops uint64
	evictions            uint64
}

type diskEnt struct {
	key  string
	size int64
}

// openShard builds shard i. A capped shard scans its files into its key
// index (the cap must hold over what a previous process wrote); an
// uncapped one does no per-key work.
func (s *ShardedStore) openShard(i int, maxBytes int64) (*shard, error) {
	sh := &shard{s: s}
	if s.dir == "" {
		sh.mem = map[string][]byte{}
		return sh, nil
	}
	sh.dir = filepath.Join(s.dir, fmt.Sprintf("shard-%02x", i))
	if err := os.MkdirAll(sh.dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: store dir: %w", err)
	}
	sh.gauge = shardGauge(i)
	sh.writing = map[string]chan struct{}{}
	if maxBytes == 0 {
		return sh, nil
	}
	sh.maxBytes = maxBytes
	sh.disk = map[string]*list.Element{}
	sh.lru = list.New()
	return sh, sh.loadDiskTier()
}

func (sh *shard) path(key string) string {
	return filepath.Join(sh.dir, key[:2], key+".json")
}

// diskKey reports whether key can name a value file: lowercase hex, as
// every content key is a SHA-256 digest, so no key can reach outside its
// fan-out directory.
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

// loadDiskTier seeds a capped shard's key index from the
// files already present, ordered oldest-modified first so the LRU starts
// with a sensible cold end, and evicts down to the cap if the directory
// arrives over it (a cap lowered between runs). Like Keys, the scan
// sweeps temp files older than a minute.
func (sh *shard) loadDiskTier() error {
	type onDisk struct {
		key   string
		size  int64
		mtime time.Time
	}
	var found []onDisk
	err := walkShard(sh.dir, time.Minute, func(key string, f os.DirEntry) {
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
	sh.mu.Unlock()
	return nil
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
		// An older store rewrote its key index atomically at this level,
		// so a crashed rewrite may have left its temp file here.
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

// get reads the shard's map, or its value file.
func (sh *shard) get(key string) ([]byte, bool) {
	if sh.dir == "" {
		sh.mu.Lock()
		data, ok := sh.mem[key]
		if ok {
			sh.hits++
		} else {
			sh.misses++
		}
		sh.mu.Unlock()
		return data, ok
	}
	if diskKey(key) {
		if data, err := os.ReadFile(sh.path(key)); err == nil {
			sh.mu.Lock()
			sh.hits++
			// The file was read without the lock. A capped shard indexes
			// every file from its open-time scan on, so a key missing from
			// its index here is one an eviction unlinked since the read:
			// serve the bytes, but do not index the key, or the next Put
			// would take it for durable and write nothing.
			sh.touchLocked(key)
			sh.mu.Unlock()
			return data, true
		}
	}
	sh.mu.Lock()
	sh.misses++
	sh.mu.Unlock()
	return nil, false
}

// put stores data in a memory-only shard's map or, for a disk-backed
// shard, writes it once (see ShardedStore.Put). A disk shard refuses a
// key that cannot name a value file: it has nowhere else to keep it. Only
// a capped shard indexes what it writes.
func (sh *shard) put(key string, data []byte) error {
	sh.mu.Lock()
	sh.puts++
	if sh.dir == "" {
		sh.mem[key] = data
		sh.mu.Unlock()
		return nil
	}
	if !diskKey(key) {
		sh.mu.Unlock()
		return fmt.Errorf("campaign: store put: key %q cannot name a value file (want lowercase hex)", key)
	}
	// Another goroutine writing the same bytes: wait for it, so that this
	// Put, too, returns only once the file exists, as no memory copy
	// covers a Get in between. If that write failed, the key is not on
	// disk below and this Put writes it.
	for done, busy := sh.writing[key]; busy; done, busy = sh.writing[key] {
		sh.mu.Unlock()
		<-done
		sh.mu.Lock()
	}
	if _, ok := sh.disk[key]; ok {
		// Indexed, so already durable.
		sh.touchLocked(key)
		sh.putNoops++
		sh.mu.Unlock()
		cStorePutNoops.Inc()
		return nil
	}
	if sh.maxBytes > 0 && int64(len(data)) > sh.maxBytes && !sh.s.pins.Pinned(key) {
		// The value alone exceeds this tier's cap: banking it would
		// evict every peer in the shard and the value would still have
		// to go — a whole shard of cache destroyed for nothing. Refuse
		// it up front (it recomputes like any evicted key), with an
		// error, as a Get will miss; a *pinned* oversized value is
		// banked regardless, holding the store over cap exactly as a
		// pinned eviction survivor would (Occupancy/readyz report it).
		sh.evictions++
		sh.mu.Unlock()
		cStoreEvictions.Add(1)
		return fmt.Errorf("campaign: store put: a %d-byte value exceeds the shard's %d-byte cap", len(data), sh.maxBytes)
	}
	done := make(chan struct{})
	sh.writing[key] = done
	sh.mu.Unlock()

	p := sh.path(key)
	size := int64(len(data))
	// An uncapped shard keeps no index, so a key already on disk, whether
	// this process or an earlier one wrote it, surfaces here: one Stat
	// instead of a rewrite.
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
	close(done)
	if werr == nil {
		if wrote {
			sh.diskWrites++
		} else {
			sh.putNoops++
		}
		if sh.maxBytes > 0 {
			sh.trackLocked(key, size)
			sh.evictLocked()
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
	sh.publish()
	return nil
}

// trackLocked records key in a capped shard's index with the given size,
// moving it to the hot end.
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

// touchLocked marks an indexed key most-recently-used.
func (sh *shard) touchLocked(key string) {
	if e, ok := sh.disk[key]; ok {
		sh.lru.MoveToFront(e)
	}
}

// evictLocked removes least-recently-used unpinned entries until the
// disk tier fits its cap. Pinned entries are skipped in place — a
// clock-style pass — so a store whose pinned bytes exceed the cap simply
// stays over it (and reports so through Occupancy/readyz) rather than
// evicting a snapshot a live campaign depends on. File removal happens
// inside the lock-held walk but is a plain unlink (no fsync); a
// concurrent Get racing the unlink either reads the full old bytes or
// misses — both correct.
func (sh *shard) evictLocked() {
	if sh.maxBytes <= 0 || sh.diskBytes <= sh.maxBytes {
		return
	}
	evicted := 0
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
		evicted++
		e = prev
	}
	cStoreEvictions.Add(uint64(evicted))
}

// publish refreshes the shard's key-count gauge and the store-wide disk
// occupancy gauges from a capped shard's key index. Other shards publish
// nothing, so an uncapped store's gauges stay 0.
func (sh *shard) publish() {
	if sh.maxBytes == 0 {
		return
	}
	sh.mu.RLock()
	n := len(sh.disk)
	sh.mu.RUnlock()
	sh.gauge.Set(float64(n))
	gStoreDiskBytes.Set(float64(sh.s.diskBytes.Load()))
	gStoreDiskKeys.Set(float64(sh.s.diskKeys.Load()))
}
