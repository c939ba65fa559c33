package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// ShardedStore is the content-addressed result store: canonical result
// bytes keyed by job content hash. Opened with a directory, it keeps every
// value in a file and no value bytes in memory: a Get reads the file, which
// is what makes a warm re-run of a campaign across process restarts
// perform zero fresh simulations. Without a directory the store is
// memory-only (NewMemStore): each shard keeps its values in a plain map,
// with no cap and no LRU.
//
// Keys partition into power-of-two shards selected by key prefix:
// shard(key) = first 8 bits of the (hex) key, masked to the shard count.
// Every shard has its own lock and its own directory, so N workers (or N
// coordinator goroutines draining worker results) writing concurrently
// contend only when their keys land in the same shard. Keys are SHA-256
// hex, so the prefix is uniformly distributed and the shards stay
// balanced without any placement logic. A one-shard store is the plain
// single-lock store.
//
// There is one on-disk layout:
//
//	INDEX.json                  {"version":1,"shards":N} — pins the shard count
//	shard-00/<key[:2]>/<key>.json  shard 0's values, fanned out by key prefix
//	shard-01/…                  …
//
// The value files are the one record of what the store holds: Get finds
// a key by its path, and Keys walks the shard directories. A keys.idx
// left by an older store is ignored: never read, written or removed.
//
// The shard count is part of the layout: reopening a directory with a
// different non-zero count is an error rather than a silent cache miss on
// every key, and a count of 0 adopts the manifest's. A directory that has
// entries but no INDEX.json is refused — a cache written before the single
// layout, or a mistyped -cache — instead of being opened as an empty store.
//
// One pin ledger is shared by every shard — see bounded.go. Opened with
// NewShardedStoreWith and a StoreConfig, the store is bounded: the
// MaxBytes cap splits evenly across shards (uniform keys keep the split
// fair), and each shard evicts LRU-unpinned entries independently under
// its own lock.
type ShardedStore struct {
	dir    string
	mask   uint8
	pins   *PinLedger // shared by all shards: a pin protects a key wherever it lands
	shards []*shard

	// Disk-tier occupancy summed over shards, behind the store-wide gauges.
	diskBytes, diskKeys atomic.Int64
}

type shardManifest struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

const shardManifestName = "INDEX.json"

// NewMemStore builds a memory-only one-shard store.
func NewMemStore() *ShardedStore {
	s, _ := NewShardedStore("", 1) // no directory, no caps: nothing can fail
	return s
}

// NewShardedStore opens (or creates) an unbounded store under dir. shards
// is snapped up to a power of two (max 256); 0 means the count recorded
// in dir's INDEX.json, or 1 for a fresh directory. An empty dir builds a
// memory-only store.
func NewShardedStore(dir string, shards int) (*ShardedStore, error) {
	return NewShardedStoreWith(dir, shards, StoreConfig{})
}

// OpenStore opens the existing store under dir with whatever shard count
// it was created with (NewShardedStore(dir, 0)). Read-side tools — the
// journal replay audit — use it so the operator needn't remember the
// -shards value a coordinator was launched with. Unlike NewShardedStore
// it never creates one: a missing directory, or one without INDEX.json,
// is an error naming dir, so a mistyped path cannot pass as an empty
// store. The store opens unbounded: an audit must never evict the
// evidence.
func OpenStore(dir string) (*ShardedStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("campaign: open store: no directory given")
	}
	if _, err := os.Stat(filepath.Join(dir, shardManifestName)); err != nil {
		return nil, fmt.Errorf("campaign: %s is not an existing result store: %w", dir, err)
	}
	return NewShardedStore(dir, 0)
}

// NewShardedStoreWith is NewShardedStore with a byte cap (see
// StoreConfig): the disk cap splits evenly across shards, and the pin
// ledger is shared by all of them. A cap requires a disk tier: a
// memory-only store's map is authoritative storage, and evicting from it
// would lose results rather than spill them.
func NewShardedStoreWith(dir string, shards int, cfg StoreConfig) (*ShardedStore, error) {
	if cfg.MaxBytes < 0 {
		return nil, fmt.Errorf("campaign: store cap must not be negative (max %d bytes)", cfg.MaxBytes)
	}
	if dir == "" && cfg.MaxBytes > 0 {
		return nil, fmt.Errorf("campaign: store caps need a disk tier (-cache); a memory-only store cannot evict without losing results")
	}
	n, err := openLayout(dir, shards)
	if err != nil {
		return nil, err
	}
	s := &ShardedStore{dir: dir, mask: uint8(n - 1), pins: NewPinLedger(), shards: make([]*shard, n)}
	shardCap := cfg.MaxBytes / int64(n)
	if cfg.MaxBytes > 0 && shardCap == 0 {
		shardCap = 1 // a cap below one byte per shard still bounds, never unbounds
	}
	for i := range s.shards {
		sh, err := s.openShard(i, shardCap)
		if err != nil {
			return nil, err
		}
		s.shards[i] = sh
		sh.publish()
	}
	return s, nil
}

// openLayout resolves the shard count of the store under dir: the
// manifest's when one exists (a non-zero request must match it), else
// the request snapped up to a power of two (0 = 1), recorded in a fresh
// manifest.
func openLayout(dir string, shards int) (int, error) {
	n := 1
	for n < shards {
		n <<= 1
	}
	if shards < 0 || n > 256 {
		return 0, fmt.Errorf("campaign: store: %d shards is outside [0, 256] (one key byte)", shards)
	}
	if dir == "" {
		return n, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("campaign: store dir: %w", err)
	}
	mpath := filepath.Join(dir, shardManifestName)
	data, err := os.ReadFile(mpath)
	if err == nil {
		var m shardManifest
		if err := json.Unmarshal(data, &m); err != nil {
			return 0, fmt.Errorf("campaign: store %s: corrupt %s: %w", dir, shardManifestName, err)
		}
		if m.Version != 1 || m.Shards < 1 || m.Shards > 256 || m.Shards&(m.Shards-1) != 0 {
			return 0, fmt.Errorf("campaign: store %s: %s records version %d with %d shards; want version 1 and a power of two in [1, 256]", dir, shardManifestName, m.Version, m.Shards)
		}
		if shards > 0 && m.Shards != n {
			return 0, fmt.Errorf("campaign: store %s was created with %d shards, reopened with %d — shard count is part of the layout (-shards 0 adopts it)", dir, m.Shards, n)
		}
		return m.Shards, nil
	}
	if !errors.Is(err, fs.ErrNotExist) {
		return 0, fmt.Errorf("campaign: store %s: %w", dir, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("campaign: store dir: %w", err)
	}
	for _, e := range entries {
		// A crash while creating the manifest leaves only its temp file.
		if !strings.HasPrefix(e.Name(), ".tmp") {
			return 0, fmt.Errorf("campaign: %s is not a result store: it holds %q but no %s (a cache from before the single sharded layout, or the wrong directory); point -cache at a fresh directory", dir, e.Name(), shardManifestName)
		}
	}
	// Atomic like every other write in this subsystem: a crash mid-creation
	// must not leave a torn manifest that bricks the directory.
	data, _ = json.Marshal(shardManifest{Version: 1, Shards: n})
	if err := writeFileAtomic(mpath, data); err != nil {
		return 0, fmt.Errorf("campaign: store manifest: %w", err)
	}
	return n, nil
}

func (s *ShardedStore) shard(key string) *shard {
	if len(key) < 2 {
		return s.shards[0]
	}
	b, err := strconv.ParseUint(key[:2], 16, 8)
	if err != nil {
		return s.shards[0]
	}
	return s.shards[uint8(b)&s.mask]
}

// Get returns the stored canonical bytes for key, if present: from a
// memory-only store's map, or by reading the key's value file.
func (s *ShardedStore) Get(key string) ([]byte, bool) {
	start := time.Now()
	defer func() { hStoreGet.Observe(time.Since(start).Seconds()) }()
	data, ok := s.shard(key).get(key)
	if ok {
		cStoreHits.Inc()
	} else {
		cStoreMisses.Inc()
	}
	return data, ok
}

// Put stores canonical result bytes under key: in memory for a
// memory-only store, and otherwise only on disk, which refuses a key that
// is not lowercase hex (it cannot name a file). The disk write
// (writeFileAtomic) is crash-safe: the bytes are written to a temporary
// file which is fsynced *before* the atomic rename, and the containing
// directory is fsynced after, so a killed or power-cut run can never
// leave a visible-but-truncated entry. (Rename-without-fsync can be
// reordered by the filesystem so the name appears before the data blocks;
// a truncated-but-parseable JSON prefix would then poison warm-cache
// determinism, which trusts stored bytes as canonical.)
//
// A Put of a key already on disk is a no-op on the disk tier: the store
// is content-addressed, so same key ⇒ same bytes, and rewriting them
// would only churn a temp file, an fsync and a rename for nothing. One
// unique key costs exactly one disk write (TestStorePutSingleDiskWrite),
// and the skip counts into astro_store_put_noops_total.
func (s *ShardedStore) Put(key string, data []byte) error {
	start := time.Now()
	defer func() { hStorePut.Observe(time.Since(start).Seconds()) }()
	cStorePuts.Inc()
	return s.shard(key).put(key, data)
}

// Pin and Unpin implement PinStore on the ledger every shard's eviction
// consults: a pinned key is never evicted, whichever shard holds it.
func (s *ShardedStore) Pin(key string)   { s.pins.Pin(key) }
func (s *ShardedStore) Unpin(key string) { s.pins.Unpin(key) }

// Occupancy sums the per-shard disk accounting (Occupant interface). The
// pin ledger is shared, so it is read once.
func (s *ShardedStore) Occupancy() Occupancy {
	var occ Occupancy
	for _, sh := range s.shards {
		sh.mu.RLock()
		occ.DiskBytes += sh.diskBytes
		occ.CapBytes += sh.maxBytes
		occ.DiskKeys += len(sh.disk)
		occ.DiskWrites += sh.diskWrites
		occ.PutNoops += sh.putNoops
		occ.Evictions += sh.evictions
		sh.mu.RUnlock()
	}
	for _, key := range s.pins.PinnedKeys() {
		sh := s.shard(key)
		sh.mu.RLock()
		if e, ok := sh.disk[key]; ok {
			occ.PinnedBytes += e.Value.(*diskEnt).size
			occ.PinnedKeys++
		}
		sh.mu.RUnlock()
	}
	return occ
}

// Len returns len(Keys()).
func (s *ShardedStore) Len() int { return len(s.Keys()) }

// Keys returns, sorted, the store's record. For a disk store that is the
// value files under each shard directory that route to that shard — so a
// reopened store lists what any earlier process banked. The walk sweeps
// temp files older than a minute, a failed write's leftovers. For a
// memory-only store it is the keys of the shards' maps.
func (s *ShardedStore) Keys() []string {
	var keys []string
	for _, sh := range s.shards {
		if s.dir == "" {
			sh.mu.RLock()
			for key := range sh.mem {
				keys = append(keys, key)
			}
			sh.mu.RUnlock()
			continue
		}
		// Keys reports no error: a shard directory it cannot list
		// contributes no keys.
		_ = walkShard(sh.dir, time.Minute, func(key string, _ os.DirEntry) {
			if s.shard(key) == sh {
				keys = append(keys, key)
			}
		})
	}
	sort.Strings(keys)
	return keys
}

// Stats sums the cumulative hit/miss/put counters across shards.
func (s *ShardedStore) Stats() (hits, misses, puts uint64) {
	for _, sh := range s.shards {
		sh.mu.RLock()
		hits += sh.hits
		misses += sh.misses
		puts += sh.puts
		sh.mu.RUnlock()
	}
	return hits, misses, puts
}

// writeFileAtomic writes data via temp-file + fsync + rename + directory
// sync — the one crash-safety discipline shared by result values and the
// store manifest.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return werr
	}
	syncDir(dir)
	return nil
}

// syncDir persists a directory entry (the rename) to stable storage. Best
// effort: a failure only weakens crash durability, never correctness — the
// entry is either fully present or absent after recovery either way.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
