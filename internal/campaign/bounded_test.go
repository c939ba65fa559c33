package campaign

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// valFor makes deterministic value bytes for testKey(i), sized so a
// handful of entries cross small byte caps.
func valFor(i, size int) []byte {
	return bytes.Repeat([]byte{byte('a' + i%26)}, size)
}

// filesOf walks every shard of the store under dir and returns each live
// value file's size — the ground truth the accounting properties check
// against.
func filesOf(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	shardDirs, err := filepath.Glob(filepath.Join(dir, "shard-*"))
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]int64{}
	for _, sd := range shardDirs {
		err := walkShard(sd, 0, func(key string, f os.DirEntry) {
			fi, err := f.Info()
			if err != nil {
				t.Fatal(err)
			}
			files[key] = fi.Size()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// diskBytesOf sums filesOf.
func diskBytesOf(t *testing.T, dir string) (int64, int) {
	t.Helper()
	files := filesOf(t, dir)
	var total int64
	for _, size := range files {
		total += size
	}
	return total, len(files)
}

// valuePath is where the store keeps key's value file.
func valuePath(s *ShardedStore, key string) string {
	return s.shard(key).path(key)
}

// TestStorePutSingleDiskWrite pins the put-dedup fix: one unique key
// costs exactly one disk write, no matter how many times it is Put —
// including Puts from a later process over the same directory.
func TestStorePutSingleDiskWrite(t *testing.T) {
	dir := t.TempDir()
	s, err := NewShardedStore(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Put(testKey(1), valFor(1, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(testKey(2), valFor(2, 64)); err != nil {
		t.Fatal(err)
	}
	occ := s.Occupancy()
	if occ.DiskWrites != 2 {
		t.Fatalf("disk writes = %d, want exactly 2 (one per unique key)", occ.DiskWrites)
	}
	if occ.PutNoops != 4 {
		t.Fatalf("put noops = %d, want 4", occ.PutNoops)
	}

	// A fresh process does not rewrite either: the Stat probe discovers
	// the prior entry and skips the temp-file + fsync + rename churn.
	s2, err := NewShardedStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Put(testKey(1), valFor(1, 64)); err != nil {
		t.Fatal(err)
	}
	occ2 := s2.Occupancy()
	if occ2.DiskWrites != 0 || occ2.PutNoops != 1 {
		t.Fatalf("reopened store: writes=%d noops=%d, want 0/1", occ2.DiskWrites, occ2.PutNoops)
	}
}

// TestStorePutWaitsForInFlightWrite: a Put that finds the same key's
// write in flight returns only once the file exists, so a Get right after
// it hits (a disk store keeps no memory copy to cover the gap), and the
// key still costs one disk write.
func TestStorePutWaitsForInFlightWrite(t *testing.T) {
	s, err := NewShardedStore(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 40
	for i := 0; i < keys; i++ {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := s.Put(testKey(i), valFor(i, 3000)); err != nil {
					t.Error(err)
					return
				}
				if got, ok := s.Get(testKey(i)); !ok || !bytes.Equal(got, valFor(i, 3000)) {
					t.Errorf("key %d: Get after a returned Put missed or differs (ok=%v)", i, ok)
				}
			}()
		}
		wg.Wait()
	}
	if occ := s.Occupancy(); occ.DiskWrites != keys {
		t.Fatalf("disk writes = %d, want %d (one per unique key)", occ.DiskWrites, keys)
	}
}

// TestUncappedStoreKeepsNoKeyIndex: an uncapped disk shard's value files
// are its only record. Reopened over keys an earlier process banked, it
// takes Puts of those and of fresh keys, and Gets of all of them, and no
// shard then holds an index entry or a write in flight; the occupancy
// figures that read the index stay 0 while the write counters count.
func TestUncappedStoreKeepsNoKeyIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := NewShardedStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	const banked, keys = 100, 300
	for i := 0; i < banked; i++ {
		if err := s.Put(testKey(i), valFor(i, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if s, err = NewShardedStore(dir, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		if err := s.Put(testKey(i), valFor(i, 64)); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get(testKey(i)); !ok || !bytes.Equal(got, valFor(i, 64)) {
			t.Fatalf("key %d: Get after Put missed or differs (ok=%v)", i, ok)
		}
	}
	for i, sh := range s.shards {
		if len(sh.disk) != 0 || sh.lru != nil || sh.diskBytes != 0 || len(sh.writing) != 0 {
			t.Fatalf("shard %d holds per-key state: %d indexed keys (%d bytes), lru %v, %d writes in flight",
				i, len(sh.disk), sh.diskBytes, sh.lru != nil, len(sh.writing))
		}
	}
	occ := s.Occupancy()
	if occ.DiskKeys != 0 || occ.DiskBytes != 0 || occ.DiskWrites != keys-banked || occ.PutNoops != banked {
		t.Fatalf("occupancy %+v, want 0 keys/0 bytes indexed, %d writes, %d no-ops", occ, keys-banked, banked)
	}
}

// TestStoreCapRequiresDisk: a byte cap on a memory-only store would evict
// authoritative bytes, and a negative cap would silently mean unbounded;
// the constructor must refuse both.
func TestStoreCapRequiresDisk(t *testing.T) {
	for _, shards := range []int{1, 4} {
		if _, err := NewShardedStoreWith("", shards, StoreConfig{MaxBytes: 1 << 20}); err == nil {
			t.Fatalf("memory-only %d-shard store accepted a byte cap", shards)
		}
	}
	if _, err := NewShardedStoreWith(t.TempDir(), 0, StoreConfig{MaxBytes: -1}); err == nil {
		t.Fatal("store accepted a negative cap")
	}
}

// TestBoundedStorePinnedNeverEvicted floods a capped store far past its
// cap and asserts the pinned key rides out every eviction wave — then
// loses that protection the moment it is unpinned.
func TestBoundedStorePinnedNeverEvicted(t *testing.T) {
	dir := t.TempDir()
	s, err := NewShardedStoreWith(dir, 1, StoreConfig{MaxBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	pinKey := testKey(0)
	if err := s.Put(pinKey, valFor(0, 256)); err != nil {
		t.Fatal(err)
	}
	s.Pin(pinKey)
	for i := 1; i <= 50; i++ {
		if err := s.Put(testKey(i), valFor(i, 256)); err != nil {
			t.Fatal(err)
		}
	}
	occ := s.Occupancy()
	if occ.Evictions == 0 {
		t.Fatal("no evictions despite 50 puts against a 4-entry cap")
	}
	if got, ok := s.Get(pinKey); !ok || !bytes.Equal(got, valFor(0, 256)) {
		t.Fatalf("pinned key evicted or corrupted (ok=%v)", ok)
	}
	if _, err := os.Stat(valuePath(s, pinKey)); err != nil {
		t.Fatalf("pinned key's file gone: %v", err)
	}
	if occ.PinnedKeys != 1 || occ.PinnedBytes != 256 {
		t.Fatalf("occupancy pins = %d keys / %d bytes, want 1/256", occ.PinnedKeys, occ.PinnedBytes)
	}

	s.Unpin(pinKey)
	for i := 51; i <= 100; i++ {
		if err := s.Put(testKey(i), valFor(i, 256)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(valuePath(s, pinKey)); err == nil {
		t.Fatal("unpinned cold key survived 50 more puts against a 4-entry cap")
	}
}

// TestBoundedStoreOversizedValueDoesNotWipeShard: a value bigger than
// the tier's whole cap cannot fit even with every peer evicted, so
// banking it would destroy the shard's cache for nothing. The store must
// refuse it up front — peers untouched, the refusal counted as an
// eviction (the key recomputes like any evicted one) and returned as an
// error naming the cap, since a Get after it misses — unless the key is
// pinned, in which case it is banked regardless and holds the store over
// cap exactly like a pinned eviction survivor.
func TestBoundedStoreOversizedValueDoesNotWipeShard(t *testing.T) {
	dir := t.TempDir()
	s, err := NewShardedStoreWith(dir, 1, StoreConfig{MaxBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := s.Put(testKey(i), valFor(i, 256)); err != nil {
			t.Fatal(err)
		}
	}
	big := testKey(100)
	if err := s.Put(big, valFor(100, 2048)); err == nil || !strings.Contains(err.Error(), "1024-byte cap") {
		t.Fatalf("oversized put returned %v, want an error naming the 1024-byte cap", err)
	}
	occ := s.Occupancy()
	if occ.DiskKeys != 3 || occ.DiskBytes != 768 {
		t.Fatalf("peers wiped by an oversized put: %d keys / %d bytes, want 3/768", occ.DiskKeys, occ.DiskBytes)
	}
	if occ.Evictions != 1 {
		t.Fatalf("oversized refusal counted %d evictions, want 1", occ.Evictions)
	}
	if _, err := os.Stat(valuePath(s, big)); err == nil {
		t.Fatal("oversized value landed on disk despite exceeding the whole cap")
	}
	for i := 1; i <= 3; i++ {
		if got, ok := s.Get(testKey(i)); !ok || !bytes.Equal(got, valFor(i, 256)) {
			t.Fatalf("peer %d lost or corrupted after oversized put (ok=%v)", i, ok)
		}
	}

	// Pinned oversized values are snapshots a live campaign depends on:
	// banked regardless, store over cap, pins reported.
	pinnedBig := testKey(101)
	s.Pin(pinnedBig)
	if err := s.Put(pinnedBig, valFor(101, 2048)); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(pinnedBig); !ok || !bytes.Equal(got, valFor(101, 2048)) {
		t.Fatalf("pinned oversized value not served back (ok=%v)", ok)
	}
	if _, err := os.Stat(valuePath(s, pinnedBig)); err != nil {
		t.Fatalf("pinned oversized value not on disk: %v", err)
	}
	if occ := s.Occupancy(); occ.DiskBytes <= occ.CapBytes {
		t.Fatalf("pinned oversized value should hold the store over cap: %+v", occ)
	}
}

// TestBoundedStoreReopenHonorsLoweredCap: a directory written unbounded,
// reopened with a cap below its contents, evicts down to the cap at open.
func TestBoundedStoreReopenHonorsLoweredCap(t *testing.T) {
	dir := t.TempDir()
	s, err := NewShardedStore(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Put(testKey(i), valFor(i, 100)); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := NewShardedStoreWith(dir, 0, StoreConfig{MaxBytes: 500})
	if err != nil {
		t.Fatal(err)
	}
	occ := s2.Occupancy()
	if occ.DiskBytes > 500 {
		t.Fatalf("reopened store over cap: %d > 500", occ.DiskBytes)
	}
	if bytesOnDisk, _ := diskBytesOf(t, dir); bytesOnDisk != occ.DiskBytes {
		t.Fatalf("accounting %d != %d bytes actually on disk", occ.DiskBytes, bytesOnDisk)
	}
}

// TestBoundedStoreGetEvictionRace races Gets against Puts that force
// evictions on one capped shard. A Get reads its value file without the
// shard lock, so an eviction may unlink the key in between: the Get must
// then not track the key as on disk, or the next Put of it takes the
// "already durable" no-op and writes nothing.
func TestBoundedStoreGetEvictionRace(t *testing.T) {
	dir := t.TempDir()
	s, err := NewShardedStoreWith(dir, 1, StoreConfig{MaxBytes: 2000})
	if err != nil {
		t.Fatal(err)
	}
	const universe, rounds, ops = 24, 20, 40
	sh := s.shards[0]
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(rng *rand.Rand, put bool) {
				defer wg.Done()
				for op := 0; op < ops; op++ {
					i := rng.Intn(universe)
					if put {
						if err := s.Put(testKey(i), valFor(i, 200)); err != nil {
							t.Error(err)
						}
					} else if got, ok := s.Get(testKey(i)); ok && !bytes.Equal(got, valFor(i, 200)) {
						t.Errorf("Get(%d) returned wrong bytes", i)
					}
				}
			}(rand.New(rand.NewSource(int64(round*4+g))), g%2 == 0)
		}
		wg.Wait()
		sh.mu.RLock()
		for k := range sh.disk {
			if _, err := os.Stat(valuePath(s, k)); err != nil {
				t.Fatalf("round %d: key %s tracked as on disk without a file: %v", round, k[:8], err)
			}
		}
		sh.mu.RUnlock()
		occ := s.Occupancy()
		if bytesOnDisk, keysOnDisk := diskBytesOf(t, dir); occ.DiskBytes != bytesOnDisk || occ.DiskKeys != keysOnDisk {
			t.Fatalf("round %d: store says %d bytes/%d keys, disk holds %d/%d", round, occ.DiskBytes, occ.DiskKeys, bytesOnDisk, keysOnDisk)
		}
	}
	if s.Occupancy().Evictions == 0 {
		t.Fatal("no evictions: the race is not exercised")
	}
	for i := 0; i < universe; i++ {
		if err := s.Put(testKey(i), valFor(i, 200)); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(valuePath(s, testKey(i))); err != nil {
			t.Fatalf("Put(%d) returned nil but left no value file: %v", i, err)
		}
	}
}

// TestBoundedStoreProperty is the seeded eviction + refcount state
// machine on a one-shard store: randomized interleavings of
// Put/Get/Pin/Unpin/Keys against a capped store, with a shadow model
// (see runBoundedProperty).
func TestBoundedStoreProperty(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runBoundedProperty(t, seed, 1, 24, 600, StoreConfig{MaxBytes: 2000})
		})
	}
}

// TestShardedBoundedProperty runs the same state machine over four
// shards: the per-shard caps and the shared pin ledger must uphold the
// same invariants. The uncapped input checks read-your-writes: with no
// cap nothing is evicted, and no memory copy can cover for a value file
// a Put failed to write.
func TestShardedBoundedProperty(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  StoreConfig
	}{
		{"capped", StoreConfig{MaxBytes: 4000}},
		{"uncapped", StoreConfig{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runBoundedProperty(t, 99, 4, 40, 500, tc.cfg)
		})
	}
}

// runBoundedProperty drives a store through steps random operations over
// a universe of keys, asserting that
//
//   - Get never returns wrong bytes — hit-with-reference-bytes or miss
//     are the only outcomes, and an uncapped store never misses a key
//     ever Put;
//   - a pinned key, once on disk, stays there until its last unpin;
//   - a capped store's byte accounting equals the bytes actually on disk;
//   - a shard sits over its cap only when every entry left in it was
//     pinned (eviction skips pins and may evict nothing else);
//   - Keys() enumerates precisely the keys whose files are live, at any
//     step and at the end, each byte-exact.
func runBoundedProperty(t *testing.T, seed int64, shards, universe, steps int, cfg StoreConfig) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	s, err := NewShardedStoreWith(dir, shards, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := map[string][]byte{}      // canonical bytes per key ever Put
	pinned := map[string]int{}      // shadow refcounts
	everPinned := map[string]bool{} // keys pinned at any point
	mustStay := map[string]bool{}   // pinned keys seen on disk since their pin
	for step := 0; step < steps; step++ {
		i := rng.Intn(universe)
		key := testKey(i)
		switch op := rng.Intn(12); {
		case op < 5: // Put
			val := valFor(i, 50+rng.Intn(400))
			if prev, ok := ref[key]; ok {
				val = prev // content-addressed: same key, same bytes
			}
			if err := s.Put(key, val); err != nil {
				t.Fatal(err)
			}
			ref[key] = val
		case op < 9: // Get
			got, ok := s.Get(key)
			if ok && !bytes.Equal(got, ref[key]) {
				t.Fatalf("step %d: Get(%s) returned wrong bytes", step, key[:8])
			}
			if _, put := ref[key]; !ok && put && cfg.MaxBytes == 0 {
				t.Fatalf("step %d: uncapped store missed %s after its Put", step, key[:8])
			}
		case op < 10: // Pin
			s.Pin(key)
			pinned[key]++
			everPinned[key] = true
		case op < 11: // Unpin
			s.Unpin(key)
			if pinned[key] > 0 {
				pinned[key]--
			}
			if pinned[key] == 0 {
				delete(mustStay, key)
			}
		default:
			assertKeysAreFiles(t, s, dir, ref)
		}
		for k, n := range pinned {
			if n == 0 {
				continue
			}
			_, err := os.Stat(valuePath(s, k))
			if err == nil {
				mustStay[k] = true
			} else if mustStay[k] {
				t.Fatalf("step %d: pinned key %s evicted", step, k[:8])
			}
		}
	}
	occ := s.Occupancy()
	if occ.CapBytes != cfg.MaxBytes {
		t.Fatalf("summed shard caps = %d, want %d", occ.CapBytes, cfg.MaxBytes)
	}
	// Only a capped store keeps the key index this accounting reads.
	if cfg.MaxBytes > 0 {
		bytesOnDisk, keysOnDisk := diskBytesOf(t, dir)
		if occ.DiskBytes != bytesOnDisk || occ.DiskKeys != keysOnDisk {
			t.Fatalf("accounting diverged: store says %d bytes/%d keys, disk holds %d/%d",
				occ.DiskBytes, occ.DiskKeys, bytesOnDisk, keysOnDisk)
		}
	}
	for i, sh := range s.shards {
		if sh.maxBytes == 0 || sh.diskBytes <= sh.maxBytes {
			continue
		}
		for k := range sh.disk {
			if !everPinned[k] {
				t.Fatalf("shard %d over cap (%d > %d) holding never-pinned key %s", i, sh.diskBytes, sh.maxBytes, k[:8])
			}
		}
	}
	assertKeysAreFiles(t, s, dir, ref)
}

// assertKeysAreFiles checks that s.Keys() is exactly the set of live
// value files under dir, and that Get serves each with its reference
// bytes.
func assertKeysAreFiles(t *testing.T, s *ShardedStore, dir string, ref map[string][]byte) {
	t.Helper()
	files := filesOf(t, dir)
	keys := s.Keys()
	if len(keys) != len(files) {
		t.Fatalf("Keys enumerates %d keys, disk holds %d", len(keys), len(files))
	}
	for _, k := range keys {
		if _, live := files[k]; !live {
			t.Fatalf("Keys enumerates %s, which has no live file", k[:8])
		}
		if got, ok := s.Get(k); !ok || !bytes.Equal(got, ref[k]) {
			t.Fatalf("surviving key %s unreadable or corrupted (ok=%v)", k[:8], ok)
		}
	}
}

// TestShardedStaleTempSweep pins the cleanup of failed atomic writes: a
// crash between writeFileAtomic's create and its rename leaves a .tmp*
// file, at the shard level or in a fan-out directory. The walks the
// store makes — Keys, and a capped open's scan — remove such files once
// they are older than a minute, leave younger ones (possibly in-flight
// writes) alone, and never count either as a key.
func TestShardedStaleTempSweep(t *testing.T) {
	dir := t.TempDir()
	s, err := NewShardedStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; i < 12; i++ {
		k := testKey(i)
		keys = append(keys, k)
		if err := s.Put(k, valFor(i, 40)); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * time.Minute)
	strays := func() (stale, young []string) {
		for _, p := range []string{
			filepath.Join(dir, "shard-01", ".tmp-orphan"),
			filepath.Join(filepath.Dir(valuePath(s, keys[0])), ".tmp-orphan"),
		} {
			if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
				t.Fatal(err)
			}
			os.Chtimes(p, old, old)
			stale = append(stale, p)
		}
		p := filepath.Join(dir, "shard-00", ".tmp-inflight")
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
		return stale, append(young, p)
	}
	for name, open := range map[string]func() (*ShardedStore, error){
		"keys":        func() (*ShardedStore, error) { return NewShardedStore(dir, 2) },
		"capped-open": func() (*ShardedStore, error) { return NewShardedStoreWith(dir, 2, StoreConfig{MaxBytes: 1 << 20}) },
	} {
		stale, young := strays()
		s2, err := open()
		if err != nil {
			t.Fatal(err)
		}
		if got := s2.Keys(); len(got) != len(keys) {
			t.Fatalf("%s: Keys = %d entries, want %d", name, len(got), len(keys))
		}
		for i, k := range keys {
			if got, ok := s2.Get(k); !ok || !bytes.Equal(got, valFor(i, 40)) {
				t.Fatalf("%s: key %d unreadable after the sweep (ok=%v)", name, i, ok)
			}
		}
		for _, p := range stale {
			if _, err := os.Stat(p); err == nil {
				t.Fatalf("%s: stale temp file %s left behind", name, p)
			}
		}
		for _, p := range young {
			if _, err := os.Stat(p); err != nil {
				t.Fatalf("%s: young temp file %s swept: %v", name, p, err)
			}
		}
	}
}

// TestQueuePinsAgentKeyForCellLifetime pins the WorkQueue half of the
// eviction contract: a hybrid cell's trained-agent key is pinned from
// Enqueue until the cell finishes (or its last waiter cancels), with
// refcounts across cells sharing an agent — so a flood of writes against
// a capped store cannot evict a snapshot a live campaign references.
func TestQueuePinsAgentKeyForCellLifetime(t *testing.T) {
	dir := t.TempDir()
	store, err := NewShardedStoreWith(dir, 1, StoreConfig{MaxBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	agentKey := testKey(0)
	if err := store.Put(agentKey, valFor(0, 200)); err != nil {
		t.Fatal(err)
	}

	q := NewWorkQueue(time.Minute)
	q.Store = store
	q.SetMaxAttempts(1)
	flood := func(lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			if err := store.Put(testKey(i), valFor(i, 200)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Two cells share the agent: the pin is refcounted, so finishing one
	// must not expose the snapshot while the other is still in flight.
	cellA := &WireJob{Key: testKey(100), Kind: KindSim, AgentKey: agentKey, Label: "hybrid-a"}
	cellB := &WireJob{Key: testKey(101), Kind: KindSim, AgentKey: agentKey, Label: "hybrid-b"}
	q.Enqueue(cellA, func([]byte, error) {})
	cancelB := q.Enqueue(cellB, func([]byte, error) {})

	flood(1, 30)
	if store.Occupancy().Evictions == 0 {
		t.Fatal("flood produced no evictions; the survival assertion is vacuous")
	}
	if got, ok := store.Get(agentKey); !ok || !bytes.Equal(got, valFor(0, 200)) {
		t.Fatalf("agent snapshot evicted while two cells reference it (ok=%v)", ok)
	}

	// Finish cell A the failure way (error submission against a 1-attempt
	// cap reaches finishLocked exactly like a success, without needing
	// canonical result bytes). Lease exactly one cell so B stays pending
	// and its cancel below drops the cell. One reference remains.
	if leased := q.Lease("w1", 1); len(leased) != 1 || leased[0].Key != cellA.Key {
		t.Fatalf("expected to lease cell A first, got %+v", leased)
	}
	q.Complete("w1", cellA.Key, nil, "boom")
	flood(30, 60)
	if _, ok := store.Get(agentKey); !ok {
		t.Fatal("agent snapshot evicted while cell B still references it")
	}

	// Cancel B's last waiter: the cell drops and the final pin releases.
	if !cancelB() {
		t.Fatal("cancel of the pending cell failed")
	}
	if store.pins.Pinned(agentKey) {
		t.Fatal("agent key still pinned after both cells released it")
	}
	flood(60, 90)
	if _, err := os.Stat(valuePath(store, agentKey)); err == nil {
		t.Fatal("cold unpinned snapshot survived the post-release flood")
	}
}
