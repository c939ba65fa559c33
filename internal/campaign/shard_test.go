package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func testKey(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
	return hex.EncodeToString(sum[:])
}

func TestShardedStoreRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := NewShardedStore(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	for i := 0; i < n; i++ {
		if err := s.Put(testKey(i), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		data, ok := s.Get(testKey(i))
		if !ok || string(data) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("key %d: got %q ok=%v", i, data, ok)
		}
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}

	// A fresh process over the same directory sees everything: values via
	// the disk tier, enumeration via the per-shard index files.
	s2, err := NewShardedStore(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Len(); got != n {
		t.Fatalf("reopened Len = %d, want %d (index files not loaded?)", got, n)
	}
	if keys := s2.Keys(); len(keys) != n {
		t.Fatalf("reopened Keys = %d entries, want %d", len(keys), n)
	}
	for i := 0; i < n; i++ {
		if data, ok := s2.Get(testKey(i)); !ok || string(data) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("reopened key %d: got %q ok=%v", i, data, ok)
		}
	}
}

func TestShardedStoreRejectsShardCountChange(t *testing.T) {
	dir := t.TempDir()
	if _, err := NewShardedStore(dir, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := NewShardedStore(dir, 32); err == nil {
		t.Fatal("reopening with a different shard count succeeded")
	}
	// Same count still works, and 0 adopts the manifest's count.
	if _, err := NewShardedStore(dir, 8); err != nil {
		t.Fatal(err)
	}
	s, err := NewShardedStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.shards) != 8 {
		t.Fatalf("shards=0 opened %d shards, want the manifest's 8", len(s.shards))
	}
	// 0 on a fresh directory is one shard.
	if s, err = OpenStore(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if len(s.shards) != 1 {
		t.Fatalf("fresh OpenStore opened %d shards, want 1", len(s.shards))
	}
}

// TestShardedStoreConcurrentWriters puts and reads from eight goroutines
// at once, on a 16-shard store and on a capped one-shard store compacting
// in the background, so every writer contends on one shard's locks.
func TestShardedStoreConcurrentWriters(t *testing.T) {
	for name, open := range map[string]func(dir string) (*ShardedStore, error){
		"16-shards": func(dir string) (*ShardedStore, error) { return NewShardedStore(dir, 16) },
		"1-shard-capped": func(dir string) (*ShardedStore, error) {
			return NewShardedStoreWith(dir, 1, StoreConfig{MaxBytes: 1 << 20})
		},
	} {
		t.Run(name, func(t *testing.T) {
			s, err := open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			compacted := make(chan struct{})
			go func() {
				defer close(compacted)
				for {
					select {
					case <-stop:
						return
					default:
						if err := s.Compact(); err != nil {
							t.Errorf("compact: %v", err)
						}
					}
				}
			}()
			const writers, each = 8, 32
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < each; i++ {
						k := testKey(w*each + i)
						if err := s.Put(k, []byte(k)); err != nil {
							t.Errorf("put: %v", err)
						}
						if data, ok := s.Get(k); !ok || string(data) != k {
							t.Errorf("get-after-put %s failed", k[:8])
						}
					}
				}(w)
			}
			wg.Wait()
			close(stop)
			<-compacted
			if s.Len() != writers*each {
				t.Fatalf("Len = %d, want %d", s.Len(), writers*each)
			}
			if _, _, puts := s.Stats(); puts != writers*each {
				t.Fatalf("puts = %d, want %d", puts, writers*each)
			}
		})
	}
}

func TestShardedStoreMemoryOnly(t *testing.T) {
	s, err := NewShardedStore("", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey(1), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if data, ok := s.Get(testKey(1)); !ok || string(data) != "v" {
		t.Fatal("memory-only sharded store round trip failed")
	}
	if s.Len() != 1 || len(s.Keys()) != 1 {
		t.Fatalf("Len/Keys = %d/%d", s.Len(), len(s.Keys()))
	}
}

// TestStoreRefusesDirWithoutManifest pins the layout guard: a directory
// that holds anything but no INDEX.json — a cache written in the old
// plain <2hex>/<key>.json layout, or a mistyped -cache pointing at some
// other tree — is refused instead of being opened as an empty store, and
// a manifest must record version 1 and a power-of-two shard count.
func TestStoreRefusesDirWithoutManifest(t *testing.T) {
	key := testKey(1)
	plain := t.TempDir()
	if err := os.MkdirAll(filepath.Join(plain, key[:2]), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(plain, key[:2], key+".json"), []byte("v"), 0o644); err != nil {
		t.Fatal(err)
	}
	stray := t.TempDir()
	if err := os.WriteFile(filepath.Join(stray, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{plain, stray} {
		for _, shards := range []int{0, 1, 8} {
			_, err := NewShardedStore(dir, shards)
			if err == nil || !strings.Contains(err.Error(), shardManifestName) {
				t.Fatalf("open(%s, %d shards) without a manifest: err = %v, want a refusal naming %s", dir, shards, err, shardManifestName)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(plain, shardManifestName)); err == nil {
		t.Fatal("a refused open wrote a manifest")
	}

	// A crash while creating the manifest leaves only its temp file: that
	// directory is fresh, not foreign.
	crashed := t.TempDir()
	if err := os.WriteFile(filepath.Join(crashed, ".tmp123"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewShardedStore(crashed, 0); err != nil {
		t.Fatalf("directory holding only a manifest temp file refused: %v", err)
	}

	for _, m := range []string{`{"version":1,"shards":0}`, `{"version":1,"shards":3}`, `{"version":1,"shards":512}`, `{"version":2,"shards":4}`, `{"shards":4}`, `not json`} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, shardManifestName), []byte(m), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenStore(dir); err == nil {
			t.Fatalf("manifest %s accepted", m)
		}
	}
}

// TestStorePutAllocsFlat pins the per-Put cost against shard size: one
// Put allocates the same at 100 resident keys as at 10 000, for the
// memory-only store and for a disk-backed one whose keys arrived through
// keys.idx. A per-Put cost that grows with the shard would make every
// memory-only campaign, all on one shard, quadratic in its cells.
func TestStorePutAllocsFlat(t *testing.T) {
	const runs = 50
	memAllocs := func(resident int) float64 {
		s := NewMemStore()
		for i := 0; i < resident; i++ {
			s.Put(testKey(i), valFor(i, 8))
		}
		keys := make([]string, runs+1)
		for i := range keys {
			keys[i] = testKey(resident + i)
		}
		n := 0
		return testing.AllocsPerRun(runs, func() {
			s.Put(keys[n], valFor(0, 8))
			n++
		})
	}
	diskAllocs := func(resident int) float64 {
		dir := t.TempDir()
		s, err := NewShardedStore(dir, 1)
		if err != nil {
			t.Fatal(err)
		}
		var idx strings.Builder
		for i := 0; i < resident; i++ {
			idx.WriteString(testKey(i) + "\n")
		}
		if err := os.WriteFile(s.shards[0].idxPath, []byte(idx.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err = OpenStore(dir); err != nil {
			t.Fatal(err)
		}
		if s.Len() != resident {
			t.Fatalf("reopened Len = %d, want %d", s.Len(), resident)
		}
		key := testKey(resident)
		if err := s.Put(key, valFor(0, 8)); err != nil {
			t.Fatal(err)
		}
		// Re-Puts of a banked key: the disk tier's no-op path, so the
		// measurement is the store's bookkeeping, not file creation.
		return testing.AllocsPerRun(runs, func() { s.Put(key, valFor(0, 8)) })
	}
	for name, allocs := range map[string]func(int) float64{"memory": memAllocs, "disk": diskAllocs} {
		small, large := allocs(100), allocs(10000)
		if small != large {
			t.Errorf("%s store: %v allocs per Put at 100 keys, %v at 10000", name, small, large)
		}
	}
}
