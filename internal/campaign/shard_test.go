package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"astro/internal/hw"
	"astro/internal/sim"
	"astro/internal/workloads"
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
	// the disk tier, enumeration by walking the shard directories.
	s2, err := NewShardedStore(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Len(); got != n {
		t.Fatalf("reopened Len = %d, want %d", got, n)
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
	if s, err = NewShardedStore(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	if len(s.shards) != 1 {
		t.Fatalf("fresh NewShardedStore(dir, 0) opened %d shards, want 1", len(s.shards))
	}
}

// TestOpenStoreNeverCreates pins OpenStore as open-only: a missing or
// empty directory is an error naming it, and nothing is created — so a
// mistyped `astro journal replay -store` path fails loudly instead of
// auditing a brand-new empty store.
func TestOpenStoreNeverCreates(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "typo")
	empty := t.TempDir()
	for _, dir := range []string{missing, empty} {
		if _, err := OpenStore(dir); err == nil || !strings.Contains(err.Error(), dir) {
			t.Fatalf("OpenStore(%q): err = %v, want an error naming the directory", dir, err)
		}
	}
	if _, err := OpenStore(""); err == nil {
		t.Fatal(`OpenStore("") opened a store`)
	}
	if _, err := os.Stat(missing); err == nil {
		t.Fatal("OpenStore created the missing directory")
	}
	if entries, err := os.ReadDir(empty); err != nil || len(entries) != 0 {
		t.Fatalf("OpenStore wrote into the empty directory: %v (err %v)", entries, err)
	}
}

// TestShardedStoreConcurrentWriters puts and reads from eight goroutines
// at once, on a 16-shard store and on a capped one-shard store, so every
// writer contends on one shard's locks, while a reader enumerates Keys
// in the background over the directories being written.
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
			listed := make(chan struct{})
			go func() {
				defer close(listed)
				for {
					select {
					case <-stop:
						return
					default:
						for _, k := range s.Keys() {
							if data, ok := s.Get(k); !ok || string(data) != k {
								t.Errorf("Keys listed %s, which Get cannot serve", k[:8])
							}
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
			<-listed
			if s.Len() != writers*each {
				t.Fatalf("Len = %d, want %d", s.Len(), writers*each)
			}
			if _, _, puts := s.Stats(); puts != writers*each {
				t.Fatalf("puts = %d, want %d", puts, writers*each)
			}
		})
	}
}

// TestShardedStoreMemoryOnly pins the Keys rule: Keys lists the store's
// record. A memory-only store's record is its shards' maps, so it keeps
// and lists a key that cannot name a file; a disk store keeps no value in
// memory, so it refuses such a key and lists only value files.
func TestShardedStoreMemoryOnly(t *testing.T) {
	for _, tc := range []struct {
		name string
		dir  string
		keys []string
	}{
		{"memory-only", "", []string{testKey(1), "not-a-hex-key"}}, // sorted
		{"disk", t.TempDir(), []string{testKey(1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewShardedStore(tc.dir, 4)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []string{testKey(1), "not-a-hex-key"} {
				err := s.Put(k, []byte("v:"+k))
				if refused := tc.dir != "" && k == "not-a-hex-key"; refused {
					if err == nil {
						t.Fatalf("disk store accepted %q, which cannot name a file", k)
					}
					if _, ok := s.Get(k); ok {
						t.Fatalf("disk store serves refused key %q", k)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if data, ok := s.Get(k); !ok || string(data) != "v:"+k {
					t.Fatalf("round trip of %q failed", k)
				}
			}
			if keys := s.Keys(); s.Len() != len(tc.keys) || strings.Join(keys, ",") != strings.Join(tc.keys, ",") {
				t.Fatalf("Len/Keys = %d/%q, want %q", s.Len(), keys, tc.keys)
			}
		})
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
// memory-only store and for a disk-backed one whose keys are value files
// an earlier process banked. A per-Put cost that grows with the shard would make every
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
		for i := 0; i < resident; i++ {
			p := s.shards[0].path(testKey(i))
			if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, valFor(i, 8), 0o644); err != nil {
				t.Fatal(err)
			}
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

// TestStoreReadsLegacyDirectory reopens testdata/legacy-store, written by
// the store when it still kept a per-shard keys.idx: two shards, twelve
// Puts of valFor(i, 40+i) under a 400-byte cap, so eviction left four
// stale index lines naming keys with no value file. Opened unbounded,
// through OpenStore or capped, the store serves every surviving value
// byte for byte, its Keys() is exactly the value files, and the old
// keys.idx is left as it was.
func TestStoreReadsLegacyDirectory(t *testing.T) {
	for name, open := range map[string]func(dir string) (*ShardedStore, error){
		"unbounded": func(dir string) (*ShardedStore, error) { return NewShardedStore(dir, 0) },
		"open":      OpenStore,
		"capped": func(dir string) (*ShardedStore, error) {
			return NewShardedStoreWith(dir, 2, StoreConfig{MaxBytes: 1 << 20})
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "store")
			if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "legacy-store"))); err != nil {
				t.Fatal(err)
			}
			idxBefore := map[string][]byte{}
			for _, sd := range []string{"shard-00", "shard-01"} {
				data, err := os.ReadFile(filepath.Join(dir, sd, "keys.idx"))
				if err != nil {
					t.Fatal(err)
				}
				idxBefore[sd] = data
			}
			s, err := open(dir)
			if err != nil {
				t.Fatal(err)
			}
			files := filesOf(t, dir)
			if len(files) != 8 {
				t.Fatalf("testdata holds %d value files, want 8", len(files))
			}
			keys := s.Keys()
			if len(keys) != len(files) {
				t.Fatalf("Keys = %d entries, want the %d value files", len(keys), len(files))
			}
			for _, k := range keys {
				if _, ok := files[k]; !ok {
					t.Fatalf("Keys lists %s, which has no value file", k[:8])
				}
			}
			for i := 0; i < 12; i++ {
				k := testKey(i)
				got, ok := s.Get(k)
				if _, live := files[k]; ok != live || (ok && !bytes.Equal(got, valFor(i, 40+i))) {
					t.Fatalf("key %d: Get = %q, %v; value file present: %v", i, got, ok, live)
				}
			}
			for sd, want := range idxBefore {
				if got, err := os.ReadFile(filepath.Join(dir, sd, "keys.idx")); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s/keys.idx changed (err %v)", sd, err)
				}
			}
		})
	}
}

// benchStoreValue is the canonical result of matrixmul at its small scale
// with default options (about 3.4 KB), the value the result codec's rungs
// measure too.
func benchStoreValue(b *testing.B) []byte {
	b.Helper()
	spec, ok := workloads.ByName("matrixmul")
	if !ok {
		b.Fatal("matrixmul not registered")
	}
	mod, err := spec.Compile()
	if err != nil {
		b.Fatal(err)
	}
	m, err := sim.New(mod, hw.OdroidXU4(), sim.Options{Seed: 1, Args: spec.SmallArgs()})
	if err != nil {
		b.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		b.Fatal(err)
	}
	data, err := sim.EncodeResult(res)
	if err != nil {
		b.Fatal(err)
	}
	return data
}

// BenchmarkStorePut banks one fresh key per op into a disk store, so each
// op pays the temp file, its fsync, the rename and the directory fsync.
// Recorded, not gated.
func BenchmarkStorePut(b *testing.B) {
	data := benchStoreValue(b)
	s, err := NewShardedStore(b.TempDir(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if err := s.Put(testKey(i), data); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// BenchmarkStoreGet reads banked keys from a reopened disk store, each
// once per reopen: a value-file read, as a disk store keeps no value in
// memory, and the first read of its key since the open, which is what
// every cell of a warm campaign pays. Once every banked key has been
// read, the store is reopened off the clock. Recorded, not gated.
func BenchmarkStoreGet(b *testing.B) {
	data := benchStoreValue(b)
	dir := b.TempDir()
	s, err := NewShardedStore(dir, 1)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = testKey(i)
		if err := s.Put(keys[i], data); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	// A b.N loop, not b.Loop: Go 1.24's b.Loop measures its time budget
	// from the last StartTimer, so stopping the timer inside it never ends.
	for i := 0; i < b.N; i++ {
		if i%len(keys) == 0 {
			b.StopTimer()
			if s, err = NewShardedStore(dir, 0); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, ok := s.Get(keys[i%len(keys)]); !ok {
			b.Fatal("banked key missed")
		}
	}
}
