package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreOpen mutates a banked store's INDEX.json and shard 0's
// keys.idx, then reopens the directory — unbounded or capped, with the
// fuzzed shard count request. The open either refuses with an error or
// succeeds; it never panics, and afterwards every Get of a banked or
// enumerated key returns exactly the bytes Put under that key, or
// misses. The seed corpus in testdata/fuzz/FuzzStoreOpen replays in
// every plain `go test` run.
func FuzzStoreOpen(f *testing.F) {
	tmpl := filepath.Join(f.TempDir(), "store")
	s, err := NewShardedStore(tmpl, 2)
	if err != nil {
		f.Fatal(err)
	}
	ref := map[string][]byte{}
	for i := 0; i < 6; i++ {
		key, val := testKey(i), valFor(i, 16+i)
		if err := s.Put(key, val); err != nil {
			f.Fatal(err)
		}
		ref[key] = val
	}
	manifest, err := os.ReadFile(filepath.Join(tmpl, shardManifestName))
	if err != nil {
		f.Fatal(err)
	}
	idx, err := os.ReadFile(s.shards[0].idxPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(manifest, idx, uint8(0), false)
	f.Add(manifest, idx, uint8(2), true)

	f.Fuzz(func(t *testing.T, manifest, idx []byte, shards uint8, capped bool) {
		dir := filepath.Join(t.TempDir(), "store")
		if err := os.CopyFS(dir, os.DirFS(tmpl)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, shardManifestName), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "shard-00", "keys.idx"), idx, 0o644); err != nil {
			t.Fatal(err)
		}
		var cfg StoreConfig
		if capped {
			cfg.MaxBytes = 1 << 20
		}
		s, err := NewShardedStoreWith(dir, int(shards%8), cfg)
		if err != nil {
			return
		}
		keys := s.Keys()
		for k := range ref {
			keys = append(keys, k)
		}
		for _, k := range keys {
			got, ok := s.Get(k)
			if want, banked := ref[k]; ok && (!banked || !bytes.Equal(got, want)) {
				t.Fatalf("Get(%q) = %q, which was never Put under that key", k, got)
			}
		}
		if err := s.Compact(); err != nil {
			t.Fatalf("compact after a successful open: %v", err)
		}
		key, val := testKey(100), valFor(100, 24)
		if err := s.Put(key, val); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get(key); !ok || !bytes.Equal(got, val) {
			t.Fatalf("fresh Put not read back (ok=%v)", ok)
		}
	})
}
