package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreOpen mutates a banked store's INDEX.json and writes idx as a
// legacy shard-00/keys.idx (the key index older stores kept, which the
// store now ignores), then reopens the directory — unbounded or capped,
// with the fuzzed shard count request. The open either refuses with an
// error or succeeds; it never panics, and afterwards Keys lists only
// banked keys, each of which Get serves with exactly the bytes Put under
// it, and every other Get of a banked key returns those bytes or misses.
// The seed corpus in testdata/fuzz/FuzzStoreOpen replays in every plain
// `go test` run.
func FuzzStoreOpen(f *testing.F) {
	tmpl := filepath.Join(f.TempDir(), "store")
	s, err := NewShardedStore(tmpl, 2)
	if err != nil {
		f.Fatal(err)
	}
	ref := map[string][]byte{}
	var idx []byte // shard 0's keys in the legacy keys.idx format
	for i := 0; i < 6; i++ {
		key, val := testKey(i), valFor(i, 16+i)
		if err := s.Put(key, val); err != nil {
			f.Fatal(err)
		}
		ref[key] = val
		if s.shard(key) == s.shards[0] {
			idx = append(idx, key+"\n"...)
		}
	}
	manifest, err := os.ReadFile(filepath.Join(tmpl, shardManifestName))
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
		for _, k := range s.Keys() {
			want, banked := ref[k]
			if !banked {
				t.Fatalf("Keys lists %q, which was never banked", k)
			}
			if got, ok := s.Get(k); !ok || !bytes.Equal(got, want) {
				t.Fatalf("Keys lists %q, but Get serves %q (ok=%v)", k[:8], got, ok)
			}
		}
		for k, want := range ref {
			if got, ok := s.Get(k); ok && !bytes.Equal(got, want) {
				t.Fatalf("Get(%q) = %q, which was never Put under that key", k, got)
			}
		}
		key, val := testKey(100), valFor(100, 24)
		if err := s.Put(key, val); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get(key); !ok || !bytes.Equal(got, val) {
			t.Fatalf("fresh Put not read back (ok=%v)", ok)
		}
		if left, err := os.ReadFile(filepath.Join(dir, "shard-00", "keys.idx")); err != nil || !bytes.Equal(left, idx) {
			t.Fatalf("the legacy keys.idx was touched (err %v)", err)
		}
	})
}
