package campaign_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"astro/internal/campaign"
	"astro/internal/scenario"
)

// soakMatrix is the rolling sweep the bounded-store soak runs: 5
// synthesized programs × 2 schedulers × 2 configs × 15 seeds = 300 cells,
// three times the chaos drill's working set.
func soakMatrix() scenario.Matrix {
	return scenario.Matrix{
		Name:         "soak-300",
		ProgramCount: 5,
		ProgramSeed:  21,
		Schedulers:   []string{"default", "gts"},
		Configs:      []string{"1L1B", "all-on"},
		Seeds:        []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14},
	}
}

// TestBoundedStoreSoak is the headline test of the bounded store: a
// 300-cell scenario sweep rolls through a sharded disk store capped well
// below the working set, in waves, and the store must
//
//   - never exceed its byte cap (checked after every wave and at the end,
//     against both its own accounting and the actual files on disk);
//   - never bank a wrong result: the full sweep's fingerprint is
//     byte-identical to an unbounded in-process reference run, and every
//     key still resident holds exactly the reference bytes;
//   - never evict a pinned snapshot: a key pinned before the flood (the
//     trained-agent stand-in — the mechanism is identical) survives every
//     eviction wave byte-exact;
//   - make a warm re-run recompute exactly the evicted keys: reopening
//     the directory unbounded and re-running all
//     300 cells performs precisely (300 - resident) fresh simulations.
//
// The final occupancy snapshot is written to ASTRO_ARTIFACT_DIR (set in
// CI) so a failing race job ships the store's accounting as an artifact.
func TestBoundedStoreSoak(t *testing.T) {
	m := soakMatrix()
	if got := m.Cells(); got != 300 {
		t.Fatalf("matrix expands to %d cells, want 300", got)
	}
	jobs := expandMatrix(t, m)
	if len(jobs) != 300 {
		t.Fatalf("expanded to %d jobs, want 300", len(jobs))
	}

	// Leg A: unbounded in-process reference. Also sizes the working set,
	// which the cap is derived from — the soak must stay meaningful if
	// result encoding ever changes size.
	refStore := campaign.NewMemStore()
	refPool := &campaign.Pool{Workers: 4, Store: refStore}
	outsA, err := refPool.Run(nil, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	refBytes := map[string][]byte{}
	var workingSet int64
	for i, j := range jobs {
		key, ok := j.Key()
		if !ok {
			t.Fatalf("job %d not cacheable", i)
		}
		data, ok := refStore.Get(key)
		if !ok {
			t.Fatalf("reference run did not bank job %d", i)
		}
		refBytes[key] = data
		workingSet += int64(len(data))
	}
	cap := workingSet / 3 // well below the 300-cell working set

	// Leg B: the bounded store. 8 shards so eviction pressure exercises
	// the per-shard caps.
	dir := t.TempDir()
	store, err := campaign.NewShardedStoreWith(dir, 8, campaign.StoreConfig{MaxBytes: cap})
	if err != nil {
		t.Fatal(err)
	}

	// Pin a snapshot before the flood. Its bytes are a real banked result
	// — the store cannot tell results from trained-agent snapshots, so
	// pinning one exercises exactly the path that protects live agents.
	pinnedKey, _ := jobs[0].Key()
	pool := &campaign.Pool{Workers: 4, Store: store}
	if _, err := pool.Run(nil, jobs[:1], nil); err != nil {
		t.Fatal(err)
	}
	store.Pin(pinnedKey)

	assertUnderCap := func(when string) campaign.Occupancy {
		t.Helper()
		occ := store.Occupancy()
		if occ.DiskBytes > occ.CapBytes {
			t.Fatalf("%s: store over cap: %d > %d bytes (pinned %d)", when, occ.DiskBytes, occ.CapBytes, occ.PinnedBytes)
		}
		return occ
	}

	// The rolling sweep: 5 waves of 60 cells.
	var outsB []*campaign.Outcome
	for wave := 0; wave < 5; wave++ {
		outs, err := pool.Run(nil, jobs[wave*60:(wave+1)*60], nil)
		if err != nil {
			t.Fatal(err)
		}
		outsB = append(outsB, outs...)
		occ := assertUnderCap("wave")
		if wave == 4 && occ.Evictions == 0 {
			t.Fatalf("cap %d against a %d-byte working set produced zero evictions — the soak is vacuous", cap, workingSet)
		}
		// The pinned snapshot rode out this wave byte-exact.
		if got, ok := store.Get(pinnedKey); !ok || !bytes.Equal(got, refBytes[pinnedKey]) {
			t.Fatalf("wave %d: pinned snapshot evicted or corrupted (ok=%v)", wave, ok)
		}
	}

	// Zero wrong results: fingerprint identity with the unbounded
	// reference, and every resident key byte-exact.
	for i, o := range outsB {
		if o == nil || o.Err != nil {
			t.Fatalf("cell %d failed under the bounded store: %+v", i, o)
		}
	}
	if fa, fb := campaign.Fingerprint(outsA), campaign.Fingerprint(outsB); fa != fb {
		t.Fatalf("bounded-store fingerprint %s != unbounded reference %s", fb, fa)
	}
	resident := 0
	for key, want := range refBytes {
		got, ok := store.Get(key)
		if ok {
			resident++
			if !bytes.Equal(got, want) {
				t.Fatalf("resident key %s holds wrong bytes — a bounded store banked a wrong result", key[:8])
			}
		}
	}
	finalOcc := assertUnderCap("final")
	writeOccupancyArtifact(t, finalOcc)
	if resident == len(refBytes) {
		t.Fatalf("all %d keys resident under a cap of a third of the working set — eviction never happened", resident)
	}

	// Warm re-run recomputes only the evicted keys. Reopen the directory
	// unbounded — an audit-style reopen, so the warm run itself evicts
	// nothing and the recompute count is exact.
	warmStore, err := campaign.NewShardedStore(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := warmStore.Len(); got != resident {
		t.Fatalf("reopened store enumerates %d keys, Get found %d resident", got, resident)
	}
	var fresh atomic.Int64
	warmPool := &campaign.Pool{Workers: 4, Store: warmStore}
	outsW, err := warmPool.Run(nil, jobs, func(p campaign.Progress) {
		if !p.CacheHit {
			fresh.Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	evicted := int64(len(refBytes) - resident)
	if got := fresh.Load(); got != evicted {
		t.Fatalf("warm re-run performed %d fresh simulations, want exactly the %d evicted keys", got, evicted)
	}
	if fa, fw := campaign.Fingerprint(outsA), campaign.Fingerprint(outsW); fa != fw {
		t.Fatalf("warm-rerun fingerprint %s != reference %s", fw, fa)
	}
	t.Logf("soak: working set %d bytes, cap %d, %d/%d keys survived, %d evictions, warm re-run recomputed %d",
		workingSet, cap, resident, len(refBytes), finalOcc.Evictions, evicted)
}

// writeOccupancyArtifact snapshots the store accounting beside the other
// CI artifacts (ASTRO_ARTIFACT_DIR; a temp dir locally) so a failing
// race job ships the numbers that explain it.
func writeOccupancyArtifact(t *testing.T, occ campaign.Occupancy) {
	t.Helper()
	dir := os.Getenv("ASTRO_ARTIFACT_DIR")
	if dir == "" {
		dir = t.TempDir()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(occ, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "store-occupancy.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}
