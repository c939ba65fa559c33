package campaign

import (
	"bytes"
	"context"
	"testing"
)

// determinismSpec is the grid the ISSUE acceptance criterion names: the
// same campaign run serially and with 8 workers must produce byte-identical
// result sets, and a warm re-run must be served entirely from cache.
func determinismSpec() Spec {
	return Spec{
		Name:       "determinism",
		Benchmarks: []string{"micro"},
		Schedulers: []string{"default", "gts", "octopus-man"},
		Configs:    []string{"1L0B", "2L2B", "all-on"},
		Seeds:      []int64{3, 17},
	}
}

func runSpec(t *testing.T, workers int, store ResultStore) []*Outcome {
	t.Helper()
	spec := determinismSpec()
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	p := &Pool{Workers: workers, Store: store}
	outs, err := p.Run(context.Background(), jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

func TestCampaignDeterministicAcrossWorkerCounts(t *testing.T) {
	serial := runSpec(t, 1, NewMemStore())
	parallel := runSpec(t, 8, NewMemStore())
	if len(serial) != len(parallel) {
		t.Fatalf("outcome counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if !bytes.Equal(serial[i].Bytes, parallel[i].Bytes) {
			t.Errorf("job %d (%s): -j1 and -j8 results differ", i, serial[i].Job.Label)
		}
	}
	if f1, f8 := Fingerprint(serial), Fingerprint(parallel); f1 != f8 {
		t.Fatalf("campaign fingerprints differ: %s vs %s", f1, f8)
	}
}

func TestCampaignWarmRerunIsAllCacheHits(t *testing.T) {
	store := NewMemStore()
	cold := runSpec(t, 8, store)
	if CacheHits(cold) != 0 {
		t.Fatalf("cold run claims %d cache hits", CacheHits(cold))
	}
	_, _, coldPuts := store.Stats()
	if int(coldPuts) != len(cold) {
		t.Fatalf("cold run stored %d of %d results", coldPuts, len(cold))
	}

	warm := runSpec(t, 8, store)
	if CacheHits(warm) != len(warm) {
		t.Fatalf("warm re-run: %d/%d cache hits, want 100%%", CacheHits(warm), len(warm))
	}
	_, _, warmPuts := store.Stats()
	if warmPuts != coldPuts {
		t.Fatalf("warm re-run performed %d fresh simulations", warmPuts-coldPuts)
	}
	for i := range cold {
		if !bytes.Equal(cold[i].Bytes, warm[i].Bytes) {
			t.Errorf("job %d: cached bytes differ from fresh bytes", i)
		}
	}
	if Fingerprint(cold) != Fingerprint(warm) {
		t.Fatal("cache temperature changed the campaign fingerprint")
	}
}
