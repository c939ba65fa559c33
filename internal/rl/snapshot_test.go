package rl

import (
	"math/rand"
	"sync"
	"testing"

	"astro/internal/features"
	"astro/internal/perfmon"
)

// trainedDQN returns a DQN that has learned a little, so its weights are
// no longer the seed's initial draw.
func trainedDQN(t *testing.T) *DQN {
	t.Helper()
	d := NewDQN(6, DQNConfig{Seed: 17})
	trainAgent(t, d, mdpFor(6), 5, 40)
	return d
}

// forEachState calls f on every state of a 6-configuration agent.
func forEachState(f func(State)) {
	for cfg := 0; cfg < 6; cfg++ {
		for ph := 0; ph < features.NumPhases; ph++ {
			for hwp := 0; hwp < perfmon.NumPhases; hwp += 7 {
				f(State{ConfigID: cfg, ProgPhase: ph, HWPhaseID: hwp})
			}
		}
	}
}

// TestSnapshotRestoreExact pins what Restore promises without NewDQN's
// throwaway weight draw: the restored agent answers Best and Q exactly as
// the original, and its exploration RNG starts from the configured seed
// plus one, as a freshly built agent's does.
func TestSnapshotRestoreExact(t *testing.T) {
	d := trainedDQN(t)
	a, err := d.Snapshot().Restore()
	if err != nil {
		t.Fatal(err)
	}
	r := a.(*DQN)
	forEachState(func(s State) {
		if r.Best(s) != d.Best(s) || r.Q(s, 2) != d.Q(s, 2) {
			t.Fatalf("restored agent answers state %+v differently", s)
		}
	})
	want := rand.New(rand.NewSource(d.cfg.Seed + 1))
	for i := 0; i < 8; i++ {
		if got, w := r.rng.Int63(), want.Int63(); got != w {
			t.Fatalf("restored exploration draw %d = %d, want %d", i, got, w)
		}
	}
}

// TestDQNInferenceHandle pins the inference-only handle: it answers as the
// agent it came from, owns its scratch, shares the weights without
// copying them, and refuses to learn.
func TestDQNInferenceHandle(t *testing.T) {
	d := trainedDQN(t)
	h := d.Inference()
	forEachState(func(s State) {
		if h.Best(s) != d.Best(s) || h.Q(s, 4) != d.Q(s, 4) {
			t.Fatalf("handle answers state %+v differently", s)
		}
	})
	if &h.net.w[0][0][0] != &d.net.w[0][0][0] {
		t.Fatal("handle copied the weights")
	}
	if &h.net.acts[0][0] == &d.net.acts[0][0] {
		t.Fatal("handle shares the agent's activations")
	}
	before, _ := d.net.Weights()

	s := State{ConfigID: 1, ProgPhase: 2, HWPhaseID: 30}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Observe on an inference handle did not panic")
			}
		}()
		h.Observe(s, 1, 0.5, s)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("TrainAction on an inference network did not panic")
			}
		}()
		h.net.TrainAction(Encode(s, 6, nil), 1, 0.5, 0.1)
	}()
	after, _ := d.net.Weights()
	for l := range before {
		for o := range before[l] {
			for i := range before[l][o] {
				if before[l][o][i] != after[l][o][i] {
					t.Fatalf("a refused update changed weight [%d][%d][%d]", l, o, i)
				}
			}
		}
	}
}

// TestDQNInferenceHandlesConcurrent consults several handles on one agent
// from several goroutines at once; run under -race it proves that Best and
// Q on a handle write nothing the handles share.
func TestDQNInferenceHandlesConcurrent(t *testing.T) {
	d := trainedDQN(t)
	want := map[State]int{}
	forEachState(func(s State) { want[s] = d.Best(s) })
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		h := d.Inference()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s, best := range want {
				if h.Best(s) != best {
					t.Errorf("handle answers state %+v with %d, want %d", s, h.Best(s), best)
					return
				}
				_ = h.Q(s, best)
			}
		}()
	}
	wg.Wait()
}
