package campaign

// The process's restored-agent memo: agent-keyed hybrid cells restore each
// distinct snapshot once and extract its policy once, share the weights
// and the policy read-only, and still produce the bytes a cell restoring
// a private agent produced. The worker's snapshot memo is bounded by the
// same FIFO.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"astro/internal/hw"
	"astro/internal/sim"
)

// resetRestoredAgents empties the process's restored-agent memo, so the
// next hybrid cell of every snapshot misses.
func resetRestoredAgents() {
	restoredAgents.mu.Lock()
	defer restoredAgents.mu.Unlock()
	restoredAgents.m, restoredAgents.order = nil, nil
}

func restoredAgentCount() int {
	restoredAgents.mu.Lock()
	defer restoredAgents.mu.Unlock()
	return len(restoredAgents.m)
}

// trainedMatrixmul trains matrixmul's fig10-style cell (a 75 KB snapshot
// with 242 visited states) into a fresh store and returns the cell, the
// store and the snapshot's key and bytes.
func trainedMatrixmul(t testing.TB) (*fig10Cell, *ShardedStore, string, []byte) {
	t.Helper()
	cell := fig10StyleCells(t, []string{"matrixmul"})[0]
	store := NewMemStore()
	if _, err := TrainCell(store, cell.spec); err != nil {
		t.Fatal(err)
	}
	key, err := cell.spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	data, ok := store.Get(key)
	if !ok {
		t.Fatal("training banked no snapshot")
	}
	return cell, store, key, data
}

// hybridJobsOf returns samples agent-keyed hybrid cells of one trained
// agent, reading its snapshot from agents.
func hybridJobsOf(t testing.TB, cell *fig10Cell, samples int, agents ResultStore) []*Job {
	t.Helper()
	var jobs []*Job
	for _, j := range fig10StyleJobs(t, []*fig10Cell{cell}, samples, agents) {
		if j.AgentKey != "" {
			j.Index = len(jobs)
			jobs = append(jobs, j)
		}
	}
	return jobs
}

func executeBytes(t *testing.T, j *Job) []byte {
	t.Helper()
	res, err := j.Execute()
	if err != nil {
		t.Fatal(err)
	}
	data, err := sim.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestHybridCellsShareRestoredAgent runs eight hybrid cells of one agent
// key on four executors at once, all through one memo entry and their own
// inference handles, and pins their bytes to a one-executor run and to
// cells that each restore a private agent (the memo emptied before every
// cell). Under -race it covers the memo and the shared weights.
func TestHybridCellsShareRestoredAgent(t *testing.T) {
	cell, store, _, _ := trainedMatrixmul(t)
	const samples = 8

	var private [][]byte
	for _, j := range hybridJobsOf(t, cell, samples, store) {
		resetRestoredAgents()
		private = append(private, executeBytes(t, j))
	}
	for _, workers := range []int{1, 4} {
		resetRestoredAgents()
		outs, err := (&Pool{Workers: workers}).Run(context.Background(), hybridJobsOf(t, cell, samples, store), nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range outs {
			if string(o.Bytes) != string(private[i]) {
				t.Fatalf("%d executors: cell %d (%s) differs from a cell with a private agent", workers, i, o.Job.Label)
			}
		}
		if n := restoredAgentCount(); n != 1 {
			t.Fatalf("%d executors: memo holds %d restored agents for one snapshot, want 1", workers, n)
		}
	}
}

// TestRestoredAgentsKeyedByBytes: the memo keys on the snapshot's bytes
// and the platform, never on the agent key, so other bytes under one
// agent key, or one snapshot on another platform, get entries of their own.
func TestRestoredAgentsKeyedByBytes(t *testing.T) {
	cell, store, key, data := trainedMatrixmul(t)
	snap, err := decodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range snap.Agent.Weights[1] {
		for i := range row {
			row[i] = -row[i] // a different agent of the same shape
		}
	}
	other, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	otherStore := NewMemStore()
	if err := otherStore.Put(key, other); err != nil {
		t.Fatal(err)
	}

	resetRestoredAgents()
	want := executeBytes(t, hybridJobsOf(t, cell, 1, otherStore)[0])
	resetRestoredAgents()
	if first := executeBytes(t, hybridJobsOf(t, cell, 1, store)[0]); string(first) == string(want) {
		t.Fatal("the two snapshots run alike, so this test cannot tell them apart")
	}
	if got := executeBytes(t, hybridJobsOf(t, cell, 1, otherStore)[0]); string(got) != string(want) {
		t.Fatal("other bytes under one agent key ran with the first snapshot's agent")
	}
	if n := restoredAgentCount(); n != 2 {
		t.Fatalf("memo holds %d entries for two snapshots, want 2", n)
	}

	plat, err := hw.ByName(DefaultPlatform)
	if err != nil {
		t.Fatal(err)
	}
	a, err := restoreShared(data, DefaultPlatform, plat)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restoreShared(other, DefaultPlatform, plat)
	if err != nil {
		t.Fatal(err)
	}
	c, err := restoreShared(data, "elsewhere", plat)
	if err != nil {
		t.Fatal(err)
	}
	if a == b || a == c {
		t.Fatal("distinct snapshot bytes or platforms share a memo entry")
	}
	if again, _ := restoreShared(data, DefaultPlatform, plat); again != a {
		t.Fatal("the same bytes on the same platform missed the memo")
	}
}

// TestFailedRestoreNotMemoized: a snapshot that does not restore fails its
// cell as it did before the memo, every time, and leaves no entry.
func TestFailedRestoreNotMemoized(t *testing.T) {
	cell, _, key, _ := trainedMatrixmul(t)
	bad := NewMemStore()
	if err := bad.Put(key, []byte(outOfRangeSnapshots["negative-hidden"])); err != nil {
		t.Fatal(err)
	}
	resetRestoredAgents()
	for attempt := 0; attempt < 2; attempt++ {
		_, err := hybridJobsOf(t, cell, 1, bad)[0].Execute()
		if err == nil || !strings.Contains(err.Error(), "snapshot "+key+": campaign: trained-agent snapshot does not restore") {
			t.Fatalf("attempt %d: err %v, want the snapshot's restore error", attempt, err)
		}
		if n := restoredAgentCount(); n != 0 {
			t.Fatalf("attempt %d: a failed restore left %d memo entries", attempt, n)
		}
	}
}

func TestFIFOMemo(t *testing.T) {
	var m fifoMemo[int, string]
	for i := 0; i <= memoCap; i++ {
		m.add(i, fmt.Sprint(i))
	}
	if len(m.m) != memoCap || len(m.order) != memoCap {
		t.Fatalf("memo holds %d entries (%d in order), want %d", len(m.m), len(m.order), memoCap)
	}
	if _, ok := m.get(0); ok {
		t.Fatal("the oldest entry survived the cap")
	}
	if v, ok := m.get(1); !ok || v != "1" {
		t.Fatal("the second entry was evicted before the first")
	}
	if got := m.add(1, "racer"); got != "1" {
		t.Fatalf("add on a filled key returned %q, want the first value", got)
	}
	m.add(memoCap+1, "next")
	if _, ok := m.get(1); ok {
		t.Fatal("a second add moved its key to the back of the eviction order")
	}
}

// TestWorkerAgentMemoBounded: a worker keeps at most memoCap fetched
// snapshots, so after memoCap+1 distinct keys the first is fetched from
// the coordinator again, while the newest is still served from memory.
func TestWorkerAgentMemoBounded(t *testing.T) {
	var mu sync.Mutex
	gets := map[string]int{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := strings.TrimPrefix(r.URL.Path, "/work/agents/")
		mu.Lock()
		gets[key]++
		mu.Unlock()
		fmt.Fprintf(w, "snapshot %s", key)
	}))
	defer srv.Close()
	w := &Worker{Coordinator: srv.URL + "/work", ID: "bounded"}
	fetch := func(i int) {
		t.Helper()
		key := testKey(i)
		if data, ok := w.agentStore().Get(key); !ok || string(data) != "snapshot "+key {
			t.Fatalf("key %d: got %q, %t", i, data, ok)
		}
	}
	for i := 0; i <= memoCap; i++ {
		fetch(i)
	}
	fetch(memoCap)
	fetch(0)
	mu.Lock()
	defer mu.Unlock()
	if n := gets[testKey(memoCap)]; n != 1 {
		t.Fatalf("the newest key was fetched %d times, want 1", n)
	}
	if n := gets[testKey(0)]; n != 2 {
		t.Fatalf("the first key was fetched %d times after %d others, want 2", n, memoCap)
	}
}

// BenchmarkHybridFromAgent measures what an agent-keyed hybrid cell pays
// to build its policy from a 75 KB DQN snapshot (matrixmul's fig10-style
// agent, fig10's network size, 242 visited states): "miss" restores the
// agent and extracts its policy into an emptied memo, as every cell did
// before the memo; "hit" finds both memoized and pays the snapshot's
// SHA-256 and an inference handle. Recorded, not gated.
func BenchmarkHybridFromAgent(b *testing.B) {
	cell, store, _, _ := trainedMatrixmul(b)
	j := hybridJobsOf(b, cell, 1, store)[0]
	plat, err := hw.ByName(j.platformName())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			resetRestoredAgents()
			if _, err := j.hybridFromAgent(plat); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		if _, err := j.hybridFromAgent(plat); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for b.Loop() {
			if _, err := j.hybridFromAgent(plat); err != nil {
				b.Fatal(err)
			}
		}
	})
}
