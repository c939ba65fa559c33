package campaign

import (
	"bytes"
	"encoding/json"
	"testing"

	"astro/internal/rl"
)

// FuzzDecodeSnapshot mutates stored training-cell bytes and feeds them to
// validateWireResult(KindTrain, ·), the gate a coordinator applies to a
// worker's training result and a worker to a fetched agent. It never
// panics; bytes it accepts are canonical (they re-encode to themselves)
// and restore through restoreTrained; and an accepted agent snapshot is a
// fixed point of rl.DecodeSnapshot then Encode. The seed corpus in
// testdata/fuzz/FuzzDecodeSnapshot — a small DQN snapshot, a tabular
// one, and the out-of-range inputs of TestOutOfRangeSnapshotRejected —
// replays in every plain `go test` run.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if validateWireResult(KindTrain, data) != nil {
			return
		}
		snap, err := decodeSnapshot(data)
		if err != nil {
			t.Fatalf("accepted bytes do not decode: %v", err)
		}
		canon, err := json.Marshal(snap)
		if err != nil || !bytes.Equal(canon, data) {
			t.Fatalf("accepted bytes do not re-encode to themselves (err %v):\n%s\n%s", err, data, canon)
		}
		if _, err := restoreTrained(data); err != nil {
			t.Fatalf("accepted bytes do not restore: %v", err)
		}
		agent, err := snap.Agent.Encode()
		if err != nil {
			t.Fatal(err)
		}
		back, err := rl.DecodeSnapshot(agent)
		if err != nil {
			t.Fatalf("agent snapshot does not decode: %v", err)
		}
		again, err := back.Encode()
		if err != nil || !bytes.Equal(again, agent) {
			t.Fatalf("agent snapshot is not stable under decode and encode (err %v):\n%s\n%s", err, agent, again)
		}
	})
}
