package ir_test

// FuzzIRDecode mutates encoded modules. ir.Decode reads coordinator-supplied
// bytes on every worker, so it must never panic, and it must accept only the
// canonical encoding: Encode(Decode(b)) == b for every b it accepts, which
// also makes a module's content hash the hash of the bytes that carried it.
//
// This lives in package ir_test because the seed modules come from the
// workload registry and the scenario generator, both of which import ir.
//
// The committed corpus under testdata/fuzz/FuzzIRDecode replays as ordinary
// subtests in plain `go test` runs; CI runs a short `-fuzz` smoke.

import (
	"bytes"
	"testing"

	"astro/internal/ir"
	"astro/internal/scenario"
	"astro/internal/workloads"
)

func FuzzIRDecode(f *testing.F) {
	// Every seed is an Encode output, which Decode must accept; otherwise
	// the round-trip property below would hold vacuously.
	seed := func(mod *ir.Module) {
		data := ir.Encode(mod)
		if _, err := ir.Decode(data); err != nil {
			f.Fatalf("%s: Decode refuses Encode's output: %v", mod.Name, err)
		}
		f.Add(data)
	}
	for _, spec := range workloads.All() {
		mod, err := spec.Compile()
		if err != nil {
			f.Fatalf("%s: %v", spec.Name, err)
		}
		seed(mod)
	}
	for i := int64(1); i <= 4; i++ {
		spec, err := scenario.Generate(scenario.ProgramParams{
			Seed: i, CPU: 1, IO: int(i % 2), Blocked: int(i / 2 % 2), Mixed: 1,
			Threads: int(i), LoopDepth: 2, Trip: 8, Mutexes: int(i % 3), Barrier: i%2 == 0,
		})
		if err != nil {
			f.Fatal(err)
		}
		mod, err := spec.Compile()
		if err != nil {
			f.Fatal(err)
		}
		seed(mod)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		mod, err := ir.Decode(data)
		if err != nil {
			return
		}
		if re := ir.Encode(mod); !bytes.Equal(re, data) {
			t.Fatalf("accepted non-canonical input\nin:  %x\nout: %x", data, re)
		}
	})
}
