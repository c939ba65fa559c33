package sim_test

// Differential fuzz battery for the two execution tiers: fast path vs
// legacy interpreter. The fuzzer drives the scenario generator (seeded
// synthesis of astc programs with threads, mutexes, barriers and mixed
// phase structure) and requires the compiled fast path and the legacy
// interpreter to produce byte-identical canonical results: final state,
// event trace, checkpoint stream and per-core cycle counters all live in
// EncodeResult's output.
//
// This lives in package sim_test because the scenario generator transitively
// imports sim (scenario → campaign → sim).
//
// The committed corpus under testdata/fuzz/FuzzDifferentialTiers replays as
// ordinary subtests in plain `go test` runs, so the battery is part of
// tier-1 even when no fuzz engine is attached. CI additionally runs a short
// `-fuzz` smoke (see .github/workflows).

import (
	"bytes"
	"testing"

	"astro/internal/hw"
	"astro/internal/ir"
	"astro/internal/scenario"
	"astro/internal/sim"
)

// fuzzModule synthesizes a module from clamped fuzz inputs. Clamping keeps
// every mutated input inside the generator's validated parameter space
// (counts small enough that a single case runs in well under a second)
// while still letting the fuzzer steer phase mix, threading, loop shape
// and contention independently.
func fuzzModule(t *testing.T, seed int64, cpu, io, blocked, mixed, threads, depth, trip, mutexes uint8, barrier bool) (*ir.Module, []int64) {
	t.Helper()
	pp := scenario.ProgramParams{
		Seed:      seed,
		CPU:       int(cpu % 3),
		IO:        int(io % 2),
		Blocked:   int(blocked % 2),
		Mixed:     int(mixed % 2),
		Threads:   1 + int(threads%4),
		LoopDepth: 1 + int(depth%2),
		Trip:      4 + int(trip%12),
		Mutexes:   int(mutexes % 3),
		Barrier:   barrier,
	}
	if pp.CPU+pp.IO+pp.Blocked+pp.Mixed == 0 {
		pp.CPU = 1
	}
	spec, err := scenario.Generate(pp)
	if err != nil {
		t.Fatalf("scenario.Generate(%+v): %v", pp, err)
	}
	mod, err := spec.Compile()
	if err != nil {
		t.Fatalf("compile %s: %v", spec.Name, err)
	}
	return mod, spec.SmallArgs()
}

func FuzzDifferentialTiers(f *testing.F) {
	// Seeds cover the interesting structural corners: pure CPU, IO+blocked,
	// mutex contention, barrier stepping, deep loops, and the kitchen sink.
	f.Add(int64(1), uint8(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), false)
	f.Add(int64(2), uint8(2), uint8(1), uint8(0), uint8(0), uint8(1), uint8(0), uint8(5), uint8(0), false)
	f.Add(int64(3), uint8(0), uint8(1), uint8(1), uint8(0), uint8(2), uint8(0), uint8(0), uint8(0), false)
	f.Add(int64(4), uint8(1), uint8(0), uint8(0), uint8(1), uint8(3), uint8(1), uint8(7), uint8(2), false)
	f.Add(int64(5), uint8(1), uint8(1), uint8(1), uint8(1), uint8(3), uint8(1), uint8(11), uint8(2), true)
	f.Add(int64(6), uint8(2), uint8(0), uint8(1), uint8(0), uint8(2), uint8(1), uint8(3), uint8(1), true)
	f.Add(int64(7), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), false)
	f.Add(int64(20260808), uint8(2), uint8(1), uint8(1), uint8(1), uint8(3), uint8(1), uint8(11), uint8(2), true)

	plat := hw.OdroidXU4()
	f.Fuzz(func(t *testing.T, seed int64, cpu, io, blocked, mixed, threads, depth, trip, mutexes uint8, barrier bool) {
		mod, args := fuzzModule(t, seed, cpu, io, blocked, mixed, threads, depth, trip, mutexes, barrier)

		// Small quantum so bursts are interrupted mid-stream, exercising
		// suspension and resumption at chain-superop element boundaries.
		opts := sim.Options{
			Seed:          seed,
			Args:          args,
			CheckpointS:   400e-6,
			QuantumS:      50e-6,
			TickS:         200e-6,
			CaptureOutput: true,
			BoundsCheck:   true,
		}

		run := func(o sim.Options) []byte {
			m, err := sim.New(mod, plat, o)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			res, err := m.Run()
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			data, err := sim.EncodeResult(res)
			if err != nil {
				t.Fatalf("EncodeResult: %v", err)
			}
			return data
		}

		fast := run(opts)

		legacyOpts := opts
		legacyOpts.LegacyInterp = true
		legacy := run(legacyOpts)
		if !bytes.Equal(fast, legacy) {
			t.Fatalf("fast path diverged from legacy interpreter\nfast:   %.400s\nlegacy: %.400s", fast, legacy)
		}
	})
}
