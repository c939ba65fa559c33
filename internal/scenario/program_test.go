package scenario

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"astro/internal/features"
	"astro/internal/hw"
	"astro/internal/ir"
	"astro/internal/sim"
)

// TestGenerateDeterministic pins the determinism contract: same params in,
// byte-identical source and byte-identical ir.Encode out.
func TestGenerateDeterministic(t *testing.T) {
	pp := ProgramParams{Seed: 42, CPU: 2, IO: 2, Blocked: 2, Mixed: 2, Mutexes: 2, Barrier: true}
	a, err := Generate(pp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(pp)
	if err != nil {
		t.Fatal(err)
	}
	if a.Source != b.Source {
		t.Fatal("same params produced different source")
	}
	ma, err := a.Compile()
	if err != nil {
		t.Fatal(err)
	}
	mb, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ir.Encode(ma), ir.Encode(mb)) {
		t.Fatal("same params produced different IR encodings")
	}
	// Different seeds diversify the source.
	c, err := Generate(ProgramParams{Seed: 43, CPU: 2, IO: 2, Blocked: 2, Mixed: 2, Mutexes: 2, Barrier: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.Source == a.Source {
		t.Error("different seeds produced identical source")
	}
}

// TestGenerateReusedSource pins what Materialize relies on: one source
// reseeded per program (generate) yields the same source as a fresh one
// per program (Generate), whatever the previous program drew.
func TestGenerateReusedSource(t *testing.T) {
	rng := rand.New(rand.NewSource(0))
	m := Matrix{ProgramCount: 12, ProgramSeed: 5}
	for _, pp := range m.programParams() {
		want, err := Generate(pp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := generate(pp, rng)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: a reseeded source generated a different program", pp.Name())
		}
	}
}

// TestGeneratedPhaseMix verifies that every generated phase function
// classifies into its requested bucket across a spread of seeds and knobs.
func TestGeneratedPhaseMix(t *testing.T) {
	want := map[string]features.Phase{
		"cpu_": features.PhaseCPUBound,
		"io_":  features.PhaseIOBound,
		"blk_": features.PhaseBlocked,
		"mix_": features.PhaseOther,
	}
	for seed := int64(0); seed < 12; seed++ {
		pp := ProgramParams{
			Seed: seed, CPU: 2, IO: 2, Blocked: 3, Mixed: 2,
			LoopDepth: 1 + int(seed)%4,
			Trip:      8 << (seed % 5),
			Mutexes:   int(seed) % 9,
			Barrier:   seed%2 == 0,
		}
		spec, err := Generate(pp)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := spec.Compile()
		if err != nil {
			t.Fatalf("seed %d: compile: %v\n%s", seed, err, spec.Source)
		}
		if err := ir.Verify(mod); err != nil {
			t.Fatalf("seed %d: verify: %v", seed, err)
		}
		mi := features.AnalyzeModule(mod, features.Options{})
		for _, fi := range mi.Funcs {
			for pfx, ph := range want {
				if strings.HasPrefix(fi.Name, pfx) && fi.Phase != ph {
					t.Errorf("seed %d: %s classifies as %v, want %v (vec %+v)",
						seed, fi.Name, fi.Phase, ph, fi.Vec)
				}
			}
		}
	}
}

// TestGeneratedProgramsRun executes a few generated programs end-to-end on
// both a built-in board and a zoo platform.
func TestGeneratedProgramsRun(t *testing.T) {
	plats := []string{"odroid-xu4", hw.PlatformParams{Little: 2, Big: 2, LittleMHz: 1000, BigMHz: 1800, BigBlend: 1}.String()}
	for seed := int64(0); seed < 3; seed++ {
		spec, err := Generate(ProgramParams{Seed: seed, Mutexes: 2, Barrier: seed%2 == 0, Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		mod, err := spec.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, pn := range plats {
			plat, err := hw.ByName(pn)
			if err != nil {
				t.Fatal(err)
			}
			m, err := sim.New(mod, plat, sim.Options{Args: spec.SmallArgs(), Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Run()
			if err != nil {
				t.Fatalf("seed %d on %s: %v", seed, pn, err)
			}
			if res.TimeS <= 0 || res.EnergyJ <= 0 || res.Instructions == 0 {
				t.Errorf("seed %d on %s: degenerate result %+v", seed, pn, res)
			}
		}
	}
}

func TestProgramParamsValidate(t *testing.T) {
	bad := []ProgramParams{
		{CPU: -1},
		{CPU: 17},
		{CPU: 1, Threads: 17},
		{CPU: 1, LoopDepth: 5},
		{CPU: 1, Trip: 1},
		{CPU: 1, Trip: 8192},
		{CPU: 1, Mutexes: 9},
		{CPU: 1, DefaultScale: 1, SmallScale: 2},
	}
	for _, pp := range bad {
		if err := pp.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", pp)
		}
	}
	if err := (ProgramParams{}).Validate(); err != nil {
		t.Errorf("zero params should canonicalize to a valid default mix: %v", err)
	}
}
