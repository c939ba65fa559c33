package sim

import (
	"reflect"
	"testing"

	"astro/internal/ir"
	"astro/internal/workloads"
)

// sameStreams compares the executable content of two programs: the flat
// instruction streams, block layouts and argument arenas. Function
// identity is left out, so programs compiled from two equal modules
// compare equal. (Lazily built cost variants are not part of a program.)
func sameStreams(a, b *Program) bool {
	if len(a.funcs) != len(b.funcs) {
		return false
	}
	for i := range a.funcs {
		af, bf := &a.funcs[i], &b.funcs[i]
		if !reflect.DeepEqual(af.code, bf.code) ||
			!reflect.DeepEqual(af.blockStart, bf.blockStart) ||
			!reflect.DeepEqual(af.args, bf.args) {
			return false
		}
	}
	return true
}

// TestProgramRoundTripWorkloads pins, for every workload in the registry,
// what lets workers compile their own cells: the module a worker decodes
// from the wire (ir.Decode of ir.Encode) compiles to exactly the program
// the original module does, and two compiles of one module agree.
func TestProgramRoundTripWorkloads(t *testing.T) {
	for _, spec := range workloads.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			mod, err := spec.Compile()
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			p := CompileModule(mod)
			if !sameStreams(p, CompileModule(mod)) {
				t.Fatal("CompileModule not deterministic across independent compiles")
			}
			wire, err := ir.Decode(ir.Encode(mod))
			if err != nil {
				t.Fatalf("ir.Decode: %v", err)
			}
			if !sameStreams(p, CompileModule(wire)) {
				t.Fatal("the decoded module compiles to a different program")
			}
		})
	}
}
