package sim

// Memory-model pins. The simulated address space is the globals followed by
// MaxThreads stacks of StackCells cells each; memory behind it is allocated
// on first touch. These tests pin the observable contract — every address in
// the space reads 0 until written, only addresses outside it fault, and both
// execution tiers agree — and the construction cost the lazy allocation buys.

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"astro/internal/hw"
	"astro/internal/ir"
)

// boundarySrc loads g[i], stores 42 there, crosses a burst boundary
// (print_int is a sync op) and loads it back. With BoundsCheck off, i may
// index far past g's four cells into any thread's stack.
const boundarySrc = `
var g [4] int;
func main(i int) {
	print_int(g[i]);
	g[i] = 42;
	print_int(1);
	print_int(g[i]);
}
`

const storeFirstSrc = `
var g [4] int;
func main(i int) {
	g[i] = 42;
}
`

// TestMemoryFaultBoundary pins the edge of the address space on both tiers
// with BoundsCheck off: the last cell of the last thread's stack is
// addressable, reads 0 and keeps a store across a burst boundary; one cell
// further faults with the exact load/store messages.
func TestMemoryFaultBoundary(t *testing.T) {
	mod := compile(t, boundarySrc)
	storeMod := compile(t, storeFirstSrc)
	plat := hw.OdroidXU4()
	for _, legacy := range []bool{false, true} {
		t.Run(fmt.Sprintf("legacy=%v", legacy), func(t *testing.T) {
			opts := Options{Seed: 1, CaptureOutput: true, LegacyInterp: legacy}
			opts.setDefaults()
			memCells := mod.GlobalCells() + int64(opts.MaxThreads)*opts.StackCells
			base := mod.GlobalBase(0)

			opts.Args = []int64{memCells - 1 - base}
			m, err := New(mod, plat, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Run()
			if err != nil {
				t.Fatalf("last cell: %v", err)
			}
			if got := strings.Join(res.Output, ","); got != "0,1,42" {
				t.Fatalf("last cell output %q, want 0,1,42", got)
			}

			opts.Args = []int64{memCells - base}
			for _, tc := range []struct {
				mod *ir.Module
				op  string
			}{{mod, "load from"}, {storeMod, "store to"}} {
				m, err := New(tc.mod, plat, opts)
				if err != nil {
					t.Fatal(err)
				}
				want := fmt.Sprintf("%s invalid address %d in main (thread 0)", tc.op, memCells)
				if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("%s one past the end: error %v, want %q", tc.op, err, want)
				}
			}
		})
	}
}

// growInCallSrc makes the callee's frame arrays grow memory inside a burst:
// main's frame has no arrays, so memory holds only the globals until
// main calls grow, whose pushed frame allocates its 4096-cell array. The
// callee then stores to a global before touching its own array, and the
// print_int boundary makes the next burst read the global back. A fast path
// still holding the pre-call memory slice would lose the store.
const growInCallSrc = `
var g [4] int;
func grow(v int) int {
	var a [4096] int;
	g[1] = v;
	a[4095] = v + 1;
	return a[4095];
}
func main() {
	g[1] = 5;
	var r int = grow(7);
	print_int(r);
	print_int(g[1]);
}
`

// TestMemoryGrowthInsideBurstDifferential pins that memory growth inside a
// fast-path burst leaves the two tiers byte-identical: the captured output
// and the canonical result encoding match the legacy interpreter.
func TestMemoryGrowthInsideBurstDifferential(t *testing.T) {
	mod := compile(t, growInCallSrc)
	plat := hw.OdroidXU4()
	var outs [2]string
	var encs [2][]byte
	for i, legacy := range []bool{false, true} {
		m, err := New(mod, plat, Options{Seed: 3, CaptureOutput: true, LegacyInterp: legacy})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("legacy=%v: %v", legacy, err)
		}
		outs[i] = strings.Join(res.Output, ",")
		if encs[i], err = EncodeResult(res); err != nil {
			t.Fatal(err)
		}
	}
	if outs[1] != "8,7" {
		t.Fatalf("legacy output %q, want 8,7", outs[1])
	}
	if outs[0] != outs[1] {
		t.Fatalf("fast output %q, legacy %q", outs[0], outs[1])
	}
	if !bytes.Equal(encs[0], encs[1]) {
		t.Fatal("fast and legacy result encodings differ")
	}
}

// TestNewMachineAllocs pins machine construction on the paper's board with
// default Options: address space and cache sets are allocated on first
// touch, so building a machine for a tiny program costs a few dozen
// allocations and well under a megabyte, not the full 8 MiB address space
// and one slice per cache set.
func TestNewMachineAllocs(t *testing.T) {
	mod := compile(t, boundarySrc)
	plat := hw.OdroidXU4()
	opts := Options{Args: []int64{0}}
	build := func() {
		if _, err := New(mod, plat, opts); err != nil {
			t.Fatal(err)
		}
	}
	build() // compile the program into the shared cache
	allocs := testing.AllocsPerRun(20, build)
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	bytesPerNew := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("sim.New: %.0f allocs, %d B", allocs, bytesPerNew)
	if allocs > 64 {
		t.Errorf("sim.New allocates %.0f objects, want <= 64", allocs)
	}
	if bytesPerNew > 512<<10 {
		t.Errorf("sim.New allocates %d bytes, want <= %d", bytesPerNew, 512<<10)
	}
}
