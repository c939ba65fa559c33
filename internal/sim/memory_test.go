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
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"astro/internal/cache"
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
// default Options: address space and cache pages are allocated on first
// touch, so building a machine for a tiny program costs a few dozen
// allocations and a few KiB, not the full 8 MiB address space, a tag page
// per cache or a slice header per cache set.
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
	if bytesPerNew > 32<<10 {
		t.Errorf("sim.New allocates %d bytes, want <= %d", bytesPerNew, 32<<10)
	}

	t.Run("recycle", func(t *testing.T) {
		if raceEnabled {
			t.Skip("the race detector's sync.Pool drops Puts at random")
		}
		// One P and no GC: a Put and the next Get meet in the same pool.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		mod := compile(t, recycleSrc)
		cycle := func() (*[]uint64, []*cache.Cache, uint64) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m, err := New(mod, plat, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var caches []*cache.Cache
			for _, c := range m.cores {
				caches = append(caches, c.hier.L1c)
			}
			for _, l2 := range m.l2 {
				caches = append(caches, l2)
			}
			mem := m.memBox
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return mem, caches, after.TotalAlloc - before.TotalAlloc
		}
		firstMem, firstCaches, firstBytes := cycle()
		secondMem, secondCaches, secondBytes := cycle()
		t.Logf("New+Run: %d B fresh, %d B recycled", firstBytes, secondBytes)
		if secondMem != firstMem {
			t.Error("the second machine did not take the first's memory")
		}
		taken := map[*cache.Cache]bool{}
		for _, c := range firstCaches {
			taken[c] = true
		}
		for _, c := range secondCaches {
			if !taken[c] {
				t.Fatal("the second machine built a cache instead of taking the first's")
			}
			delete(taken, c)
		}
		// The globals alone are 512 KiB and the tag pages the run touches
		// 68 KiB; everything else it allocates is under 5 KiB.
		if firstBytes < 512<<10 {
			t.Fatalf("fresh New+Run allocates %d B, want the globals' 512 KiB at least", firstBytes)
		}
		if secondBytes > 16<<10 {
			t.Errorf("recycled New+Run allocates %d B, want <= %d: no globals, no tag pages", secondBytes, 16<<10)
		}
	})
}

// recycleSrc writes one cell of every cache line of 512 KiB of globals, so
// a fresh machine running it allocates the globals and a tag page for
// every set of its core's L1 and of a 512 KiB LITTLE L2.
const recycleSrc = `
var g [65536] int;
func main() {
	var i int;
	for (i = 0; i < 65536; i = i + 8) {
		g[i] = i;
	}
}
`

// TestDirtyMemPoolReadsZero pins that a recycled memory buffer cannot leak
// into a run. With a garbage-filled buffer larger than the whole address
// space in the pool, boundarySrc reads 0 at a global and at the last cell
// of the last thread's stack (memory the run grows into the buffer's spare
// capacity) on both tiers, and each result encodes to the same bytes as
// the run on fresh memory.
func TestDirtyMemPoolReadsZero(t *testing.T) {
	// One P: a Put and the next Get meet in the same pool.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mod := compile(t, boundarySrc)
	plat := hw.OdroidXU4()
	opts := Options{Seed: 1, CaptureOutput: true}
	opts.setDefaults()
	memCells := mod.GlobalCells() + int64(opts.MaxThreads)*opts.StackCells
	run := func(t *testing.T, opts Options, dirty bool) []byte {
		t.Helper()
		var m *Machine
		for {
			runtime.GC() // two GCs empty every sync.Pool
			runtime.GC()
			var garbage []uint64
			if dirty {
				garbage = make([]uint64, memCells+64)
				for i := range garbage {
					garbage[i] = ^uint64(i)
				}
				memPool.Put(&garbage)
			}
			var err error
			if m, err = New(mod, plat, opts); err != nil {
				t.Fatal(err)
			}
			if !dirty || m.memBox == &garbage {
				break
			}
			// The race detector dropped the Put: try again.
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(res.Output, ","); got != "0,1,42" {
			t.Fatalf("dirty=%v: output %q, want 0,1,42", dirty, got)
		}
		enc, err := EncodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	for _, legacy := range []bool{false, true} {
		for _, idx := range []int64{1, memCells - 1 - mod.GlobalBase(0)} {
			t.Run(fmt.Sprintf("legacy=%v/index=%d", legacy, idx), func(t *testing.T) {
				opts := opts
				opts.LegacyInterp = legacy
				opts.Args = []int64{idx}
				if fresh, dirty := run(t, opts, false), run(t, opts, true); !bytes.Equal(fresh, dirty) {
					t.Fatalf("result on a dirty pooled buffer differs from fresh memory:\n%s\n%s", dirty, fresh)
				}
			})
		}
	}
}

// TestRunOnce pins the one-shot guard that keeps a machine off the memory
// and caches its first Run released: a second Run is refused after a
// success and after a Run that failed before its main thread existed.
func TestRunOnce(t *testing.T) {
	plat := hw.OdroidXU4()
	for _, tc := range []struct {
		name, src string
		opts      Options
		firstErr  string
	}{
		{"success", storeFirstSrc, Options{Args: []int64{0}}, ""},
		{"no main thread", "func main() { var a [64] int; a[0] = 1; }", Options{StackCells: 16}, "stack overflow"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(compile(t, tc.src), plat, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			_, err = m.Run()
			if tc.firstErr == "" && err != nil || tc.firstErr != "" && (err == nil || !strings.Contains(err.Error(), tc.firstErr)) {
				t.Fatalf("first Run: %v, want %q", err, tc.firstErr)
			}
			if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "already ran") {
				t.Fatalf("second Run: %v, want machine already ran", err)
			}
		})
	}
}

// TestConcurrentRecycleByteIdentity runs machines on several goroutines at
// once, as a campaign's executors do, so the pools hand memory and caches
// across goroutines; every result must encode to the bytes of a run on
// fresh memory and caches. Run it under -race.
func TestConcurrentRecycleByteIdentity(t *testing.T) {
	plat := hw.OdroidXU4()
	mods := []*ir.Module{compile(t, recycleSrc), compile(t, growInCallSrc)}
	run := func(mod *ir.Module) ([]byte, error) {
		m, err := New(mod, plat, Options{Seed: 5, CaptureOutput: true})
		if err != nil {
			return nil, err
		}
		res, err := m.Run()
		if err != nil {
			return nil, err
		}
		return EncodeResult(res)
	}
	runtime.GC() // two GCs empty every sync.Pool
	runtime.GC()
	want := make([][]byte, len(mods))
	for i, mod := range mods {
		var err error
		if want[i], err = run(mod); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				k := (g + i) % len(mods)
				got, err := run(mods[k])
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, want[k]) {
					t.Errorf("goroutine %d run %d: module %d encodes differently on recycled memory", g, i, k)
				}
			}
		}()
	}
	wg.Wait()
}
