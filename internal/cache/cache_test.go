package cache

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestGeometryValidation(t *testing.T) {
	bad := [][3]int{
		{0, 4, 64},
		{1024, 0, 64},
		{1024, 4, 0},
		{1024, 4, 48},    // line size not power of two
		{1024, 4, 1},     // 1-byte lines leave no tag free to mark an empty way
		{1000, 4, 64},    // does not divide
		{64 * 12, 4, 64}, // 3 sets, not power of two
	}
	for _, g := range bad {
		if _, err := New(g[0], g[1], g[2]); err == nil {
			t.Errorf("New(%v) accepted", g)
		}
	}
	if _, err := New(32*1024, 4, 64); err != nil {
		t.Errorf("32KB 4-way rejected: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew(3, 3, 3)
}

func TestHitAfterMiss(t *testing.T) {
	c := MustNew(1024, 2, 64)
	if c.Access(0x100) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x100) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x13f) { // same 64B line as 0x100
		t.Fatal("same-line access missed")
	}
	if c.Access(0x140) { // next line
		t.Fatal("different line hit")
	}
	h, m := c.Stats()
	if h != 2 || m != 2 {
		t.Fatalf("stats = %d/%d, want 2/2", h, m)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way, 2 sets, 64B lines -> 256B cache. Lines mapping to set 0:
	// addresses 0, 128, 256, ... (tag alternates).
	c := MustNew(256, 2, 64)
	c.Access(0)   // set0: [0]
	c.Access(128) // set0: [128, 0]
	c.Access(0)   // touch 0 -> [0, 128]
	c.Access(256) // evict 128 -> [256, 0]
	if !c.Probe(0) {
		t.Error("0 should be resident (recently used)")
	}
	if c.Probe(128) {
		t.Error("128 should be evicted (LRU)")
	}
	if !c.Probe(256) {
		t.Error("256 should be resident")
	}
}

func TestProbeDoesNotDisturb(t *testing.T) {
	c := MustNew(256, 2, 64)
	c.Access(0)
	c.Access(128)
	h0, m0 := c.Stats()
	for i := 0; i < 10; i++ {
		c.Probe(0)
		c.Probe(512)
	}
	h1, m1 := c.Stats()
	if h0 != h1 || m0 != m1 {
		t.Error("Probe changed counters")
	}
	// LRU order unchanged: 0 is LRU, inserting a new line evicts it... no:
	// order is [128, 0]; inserting 256 evicts 0.
	c.Access(256)
	if c.Probe(0) {
		t.Error("probe must not refresh LRU position")
	}
}

func TestInvalidate(t *testing.T) {
	c := MustNew(1024, 4, 64)
	for a := uint64(0); a < 1024; a += 64 {
		c.Access(a)
	}
	c.Invalidate()
	if c.Probe(0) || c.Probe(512) {
		t.Error("lines survived invalidation")
	}
	c.ResetStats()
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Error("ResetStats failed")
	}
}

func TestWorkingSetBehaviour(t *testing.T) {
	// A working set that fits entirely in the cache must converge to ~100%
	// hits; one that is 2x the cache size with LRU + sequential sweep must
	// miss every access (the pathological LRU streaming case).
	c := MustNew(4096, 4, 64)
	small := make([]uint64, 0)
	for a := uint64(0); a < 2048; a += 64 {
		small = append(small, a)
	}
	for pass := 0; pass < 3; pass++ {
		for _, a := range small {
			c.Access(a)
		}
	}
	h, m := c.Stats()
	if float64(h)/float64(h+m) < 0.6 {
		t.Errorf("small working set hit rate %v too low", float64(h)/float64(h+m))
	}

	c2 := MustNew(4096, 4, 64)
	for pass := 0; pass < 3; pass++ {
		for a := uint64(0); a < 8192; a += 64 {
			c2.Access(a)
		}
	}
	h2, m2 := c2.Stats()
	if h2 > m2/4 {
		t.Errorf("streaming working set should mostly miss: %d hits %d misses", h2, m2)
	}
}

// Property: hits+misses equals the number of Access calls; contents never
// exceed capacity.
func TestAccessCountInvariant(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := MustNew(512, 2, 32)
		for _, a := range addrs {
			c.Access(uint64(a))
		}
		h, m := c.Stats()
		if h+m != uint64(len(addrs)) {
			return false
		}
		resident := map[uint64]bool{}
		for _, a := range addrs {
			if c.Probe(uint64(a)) {
				resident[uint64(a)>>5] = true
			}
		}
		return len(resident) <= 512/32
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: after accessing address A, an immediate re-access hits,
// regardless of history.
func TestRecencyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := MustNew(2048, 4, 64)
	for i := 0; i < 5000; i++ {
		a := uint64(rng.Intn(1 << 20))
		c.Access(a)
		if !c.Probe(a) {
			t.Fatalf("address %#x absent immediately after access", a)
		}
	}
}

func TestHierarchy(t *testing.T) {
	l2 := MustNew(4096, 4, 64)
	h := &Hierarchy{L1c: MustNew(512, 2, 64), L2c: l2}
	if lvl := h.Access(0x40); lvl != Miss {
		t.Fatalf("cold access = %v", lvl)
	}
	if lvl := h.Access(0x40); lvl != L1 {
		t.Fatalf("second access = %v, want L1", lvl)
	}
	// Evict from tiny L1 by streaming, then re-access: should hit in L2.
	for a := uint64(0x1000); a < 0x1000+2048; a += 64 {
		h.Access(a)
	}
	if h.L1c.Probe(0x40) {
		t.Fatal("0x40 should be gone from L1")
	}
	if lvl := h.Access(0x40); lvl != L2 {
		t.Fatalf("re-access = %v, want L2", lvl)
	}
	// L1-only hierarchy.
	solo := &Hierarchy{L1c: MustNew(512, 2, 64)}
	if lvl := solo.Access(0x80); lvl != Miss {
		t.Fatalf("solo cold = %v", lvl)
	}
	if lvl := solo.Access(0x80); lvl != L1 {
		t.Fatalf("solo second = %v", lvl)
	}
	if Miss.String() != "DRAM" || L1.String() != "L1" || L2.String() != "L2" {
		t.Error("Level strings")
	}
}

// refCache is the cache's original storage, kept as a reference model: each
// set is a slice of valid lines in move-to-front order, grown on its first
// miss up to the associativity.
type refCache struct {
	sets      [][]refLine
	ways      int
	lineShift uint
	setMask   uint64

	hits, misses uint64
}

type refLine struct {
	tag   uint64
	valid bool
}

func newRef(sizeBytes, ways, lineBytes int) *refCache {
	numSets := sizeBytes / lineBytes / ways
	r := &refCache{sets: make([][]refLine, numSets), ways: ways, setMask: uint64(numSets - 1)}
	for lineBytes > 1 {
		lineBytes >>= 1
		r.lineShift++
	}
	return r
}

func (r *refCache) Access(byteAddr uint64) bool {
	tag := byteAddr >> r.lineShift
	set := r.sets[tag&r.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			l := set[i]
			copy(set[1:i+1], set[:i])
			set[0] = l
			r.hits++
			return true
		}
	}
	r.misses++
	if set == nil {
		set = make([]refLine, 0, r.ways)
	}
	if len(set) < r.ways {
		set = append(set, refLine{})
		r.sets[tag&r.setMask] = set
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = refLine{tag: tag, valid: true}
	return false
}

func (r *refCache) Probe(byteAddr uint64) bool {
	tag := byteAddr >> r.lineShift
	for _, l := range r.sets[tag&r.setMask] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

func (r *refCache) Invalidate() {
	for i := range r.sets {
		r.sets[i] = r.sets[i][:0]
	}
}

// lruGeometries are the shapes the reference comparison runs on: 4- and
// 16-way caches of one set, of a few sets inside one page, and the paper
// board's L1 and LITTLE L2 (several pages each).
var lruGeometries = [][3]int{
	{256, 4, 64},
	{1024, 4, 64},
	{4096, 16, 64},
	{32 << 10, 4, 64},
	{512 << 10, 16, 64},
}

// checkLRU replays ops against a Cache and the reference model on geometry
// g and fails at the first differing Access, Probe or Stats answer. Each op
// is three bytes: a kind, then a tag byte and a set byte. Kind%8 0–4
// accesses, 5–6 probes, 7 invalidates; kind/8 is the byte offset inside the
// line. The tag byte picks one of 256 lines per set, so a stream can cycle
// any number of lines through one set. Half way through the stream the
// cache is released and replaced by a New one of the same geometry, checked
// against a fresh reference from there on, so a recycled cache must answer
// exactly as a new one; the cache is released again at the end.
func checkLRU(t *testing.T, g [3]int, ops []byte) {
	t.Helper()
	c, ref := MustNew(g[0], g[1], g[2]), newRef(g[0], g[1], g[2])
	setBits := uint(0)
	for 1<<setBits < g[0]/g[1]/g[2] {
		setBits++
	}
	half := len(ops) / 6 * 3
	for i := 0; i+3 <= len(ops); i += 3 {
		if i == half && i > 0 {
			c.Release()
			c, ref = MustNew(g[0], g[1], g[2]), newRef(g[0], g[1], g[2])
		}
		kind, tag, set := ops[i], uint64(ops[i+1]), uint64(ops[i+2])
		line := tag<<setBits | set&ref.setMask
		addr := line<<ref.lineShift | uint64(kind/8)%uint64(g[2])
		switch kind % 8 {
		case 0, 1, 2, 3, 4:
			if got, want := c.Access(addr), ref.Access(addr); got != want {
				t.Fatalf("%v op %d: Access(%#x) = %v, reference %v", g, i/3, addr, got, want)
			}
		case 5, 6:
			if got, want := c.Probe(addr), ref.Probe(addr); got != want {
				t.Fatalf("%v op %d: Probe(%#x) = %v, reference %v", g, i/3, addr, got, want)
			}
		case 7:
			c.Invalidate()
			ref.Invalidate()
		}
		if h, m := c.Stats(); h != ref.hits || m != ref.misses {
			t.Fatalf("%v op %d: Stats = %d/%d, reference %d/%d", g, i/3, h, m, ref.hits, ref.misses)
		}
	}
	for i := 0; i+3 <= len(ops); i += 3 {
		line := uint64(ops[i+1])<<setBits | uint64(ops[i+2])&ref.setMask
		if got, want := c.Probe(line<<ref.lineShift), ref.Probe(line<<ref.lineShift); got != want {
			t.Fatalf("%v final Probe(line %#x) = %v, reference %v", g, line, got, want)
		}
	}
	c.Release()
}

// cycleOps builds n accesses that cycle lines tags through one set.
func cycleOps(set byte, n int, tags ...byte) []byte {
	var ops []byte
	for i := 0; i < n; i++ {
		ops = append(ops, 0, tags[i%len(tags)], set)
	}
	return ops
}

// TestCacheMatchesLRUReference pins the tag-only paged storage to the
// original move-to-front model: same hit/miss outcomes, counters and
// residency on every geometry.
func TestCacheMatchesLRUReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	random := make([]byte, 3*4000)
	rng.Read(random)
	// The same stream folded onto 8 lines in each of 4 sets, so it hits as
	// well as misses on every geometry.
	narrow := append([]byte(nil), random...)
	for i := 0; i < len(narrow); i += 3 {
		narrow[i+1] %= 8
		narrow[i+2] %= 4
	}
	// Three lines cycling through one set: the pattern behind fig10's L1
	// hits at ways 0, 1 and 2.
	three := cycleOps(5, 300, 1, 2, 3)
	// The same set overflowed by more lines than the widest geometry has
	// ways, with an Invalidate half way.
	invalidated := append(cycleOps(9, 60, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17), 7, 0, 0)
	invalidated = append(invalidated, cycleOps(9, 60, 3, 2, 1, 17)...)
	for _, g := range lruGeometries {
		for name, ops := range map[string][]byte{"three": three, "invalidated": invalidated, "random": random, "narrow": narrow} {
			t.Run(fmt.Sprintf("%d-%d-way/%s", g[0], g[1], name), func(t *testing.T) {
				checkLRU(t, g, ops)
			})
		}
	}
	// Neighbouring geometries in turn, each releasing its caches into its
	// own pool: a cache of one geometry serving the other would answer
	// from the wrong sets.
	for i := 1; i < len(lruGeometries); i++ {
		a, b := lruGeometries[i-1], lruGeometries[i]
		t.Run(fmt.Sprintf("alternate-%d-%d", a[0], b[0]), func(t *testing.T) {
			for _, g := range [][3]int{a, b, a, b} {
				checkLRU(t, g, narrow)
			}
		})
	}
}

// TestReleaseRecycles pins what Release hands back: New of the same
// geometry reuses the released cache, empty and with zeroed counters, and
// New of another geometry never does.
func TestReleaseRecycles(t *testing.T) {
	// One P: a Put and the next Get meet in the same pool.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c := MustNew(1024, 4, 64)
	for a := uint64(0); a < 2048; a += 64 {
		c.Access(a)
	}
	c.Release()
	if other := MustNew(2048, 4, 64); other == c {
		t.Fatal("a cache of another size took the released cache")
	}
	if other := MustNew(1024, 2, 64); other == c {
		t.Fatal("a cache of other ways took the released cache")
	}
	if other := MustNew(1024, 4, 32); other == c {
		t.Fatal("a cache of another line size took the released cache")
	}
	r := MustNew(1024, 4, 64)
	if r != c && !raceEnabled {
		t.Fatal("New of the same geometry did not reuse the released cache")
	}
	if h, m := r.Stats(); h != 0 || m != 0 {
		t.Fatalf("reused cache stats %d/%d, want 0/0", h, m)
	}
	for a := uint64(0); a < 2048; a += 64 {
		if r.Probe(a) {
			t.Fatalf("line %#x survived Release", a)
		}
	}
}

// FuzzCacheLRU mutates op streams (see checkLRU) and checks the cache
// against the reference model. The first byte picks a geometry and a
// second one; when they differ, the stream replays on the second and then
// the first again, so released caches of the two geometries alternate in
// their pools. Its seed corpus is testdata/fuzz/FuzzCacheLRU.
func FuzzCacheLRU(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := len(lruGeometries)
		g, other := lruGeometries[int(data[0])%n], lruGeometries[int(data[0])/n%n]
		checkLRU(t, g, data[1:])
		if other != g {
			checkLRU(t, other, data[1:])
			checkLRU(t, g, data[1:])
		}
	})
}

// BenchmarkHierarchyAccess streams three lines per set through the paper
// board's L1 and big-cluster L2, so after the first pass every access hits
// L1 at way 2 after scanning the two newer lines: the per-access cost of
// the cache model on the small-working-set streams fig10 runs.
func BenchmarkHierarchyAccess(b *testing.B) {
	h := &Hierarchy{L1c: MustNew(32<<10, 4, 64), L2c: MustNew(2<<20, 16, 64)}
	const sets = 128 // the L1's
	addrs := make([]uint64, 0, 3*sets)
	for s := uint64(0); s < sets; s++ {
		for tag := uint64(0); tag < 3; tag++ {
			addrs = append(addrs, (tag*sets+s)*64)
		}
	}
	for _, a := range addrs {
		h.Access(a)
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		h.Access(addrs[i])
		if i++; i == len(addrs) {
			i = 0
		}
	}
}
