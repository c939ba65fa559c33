// Package cache implements a set-associative LRU cache simulator used for
// the per-core L1 and per-cluster L2 caches of the big.LITTLE machine model.
// It supplies the hit/miss outcomes that drive both the timing model (miss
// latency) and the hardware-phase performance counters (CMA, CMI).
package cache

import (
	"fmt"
	"sync"
)

// Level identifies where an access was satisfied.
type Level uint8

const (
	Miss Level = iota // DRAM
	L1
	L2
)

func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	}
	return "DRAM"
}

// pageSets is how many sets share one page of tag storage. A page is
// allocated on the first access to any of its sets, so a machine pays for
// the parts of its caches a program touches, not for every set up front.
const pageSets = 32

// empty marks an unused way. Lines are at least 2 bytes, so a tag (a byte
// address shifted right by the line bits) never has its top bit set and no
// address maps to empty.
const empty = ^uint64(0)

// Cache is one set-associative LRU cache.
type Cache struct {
	// pages holds the tags: a page is pageSets sets (fewer when the cache
	// has fewer sets) of ways tags each, every set ordered most recently
	// used first with empty ways last. nil until its first access.
	pages     [][]uint64
	ways      int
	pageShift uint // log2 of the sets per page
	lineShift uint
	setMask   uint64

	hits   uint64
	misses uint64

	pool *sync.Pool // where Release returns the cache: its geometry's pool
}

// geometry is what makes two caches interchangeable: a released cache only
// serves a New of the same size, ways and line size.
type geometry struct{ size, ways, line int }

// pools holds one pool of released caches per geometry. A machine model has
// a handful of geometries (the zoo's L2 sizes are powers of two between 512
// KiB and 2 MiB), so the map stays small; sync.Pool drops idle caches at GC,
// so an entry pins no tag pages.
var (
	poolsMu sync.Mutex
	pools   = map[geometry]*sync.Pool{}
)

func poolFor(g geometry) *sync.Pool {
	poolsMu.Lock()
	defer poolsMu.Unlock()
	p := pools[g]
	if p == nil {
		p = new(sync.Pool)
		pools[g] = p
	}
	return p
}

// New builds a cache of sizeBytes with the given associativity and line
// size. Size, ways and line size must make a power-of-two number of sets,
// and a line must be at least 2 bytes. It reuses a released cache of the
// same geometry when one is pooled, with the tag pages that cache had
// allocated; a reused cache is empty with zeroed counters, so it behaves
// exactly as a fresh one.
func New(sizeBytes, ways, lineBytes int) (*Cache, error) {
	if sizeBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		return nil, fmt.Errorf("cache: non-positive geometry %d/%d/%d", sizeBytes, ways, lineBytes)
	}
	if lineBytes < 2 || lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("cache: line size %d not a power of two of at least 2", lineBytes)
	}
	numLines := sizeBytes / lineBytes
	if numLines == 0 || numLines%ways != 0 {
		return nil, fmt.Errorf("cache: %dB/%d-way/%dB-line does not divide evenly", sizeBytes, ways, lineBytes)
	}
	numSets := numLines / ways
	if numSets&(numSets-1) != 0 {
		return nil, fmt.Errorf("cache: %d sets not a power of two", numSets)
	}
	pool := poolFor(geometry{sizeBytes, ways, lineBytes})
	if c, _ := pool.Get().(*Cache); c != nil {
		return c, nil
	}
	c := &Cache{
		ways:    ways,
		setMask: uint64(numSets - 1),
		pool:    pool,
	}
	for 1<<c.pageShift < min(numSets, pageSets) {
		c.pageShift++
	}
	c.pages = make([][]uint64, numSets>>c.pageShift)
	for lineBytes > 1 {
		lineBytes >>= 1
		c.lineShift++
	}
	return c, nil
}

// MustNew is New that panics on bad geometry (programmer error).
func MustNew(sizeBytes, ways, lineBytes int) *Cache {
	c, err := New(sizeBytes, ways, lineBytes)
	if err != nil {
		panic(err)
	}
	return c
}

// locate returns the page index of tag's set and the offset of the set's
// first way inside that page.
func (c *Cache) locate(tag uint64) (page, off int) {
	s := tag & c.setMask
	return int(s >> c.pageShift), int(s&(1<<c.pageShift-1)) * c.ways
}

// Access looks up byteAddr, updating LRU state, and reports whether it hit.
// On miss the line is installed (allocate-on-miss for reads and writes).
func (c *Cache) Access(byteAddr uint64) bool {
	tag := byteAddr >> c.lineShift
	pi, off := c.locate(tag)
	p := c.pages[pi]
	if p == nil {
		p = make([]uint64, c.ways<<c.pageShift)
		for i := range p {
			p[i] = empty
		}
		c.pages[pi] = p
	}
	set := p[off : off+c.ways]
	for i, t := range set {
		if t == tag {
			// Move to front (most recently used).
			for ; i > 0; i-- {
				set[i] = set[i-1]
			}
			set[0] = tag
			c.hits++
			return true
		}
	}
	c.misses++
	// Install at front, evicting the LRU way (the last one).
	for i := len(set) - 1; i > 0; i-- {
		set[i] = set[i-1]
	}
	set[0] = tag
	return false
}

// Probe reports whether byteAddr is resident without touching LRU state or
// counters.
func (c *Cache) Probe(byteAddr uint64) bool {
	tag := byteAddr >> c.lineShift
	pi, off := c.locate(tag)
	p := c.pages[pi]
	if p == nil {
		return false
	}
	for _, t := range p[off : off+c.ways] {
		if t == tag {
			return true
		}
	}
	return false
}

// Stats returns cumulative hits and misses.
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// ResetStats zeroes the counters without invalidating contents.
func (c *Cache) ResetStats() { c.hits, c.misses = 0, 0 }

// Invalidate empties the cache (e.g., power-gating a core or cluster).
func (c *Cache) Invalidate() {
	for _, p := range c.pages {
		for i := range p {
			p[i] = empty
		}
	}
}

// Release empties c, zeroes its counters and hands it, with the tag pages
// it allocated, to the pool that New draws caches of its geometry from.
// The caller must hold the only reference: nothing may use c after
// Release, and a cache is released at most once.
func (c *Cache) Release() {
	c.Invalidate()
	c.ResetStats()
	c.pool.Put(c)
}

// Hierarchy is a two-level cache path (a core's L1 backed by its cluster's
// shared L2). DRAM is implicit below L2.
type Hierarchy struct {
	L1c *Cache
	L2c *Cache // shared; may be nil for L1-only configurations
}

// Access walks the hierarchy and returns the level that satisfied the
// access.
func (h *Hierarchy) Access(byteAddr uint64) Level {
	if h.L1c.Access(byteAddr) {
		return L1
	}
	if h.L2c != nil && h.L2c.Access(byteAddr) {
		return L2
	}
	return Miss
}
