// Package cache implements a set-associative LRU cache simulator used for
// the per-core L1 and per-cluster L2 caches of the big.LITTLE machine model.
// It supplies the hit/miss outcomes that drive both the timing model (miss
// latency) and the hardware-phase performance counters (CMA, CMI).
package cache

import "fmt"

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

// Cache is one set-associative LRU cache.
type Cache struct {
	sets      [][]line // a set is allocated on its first miss; nil until then
	ways      int
	lineShift uint
	setMask   uint64

	hits   uint64
	misses uint64
}

type line struct {
	tag   uint64
	valid bool
	// age implements LRU: lower = more recently used (index order maintained
	// by move-to-front inside the set slice).
}

// New builds a cache of sizeBytes with the given associativity and line
// size. Size, ways and line size must make a power-of-two number of sets.
func New(sizeBytes, ways, lineBytes int) (*Cache, error) {
	if sizeBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		return nil, fmt.Errorf("cache: non-positive geometry %d/%d/%d", sizeBytes, ways, lineBytes)
	}
	if lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("cache: line size %d not a power of two", lineBytes)
	}
	numLines := sizeBytes / lineBytes
	if numLines == 0 || numLines%ways != 0 {
		return nil, fmt.Errorf("cache: %dB/%d-way/%dB-line does not divide evenly", sizeBytes, ways, lineBytes)
	}
	numSets := numLines / ways
	if numSets&(numSets-1) != 0 {
		return nil, fmt.Errorf("cache: %d sets not a power of two", numSets)
	}
	c := &Cache{
		sets:    make([][]line, numSets),
		ways:    ways,
		setMask: uint64(numSets - 1),
	}
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

// Access looks up byteAddr, updating LRU state, and reports whether it hit.
// On miss the line is installed (allocate-on-miss for reads and writes).
func (c *Cache) Access(byteAddr uint64) bool {
	tag := byteAddr >> c.lineShift
	set := c.sets[tag&c.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			// Move to front (most recently used).
			l := set[i]
			copy(set[1:i+1], set[:i])
			set[0] = l
			c.hits++
			return true
		}
	}
	c.misses++
	// Install at front, evicting LRU (the last element) if full.
	if set == nil {
		set = make([]line, 0, c.ways)
	}
	if len(set) < c.ways {
		set = append(set, line{})
		c.sets[tag&c.setMask] = set
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = line{tag: tag, valid: true}
	return false
}

// Probe reports whether byteAddr is resident without touching LRU state or
// counters.
func (c *Cache) Probe(byteAddr uint64) bool {
	tag := byteAddr >> c.lineShift
	set := c.sets[tag&c.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
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
	for i := range c.sets {
		c.sets[i] = c.sets[i][:0]
	}
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
