// Package hw models the heterogeneous big.LITTLE platforms the paper runs
// on: core specifications (timing and power), the space of hardware
// configurations (Definition 2.1: which cores are active), and the
// platform-level parameters the simulator needs (caches, switch costs).
//
// Absolute constants are calibrated to published Cortex-A15/Cortex-A7
// characteristics (Exynos 5422 in the Odroid XU4); the reproduction targets
// behavioural shape, not board-exact joules (see DESIGN.md).
//
// # Canonical platform names
//
// ByName resolves both the built-in boards ("odroid-xu4", "jetson-tk1")
// and generated zoo machines. A zoo name is canonical and self-describing:
//
//	zoo:<L>L<B>B:l<littleMHz>@<littleBlend>:b<bigMHz>@<bigBlend>
//
// encodes every PlatformParams field, and ByName rebuilds the identical
// machine from the name alone (blends are quantized to 0.01 so
// print/parse round-trips exactly; interpolated L2 capacities snap to
// powers of two for the set-associative cache model). This contract is
// load-bearing for every cache layer above: campaign job keys and
// trained-agent keys hash the platform *name*, so two processes — or two
// machines in a distributed fleet — that agree on a name agree on the
// simulated hardware, and the content-addressed stores stay sound across
// them. TestPlatformParamsRoundTrip and the hw parse tests pin it.
package hw

import "strconv"

// CoreType distinguishes LITTLE (low-power, in-order) from big
// (high-performance, out-of-order) cores.
type CoreType uint8

const (
	Little CoreType = iota
	Big
)

func (t CoreType) String() string {
	if t == Big {
		return "big"
	}
	return "LITTLE"
}

// Config is a hardware configuration: how many LITTLE and big cores are
// active (the paper's xLyB notation). The all-off configuration is invalid.
type Config struct {
	Little int
	Big    int
}

func (c Config) String() string {
	var buf [24]byte
	return string(c.Append(buf[:0]))
}

// Append appends the configuration's String form, "<L>L<B>B", to b.
func (c Config) Append(b []byte) []byte {
	b = strconv.AppendInt(b, int64(c.Little), 10)
	b = append(b, 'L')
	b = strconv.AppendInt(b, int64(c.Big), 10)
	return append(b, 'B')
}

// Cores returns the total number of active cores.
func (c Config) Cores() int { return c.Little + c.Big }

// Valid reports whether the configuration is usable on a platform with the
// given core counts: within bounds and at least one core on.
func (c Config) Valid(maxLittle, maxBig int) bool {
	return c.Little >= 0 && c.Big >= 0 &&
		c.Little <= maxLittle && c.Big <= maxBig &&
		c.Cores() > 0
}

// CoreSpec describes one core's timing and power model.
type CoreSpec struct {
	Type    CoreType
	FreqMHz int

	// Cycles per instruction by class (pipeline issue cost; memory
	// instructions add cache/DRAM latency on top).
	CPIIntALU float64
	CPIFPALU  float64
	CPIMem    float64 // issue cost of a load/store, excluding miss latency
	CPIBranch float64
	CPICall   float64

	// Cache latencies in cycles (hit in the given level).
	L1HitCycles float64
	L2HitCycles float64
	// DRAM latency is platform-wide in nanoseconds; the per-core cycle cost
	// is DRAMLatencyNs * FreqMHz / 1000.

	// Power model (Watts). Instantaneous core power =
	//   IdleWatts                                  when on but idle
	//   ActiveWatts + FPExtraWatts*fpFrac + MemExtraWatts*missRate  when busy
	IdleWatts     float64
	ActiveWatts   float64
	FPExtraWatts  float64
	MemExtraWatts float64
}

// CyclesPerSecond returns the core clock rate in Hz.
func (s *CoreSpec) CyclesPerSecond() float64 { return float64(s.FreqMHz) * 1e6 }

// DRAMCycles converts a DRAM latency in ns to cycles at this core's clock.
func (s *CoreSpec) DRAMCycles(dramNs float64) float64 {
	return dramNs * float64(s.FreqMHz) / 1000.0
}

// Platform is a complete big.LITTLE machine description.
type Platform struct {
	Name  string
	Cores []CoreSpec

	// Index lists per type; cores are activated deterministically from the
	// front of these lists.
	LittleIdx []int
	BigIdx    []int

	// Cache geometry.
	L1KB      int
	L1Ways    int
	LineBytes int
	L2KB      map[CoreType]int // shared L2 per cluster
	L2Ways    int

	DRAMLatencyNs float64

	// Cost of hardware reconfiguration (core on/off + task migration), and
	// uncore/SoC base power charged whenever the board is on.
	SwitchLatencyUs    float64
	MigrationLatencyUs float64
	BasePowerWatts     float64
}

// MaxLittle returns the number of LITTLE cores present.
func (p *Platform) MaxLittle() int { return len(p.LittleIdx) }

// MaxBig returns the number of big cores present.
func (p *Platform) MaxBig() int { return len(p.BigIdx) }

// NumConfigs returns the number of valid configurations:
// (L+1)*(B+1) - 1 (the paper's 24 for the Odroid XU4).
func (p *Platform) NumConfigs() int {
	return (p.MaxLittle()+1)*(p.MaxBig()+1) - 1
}

// ConfigID maps a configuration to a dense id in [0, NumConfigs()).
// The all-off configuration has no id.
func (p *Platform) ConfigID(c Config) int {
	return c.Little*(p.MaxBig()+1) + c.Big - 1
}

// ConfigFromID inverts ConfigID.
func (p *Platform) ConfigFromID(id int) Config {
	n := id + 1
	return Config{Little: n / (p.MaxBig() + 1), Big: n % (p.MaxBig() + 1)}
}

// Configs enumerates all valid configurations in id order.
func (p *Platform) Configs() []Config {
	var out []Config
	for id := 0; id < p.NumConfigs(); id++ {
		out = append(out, p.ConfigFromID(id))
	}
	return out
}

// ActiveCores returns the core indices active under c, deterministically
// choosing the first cores of each type.
func (p *Platform) ActiveCores(c Config) []int {
	out := make([]int, 0, c.Cores())
	for i := 0; i < c.Little && i < len(p.LittleIdx); i++ {
		out = append(out, p.LittleIdx[i])
	}
	for i := 0; i < c.Big && i < len(p.BigIdx); i++ {
		out = append(out, p.BigIdx[i])
	}
	return out
}

// AllOn returns the configuration with every core active.
func (p *Platform) AllOn() Config {
	return Config{Little: p.MaxLittle(), Big: p.MaxBig()}
}

// Capability is a rough throughput score used by ladder policies
// (Octopus-Man): big cores count in proportion to their single-thread
// advantage over LITTLE cores.
func (p *Platform) Capability(c Config) float64 {
	bigBoost := 1.0
	if len(p.BigIdx) > 0 && len(p.LittleIdx) > 0 {
		b := &p.Cores[p.BigIdx[0]]
		l := &p.Cores[p.LittleIdx[0]]
		// Throughput ratio on int work: freq ratio x CPI ratio.
		bigBoost = (float64(b.FreqMHz) / float64(l.FreqMHz)) * (l.CPIIntALU / b.CPIIntALU)
	}
	return float64(c.Little) + bigBoost*float64(c.Big)
}

// ConfigsByCapability returns config ids sorted by ascending capability,
// tie-broken by fewer big cores then by id (a deterministic "ladder").
func (p *Platform) ConfigsByCapability() []int {
	ids := make([]int, p.NumConfigs())
	for i := range ids {
		ids[i] = i
	}
	// Insertion sort: n is tiny (24) and this avoids importing sort for a
	// custom multi-key comparison.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0; j-- {
			a, b := p.ConfigFromID(ids[j-1]), p.ConfigFromID(ids[j])
			ca, cb := p.Capability(a), p.Capability(b)
			swap := false
			if ca > cb {
				swap = true
			} else if ca == cb && a.Big > b.Big {
				swap = true
			} else if ca == cb && a.Big == b.Big && ids[j-1] > ids[j] {
				swap = true
			}
			if !swap {
				break
			}
			ids[j-1], ids[j] = ids[j], ids[j-1]
		}
	}
	return ids
}
