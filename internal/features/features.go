// Package features implements the paper's Phase-Extractor (Sec. 3.1.1): it
// mines code-level features from IR functions and classifies each function
// into one of four static program phases (Blocked, I/O-bound, CPU-bound,
// Other). These phases are what the instrumented program reports to the
// Astro runtime at function entries.
package features

import (
	"fmt"

	"astro/internal/ir"
)

// Phase is a static program phase, per the paper's four-way partition.
type Phase uint8

const (
	PhaseOther Phase = iota
	PhaseBlocked
	PhaseIOBound
	PhaseCPUBound

	NumPhases = 4
)

func (p Phase) String() string {
	switch p {
	case PhaseOther:
		return "Other"
	case PhaseBlocked:
		return "Blocked"
	case PhaseIOBound:
		return "IOBound"
	case PhaseCPUBound:
		return "CPUBound"
	}
	return fmt.Sprintf("Phase(%d)", uint8(p))
}

// Vector is the per-function code-feature vector. All densities share the
// same denominator: the function's instruction count minus materialized
// constants (which are operands, not instructions, in LLVM IR), plus the FP
// work of math-library calls (so sqrt-heavy kernels register as
// floating-point work the way their compiled bodies would in LLVM IR).
// The density features therefore sum to at most 1 and the classification
// predicates below are mutually exclusive, as in the paper.
type Vector struct {
	IODens   float64 // library calls performing I/O
	MemDens  float64 // loads and stores
	IntDens  float64 // integer ALU
	FPDens   float64 // floating-point ALU (incl. math-library FP work)
	LockDens float64 // lock/unlock operations

	Barrier bool // function invokes a multi-thread barrier (or join)
	Net     bool // function invokes a network wait
	Sleep   bool // function invokes an unconditional sleep

	// Extra features used in Example 3.4 / Fig. 6 of the paper.
	ArithDens     float64 // IntDens + FPDens
	NestingFactor int     // deepest loop nesting
	IOWeight      float64 // Σ 10^n over I/O calls nested in n loops

	Total int // raw instruction count (before FP-work expansion)
}

// Extract computes the feature vector of one function.
func Extract(f *ir.Function) Vector {
	c := ir.CountFunc(f)
	denom := float64(c.Total - c.Other + c.LibFPWork)
	v := Vector{Total: c.Total}
	if denom > 0 {
		v.IODens = float64(c.IOCalls) / denom
		v.MemDens = float64(c.Mem) / denom
		v.IntDens = float64(c.IntALU) / denom
		v.FPDens = float64(c.FPALU+c.LibFPWork) / denom
		v.LockDens = float64(c.LockOps) / denom
	}
	v.ArithDens = v.IntDens + v.FPDens
	v.Barrier = c.Barriers > 0
	v.NetCallsToFlags(c)

	info := ir.BuildCFG(f)
	v.NestingFactor = info.MaxLoopDepth()
	v.IOWeight = ioWeight(f, info)
	return v
}

// NetCallsToFlags sets the Net and Sleep flags from raw counts.
func (v *Vector) NetCallsToFlags(c ir.ClassCounts) {
	v.Net = c.NetCalls > 0
	v.Sleep = c.SleepOps > 0
}

// ioWeight implements the heuristic of Example 3.4: Σ 10^n for every I/O
// call nested in n loops.
func ioWeight(f *ir.Function, info *ir.CFGInfo) float64 {
	var w float64
	for bi, b := range f.Blocks {
		if info.RPOIx[bi] < 0 {
			continue
		}
		depth := info.LoopDepth[bi]
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op != ir.OpBuiltin {
				continue
			}
			if ir.Builtin(ir.BuiltinID(in.Sym)).IsIO {
				w += pow10(depth)
			}
		}
	}
	return w
}

func pow10(n int) float64 {
	r := 1.0
	for i := 0; i < n; i++ {
		r *= 10
	}
	return r
}

// Classify maps a feature vector to a program phase using the paper's rules:
//
//	Blocked:  Barrier ∨ Net ∨ Sleep ∨ LockDens > 0.5
//	IOBound:  IODens + MemDens > 0.5 ∧ ¬Blocked ∧ LockDens = 0
//	CPUBound: IntDens + FPDens > 0.5 ∧ ¬Blocked
//	Other:    otherwise
func Classify(v Vector) Phase {
	blocked := v.Barrier || v.Net || v.Sleep || v.LockDens > 0.5
	if blocked {
		return PhaseBlocked
	}
	if v.IODens+v.MemDens > 0.5 && v.LockDens == 0 {
		return PhaseIOBound
	}
	if v.IntDens+v.FPDens > 0.5 {
		return PhaseCPUBound
	}
	return PhaseOther
}

// FuncInfo pairs a function with its features and phase.
type FuncInfo struct {
	Name  string
	Index int
	Vec   Vector
	Phase Phase
}

// ModuleInfo is the Phase-Extractor output for a whole module.
type ModuleInfo struct {
	Module *ir.Module
	Funcs  []FuncInfo // indexed by function index
}

// Options controls analysis.
type Options struct {
	// Transitive propagates the Barrier/Net/Sleep flags through user-function
	// calls: a function that calls a sleeping helper is itself flagged. The
	// paper instruments library calls directly, so the default is off; the
	// option exists as a documented extension (see DESIGN.md).
	Transitive bool
}

// AnalyzeModule extracts features and phases for every function.
func AnalyzeModule(m *ir.Module, opts Options) *ModuleInfo {
	mi := &ModuleInfo{Module: m}
	for i, f := range m.Funcs {
		v := Extract(f)
		mi.Funcs = append(mi.Funcs, FuncInfo{Name: f.Name, Index: i, Vec: v})
	}
	if opts.Transitive {
		propagateBlockingFlags(m, mi)
	}
	for i := range mi.Funcs {
		mi.Funcs[i].Phase = Classify(mi.Funcs[i].Vec)
	}
	return mi
}

// propagateBlockingFlags fixed-points Barrier/Net/Sleep over the call graph.
func propagateBlockingFlags(m *ir.Module, mi *ModuleInfo) {
	// callees[i] lists user functions called (or spawned) by function i.
	callees := make([][]int, len(m.Funcs))
	for i, f := range m.Funcs {
		seen := map[int]bool{}
		for _, b := range f.Blocks {
			for k := range b.Instrs {
				in := &b.Instrs[k]
				if in.Op == ir.OpCall { // spawn starts a new thread; the
					// spawner itself does not block, so OpSpawn is excluded.
					if !seen[int(in.Sym)] {
						seen[int(in.Sym)] = true
						callees[i] = append(callees[i], int(in.Sym))
					}
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i := range mi.Funcs {
			for _, c := range callees[i] {
				cv := &mi.Funcs[c].Vec
				v := &mi.Funcs[i].Vec
				if cv.Barrier && !v.Barrier {
					v.Barrier = true
					changed = true
				}
				if cv.Net && !v.Net {
					v.Net = true
					changed = true
				}
				if cv.Sleep && !v.Sleep {
					v.Sleep = true
					changed = true
				}
			}
		}
	}
}

// Histogram counts functions per phase.
func (mi *ModuleInfo) Histogram() [NumPhases]int {
	var h [NumPhases]int
	for _, f := range mi.Funcs {
		h[f.Phase]++
	}
	return h
}
