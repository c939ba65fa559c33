package sim

// IR precompilation: the fast execution path lowers each ir.Module once into
// a flat, densely indexed instruction stream so the burst interpreter spends
// its time on instruction semantics instead of decoding. Per instruction the
// compiler resolves everything that is static:
//
//   - branch targets become flat indices into the function's code array
//     (no Blocks[b].Instrs[pc] double indirection on the hot path);
//   - per-instruction cycle costs collapse to a cost-class index into a tiny
//     per-core table precomputed from the core spec (the products the legacy
//     interpreter recomputes every step, e.g. CPIIntALU*0.5, are computed
//     once — the same float operands and operations, so the values are
//     bit-identical);
//   - float constants are pre-converted to their register bit patterns;
//   - global base addresses are pre-resolved (the legacy path recomputes the
//     O(sym) declaration-order prefix sum on every global access);
//   - builtins carry their base cost, FP work and sync classification.
//
// The compiled form is a pure acceleration structure: thread frames keep
// their canonical (block, pc) position at every burst boundary, so the sync
// executor, the monitor and the legacy interpreter all keep working
// unchanged, and a machine can be flipped between paths with
// Options.LegacyInterp. Differential tests pin the two paths to
// byte-identical results on every bundled workload.

import (
	"sync"

	"astro/internal/hw"
	"astro/internal/ir"
)

// Cost classes: the static per-instruction cycle costs of interp.go, keyed
// so a per-core-spec table lookup replaces the multiply. clsFixed costs are
// spec-independent and stored on the instruction itself.
const (
	clsFixed   uint8 = iota // spec-independent (nop, builtins, instrumentation)
	clsIntHalf              // CPIIntALU * 0.5 (const, mov)
	clsInt                  // CPIIntALU
	clsInt2                 // CPIIntALU * 2 (mul)
	clsInt6                 // CPIIntALU * 6 (div, rem)
	clsFP                   // CPIFPALU
	clsFP4                  // CPIFPALU * 4 (fdiv)
	clsMem                  // CPIMem (+ dynamic cache latency)
	clsBranch               // CPIBranch
	clsCall                 // CPICall (call, ret)
	nCostClasses
)

// costTable holds one core type's resolved per-class cycle costs.
type costTable [nCostClasses]float64

// makeCostTable precomputes the class costs for a core spec. Each entry is
// built with exactly the float operations the legacy interpreter performs
// inline, so the looked-up values are bit-identical to the recomputed ones.
func makeCostTable(spec *hw.CoreSpec) costTable {
	var t costTable
	t[clsIntHalf] = spec.CPIIntALU * 0.5
	t[clsInt] = spec.CPIIntALU
	t[clsInt2] = spec.CPIIntALU * 2
	t[clsInt6] = spec.CPIIntALU * 6
	t[clsFP] = spec.CPIFPALU
	t[clsFP4] = spec.CPIFPALU * 4
	t[clsMem] = spec.CPIMem
	t[clsBranch] = spec.CPIBranch
	t[clsCall] = spec.CPICall
	return t
}

// cinstr is one pre-decoded instruction in the flat stream, sized to fit a
// single cache line (56 bytes). Field use mirrors ir.Instr except where
// decoding resolved something:
//
//	OpBr:         a = flat branch target
//	OpCBr:        a = cond reg, b/c = flat then/else targets
//	OpConstF:     imm = float bit pattern (pre-converted)
//	OpLocalAddr:  aux = array size (bounds check)
//	OpGlobalAddr: aux = global base cell (size rechecked via the module)
//	OpBuiltin:    imm = base cycles, aux = FP work, sync precomputed
//
// Call/spawn/builtin argument registers live in the function's shared args
// arena (argOff/argN), not in a per-instruction slice: that keeps cinstr
// pointer-free-sized and one line wide.
type cinstr struct {
	op     ir.Opcode
	cls    uint8
	sync   bool  // must execute at a globally ordered point
	argN   uint8 // argument count in the args arena
	dst    int32
	a      int32
	b      int32
	c      int32
	sym    int32
	blk    int32 // source block (frame write-back at burst boundaries)
	pc     int32 // source pc within blk
	argOff int32 // offset into compiledFunc.args
	imm    int64
	aux    int64
}

// Superinstructions: the front end lowers expressions into highly regular
// adjacent pairs — materialize a constant then consume it, compute then move
// into the named variable, compare then conditionally branch. Fusing such a
// pair into one pre-decoded superop halves the dispatch count on typical
// straight-line code, which is where an interpreter whose per-op semantics
// are a handful of host instructions spends most of its time.
//
// Fusion never changes observable behaviour:
//
//   - only infallible, non-jumping, register-only ops fuse as the first
//     element (no loads/stores, div/rem, calls, builtins), so the first
//     element cannot leave the burst;
//   - the second element's cinstr stays in place at its original flat index
//     (the superop replaces the FIRST element only and advances the pc by
//     two), so a quantum that expires between the two halves suspends with
//     the frame pointing at the second element's ordinary instruction;
//   - the per-element cycle charges and the budget check between the two
//     halves are preserved exactly, so cycle accounting is bit-identical to
//     unfused execution.
//
// The superop values extend ir's opcode space contiguously, keeping the
// dispatch switch a dense jump table.
const (
	opConstConst   ir.Opcode = ir.OpDetermineConf + 1 + iota // ConstI/F ; ConstI/F
	opConstMov                                               // ConstI/F ; Mov
	opMovConst                                               // Mov ; ConstI/F
	opMovMov                                                 // Mov ; Mov
	opConstIBin                                              // ConstI ; int binop
	opConstFBin                                              // ConstF ; fp binop
	opBinMovI                                                // int binop ; Mov
	opBinMovF                                                // fp binop ; Mov
	opCmpCBr                                                 // int compare ; CBr on its result
	opConstBinMovI                                           // ConstI ; int binop ; Mov of its result
	opConstBinMovF                                           // ConstF ; fp binop ; Mov of its result
	opConstCmpCBr                                            // ConstI ; int compare ; CBr on its result
	opLAddrLoad                                              // LocalAddr ; Load of it
	opLAddrStore                                             // LocalAddr ; Store through it
	opGAddrLoad                                              // GlobalAddr ; Load of it
	opGAddrStore                                             // GlobalAddr ; Store through it

	// Chain superops: second-level fusion over ADJACENT superop heads (see
	// fuseChains). The head of the second constituent superop keeps its
	// original cinstr in place — the chain handler reads that cinstr's
	// fields directly, and a quantum that expires mid-chain suspends at a
	// constituent boundary whose instruction executes standalone.
	opIChain5      // opConstIBin ; opConstBinMovI   (5 elements)
	opFChain5      // opConstFBin ; opConstBinMovF   (5 elements)
	opIncCmpBr     // opConstBinMovI ; opConstCmpCBr (6 elements)
	opConst2CmpBr  // opConstConst ; opCmpCBr        (4 elements)
	opIBinIBin     // opConstIBin ; opConstIBin      (4 elements)
	opFBinFBin     // opConstFBin ; opConstFBin      (4 elements)
	opMovConstBinI // opMovConst ; opBinMovI         (4 elements)
	opBinMovICmpBr // opBinMovI ; opConstCmpCBr      (5 elements)
)

// Superop field use (the first element keeps dst/imm/a as compiled):
//
//	opConstConst: dst,imm = first const   | c = second dst, aux = second imm
//	opConstMov:   dst,imm = const         | c = mov dst, a = mov src
//	opMovConst:   dst,a = mov             | c = const dst, aux = const imm
//	opMovMov:     dst,a = first mov       | c = second dst, b = second src
//	opConstIBin:  dst,imm = const         | sym = bin op, a = bin dst, b/c = operands
//	opConstFBin:  dst,imm = const (bits)  | sym = bin op, a = bin dst, b/c = operands
//	opBinMovI/F:  sym = bin op, dst = bin dst, a/b = operands | c = mov dst
//	opCmpCBr:     sym = cmp op, dst = cmp dst, a/b = operands | c = then, aux = else
//	opConstBinMov*: as opConstIBin/FBin    | aux = mov dst
//	opConstCmpCBr:  as opConstIBin (cmp)   | aux = then | else<<32
//	op*AddrLoad:  addr fields as compiled  | c = load dst
//	op*AddrStore: addr fields as compiled  | c = stored-value reg
//
// (Loads and stores do not distinguish int/float at execution time — cells
// carry raw bits — so one superop covers both typed variants.)
//
// (For opConstMov the mov source is usually the constant's register, but
// fusion does not require it; the handler reads the register file after the
// constant write, which preserves either data flow.)

func isConstProducer(op ir.Opcode) bool { return op == ir.OpConstI || op == ir.OpConstF }

func isIntBin(op ir.Opcode) bool {
	switch op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr,
		ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		return true
	}
	return false
}

func isFPBin(op ir.Opcode) bool {
	switch op {
	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
		return true
	}
	return false
}

func isIntCmp(op ir.Opcode) bool {
	switch op {
	case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		return true
	}
	return false
}

// fusePairs runs the peephole over one block's instructions (blocks cannot
// be entered mid-stream, so only intra-block pairs fuse).
func fusePairs(code []cinstr) {
	for i := 0; i+1 < len(code); i++ {
		a, b := &code[i], &code[i+1]
		switch {
		case a.op == ir.OpLocalAddr && (b.op == ir.OpLoadI || b.op == ir.OpLoadF) && b.a == a.dst:
			a.op = opLAddrLoad
			a.c = b.dst
		case a.op == ir.OpLocalAddr && (b.op == ir.OpStoreI || b.op == ir.OpStoreF) && b.a == a.dst:
			a.op = opLAddrStore
			a.c = b.b
		case a.op == ir.OpGlobalAddr && (b.op == ir.OpLoadI || b.op == ir.OpLoadF) && b.a == a.dst:
			a.op = opGAddrLoad
			a.c = b.dst
		case a.op == ir.OpGlobalAddr && (b.op == ir.OpStoreI || b.op == ir.OpStoreF) && b.a == a.dst:
			a.op = opGAddrStore
			a.c = b.b
		case isIntCmp(a.op) && b.op == ir.OpCBr && b.a == a.dst:
			a.sym = int32(a.op)
			a.op = opCmpCBr
			a.c = b.b
			a.aux = int64(b.c)
		case isConstProducer(a.op) && isConstProducer(b.op):
			a.op = opConstConst
			a.c = b.dst
			a.aux = b.imm
		case isConstProducer(a.op) && b.op == ir.OpMov:
			a.op = opConstMov
			a.c = b.dst
			a.a = b.a
		case a.op == ir.OpMov && isConstProducer(b.op):
			a.op = opMovConst
			a.c = b.dst
			a.aux = b.imm
		case a.op == ir.OpMov && b.op == ir.OpMov:
			a.op = opMovMov
			a.c = b.dst
			a.b = b.a
		case a.op == ir.OpConstI && isIntBin(b.op):
			a.op = opConstIBin
			a.sym = int32(b.op)
			a.a = b.dst
			a.b = b.a
			a.c = b.b
		case a.op == ir.OpConstF && isFPBin(b.op):
			a.op = opConstFBin
			a.sym = int32(b.op)
			a.a = b.dst
			a.b = b.a
			a.c = b.b
		case isIntBin(a.op) && b.op == ir.OpMov && b.a == a.dst:
			a.sym = int32(a.op)
			a.op = opBinMovI
			a.c = b.dst
		case isFPBin(a.op) && b.op == ir.OpMov && b.a == a.dst:
			a.sym = int32(a.op)
			a.op = opBinMovF
			a.c = b.dst
		default:
			continue
		}
		i++ // consumed the pair; the second element stays as the resume point
	}
	// Second pass: grow const+bin pairs into the front end's canonical
	// triples (assignment: const, op, mov-into-variable; loop test: const,
	// compare, branch). The second and third elements keep their original
	// cinstrs as mid-sequence resume points.
	for i := 0; i+2 < len(code); i++ {
		a := &code[i]
		third := &code[i+2]
		switch {
		case a.op == opConstIBin && third.op == ir.OpMov && third.a == a.a:
			a.op = opConstBinMovI
			a.aux = int64(third.dst)
			i += 2
		case a.op == opConstFBin && third.op == ir.OpMov && third.a == a.a:
			a.op = opConstBinMovF
			a.aux = int64(third.dst)
			i += 2
		case a.op == opConstIBin && isIntCmp(ir.Opcode(a.sym)) &&
			third.op == ir.OpCBr && third.a == a.a:
			a.op = opConstCmpCBr
			a.aux = int64(third.b) | int64(third.c)<<32
			i += 2
		}
	}
	// Third pass: chain ADJACENT superops. Only the first head's opcode
	// changes; every constituent cinstr — including the second superop's
	// head — keeps its original form in place, so a quantum that expires
	// between any two elements suspends on an instruction that executes
	// standalone. The shapes cover the front end's hottest emissions: the
	// constant-operand expression ladder (`x = x*c1 + c2` lowers to
	// ConstF;FMul;ConstF;FAdd), the statement seam where an assignment's
	// Mov pairs with the next statement's constant (Mov;Const;bin;Mov),
	// the induction step flowing into its guard (bin;Mov;Const;cmp;CBr),
	// and the two-constant loop test (Const;Const;cmp;CBr).
	for i := 0; i < len(code); i++ {
		a := &code[i]
		switch a.op {
		case opConstIBin:
			if i+4 < len(code) && code[i+2].op == opConstBinMovI {
				a.op = opIChain5
				i += 4
			} else if i+3 < len(code) && code[i+2].op == opConstIBin {
				a.op = opIBinIBin
				i += 3
			}
		case opConstFBin:
			if i+4 < len(code) && code[i+2].op == opConstBinMovF {
				a.op = opFChain5
				i += 4
			} else if i+3 < len(code) && code[i+2].op == opConstFBin {
				a.op = opFBinFBin
				i += 3
			}
		case opConstBinMovI:
			if i+5 < len(code) && code[i+3].op == opConstCmpCBr {
				a.op = opIncCmpBr
				i += 5
			}
		case opConstConst:
			if i+3 < len(code) && code[i+2].op == opCmpCBr {
				a.op = opConst2CmpBr
				i += 3
			}
		case opMovConst:
			if i+3 < len(code) && code[i+2].op == opBinMovI {
				a.op = opMovConstBinI
				i += 3
			}
		case opBinMovI:
			if i+4 < len(code) && code[i+2].op == opConstCmpCBr {
				a.op = opBinMovICmpBr
				i += 4
			}
		}
	}
}

// compiledFunc is one function's flat instruction stream. Blocks are laid
// out in declaration order, so flat(pc) = blockStart[block] + pc.
type compiledFunc struct {
	fn         *ir.Function
	code       []cinstr
	blockStart []int32
	args       []int32 // shared argument-register arena
}

// argRegs returns the argument registers of a call/spawn/builtin.
func (cf *compiledFunc) argRegs(ci *cinstr) []int32 {
	return cf.args[ci.argOff : int(ci.argOff)+int(ci.argN)]
}

// Program is a module lowered for fast dispatch. The instruction stream is
// immutable and safe for concurrent machines; per-core-cost specializations
// are built lazily and cached on the Program (see variant).
type Program struct {
	mod   *ir.Module
	funcs []compiledFunc

	mu       sync.Mutex
	variants map[costTable]costVariant
}

// costVariant is a Program's per-core-cost specialization: for one core
// cost table, the fully resolved cycle charge of every flat instruction,
// indexed [func][flat pc]. Baking the table into a flat array turns the
// hot-path charge into a single load with no class dispatch; each entry is
// the exact float makeCostTable produces (or the fixed cost interp.go
// hard-codes), so cycle accounting stays bit-identical to the unspecialized
// paths.
type costVariant [][]float64

// variant returns the cost-specialized charge arrays for one core cost
// table, building and caching them on first use. Machines bind a variant
// per core at construction time, so the hot path never allocates.
func (p *Program) variant(t costTable) costVariant {
	p.mu.Lock()
	defer p.mu.Unlock()
	if v, ok := p.variants[t]; ok {
		return v
	}
	v := make(costVariant, len(p.funcs))
	for i := range p.funcs {
		code := p.funcs[i].code
		costs := make([]float64, len(code))
		for j := range code {
			costs[j] = staticCost(&code[j], &t)
		}
		v[i] = costs
	}
	if p.variants == nil {
		p.variants = map[costTable]costVariant{}
	}
	p.variants[t] = v
	return v
}

// staticCost resolves one instruction's cycle charge under a cost table.
// clsFixed instructions carry the spec-independent costs interp.go charges
// inline; sync ops never charge inside a burst (they bill through the sync
// executor), so their entry is never read.
func staticCost(ci *cinstr, t *costTable) float64 {
	if ci.cls != clsFixed {
		return t[ci.cls]
	}
	switch ci.op {
	case ir.OpNop:
		return 1
	case ir.OpLogPhase:
		return 25
	case ir.OpToggleBlocked:
		return 20
	case ir.OpBuiltin:
		return float64(ci.imm)
	}
	return 0
}

// CompileModule lowers every function of the module into the flat
// register-machine stream, superop fusion included. Compilation is
// deterministic: two compiles of equal modules produce identical streams.
func CompileModule(mod *ir.Module) *Program {
	p := &Program{mod: mod, funcs: make([]compiledFunc, len(mod.Funcs))}
	for i, fn := range mod.Funcs {
		p.funcs[i] = compileFunc(mod, fn)
	}
	return p
}

func compileFunc(mod *ir.Module, fn *ir.Function) compiledFunc {
	cf := compiledFunc{fn: fn, blockStart: make([]int32, len(fn.Blocks))}
	total := 0
	for i, b := range fn.Blocks {
		cf.blockStart[i] = int32(total)
		total += len(b.Instrs)
	}
	cf.code = make([]cinstr, 0, total)
	for bi, b := range fn.Blocks {
		for pc := range b.Instrs {
			cf.code = append(cf.code, compileInstr(mod, fn, &cf, &b.Instrs[pc], int32(bi), int32(pc)))
		}
	}
	for bi := range fn.Blocks {
		start := cf.blockStart[bi]
		end := int32(len(cf.code))
		if bi+1 < len(fn.Blocks) {
			end = cf.blockStart[bi+1]
		}
		fusePairs(cf.code[start:end])
	}
	return cf
}

func compileInstr(mod *ir.Module, fn *ir.Function, cf *compiledFunc, in *ir.Instr, blk, pc int32) cinstr {
	ci := cinstr{
		op: in.Op, dst: in.Dst, a: in.A, b: in.B, c: in.C,
		sym: in.Sym, imm: in.Imm, blk: blk, pc: pc,
	}
	if n := len(in.Args); n > 0 {
		if n > 255 {
			// The front end cannot produce this (parameter lists are tiny),
			// but fail safe rather than truncate.
			panic("sim: compile: more than 255 call arguments")
		}
		ci.argOff = int32(len(cf.args))
		ci.argN = uint8(n)
		cf.args = append(cf.args, in.Args...)
	}
	switch in.Op {
	case ir.OpConstI:
		ci.cls = clsIntHalf
	case ir.OpConstF:
		ci.cls = clsIntHalf
		ci.imm = int64(f2b(in.FImm))
	case ir.OpMov:
		ci.cls = clsIntHalf
	case ir.OpAdd, ir.OpSub, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr,
		ir.OpNeg, ir.OpNot, ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		ci.cls = clsInt
	case ir.OpMul:
		ci.cls = clsInt2
	case ir.OpDiv, ir.OpRem:
		ci.cls = clsInt6
	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFNeg,
		ir.OpFEq, ir.OpFNe, ir.OpFLt, ir.OpFLe, ir.OpFGt, ir.OpFGe,
		ir.OpI2F, ir.OpF2I:
		ci.cls = clsFP
	case ir.OpFDiv:
		ci.cls = clsFP4
	case ir.OpLocalAddr:
		ci.cls = clsInt
		ci.aux = fn.Arrays[in.Sym].Size
	case ir.OpGlobalAddr:
		ci.cls = clsInt
		ci.aux = mod.GlobalBase(int(in.Sym))
	case ir.OpLoadI, ir.OpLoadF, ir.OpStoreI, ir.OpStoreF:
		ci.cls = clsMem
	case ir.OpBr:
		ci.cls = clsBranch
		ci.a = cf.blockStart[in.A]
	case ir.OpCBr:
		ci.cls = clsBranch
		ci.b = cf.blockStart[in.B]
		ci.c = cf.blockStart[in.C]
	case ir.OpRet, ir.OpCall:
		ci.cls = clsCall
	case ir.OpBuiltin:
		bi := ir.Builtin(ir.BuiltinID(in.Sym))
		ci.imm = int64(bi.BaseCycles)
		ci.aux = int64(bi.FPWork)
		ci.sync = isSyncOp(in)
	case ir.OpSpawn, ir.OpSetConfig, ir.OpDetermineConf:
		ci.sync = true
	}
	return ci
}

// Compiled programs are cached per module so a campaign that simulates the
// same module thousands of times pays the lowering cost once. The cache is
// bounded (FIFO) rather than process-global-unbounded so a long-running
// astro-serve does not pin every module it ever compiled (the same concern
// that keeps campaign.Job module hashes per-job).
const progCacheCap = 64

var progCache struct {
	mu    sync.Mutex
	m     map[*ir.Module]*Program
	order []*ir.Module
}

// CompiledProgram returns the cached lowering of mod, compiling on miss.
// The cache is keyed by module pointer: the in-process pool shares one
// module per benchmark across its cells, and a worker decodes each module
// it leases once (campaign's module memo, keyed by the module's bytes), so
// both compile a module once and reuse it, per-core cost variants
// included, for every later cell of that module.
func CompiledProgram(mod *ir.Module) *Program {
	progCache.mu.Lock()
	if p, ok := progCache.m[mod]; ok {
		progCache.mu.Unlock()
		mCompileHit.Inc()
		return p
	}
	progCache.mu.Unlock()

	p := CompileModule(mod)

	progCache.mu.Lock()
	defer progCache.mu.Unlock()
	if progCache.m == nil {
		progCache.m = map[*ir.Module]*Program{}
	}
	if cached, ok := progCache.m[mod]; ok {
		return cached // raced with another machine; keep one copy
	}
	if len(progCache.order) >= progCacheCap {
		evict := progCache.order[0]
		progCache.order = progCache.order[1:]
		delete(progCache.m, evict)
	}
	progCache.m[mod] = p
	progCache.order = append(progCache.order, p.mod)
	mCompiles.Inc()
	mSuperops.Add(countSuperops(p))
	return p
}
