package ir

// Builder provides a convenient way to construct functions, used by the
// front end's lowering phase and by tests that need hand-built CFGs. A
// front end may point one Builder at each function of a module in turn
// (set F, then SetBlock), so the functions share its instruction slabs.
type Builder struct {
	M   *Module
	F   *Function
	cur *Block

	// Emit fills blocks from a shared slab of instructions; see Emit.
	tail *Block  // the block that owns the slab's free space
	free []Instr // zero length; its capacity is the slab's free space
}

// NewModule creates an empty module.
func NewModule(name string) *Module {
	return &Module{Name: name, FuncIndex: map[string]int{}}
}

// NewBuilder starts building a new function in m. The parameter registers
// are allocated first, matching the calling convention.
func NewBuilder(m *Module, name string, params []Type, ret Type) *Builder {
	f := &Function{Name: name, Params: append([]Type(nil), params...), Ret: ret}
	f.Regs = append(f.Regs, params...)
	m.FuncIndex[name] = len(m.Funcs)
	m.Funcs = append(m.Funcs, f)
	b := &Builder{M: m, F: f}
	b.cur = b.NewBlock()
	return b
}

// NewReg allocates a fresh register of type t.
func (b *Builder) NewReg(t Type) int32 {
	b.F.Regs = append(b.F.Regs, t)
	return int32(len(b.F.Regs) - 1)
}

// NewArray declares a frame array and returns its index.
func (b *Builder) NewArray(name string, size int64, elem Type) int32 {
	b.F.Arrays = append(b.F.Arrays, ArrayDecl{Name: name, Size: size, Elem: elem})
	return int32(len(b.F.Arrays) - 1)
}

// NewBlock appends a new empty block and returns it (without switching to it).
func (b *Builder) NewBlock() *Block {
	blk := &Block{ID: len(b.F.Blocks)}
	b.F.Blocks = append(b.F.Blocks, blk)
	return blk
}

// SetBlock switches the insertion point.
func (b *Builder) SetBlock(blk *Block) { b.cur = blk }

// Block returns the current insertion block.
func (b *Builder) Block() *Block { return b.cur }

// minSlab is the instruction capacity of a new slab (8 KiB); a block that
// outgrows its slab moves to a fresh one of at least twice its length.
const minSlab = 128

// Emit appends an instruction to the current block.
//
// A front end fills each block in one run, so blocks take their
// instructions from a shared slab instead of growing one slice each: an
// empty block that Emit starts filling owns the slab's free space and
// grows in place. Emitting into another block caps the owner at its
// length, so a later append to it copies rather than overwriting the
// instructions after it.
func (b *Builder) Emit(in Instr) {
	blk := b.cur
	if blk != b.tail {
		if t := b.tail; t != nil {
			n := len(t.Instrs)
			b.free, t.Instrs = t.Instrs[n:n], t.Instrs[:n:n]
			b.tail = nil
		}
		if len(blk.Instrs) == 0 {
			blk.Instrs, b.tail = b.free, blk
		}
	}
	if blk == b.tail && len(blk.Instrs) == cap(blk.Instrs) {
		slab := make([]Instr, 0, max(minSlab, 2*len(blk.Instrs)))
		blk.Instrs = append(slab, blk.Instrs...)
	}
	blk.Instrs = append(blk.Instrs, in)
}

// ConstI emits an integer constant into a fresh register.
func (b *Builder) ConstI(v int64) int32 {
	r := b.NewReg(TInt)
	b.Emit(Instr{Op: OpConstI, Dst: r, A: NoReg, B: NoReg, C: NoReg, Sym: -1, Imm: v})
	return r
}

// ConstF emits a float constant into a fresh register.
func (b *Builder) ConstF(v float64) int32 {
	r := b.NewReg(TFloat)
	b.Emit(Instr{Op: OpConstF, Dst: r, A: NoReg, B: NoReg, C: NoReg, Sym: -1, FImm: v})
	return r
}

// Bin emits a two-operand instruction producing a fresh register of type t.
func (b *Builder) Bin(op Opcode, t Type, a, c int32) int32 {
	r := b.NewReg(t)
	b.Emit(Instr{Op: op, Dst: r, A: a, B: c, C: NoReg, Sym: -1})
	return r
}

// Un emits a one-operand instruction producing a fresh register of type t.
func (b *Builder) Un(op Opcode, t Type, a int32) int32 {
	r := b.NewReg(t)
	b.Emit(Instr{Op: op, Dst: r, A: a, B: NoReg, C: NoReg, Sym: -1})
	return r
}

// Br emits an unconditional branch to target.
func (b *Builder) Br(target *Block) {
	b.Emit(Instr{Op: OpBr, Dst: NoReg, A: int32(target.ID), B: NoReg, C: NoReg, Sym: -1})
}

// CBr emits a conditional branch.
func (b *Builder) CBr(cond int32, then, els *Block) {
	b.Emit(Instr{Op: OpCBr, Dst: NoReg, A: cond, B: int32(then.ID), C: int32(els.ID), Sym: -1})
}

// Ret emits a return; pass NoReg for void.
func (b *Builder) Ret(v int32) {
	b.Emit(Instr{Op: OpRet, Dst: NoReg, A: v, B: NoReg, C: NoReg, Sym: -1})
}

// CallB emits a builtin call; Dst is NoReg for void builtins or to discard.
func (b *Builder) CallB(id BuiltinID, args ...int32) int32 {
	bi := Builtin(id)
	dst := NoReg
	if bi.Ret != TVoid {
		dst = b.NewReg(bi.Ret)
	}
	b.Emit(Instr{Op: OpBuiltin, Dst: dst, A: NoReg, B: NoReg, C: NoReg, Sym: int32(id), Args: args})
	return dst
}

// Call emits a user-function call by function index.
func (b *Builder) Call(fnIdx int, dst int32, args ...int32) {
	b.Emit(Instr{Op: OpCall, Dst: dst, A: NoReg, B: NoReg, C: NoReg, Sym: int32(fnIdx), Args: args})
}

// Spawn emits a thread spawn of function fnIdx.
func (b *Builder) Spawn(fnIdx int, args ...int32) {
	b.Emit(Instr{Op: OpSpawn, Dst: NoReg, A: NoReg, B: NoReg, C: NoReg, Sym: int32(fnIdx), Args: args})
}
