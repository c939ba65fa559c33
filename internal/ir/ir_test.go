package ir

import (
	"math/rand"
	"strings"
	"testing"
)

func TestOpcodeTableComplete(t *testing.T) {
	for op := Opcode(0); op < numOpcodes; op++ {
		if opTable[op].name == "" {
			t.Errorf("opcode %d has no table entry", op)
		}
	}
}

func TestOpcodeClasses(t *testing.T) {
	cases := []struct {
		op   Opcode
		want Class
	}{
		{OpAdd, ClassIntALU},
		{OpFMul, ClassFPALU},
		{OpLoadI, ClassMem},
		{OpStoreF, ClassMem},
		{OpBr, ClassCtrl},
		{OpCBr, ClassCtrl},
		{OpRet, ClassCtrl},
		{OpCall, ClassCall},
		{OpSpawn, ClassCall},
		{OpBuiltin, ClassLib},
		{OpLogPhase, ClassInstrum},
		{OpSetConfig, ClassInstrum},
		{OpConstI, ClassOther},
		{OpLocalAddr, ClassMem},
		{OpGlobalAddr, ClassMem},
	}
	for _, c := range cases {
		if got := c.op.Class(); got != c.want {
			t.Errorf("%s: class %v, want %v", c.op.Name(), got, c.want)
		}
	}
}

func TestIsTerminator(t *testing.T) {
	for op := Opcode(0); op < numOpcodes; op++ {
		want := op == OpBr || op == OpCBr || op == OpRet
		if got := op.IsTerminator(); got != want {
			t.Errorf("%s: IsTerminator=%v, want %v", op.Name(), got, want)
		}
	}
}

func TestBuiltinTraitsMutuallyConsistent(t *testing.T) {
	for id := BuiltinID(0); id < NumBuiltins; id++ {
		bi := Builtin(id)
		if bi.Name == "" {
			t.Fatalf("builtin %d has no name", id)
		}
		if bi.IsSleep && !bi.Blocking {
			t.Errorf("%s: sleep builtins must block", bi.Name)
		}
		if bi.IsBarrier && !bi.Blocking {
			t.Errorf("%s: barrier builtins must block", bi.Name)
		}
		if bi.BaseCycles <= 0 {
			t.Errorf("%s: BaseCycles must be positive", bi.Name)
		}
		got, ok := BuiltinByName(bi.Name)
		if !ok || got != id {
			t.Errorf("BuiltinByName(%q) = %v,%v, want %v", bi.Name, got, ok, id)
		}
	}
	if _, ok := BuiltinByName("no_such_builtin"); ok {
		t.Error("unknown builtin resolved")
	}
}

func TestBuiltinBlockingTraits(t *testing.T) {
	blocking := []BuiltinID{BReadUserData, BReadInt, BSleepMs, BLock, BBarrierWait, BJoin, BNetRecv}
	for _, id := range blocking {
		if !Builtin(id).Blocking {
			t.Errorf("%s should be blocking", Builtin(id).Name)
		}
	}
	nonBlocking := []BuiltinID{BUnlock, BTid, BSqrt, BRandInt, BBarrierInit}
	for _, id := range nonBlocking {
		if Builtin(id).Blocking {
			t.Errorf("%s should not be blocking", Builtin(id).Name)
		}
	}
}

// buildLoopFunc builds: entry -> header -> (body -> header | exit), i.e. a
// simple counted loop summing 0..n-1.
func buildLoopFunc(m *Module) *Function {
	b := NewBuilder(m, "sumloop", []Type{TInt}, TInt)
	header := b.NewBlock()
	body := b.NewBlock()
	exit := b.NewBlock()

	sum := b.ConstI(0)
	i := b.ConstI(0)
	b.Br(header)

	b.SetBlock(header)
	cond := b.Bin(OpLt, TInt, i, 0) // i < n (param reg 0)
	b.CBr(cond, body, exit)

	b.SetBlock(body)
	sum2 := b.Bin(OpAdd, TInt, sum, i)
	b.Emit(Instr{Op: OpMov, Dst: sum, A: sum2, B: NoReg, C: NoReg, Sym: -1})
	one := b.ConstI(1)
	i2 := b.Bin(OpAdd, TInt, i, one)
	b.Emit(Instr{Op: OpMov, Dst: i, A: i2, B: NoReg, C: NoReg, Sym: -1})
	b.Br(header)

	b.SetBlock(exit)
	b.Ret(sum)
	return b.F
}

func TestBuilderProducesVerifiableModule(t *testing.T) {
	m := NewModule("t")
	buildLoopFunc(m)
	if err := Verify(m); err != nil {
		t.Fatalf("Verify: %v\n%s", err, Disassemble(m))
	}
}

func TestFunctionAccounting(t *testing.T) {
	m := NewModule("t")
	f := buildLoopFunc(m)
	if n := f.NumInstrs(); n != 12 {
		t.Errorf("NumInstrs = %d, want 12\n%s", n, Disassemble(m))
	}
	if m.NumInstrs() != f.NumInstrs() {
		t.Errorf("module/function instruction counts disagree")
	}
	b := NewBuilder(m, "witharrays", nil, TVoid)
	b.NewArray("a", 10, TInt)
	b.NewArray("b", 32, TFloat)
	b.Ret(NoReg)
	if c := b.F.FrameCells(); c != 42 {
		t.Errorf("FrameCells = %d, want 42", c)
	}
}

func TestGlobalLayout(t *testing.T) {
	m := NewModule("t")
	m.Globals = []GlobalDecl{
		{Name: "a", Size: 1, Elem: TInt},
		{Name: "b", Size: 100, Elem: TFloat},
		{Name: "c", Size: 7, Elem: TInt},
	}
	if got := m.GlobalBase(0); got != 0 {
		t.Errorf("GlobalBase(0) = %d", got)
	}
	if got := m.GlobalBase(1); got != 1 {
		t.Errorf("GlobalBase(1) = %d", got)
	}
	if got := m.GlobalBase(2); got != 101 {
		t.Errorf("GlobalBase(2) = %d", got)
	}
	if got := m.GlobalCells(); got != 108 {
		t.Errorf("GlobalCells = %d", got)
	}
}

func TestFuncByName(t *testing.T) {
	m := NewModule("t")
	buildLoopFunc(m)
	if f := m.FuncByName("sumloop"); f == nil || f.Name != "sumloop" {
		t.Fatalf("FuncByName failed: %v", f)
	}
	if f := m.FuncByName("nope"); f != nil {
		t.Fatalf("FuncByName(nope) = %v, want nil", f)
	}
}

func TestDisassembleMentionsKeyParts(t *testing.T) {
	m := NewModule("demo")
	m.Globals = append(m.Globals, GlobalDecl{Name: "g", Size: 4, Elem: TInt})
	m.NumMutex = 2
	b := NewBuilder(m, "main", []Type{TInt}, TVoid)
	arr := b.NewArray("buf", 16, TFloat)
	addr := b.NewReg(TInt)
	b.Emit(Instr{Op: OpLocalAddr, Dst: addr, A: NoReg, B: NoReg, C: NoReg, Sym: arr, Imm: 3})
	v := b.ConstF(1.5)
	b.Emit(Instr{Op: OpStoreF, Dst: NoReg, A: addr, B: v, C: NoReg, Sym: -1})
	b.CallB(BPrintInt, b.ConstI(7))
	b.Ret(NoReg)
	if err := Verify(m); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	text := Disassemble(m)
	for _, want := range []string{"module demo", "global @0 g", "mutexes 2", "func main", "array %0 buf", "laddr", "storef", "print_int", "ret"} {
		if !strings.Contains(text, want) {
			t.Errorf("disassembly missing %q:\n%s", want, text)
		}
	}
}

func TestClassCounts(t *testing.T) {
	m := NewModule("t")
	b := NewBuilder(m, "mix", nil, TVoid)
	x := b.ConstI(1)
	y := b.ConstI(2)
	b.Bin(OpAdd, TInt, x, y)      // int alu
	fx := b.ConstF(1.0)           // other
	b.Bin(OpFMul, TFloat, fx, fx) // fp alu
	b.CallB(BLock, x)             // lib, lock
	b.CallB(BUnlock, x)           // lib, lock
	b.CallB(BPrintInt, x)         // lib, io
	b.CallB(BSqrt, fx)            // lib, fp-work 4
	b.CallB(BBarrierWait, x)      // lib, barrier
	b.CallB(BNetRecv)             // lib, net
	b.CallB(BSleepMs, x)          // lib, sleep
	b.Ret(NoReg)
	if err := Verify(m); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	c := CountFunc(b.F)
	if c.IntALU != 1 || c.FPALU != 1 {
		t.Errorf("alu counts: %+v", c)
	}
	if c.LockOps != 2 || c.IOCalls != 1 || c.Barriers != 1 || c.NetCalls != 1 || c.SleepOps != 1 {
		t.Errorf("trait counts: %+v", c)
	}
	if c.Lib != 7 {
		t.Errorf("lib count = %d, want 7", c.Lib)
	}
	if c.LibFPWork != 4 {
		t.Errorf("LibFPWork = %d, want 4", c.LibFPWork)
	}
	if c.Ctrl != 1 {
		t.Errorf("ctrl count = %d, want 1", c.Ctrl)
	}
	mc := CountModule(m)
	if mc.Total != c.Total {
		t.Errorf("module count %d != func count %d", mc.Total, c.Total)
	}
}

// TestBuilderSlabKeepsBlocksApart emits into blocks in a random order,
// revisiting old ones and crossing slab boundaries, and checks every block
// holds exactly what was emitted into it. Appending to a finished block
// afterwards, as an optimisation pass might, must not touch another block.
func TestBuilderSlabKeepsBlocksApart(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewModule("slab")
	var b Builder
	b.M = m
	type ref struct {
		blk  *Block
		want []int64
	}
	var refs []*ref
	imm := int64(0)
	for f := 0; f < 3; f++ {
		b.F = &Function{Name: "f"}
		for step := 0; step < 2000; step++ {
			var r *ref
			switch {
			case len(refs) == 0 || rng.Intn(8) == 0:
				r = &ref{blk: b.NewBlock()}
				refs = append(refs, r)
			case rng.Intn(4) == 0:
				r = refs[rng.Intn(len(refs))]
			default:
				r = refs[len(refs)-1]
			}
			b.SetBlock(r.blk)
			for k := rng.Intn(3*minSlab/2) / (1 + rng.Intn(8)); k >= 0; k-- {
				imm++
				b.Emit(Instr{Op: OpConstI, Imm: imm})
				r.want = append(r.want, imm)
			}
		}
	}
	check := func(when string) {
		t.Helper()
		for i, r := range refs {
			if len(r.blk.Instrs) != len(r.want) {
				t.Fatalf("%s: block %d holds %d instructions, want %d", when, i, len(r.blk.Instrs), len(r.want))
			}
			for j, in := range r.blk.Instrs {
				if in.Imm != r.want[j] {
					t.Fatalf("%s: block %d instruction %d is %d, want %d", when, i, j, in.Imm, r.want[j])
				}
			}
		}
	}
	check("after building")
	for _, r := range refs {
		imm++
		r.blk.Instrs = append(r.blk.Instrs, Instr{Op: OpConstI, Imm: imm})
		r.want = append(r.want, imm)
	}
	check("after appending to every block")
}
