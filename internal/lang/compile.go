package lang

import (
	"fmt"

	"astro/internal/ir"
)

// Compile parses, type-checks and lowers an astc source string into an IR
// module named name. The resulting module always passes ir.Verify.
func Compile(name, src string) (*ir.Module, error) {
	file, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return CompileFile(name, file)
}

// MustCompile is Compile that panics on error, for registering embedded
// benchmark sources whose validity is covered by tests.
func MustCompile(name, src string) *ir.Module {
	m, err := Compile(name, src)
	if err != nil {
		panic(fmt.Sprintf("lang: compiling %s: %v", name, err))
	}
	return m
}

// CompileFile lowers a parsed file.
func CompileFile(name string, file *File) (*ir.Module, error) {
	mod := ir.NewModule(name)
	c := &compiler{
		mod:      mod,
		b:        ir.Builder{M: mod},
		funcs:    map[string]*FuncDecl{},
		globals:  map[string]globalSym{},
		mutexes:  map[string]mutexSym{},
		barriers: map[string]int{},
	}
	if err := c.collect(file); err != nil {
		return nil, err
	}
	for _, fd := range file.Funcs {
		if err := c.lowerFunc(fd); err != nil {
			return nil, err
		}
	}
	if err := ir.Verify(c.mod); err != nil {
		return nil, fmt.Errorf("lang: internal error, lowered module invalid: %w", err)
	}
	return c.mod, nil
}

type globalSym struct {
	idx   int // index into mod.Globals
	ty    TypeName
	array bool
}

type mutexSym struct {
	base  int
	count int64
}

type compiler struct {
	mod      *ir.Module
	b        ir.Builder // re-pointed at each function, so they share its slab
	funcs    map[string]*FuncDecl
	globals  map[string]globalSym
	mutexes  map[string]mutexSym
	barriers map[string]int
}

func tyToIR(t TypeName) ir.Type {
	switch t {
	case TyInt, TyBool:
		return ir.TInt
	case TyFloat:
		return ir.TFloat
	}
	return ir.TVoid
}

func irToTy(t ir.Type) TypeName {
	switch t {
	case ir.TInt:
		return TyInt
	case ir.TFloat:
		return TyFloat
	}
	return TyVoid
}

// collect registers all module-level symbols and function signatures so that
// bodies can reference them in any order.
func (c *compiler) collect(file *File) error {
	taken := map[string]int{} // name -> line, across all namespaces
	claim := func(name string, line int) error {
		if prev, ok := taken[name]; ok {
			return errf(line, 1, "%q already declared at line %d", name, prev)
		}
		taken[name] = line
		return nil
	}
	for _, g := range file.Globals {
		if err := claim(g.Name, g.Line); err != nil {
			return err
		}
		if g.Init != nil {
			return errf(g.Line, 1, "global %q: initializers are not allowed at module scope; assign in main", g.Name)
		}
		size := g.ArraySize
		isArray := size >= 0
		if !isArray {
			size = 1
		}
		c.globals[g.Name] = globalSym{idx: len(c.mod.Globals), ty: g.Type, array: isArray}
		c.mod.Globals = append(c.mod.Globals, ir.GlobalDecl{Name: g.Name, Size: size, Elem: tyToIR(g.Type)})
	}
	for _, mx := range file.Mutexes {
		if err := claim(mx.Name, mx.Line); err != nil {
			return err
		}
		c.mutexes[mx.Name] = mutexSym{base: c.mod.NumMutex, count: mx.Count}
		c.mod.NumMutex += int(mx.Count)
	}
	for _, br := range file.Barriers {
		if err := claim(br.Name, br.Line); err != nil {
			return err
		}
		c.barriers[br.Name] = c.mod.NumBarrier
		c.mod.NumBarrier++
	}
	for _, fd := range file.Funcs {
		if err := claim(fd.Name, fd.Line); err != nil {
			return err
		}
		if _, isBuiltin := ir.BuiltinByName(fd.Name); isBuiltin {
			return errf(fd.Line, 1, "function %q shadows a builtin", fd.Name)
		}
		c.funcs[fd.Name] = fd
		// Pre-create signatures so calls can be lowered before bodies.
		params := make([]ir.Type, len(fd.Params))
		for i, p := range fd.Params {
			params[i] = tyToIR(p.Type)
		}
		f := &ir.Function{
			Name:    fd.Name,
			Params:  params,
			Ret:     tyToIR(fd.Ret),
			Regs:    append([]ir.Type(nil), params...),
			SrcLine: fd.Line,
		}
		c.mod.FuncIndex[fd.Name] = len(c.mod.Funcs)
		c.mod.Funcs = append(c.mod.Funcs, f)
	}
	return nil
}

// localSym is a function-scope binding.
type localSym struct {
	isArray bool
	reg     int32 // scalar register
	arr     int32 // frame array index
	ty      TypeName
}

type loopCtx struct {
	brk  *ir.Block
	cont *ir.Block
}

type funcLower struct {
	c      *compiler
	b      *ir.Builder
	fd     *FuncDecl
	scopes []map[string]localSym
	loops  []loopCtx
}

func (c *compiler) lowerFunc(fd *FuncDecl) error {
	idx := c.mod.FuncIndex[fd.Name]
	f := c.mod.Funcs[idx]
	// Point the builder at the pre-created function (signatures were
	// registered in collect so forward references resolve).
	bb := &c.b
	bb.F = f
	entry := &ir.Block{ID: 0}
	f.Blocks = append(f.Blocks, entry)
	bb.SetBlock(entry)

	fl := &funcLower{c: c, b: bb, fd: fd}
	fl.push()
	for i, p := range fd.Params {
		if err := fl.declare(p.Name, localSym{reg: int32(i), ty: p.Type}, fd.Line); err != nil {
			return err
		}
	}
	if err := fl.lowerBlock(fd.Body); err != nil {
		return err
	}
	fl.pop()

	// Patch any block that does not end in a terminator with a default
	// return (falling off the end of a non-void function returns zero).
	for _, blk := range f.Blocks {
		t := blk.Terminator()
		if t != nil && t.Op.IsTerminator() {
			continue
		}
		bb.SetBlock(blk)
		switch f.Ret {
		case ir.TVoid:
			bb.Ret(ir.NoReg)
		case ir.TInt:
			bb.Ret(bb.ConstI(0))
		case ir.TFloat:
			bb.Ret(bb.ConstF(0))
		}
	}
	return nil
}

func (fl *funcLower) push() { fl.scopes = append(fl.scopes, map[string]localSym{}) }
func (fl *funcLower) pop()  { fl.scopes = fl.scopes[:len(fl.scopes)-1] }

func (fl *funcLower) declare(name string, s localSym, line int) error {
	top := fl.scopes[len(fl.scopes)-1]
	if _, ok := top[name]; ok {
		return errf(line, 1, "%q redeclared in this scope", name)
	}
	top[name] = s
	return nil
}

func (fl *funcLower) lookup(name string) (localSym, bool) {
	for i := len(fl.scopes) - 1; i >= 0; i-- {
		if s, ok := fl.scopes[i][name]; ok {
			return s, true
		}
	}
	return localSym{}, false
}

func (fl *funcLower) lowerBlock(b *BlockStmt) error {
	fl.push()
	defer fl.pop()
	for _, s := range b.Stmts {
		if err := fl.lowerStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (fl *funcLower) lowerStmt(s Stmt) error {
	switch s := s.(type) {
	case *BlockStmt:
		return fl.lowerBlock(s)
	case *VarStmt:
		return fl.lowerVar(s.Decl)
	case *AssignStmt:
		return fl.lowerAssign(s)
	case *IfStmt:
		return fl.lowerIf(s)
	case *WhileStmt:
		return fl.lowerWhile(s)
	case *ForStmt:
		return fl.lowerFor(s)
	case *ReturnStmt:
		return fl.lowerReturn(s)
	case *BreakStmt:
		if len(fl.loops) == 0 {
			return errf(s.Line, 1, "break outside loop")
		}
		fl.b.Br(fl.loops[len(fl.loops)-1].brk)
		fl.b.SetBlock(fl.b.NewBlock())
		return nil
	case *ContinueStmt:
		if len(fl.loops) == 0 {
			return errf(s.Line, 1, "continue outside loop")
		}
		fl.b.Br(fl.loops[len(fl.loops)-1].cont)
		fl.b.SetBlock(fl.b.NewBlock())
		return nil
	case *ExprStmt:
		call, ok := s.X.(*CallExpr)
		if !ok {
			return errf(s.Line, 1, "expression statement must be a call")
		}
		_, _, err := fl.lowerCall(call, true)
		return err
	case *SpawnStmt:
		return fl.lowerSpawn(s)
	}
	return fmt.Errorf("lang: unknown statement %T", s)
}

func (fl *funcLower) lowerVar(d *VarDecl) error {
	if d.ArraySize >= 0 {
		arr := fl.b.NewArray(d.Name, d.ArraySize, tyToIR(d.Type))
		return fl.declare(d.Name, localSym{isArray: true, arr: arr, ty: d.Type}, d.Line)
	}
	reg := fl.b.NewReg(tyToIR(d.Type))
	if d.Init != nil {
		v, ty, err := fl.lowerExpr(d.Init)
		if err != nil {
			return err
		}
		if tyToIR(ty) != tyToIR(d.Type) {
			return errf(d.Line, 1, "cannot initialize %s %q with %s value", d.Type, d.Name, ty)
		}
		fl.b.Emit(ir.Instr{Op: ir.OpMov, Dst: reg, A: v, B: ir.NoReg, C: ir.NoReg, Sym: -1})
	} else {
		switch tyToIR(d.Type) {
		case ir.TInt:
			fl.b.Emit(ir.Instr{Op: ir.OpConstI, Dst: reg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Sym: -1})
		case ir.TFloat:
			fl.b.Emit(ir.Instr{Op: ir.OpConstF, Dst: reg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Sym: -1})
		}
	}
	return fl.declare(d.Name, localSym{reg: reg, ty: d.Type}, d.Line)
}

func (fl *funcLower) lowerAssign(s *AssignStmt) error {
	v, vty, err := fl.lowerExpr(s.Value)
	if err != nil {
		return err
	}
	switch t := s.Target.(type) {
	case *Ident:
		if ls, ok := fl.lookup(t.Name); ok {
			if ls.isArray {
				return errf(t.Line, t.Col, "cannot assign to array %q", t.Name)
			}
			if tyToIR(ls.ty) != tyToIR(vty) {
				return errf(t.Line, t.Col, "cannot assign %s to %s %q", vty, ls.ty, t.Name)
			}
			fl.b.Emit(ir.Instr{Op: ir.OpMov, Dst: ls.reg, A: v, B: ir.NoReg, C: ir.NoReg, Sym: -1})
			return nil
		}
		if gs, ok := fl.c.globals[t.Name]; ok {
			if gs.array {
				return errf(t.Line, t.Col, "cannot assign to array %q", t.Name)
			}
			if tyToIR(gs.ty) != tyToIR(vty) {
				return errf(t.Line, t.Col, "cannot assign %s to %s %q", vty, gs.ty, t.Name)
			}
			addr := fl.b.NewReg(ir.TInt)
			fl.b.Emit(ir.Instr{Op: ir.OpGlobalAddr, Dst: addr, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Sym: int32(gs.idx)})
			fl.store(addr, v, gs.ty)
			return nil
		}
		return errf(t.Line, t.Col, "undefined variable %q", t.Name)
	case *IndexExpr:
		addr, ety, err := fl.lowerAddr(t)
		if err != nil {
			return err
		}
		if tyToIR(ety) != tyToIR(vty) {
			return errf(t.Line, t.Col, "cannot store %s into %s array %q", vty, ety, t.Name)
		}
		fl.store(addr, v, ety)
		return nil
	}
	return errf(s.Line, 1, "invalid assignment target")
}

func (fl *funcLower) store(addr, v int32, ty TypeName) {
	op := ir.OpStoreI
	if tyToIR(ty) == ir.TFloat {
		op = ir.OpStoreF
	}
	fl.b.Emit(ir.Instr{Op: op, Dst: ir.NoReg, A: addr, B: v, C: ir.NoReg, Sym: -1})
}

// lowerAddr computes the address of name[index]; works for local arrays,
// global arrays and mutex arrays (whose "element type" is int: the mutex id).
// Constant indices fold into the address instruction's immediate, matching
// the constant-GEP folding a production compiler performs.
func (fl *funcLower) lowerAddr(t *IndexExpr) (int32, TypeName, error) {
	idx := ir.NoReg
	imm := int64(0)
	if lit, ok := t.Index.(*IntLit); ok {
		imm = lit.Value
	} else {
		r, ity, err := fl.lowerExpr(t.Index)
		if err != nil {
			return 0, TyVoid, err
		}
		if ity != TyInt {
			return 0, TyVoid, errf(t.Line, t.Col, "array index must be int, got %s", ity)
		}
		idx = r
	}
	if ls, ok := fl.lookup(t.Name); ok {
		if !ls.isArray {
			return 0, TyVoid, errf(t.Line, t.Col, "%q is not an array", t.Name)
		}
		addr := fl.b.NewReg(ir.TInt)
		fl.b.Emit(ir.Instr{Op: ir.OpLocalAddr, Dst: addr, A: idx, B: ir.NoReg, C: ir.NoReg, Sym: ls.arr, Imm: imm})
		return addr, ls.ty, nil
	}
	if gs, ok := fl.c.globals[t.Name]; ok {
		if !gs.array {
			return 0, TyVoid, errf(t.Line, t.Col, "%q is not an array", t.Name)
		}
		addr := fl.b.NewReg(ir.TInt)
		fl.b.Emit(ir.Instr{Op: ir.OpGlobalAddr, Dst: addr, A: idx, B: ir.NoReg, C: ir.NoReg, Sym: int32(gs.idx), Imm: imm})
		return addr, gs.ty, nil
	}
	return 0, TyVoid, errf(t.Line, t.Col, "undefined array %q", t.Name)
}

func (fl *funcLower) lowerIf(s *IfStmt) error {
	cond, cty, err := fl.lowerExpr(s.Cond)
	if err != nil {
		return err
	}
	if cty != TyBool {
		return errf(s.Line, 1, "if condition must be bool, got %s", cty)
	}
	then := fl.b.NewBlock()
	end := fl.b.NewBlock()
	els := end
	if s.Else != nil {
		els = fl.b.NewBlock()
	}
	fl.b.CBr(cond, then, els)
	fl.b.SetBlock(then)
	if err := fl.lowerBlock(s.Then); err != nil {
		return err
	}
	fl.brIfOpen(end)
	if s.Else != nil {
		fl.b.SetBlock(els)
		if err := fl.lowerBlock(s.Else); err != nil {
			return err
		}
		fl.brIfOpen(end)
	}
	fl.b.SetBlock(end)
	return nil
}

// brIfOpen emits a branch to target if the current block lacks a terminator.
func (fl *funcLower) brIfOpen(target *ir.Block) {
	blk := fl.b.Block()
	if t := blk.Terminator(); t != nil && t.Op.IsTerminator() {
		return
	}
	fl.b.Br(target)
}

func (fl *funcLower) lowerWhile(s *WhileStmt) error {
	header := fl.b.NewBlock()
	body := fl.b.NewBlock()
	end := fl.b.NewBlock()
	fl.b.Br(header)
	fl.b.SetBlock(header)
	cond, cty, err := fl.lowerExpr(s.Cond)
	if err != nil {
		return err
	}
	if cty != TyBool {
		return errf(s.Line, 1, "while condition must be bool, got %s", cty)
	}
	fl.b.CBr(cond, body, end)
	fl.b.SetBlock(body)
	fl.loops = append(fl.loops, loopCtx{brk: end, cont: header})
	err = fl.lowerBlock(s.Body)
	fl.loops = fl.loops[:len(fl.loops)-1]
	if err != nil {
		return err
	}
	fl.brIfOpen(header)
	fl.b.SetBlock(end)
	return nil
}

func (fl *funcLower) lowerFor(s *ForStmt) error {
	if s.Init != nil {
		if err := fl.lowerAssign(s.Init); err != nil {
			return err
		}
	}
	header := fl.b.NewBlock()
	body := fl.b.NewBlock()
	post := fl.b.NewBlock()
	end := fl.b.NewBlock()
	fl.b.Br(header)
	fl.b.SetBlock(header)
	if s.Cond != nil {
		cond, cty, err := fl.lowerExpr(s.Cond)
		if err != nil {
			return err
		}
		if cty != TyBool {
			return errf(s.Line, 1, "for condition must be bool, got %s", cty)
		}
		fl.b.CBr(cond, body, end)
	} else {
		fl.b.Br(body)
	}
	fl.b.SetBlock(body)
	fl.loops = append(fl.loops, loopCtx{brk: end, cont: post})
	err := fl.lowerBlock(s.Body)
	fl.loops = fl.loops[:len(fl.loops)-1]
	if err != nil {
		return err
	}
	fl.brIfOpen(post)
	fl.b.SetBlock(post)
	if s.Post != nil {
		if err := fl.lowerAssign(s.Post); err != nil {
			return err
		}
	}
	fl.b.Br(header)
	fl.b.SetBlock(end)
	return nil
}

func (fl *funcLower) lowerReturn(s *ReturnStmt) error {
	want := fl.fd.Ret
	if s.Value == nil {
		if want != TyVoid {
			return errf(s.Line, 1, "missing return value in %s function", want)
		}
		fl.b.Ret(ir.NoReg)
	} else {
		if want == TyVoid {
			return errf(s.Line, 1, "void function cannot return a value")
		}
		v, ty, err := fl.lowerExpr(s.Value)
		if err != nil {
			return err
		}
		if tyToIR(ty) != tyToIR(want) {
			return errf(s.Line, 1, "cannot return %s from %s function", ty, want)
		}
		fl.b.Ret(v)
	}
	fl.b.SetBlock(fl.b.NewBlock())
	return nil
}

func (fl *funcLower) lowerSpawn(s *SpawnStmt) error {
	fd, ok := fl.c.funcs[s.Call.Name]
	if !ok {
		return errf(s.Line, 1, "spawn of undefined function %q", s.Call.Name)
	}
	if fd.Ret != TyVoid {
		return errf(s.Line, 1, "spawned function %q must return void", s.Call.Name)
	}
	args, err := fl.lowerArgs(s.Call, fd.Params)
	if err != nil {
		return err
	}
	fl.b.Spawn(fl.c.mod.FuncIndex[s.Call.Name], args...)
	return nil
}

func (fl *funcLower) lowerArgs(call *CallExpr, params []Param) ([]int32, error) {
	if len(call.Args) != len(params) {
		return nil, errf(call.Line, call.Col, "%q expects %d arguments, got %d", call.Name, len(params), len(call.Args))
	}
	args := make([]int32, len(call.Args))
	for i, a := range call.Args {
		v, ty, err := fl.lowerExpr(a)
		if err != nil {
			return nil, err
		}
		if tyToIR(ty) != tyToIR(params[i].Type) {
			return nil, errf(call.Line, call.Col, "%q argument %d: cannot use %s as %s", call.Name, i+1, ty, params[i].Type)
		}
		args[i] = v
	}
	return args, nil
}

// lowerCall lowers a call to a user function or builtin. asStmt permits
// void results.
func (fl *funcLower) lowerCall(call *CallExpr, asStmt bool) (int32, TypeName, error) {
	if fd, ok := fl.c.funcs[call.Name]; ok {
		args, err := fl.lowerArgs(call, fd.Params)
		if err != nil {
			return 0, TyVoid, err
		}
		dst := ir.NoReg
		if fd.Ret != TyVoid {
			dst = fl.b.NewReg(tyToIR(fd.Ret))
		} else if !asStmt {
			return 0, TyVoid, errf(call.Line, call.Col, "void function %q used as value", call.Name)
		}
		fl.b.Call(fl.c.mod.FuncIndex[call.Name], dst, args...)
		return dst, fd.Ret, nil
	}
	id, ok := ir.BuiltinByName(call.Name)
	if !ok {
		return 0, TyVoid, errf(call.Line, call.Col, "undefined function %q", call.Name)
	}
	bi := ir.Builtin(id)
	if len(call.Args) != len(bi.Params) {
		return 0, TyVoid, errf(call.Line, call.Col, "%q expects %d arguments, got %d", call.Name, len(bi.Params), len(call.Args))
	}
	args := make([]int32, len(call.Args))
	for i, a := range call.Args {
		v, ty, err := fl.lowerExpr(a)
		if err != nil {
			return 0, TyVoid, err
		}
		if tyToIR(ty) != bi.Params[i] {
			return 0, TyVoid, errf(call.Line, call.Col, "%q argument %d: cannot use %s as %v", call.Name, i+1, ty, bi.Params[i])
		}
		args[i] = v
	}
	if bi.Ret == ir.TVoid && !asStmt {
		return 0, TyVoid, errf(call.Line, call.Col, "void builtin %q used as value", call.Name)
	}
	dst := fl.b.CallB(id, args...)
	return dst, irToTy(bi.Ret), nil
}

func (fl *funcLower) lowerExpr(e Expr) (int32, TypeName, error) {
	switch e := e.(type) {
	case *IntLit:
		r := fl.b.ConstI(e.Value)
		return r, TyInt, nil
	case *FloatLit:
		r := fl.b.ConstF(e.Value)
		return r, TyFloat, nil
	case *BoolLit:
		v := int64(0)
		if e.Value {
			v = 1
		}
		r := fl.b.ConstI(v)
		return r, TyBool, nil
	case *Ident:
		return fl.lowerIdent(e)
	case *IndexExpr:
		return fl.lowerIndex(e)
	case *CallExpr:
		return fl.lowerCall(e, false)
	case *CastExpr:
		return fl.lowerCast(e)
	case *UnaryExpr:
		return fl.lowerUnary(e)
	case *BinaryExpr:
		return fl.lowerBinary(e)
	}
	return 0, TyVoid, fmt.Errorf("lang: unknown expression %T", e)
}

func (fl *funcLower) lowerIdent(e *Ident) (int32, TypeName, error) {
	if ls, ok := fl.lookup(e.Name); ok {
		if ls.isArray {
			return 0, TyVoid, errf(e.Line, e.Col, "array %q used as value", e.Name)
		}
		return ls.reg, ls.ty, nil
	}
	if gs, ok := fl.c.globals[e.Name]; ok {
		if gs.array {
			return 0, TyVoid, errf(e.Line, e.Col, "array %q used as value", e.Name)
		}
		addr := fl.b.NewReg(ir.TInt)
		fl.b.Emit(ir.Instr{Op: ir.OpGlobalAddr, Dst: addr, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Sym: int32(gs.idx)})
		return fl.load(addr, gs.ty), gs.ty, nil
	}
	if ms, ok := fl.c.mutexes[e.Name]; ok {
		return fl.b.ConstI(int64(ms.base)), TyInt, nil
	}
	if bidx, ok := fl.c.barriers[e.Name]; ok {
		return fl.b.ConstI(int64(bidx)), TyInt, nil
	}
	return 0, TyVoid, errf(e.Line, e.Col, "undefined variable %q", e.Name)
}

func (fl *funcLower) load(addr int32, ty TypeName) int32 {
	if tyToIR(ty) == ir.TFloat {
		r := fl.b.NewReg(ir.TFloat)
		fl.b.Emit(ir.Instr{Op: ir.OpLoadF, Dst: r, A: addr, B: ir.NoReg, C: ir.NoReg, Sym: -1})
		return r
	}
	r := fl.b.NewReg(ir.TInt)
	fl.b.Emit(ir.Instr{Op: ir.OpLoadI, Dst: r, A: addr, B: ir.NoReg, C: ir.NoReg, Sym: -1})
	return r
}

func (fl *funcLower) lowerIndex(e *IndexExpr) (int32, TypeName, error) {
	// Mutex arrays index to a mutex id (an int), without memory traffic.
	if ms, ok := fl.c.mutexes[e.Name]; ok {
		idx, ity, err := fl.lowerExpr(e.Index)
		if err != nil {
			return 0, TyVoid, err
		}
		if ity != TyInt {
			return 0, TyVoid, errf(e.Line, e.Col, "mutex index must be int")
		}
		base := fl.b.ConstI(int64(ms.base))
		r := fl.b.Bin(ir.OpAdd, ir.TInt, base, idx)
		return r, TyInt, nil
	}
	addr, ety, err := fl.lowerAddr(e)
	if err != nil {
		return 0, TyVoid, err
	}
	return fl.load(addr, ety), ety, nil
}

func (fl *funcLower) lowerCast(e *CastExpr) (int32, TypeName, error) {
	v, ty, err := fl.lowerExpr(e.X)
	if err != nil {
		return 0, TyVoid, err
	}
	switch e.To {
	case TyInt:
		if tyToIR(ty) == ir.TFloat {
			return fl.b.Un(ir.OpF2I, ir.TInt, v), TyInt, nil
		}
		return v, TyInt, nil // int/bool reinterpreted
	case TyFloat:
		if tyToIR(ty) == ir.TInt {
			return fl.b.Un(ir.OpI2F, ir.TFloat, v), TyFloat, nil
		}
		return v, TyFloat, nil
	}
	return 0, TyVoid, errf(e.Line, e.Col, "invalid cast")
}

func (fl *funcLower) lowerUnary(e *UnaryExpr) (int32, TypeName, error) {
	v, ty, err := fl.lowerExpr(e.X)
	if err != nil {
		return 0, TyVoid, err
	}
	switch e.Op {
	case UNeg:
		switch ty {
		case TyInt:
			return fl.b.Un(ir.OpNeg, ir.TInt, v), TyInt, nil
		case TyFloat:
			return fl.b.Un(ir.OpFNeg, ir.TFloat, v), TyFloat, nil
		}
		return 0, TyVoid, errf(e.Line, e.Col, "cannot negate %s", ty)
	case UNot:
		if ty != TyBool {
			return 0, TyVoid, errf(e.Line, e.Col, "! requires bool, got %s", ty)
		}
		return fl.b.Un(ir.OpNot, ir.TInt, v), TyBool, nil
	}
	return 0, TyVoid, errf(e.Line, e.Col, "unknown unary operator")
}

var intBinOps = map[BinOp]ir.Opcode{
	BAdd: ir.OpAdd, BSub: ir.OpSub, BMul: ir.OpMul, BDiv: ir.OpDiv, BRem: ir.OpRem,
	BEq: ir.OpEq, BNe: ir.OpNe, BLt: ir.OpLt, BLe: ir.OpLe, BGt: ir.OpGt, BGe: ir.OpGe,
}

var floatBinOps = map[BinOp]ir.Opcode{
	BAdd: ir.OpFAdd, BSub: ir.OpFSub, BMul: ir.OpFMul, BDiv: ir.OpFDiv,
	BEq: ir.OpFEq, BNe: ir.OpFNe, BLt: ir.OpFLt, BLe: ir.OpFLe, BGt: ir.OpFGt, BGe: ir.OpFGe,
}

func (fl *funcLower) lowerBinary(e *BinaryExpr) (int32, TypeName, error) {
	if e.Op == BAnd || e.Op == BOr {
		return fl.lowerShortCircuit(e)
	}
	x, xt, err := fl.lowerExpr(e.X)
	if err != nil {
		return 0, TyVoid, err
	}
	y, yt, err := fl.lowerExpr(e.Y)
	if err != nil {
		return 0, TyVoid, err
	}
	isCmp := e.Op >= BEq && e.Op <= BGe
	// bool == bool / bool != bool are integer comparisons.
	if (xt == TyBool || yt == TyBool) && (e.Op == BEq || e.Op == BNe) {
		if tyToIR(xt) != ir.TInt || tyToIR(yt) != ir.TInt {
			return 0, TyVoid, errf(e.Line, e.Col, "cannot compare %s and %s", xt, yt)
		}
		return fl.b.Bin(intBinOps[e.Op], ir.TInt, x, y), TyBool, nil
	}
	if xt != yt {
		return 0, TyVoid, errf(e.Line, e.Col, "operator %s: mismatched types %s and %s", e.Op, xt, yt)
	}
	switch xt {
	case TyInt:
		op, ok := intBinOps[e.Op]
		if !ok {
			return 0, TyVoid, errf(e.Line, e.Col, "operator %s not defined on int", e.Op)
		}
		res := fl.b.Bin(op, ir.TInt, x, y)
		if isCmp {
			return res, TyBool, nil
		}
		return res, TyInt, nil
	case TyFloat:
		op, ok := floatBinOps[e.Op]
		if !ok {
			return 0, TyVoid, errf(e.Line, e.Col, "operator %s not defined on float", e.Op)
		}
		if isCmp {
			return fl.b.Bin(op, ir.TInt, x, y), TyBool, nil
		}
		return fl.b.Bin(op, ir.TFloat, x, y), TyFloat, nil
	default:
		return 0, TyVoid, errf(e.Line, e.Col, "operator %s not defined on %s", e.Op, xt)
	}
}

// lowerShortCircuit lowers && and || with control flow so the right operand
// only evaluates when needed.
func (fl *funcLower) lowerShortCircuit(e *BinaryExpr) (int32, TypeName, error) {
	x, xt, err := fl.lowerExpr(e.X)
	if err != nil {
		return 0, TyVoid, err
	}
	if xt != TyBool {
		return 0, TyVoid, errf(e.Line, e.Col, "operator %s requires bool operands, got %s", e.Op, xt)
	}
	res := fl.b.NewReg(ir.TInt)
	evalY := fl.b.NewBlock()
	short := fl.b.NewBlock()
	end := fl.b.NewBlock()
	if e.Op == BAnd {
		fl.b.CBr(x, evalY, short)
	} else {
		fl.b.CBr(x, short, evalY)
	}
	fl.b.SetBlock(evalY)
	y, yt, err := fl.lowerExpr(e.Y)
	if err != nil {
		return 0, TyVoid, err
	}
	if yt != TyBool {
		return 0, TyVoid, errf(e.Line, e.Col, "operator %s requires bool operands, got %s", e.Op, yt)
	}
	fl.b.Emit(ir.Instr{Op: ir.OpMov, Dst: res, A: y, B: ir.NoReg, C: ir.NoReg, Sym: -1})
	fl.b.Br(end)
	fl.b.SetBlock(short)
	v := int64(0)
	if e.Op == BOr {
		v = 1
	}
	fl.b.Emit(ir.Instr{Op: ir.OpConstI, Dst: res, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg, Sym: -1, Imm: v})
	fl.b.Br(end)
	fl.b.SetBlock(end)
	return res, TyBool, nil
}
