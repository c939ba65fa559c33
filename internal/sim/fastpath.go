package sim

import (
	"math"

	"astro/internal/cache"
	"astro/internal/features"
	"astro/internal/ir"
)

// runBurstFast is the precompiled twin of runBurst: identical instruction
// semantics, identical float accounting order (every cycle addition uses the
// same operand values in the same sequence, so results are byte-identical to
// the legacy interpreter), executed over the module's flat instruction
// stream with hot state (code array, flat pc, register file, counters) held
// in locals. Frames keep their canonical (block, pc) position: it is decoded
// to a flat index on entry and written back at every burst boundary, so
// everything outside the burst loop is path-agnostic.
func (m *Machine) runBurstFast(c *core, t *Thread, budget float64, bc *burstCtx) burstStatus {
	prog := m.prog
	// Memory is read through m.mem, never a local copy: growMem may
	// reallocate it mid-burst (an access past the allocated prefix, or the
	// callee's frame arrays in OpCall), and stores through a stale copy
	// would be lost at the next burst boundary.
	cycles, nInstr := bc.cycles, bc.instr
	fp, acc, miss := bc.fp, bc.acc, bc.miss
	// The core's per-class costs are loop constants; hoisting them into
	// locals lets the compiler keep the hot ones in registers.
	cIntHalf := c.costs[clsIntHalf]
	cInt := c.costs[clsInt]
	cInt2 := c.costs[clsInt2]
	cInt6 := c.costs[clsInt6]
	cFP := c.costs[clsFP]
	cFP4 := c.costs[clsFP4]
	cMem := c.costs[clsMem]
	cBranch := c.costs[clsBranch]
	cCall := c.costs[clsCall]

	bounds := m.opts.BoundsCheck

	fr := &t.frames[len(t.frames)-1]
	cf := &prog.funcs[fr.fnIdx]
	code := cf.code
	fpc := int(cf.blockStart[fr.block]) + int(fr.pc)
	regs := fr.regs
	arrays := fr.arrays
	// costv is the program's specialization for this core's cost table: the
	// resolved charge of every flat instruction (see Program.variant). Fused
	// handlers read it instead of re-dispatching on the constituent's class,
	// which removes the second-element cost branches; the stored floats are
	// the exact makeCostTable values, so accounting is unchanged.
	costv := c.costv
	costs := costv[fr.fnIdx]

	status := stQuantum
loop:
	for cycles < budget {
		ci := &code[fpc]
		switch ci.op {
		case ir.OpNop:
			cycles += 1
			fpc++

		case ir.OpConstI, ir.OpConstF:
			regs[ci.dst] = uint64(ci.imm)
			cycles += cIntHalf
			fpc++
		case ir.OpMov:
			regs[ci.dst] = regs[ci.a]
			cycles += cIntHalf
			fpc++

		case ir.OpAdd:
			regs[ci.dst] = uint64(int64(regs[ci.a]) + int64(regs[ci.b]))
			cycles += cInt
			fpc++
		case ir.OpSub:
			regs[ci.dst] = uint64(int64(regs[ci.a]) - int64(regs[ci.b]))
			cycles += cInt
			fpc++
		case ir.OpMul:
			regs[ci.dst] = uint64(int64(regs[ci.a]) * int64(regs[ci.b]))
			cycles += cInt2
			fpc++
		case ir.OpDiv:
			d := int64(regs[ci.b])
			if d == 0 {
				m.fail("integer division by zero in %s (thread %d)", cf.fn.Name, t.ID)
				status = stErr
				break loop
			}
			regs[ci.dst] = uint64(int64(regs[ci.a]) / d)
			cycles += cInt6
			fpc++
		case ir.OpRem:
			d := int64(regs[ci.b])
			if d == 0 {
				m.fail("integer remainder by zero in %s (thread %d)", cf.fn.Name, t.ID)
				status = stErr
				break loop
			}
			regs[ci.dst] = uint64(int64(regs[ci.a]) % d)
			cycles += cInt6
			fpc++
		case ir.OpAnd:
			regs[ci.dst] = regs[ci.a] & regs[ci.b]
			cycles += cInt
			fpc++
		case ir.OpOr:
			regs[ci.dst] = regs[ci.a] | regs[ci.b]
			cycles += cInt
			fpc++
		case ir.OpXor:
			regs[ci.dst] = regs[ci.a] ^ regs[ci.b]
			cycles += cInt
			fpc++
		case ir.OpShl:
			regs[ci.dst] = uint64(int64(regs[ci.a]) << (regs[ci.b] & 63))
			cycles += cInt
			fpc++
		case ir.OpShr:
			regs[ci.dst] = uint64(int64(regs[ci.a]) >> (regs[ci.b] & 63))
			cycles += cInt
			fpc++
		case ir.OpNeg:
			regs[ci.dst] = uint64(-int64(regs[ci.a]))
			cycles += cInt
			fpc++
		case ir.OpNot:
			if regs[ci.a] == 0 {
				regs[ci.dst] = 1
			} else {
				regs[ci.dst] = 0
			}
			cycles += cInt
			fpc++
		case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
			a, b := int64(regs[ci.a]), int64(regs[ci.b])
			regs[ci.dst] = boolBit(intCmp(ci.op, a, b))
			cycles += cInt
			fpc++

		case ir.OpFAdd:
			regs[ci.dst] = f2b(b2f(regs[ci.a]) + b2f(regs[ci.b]))
			cycles += cFP
			fp++
			fpc++
		case ir.OpFSub:
			regs[ci.dst] = f2b(b2f(regs[ci.a]) - b2f(regs[ci.b]))
			cycles += cFP
			fp++
			fpc++
		case ir.OpFMul:
			regs[ci.dst] = f2b(b2f(regs[ci.a]) * b2f(regs[ci.b]))
			cycles += cFP
			fp++
			fpc++
		case ir.OpFDiv:
			regs[ci.dst] = f2b(b2f(regs[ci.a]) / b2f(regs[ci.b]))
			cycles += cFP4
			fp++
			fpc++
		case ir.OpFNeg:
			regs[ci.dst] = f2b(-b2f(regs[ci.a]))
			cycles += cFP
			fp++
			fpc++
		case ir.OpFEq, ir.OpFNe, ir.OpFLt, ir.OpFLe, ir.OpFGt, ir.OpFGe:
			a, b := b2f(regs[ci.a]), b2f(regs[ci.b])
			regs[ci.dst] = boolBit(floatCmp(ci.op, a, b))
			cycles += cFP
			fp++
			fpc++
		case ir.OpI2F:
			regs[ci.dst] = f2b(float64(int64(regs[ci.a])))
			cycles += cFP
			fp++
			fpc++
		case ir.OpF2I:
			regs[ci.dst] = uint64(int64(b2f(regs[ci.a])))
			cycles += cFP
			fp++
			fpc++

		case ir.OpLocalAddr:
			idx := ci.imm
			if ci.a != ir.NoReg {
				idx = int64(regs[ci.a])
			}
			if bounds && (idx < 0 || idx >= ci.aux) {
				ad := &cf.fn.Arrays[ci.sym]
				m.fail("index %d out of range for array %s[%d] in %s (thread %d)",
					idx, ad.Name, ad.Size, cf.fn.Name, t.ID)
				status = stErr
				break loop
			}
			regs[ci.dst] = uint64(arrays[ci.sym] + idx)
			cycles += cInt
			fpc++
		case ir.OpGlobalAddr:
			idx := ci.imm
			if ci.a != ir.NoReg {
				idx = int64(regs[ci.a])
			}
			if bounds && (idx < 0 || idx >= m.mod.Globals[ci.sym].Size) {
				g := &m.mod.Globals[ci.sym]
				m.fail("index %d out of range for global %s[%d] in %s (thread %d)",
					idx, g.Name, g.Size, cf.fn.Name, t.ID)
				status = stErr
				break loop
			}
			regs[ci.dst] = uint64(ci.aux + idx)
			cycles += cInt
			fpc++

		case ir.OpLoadI, ir.OpLoadF:
			addr := int64(regs[ci.a])
			if (addr < 0 || addr >= int64(len(m.mem))) && !m.growMem(addr) {
				m.fail("load from invalid address %d in %s (thread %d)", addr, cf.fn.Name, t.ID)
				status = stErr
				break loop
			}
			regs[ci.dst] = m.mem[addr]
			acc++
			var lat float64
			switch c.hier.Access(uint64(addr) * 8) {
			case cache.L1:
				lat = c.spec.L1HitCycles
			case cache.L2:
				lat = c.spec.L2HitCycles
			default:
				miss++
				lat = c.spec.L2HitCycles + c.spec.DRAMCycles(m.plat.DRAMLatencyNs)
			}
			cycles += cMem + lat
			fpc++
		case ir.OpStoreI, ir.OpStoreF:
			addr := int64(regs[ci.a])
			if (addr < 0 || addr >= int64(len(m.mem))) && !m.growMem(addr) {
				m.fail("store to invalid address %d in %s (thread %d)", addr, cf.fn.Name, t.ID)
				status = stErr
				break loop
			}
			m.mem[addr] = regs[ci.b]
			acc++
			var lat float64
			switch c.hier.Access(uint64(addr) * 8) {
			case cache.L1:
				lat = c.spec.L1HitCycles
			case cache.L2:
				lat = c.spec.L2HitCycles
			default:
				miss++
				lat = c.spec.L2HitCycles + c.spec.DRAMCycles(m.plat.DRAMLatencyNs)
			}
			cycles += cMem + lat
			fpc++

		case ir.OpBr:
			fpc = int(ci.a)
			cycles += cBranch
		case ir.OpCBr:
			if regs[ci.a] != 0 {
				fpc = int(ci.b)
			} else {
				fpc = int(ci.c)
			}
			cycles += cBranch

		case ir.OpRet:
			var bits uint64
			hasRet := ci.a != ir.NoReg
			if hasRet {
				bits = regs[ci.a]
			}
			cycles += cCall
			nInstr++
			if t.popFrame(bits, hasRet) {
				status = stDone
				break loop
			}
			fr = &t.frames[len(t.frames)-1]
			cf = &prog.funcs[fr.fnIdx]
			code = cf.code
			costs = costv[fr.fnIdx]
			fpc = int(cf.blockStart[fr.block]) + int(fr.pc)
			regs = fr.regs
			arrays = fr.arrays
			continue // frame changed; do not advance pc here

		case ir.OpCall:
			callee := m.mod.Funcs[ci.sym]
			nregs := t.allocRegs(len(callee.Regs))
			for i, a := range cf.argRegs(ci) {
				nregs[i] = regs[a]
			}
			fr.block, fr.pc = ci.blk, ci.pc+1 // return to the next instruction
			if _, err := m.pushFramePrepared(t, int(ci.sym), callee, nregs, ci.dst); err != nil {
				m.fail("%v", err)
				status = stErr
				break loop
			}
			cycles += cCall
			nInstr++
			fr = &t.frames[len(t.frames)-1]
			cf = &prog.funcs[ci.sym]
			code = cf.code
			costs = costv[ci.sym]
			fpc = 0
			regs = fr.regs
			arrays = fr.arrays
			continue

		case ir.OpBuiltin:
			if ci.sync {
				status = stSync
				break loop
			}
			cycles += float64(ci.imm) // base cycles
			fp += uint64(ci.aux)
			m.execPureBuiltinFast(c, t, cf, ci, regs, cycles)
			fpc++

		case ir.OpLogPhase:
			t.phase = features.Phase(ci.imm)
			cycles += 25
			fpc++
		case ir.OpToggleBlocked:
			t.blockedFlag = ci.imm != 0
			cycles += 20
			fpc++

		case ir.OpSpawn, ir.OpSetConfig, ir.OpDetermineConf:
			status = stSync
			break loop

		// Fused pairs (see compile.go): one dispatch, two instructions. The
		// first half charges its cycles and retires before the inter-element
		// budget check; expiry suspends at the second element's ordinary
		// instruction, so accounting matches unfused execution bit for bit.
		case opConstConst:
			regs[ci.dst] = uint64(ci.imm)
			cycles += cIntHalf
			nInstr++
			if cycles >= budget {
				fpc++
				break loop
			}
			regs[ci.c] = uint64(ci.aux)
			cycles += cIntHalf
			fpc += 2
		case opConstMov:
			regs[ci.dst] = uint64(ci.imm)
			cycles += cIntHalf
			nInstr++
			if cycles >= budget {
				fpc++
				break loop
			}
			regs[ci.c] = regs[ci.a]
			cycles += cIntHalf
			fpc += 2
		case opMovConst:
			regs[ci.dst] = regs[ci.a]
			cycles += cIntHalf
			nInstr++
			if cycles >= budget {
				fpc++
				break loop
			}
			regs[ci.c] = uint64(ci.aux)
			cycles += cIntHalf
			fpc += 2
		case opMovMov:
			regs[ci.dst] = regs[ci.a]
			cycles += cIntHalf
			nInstr++
			if cycles >= budget {
				fpc++
				break loop
			}
			regs[ci.c] = regs[ci.b]
			cycles += cIntHalf
			fpc += 2
		case opConstIBin:
			regs[ci.dst] = uint64(ci.imm)
			cycles += cIntHalf
			nInstr++
			if cycles >= budget {
				fpc++
				break loop
			}
			regs[ci.a] = intBinExec(ir.Opcode(ci.sym), regs[ci.b], regs[ci.c])
			cycles += costs[fpc+1]
			fpc += 2
		case opConstFBin:
			regs[ci.dst] = uint64(ci.imm)
			cycles += cIntHalf
			nInstr++
			if cycles >= budget {
				fpc++
				break loop
			}
			regs[ci.a] = fpBinExec(ir.Opcode(ci.sym), regs[ci.b], regs[ci.c])
			cycles += costs[fpc+1]
			fp++
			fpc += 2
		case opBinMovI:
			regs[ci.dst] = intBinExec(ir.Opcode(ci.sym), regs[ci.a], regs[ci.b])
			cycles += costs[fpc]
			nInstr++
			if cycles >= budget {
				fpc++
				break loop
			}
			regs[ci.c] = regs[ci.dst]
			cycles += cIntHalf
			fpc += 2
		case opBinMovF:
			regs[ci.dst] = fpBinExec(ir.Opcode(ci.sym), regs[ci.a], regs[ci.b])
			cycles += costs[fpc]
			fp++
			nInstr++
			if cycles >= budget {
				fpc++
				break loop
			}
			regs[ci.c] = regs[ci.dst]
			cycles += cIntHalf
			fpc += 2
		case opLAddrLoad, opLAddrStore, opGAddrLoad, opGAddrStore:
			idx := ci.imm
			if ci.a != ir.NoReg {
				idx = int64(regs[ci.a])
			}
			var cell int64
			if ci.op == opLAddrLoad || ci.op == opLAddrStore {
				if bounds && (idx < 0 || idx >= ci.aux) {
					ad := &cf.fn.Arrays[ci.sym]
					m.fail("index %d out of range for array %s[%d] in %s (thread %d)",
						idx, ad.Name, ad.Size, cf.fn.Name, t.ID)
					status = stErr
					break loop
				}
				cell = arrays[ci.sym] + idx
			} else {
				if bounds && (idx < 0 || idx >= m.mod.Globals[ci.sym].Size) {
					g := &m.mod.Globals[ci.sym]
					m.fail("index %d out of range for global %s[%d] in %s (thread %d)",
						idx, g.Name, g.Size, cf.fn.Name, t.ID)
					status = stErr
					break loop
				}
				cell = ci.aux + idx
			}
			regs[ci.dst] = uint64(cell)
			cycles += cInt
			nInstr++
			if cycles >= budget {
				fpc++
				break loop
			}
			addr := int64(regs[ci.dst])
			if ci.op == opLAddrLoad || ci.op == opGAddrLoad {
				if (addr < 0 || addr >= int64(len(m.mem))) && !m.growMem(addr) {
					m.fail("load from invalid address %d in %s (thread %d)", addr, cf.fn.Name, t.ID)
					status = stErr
					break loop
				}
				regs[ci.c] = m.mem[addr]
			} else {
				if (addr < 0 || addr >= int64(len(m.mem))) && !m.growMem(addr) {
					m.fail("store to invalid address %d in %s (thread %d)", addr, cf.fn.Name, t.ID)
					status = stErr
					break loop
				}
				m.mem[addr] = regs[ci.c]
			}
			acc++
			var lat float64
			switch c.hier.Access(uint64(addr) * 8) {
			case cache.L1:
				lat = c.spec.L1HitCycles
			case cache.L2:
				lat = c.spec.L2HitCycles
			default:
				miss++
				lat = c.spec.L2HitCycles + c.spec.DRAMCycles(m.plat.DRAMLatencyNs)
			}
			cycles += cMem + lat
			fpc += 2

		case opConstBinMovI:
			regs[ci.dst] = uint64(ci.imm)
			cycles += cIntHalf
			nInstr++
			if cycles >= budget {
				fpc++
				break loop
			}
			regs[ci.a] = intBinExec(ir.Opcode(ci.sym), regs[ci.b], regs[ci.c])
			cycles += costs[fpc+1]
			nInstr++
			if cycles >= budget {
				fpc += 2
				break loop
			}
			regs[ci.aux] = regs[ci.a]
			cycles += cIntHalf
			fpc += 3
		case opConstBinMovF:
			regs[ci.dst] = uint64(ci.imm)
			cycles += cIntHalf
			nInstr++
			if cycles >= budget {
				fpc++
				break loop
			}
			regs[ci.a] = fpBinExec(ir.Opcode(ci.sym), regs[ci.b], regs[ci.c])
			cycles += costs[fpc+1]
			fp++
			nInstr++
			if cycles >= budget {
				fpc += 2
				break loop
			}
			regs[ci.aux] = regs[ci.a]
			cycles += cIntHalf
			fpc += 3
		case opConstCmpCBr:
			regs[ci.dst] = uint64(ci.imm)
			cycles += cIntHalf
			nInstr++
			if cycles >= budget {
				fpc++
				break loop
			}
			bit := boolBit(intCmp(ir.Opcode(ci.sym), int64(regs[ci.b]), int64(regs[ci.c])))
			regs[ci.a] = bit
			cycles += cInt
			nInstr++
			if cycles >= budget {
				fpc += 2
				break loop
			}
			if bit != 0 {
				fpc = int(int32(ci.aux))
			} else {
				fpc = int(int32(ci.aux >> 32))
			}
			cycles += cBranch
		case opCmpCBr:
			a, b := int64(regs[ci.a]), int64(regs[ci.b])
			bit := boolBit(intCmp(ir.Opcode(ci.sym), a, b))
			regs[ci.dst] = bit
			cycles += cInt
			nInstr++
			if cycles >= budget {
				fpc++
				break loop
			}
			if bit != 0 {
				fpc = int(ci.c)
			} else {
				fpc = int(ci.aux)
			}
			cycles += cBranch

		// Chained superops (see compile.go): one dispatch over two adjacent
		// superops. ci2 is the second constituent's head cinstr, untouched in
		// place; per-element charges, retirements and inter-element budget
		// checks replicate standalone execution exactly, and every suspension
		// point is a constituent boundary.
		case opIChain5: // ConstI; int bin; ConstI; int bin; Mov
			regs[ci.dst] = uint64(ci.imm)
			cycles += cIntHalf
			nInstr++
			if cycles >= budget {
				fpc++
				break loop
			}
			regs[ci.a] = intBinExec(ir.Opcode(ci.sym), regs[ci.b], regs[ci.c])
			cycles += costs[fpc+1]
			nInstr++
			if cycles >= budget {
				fpc += 2
				break loop
			}
			ci2 := &code[fpc+2]
			regs[ci2.dst] = uint64(ci2.imm)
			cycles += cIntHalf
			nInstr++
			if cycles >= budget {
				fpc += 3
				break loop
			}
			regs[ci2.a] = intBinExec(ir.Opcode(ci2.sym), regs[ci2.b], regs[ci2.c])
			cycles += costs[fpc+3]
			nInstr++
			if cycles >= budget {
				fpc += 4
				break loop
			}
			regs[ci2.aux] = regs[ci2.a]
			cycles += cIntHalf
			fpc += 5
		case opFChain5: // ConstF; fp bin; ConstF; fp bin; Mov
			regs[ci.dst] = uint64(ci.imm)
			cycles += cIntHalf
			nInstr++
			if cycles >= budget {
				fpc++
				break loop
			}
			regs[ci.a] = fpBinExec(ir.Opcode(ci.sym), regs[ci.b], regs[ci.c])
			cycles += costs[fpc+1]
			fp++
			nInstr++
			if cycles >= budget {
				fpc += 2
				break loop
			}
			ci2 := &code[fpc+2]
			regs[ci2.dst] = uint64(ci2.imm)
			cycles += cIntHalf
			nInstr++
			if cycles >= budget {
				fpc += 3
				break loop
			}
			regs[ci2.a] = fpBinExec(ir.Opcode(ci2.sym), regs[ci2.b], regs[ci2.c])
			cycles += costs[fpc+3]
			fp++
			nInstr++
			if cycles >= budget {
				fpc += 4
				break loop
			}
			regs[ci2.aux] = regs[ci2.a]
			cycles += cIntHalf
			fpc += 5
		case opIncCmpBr: // ConstI; int bin; Mov; ConstI; int cmp; CBr
			regs[ci.dst] = uint64(ci.imm)
			cycles += cIntHalf
			nInstr++
			if cycles >= budget {
				fpc++
				break loop
			}
			regs[ci.a] = intBinExec(ir.Opcode(ci.sym), regs[ci.b], regs[ci.c])
			cycles += costs[fpc+1]
			nInstr++
			if cycles >= budget {
				fpc += 2
				break loop
			}
			regs[ci.aux] = regs[ci.a]
			cycles += cIntHalf
			nInstr++
			if cycles >= budget {
				fpc += 3
				break loop
			}
			ci2 := &code[fpc+3]
			regs[ci2.dst] = uint64(ci2.imm)
			cycles += cIntHalf
			nInstr++
			if cycles >= budget {
				fpc += 4
				break loop
			}
			bit := boolBit(intCmp(ir.Opcode(ci2.sym), int64(regs[ci2.b]), int64(regs[ci2.c])))
			regs[ci2.a] = bit
			cycles += cInt
			nInstr++
			if cycles >= budget {
				fpc += 5
				break loop
			}
			if bit != 0 {
				fpc = int(int32(ci2.aux))
			} else {
				fpc = int(int32(ci2.aux >> 32))
			}
			cycles += cBranch
		case opConst2CmpBr: // ConstI/F; ConstI/F; int cmp; CBr
			regs[ci.dst] = uint64(ci.imm)
			cycles += cIntHalf
			nInstr++
			if cycles >= budget {
				fpc++
				break loop
			}
			regs[ci.c] = uint64(ci.aux)
			cycles += cIntHalf
			nInstr++
			if cycles >= budget {
				fpc += 2
				break loop
			}
			ci2 := &code[fpc+2]
			bit := boolBit(intCmp(ir.Opcode(ci2.sym), int64(regs[ci2.a]), int64(regs[ci2.b])))
			regs[ci2.dst] = bit
			cycles += cInt
			nInstr++
			if cycles >= budget {
				fpc += 3
				break loop
			}
			if bit != 0 {
				fpc = int(ci2.c)
			} else {
				fpc = int(ci2.aux)
			}
			cycles += cBranch
		case opIBinIBin: // ConstI; int bin; ConstI; int bin
			regs[ci.dst] = uint64(ci.imm)
			cycles += cIntHalf
			nInstr++
			if cycles >= budget {
				fpc++
				break loop
			}
			regs[ci.a] = intBinExec(ir.Opcode(ci.sym), regs[ci.b], regs[ci.c])
			cycles += costs[fpc+1]
			nInstr++
			if cycles >= budget {
				fpc += 2
				break loop
			}
			ci2 := &code[fpc+2]
			regs[ci2.dst] = uint64(ci2.imm)
			cycles += cIntHalf
			nInstr++
			if cycles >= budget {
				fpc += 3
				break loop
			}
			regs[ci2.a] = intBinExec(ir.Opcode(ci2.sym), regs[ci2.b], regs[ci2.c])
			cycles += costs[fpc+3]
			fpc += 4
		case opFBinFBin: // ConstF; fp bin; ConstF; fp bin
			regs[ci.dst] = uint64(ci.imm)
			cycles += cIntHalf
			nInstr++
			if cycles >= budget {
				fpc++
				break loop
			}
			regs[ci.a] = fpBinExec(ir.Opcode(ci.sym), regs[ci.b], regs[ci.c])
			cycles += costs[fpc+1]
			fp++
			nInstr++
			if cycles >= budget {
				fpc += 2
				break loop
			}
			ci2 := &code[fpc+2]
			regs[ci2.dst] = uint64(ci2.imm)
			cycles += cIntHalf
			nInstr++
			if cycles >= budget {
				fpc += 3
				break loop
			}
			regs[ci2.a] = fpBinExec(ir.Opcode(ci2.sym), regs[ci2.b], regs[ci2.c])
			cycles += costs[fpc+3]
			fp++
			fpc += 4
		case opMovConstBinI: // Mov; ConstI; int bin; Mov
			regs[ci.dst] = regs[ci.a]
			cycles += cIntHalf
			nInstr++
			if cycles >= budget {
				fpc++
				break loop
			}
			regs[ci.c] = uint64(ci.aux)
			cycles += cIntHalf
			nInstr++
			if cycles >= budget {
				fpc += 2
				break loop
			}
			ci2 := &code[fpc+2]
			regs[ci2.dst] = intBinExec(ir.Opcode(ci2.sym), regs[ci2.a], regs[ci2.b])
			cycles += costs[fpc+2]
			nInstr++
			if cycles >= budget {
				fpc += 3
				break loop
			}
			regs[ci2.c] = regs[ci2.dst]
			cycles += cIntHalf
			fpc += 4
		case opBinMovICmpBr: // int bin; Mov; ConstI; int cmp; CBr
			regs[ci.dst] = intBinExec(ir.Opcode(ci.sym), regs[ci.a], regs[ci.b])
			cycles += costs[fpc]
			nInstr++
			if cycles >= budget {
				fpc++
				break loop
			}
			regs[ci.c] = regs[ci.dst]
			cycles += cIntHalf
			nInstr++
			if cycles >= budget {
				fpc += 2
				break loop
			}
			ci2 := &code[fpc+2]
			regs[ci2.dst] = uint64(ci2.imm)
			cycles += cIntHalf
			nInstr++
			if cycles >= budget {
				fpc += 3
				break loop
			}
			bit := boolBit(intCmp(ir.Opcode(ci2.sym), int64(regs[ci2.b]), int64(regs[ci2.c])))
			regs[ci2.a] = bit
			cycles += cInt
			nInstr++
			if cycles >= budget {
				fpc += 4
				break loop
			}
			if bit != 0 {
				fpc = int(int32(ci2.aux))
			} else {
				fpc = int(int32(ci2.aux >> 32))
			}
			cycles += cBranch

		default:
			m.fail("unknown opcode %s in %s", ci.op.Name(), cf.fn.Name)
			status = stErr
			break loop
		}
		nInstr++
	}

	bc.cycles, bc.instr = cycles, nInstr
	bc.fp, bc.acc, bc.miss = fp, acc, miss
	if status != stDone {
		// Write the canonical frame position back (next instruction to run).
		ci := &code[fpc]
		fr.block, fr.pc = ci.blk, ci.pc
	}
	return status
}

// intBinExec executes the second half of a fused integer pair; each arm is
// the exact expression of the corresponding standalone case.
func intBinExec(op ir.Opcode, x, y uint64) uint64 {
	switch op {
	case ir.OpAdd:
		return uint64(int64(x) + int64(y))
	case ir.OpSub:
		return uint64(int64(x) - int64(y))
	case ir.OpMul:
		return uint64(int64(x) * int64(y))
	case ir.OpAnd:
		return x & y
	case ir.OpOr:
		return x | y
	case ir.OpXor:
		return x ^ y
	case ir.OpShl:
		return uint64(int64(x) << (y & 63))
	case ir.OpShr:
		return uint64(int64(x) >> (y & 63))
	default: // comparisons
		return boolBit(intCmp(op, int64(x), int64(y)))
	}
}

// fpBinExec is intBinExec's floating-point counterpart.
func fpBinExec(op ir.Opcode, x, y uint64) uint64 {
	a, b := b2f(x), b2f(y)
	switch op {
	case ir.OpFAdd:
		return f2b(a + b)
	case ir.OpFSub:
		return f2b(a - b)
	case ir.OpFMul:
		return f2b(a * b)
	default: // OpFDiv
		return f2b(a / b)
	}
}

// execPureBuiltinFast mirrors execPureBuiltin over a pre-decoded
// instruction. The instruction's base cycles and FP work have already been
// charged by the caller; cycles carries the running burst total (clock_ms
// reads it, exactly as the legacy path reads bc.cycles after the charge).
func (m *Machine) execPureBuiltinFast(c *core, t *Thread, cf *compiledFunc, ci *cinstr, regs []uint64, cycles float64) {
	id := ir.BuiltinID(ci.sym)
	args := cf.argRegs(ci)
	set := func(bits uint64) {
		if ci.dst != ir.NoReg {
			regs[ci.dst] = bits
		}
	}
	argF := func(i int) float64 { return b2f(regs[args[i]]) }
	argI := func(i int) int64 { return int64(regs[args[i]]) }
	switch id {
	case ir.BTid:
		set(uint64(t.ID))
	case ir.BNumCores:
		set(uint64(int64(m.cfg.Cores())))
	case ir.BClockMs:
		now := m.now + cycles/c.spec.CyclesPerSecond()
		set(uint64(int64(now * 1000)))
	case ir.BRandInt:
		n := argI(0)
		if n <= 0 {
			set(0)
		} else {
			set(t.threadRand() % uint64(n))
		}
	case ir.BRandFloat:
		set(f2b(t.threadRandFloat()))
	case ir.BSqrt:
		set(f2b(math.Sqrt(argF(0))))
	case ir.BSin:
		set(f2b(math.Sin(argF(0))))
	case ir.BCos:
		set(f2b(math.Cos(argF(0))))
	case ir.BExp:
		set(f2b(math.Exp(argF(0))))
	case ir.BLog:
		set(f2b(math.Log(argF(0))))
	case ir.BPow:
		set(f2b(math.Pow(argF(0), argF(1))))
	case ir.BFabs:
		set(f2b(math.Abs(argF(0))))
	case ir.BFloor:
		set(f2b(math.Floor(argF(0))))
	case ir.BAbsI:
		v := argI(0)
		if v < 0 {
			v = -v
		}
		set(uint64(v))
	case ir.BMinI:
		a, b := argI(0), argI(1)
		if b < a {
			a = b
		}
		set(uint64(a))
	case ir.BMaxI:
		a, b := argI(0), argI(1)
		if b > a {
			a = b
		}
		set(uint64(a))
	default:
		m.fail("builtin %s reached pure execution path", ir.Builtin(id).Name)
	}
}
