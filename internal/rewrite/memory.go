package rewrite

import (
	"fmt"

	"lfi/internal/arm64"
	"lfi/internal/core"
)

// memOp rewrites one load/store according to the optimization level.
func (r *rewriter) memOp(f *arm64.File, idx int) error {
	it := &f.Items[idx]
	inst := it.Inst
	m := inst.Mem
	line := it.LineNo

	// PC-relative literal loads stay within the code region and cannot
	// escape the sandbox (the verifier checks the final offset).
	if m.Mode == arm64.AddrLiteral {
		r.emit(inst, line)
		r.guardLoadedDests(&inst, line)
		return nil
	}

	// Runtime-call idiom (§4.4): "ldr x30, [x21, #n]; blr x30" passes
	// through as a unit.
	if r.isRuntimeCallPair(f, idx) {
		r.emit(inst, line)
		r.emit(f.Items[nextInstIdx(f, idx)].Inst, line)
		r.skipNext = true
		return nil
	}

	base := memBase(&inst)
	if base.X() == core.RegBase {
		return &Error{line, "input addresses [x21, ...] outside the runtime-call idiom"}
	}
	if core.IsReserved(base) {
		return &Error{line, fmt.Sprintf("input uses reserved register %v as a base", base)}
	}
	if idxReg := m.Index; m.IsRegOffset() && core.IsReserved(idxReg) {
		return &Error{line, fmt.Sprintf("input uses reserved register %v as an index", idxReg)}
	}

	// Stack-pointer-based accesses with immediate addressing are safe:
	// sp always holds a sandbox address and immediates cannot cross the
	// guard regions (§4.2). x30-based accesses get the same treatment.
	if core.AlwaysValidAddr(base.X()) || base.X() == arm64.X30 {
		if !m.IsRegOffset() {
			bound := guardImmBound
			if base.IsSP() {
				bound = spImmBound
			}
			if m.Mode == arm64.AddrImm && int64(m.Imm) > bound {
				r.oversizedImm(&inst, line)
				return nil
			}
			r.emit(inst, line)
			r.guardLoadedDests(&inst, line)
			return nil
		}
		// Register-offset from sp: stage sp through w22 first.
		return r.spRegOffset(&inst, line)
	}

	// no-loads mode: loads run unguarded unless they define x30 or write
	// back to their base — the verifier's exemption covers only plain
	// loads, so writeback forms go through the normal guarded lowering.
	if r.opts.NoLoads && inst.Op.IsLoad() && !loadsX30(&inst) && !m.WritesBack() {
		r.emit(inst, line)
		return nil
	}

	switch inst.Op {
	case arm64.LDP, arm64.STP, arm64.LDXR, arm64.LDAXR, arm64.STXR,
		arm64.STLXR, arm64.LDAR, arm64.STLR:
		return r.baseTechnique(f, idx, &inst, line)
	}

	if r.opts.Opt == core.O0 {
		return r.o0Guard(&inst, line)
	}
	return r.table3(f, idx, &inst, line)
}

// memBase returns the base register of any memory op (exclusives keep it
// in Rn rather than Mem.Base).
func memBase(inst *arm64.Inst) arm64.Reg {
	switch inst.Op {
	case arm64.LDXR, arm64.LDAXR, arm64.STXR, arm64.STLXR, arm64.LDAR, arm64.STLR:
		return inst.Rn
	}
	return inst.Mem.Base
}

func loadsX30(inst *arm64.Inst) bool {
	if !inst.Op.IsLoad() {
		return false
	}
	if inst.Rd.X() == arm64.X30 {
		return true
	}
	return inst.Op == arm64.LDP && inst.Rm.X() == arm64.X30
}

// guardLoadedDests re-establishes the x30 invariant after a load that
// wrote the link register (§4.2: guards are inserted when x30 is loaded).
func (r *rewriter) guardLoadedDests(inst *arm64.Inst, line int32) {
	if loadsX30(inst) {
		r.emit(core.GuardInto(arm64.X30, arm64.X30), line)
		r.stats.RetGuards++
	}
}

// isRuntimeCallPair recognizes "ldr x30, [x21, #n]" followed immediately
// by "blr x30".
func (r *rewriter) isRuntimeCallPair(f *arm64.File, idx int) bool {
	inst := &f.Items[idx].Inst
	if inst.Op != arm64.LDR || inst.Rd != arm64.X30 {
		return false
	}
	m := inst.Mem
	if m.Base != core.RegBase || (m.Mode != arm64.AddrImm && m.Mode != arm64.AddrBase) {
		return false
	}
	if m.Imm < 0 || int64(m.Imm) >= core.MaxTableOffset || m.Imm%8 != 0 {
		return false
	}
	j := nextInstIdx(f, idx)
	if j < 0 {
		return false
	}
	n := &f.Items[j].Inst
	return n.Op == arm64.BLR && n.Rn == arm64.X30
}

// nextInstIdx returns the index of the next instruction item with no label
// or directive in between, or -1.
func nextInstIdx(f *arm64.File, idx int) int {
	if idx+1 < len(f.Items) && f.Items[idx+1].Kind == arm64.ItemInst {
		return idx + 1
	}
	return -1
}

// spRegOffset lowers a register-offset access based on sp.
func (r *rewriter) spRegOffset(inst *arm64.Inst, line int32) error {
	m := inst.Mem
	// mov w22, wsp
	r.emit(arm64.Inst{Op: arm64.ADD, Rd: core.RegAddr32.W(), Rn: arm64.WSP,
		Rm: arm64.RegNone, Ra: arm64.RegNone, Amount: -1}, line)
	// add w22, w22, <index with original extend>
	st, err := stageIndexAdd(core.RegAddr32.W(), core.RegAddr32.W(), m)
	if err != nil {
		return &Error{line, err.Error()}
	}
	r.emit(st, line)
	r.stats.GuardsSingle++
	out := *inst
	out.Mem = arm64.Mem{Mode: arm64.AddrRegUXTW, Base: core.RegBase,
		Index: core.RegAddr32.W(), Amount: -1}
	r.emit(out, line)
	r.guardLoadedDests(inst, line)
	return nil
}

// stageIndexAdd builds "add dst, src, <index per addressing mode>".
func stageIndexAdd(dst, src arm64.Reg, m arm64.Mem) (arm64.Inst, error) {
	st := arm64.Inst{Op: arm64.ADD, Rd: dst, Rn: src, Ra: arm64.RegNone, Amount: m.Amount}
	switch m.Mode {
	case arm64.AddrReg:
		st.Rm = m.Index.W()
		st.Ext = arm64.ExtLSL
		if m.Amount <= 0 {
			st.Ext = arm64.ExtNone
			st.Amount = -1
		}
	case arm64.AddrRegUXTW:
		st.Rm = m.Index
		st.Ext = arm64.ExtUXTW
	case arm64.AddrRegSXTW:
		st.Rm = m.Index
		st.Ext = arm64.ExtSXTW
	default:
		return st, fmt.Errorf("addressing mode %v cannot be staged in 32 bits", m.Mode)
	}
	return st, nil
}

// o0Guard applies the basic two-cycle guard (§3) to a single-register
// load/store: the address is forced into x18 and the access goes through
// x18.
func (r *rewriter) o0Guard(inst *arm64.Inst, line int32) error {
	m := inst.Mem
	line4 := line
	access := *inst

	switch m.Mode {
	case arm64.AddrBase, arm64.AddrImm:
		if int64(m.Imm) > guardImmBound {
			r.oversizedImm(inst, line)
			return nil
		}
		// add x18, x21, wN, uxtw ; op rt, [x18, #imm]
		r.emit(core.GuardInto(core.RegScratch, m.Base), line4)
		r.stats.GuardsBase++
		access.Mem = arm64.Mem{Mode: arm64.AddrImm, Base: core.RegScratch, Imm: m.Imm, Amount: -1}
		r.emit(access, line4)

	case arm64.AddrPre:
		// add xN, xN, #imm ; guard ; op rt, [x18]
		r.emit(addImm(m.Base, m.Base, int64(m.Imm)), line4)
		r.emit(core.GuardInto(core.RegScratch, m.Base), line4)
		r.stats.GuardsBase++
		access.Mem = arm64.Mem{Mode: arm64.AddrImm, Base: core.RegScratch, Amount: -1}
		r.emit(access, line4)

	case arm64.AddrPost:
		// guard ; op rt, [x18] ; add xN, xN, #imm
		r.emit(core.GuardInto(core.RegScratch, m.Base), line4)
		r.stats.GuardsBase++
		access.Mem = arm64.Mem{Mode: arm64.AddrImm, Base: core.RegScratch, Amount: -1}
		r.emit(access, line4)
		r.emit(addImm(m.Base, m.Base, int64(m.Imm)), line4)

	default:
		// Register offset: stage the 32-bit sum in w22, guard into x18.
		st, err := stageIndexAdd(core.RegAddr32.W(), m.Base.W(), m)
		if err != nil {
			return r.sxtxFallback(inst, line)
		}
		r.emit(st, line4)
		r.emit(core.GuardInto(core.RegScratch, core.RegAddr32), line4)
		r.stats.GuardsBase++
		access.Mem = arm64.Mem{Mode: arm64.AddrImm, Base: core.RegScratch, Amount: -1}
		r.emit(access, line4)
	}
	r.guardLoadedDests(inst, line)
	return nil
}

// guardImmBound is the largest immediate offset that stays inside the
// 48KiB guard region from any in-sandbox base (worst case: base one byte
// below the slot end, 16-byte access). The verifier enforces the same
// bound; only q-register scaled immediates (up to 65520) can exceed it.
const guardImmBound = int64(core.GuardSize) - 16

// spImmBound is the tighter bound for sp-based immediates: sp can drift
// up to SPMaxDrift past the slot when the §4.2 elisions are in play, so
// the immediate must leave that much headroom inside the guard. The
// verifier enforces the same split.
const spImmBound = guardImmBound - int64(core.SPMaxDrift)

// oversizedImm lowers an immediate-offset access whose offset reaches past
// the guard region: the full 32-bit address is staged in w22 and the
// access goes through the guarded addressing mode. The immediate is split
// into two add-immediates (low 12 bits, then the 4KiB-aligned remainder).
func (r *rewriter) oversizedImm(inst *arm64.Inst, line int32) {
	m := inst.Mem
	lo := int64(m.Imm) & 0xfff
	hi := int64(m.Imm) &^ 0xfff
	r.emit(addImm(core.RegAddr32.W(), m.Base.W(), lo), line)
	if hi != 0 {
		r.emit(addImm(core.RegAddr32.W(), core.RegAddr32.W(), hi), line)
	}
	r.stats.GuardsSingle++
	access := *inst
	access.Mem = arm64.Mem{Mode: arm64.AddrRegUXTW, Base: core.RegBase,
		Index: core.RegAddr32.W(), Amount: -1}
	r.emit(access, line)
	r.guardLoadedDests(inst, line)
}

func addImm(dst, src arm64.Reg, imm int64) arm64.Inst {
	op := arm64.ADD
	if imm < 0 {
		op = arm64.SUB
		imm = -imm
	}
	return arm64.Inst{Op: op, Rd: dst, Rn: src, Rm: arm64.RegNone,
		Ra: arm64.RegNone, Imm: imm, Amount: -1}
}

// sxtxFallback handles the [xN, xM, sxtx] mode, which has no 32-bit
// staging form: compute the 64-bit sum into w22's full register? No —
// stage through x22 is forbidden (x22 must keep 32 zero top bits), so
// compute into the scratch register via the base technique:
//
//	add w22, wN, wM   (32-bit sum; sxtx on in-sandbox values degenerates)
//
// is not semantics-preserving for out-of-sandbox addresses, which is
// acceptable (SFI redirects them anyway), and for in-sandbox addresses the
// low 32 bits agree. The emitted form matches stageIndexAdd for AddrReg.
func (r *rewriter) sxtxFallback(inst *arm64.Inst, line int32) error {
	m := inst.Mem
	st := arm64.Inst{Op: arm64.ADD, Rd: core.RegAddr32.W(), Rn: m.Base.W(),
		Rm: m.Index.W(), Ra: arm64.RegNone, Ext: arm64.ExtLSL, Amount: m.Amount}
	if m.Amount <= 0 {
		st.Ext = arm64.ExtNone
		st.Amount = -1
	}
	r.emit(st, line)
	r.emit(core.GuardInto(core.RegScratch, core.RegAddr32), line)
	r.stats.GuardsBase++
	access := *inst
	access.Mem = arm64.Mem{Mode: arm64.AddrImm, Base: core.RegScratch, Amount: -1}
	r.emit(access, line)
	r.guardLoadedDests(inst, line)
	return nil
}

// table3 applies the zero-instruction-guard transformations of Table 3 to
// a single-register load/store (O1), with redundant guard elimination on
// top at O2 (§4.3).
func (r *rewriter) table3(f *arm64.File, idx int, inst *arm64.Inst, line int32) error {
	m := inst.Mem
	access := *inst

	guardedMem := func(index arm64.Reg) arm64.Mem {
		return arm64.Mem{Mode: arm64.AddrRegUXTW, Base: core.RegBase, Index: index.W(), Amount: -1}
	}

	switch m.Mode {
	case arm64.AddrBase:
		access.Mem = guardedMem(m.Base)
		r.emit(access, line)
		r.stats.GuardsFolded++

	case arm64.AddrImm:
		if m.Imm == 0 {
			access.Mem = guardedMem(m.Base)
			r.emit(access, line)
			r.stats.GuardsFolded++
			break
		}
		if int64(m.Imm) > guardImmBound {
			r.oversizedImm(inst, line)
			return nil
		}
		// O2: serve from (or allocate) a hoisting register.
		if r.opts.Opt >= core.O2 {
			if h := r.hoistFor(f, idx, m.Base); h != arm64.RegNone {
				access.Mem = arm64.Mem{Mode: arm64.AddrImm, Base: h, Imm: m.Imm, Amount: -1}
				r.emit(access, line)
				r.stats.GuardsHoisted++
				break
			}
		}
		if m.Imm >= -4095 && m.Imm <= 4095 {
			// add w22, wN, #imm ; op rt, [x21, w22, uxtw]
			r.emit(addImm(core.RegAddr32.W(), m.Base.W(), int64(m.Imm)), line)
			access.Mem = guardedMem(core.RegAddr32)
			r.emit(access, line)
			r.stats.GuardsSingle++
		} else {
			// Large scaled immediates: fall back to the base technique;
			// the offset still lands inside the guard region.
			r.emit(core.GuardInto(core.RegScratch, m.Base), line)
			access.Mem = arm64.Mem{Mode: arm64.AddrImm, Base: core.RegScratch, Imm: m.Imm, Amount: -1}
			r.emit(access, line)
			r.stats.GuardsBase++
		}

	case arm64.AddrPre:
		// add xN, xN, #imm ; op rt, [x21, wN, uxtw]
		r.emit(addImm(m.Base, m.Base, int64(m.Imm)), line)
		access.Mem = guardedMem(m.Base)
		r.emit(access, line)
		r.stats.GuardsSingle++

	case arm64.AddrPost:
		// op rt, [x21, wN, uxtw] ; add xN, xN, #imm
		access.Mem = guardedMem(m.Base)
		r.emit(access, line)
		r.emit(addImm(m.Base, m.Base, int64(m.Imm)), line)
		r.stats.GuardsSingle++

	case arm64.AddrReg, arm64.AddrRegUXTW, arm64.AddrRegSXTW:
		st, err := stageIndexAdd(core.RegAddr32.W(), m.Base.W(), m)
		if err != nil {
			return &Error{line, err.Error()}
		}
		r.emit(st, line)
		access.Mem = guardedMem(core.RegAddr32)
		r.emit(access, line)
		r.stats.GuardsSingle++

	case arm64.AddrRegSXTX:
		return r.sxtxFallback(inst, line)
	}
	r.guardLoadedDests(inst, line)
	return nil
}

// baseTechnique guards pair/exclusive accesses, which have no guarded
// addressing mode (§4.1 end): the base is forced into x18 (or served from
// a hoisting register at O2).
func (r *rewriter) baseTechnique(f *arm64.File, idx int, inst *arm64.Inst, line int32) error {
	access := *inst
	switch inst.Op {
	case arm64.LDXR, arm64.LDAXR, arm64.STXR, arm64.STLXR, arm64.LDAR, arm64.STLR:
		r.emit(core.GuardInto(core.RegScratch, inst.Rn), line)
		r.stats.GuardsBase++
		access.Rn = core.RegScratch
		r.emit(access, line)
		r.guardLoadedDests(inst, line)
		return nil
	}

	m := inst.Mem
	// ldp xN, xM, [xN], #i style writeback where a destination is also the
	// base is constrained-unpredictable on hardware; reject it.
	if m.WritesBack() && inst.Op == arm64.LDP &&
		(inst.Rd.X() == m.Base.X() || inst.Rm.X() == m.Base.X()) {
		return &Error{line, "ldp writeback with base in destination list"}
	}

	switch m.Mode {
	case arm64.AddrBase, arm64.AddrImm:
		if r.opts.Opt >= core.O2 {
			if h := r.hoistFor(f, idx, m.Base); h != arm64.RegNone {
				access.Mem = arm64.Mem{Mode: arm64.AddrImm, Base: h, Imm: m.Imm, Amount: -1}
				r.emit(access, line)
				r.stats.GuardsHoisted++
				r.guardLoadedDests(inst, line)
				return nil
			}
		}
		r.emit(core.GuardInto(core.RegScratch, m.Base), line)
		r.stats.GuardsBase++
		access.Mem = arm64.Mem{Mode: arm64.AddrImm, Base: core.RegScratch, Imm: m.Imm, Amount: -1}
		r.emit(access, line)

	case arm64.AddrPre:
		r.emit(addImm(m.Base, m.Base, int64(m.Imm)), line)
		r.emit(core.GuardInto(core.RegScratch, m.Base), line)
		r.stats.GuardsBase++
		access.Mem = arm64.Mem{Mode: arm64.AddrImm, Base: core.RegScratch, Amount: -1}
		r.emit(access, line)

	case arm64.AddrPost:
		r.emit(core.GuardInto(core.RegScratch, m.Base), line)
		r.stats.GuardsBase++
		access.Mem = arm64.Mem{Mode: arm64.AddrImm, Base: core.RegScratch, Amount: -1}
		r.emit(access, line)
		r.emit(addImm(m.Base, m.Base, int64(m.Imm)), line)

	default:
		return &Error{line, "pair access with register-offset addressing"}
	}
	r.guardLoadedDests(inst, line)
	return nil
}

// hoistFor returns a hoisting register currently guarding base, or
// allocates one if at least two upcoming accesses in this basic block
// would use it (Figure 2). Returns RegNone when hoisting is not
// worthwhile.
func (r *rewriter) hoistFor(f *arm64.File, idx int, base arm64.Reg) arm64.Reg {
	for h := range r.hoistBase {
		if r.hoistBase[h] != arm64.RegNone && r.hoistBase[h].X() == base.X() {
			return hoistRegs[h]
		}
	}
	if r.countUpcoming(f, idx, base) < 2 {
		return arm64.RegNone
	}
	h := r.hoistNext
	// Prefer a free slot over round-robin eviction.
	for k := range r.hoistBase {
		if r.hoistBase[k] == arm64.RegNone {
			h = k
			break
		}
	}
	r.hoistNext = (h + 1) % len(hoistRegs)
	r.hoistBase[h] = base.X()
	r.emit(core.GuardInto(hoistRegs[h], base), f.Items[idx].LineNo)
	r.stats.HoistGuards++
	return hoistRegs[h]
}

// countUpcoming counts accesses (including the one at idx) in the current
// basic block that could be served by hoisting base, stopping at labels,
// branches, section changes, or a redefinition of base.
func (r *rewriter) countUpcoming(f *arm64.File, idx int, base arm64.Reg) int {
	count := 0
	limit := idx + 100
	for j := idx; j < len(f.Items) && j < limit; j++ {
		it := &f.Items[j]
		switch it.Kind {
		case arm64.ItemLabel:
			return count
		case arm64.ItemDirective:
			if sectionOf(it) != "" {
				return count
			}
			continue
		}
		in := &it.Inst
		if in.Op.IsMemory() {
			m := in.Mem
			usable := (m.Mode == arm64.AddrBase || m.Mode == arm64.AddrImm) &&
				m.Base.X() == base.X() &&
				!(in.Op == arm64.LDXR || in.Op == arm64.LDAXR || in.Op == arm64.STXR ||
					in.Op == arm64.STLXR || in.Op == arm64.LDAR || in.Op == arm64.STLR)
			if usable && !(r.opts.NoLoads && in.Op.IsLoad() && !loadsX30(in)) {
				count++
			}
		}
		if in.Op.IsBranch() {
			return count
		}
		var dsts [4]arm64.Reg
		for _, d := range in.DestRegs(dsts[:0]) {
			if d.X() == base.X() {
				return count
			}
		}
	}
	return count
}
