// Lowering: every instruction is rebuilt, once, into the form exec runs.
//
// A decoded arm64.Inst names its operands as architectural registers
// (x3, wzr, sp) and leaves the operand form — immediate, shifted or
// extended register, addressing mode — to be rediscovered on every
// execution. lower resolves all of that when the instruction is fetched
// or its block is decoded:
//
//   - Integer operands become indices into the CPU's one register array
//     (x0..x30, sp, a zero entry that xzr/wzr reads, a sink entry that
//     xzr/wzr writes land in) plus a view shift: a read is r[i] & ^0>>w,
//     so a w-register read is the low half, and zero-extending operand-2
//     forms (uxtb/uxth/uxtw) fold into the same mask.
//   - Immediates are precomputed: branch and literal targets are absolute,
//     movz/movn/adr/adrp are one constant.
//   - The handler code names op × operand form (add with an immediate or
//     a left-shifted register, ldr at base+offset or base+index, b.cond,
//     cbz, ...), so exec makes one switch per instruction. Rare forms
//     share a handler that switches on op.
//   - The retire metadata (scoreboard slots, latency class, branch kind)
//     is stored alongside.
//
// The slot holds no arm64.Inst and no pointer; both executors — the
// per-step interpreter and the predecoded blocks — run slots lowered here.
package emu

import "lfi/internal/arm64"

// handler is a slot's executor code, chosen when it is lowered.
type handler uint8

const (
	hNone  handler = iota // not lowered yet (per-step slot cache)
	hBad                  // undecodable word: TrapUndefined at fetch
	hUndef                // decodable but not executable: TrapUndefined at exec

	hMovI // rd = imm (movz, movn, adr, adrp)
	hMovK
	// Add/sub/logical whose operand 2 is an immediate, or a register
	// shifted left or zero-extended then shifted: rm<<amt | imm, with the
	// absent half zero.
	hAdd
	hSub
	hAdds
	hSubs
	hAnd
	hOrr
	hEor
	hALU // every other add/sub/logical form: switch on op and extend
	hBitfield
	hExtr
	hShiftV
	hMAdd // madd, msub
	hMulL // smaddl, umaddl
	hMulH // smulh, umulh
	hDiv  // udiv, sdiv
	hBits // clz, cls, rbit, rev, rev16, rev32
	hCSel // csel, csinc, csinv, csneg
	hCCmp // ccmp, ccmn

	hB
	hBL
	hBCond
	hCBZ
	hCBNZ
	hTBZ
	hTBNZ
	hBR // br, ret
	hBLR

	// Integer loads and stores of at most 8 bytes without writeback, at
	// rn + imm + rm<<amt: an immediate offset or literal (rm is the zero
	// entry, and a literal's rn too), or a shifted or zero-extended
	// register index (imm is 0).
	hLdr
	hStr
	hMem  // every other single-register load/store: FP, q, writeback
	hPair // ldp, stp
	hExcl // exclusives, load-acquire, store-release

	hFMovI // fmov from an immediate
	hFCmpZ // fcmp against #0.0
	hFP    // every other FP op: switch on op

	hNop // nop and barriers: timing only
	hSVC
	hBRK
	hMRS
	hMSR
)

// Register-file layout: x0..x30 are entries 0..30.
const (
	regSP   = 31 // the stack pointer
	regZero = 32 // xzr/wzr as a source: always zero, never written
	regSink = 33 // xzr/wzr as a destination: written, never read
)

// FP operand flags in instSlot.fp.
const (
	fpD uint8 = 1 << iota
	fpN
	fpM
	fpA
)

// instSlot is one lowered instruction. Integer operands are register-file
// indices with a view shift; FP operands (flagged in fp) are v-register
// numbers with the view's width in bits. Which fields an instruction uses
// is the handler's business; see lower.
type instSlot struct {
	pc   uint64 // the instruction's address
	imm  uint64 // lowered immediate, absolute target or address offset
	op   arm64.Op
	h    handler
	rd   uint8
	rn   uint8 // also the memory base
	rm   uint8 // also the memory index, ldp/stp's second register, stxr's status
	ra   uint8 // also the old value of a read-modify-write destination
	wd   uint8
	wn   uint8
	wm   uint8
	wa   uint8
	fp   uint8          // fpD|fpN|fpM|fpA: which operands are FP/SIMD views
	ext  arm64.Extend   // operand-2 shift or extend (hALU)
	amt  uint8          // shift/extend amount, tested bit, ccmp nzcv, bitfield imms
	cond arm64.Cond     // b.cond, csel, ccmp, fcsel
	size uint8          // access size in bytes
	sx   uint8          // after a load, sign-extend by shifting sx left then back
	mode arm64.AddrMode // hMem, hPair
	meta retireMeta
}

// regSrc returns the register-file index and view shift a read of the
// integer register r uses.
func regSrc(r arm64.Reg) (uint8, uint8) {
	var w uint8
	if r.Is32() {
		w = 32
	}
	switch {
	case r == arm64.RegNone || r.IsZR():
		return regZero, w
	case r.IsSP():
		return regSP, w
	}
	return uint8(r.Num()), w
}

// regDst is regSrc for a write: the zero register writes to the sink.
func regDst(r arm64.Reg) (uint8, uint8) {
	i, w := regSrc(r)
	if i == regZero {
		i = regSink
	}
	return i, w
}

// operand lowers r as operand flag f: an FP view becomes its v number and
// width, an integer register its source or destination index.
func (s *instSlot) operand(r arm64.Reg, f uint8, dst bool) (uint8, uint8) {
	if r.IsFP() {
		s.fp |= f
		return uint8(r.Num()), uint8(r.FPBits())
	}
	if dst {
		return regDst(r)
	}
	return regSrc(r)
}

// rdIsSource reports whether op reads its Rd operand and never writes it.
func rdIsSource(op arm64.Op) bool {
	switch op {
	case arm64.STR, arm64.STRB, arm64.STRH, arm64.STP, arm64.STXR, arm64.STLXR,
		arm64.STLR, arm64.CBZ, arm64.CBNZ, arm64.TBZ, arm64.TBNZ, arm64.MSR:
		return true
	}
	return false
}

// lower fills s with i, located at pc. srcbuf and dstbuf are scratch for
// the retire metadata and are returned for reuse.
func lower(i *arm64.Inst, pc uint64, s *instSlot, srcbuf, dstbuf []arm64.Reg) ([]arm64.Reg, []arm64.Reg) {
	*s = instSlot{pc: pc, op: i.Op, imm: uint64(i.Imm), ext: i.Ext, cond: i.Cond}
	if i.Amount > 0 {
		s.amt = uint8(i.Amount)
	}
	s.rd, s.wd = s.operand(i.Rd, fpD, !rdIsSource(i.Op))
	s.rn, s.wn = s.operand(i.Rn, fpN, false)
	s.rm, s.wm = s.operand(i.Rm, fpM, i.Op == arm64.STXR || i.Op == arm64.STLXR || i.Op == arm64.LDP)
	s.ra, s.wa = s.operand(i.Ra, fpA, false)
	srcbuf, dstbuf = buildMeta(i, &s.meta, srcbuf, dstbuf)

	switch i.Op {
	case arm64.ADR:
		s.h, s.imm = hMovI, pc+uint64(i.Imm)
	case arm64.ADRP:
		s.h, s.imm = hMovI, (pc&^0xfff)+uint64(i.Imm)
	case arm64.MOVZ:
		s.h, s.imm = hMovI, uint64(i.Imm)<<uint(i.Amount)
	case arm64.MOVN:
		s.h, s.imm = hMovI, ^(uint64(i.Imm) << uint(i.Amount))
	case arm64.MOVK:
		s.h, s.amt = hMovK, uint8(i.Amount)
		s.ra, s.wa = regSrc(i.Rd)

	case arm64.ADD, arm64.ADDS, arm64.SUB, arm64.SUBS,
		arm64.AND, arm64.ANDS, arm64.ORR, arm64.ORN, arm64.EOR, arm64.EON, arm64.BIC, arm64.BICS:
		lowerALU(i, s)

	case arm64.SBFM, arm64.BFM, arm64.UBFM:
		s.h, s.amt = hBitfield, uint8(i.Amount)
		s.ra, s.wa = regSrc(i.Rd)
	case arm64.EXTR:
		s.h = hExtr
	case arm64.UDIV, arm64.SDIV:
		s.h = hDiv
	case arm64.LSLV, arm64.LSRV, arm64.ASRV, arm64.RORV:
		s.h = hShiftV
	case arm64.MADD, arm64.MSUB:
		s.h = hMAdd
	case arm64.SMADDL, arm64.UMADDL:
		s.h = hMulL
	case arm64.SMULH, arm64.UMULH:
		s.h = hMulH
	case arm64.CLZ, arm64.CLS, arm64.RBIT, arm64.REV, arm64.REV16, arm64.REV32:
		s.h = hBits
	case arm64.CSEL, arm64.CSINC, arm64.CSINV, arm64.CSNEG:
		s.h = hCSel
	case arm64.CCMP, arm64.CCMN:
		// The immediate form compares with imm, the register form with
		// rm | 0: the zero entry stands in for whichever is absent.
		s.h, s.amt = hCCmp, uint8(i.Amount)
		if i.Rm != arm64.RegNone {
			s.imm = 0
		}

	case arm64.B:
		s.h, s.imm = hB, pc+uint64(i.Imm)
	case arm64.BL:
		s.h, s.imm = hBL, pc+uint64(i.Imm)
	case arm64.BCOND:
		s.h, s.imm = hBCond, pc+uint64(i.Imm)
	case arm64.CBZ:
		s.h, s.imm = hCBZ, pc+uint64(i.Imm)
	case arm64.CBNZ:
		s.h, s.imm = hCBNZ, pc+uint64(i.Imm)
	case arm64.TBZ:
		s.h, s.imm, s.amt = hTBZ, pc+uint64(i.Imm), uint8(i.Amount)
	case arm64.TBNZ:
		s.h, s.imm, s.amt = hTBNZ, pc+uint64(i.Imm), uint8(i.Amount)
	case arm64.BR, arm64.RET:
		s.h = hBR
	case arm64.BLR:
		s.h = hBLR

	case arm64.LDR, arm64.LDRB, arm64.LDRH, arm64.LDRSB, arm64.LDRSH, arm64.LDRSW,
		arm64.STR, arm64.STRB, arm64.STRH:
		lowerLoadStore(i, pc, s)
	case arm64.LDP, arm64.STP:
		s.h = hPair
		lowerAddr(i, pc, s)
		switch {
		case i.Rd.IsFP():
			s.size = uint8(i.Rd.FPBits() / 8)
		case i.Rd.Is64():
			s.size = 8
		default:
			s.size = 4
		}
	case arm64.LDXR, arm64.LDAXR, arm64.STXR, arm64.STLXR, arm64.LDAR, arm64.STLR:
		s.h, s.size = hExcl, 4
		if i.Rd.Is64() {
			s.size = 8
		}

	case arm64.FMOV:
		s.h = hFP
		if i.Rn == arm64.RegNone {
			s.h = hFMovI
		}
	case arm64.FCMP:
		s.h = hFP
		if i.Rm == arm64.RegNone {
			s.h = hFCmpZ
		}
	case arm64.FADD, arm64.FSUB, arm64.FMUL, arm64.FDIV, arm64.FNEG, arm64.FABS,
		arm64.FSQRT, arm64.FMADD, arm64.FMSUB, arm64.FCSEL, arm64.FCVT,
		arm64.SCVTF, arm64.UCVTF, arm64.FCVTZS, arm64.FCVTZU:
		s.h = hFP

	case arm64.NOP, arm64.DMB, arm64.DSB, arm64.ISB:
		s.h = hNop
	case arm64.SVC:
		s.h = hSVC
	case arm64.BRK:
		s.h = hBRK
	case arm64.MRS:
		s.h = hMRS
	case arm64.MSR:
		s.h = hMSR
	default:
		s.h = hUndef
	}
	return srcbuf, dstbuf
}

// lowerALU picks the add/sub/logical handler for i's operand form.
func lowerALU(i *arm64.Inst, s *instSlot) {
	// The operation width: a zero-register destination takes Rn's.
	s.wd = 32
	if i.Rd.Is64() || (i.Rd.IsZR() && i.Rn.Is64()) {
		s.wd = 0
	}
	imm := i.Rm == arm64.RegNone
	// A register operand 2 that is shifted left or zero-extended (then
	// shifted) is one masked read and a shift: fold the extension into
	// the read's mask.
	lsl := false
	if !imm && s.amt < 64 {
		lsl = true
		switch i.Ext {
		case arm64.ExtNone, arm64.ExtLSL, arm64.ExtUXTX, arm64.ExtSXTX:
		case arm64.ExtUXTW:
			s.wm = max(s.wm, 32)
		case arm64.ExtUXTH:
			s.wm = max(s.wm, 48)
		case arm64.ExtUXTB:
			s.wm = max(s.wm, 56)
		default:
			lsl = false
		}
	}
	if !imm {
		s.imm = 0
	}
	s.h = hALU
	if imm || lsl {
		switch i.Op {
		case arm64.ADD:
			s.h = hAdd
		case arm64.SUB:
			s.h = hSub
		case arm64.ADDS:
			s.h = hAdds
		case arm64.SUBS:
			s.h = hSubs
		case arm64.AND:
			s.h = hAnd
		case arm64.ORR:
			s.h = hOrr
		case arm64.EOR:
			s.h = hEor
		}
	}
}

// lowerAddr lowers i's memory operand: the base into rn, the index into
// rm, and the offset into imm. A literal becomes an absolute address off
// the zero entry.
func lowerAddr(i *arm64.Inst, pc uint64, s *instSlot) {
	m := &i.Mem
	s.rn, s.wn = regSrc(m.Base)
	s.mode = m.Mode
	s.imm = uint64(int64(m.Imm))
	switch m.Mode {
	case arm64.AddrBase:
		s.mode, s.imm = arm64.AddrImm, 0
	case arm64.AddrLiteral:
		s.mode, s.rn, s.wn = arm64.AddrImm, regZero, 0
		s.imm = pc + uint64(i.Imm)
	case arm64.AddrReg, arm64.AddrRegUXTW, arm64.AddrRegSXTW, arm64.AddrRegSXTX:
		s.rm, s.wm = regSrc(m.Index)
		s.imm, s.amt = 0, 0
		if m.Amount > 0 {
			s.amt = uint8(m.Amount)
		}
		if m.Mode == arm64.AddrRegUXTW {
			s.wm = max(s.wm, 32)
		}
	}
}

// lowerLoadStore picks the single-register load/store handler.
func lowerLoadStore(i *arm64.Inst, pc uint64, s *instSlot) {
	lowerAddr(i, pc, s)
	s.size = uint8(memAccessSize(i))
	switch i.Op {
	case arm64.LDRSB:
		s.sx = 56
	case arm64.LDRSH:
		s.sx = 48
	case arm64.LDRSW:
		s.sx = 32
	}
	s.h = hMem
	switch s.mode {
	case arm64.AddrImm, arm64.AddrReg, arm64.AddrRegUXTW, arm64.AddrRegSXTX:
		if !i.Rd.IsFP() && s.amt < 64 {
			s.h = hLdr
			if i.Op.IsStore() {
				s.h = hStr
			}
		}
	}
}

// memAccessSize returns the access size in bytes for a load/store op.
func memAccessSize(i *arm64.Inst) int {
	rt := i.Rd
	if rt.IsFP() {
		return rt.FPBits() / 8
	}
	switch i.Op {
	case arm64.LDRB, arm64.STRB, arm64.LDRSB:
		return 1
	case arm64.LDRH, arm64.STRH, arm64.LDRSH:
		return 2
	case arm64.LDRSW:
		return 4
	default:
		if rt.Is64() {
			return 8
		}
		return 4
	}
}
