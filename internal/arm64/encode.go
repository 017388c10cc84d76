package arm64

import (
	"fmt"
	"math"
)

// Field packing conventions used by Inst for immediate-heavy shapes:
//
//   - bitfield ops (SBFM/BFM/UBFM): Imm = immr, Amount = imms
//   - TBZ/TBNZ: Amount = bit number, Imm = branch byte offset
//   - CCMP/CCMN: Imm = imm5 (imm form; Rm==RegNone), Amount = nzcv
//   - MOVZ/MOVN/MOVK: Imm = imm16, Amount = left shift (0/16/32/48)
//   - FMOV with immediate: Imm = float64 bit pattern, Rn = RegNone
//   - DMB/DSB: Imm = CRm barrier option; MRS/MSR: Imm = packed sysreg
//
// Branch offsets (B/BL/B.cond/CBZ/CBNZ and the TBZ Imm) are signed byte
// offsets from the instruction's own address.

// EncodeError describes an instruction that cannot be encoded. It holds a
// copy, so the instruction handed to Encode need not outlive the call.
type EncodeError struct {
	Inst Inst
	Msg  string
}

func (e *EncodeError) Error() string {
	return fmt.Sprintf("arm64: cannot encode %q: %s", e.Inst.String(), e.Msg)
}

func encErr(i *Inst, format string, args ...any) (uint32, error) {
	return 0, &EncodeError{Inst: *i, Msg: fmt.Sprintf(format, args...)}
}

func sfBit(r Reg) uint32 {
	if r.Is64() {
		return 1
	}
	return 0
}

func fitsSigned(v int64, bits uint) bool {
	return v >= -(1<<(bits-1)) && v < 1<<(bits-1)
}

// Encode produces the 4-byte machine encoding of i. Branch labels must
// already be resolved to byte offsets.
func Encode(i *Inst) (uint32, error) {
	switch i.Op {
	case ADR, ADRP:
		imm := i.Imm
		if i.Op == ADRP {
			if imm&0xfff != 0 {
				return encErr(i, "adrp offset %d not page aligned", imm)
			}
			imm >>= 12
		}
		if !fitsSigned(imm, 21) {
			return encErr(i, "adr offset out of range")
		}
		op := uint32(0)
		if i.Op == ADRP {
			op = 1
		}
		u := uint32(imm) & 0x1fffff
		return op<<31 | (u&3)<<29 | 0x10<<24 | (u>>2)<<5 | i.Rd.EncNum(), nil

	case ADD, ADDS, SUB, SUBS:
		return encodeAddSub(i)

	case AND, ANDS, ORR, ORN, EOR, EON, BIC, BICS:
		return encodeLogical(i)

	case MOVZ, MOVN, MOVK:
		var opc uint32
		switch i.Op {
		case MOVN:
			opc = 0
		case MOVZ:
			opc = 2
		case MOVK:
			opc = 3
		}
		if i.Imm < 0 || i.Imm > 0xffff {
			return encErr(i, "imm16 out of range")
		}
		hw := uint32(i.Amount) / 16
		if i.Amount%16 != 0 || hw > 3 || (!i.Rd.Is64() && hw > 1) {
			return encErr(i, "bad move-wide shift %d", i.Amount)
		}
		return sfBit(i.Rd)<<31 | opc<<29 | 0x25<<23 | hw<<21 | uint32(i.Imm)<<5 | i.Rd.EncNum(), nil

	case SBFM, BFM, UBFM:
		var opc uint32
		switch i.Op {
		case SBFM:
			opc = 0
		case BFM:
			opc = 1
		case UBFM:
			opc = 2
		}
		sf := sfBit(i.Rd)
		n := sf
		maxv := int64(31)
		if sf == 1 {
			maxv = 63
		}
		if i.Imm < 0 || i.Imm > maxv || int64(i.Amount) < 0 || int64(i.Amount) > maxv {
			return encErr(i, "bitfield immediate out of range")
		}
		return sf<<31 | opc<<29 | 0x26<<23 | n<<22 | uint32(i.Imm)<<16 | uint32(i.Amount)<<10 | i.Rn.EncNum()<<5 | i.Rd.EncNum(), nil

	case EXTR:
		sf := sfBit(i.Rd)
		maxv := int64(31)
		if sf == 1 {
			maxv = 63
		}
		if i.Imm < 0 || i.Imm > maxv {
			return encErr(i, "extr lsb out of range")
		}
		return sf<<31 | 0x27<<23 | sf<<22 | i.Rm.EncNum()<<16 | uint32(i.Imm)<<10 | i.Rn.EncNum()<<5 | i.Rd.EncNum(), nil

	case UDIV, SDIV, LSLV, LSRV, ASRV, RORV:
		var opcode uint32
		switch i.Op {
		case UDIV:
			opcode = 0x2
		case SDIV:
			opcode = 0x3
		case LSLV:
			opcode = 0x8
		case LSRV:
			opcode = 0x9
		case ASRV:
			opcode = 0xa
		case RORV:
			opcode = 0xb
		}
		return sfBit(i.Rd)<<31 | 0xd6<<21 | i.Rm.EncNum()<<16 | opcode<<10 | i.Rn.EncNum()<<5 | i.Rd.EncNum(), nil

	case MADD, MSUB, SMADDL, UMADDL, SMULH, UMULH:
		var op31, o0, sf uint32
		ra := i.Ra
		sf = sfBit(i.Rd)
		switch i.Op {
		case MADD:
			op31, o0 = 0, 0
		case MSUB:
			op31, o0 = 0, 1
		case SMADDL:
			op31, o0, sf = 1, 0, 1
		case UMADDL:
			op31, o0, sf = 5, 0, 1
		case SMULH:
			op31, o0, sf = 2, 0, 1
			ra = XZR
		case UMULH:
			op31, o0, sf = 6, 0, 1
			ra = XZR
		}
		return sf<<31 | 0x1b<<24 | op31<<21 | i.Rm.EncNum()<<16 | o0<<15 | ra.EncNum()<<10 | i.Rn.EncNum()<<5 | i.Rd.EncNum(), nil

	case CLZ, CLS, RBIT, REV, REV16, REV32:
		sf := sfBit(i.Rd)
		var opcode uint32
		switch i.Op {
		case RBIT:
			opcode = 0
		case REV16:
			opcode = 1
		case REV32:
			if sf == 0 {
				return encErr(i, "rev32 requires 64-bit registers")
			}
			opcode = 2
		case REV:
			opcode = 2 + sf
		case CLZ:
			opcode = 4
		case CLS:
			opcode = 5
		}
		return sf<<31 | 1<<30 | 0xd6<<21 | opcode<<10 | i.Rn.EncNum()<<5 | i.Rd.EncNum(), nil

	case CSEL, CSINC, CSINV, CSNEG:
		var op, op2 uint32
		switch i.Op {
		case CSEL:
			op, op2 = 0, 0
		case CSINC:
			op, op2 = 0, 1
		case CSINV:
			op, op2 = 1, 0
		case CSNEG:
			op, op2 = 1, 1
		}
		return sfBit(i.Rd)<<31 | op<<30 | 0xd4<<21 | i.Rm.EncNum()<<16 | uint32(i.Cond)<<12 | op2<<10 | i.Rn.EncNum()<<5 | i.Rd.EncNum(), nil

	case CCMP, CCMN:
		op := uint32(1)
		if i.Op == CCMN {
			op = 0
		}
		nzcv := uint32(i.Amount) & 0xf
		base := sfBit(i.Rn)<<31 | op<<30 | 1<<29 | 0xd2<<21 | uint32(i.Cond)<<12 | i.Rn.EncNum()<<5 | nzcv
		if i.Rm == RegNone {
			if i.Imm < 0 || i.Imm > 31 {
				return encErr(i, "ccmp imm5 out of range")
			}
			return base | uint32(i.Imm)<<16 | 1<<11, nil
		}
		return base | i.Rm.EncNum()<<16, nil

	case B, BL:
		if i.Imm%4 != 0 || !fitsSigned(i.Imm/4, 26) {
			return encErr(i, "branch offset %d out of range", i.Imm)
		}
		op := uint32(0)
		if i.Op == BL {
			op = 1
		}
		return op<<31 | 0x5<<26 | uint32(i.Imm/4)&0x3ffffff, nil

	case BCOND:
		if i.Imm%4 != 0 || !fitsSigned(i.Imm/4, 19) {
			return encErr(i, "b.cond offset out of range")
		}
		return 0x54<<24 | (uint32(i.Imm/4)&0x7ffff)<<5 | uint32(i.Cond), nil

	case CBZ, CBNZ:
		if i.Imm%4 != 0 || !fitsSigned(i.Imm/4, 19) {
			return encErr(i, "cbz offset out of range")
		}
		op := uint32(0)
		if i.Op == CBNZ {
			op = 1
		}
		return sfBit(i.Rd)<<31 | 0x1a<<25 | op<<24 | (uint32(i.Imm/4)&0x7ffff)<<5 | i.Rd.EncNum(), nil

	case TBZ, TBNZ:
		if i.Imm%4 != 0 || !fitsSigned(i.Imm/4, 14) {
			return encErr(i, "tbz offset out of range")
		}
		bit := uint32(i.Amount)
		if bit > 63 || (bit > 31 && !i.Rd.Is64()) {
			return encErr(i, "tbz bit number out of range")
		}
		op := uint32(0)
		if i.Op == TBNZ {
			op = 1
		}
		return (bit>>5)<<31 | 0x1b<<25 | op<<24 | (bit&0x1f)<<19 | (uint32(i.Imm/4)&0x3fff)<<5 | i.Rd.EncNum(), nil

	case BR:
		return 0xd61f0000 | i.Rn.EncNum()<<5, nil
	case BLR:
		return 0xd63f0000 | i.Rn.EncNum()<<5, nil
	case RET:
		rn := i.Rn
		if rn == RegNone {
			rn = X30
		}
		return 0xd65f0000 | rn.EncNum()<<5, nil

	case LDR, LDRB, LDRH, LDRSB, LDRSH, LDRSW, STR, STRB, STRH:
		return encodeLoadStore(i)

	case LDP, STP:
		return encodeLoadStorePair(i)

	case LDXR, STXR, LDAXR, STLXR, LDAR, STLR:
		return encodeExclusive(i)

	case FMOV, FADD, FSUB, FMUL, FDIV, FNEG, FABS, FSQRT, FMADD, FMSUB,
		FCMP, FCSEL, FCVT, SCVTF, UCVTF, FCVTZS, FCVTZU:
		return encodeFP(i)

	case NOP:
		return 0xd503201f, nil
	case SVC:
		if i.Imm < 0 || i.Imm > 0xffff {
			return encErr(i, "svc imm16 out of range")
		}
		return 0xd4000001 | uint32(i.Imm)<<5, nil
	case BRK:
		if i.Imm < 0 || i.Imm > 0xffff {
			return encErr(i, "brk imm16 out of range")
		}
		return 0xd4200000 | uint32(i.Imm)<<5, nil
	case DMB:
		return 0xd50330bf | (uint32(i.Imm)&0xf)<<8, nil
	case DSB:
		return 0xd503309f | (uint32(i.Imm)&0xf)<<8, nil
	case ISB:
		return 0xd5033fdf, nil
	case MRS:
		return 0xd5300000 | (uint32(i.Imm)&0x7fff)<<5 | i.Rd.EncNum(), nil
	case MSR:
		return 0xd5100000 | (uint32(i.Imm)&0x7fff)<<5 | i.Rd.EncNum(), nil
	}
	return encErr(i, "unsupported op")
}

func encodeAddSub(i *Inst) (uint32, error) {
	var op uint32
	if i.Op == SUB || i.Op == SUBS {
		op = 1
	}
	var s uint32
	if i.Op == ADDS || i.Op == SUBS {
		s = 1
	}
	sf := sfBit(i.Rd)
	if i.Rd.IsZR() { // cmp/cmn use the source width
		sf = sfBit(i.Rn)
	}
	if i.Rm == RegNone {
		// Immediate form. Register 31 here means SP, so the zero register
		// cannot be written or read by this encoding.
		if i.Rn.IsZR() || (i.Rd.IsZR() && s == 0) {
			return encErr(i, "zero register is not encodable in add/sub immediate (31 means sp)")
		}
		imm := i.Imm
		var sh uint32
		if i.Ext == ExtLSL && i.Amount == 12 {
			sh = 1
		} else if imm >= 0 && imm < 4096 {
			sh = 0
		} else if imm > 0 && imm&0xfff == 0 && imm>>12 < 4096 {
			sh = 1
			imm >>= 12
		}
		if imm < 0 || imm > 4095 {
			return encErr(i, "add/sub immediate %d out of range", i.Imm)
		}
		return sf<<31 | op<<30 | s<<29 | 0x11<<24 | sh<<22 | uint32(imm)<<10 | i.Rn.EncNum()<<5 | i.Rd.EncNum(), nil
	}
	extended := false
	switch i.Ext {
	case ExtUXTB, ExtUXTH, ExtUXTW, ExtUXTX, ExtSXTB, ExtSXTH, ExtSXTW, ExtSXTX:
		extended = true
	case ExtNone, ExtLSL:
		// SP operands force the extended form (LSL means UXTX there).
		if i.Rn.IsSP() || i.Rd.IsSP() {
			extended = true
		}
	}
	if extended {
		ext := i.Ext
		if ext == ExtNone || ext == ExtLSL {
			ext = ExtUXTX
		}
		opt, ok := ext.option()
		if !ok {
			return encErr(i, "bad extend %v", i.Ext)
		}
		amt := uint32(0)
		if i.Amount > 0 {
			amt = uint32(i.Amount)
		}
		if amt > 4 {
			return encErr(i, "extend amount %d out of range", amt)
		}
		return sf<<31 | op<<30 | s<<29 | 0xb<<24 | 1<<21 | i.Rm.EncNum()<<16 | opt<<13 | amt<<10 | i.Rn.EncNum()<<5 | i.Rd.EncNum(), nil
	}
	// Shifted register form.
	var shift uint32
	switch i.Ext {
	case ExtNone, ExtLSL:
		shift = 0
	case ExtLSR:
		shift = 1
	case ExtASR:
		shift = 2
	default:
		return encErr(i, "bad shift %v for add/sub", i.Ext)
	}
	amt := uint32(i.Amount)
	if i.Amount < 0 {
		amt = 0
	}
	if amt > 63 || (sf == 0 && amt > 31) {
		return encErr(i, "shift amount out of range")
	}
	return sf<<31 | op<<30 | s<<29 | 0xb<<24 | shift<<22 | i.Rm.EncNum()<<16 | amt<<10 | i.Rn.EncNum()<<5 | i.Rd.EncNum(), nil
}

func encodeLogical(i *Inst) (uint32, error) {
	var opc, n uint32
	switch i.Op {
	case AND:
		opc = 0
	case ORR:
		opc = 1
	case EOR:
		opc = 2
	case ANDS:
		opc = 3
	case BIC:
		opc, n = 0, 1
	case ORN:
		opc, n = 1, 1
	case EON:
		opc, n = 2, 1
	case BICS:
		opc, n = 3, 1
	}
	sf := sfBit(i.Rd)
	if i.Rd.IsZR() {
		sf = sfBit(i.Rn)
	}
	if i.Rm == RegNone {
		if n == 1 {
			return encErr(i, "no immediate form")
		}
		nn, immr, imms, ok := EncodeBitmask(uint64(i.Imm), sf == 1)
		if !ok {
			return encErr(i, "value %#x is not a valid bitmask immediate", uint64(i.Imm))
		}
		return sf<<31 | opc<<29 | 0x24<<23 | nn<<22 | immr<<16 | imms<<10 | i.Rn.EncNum()<<5 | i.Rd.EncNum(), nil
	}
	var shift uint32
	switch i.Ext {
	case ExtNone, ExtLSL:
		shift = 0
	case ExtLSR:
		shift = 1
	case ExtASR:
		shift = 2
	case ExtROR:
		shift = 3
	default:
		return encErr(i, "bad shift %v for logical op", i.Ext)
	}
	amt := uint32(i.Amount)
	if i.Amount < 0 {
		amt = 0
	}
	if amt > 63 || (sf == 0 && amt > 31) {
		return encErr(i, "shift amount out of range")
	}
	return sf<<31 | opc<<29 | 0xa<<24 | shift<<22 | n<<21 | i.Rm.EncNum()<<16 | amt<<10 | i.Rn.EncNum()<<5 | i.Rd.EncNum(), nil
}

// memSizeOpc returns (size, V, opc, scale) for a single-register load/store.
func memSizeOpc(i *Inst) (size, v, opc uint32, scale uint, err error) {
	rt := i.Rd
	if rt.IsFP() {
		v = 1
		switch rt.FPBits() {
		case 8:
			size, scale = 0, 0
		case 16:
			size, scale = 1, 1
		case 32:
			size, scale = 2, 2
		case 64:
			size, scale = 3, 3
		case 128:
			size, scale = 0, 4
		}
		if i.Op == LDR {
			opc = 1
		} else {
			opc = 0
		}
		if rt.FPBits() == 128 {
			opc |= 2
		}
		return
	}
	switch i.Op {
	case LDRB, STRB:
		size, scale = 0, 0
	case LDRH, STRH:
		size, scale = 1, 1
	case LDRSB:
		size, scale = 0, 0
	case LDRSH:
		size, scale = 1, 1
	case LDRSW:
		size, scale = 2, 2
	case LDR, STR:
		if rt.Is64() {
			size, scale = 3, 3
		} else {
			size, scale = 2, 2
		}
	}
	switch i.Op {
	case STR, STRB, STRH:
		opc = 0
	case LDR, LDRB, LDRH:
		opc = 1
	case LDRSW:
		opc = 2
	case LDRSB, LDRSH:
		if rt.Is64() {
			opc = 2
		} else {
			opc = 3
		}
	}
	return
}

func encodeLoadStore(i *Inst) (uint32, error) {
	size, v, opc, scale, err := memSizeOpc(i)
	if err != nil {
		return 0, err
	}
	rt := i.Rd.EncNum()
	rn := i.Mem.Base.EncNum()
	base := size<<30 | 0x7<<27 | v<<26
	switch i.Mem.Mode {
	case AddrLiteral:
		// LDR (literal)
		if !i.Op.IsLoad() {
			return encErr(i, "literal addressing requires a load")
		}
		var lopc uint32
		switch {
		case v == 1 && scale == 2:
			lopc = 0
		case v == 1 && scale == 3:
			lopc = 1
		case v == 1 && scale == 4:
			lopc = 2
		case i.Op == LDRSW:
			lopc = 2
		case i.Op == LDR && i.Rd.Is64():
			lopc = 1
		case i.Op == LDR:
			lopc = 0
		default:
			return encErr(i, "op has no literal form")
		}
		if i.Imm%4 != 0 || !fitsSigned(i.Imm/4, 19) {
			return encErr(i, "literal offset out of range")
		}
		return lopc<<30 | 0x3<<27 | v<<26 | (uint32(i.Imm/4)&0x7ffff)<<5 | rt, nil

	case AddrBase, AddrImm:
		imm := int64(i.Mem.Imm)
		if imm >= 0 && imm%(1<<scale) == 0 && imm>>scale < 4096 {
			// Unsigned scaled offset.
			return base | 1<<24 | opc<<22 | uint32(imm>>scale)<<10 | rn<<5 | rt, nil
		}
		if !fitsSigned(imm, 9) {
			return encErr(i, "load/store offset %d out of range", imm)
		}
		// Unscaled signed (LDUR/STUR).
		return base | opc<<22 | (uint32(imm)&0x1ff)<<12 | rn<<5 | rt, nil

	case AddrPre, AddrPost:
		imm := int64(i.Mem.Imm)
		if !fitsSigned(imm, 9) {
			return encErr(i, "pre/post index offset %d out of range", imm)
		}
		idx := uint32(1) // post
		if i.Mem.Mode == AddrPre {
			idx = 3
		}
		return base | opc<<22 | (uint32(imm)&0x1ff)<<12 | idx<<10 | rn<<5 | rt, nil

	case AddrReg, AddrRegUXTW, AddrRegSXTW, AddrRegSXTX:
		var opt uint32
		switch i.Mem.Mode {
		case AddrReg:
			opt = 3 // LSL
		case AddrRegUXTW:
			opt = 2
		case AddrRegSXTW:
			opt = 6
		case AddrRegSXTX:
			opt = 7
		}
		var sbit uint32
		switch {
		case i.Mem.Amount <= 0:
			sbit = 0
		case uint(i.Mem.Amount) == scale:
			sbit = 1
		default:
			return encErr(i, "register-offset shift %d must be 0 or %d", i.Mem.Amount, scale)
		}
		return base | opc<<22 | 1<<21 | i.Mem.Index.EncNum()<<16 | opt<<13 | sbit<<12 | 2<<10 | rn<<5 | rt, nil
	}
	return encErr(i, "bad addressing mode")
}

func encodeLoadStorePair(i *Inst) (uint32, error) {
	var opc, v uint32
	var scale uint
	rt := i.Rd
	switch {
	case rt.IsFP() && rt.FPBits() == 32:
		opc, v, scale = 0, 1, 2
	case rt.IsFP() && rt.FPBits() == 64:
		opc, v, scale = 1, 1, 3
	case rt.IsFP() && rt.FPBits() == 128:
		opc, v, scale = 2, 1, 4
	case rt.Is64():
		opc, v, scale = 2, 0, 3
	default:
		opc, v, scale = 0, 0, 2
	}
	l := uint32(0)
	if i.Op == LDP {
		l = 1
	}
	var mode uint32
	switch i.Mem.Mode {
	case AddrBase, AddrImm:
		mode = 2
	case AddrPost:
		mode = 1
	case AddrPre:
		mode = 3
	default:
		return encErr(i, "bad pair addressing mode")
	}
	imm := int64(i.Mem.Imm)
	if imm%(1<<scale) != 0 || !fitsSigned(imm>>scale, 7) {
		return encErr(i, "pair offset %d out of range", imm)
	}
	imm7 := uint32(imm>>scale) & 0x7f
	return opc<<30 | 0x5<<27 | v<<26 | mode<<23 | l<<22 | imm7<<15 | i.Rm.EncNum()<<10 | i.Mem.Base.EncNum()<<5 | i.Rd.EncNum(), nil
}

func encodeExclusive(i *Inst) (uint32, error) {
	size := uint32(3)
	if !i.Rd.Is64() {
		size = 2
	}
	var o2, l, o1, o0 uint32
	rs := uint32(31)
	rt2 := uint32(31)
	rn := i.Rn.EncNum()
	rt := i.Rd.EncNum()
	switch i.Op {
	case LDXR:
		o2, l, o0 = 0, 1, 0
	case LDAXR:
		o2, l, o0 = 0, 1, 1
	case STXR, STLXR:
		o2, l = 0, 0
		if i.Op == STLXR {
			o0 = 1
		}
		rs = i.Rm.EncNum() // status register
		if !i.Rd.Is64() {
			size = 2
		} else {
			size = 3
		}
	case LDAR:
		o2, l, o0 = 1, 1, 1
	case STLR:
		o2, l, o0 = 1, 0, 1
	}
	return size<<30 | 0x8<<24 | o2<<23 | l<<22 | o1<<21 | rs<<16 | o0<<15 | rt2<<10 | rn<<5 | rt, nil
}

func fpType(r Reg) (uint32, error) {
	switch r.FPBits() {
	case 32:
		return 0, nil
	case 64:
		return 1, nil
	case 16:
		return 3, nil
	}
	return 0, fmt.Errorf("register %v has no fp type", r)
}

func encodeFP(i *Inst) (uint32, error) {
	switch i.Op {
	case FADD, FSUB, FMUL, FDIV:
		ft, err := fpType(i.Rd)
		if err != nil {
			return encErr(i, "%v", err)
		}
		var opcode uint32
		switch i.Op {
		case FMUL:
			opcode = 0
		case FDIV:
			opcode = 1
		case FADD:
			opcode = 2
		case FSUB:
			opcode = 3
		}
		return 0x1e<<24 | ft<<22 | 1<<21 | i.Rm.EncNum()<<16 | opcode<<12 | 2<<10 | i.Rn.EncNum()<<5 | i.Rd.EncNum(), nil

	case FMADD, FMSUB:
		ft, err := fpType(i.Rd)
		if err != nil {
			return encErr(i, "%v", err)
		}
		o0 := uint32(0)
		if i.Op == FMSUB {
			o0 = 1
		}
		return 0x1f<<24 | ft<<22 | i.Rm.EncNum()<<16 | o0<<15 | i.Ra.EncNum()<<10 | i.Rn.EncNum()<<5 | i.Rd.EncNum(), nil

	case FNEG, FABS, FSQRT, FCVT:
		ft, err := fpType(i.Rn)
		if err != nil {
			return encErr(i, "%v", err)
		}
		var opcode uint32
		switch i.Op {
		case FABS:
			opcode = 1
		case FNEG:
			opcode = 2
		case FSQRT:
			opcode = 3
		case FCVT:
			dt, err := fpType(i.Rd)
			if err != nil {
				return encErr(i, "%v", err)
			}
			opcode = 0x4 | dt
		}
		return 0x1e<<24 | ft<<22 | 1<<21 | opcode<<15 | 1<<14 | i.Rn.EncNum()<<5 | i.Rd.EncNum(), nil

	case FCMP:
		ft, err := fpType(i.Rn)
		if err != nil {
			return encErr(i, "%v", err)
		}
		opcode2 := uint32(0)
		rm := uint32(0)
		if i.Rm == RegNone {
			opcode2 = 8 // compare with 0.0
		} else {
			rm = i.Rm.EncNum()
		}
		return 0x1e<<24 | ft<<22 | 1<<21 | rm<<16 | 1<<13 | i.Rn.EncNum()<<5 | opcode2, nil

	case FCSEL:
		ft, err := fpType(i.Rd)
		if err != nil {
			return encErr(i, "%v", err)
		}
		return 0x1e<<24 | ft<<22 | 1<<21 | i.Rm.EncNum()<<16 | uint32(i.Cond)<<12 | 3<<10 | i.Rn.EncNum()<<5 | i.Rd.EncNum(), nil

	case SCVTF, UCVTF, FCVTZS, FCVTZU:
		var rmode, opcode uint32
		var gpr, fpr Reg
		switch i.Op {
		case SCVTF:
			rmode, opcode = 0, 2
			gpr, fpr = i.Rn, i.Rd
		case UCVTF:
			rmode, opcode = 0, 3
			gpr, fpr = i.Rn, i.Rd
		case FCVTZS:
			rmode, opcode = 3, 0
			gpr, fpr = i.Rd, i.Rn
		case FCVTZU:
			rmode, opcode = 3, 1
			gpr, fpr = i.Rd, i.Rn
		}
		ft, err := fpType(fpr)
		if err != nil {
			return encErr(i, "%v", err)
		}
		sf := sfBit(gpr)
		return sf<<31 | 0x1e<<24 | ft<<22 | 1<<21 | rmode<<19 | opcode<<16 | i.Rn.EncNum()<<5 | i.Rd.EncNum(), nil

	case FMOV:
		switch {
		case i.Rn == RegNone:
			// Immediate form.
			ft, err := fpType(i.Rd)
			if err != nil {
				return encErr(i, "%v", err)
			}
			imm8, ok := encodeFPImm8(uint64(i.Imm))
			if !ok {
				f := math.Float64frombits(uint64(i.Imm))
				return encErr(i, "%v is not an fmov immediate", f)
			}
			return 0x1e<<24 | ft<<22 | 1<<21 | imm8<<13 | 1<<12 | i.Rd.EncNum(), nil
		case i.Rd.IsFP() && i.Rn.IsFP():
			ft, err := fpType(i.Rd)
			if err != nil {
				return encErr(i, "%v", err)
			}
			return 0x1e<<24 | ft<<22 | 1<<21 | 1<<14 | i.Rn.EncNum()<<5 | i.Rd.EncNum(), nil
		case i.Rd.IsGP(): // fp -> gpr
			ft, err := fpType(i.Rn)
			if err != nil {
				return encErr(i, "%v", err)
			}
			sf := sfBit(i.Rd)
			return sf<<31 | 0x1e<<24 | ft<<22 | 1<<21 | 6<<16 | i.Rn.EncNum()<<5 | i.Rd.EncNum(), nil
		default: // gpr -> fp
			ft, err := fpType(i.Rd)
			if err != nil {
				return encErr(i, "%v", err)
			}
			sf := sfBit(i.Rn)
			return sf<<31 | 0x1e<<24 | ft<<22 | 1<<21 | 7<<16 | i.Rn.EncNum()<<5 | i.Rd.EncNum(), nil
		}
	}
	return encErr(i, "unsupported fp op")
}
