package arm64

import "fmt"

// DecodeError reports an undecodable instruction word.
type DecodeError struct {
	Word uint32
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("arm64: cannot decode %#08x", e.Word)
}

func bit(w uint32, n uint) uint32        { return (w >> n) & 1 }
func field(w uint32, hi, lo uint) uint32 { return (w >> lo) & ((1 << (hi - lo + 1)) - 1) }

func signExtend(v uint32, bits uint) int64 {
	shift := 64 - bits
	return int64(uint64(v)<<shift) >> shift
}

func gpReg(n uint32, is64 bool, spOK bool) Reg {
	if n == 31 {
		if spOK {
			if is64 {
				return SP
			}
			return WSP
		}
		if is64 {
			return XZR
		}
		return WZR
	}
	if is64 {
		return XReg(int(n))
	}
	return WReg(int(n))
}

func fpRegType(n, ftype uint32) (Reg, bool) {
	switch ftype {
	case 0:
		return SReg(int(n)), true
	case 1:
		return DReg(int(n)), true
	case 3:
		return HReg(int(n)), true
	}
	return RegNone, false
}

// Decode decodes one 4-byte instruction word. Branch targets come back as
// byte offsets in Imm (Label is left empty).
func Decode(w uint32) (Inst, error) {
	var i Inst
	err := DecodeInto(w, &i)
	return i, err
}

// DecodeInto is Decode filling in *i (Inst{Op: BAD} on error), for
// callers that decode a whole text and would copy every result.
func DecodeInto(w uint32, i *Inst) error {
	*i = Inst{Rd: RegNone, Rn: RegNone, Rm: RegNone, Ra: RegNone, Amount: -1}
	bad := func() error { *i = Inst{Op: BAD}; return &DecodeError{Word: w} }

	switch {
	case field(w, 28, 24) == 0x10: // ADR/ADRP
		imm := signExtend(field(w, 23, 5)<<2|field(w, 30, 29), 21)
		if bit(w, 31) == 1 {
			i.Op = ADRP
			imm <<= 12
		} else {
			i.Op = ADR
		}
		i.Rd = gpReg(field(w, 4, 0), true, false)
		i.Imm = imm
		return nil

	case field(w, 28, 24) == 0x11: // add/sub immediate
		op, s := bit(w, 30), bit(w, 29)
		is64 := bit(w, 31) == 1
		sh := field(w, 23, 22)
		if sh > 1 {
			return bad()
		}
		imm := int64(field(w, 21, 10))
		if sh == 1 {
			imm <<= 12
		}
		i.Op = [4]Op{ADD, ADDS, SUB, SUBS}[op<<1|s]
		i.Rd = gpReg(field(w, 4, 0), is64, s == 0)
		i.Rn = gpReg(field(w, 9, 5), is64, true)
		i.Imm = imm
		i.Ext = ExtNone
		return nil

	case field(w, 28, 23) == 0x24: // logical immediate
		opc := field(w, 30, 29)
		is64 := bit(w, 31) == 1
		n, immr, imms := bit(w, 22), field(w, 21, 16), field(w, 15, 10)
		if !is64 && n == 1 {
			return bad()
		}
		v, ok := DecodeBitmask(n, immr, imms, is64)
		if !ok {
			return bad()
		}
		i.Op = [4]Op{AND, ORR, EOR, ANDS}[opc]
		i.Rd = gpReg(field(w, 4, 0), is64, opc != 3)
		i.Rn = gpReg(field(w, 9, 5), is64, false)
		i.Imm = int64(v)
		return nil

	case field(w, 28, 23) == 0x25: // move wide
		opc := field(w, 30, 29)
		is64 := bit(w, 31) == 1
		hw := field(w, 22, 21)
		if opc == 1 || (!is64 && hw > 1) {
			return bad()
		}
		i.Op = [4]Op{MOVN, BAD, MOVZ, MOVK}[opc]
		i.Rd = gpReg(field(w, 4, 0), is64, false)
		i.Imm = int64(field(w, 20, 5))
		i.Amount = int8(hw * 16)
		return nil

	case field(w, 28, 23) == 0x26: // bitfield
		opc := field(w, 30, 29)
		is64 := bit(w, 31) == 1
		if opc == 3 || bit(w, 22) != bit(w, 31) {
			return bad()
		}
		if !is64 && (bit(w, 21) == 1 || bit(w, 15) == 1) {
			return bad() // 32-bit immr/imms must be < 32
		}
		i.Op = [3]Op{SBFM, BFM, UBFM}[opc]
		i.Rd = gpReg(field(w, 4, 0), is64, false)
		i.Rn = gpReg(field(w, 9, 5), is64, false)
		i.Imm = int64(field(w, 21, 16))
		i.Amount = int8(field(w, 15, 10))
		return nil

	case field(w, 28, 23) == 0x27: // extract
		is64 := bit(w, 31) == 1
		if bit(w, 30) != 0 || bit(w, 29) != 0 || bit(w, 21) != 0 ||
			bit(w, 22) != bit(w, 31) || (!is64 && bit(w, 15) == 1) {
			return bad()
		}
		i.Op = EXTR
		i.Rd = gpReg(field(w, 4, 0), is64, false)
		i.Rn = gpReg(field(w, 9, 5), is64, false)
		i.Rm = gpReg(field(w, 20, 16), is64, false)
		i.Imm = int64(field(w, 15, 10))
		return nil

	case field(w, 30, 26) == 0x05: // B/BL
		if bit(w, 31) == 1 {
			i.Op = BL
		} else {
			i.Op = B
		}
		i.Imm = signExtend(field(w, 25, 0), 26) * 4
		return nil

	case field(w, 31, 24) == 0x54: // B.cond
		if bit(w, 4) == 1 {
			return bad()
		}
		i.Op = BCOND
		i.Cond = Cond(field(w, 3, 0))
		i.Imm = signExtend(field(w, 23, 5), 19) * 4
		return nil

	case field(w, 30, 25) == 0x1a: // CBZ/CBNZ
		is64 := bit(w, 31) == 1
		if bit(w, 24) == 1 {
			i.Op = CBNZ
		} else {
			i.Op = CBZ
		}
		i.Rd = gpReg(field(w, 4, 0), is64, false)
		i.Imm = signExtend(field(w, 23, 5), 19) * 4
		return nil

	case field(w, 30, 25) == 0x1b: // TBZ/TBNZ
		if bit(w, 24) == 1 {
			i.Op = TBNZ
		} else {
			i.Op = TBZ
		}
		b := bit(w, 31)<<5 | field(w, 23, 19)
		i.Rd = gpReg(field(w, 4, 0), b > 31, false)
		i.Amount = int8(b)
		i.Imm = signExtend(field(w, 18, 5), 14) * 4
		return nil

	case field(w, 31, 25) == 0x6b: // BR/BLR/RET
		if field(w, 4, 0) != 0 || field(w, 15, 10) != 0 || field(w, 20, 16) != 0x1f {
			return bad()
		}
		switch field(w, 24, 21) {
		case 0:
			i.Op = BR
		case 1:
			i.Op = BLR
		case 2:
			i.Op = RET
		default:
			return bad()
		}
		i.Rn = gpReg(field(w, 9, 5), true, false)
		return nil

	case field(w, 31, 24) == 0xd4: // SVC/BRK
		switch {
		case field(w, 23, 21) == 0 && field(w, 4, 0) == 1:
			i.Op = SVC
		case field(w, 23, 21) == 1 && field(w, 4, 0) == 0:
			i.Op = BRK
		default:
			return bad()
		}
		i.Imm = int64(field(w, 20, 5))
		return nil

	case field(w, 31, 22) == 0x354: // system
		switch {
		case w == 0xd503201f:
			i.Op = NOP
			return nil
		case w&0xfffff0ff == 0xd50330bf:
			i.Op = DMB
			i.Imm = int64(field(w, 11, 8))
			return nil
		case w&0xfffff0ff == 0xd503309f:
			i.Op = DSB
			i.Imm = int64(field(w, 11, 8))
			return nil
		case w&0xfffff0ff == 0xd50330df:
			i.Op = ISB
			return nil
		case field(w, 31, 20) == 0xd53: // MRS
			i.Op = MRS
			i.Rd = gpReg(field(w, 4, 0), true, false)
			i.Imm = int64(field(w, 19, 5))
			return nil
		case field(w, 31, 20) == 0xd51: // MSR
			i.Op = MSR
			i.Rd = gpReg(field(w, 4, 0), true, false)
			i.Imm = int64(field(w, 19, 5))
			return nil
		}
		return bad()
	}

	// Loads and stores: bit27==1 && bit25==0.
	if bit(w, 27) == 1 && bit(w, 25) == 0 {
		return decodeLoadStore(w, i)
	}

	// Data processing, register: bits[27:25] == 101.
	if field(w, 27, 25) == 0x5 {
		return decodeDPReg(w, i)
	}

	// Scalar floating point: bits[28:25] == 1111 with bits[31:30] either 00
	// (most FP ops) or sf:0 for the int<->fp conversions.
	if bit(w, 30) == 0 && field(w, 28, 24)&0x1e == 0x1e {
		return decodeFP(w, i)
	}

	return bad()
}

func decodeLoadStore(w uint32, i *Inst) error {
	bad := func() error { *i = Inst{Op: BAD}; return &DecodeError{Word: w} }
	v := bit(w, 26)

	switch {
	case field(w, 29, 24) == 0x08: // exclusives
		size := field(w, 31, 30)
		if size < 2 {
			return bad()
		}
		is64 := size == 3
		o2, l, o1, o0 := bit(w, 23), bit(w, 22), bit(w, 21), bit(w, 15)
		if o1 != 0 || field(w, 14, 10) != 0x1f {
			return bad()
		}
		if l == 1 && field(w, 20, 16) != 0x1f {
			return bad() // loads have Rs == 11111
		}
		if l == 0 && o2 == 1 && field(w, 20, 16) != 0x1f {
			return bad() // stlr has Rs == 11111
		}
		switch {
		case o2 == 0 && l == 1 && o0 == 0:
			i.Op = LDXR
		case o2 == 0 && l == 1 && o0 == 1:
			i.Op = LDAXR
		case o2 == 0 && l == 0 && o0 == 0:
			i.Op = STXR
		case o2 == 0 && l == 0 && o0 == 1:
			i.Op = STLXR
		case o2 == 1 && l == 1 && o0 == 1:
			i.Op = LDAR
		case o2 == 1 && l == 0 && o0 == 1:
			i.Op = STLR
		default:
			return bad()
		}
		i.Rd = gpReg(field(w, 4, 0), is64, false)
		i.Rn = gpReg(field(w, 9, 5), true, true)
		if i.Op == STXR || i.Op == STLXR {
			i.Rm = gpReg(field(w, 20, 16), false, false) // status is a W reg
		}
		return nil

	case field(w, 29, 27) == 0x3 && field(w, 25, 24) == 0: // literal
		opc := field(w, 31, 30)
		i.Op = LDR
		if v == 1 {
			switch opc {
			case 0:
				i.Rd = SReg(int(field(w, 4, 0)))
			case 1:
				i.Rd = DReg(int(field(w, 4, 0)))
			case 2:
				i.Rd = QReg(int(field(w, 4, 0)))
			default:
				return bad()
			}
		} else {
			switch opc {
			case 0:
				i.Rd = gpReg(field(w, 4, 0), false, false)
			case 1:
				i.Rd = gpReg(field(w, 4, 0), true, false)
			case 2:
				i.Op = LDRSW
				i.Rd = gpReg(field(w, 4, 0), true, false)
			default:
				return bad()
			}
		}
		i.Mem = Mem{Mode: AddrLiteral}
		i.Imm = signExtend(field(w, 23, 5), 19) * 4
		return nil

	case field(w, 29, 27) == 0x5: // pairs
		opc := field(w, 31, 30)
		mode := field(w, 25, 23)
		l := bit(w, 22)
		var scale uint
		var mk func(n uint32) Reg
		switch {
		case v == 1 && opc == 0:
			scale, mk = 2, func(n uint32) Reg { return SReg(int(n)) }
		case v == 1 && opc == 1:
			scale, mk = 3, func(n uint32) Reg { return DReg(int(n)) }
		case v == 1 && opc == 2:
			scale, mk = 4, func(n uint32) Reg { return QReg(int(n)) }
		case v == 0 && opc == 0:
			scale, mk = 2, func(n uint32) Reg { return gpReg(n, false, false) }
		case v == 0 && opc == 2:
			scale, mk = 3, func(n uint32) Reg { return gpReg(n, true, false) }
		default:
			return bad()
		}
		if l == 1 {
			i.Op = LDP
		} else {
			i.Op = STP
		}
		var am AddrMode
		switch mode {
		case 1:
			am = AddrPost
		case 2:
			am = AddrImm
		case 3:
			am = AddrPre
		default:
			return bad()
		}
		i.Rd = mk(field(w, 4, 0))
		i.Rm = mk(field(w, 14, 10))
		i.Mem = Mem{
			Mode: am,
			Base: gpReg(field(w, 9, 5), true, true),
			Imm:  int32(signExtend(field(w, 21, 15), 7) << scale),
		}
		return nil

	case field(w, 29, 27) == 0x7: // single register
		size := field(w, 31, 30)
		opc := field(w, 23, 22)
		op, rt, scale, ok := lsOpReg(size, v, opc, field(w, 4, 0))
		if !ok {
			return bad()
		}
		i.Op = op
		i.Rd = rt
		base := gpReg(field(w, 9, 5), true, true)
		if bit(w, 24) == 1 { // unsigned scaled immediate
			i.Mem = Mem{Mode: AddrImm, Base: base, Imm: int32(field(w, 21, 10) << scale)}
			return nil
		}
		if bit(w, 21) == 1 { // register offset
			if field(w, 11, 10) != 2 {
				return bad()
			}
			opt := field(w, 15, 13)
			sbit := bit(w, 12)
			amt := int8(-1)
			if sbit == 1 && scale > 0 {
				amt = int8(scale)
			}
			m := Mem{Base: base, Amount: amt}
			switch opt {
			case 2:
				m.Mode = AddrRegUXTW
				m.Index = gpReg(field(w, 20, 16), false, false)
			case 3:
				m.Mode = AddrReg
				m.Index = gpReg(field(w, 20, 16), true, false)
				if m.Amount < 0 {
					m.Amount = 0 // plain [xN, xM] is canonically amount 0
				}
			case 6:
				m.Mode = AddrRegSXTW
				m.Index = gpReg(field(w, 20, 16), false, false)
			case 7:
				m.Mode = AddrRegSXTX
				m.Index = gpReg(field(w, 20, 16), true, false)
			default:
				return bad()
			}
			i.Mem = m
			return nil
		}
		imm9 := int32(signExtend(field(w, 20, 12), 9))
		switch field(w, 11, 10) {
		case 0: // unscaled
			i.Mem = Mem{Mode: AddrImm, Base: base, Imm: imm9}
		case 1:
			i.Mem = Mem{Mode: AddrPost, Base: base, Imm: imm9}
		case 3:
			i.Mem = Mem{Mode: AddrPre, Base: base, Imm: imm9}
		default:
			return bad()
		}
		return nil
	}
	return bad()
}

// lsOpReg maps (size, V, opc) to the canonical op, transfer register view
// and scale for single-register loads/stores.
func lsOpReg(size, v, opc, rt uint32) (Op, Reg, uint, bool) {
	if v == 1 {
		switch {
		case opc == 0 || opc == 1: // 8..64-bit scalar
			var r Reg
			var sc uint
			switch size {
			case 0:
				r, sc = BReg(int(rt)), 0
			case 1:
				r, sc = HReg(int(rt)), 1
			case 2:
				r, sc = SReg(int(rt)), 2
			default:
				r, sc = DReg(int(rt)), 3
			}
			if opc == 1 {
				return LDR, r, sc, true
			}
			return STR, r, sc, true
		case size == 0 && opc == 3:
			return LDR, QReg(int(rt)), 4, true
		case size == 0 && opc == 2:
			return STR, QReg(int(rt)), 4, true
		}
		return BAD, RegNone, 0, false
	}
	switch size {
	case 0:
		switch opc {
		case 0:
			return STRB, gpReg(rt, false, false), 0, true
		case 1:
			return LDRB, gpReg(rt, false, false), 0, true
		case 2:
			return LDRSB, gpReg(rt, true, false), 0, true
		case 3:
			return LDRSB, gpReg(rt, false, false), 0, true
		}
	case 1:
		switch opc {
		case 0:
			return STRH, gpReg(rt, false, false), 1, true
		case 1:
			return LDRH, gpReg(rt, false, false), 1, true
		case 2:
			return LDRSH, gpReg(rt, true, false), 1, true
		case 3:
			return LDRSH, gpReg(rt, false, false), 1, true
		}
	case 2:
		switch opc {
		case 0:
			return STR, gpReg(rt, false, false), 2, true
		case 1:
			return LDR, gpReg(rt, false, false), 2, true
		case 2:
			return LDRSW, gpReg(rt, true, false), 2, true
		}
	case 3:
		switch opc {
		case 0:
			return STR, gpReg(rt, true, false), 3, true
		case 1:
			return LDR, gpReg(rt, true, false), 3, true
		}
	}
	return BAD, RegNone, 0, false
}

func decodeDPReg(w uint32, i *Inst) error {
	bad := func() error { *i = Inst{Op: BAD}; return &DecodeError{Word: w} }
	is64 := bit(w, 31) == 1

	switch {
	case field(w, 28, 24) == 0x0a: // logical shifted register
		opc := field(w, 30, 29)
		n := bit(w, 21)
		ops := [8]Op{AND, BIC, ORR, ORN, EOR, EON, ANDS, BICS}
		i.Op = ops[opc<<1|n]
		i.Rd = gpReg(field(w, 4, 0), is64, false)
		i.Rn = gpReg(field(w, 9, 5), is64, false)
		i.Rm = gpReg(field(w, 20, 16), is64, false)
		i.Ext = [4]Extend{ExtLSL, ExtLSR, ExtASR, ExtROR}[field(w, 23, 22)]
		i.Amount = int8(field(w, 15, 10))
		if !is64 && i.Amount > 31 {
			return bad()
		}
		if i.Amount == 0 && i.Ext == ExtLSL {
			i.Ext = ExtNone
			i.Amount = -1
		}
		return nil

	case field(w, 28, 24) == 0x0b && bit(w, 21) == 0: // add/sub shifted
		op, s := bit(w, 30), bit(w, 29)
		if field(w, 23, 22) == 3 {
			return bad()
		}
		i.Op = [4]Op{ADD, ADDS, SUB, SUBS}[op<<1|s]
		i.Rd = gpReg(field(w, 4, 0), is64, false)
		i.Rn = gpReg(field(w, 9, 5), is64, false)
		i.Rm = gpReg(field(w, 20, 16), is64, false)
		i.Ext = [3]Extend{ExtLSL, ExtLSR, ExtASR}[field(w, 23, 22)]
		i.Amount = int8(field(w, 15, 10))
		if !is64 && i.Amount > 31 {
			return bad()
		}
		if i.Amount == 0 && i.Ext == ExtLSL {
			i.Ext = ExtNone
			i.Amount = -1
		}
		return nil

	case field(w, 28, 24) == 0x0b && bit(w, 21) == 1: // add/sub extended
		op, s := bit(w, 30), bit(w, 29)
		if field(w, 23, 22) != 0 {
			return bad()
		}
		i.Op = [4]Op{ADD, ADDS, SUB, SUBS}[op<<1|s]
		i.Rd = gpReg(field(w, 4, 0), is64, s == 0)
		i.Rn = gpReg(field(w, 9, 5), is64, true)
		opt := field(w, 15, 13)
		rmIs64 := is64 && (opt&3) == 3
		i.Rm = gpReg(field(w, 20, 16), rmIs64, false)
		i.Ext = extendFromOption(opt, is64)
		i.Amount = int8(field(w, 12, 10))
		if i.Amount > 4 {
			return bad()
		}
		if i.Amount == 0 {
			i.Amount = -1 // "uxtw" and "uxtw #0" are the same encoding
		}
		return nil

	case field(w, 28, 21) == 0xd4: // conditional select
		op, op2 := bit(w, 30), field(w, 11, 10)
		if op2 > 1 || bit(w, 29) == 1 {
			return bad()
		}
		i.Op = [4]Op{CSEL, CSINC, CSINV, CSNEG}[op<<1|op2]
		i.Rd = gpReg(field(w, 4, 0), is64, false)
		i.Rn = gpReg(field(w, 9, 5), is64, false)
		i.Rm = gpReg(field(w, 20, 16), is64, false)
		i.Cond = Cond(field(w, 15, 12))
		return nil

	case field(w, 28, 21) == 0xd2 && bit(w, 29) == 1: // cond compare
		if bit(w, 10) != 0 || bit(w, 4) != 0 {
			return bad()
		}
		if bit(w, 30) == 1 {
			i.Op = CCMP
		} else {
			i.Op = CCMN
		}
		i.Rn = gpReg(field(w, 9, 5), is64, false)
		i.Cond = Cond(field(w, 15, 12))
		i.Amount = int8(field(w, 3, 0))
		if bit(w, 11) == 1 {
			i.Imm = int64(field(w, 20, 16))
		} else {
			i.Rm = gpReg(field(w, 20, 16), is64, false)
		}
		return nil

	case field(w, 28, 21) == 0xd6 && bit(w, 30) == 0: // 2-source
		var op Op
		switch field(w, 15, 10) {
		case 0x2:
			op = UDIV
		case 0x3:
			op = SDIV
		case 0x8:
			op = LSLV
		case 0x9:
			op = LSRV
		case 0xa:
			op = ASRV
		case 0xb:
			op = RORV
		default:
			return bad()
		}
		i.Op = op
		i.Rd = gpReg(field(w, 4, 0), is64, false)
		i.Rn = gpReg(field(w, 9, 5), is64, false)
		i.Rm = gpReg(field(w, 20, 16), is64, false)
		return nil

	case field(w, 28, 21) == 0xd6 && bit(w, 30) == 1: // 1-source
		if field(w, 20, 16) != 0 || bit(w, 29) != 0 {
			return bad()
		}
		var op Op
		switch field(w, 15, 10) {
		case 0:
			op = RBIT
		case 1:
			op = REV16
		case 2:
			if is64 {
				op = REV32
			} else {
				op = REV
			}
		case 3:
			if !is64 {
				return bad()
			}
			op = REV
		case 4:
			op = CLZ
		case 5:
			op = CLS
		default:
			return bad()
		}
		i.Op = op
		i.Rd = gpReg(field(w, 4, 0), is64, false)
		i.Rn = gpReg(field(w, 9, 5), is64, false)
		return nil

	case field(w, 28, 24) == 0x1b: // 3-source
		if field(w, 30, 29) != 0 {
			return bad()
		}
		op31, o0 := field(w, 23, 21), bit(w, 15)
		i.Rd = gpReg(field(w, 4, 0), is64, false)
		i.Rm = gpReg(field(w, 20, 16), is64, false)
		i.Rn = gpReg(field(w, 9, 5), is64, false)
		i.Ra = gpReg(field(w, 14, 10), is64, false)
		switch {
		case op31 == 0 && o0 == 0:
			i.Op = MADD
		case op31 == 0 && o0 == 1:
			i.Op = MSUB
		case op31 == 1 && o0 == 0 && is64:
			i.Op = SMADDL
			i.Rn = gpReg(field(w, 9, 5), false, false)
			i.Rm = gpReg(field(w, 20, 16), false, false)
		case op31 == 5 && o0 == 0 && is64:
			i.Op = UMADDL
			i.Rn = gpReg(field(w, 9, 5), false, false)
			i.Rm = gpReg(field(w, 20, 16), false, false)
		case op31 == 2 && o0 == 0 && is64:
			i.Op = SMULH
			i.Ra = RegNone
		case op31 == 6 && o0 == 0 && is64:
			i.Op = UMULH
			i.Ra = RegNone
		default:
			return bad()
		}
		return nil
	}
	return bad()
}

func decodeFP(w uint32, i *Inst) error {
	bad := func() error { *i = Inst{Op: BAD}; return &DecodeError{Word: w} }
	ftype := field(w, 23, 22)

	if field(w, 28, 24) == 0x1f { // FMADD/FMSUB
		rd, ok := fpRegType(field(w, 4, 0), ftype)
		if !ok {
			return bad()
		}
		rn, _ := fpRegType(field(w, 9, 5), ftype)
		rm, _ := fpRegType(field(w, 20, 16), ftype)
		ra, _ := fpRegType(field(w, 14, 10), ftype)
		if bit(w, 21) == 1 {
			return bad()
		}
		if bit(w, 15) == 1 {
			i.Op = FMSUB
		} else {
			i.Op = FMADD
		}
		i.Rd, i.Rn, i.Rm, i.Ra = rd, rn, rm, ra
		return nil
	}
	if field(w, 28, 24) != 0x1e || bit(w, 21) != 1 {
		return bad()
	}

	switch {
	case field(w, 11, 10) == 2: // 2-source: fmul/fdiv/fadd/fsub
		if field(w, 15, 12) > 3 {
			return bad()
		}
		rd, ok := fpRegType(field(w, 4, 0), ftype)
		if !ok {
			return bad()
		}
		rn, _ := fpRegType(field(w, 9, 5), ftype)
		rm, _ := fpRegType(field(w, 20, 16), ftype)
		i.Op = [4]Op{FMUL, FDIV, FADD, FSUB}[field(w, 15, 12)]
		i.Rd, i.Rn, i.Rm = rd, rn, rm
		return nil

	case field(w, 11, 10) == 3: // FCSEL
		rd, ok := fpRegType(field(w, 4, 0), ftype)
		if !ok {
			return bad()
		}
		rn, _ := fpRegType(field(w, 9, 5), ftype)
		rm, _ := fpRegType(field(w, 20, 16), ftype)
		i.Op = FCSEL
		i.Rd, i.Rn, i.Rm = rd, rn, rm
		i.Cond = Cond(field(w, 15, 12))
		return nil

	case field(w, 12, 10) == 4: // FMOV immediate
		rd, ok := fpRegType(field(w, 4, 0), ftype)
		if !ok {
			return bad()
		}
		if field(w, 9, 5) != 0 {
			return bad()
		}
		i.Op = FMOV
		i.Rd = rd
		i.Imm = int64(vfpExpandImm8(field(w, 20, 13)))
		return nil

	case field(w, 13, 10) == 8: // FCMP
		rn, ok := fpRegType(field(w, 9, 5), ftype)
		if !ok {
			return bad()
		}
		i.Op = FCMP
		i.Rn = rn
		if field(w, 4, 0) == 8 {
			i.Rm = RegNone // compare with 0.0
		} else if field(w, 4, 0) == 0 {
			i.Rm, _ = fpRegType(field(w, 20, 16), ftype)
		} else {
			return bad()
		}
		return nil

	case field(w, 14, 10) == 0x10: // 1-source
		opcode := field(w, 20, 15)
		rn, ok := fpRegType(field(w, 9, 5), ftype)
		if !ok {
			return bad()
		}
		switch opcode {
		case 0:
			i.Op = FMOV
			i.Rd, _ = fpRegType(field(w, 4, 0), ftype)
		case 1:
			i.Op = FABS
			i.Rd, _ = fpRegType(field(w, 4, 0), ftype)
		case 2:
			i.Op = FNEG
			i.Rd, _ = fpRegType(field(w, 4, 0), ftype)
		case 3:
			i.Op = FSQRT
			i.Rd, _ = fpRegType(field(w, 4, 0), ftype)
		case 4, 5, 7:
			i.Op = FCVT
			i.Rd, ok = fpRegType(field(w, 4, 0), opcode&3)
			if !ok {
				return bad()
			}
		default:
			return bad()
		}
		i.Rn = rn
		return nil

	case field(w, 15, 10) == 0: // int <-> fp
		is64 := bit(w, 31) == 1
		rmode, opcode := field(w, 20, 19), field(w, 18, 16)
		switch {
		case rmode == 0 && opcode == 2: // SCVTF
			i.Op = SCVTF
			i.Rd, _ = fpRegType(field(w, 4, 0), ftype)
			i.Rn = gpReg(field(w, 9, 5), is64, false)
		case rmode == 0 && opcode == 3: // UCVTF
			i.Op = UCVTF
			i.Rd, _ = fpRegType(field(w, 4, 0), ftype)
			i.Rn = gpReg(field(w, 9, 5), is64, false)
		case rmode == 3 && opcode == 0:
			i.Op = FCVTZS
			i.Rd = gpReg(field(w, 4, 0), is64, false)
			i.Rn, _ = fpRegType(field(w, 9, 5), ftype)
		case rmode == 3 && opcode == 1:
			i.Op = FCVTZU
			i.Rd = gpReg(field(w, 4, 0), is64, false)
			i.Rn, _ = fpRegType(field(w, 9, 5), ftype)
		case rmode == 0 && opcode == 6: // FMOV fp -> gpr
			i.Op = FMOV
			i.Rd = gpReg(field(w, 4, 0), is64, false)
			i.Rn, _ = fpRegType(field(w, 9, 5), ftype)
		case rmode == 0 && opcode == 7: // FMOV gpr -> fp
			i.Op = FMOV
			i.Rd, _ = fpRegType(field(w, 4, 0), ftype)
			i.Rn = gpReg(field(w, 9, 5), is64, false)
		default:
			return bad()
		}
		if i.Rd == RegNone || i.Rn == RegNone {
			return bad()
		}
		return nil
	}
	return bad()
}
