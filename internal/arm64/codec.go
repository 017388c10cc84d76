package arm64

import (
	"fmt"
	"math"
)

// DecodeError reports an undecodable instruction word.
type DecodeError struct {
	Word uint32
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("arm64: cannot decode %#08x", e.Word)
}

// EncodeError describes an instruction that cannot be encoded. It holds a
// copy, so the instruction handed to Encode need not outlive the call.
type EncodeError struct {
	Inst Inst
	Msg  string
}

func (e *EncodeError) Error() string {
	return fmt.Sprintf("arm64: cannot encode %q: %s", e.Inst.String(), e.Msg)
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
//
// It takes the first row of the word's bucket (bits 28:24) whose fixed
// bits match, and runs that row's kinds; a kind that refuses the word
// makes it undecodable.
func DecodeInto(w uint32, i *Inst) error {
	*i = Inst{Rd: RegNone, Rn: RegNone, Rm: RegNone, Ra: RegNone, Amount: -1}
	rows := decRows[w>>24&0x1f]
	for j := range rows {
		r := &rows[j]
		if w&r.mask != r.val {
			continue
		}
		i.Op = r.op
		for _, k := range r.args {
			if k >= kDecodes && k.step(false, &w, i) != "" {
				return badWord(w, i)
			}
		}
		return nil
	}
	return badWord(w, i)
}

func badWord(w uint32, i *Inst) error {
	*i = Inst{Op: BAD}
	return &DecodeError{Word: w}
}

// Encode produces the 4-byte machine encoding of i. Branch labels must
// already be resolved to byte offsets.
//
// It tries i.Op's rows in table order and takes the first whose kinds all
// accept the operands. A kind skips a row whose form the operands do not
// have; any other refusal is the error.
func Encode(i *Inst) (uint32, error) {
	msg := "unsupported op"
	if i.Op < NumOps {
	rows:
		for _, r := range encRows[i.Op] {
			w := r.val
			for _, k := range r.args {
				if k == kNone {
					break
				}
				switch m := k.step(true, &w, i); m {
				case "":
				case skip:
					continue rows
				default:
					msg = m
					break rows
				}
			}
			return w, nil
		}
	}
	return 0, &EncodeError{Inst: *i, Msg: msg}
}

func bit(w uint32, n uint) uint32        { return (w >> n) & 1 }
func field(w uint32, hi, lo uint) uint32 { return (w >> lo) & ((1 << (hi - lo + 1)) - 1) }

func signExtend(v uint32, bits uint) int64 {
	shift := 64 - bits
	return int64(uint64(v)<<shift) >> shift
}

func fitsSigned(v int64, bits uint) bool {
	return v >= -(1<<(bits-1)) && v < 1<<(bits-1)
}

func gpReg(n uint32, is64 bool, spOK bool) Reg {
	if n == 31 && spOK {
		if is64 {
			return SP
		}
		return WSP
	}
	if is64 {
		return XReg(int(n))
	}
	return WReg(int(n))
}

// ftypes maps the 2-bit ftype field to a register kind; 2 has none.
var ftypes = [4]Reg{kindS, kindD, RegNone, kindH}

// fpType is the ftype field of r's view.
func fpType(r Reg) (uint32, string) {
	for t, k := range ftypes {
		if r.kind() == k {
			return uint32(t), ""
		}
	}
	return 0, fmt.Sprintf("register %v has no fp type", r)
}

func sfBit(r Reg) uint32 {
	if r.Is64() {
		return 1
	}
	return 0
}

// baseReg is the base register of every load and store: bits 9:5, 31 = sp.
func baseReg(w uint32) Reg { return gpReg(field(w, 9, 5), true, true) }

// offset moves a branch or literal byte offset between i.Imm and the
// bits-wide word offset at bit lo; encoding reports false if Imm is not a
// multiple of 4 or does not fit.
func offset(enc bool, w *uint32, i *Inst, lo, bits uint) bool {
	if !enc {
		i.Imm = signExtend(field(*w, lo+bits-1, lo), bits) * 4
		return true
	}
	if i.Imm%4 != 0 || !fitsSigned(i.Imm/4, bits) {
		return false
	}
	*w |= (uint32(i.Imm/4) & (1<<bits - 1)) << lo
	return true
}

// skip is a kind's answer when the operands are of another form of the op
// (an immediate where the row encodes a register, say): Encode moves on
// to the op's next row.
const skip = "\x00"

// step runs kind k in one direction. Decoding (enc false) fills i's
// fields from *w; encoding ors i's fields into *w. It returns "" when the
// kind accepts, skip for a row of another form, and otherwise the reason
// the operands are refused. Decoding treats any answer but "" as refusal,
// and may write back the bits it has just read. The kinds before kDecodes
// only encode: DecodeInto does not run them.
func (k kind) step(enc bool, w *uint32, i *Inst) string {
	if k >= rd {
		return k.reg(enc, w, i)
	}
	sf := bit(*w, 31) == 1
	switch k {
	case kSf, kSfRn, kSfAdd:
		r := i.Rd
		if k == kSfRn || (k == kSfAdd && i.Rd.IsZR()) { // cmp, cmn and tst: Rn gives the width
			r = i.Rn
		}
		*w |= sfBit(r) << 31
	case kSf32:
		if i.Rd.Is64() {
			return skip
		}
	case kSf64:
		if !i.Rd.Is64() {
			return fmt.Sprintf("%s requires 64-bit registers", i.Op)
		}
	case kFtRd, kFtRn:
		r := i.Rd
		if k == kFtRn {
			r = i.Rn
		}
		ft, msg := fpType(r)
		*w |= ft << 22
		return msg
	case kRaZR: // smulh and umulh have no Ra: the field holds 31
		*w |= 31 << 10
	case kCRmAll: // isb accepts any CRm and writes SY
		*w |= 0xf << 8
	case kFZero: // fcmp with #0.0 has no Rm
		if i.Rm != RegNone {
			return skip
		}
	case kFmovFF:
		if !i.Rd.IsFP() || !i.Rn.IsFP() {
			return skip
		}
	case kFmovToGP:
		if !i.Rd.IsGP() {
			return skip
		}

	case kSfN:
		if !enc {
			if bit(*w, 22) != bit(*w, 31) {
				return skip
			}
			return ""
		}
		*w |= sfBit(i.Rd)<<31 | sfBit(i.Rd)<<22

	case kAdr:
		if !enc {
			i.Imm = signExtend(field(*w, 23, 5)<<2|field(*w, 30, 29), 21)
			if i.Op == ADRP {
				i.Imm <<= 12
			}
			return ""
		}
		imm := i.Imm
		if i.Op == ADRP {
			if imm&0xfff != 0 {
				return fmt.Sprintf("adrp offset %d not page aligned", imm)
			}
			imm >>= 12
		}
		if !fitsSigned(imm, 21) {
			return "adr offset out of range"
		}
		u := uint32(imm) & 0x1fffff
		*w |= (u&3)<<29 | (u>>2)<<5
	case kAddImm:
		if !enc {
			i.Imm = int64(field(*w, 21, 10)) << (12 * bit(*w, 22))
			return ""
		}
		if i.Rm != RegNone {
			return skip
		}
		// Register 31 here means SP, so the zero register cannot be
		// written or read by this encoding.
		if i.Rn.IsZR() || (i.Rd.IsZR() && (i.Op == ADD || i.Op == SUB)) {
			return "zero register is not encodable in add/sub immediate (31 means sp)"
		}
		imm, sh := i.Imm, uint32(0)
		if i.Ext == ExtLSL && i.Amount == 12 {
			sh = 1
		} else if imm >= 4096 && imm&0xfff == 0 && imm>>12 < 4096 {
			sh = 1
			imm >>= 12
		}
		if imm < 0 || imm > 4095 {
			return fmt.Sprintf("add/sub immediate %d out of range", i.Imm)
		}
		*w |= sh<<22 | uint32(imm)<<10
	case kLogImm:
		if !enc {
			n := bit(*w, 22)
			v, ok := DecodeBitmask(n, field(*w, 21, 16), field(*w, 15, 10), sf)
			if !ok || (!sf && n == 1) {
				return skip
			}
			i.Imm = int64(v)
			return ""
		}
		if i.Rm != RegNone {
			return skip
		}
		n, immr, imms, ok := EncodeBitmask(uint64(i.Imm), sf)
		if !ok {
			return fmt.Sprintf("value %#x is not a valid bitmask immediate", uint64(i.Imm))
		}
		*w |= n<<22 | immr<<16 | imms<<10
	case kShift:
		addSub := i.Op >= ADD && i.Op <= SUBS
		if !enc {
			sh, amt := field(*w, 23, 22), field(*w, 15, 10)
			if (addSub && sh == 3) || (!sf && amt > 31) {
				return skip
			}
			i.Ext, i.Amount = ExtLSL+Extend(sh), int8(amt)
			if amt == 0 && sh == 0 {
				i.Ext, i.Amount = ExtNone, -1
			}
			return ""
		}
		if i.Rm == RegNone {
			return "no immediate form"
		}
		var sh uint32
		switch {
		case i.Ext == ExtNone || i.Ext == ExtLSL:
		case i.Ext == ExtLSR || i.Ext == ExtASR || (i.Ext == ExtROR && !addSub):
			sh = uint32(i.Ext - ExtLSL)
		case addSub:
			return fmt.Sprintf("bad shift %v for add/sub", i.Ext)
		default:
			return fmt.Sprintf("bad shift %v for logical op", i.Ext)
		}
		amt := uint32(max(i.Amount, 0))
		if amt > 63 || (!sf && amt > 31) {
			return "shift amount out of range"
		}
		*w |= sh<<22 | amt<<10
	case kExtend: // option (15:13) selects both the extend and Rm's width
		if !enc {
			opt, amt := field(*w, 15, 13), int8(field(*w, 12, 10))
			if amt > 4 {
				return skip
			}
			if amt == 0 {
				amt = -1 // "uxtw" and "uxtw #0" are the same encoding
			}
			i.Rm = gpReg(field(*w, 20, 16), sf && opt&3 == 3, false)
			i.Ext, i.Amount = ExtUXTB+Extend(opt), amt
			return ""
		}
		ext := i.Ext
		switch {
		case ext >= ExtUXTB && ext <= ExtSXTX:
		case (ext == ExtNone || ext == ExtLSL) && (i.Rn.IsSP() || i.Rd.IsSP()):
			ext = ExtUXTX // sp operands force the extended form; lsl means uxtx there
		default:
			return skip
		}
		amt := uint32(max(i.Amount, 0))
		if amt > 4 {
			return fmt.Sprintf("extend amount %d out of range", amt)
		}
		*w |= i.Rm.EncNum()<<16 | uint32(ext-ExtUXTB)<<13 | amt<<10
	case kMovWide:
		if !enc {
			hw := field(*w, 22, 21)
			if !sf && hw > 1 {
				return skip
			}
			i.Imm, i.Amount = int64(field(*w, 20, 5)), int8(hw*16)
			return ""
		}
		if i.Imm < 0 || i.Imm > 0xffff {
			return "imm16 out of range"
		}
		hw := uint32(i.Amount) / 16
		if i.Amount%16 != 0 || hw > 3 || (!i.Rd.Is64() && hw > 1) {
			return fmt.Sprintf("bad move-wide shift %d", i.Amount)
		}
		*w |= hw<<21 | uint32(i.Imm)<<5
	case kBitfield: // Imm = immr, Amount = imms
		if !enc {
			if !sf && (bit(*w, 21) == 1 || bit(*w, 15) == 1) {
				return skip // 32-bit immr and imms must be < 32
			}
			i.Imm, i.Amount = int64(field(*w, 21, 16)), int8(field(*w, 15, 10))
			return ""
		}
		maxv := int64(31) + 32*int64(bit(*w, 31))
		if i.Imm < 0 || i.Imm > maxv || int64(i.Amount) < 0 || int64(i.Amount) > maxv {
			return "bitfield immediate out of range"
		}
		*w |= uint32(i.Imm)<<16 | uint32(i.Amount)<<10
	case kLsb:
		if !enc {
			if !sf && bit(*w, 15) == 1 {
				return skip
			}
			i.Imm = int64(field(*w, 15, 10))
			return ""
		}
		if i.Imm < 0 || i.Imm > int64(31)+32*int64(bit(*w, 31)) {
			return "extr lsb out of range"
		}
		*w |= uint32(i.Imm) << 10
	case kCond:
		if !enc {
			i.Cond = Cond(field(*w, 15, 12))
		}
		*w |= uint32(i.Cond) << 12
	case kNZCV:
		if !enc {
			i.Amount = int8(field(*w, 3, 0))
		}
		*w |= uint32(i.Amount) & 0xf
	case kCcmpImm:
		if !enc {
			i.Imm = int64(field(*w, 20, 16))
			return ""
		}
		if i.Rm != RegNone {
			return skip
		}
		if i.Imm < 0 || i.Imm > 31 {
			return "ccmp imm5 out of range"
		}
		*w |= uint32(i.Imm) << 16

	case kB26:
		if !offset(enc, w, i, 0, 26) {
			return fmt.Sprintf("branch offset %d out of range", i.Imm)
		}
	case kB19: // b.cond (with its condition), cbz and literal loads
		if i.Op == BCOND {
			if !enc {
				i.Cond = Cond(field(*w, 3, 0))
			}
			*w |= uint32(i.Cond)
		}
		if !offset(enc, w, i, 5, 19) {
			switch i.Op {
			case BCOND:
				return "b.cond offset out of range"
			case CBZ, CBNZ:
				return "cbz offset out of range"
			}
			return "literal offset out of range"
		}
	case kTB:
		if !offset(enc, w, i, 5, 14) {
			return "tbz offset out of range"
		}
		if !enc {
			i.Amount = int8(bit(*w, 31)<<5 | field(*w, 23, 19))
			return ""
		}
		b := uint32(i.Amount)
		if b > 63 || (b > 31 && !i.Rd.Is64()) {
			return "tbz bit number out of range"
		}
		*w |= (b>>5)<<31 | (b&0x1f)<<19
	case kImm16:
		if !enc {
			i.Imm = int64(field(*w, 20, 5))
			return ""
		}
		if i.Imm < 0 || i.Imm > 0xffff {
			return fmt.Sprintf("%s imm16 out of range", i.Op)
		}
		*w |= uint32(i.Imm) << 5
	case kCRm:
		if !enc {
			i.Imm = int64(field(*w, 11, 8))
		}
		*w |= (uint32(i.Imm) & 0xf) << 8
	case kSysReg:
		if !enc {
			i.Imm = int64(field(*w, 19, 5))
		}
		*w |= (uint32(i.Imm) & 0x7fff) << 5

	case kLdSt:
		if !enc {
			a := &ldst[field(*w, 31, 30)<<3|bit(*w, 26)<<2|field(*w, 23, 22)]
			if a.op == BAD {
				return skip
			}
			i.Op, i.Rd = a.op, a.view*regKindStride+Reg(field(*w, 4, 0))
			return ""
		}
		j := lookup(ldst[:], i.Op, transferView(i.Rd))
		if j < 0 {
			return fmt.Sprintf("%s cannot transfer %v", i.Op, i.Rd)
		}
		*w |= uint32(j>>3)<<30 | uint32(j>>2&1)<<26 | uint32(j&3)<<22 | i.Rd.EncNum()
	case kUimm12: // scaled unsigned offset
		scale := ldstScale(*w)
		if !enc {
			i.Mem = Mem{Mode: AddrImm, Base: baseReg(*w), Imm: int32(field(*w, 21, 10) << scale)}
			return ""
		}
		imm := int64(i.Mem.Imm)
		if (i.Mem.Mode != AddrBase && i.Mem.Mode != AddrImm) || imm < 0 || imm%(1<<scale) != 0 || imm>>scale >= 4096 {
			return skip
		}
		*w |= uint32(imm>>scale)<<10 | i.Mem.Base.EncNum()<<5
	case kImm9: // unscaled offset (ldur, stur), post- and pre-index
		if !enc {
			i.Mem = Mem{Mode: imm9Modes[field(*w, 11, 10)], Base: baseReg(*w), Imm: int32(signExtend(field(*w, 20, 12), 9))}
			if i.Mem.Mode == AddrNone {
				return skip
			}
			return ""
		}
		mode := i.Mem.Mode
		if mode == AddrBase {
			mode = AddrImm
		}
		idx := modeIndex(imm9Modes[:], mode)
		if idx < 0 {
			return skip
		}
		if !fitsSigned(int64(i.Mem.Imm), 9) {
			if mode == AddrImm {
				return fmt.Sprintf("load/store offset %d out of range", i.Mem.Imm)
			}
			return fmt.Sprintf("pre/post index offset %d out of range", i.Mem.Imm)
		}
		*w |= (uint32(i.Mem.Imm)&0x1ff)<<12 | uint32(idx)<<10 | i.Mem.Base.EncNum()<<5
	case kRegOff: // option (15:13) selects the extend and the index width
		scale := ldstScale(*w)
		if !enc {
			opt := field(*w, 15, 13)
			m := Mem{Mode: regOffModes[opt], Base: baseReg(*w), Index: gpReg(field(*w, 20, 16), opt&1 == 1, false), Amount: -1}
			if bit(*w, 12) == 1 && scale > 0 {
				m.Amount = int8(scale)
			}
			if m.Mode == AddrReg && m.Amount < 0 {
				m.Amount = 0 // plain [xN, xM] is canonically amount 0
			}
			i.Mem = m
			if m.Mode == AddrNone {
				return skip
			}
			return ""
		}
		opt := modeIndex(regOffModes[:], i.Mem.Mode)
		if opt <= 0 {
			return skip
		}
		var s uint32
		switch {
		case i.Mem.Amount <= 0:
		case uint8(i.Mem.Amount) == scale:
			s = 1
		default:
			return fmt.Sprintf("register-offset shift %d must be 0 or %d", i.Mem.Amount, scale)
		}
		*w |= i.Mem.Index.EncNum()<<16 | uint32(opt)<<13 | s<<12 | i.Mem.Base.EncNum()<<5
	case kLit:
		if !enc {
			a := &lits[field(*w, 31, 30)<<1|bit(*w, 26)]
			if a.op == BAD {
				return skip
			}
			i.Op, i.Rd, i.Mem = a.op, a.view*regKindStride+Reg(field(*w, 4, 0)), Mem{Mode: AddrLiteral}
			return ""
		}
		if i.Mem.Mode != AddrLiteral {
			return "bad addressing mode"
		}
		if !i.Op.IsLoad() {
			return "literal addressing requires a load"
		}
		j := lookup(lits[:], i.Op, transferView(i.Rd))
		if j < 0 {
			return "op has no literal form"
		}
		*w |= uint32(j>>1)<<30 | uint32(j&1)<<26 | i.Rd.EncNum()
	case kPair: // Rd and Rm (bits 14:10) by (opc, V)
		if !enc {
			a := &pairs[field(*w, 31, 30)<<1|bit(*w, 26)]
			if a.op == BAD {
				return skip
			}
			i.Rd, i.Rm = a.view*regKindStride+Reg(field(*w, 4, 0)), a.view*regKindStride+Reg(field(*w, 14, 10))
			return ""
		}
		j := lookup(pairs[:], LDP, transferView(i.Rd))
		if j < 0 {
			return fmt.Sprintf("%s cannot transfer %v", i.Op, i.Rd)
		}
		*w |= uint32(j>>1)<<30 | uint32(j&1)<<26 | i.Rm.EncNum()<<10 | i.Rd.EncNum()
	case kPairMem:
		scale := pairs[field(*w, 31, 30)<<1|bit(*w, 26)].scale
		if !enc {
			i.Mem = Mem{Mode: pairModes[field(*w, 24, 23)], Base: baseReg(*w), Imm: int32(signExtend(field(*w, 21, 15), 7) << scale)}
			if i.Mem.Mode == AddrNone {
				return skip
			}
			return ""
		}
		mode := i.Mem.Mode
		if mode == AddrBase {
			mode = AddrImm
		}
		idx := modeIndex(pairModes[:], mode)
		if idx <= 0 {
			return "bad pair addressing mode"
		}
		imm := int64(i.Mem.Imm)
		if imm%(1<<scale) != 0 || !fitsSigned(imm>>scale, 7) {
			return fmt.Sprintf("pair offset %d out of range", imm)
		}
		*w |= uint32(idx)<<23 | (uint32(imm>>scale)&0x7f)<<15 | i.Mem.Base.EncNum()<<5

	case kFImm: // Imm = float64 bit pattern, Rn = RegNone
		if !enc {
			i.Imm = int64(vfpExpandImm8(field(*w, 20, 13)))
			return ""
		}
		if i.Rn != RegNone {
			return skip
		}
		ft, msg := fpType(i.Rd)
		if msg != "" {
			return msg
		}
		imm8, ok := encodeFPImm8(uint64(i.Imm))
		if !ok {
			return fmt.Sprintf("%v is not an fmov immediate", math.Float64frombits(uint64(i.Imm)))
		}
		*w |= ft<<22 | imm8<<13
	case kFcvt: // the destination's type is in opcode bits 16:15
		if !enc {
			k := ftypes[field(*w, 16, 15)]
			if k == RegNone {
				return skip
			}
			i.Rd = k*regKindStride + Reg(field(*w, 4, 0))
			return ""
		}
		dt, msg := fpType(i.Rd)
		*w |= dt<<15 | i.Rd.EncNum()
		return msg
	}
	return ""
}

// reg moves one register operand: its slot in Inst and its field in the
// word come from the kind's base (rd, rn, rm, ra), its view from the
// offset (vW, vWSP, ...).
func (k kind) reg(enc bool, w *uint32, i *Inst) string {
	r, pos := &i.Rd, uint(0)
	switch (k - rd) / 8 {
	case 1:
		r, pos = &i.Rn, 5
	case 2:
		r, pos = &i.Rm, 16
	case 3:
		r, pos = &i.Ra, 10
	}
	if enc {
		n := r.EncNum()
		if *r == RegNone && i.Op == RET {
			n = 30
		}
		*w |= n << pos
		if (k-rd)%8 == v30 {
			*w |= sfBit(*r) << 30
		}
		return ""
	}
	v := &views[(k-rd)%8]
	kd, n := v.kinds[*w>>v.sel&3], Reg(*w>>pos&31)
	if n == 31 && v.sp {
		n = 32
	}
	if kd == RegNone {
		return skip
	}
	*r = kd*regKindStride + n
	return ""
}

// transferView is the view lookup matches a transfer register by: its
// fp width (v as q), x, or else w.
func transferView(rt Reg) Reg {
	switch {
	case rt.IsFP() && rt.kind() == kindV:
		return kindQ
	case rt.IsFP():
		return rt.kind()
	case rt.Is64():
		return kindX
	}
	return kindW
}

// lookup finds the entry of tab that transfers a register of view for
// op: the one of that view, or else the op's only entry in the same bank
// (ldrb takes x0 as w0, as the assembler always has). It returns -1 if
// none.
func lookup(tab []access, op Op, view Reg) int {
	found, n := -1, 0
	for j, a := range tab {
		if a.op != op || (a.view >= kindB) != (view >= kindB) {
			continue
		}
		if a.view == view {
			return j
		}
		found, n = j, n+1
	}
	if n == 1 {
		return found
	}
	return -1
}

// ldstScale is the log2 of the access size of a single-register load or
// store word.
func ldstScale(w uint32) uint8 {
	return ldst[field(w, 31, 30)<<3|bit(w, 26)<<2|field(w, 23, 22)].scale
}

// modeIndex is the field value that encodes mode in modes, or -1.
func modeIndex(modes []AddrMode, mode AddrMode) int {
	for j, m := range modes {
		if m == mode && m != AddrNone {
			return j
		}
	}
	return -1
}
