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
// It looks the word up in the index derived from the rows (table.go),
// takes the first row there whose fixed bits match, and decodes that
// row's registers and kinds; a kind that refuses the word makes it
// undecodable.
func DecodeInto(w uint32, i *Inst) error {
	*i = Inst{Amount: -1} // a matching row sets every register slot
	s := decTop[w>>21]
	if s.sub {
		s = decSub[int(s.lo)+int(w>>10&0x3f)]
	}
	for _, j := range decRows[s.lo : s.lo+s.n] {
		r := &coded[j]
		if w&r.mask != r.val {
			continue
		}
		i.Op = r.op
		sl := &r.slots
		i.Rd, i.Rn, i.Rm, i.Ra = sl[0].reg(w, 0), sl[1].reg(w, 5), sl[2].reg(w, 16), sl[3].reg(w, 10)
		if badReg(i.Rd) || badReg(i.Rn) || badReg(i.Rm) || badReg(i.Ra) {
			return badWord(w, i)
		}
		for _, k := range r.dec[:r.ndec] {
			if !k.decode(w, i) {
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
// It takes the first of i.Op's rows that serves the operands' form
// (formOf) and encodes by it; that row's refusal is the error.
func Encode(i *Inst) (uint32, error) {
	msg := "unsupported op"
	if i.Op < NumOps {
		var f form
		if need := encNeed[i.Op]; need != 0 {
			f = formOf(i, need)
		}
		for _, r := range encRows[i.Op] {
			if f&r.need == r.want {
				var w uint32
				if w, msg = r.encode(i); msg == "" {
					return w, nil
				}
				break
			}
		}
	}
	return 0, &EncodeError{Inst: *i, Msg: msg}
}

// encode encodes i by row r: its registers, then its kinds in row order.
// It returns the reason of the first refusal, or "".
func (r *codedRow) encode(i *Inst) (uint32, string) {
	w := r.val
	regs := [4]Reg{i.Rd, i.Rn, i.Rm, i.Ra}
	for _, s := range r.regs[:r.nregs] {
		d, reg := &r.slots[s], regs[s]
		if reg != RegNone && reg.IsFP() != (d.view == vF) {
			return 0, wrongBank(reg)
		}
		n := reg.EncNum()
		if reg == RegNone && i.Op == RET {
			n = 30
		}
		w |= n << regPos[s]
		if d.view == v30 {
			w |= sfBit(reg) << 30
		}
	}
	for _, k := range r.enc[:r.nenc] {
		var msg string
		if w, msg = k.encode(w, i); msg != "" {
			return 0, msg
		}
	}
	return w, ""
}

// reg decodes the register slot d holds from word w's field at pos.
func (d *slotCodec) reg(w uint32, pos uint) Reg {
	n := Reg(w>>pos) & d.num
	if n == 31 && d.sp {
		n = 32
	}
	return d.kinds[w>>d.sel&3] + n
}

// badReg reports a register that a slot's view has no kind for.
func badReg(r Reg) bool { return r >= regBad && r != RegNone }

// regPos is the word field of each register slot: 4:0, 9:5, 20:16, 14:10.
var regPos = [4]uint{0, 5, 16, 10}

// wrongBank is the refusal of an fp register where a general one belongs,
// or the reverse.
func wrongBank(r Reg) string {
	if r.IsFP() {
		return fmt.Sprintf("%v is not a general register", r)
	}
	return fmt.Sprintf("%v is not an fp register", r)
}

// gpNum is the field value of a general register operand that a kind
// encodes itself: an extend's Rm, a load or store's base or index.
func gpNum(r Reg) (uint32, string) {
	if r.IsFP() {
		return 0, wrongBank(r)
	}
	return r.EncNum(), ""
}

// A form is what Encode needs to know of an Inst's operands to pick among
// its op's rows: each bit is one property a kind's row requires or rules
// out (kindCodec.need and want).
type form uint16

const (
	fRm       form = 1 << iota // Rm is a register
	fRn                        // Rn is a register
	fRd64                      // Rd is an x register
	fRdGP                      // Rd is a general register
	fRdFP                      // Rd is an fp register
	fRnFP                      // Rn is an fp register
	fExtended                  // an extend, or no shift next to sp: add/sub's extended form
	fUimm                      // [xn, #imm] that the scaled offset holds, or a transfer register no access takes
	fImm9                      // [xn, #imm], [xn, #imm]! or [xn], #imm
	fRegOff                    // [xn, rm{, extend}]
)

// formOf computes the properties of i's operands that need names: those
// its op's rows test, once for all of them.
func formOf(i *Inst, need form) form {
	var f form
	if need&(fRm|fRn|fRdFP|fRnFP) != 0 {
		if i.Rm != RegNone {
			f |= fRm
		}
		if i.Rn != RegNone {
			f |= fRn
		}
		if i.Rn.IsFP() {
			f |= fRnFP
		}
	}
	if need&(fRd64|fRdGP|fRdFP) != 0 {
		switch i.Rd.kind() {
		case kindX:
			f |= fRd64 | fRdGP
		case kindW:
			f |= fRdGP
		case kindB, kindH, kindS, kindD, kindQ, kindV:
			f |= fRdFP
		}
	}
	if need&fExtended != 0 && ((i.Ext >= ExtUXTB && i.Ext <= ExtSXTX) || ((i.Ext == ExtNone || i.Ext == ExtLSL) && (i.Rn.IsSP() || i.Rd.IsSP()))) {
		f |= fExtended
	}
	if need&fUimm == 0 {
		return f
	}
	// A single-register load or store: the scaled unsigned offset comes
	// first where it fits. With no access for the transfer register, the
	// first row is taken so that kLdSt refuses it.
	j := ldstAt[i.Op-LDR][transferView(i.Rd)]
	switch m := &i.Mem; {
	case j < 0:
		f |= fUimm
	case m.IsRegOffset():
		f |= fRegOff
	case m.Mode == AddrBase || m.Mode == AddrImm:
		f |= fImm9
		if s, imm := ldst[j].scale, int64(m.Imm); imm >= 0 && imm&(1<<s-1) == 0 && imm>>s < 4096 {
			f |= fUimm
		}
	case m.Mode == AddrPre || m.Mode == AddrPost:
		f |= fImm9
	}
	return f
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

// decOffset is the byte offset held in the bits-wide word offset at bit lo.
func decOffset(w uint32, lo, bits uint) int64 {
	return signExtend(field(w, lo+bits-1, lo), bits) * 4
}

// encOffset ors byte offset imm into the bits-wide word offset at bit lo;
// it reports false if imm is not a multiple of 4 or does not fit.
func encOffset(w uint32, imm int64, lo, bits uint) (uint32, bool) {
	if imm%4 != 0 || !fitsSigned(imm/4, bits) {
		return w, false
	}
	return w | (uint32(imm/4)&(1<<bits-1))<<lo, true
}

// kindForms is the operand form each kind's rows serve: form&need ==
// want. Encode picks a row by it, so no kind's encode has to turn the
// operands away for another row to take them.
var kindForms = [kFcvt + 1]struct{ need, want form }{
	kSf32:     {need: fRd64},
	kFZero:    {need: fRm},
	kFmovFF:   {need: fRdFP | fRnFP, want: fRdFP | fRnFP},
	kFmovToGP: {need: fRdGP, want: fRdGP},
	kAddImm:   {need: fRm},
	kLogImm:   {need: fRm},
	kExtend:   {need: fExtended, want: fExtended},
	kCcmpImm:  {need: fRm},
	kUimm12:   {need: fUimm, want: fUimm},
	kImm9:     {need: fImm9, want: fImm9},
	kRegOff:   {need: fRegOff, want: fRegOff},
	kFImm:     {need: fRn},
}

// The kinds that decode: those from kSfN on. The ones before it only
// encode, or only select their row's form: the row's fixed bits already
// say what they would check.
func (k kind) decodes() bool { return k >= kSfN }

// encodes reports whether kind k writes the word; the others only select
// their row's form.
func (k kind) encodes() bool { return k != kSf32 && k != kFZero && k != kFmovFF && k != kFmovToGP }

// decode fills i's fields from word w by kind k and reports false if w is
// not one of the row's. It may rely on i.Op, which the row set.
//
// decode and encode list the kinds in the same order, so that each kind's
// two directions can be read together.
func (k kind) decode(w uint32, i *Inst) bool {
	switch k {
	case kSfN:
		return bit(w, 22) == bit(w, 31)
	case kAdr:
		i.Imm = signExtend(field(w, 23, 5)<<2|field(w, 30, 29), 21)
		if i.Op == ADRP {
			i.Imm <<= 12
		}
	case kAddImm:
		i.Imm = int64(field(w, 21, 10)) << (12 * bit(w, 22))
	case kLogImm:
		sf, n := bit(w, 31) == 1, bit(w, 22)
		v, ok := DecodeBitmask(n, field(w, 21, 16), field(w, 15, 10), sf)
		i.Imm = int64(v)
		return ok && (sf || n == 0)
	case kShift:
		sh, amt := field(w, 23, 22), field(w, 15, 10)
		if (sh == 3 && i.Op >= ADD && i.Op <= SUBS) || (bit(w, 31) == 0 && amt > 31) {
			return false
		}
		i.Ext, i.Amount = ExtLSL+Extend(sh), int8(amt)
		if amt == 0 && sh == 0 {
			i.Ext, i.Amount = ExtNone, -1
		}
	case kExtend: // the option (15:13) selects both the extend and Rm's width
		opt, amt := field(w, 15, 13), int8(field(w, 12, 10))
		if amt == 0 {
			amt = -1 // "uxtw" and "uxtw #0" are the same encoding
		}
		i.Rm = gpReg(field(w, 20, 16), bit(w, 31) == 1 && opt&3 == 3, false)
		i.Ext, i.Amount = ExtUXTB+Extend(opt), amt
		return amt <= 4
	case kMovWide:
		hw := field(w, 22, 21)
		i.Imm, i.Amount = int64(field(w, 20, 5)), int8(hw*16)
		return bit(w, 31) == 1 || hw <= 1
	case kBitfield: // Imm = immr, Amount = imms; 32-bit ones must be < 32
		i.Imm, i.Amount = int64(field(w, 21, 16)), int8(field(w, 15, 10))
		return bit(w, 31) == 1 || (bit(w, 21) == 0 && bit(w, 15) == 0)
	case kLsb:
		i.Imm = int64(field(w, 15, 10))
		return bit(w, 31) == 1 || bit(w, 15) == 0
	case kCond:
		i.Cond = Cond(field(w, 15, 12))
	case kNZCV:
		i.Amount = int8(field(w, 3, 0))
	case kCcmpImm:
		i.Imm = int64(field(w, 20, 16))

	case kB26:
		i.Imm = decOffset(w, 0, 26)
	case kB19: // b.cond (with its condition), cbz and literal loads
		if i.Op == BCOND {
			i.Cond = Cond(field(w, 3, 0))
		}
		i.Imm = decOffset(w, 5, 19)
	case kTB:
		i.Imm = decOffset(w, 5, 14)
		i.Amount = int8(bit(w, 31)<<5 | field(w, 23, 19))
	case kImm16:
		i.Imm = int64(field(w, 20, 5))
	case kCRm:
		i.Imm = int64(field(w, 11, 8))
	case kSysReg:
		i.Imm = int64(field(w, 19, 5))

	case kLdSt:
		a := &ldst[field(w, 31, 30)<<3|bit(w, 26)<<2|field(w, 23, 22)]
		i.Op, i.Rd = a.op, a.view*regKindStride+Reg(field(w, 4, 0))
		return a.op != BAD
	case kUimm12: // [xn, #imm]: the scaled unsigned offset
		i.Mem = Mem{Mode: AddrImm, Base: baseReg(w), Imm: int32(field(w, 21, 10) << ldstScale(w))}
	case kImm9: // the unscaled offset (ldur, stur), post- and pre-index
		i.Mem = Mem{Mode: imm9Modes[field(w, 11, 10)], Base: baseReg(w), Imm: int32(signExtend(field(w, 20, 12), 9))}
		return i.Mem.Mode != AddrNone
	case kRegOff: // the option (15:13) selects the extend and the index width
		opt := field(w, 15, 13)
		m := Mem{Mode: regOffModes[opt], Base: baseReg(w), Index: gpReg(field(w, 20, 16), opt&1 == 1, false), Amount: -1}
		if scale := ldstScale(w); bit(w, 12) == 1 && scale > 0 {
			m.Amount = int8(scale)
		}
		if m.Mode == AddrReg && m.Amount < 0 {
			m.Amount = 0 // plain [xN, xM] is canonically amount 0
		}
		i.Mem = m
		return m.Mode != AddrNone
	case kLit:
		a := &lits[field(w, 31, 30)<<1|bit(w, 26)]
		i.Op, i.Rd, i.Mem = a.op, a.view*regKindStride+Reg(field(w, 4, 0)), Mem{Mode: AddrLiteral}
		return a.op != BAD
	case kPair: // Rd and Rm (bits 14:10) by (opc, V)
		a := &pairs[field(w, 31, 30)<<1|bit(w, 26)]
		i.Rd, i.Rm = a.view*regKindStride+Reg(field(w, 4, 0)), a.view*regKindStride+Reg(field(w, 14, 10))
		return a.op != BAD
	case kPairMem:
		scale := pairs[field(w, 31, 30)<<1|bit(w, 26)].scale
		i.Mem = Mem{Mode: pairModes[field(w, 24, 23)], Base: baseReg(w), Imm: int32(signExtend(field(w, 21, 15), 7) << scale)}
		return i.Mem.Mode != AddrNone

	case kFImm: // Imm = float64 bit pattern, Rn = RegNone
		i.Imm = int64(vfpExpandImm8(field(w, 20, 13)))
	case kFcvt: // the destination's type is in opcode bits 16:15
		t := ftypes[field(w, 16, 15)]
		i.Rd = t*regKindStride + Reg(field(w, 4, 0))
		return t != RegNone
	}
	return true
}

// encode ors i's fields into w by kind k. w holds what the row's
// registers and earlier kinds wrote; encode returns it with k's bits, or
// the reason the operands are refused.
func (k kind) encode(w uint32, i *Inst) (uint32, string) {
	switch k {
	case kSf:
		w |= sfBit(i.Rd) << 31
	case kSfRn:
		w |= sfBit(i.Rn) << 31
	case kSfAdd:
		r := i.Rd
		if r.IsZR() { // cmp, cmn and tst: Rn gives the width
			r = i.Rn
		}
		w |= sfBit(r) << 31
	case kSf64:
		if !i.Rd.Is64() {
			return 0, fmt.Sprintf("%s requires 64-bit registers", i.Op)
		}
	case kFtRd, kFtRn:
		r := i.Rd
		if k == kFtRn {
			r = i.Rn
		}
		ft, msg := fpType(r)
		return w | ft<<22, msg
	case kRaZR: // smulh and umulh have no Ra: the field holds 31
		w |= 31 << 10
	case kCRmAll: // isb accepts any CRm and writes SY
		w |= 0xf << 8

	case kSfN:
		w |= sfBit(i.Rd)<<31 | sfBit(i.Rd)<<22
	case kAdr:
		imm := i.Imm
		if i.Op == ADRP {
			if imm&0xfff != 0 {
				return 0, fmt.Sprintf("adrp offset %d not page aligned", imm)
			}
			imm >>= 12
		}
		if !fitsSigned(imm, 21) {
			return 0, "adr offset out of range"
		}
		u := uint32(imm) & 0x1fffff
		w |= (u&3)<<29 | (u>>2)<<5
	case kAddImm:
		// Register 31 here means SP, so the zero register cannot be
		// written or read by this encoding.
		if i.Rn.IsZR() || (i.Rd.IsZR() && (i.Op == ADD || i.Op == SUB)) {
			return 0, "zero register is not encodable in add/sub immediate (31 means sp)"
		}
		imm, sh := i.Imm, uint32(0)
		if i.Ext == ExtLSL && i.Amount == 12 {
			sh = 1
		} else if imm >= 4096 && imm&0xfff == 0 && imm>>12 < 4096 {
			sh = 1
			imm >>= 12
		}
		if imm < 0 || imm > 4095 {
			return 0, fmt.Sprintf("add/sub immediate %d out of range", i.Imm)
		}
		w |= sh<<22 | uint32(imm)<<10
	case kLogImm:
		n, immr, imms, ok := EncodeBitmask(uint64(i.Imm), bit(w, 31) == 1)
		if !ok {
			return 0, fmt.Sprintf("value %#x is not a valid bitmask immediate", uint64(i.Imm))
		}
		w |= n<<22 | immr<<16 | imms<<10
	case kShift:
		if i.Rm == RegNone {
			return 0, "no immediate form"
		}
		addSub := i.Op >= ADD && i.Op <= SUBS
		var sh uint32
		switch {
		case i.Ext == ExtNone || i.Ext == ExtLSL:
		case i.Ext == ExtLSR || i.Ext == ExtASR || (i.Ext == ExtROR && !addSub):
			sh = uint32(i.Ext - ExtLSL)
		case addSub:
			return 0, fmt.Sprintf("bad shift %v for add/sub", i.Ext)
		default:
			return 0, fmt.Sprintf("bad shift %v for logical op", i.Ext)
		}
		amt := uint32(max(i.Amount, 0))
		if amt > 63 || (bit(w, 31) == 0 && amt > 31) {
			return 0, "shift amount out of range"
		}
		w |= sh<<22 | amt<<10
	case kExtend:
		ext := i.Ext
		if ext == ExtNone || ext == ExtLSL {
			ext = ExtUXTX // sp operands force the extended form; lsl means uxtx there
		}
		amt := uint32(max(i.Amount, 0))
		if amt > 4 {
			return 0, fmt.Sprintf("extend amount %d out of range", amt)
		}
		rm, msg := gpNum(i.Rm)
		return w | rm<<16 | uint32(ext-ExtUXTB)<<13 | amt<<10, msg
	case kMovWide:
		if i.Imm < 0 || i.Imm > 0xffff {
			return 0, "imm16 out of range"
		}
		hw := uint32(i.Amount) / 16
		if i.Amount%16 != 0 || hw > 3 || (!i.Rd.Is64() && hw > 1) {
			return 0, fmt.Sprintf("bad move-wide shift %d", i.Amount)
		}
		w |= hw<<21 | uint32(i.Imm)<<5
	case kBitfield:
		maxv := int64(31) + 32*int64(bit(w, 31))
		if i.Imm < 0 || i.Imm > maxv || int64(i.Amount) < 0 || int64(i.Amount) > maxv {
			return 0, "bitfield immediate out of range"
		}
		w |= uint32(i.Imm)<<16 | uint32(i.Amount)<<10
	case kLsb:
		if i.Imm < 0 || i.Imm > int64(31)+32*int64(bit(w, 31)) {
			return 0, "extr lsb out of range"
		}
		w |= uint32(i.Imm) << 10
	case kCond:
		w |= uint32(i.Cond) << 12
	case kNZCV:
		w |= uint32(i.Amount) & 0xf
	case kCcmpImm:
		if i.Imm < 0 || i.Imm > 31 {
			return 0, "ccmp imm5 out of range"
		}
		w |= uint32(i.Imm) << 16

	case kB26:
		if w, ok := encOffset(w, i.Imm, 0, 26); ok {
			return w, ""
		}
		return 0, fmt.Sprintf("branch offset %d out of range", i.Imm)
	case kB19:
		if i.Op == BCOND {
			w |= uint32(i.Cond)
		}
		if w, ok := encOffset(w, i.Imm, 5, 19); ok {
			return w, ""
		}
		switch i.Op {
		case BCOND:
			return 0, "b.cond offset out of range"
		case CBZ, CBNZ:
			return 0, "cbz offset out of range"
		}
		return 0, "literal offset out of range"
	case kTB:
		var ok bool
		if w, ok = encOffset(w, i.Imm, 5, 14); !ok {
			return 0, "tbz offset out of range"
		}
		b := uint32(i.Amount)
		if b > 63 || (b > 31 && !i.Rd.Is64()) {
			return 0, "tbz bit number out of range"
		}
		w |= (b>>5)<<31 | (b&0x1f)<<19
	case kImm16:
		if i.Imm < 0 || i.Imm > 0xffff {
			return 0, fmt.Sprintf("%s imm16 out of range", i.Op)
		}
		w |= uint32(i.Imm) << 5
	case kCRm:
		w |= (uint32(i.Imm) & 0xf) << 8
	case kSysReg:
		w |= (uint32(i.Imm) & 0x7fff) << 5

	case kLdSt:
		j := ldstAt[i.Op-LDR][transferView(i.Rd)]
		if j < 0 {
			return 0, fmt.Sprintf("%s cannot transfer %v", i.Op, i.Rd)
		}
		w |= uint32(j>>3)<<30 | uint32(j>>2&1)<<26 | uint32(j&3)<<22 | i.Rd.EncNum()
	case kUimm12:
		base, msg := gpNum(i.Mem.Base)
		return w | uint32(i.Mem.Imm>>ldstScale(w))<<10 | base<<5, msg
	case kImm9:
		mode := i.Mem.Mode
		if mode == AddrBase {
			mode = AddrImm
		}
		if !fitsSigned(int64(i.Mem.Imm), 9) {
			if mode == AddrImm {
				return 0, fmt.Sprintf("load/store offset %d out of range", i.Mem.Imm)
			}
			return 0, fmt.Sprintf("pre/post index offset %d out of range", i.Mem.Imm)
		}
		base, msg := gpNum(i.Mem.Base)
		return w | (uint32(i.Mem.Imm)&0x1ff)<<12 | uint32(modeIndex(imm9Modes[:], mode))<<10 | base<<5, msg
	case kRegOff:
		scale := ldstScale(w)
		var s uint32
		switch {
		case i.Mem.Amount <= 0:
		case uint8(i.Mem.Amount) == scale:
			s = 1
		default:
			return 0, fmt.Sprintf("register-offset shift %d must be 0 or %d", i.Mem.Amount, scale)
		}
		index, msg := gpNum(i.Mem.Index)
		if msg != "" {
			return 0, msg
		}
		base, msg := gpNum(i.Mem.Base)
		return w | index<<16 | uint32(modeIndex(regOffModes[:], i.Mem.Mode))<<13 | s<<12 | base<<5, msg
	case kLit:
		if i.Mem.Mode != AddrLiteral {
			return 0, "bad addressing mode"
		}
		if !i.Op.IsLoad() {
			return 0, "literal addressing requires a load"
		}
		j := lookup(lits[:], i.Op, transferView(i.Rd))
		if j < 0 {
			return 0, "op has no literal form"
		}
		w |= uint32(j>>1)<<30 | uint32(j&1)<<26 | i.Rd.EncNum()
	case kPair:
		j := lookup(pairs[:], LDP, transferView(i.Rd))
		if j < 0 {
			return 0, fmt.Sprintf("%s cannot transfer %v", i.Op, i.Rd)
		}
		if i.Rm.IsFP() != i.Rd.IsFP() {
			return 0, fmt.Sprintf("%s cannot transfer %v with %v", i.Op, i.Rd, i.Rm)
		}
		w |= uint32(j>>1)<<30 | uint32(j&1)<<26 | i.Rm.EncNum()<<10 | i.Rd.EncNum()
	case kPairMem:
		mode := i.Mem.Mode
		if mode == AddrBase {
			mode = AddrImm
		}
		idx := modeIndex(pairModes[:], mode)
		if idx <= 0 {
			return 0, "bad pair addressing mode"
		}
		scale := pairs[field(w, 31, 30)<<1|bit(w, 26)].scale
		imm := int64(i.Mem.Imm)
		if imm&(1<<scale-1) != 0 || !fitsSigned(imm>>scale, 7) {
			return 0, fmt.Sprintf("pair offset %d out of range", imm)
		}
		base, msg := gpNum(i.Mem.Base)
		return w | uint32(idx)<<23 | (uint32(imm>>scale)&0x7f)<<15 | base<<5, msg

	case kFImm:
		ft, msg := fpType(i.Rd)
		if msg != "" {
			return 0, msg
		}
		imm8, ok := encodeFPImm8(uint64(i.Imm))
		if !ok {
			return 0, fmt.Sprintf("%v is not an fmov immediate", math.Float64frombits(uint64(i.Imm)))
		}
		w |= ft<<22 | imm8<<13
	case kFcvt:
		dt, msg := fpType(i.Rd)
		return w | dt<<15 | i.Rd.EncNum(), msg
	}
	return w, ""
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
