package arm64

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParseError reports an unparseable instruction line.
type ParseError struct {
	Line string
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("arm64: cannot parse %q: %s", e.Line, e.Msg)
}

// splitOperands appends to dst the comma-separated pieces of an operand
// list, with memory operands kept intact ("[x0, #8]!") and string
// literals unbroken. Callers pass a fixed array, so a line's operands
// cost no allocation.
func splitOperands(dst []string, s string) []string {
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			for i++; i < len(s) && s[i] != '"'; i++ {
				if s[i] == '\\' {
					i++
				}
			}
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				dst = append(dst, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	last := strings.TrimSpace(s[start:])
	if last != "" || len(dst) > 0 {
		dst = append(dst, last)
	}
	return dst
}

func parseImmVal(s string) (int64, bool) {
	s = strings.TrimPrefix(s, "#")
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	var v uint64
	var err error
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		v, err = strconv.ParseUint(s[2:], 16, 64)
	} else {
		v, err = strconv.ParseUint(s, 10, 64)
	}
	if err != nil {
		return 0, false
	}
	r := int64(v)
	if neg {
		r = -r
	}
	return r, true
}

func isImm(s string) bool {
	if s == "" {
		return false
	}
	if s[0] == '#' {
		return true
	}
	c := s[0]
	return c == '-' || (c >= '0' && c <= '9')
}

// barrierOpts names the DMB/DSB options by their CRm value; the holes
// have no name.
var barrierOpts = [16]string{
	1: "oshld", 2: "oshst", 3: "osh",
	5: "nshld", 6: "nshst", 7: "nsh",
	9: "ishld", 10: "ishst", 11: "ish",
	13: "ld", 14: "st", 15: "sy",
}

// A few system registers, packed as op0:op1:CRn:CRm:op2 (15 bits, with op0
// encoded as its low bit the way MRS/MSR instructions carry it).
var sysRegs = [...]struct {
	name string
	enc  int64
}{
	{"tpidr_el0", 1<<14 | 3<<11 | 13<<7 | 0<<3 | 2},
	{"scxtnum_el0", 1<<14 | 3<<11 | 13<<7 | 0<<3 | 7},
	{"nzcv", 1<<14 | 3<<11 | 4<<7 | 2<<3 | 0},
	{"fpcr", 1<<14 | 3<<11 | 4<<7 | 4<<3 | 0},
	{"fpsr", 1<<14 | 3<<11 | 4<<7 | 4<<3 | 1},
	{"cntvct_el0", 1<<14 | 3<<11 | 14<<7 | 0<<3 | 2},
}

// parseSysReg resolves a system register operand: either one of the named
// registers above, or the generic s<op0>_<op1>_c<CRn>_c<CRm>_<op2> spelling
// that the printer falls back to for registers it has no name for.
func parseSysReg(s string) (int64, bool) {
	s = strings.ToLower(s)
	for _, sr := range sysRegs {
		if sr.name == s {
			return sr.enc, true
		}
	}
	var op0, op1, crn, crm, op2 int64
	if n, err := fmt.Sscanf(s, "s%d_%d_c%d_c%d_%d", &op0, &op1, &crn, &crm, &op2); n != 5 || err != nil {
		return 0, false
	}
	if op0 < 2 || op0 > 3 || op1 > 7 || crn > 15 || crm > 15 || op2 > 7 ||
		op1 < 0 || crn < 0 || crm < 0 || op2 < 0 {
		return 0, false
	}
	return (op0&1)<<14 | op1<<11 | crn<<7 | crm<<3 | op2, true
}

func parseMem(s string) (Mem, string, bool) {
	// Returns the Mem and any trailing text after ']' ("!" for pre-index).
	if !strings.HasPrefix(s, "[") {
		return Mem{}, "", false
	}
	close := strings.LastIndexByte(s, ']')
	if close < 0 {
		return Mem{}, "", false
	}
	inner := s[1:close]
	trail := strings.TrimSpace(s[close+1:])
	if trail != "" && trail != "!" {
		return Mem{}, "", false
	}
	var buf [4]string
	parts := splitOperands(buf[:0], inner)
	if len(parts) == 0 {
		return Mem{}, "", false
	}
	base, ok := ParseReg(parts[0])
	if !ok || !base.Is64() {
		return Mem{}, "", false
	}
	m := Mem{Base: base, Amount: -1}
	switch len(parts) {
	case 1:
		m.Mode = AddrBase
		m.Imm = 0
		if trail == "" {
			// plain [xN]; normalize to AddrImm with 0 for uniform handling
			m.Mode = AddrImm
		}
		return m, trail, true
	case 2:
		if isImm(parts[1]) {
			v, ok := parseImmVal(parts[1])
			if !ok {
				return Mem{}, "", false
			}
			m.Imm = int32(v)
			if trail == "!" {
				m.Mode = AddrPre
			} else {
				m.Mode = AddrImm
			}
			return m, trail, true
		}
		idx, ok := ParseReg(parts[1])
		if !ok {
			return Mem{}, "", false
		}
		m.Index = idx
		m.Mode = AddrReg
		m.Amount = 0
		return m, trail, true
	case 3:
		idx, ok := ParseReg(parts[1])
		if !ok {
			return Mem{}, "", false
		}
		m.Index = idx
		word, amount := cutWord(parts[2])
		ext, ok := ParseExtend(strings.ToLower(word))
		if !ok {
			return Mem{}, "", false
		}
		amt := int8(-1)
		if amount != "" {
			v, ok := parseImmVal(amount)
			if !ok || v < 0 || v > 4 {
				return Mem{}, "", false
			}
			amt = int8(v)
		}
		switch ext {
		case ExtLSL:
			m.Mode = AddrReg
			if amt < 0 {
				amt = 0
			}
		case ExtUXTW:
			m.Mode = AddrRegUXTW
		case ExtSXTW:
			m.Mode = AddrRegSXTW
		case ExtSXTX:
			m.Mode = AddrRegSXTX
		default:
			return Mem{}, "", false
		}
		m.Amount = amt
		return m, trail, true
	}
	return Mem{}, "", false
}

// ParseInst parses one instruction in GNU assembly syntax, resolving
// aliases (mov, cmp, lsl #imm, cset, …) to canonical operations. Branch
// targets may be symbolic labels (returned in Label) or numeric offsets.
func ParseInst(line string) (Inst, error) {
	line = strings.TrimSpace(line)
	i, err := parseInst(line)
	if err != nil {
		err.Line = line
		return Inst{Op: BAD}, err
	}
	return i, nil
}

// perr, needReg and the rest of parseInst report errors without the line;
// ParseInst adds it, so nothing on the success path holds on to it.
func perr(format string, args ...any) (Inst, *ParseError) {
	return Inst{Op: BAD}, &ParseError{Msg: fmt.Sprintf(format, args...)}
}

func lowerReg(s string) (Reg, bool) { return ParseReg(strings.ToLower(s)) }

func needReg(s string) (Reg, *ParseError) {
	r, ok := lowerReg(s)
	if !ok {
		return RegNone, &ParseError{Msg: fmt.Sprintf("bad register %q", s)}
	}
	return r, nil
}

// parseShiftOp parses a trailing "lsl #3" style operand.
func parseShiftOp(s string) (Extend, int8, bool) {
	word, amount := cutWord(s)
	ext, ok := ParseExtend(strings.ToLower(word))
	if !ok {
		return ExtNone, -1, false
	}
	if amount == "" {
		return ext, -1, true
	}
	v, ok := parseImmVal(amount)
	if !ok || v < 0 || v > 63 {
		return ExtNone, -1, false
	}
	return ext, int8(v), true
}

func parseInst(line string) (Inst, *ParseError) {
	mnem, rest := cutWord(line)
	mnem = strings.ToLower(mnem)
	var opbuf [6]string
	ops := splitOperands(opbuf[:0], rest)

	var i Inst
	i.Rd, i.Rn, i.Rm, i.Ra = RegNone, RegNone, RegNone, RegNone
	i.Amount = -1

	labelOrOfs := func(s string) {
		if isImm(s) {
			v, _ := parseImmVal(s)
			i.Imm = v
		} else {
			i.Label = s
		}
	}

	// Condition-suffixed branch: b.eq, b.lt, ...
	if strings.HasPrefix(mnem, "b.") {
		c, ok := ParseCond(mnem[2:])
		if !ok {
			return perr("bad condition %q", mnem[2:])
		}
		if len(ops) != 1 {
			return perr("b.cond needs one operand")
		}
		i.Op = BCOND
		i.Cond = c
		labelOrOfs(ops[0])
		return i, nil
	}

	// Fill Rm/Imm/Ext from an "operand 2" (register with optional shift, or
	// immediate with optional shift).
	fillOp2 := func(op2 []string) *ParseError {
		if len(op2) > 2 {
			return &ParseError{Msg: "too many operands"}
		}
		addSub := i.Op.shape() == shapeAddSub
		if strings.HasPrefix(op2[0], ":lo12:") {
			// Relocation-style symbolic immediate (adrp/add pairs); the
			// assembler resolves it to sym & 0xfff.
			if !addSub || len(op2) != 1 {
				return &ParseError{Msg: fmt.Sprintf("bad operand %q", op2[0])}
			}
			i.Label = op2[0]
			return nil
		}
		if isImm(op2[0]) {
			v, ok := parseImmVal(op2[0])
			if !ok {
				return &ParseError{Msg: "bad immediate"}
			}
			i.Imm = v
			if len(op2) == 2 {
				// Only add/sub immediates shift, and only by 0 or 12.
				ext, amt, ok := parseShiftOp(op2[1])
				if !ok || !addSub || ext != ExtLSL || (amt != 0 && amt != 12) {
					return &ParseError{Msg: "bad shift"}
				}
				if amt == 12 {
					i.Ext, i.Amount = ext, amt
				}
			}
			return nil
		}
		r, ok := lowerReg(op2[0])
		if !ok {
			return &ParseError{Msg: fmt.Sprintf("bad operand %q", op2[0])}
		}
		i.Rm = r
		if len(op2) == 2 {
			ext, amt, ok := parseShiftOp(op2[1])
			if !ok {
				return &ParseError{Msg: "bad shift"}
			}
			i.Ext, i.Amount = ext, amt
		}
		return nil
	}

	switch mnem {
	case "mov":
		if len(ops) != 2 {
			return perr("mov needs 2 operands")
		}
		rd, err := needReg(ops[0])
		if err != nil {
			return i, err
		}
		i.Rd = rd
		if isImm(ops[1]) {
			v, ok := parseImmVal(ops[1])
			if !ok {
				return perr("bad immediate")
			}
			return movImmInst(rd, v)
		}
		rm, err := needReg(ops[1])
		if err != nil {
			return i, err
		}
		if rd.IsSP() || rm.IsSP() {
			i.Op = ADD
			i.Rn = rm
			i.Imm = 0
			return i, nil
		}
		i.Op = ORR
		i.Rn = rd.X().W() // placeholder, fixed below
		if rd.Is64() {
			i.Rn = XZR
		} else {
			i.Rn = WZR
		}
		i.Rm = rm
		return i, nil

	case "cmp", "cmn":
		if len(ops) < 2 {
			return perr("cmp needs 2 operands")
		}
		rn, err := needReg(ops[0])
		if err != nil {
			return i, err
		}
		i.Rn = rn
		if rn.Is64() {
			i.Rd = XZR
		} else {
			i.Rd = WZR
		}
		if mnem == "cmp" {
			i.Op = SUBS
		} else {
			i.Op = ADDS
		}
		if err := fillOp2(ops[1:]); err != nil {
			return i, err
		}
		return i, nil

	case "tst":
		if len(ops) < 2 {
			return perr("tst needs 2 operands")
		}
		rn, err := needReg(ops[0])
		if err != nil {
			return i, err
		}
		i.Op = ANDS
		i.Rn = rn
		if rn.Is64() {
			i.Rd = XZR
		} else {
			i.Rd = WZR
		}
		if err := fillOp2(ops[1:]); err != nil {
			return i, err
		}
		return i, nil

	case "neg", "negs":
		if len(ops) < 2 {
			return perr("neg needs 2 operands")
		}
		rd, err := needReg(ops[0])
		if err != nil {
			return i, err
		}
		i.Rd = rd
		if rd.Is64() {
			i.Rn = XZR
		} else {
			i.Rn = WZR
		}
		i.Op = SUB
		if mnem == "negs" {
			i.Op = SUBS
		}
		if err := fillOp2(ops[1:]); err != nil {
			return i, err
		}
		return i, nil

	case "mvn":
		if len(ops) < 2 {
			return perr("mvn needs 2 operands")
		}
		rd, err := needReg(ops[0])
		if err != nil {
			return i, err
		}
		i.Op = ORN
		i.Rd = rd
		if rd.Is64() {
			i.Rn = XZR
		} else {
			i.Rn = WZR
		}
		if err := fillOp2(ops[1:]); err != nil {
			return i, err
		}
		return i, nil

	case "mul", "mneg", "smull", "umull":
		if len(ops) != 3 {
			return perr("%s needs 3 operands", mnem)
		}
		rd, err := needReg(ops[0])
		if err != nil {
			return i, err
		}
		rn, err := needReg(ops[1])
		if err != nil {
			return i, err
		}
		rm, err := needReg(ops[2])
		if err != nil {
			return i, err
		}
		i.Rd, i.Rn, i.Rm = rd, rn, rm
		switch mnem {
		case "mul":
			i.Op = MADD
		case "mneg":
			i.Op = MSUB
		case "smull":
			i.Op = SMADDL
		case "umull":
			i.Op = UMADDL
		}
		if rd.Is64() {
			i.Ra = XZR
		} else {
			i.Ra = WZR
		}
		return i, nil

	case "lsl", "lsr", "asr", "ror":
		if len(ops) != 3 {
			return perr("%s needs 3 operands", mnem)
		}
		rd, err := needReg(ops[0])
		if err != nil {
			return i, err
		}
		rn, err := needReg(ops[1])
		if err != nil {
			return i, err
		}
		i.Rd, i.Rn = rd, rn
		if !isImm(ops[2]) {
			rm, err := needReg(ops[2])
			if err != nil {
				return i, err
			}
			i.Rm = rm
			switch mnem {
			case "lsl":
				i.Op = LSLV
			case "lsr":
				i.Op = LSRV
			case "asr":
				i.Op = ASRV
			case "ror":
				i.Op = RORV
			}
			return i, nil
		}
		sh, ok := parseImmVal(ops[2])
		if !ok {
			return perr("bad shift immediate")
		}
		size := int64(32)
		if rd.Is64() {
			size = 64
		}
		if sh < 0 || sh >= size {
			return perr("shift out of range")
		}
		switch mnem {
		case "lsl":
			i.Op = UBFM
			i.Imm = (size - sh) % size
			i.Amount = int8(size - 1 - sh)
		case "lsr":
			i.Op = UBFM
			i.Imm = sh
			i.Amount = int8(size - 1)
		case "asr":
			i.Op = SBFM
			i.Imm = sh
			i.Amount = int8(size - 1)
		case "ror":
			i.Op = EXTR
			i.Rm = rn
			i.Imm = sh
		}
		return i, nil

	case "sxtb", "sxth", "sxtw", "uxtb", "uxth":
		if len(ops) != 2 {
			return perr("%s needs 2 operands", mnem)
		}
		rd, err := needReg(ops[0])
		if err != nil {
			return i, err
		}
		rn, err := needReg(ops[1])
		if err != nil {
			return i, err
		}
		i.Rd, i.Rn = rd, rn
		if strings.HasPrefix(mnem, "s") {
			i.Op = SBFM
		} else {
			i.Op = UBFM
		}
		i.Imm = 0
		switch mnem[3] {
		case 'b':
			i.Amount = 7
		case 'h':
			i.Amount = 15
		case 'w':
			i.Amount = 31
		}
		// Source of the extension is read as a W register; destination
		// width chooses sf. sxtw requires a 64-bit destination.
		if mnem == "sxtw" && !rd.Is64() {
			return perr("sxtw needs a 64-bit destination")
		}
		if rd.Is64() {
			i.Rn = rn.X()
		}
		return i, nil

	case "ubfx", "ubfiz", "sbfx", "sbfiz", "bfi", "bfxil":
		if len(ops) != 4 {
			return perr("%s needs 4 operands", mnem)
		}
		rd, err := needReg(ops[0])
		if err != nil {
			return i, err
		}
		rn, err := needReg(ops[1])
		if err != nil {
			return i, err
		}
		lsb, ok1 := parseImmVal(ops[2])
		width, ok2 := parseImmVal(ops[3])
		if !ok1 || !ok2 || width < 1 {
			return perr("bad bitfield immediates")
		}
		size := int64(32)
		if rd.Is64() {
			size = 64
		}
		i.Rd, i.Rn = rd, rn
		switch mnem {
		case "ubfx":
			i.Op, i.Imm, i.Amount = UBFM, lsb, int8(lsb+width-1)
		case "sbfx":
			i.Op, i.Imm, i.Amount = SBFM, lsb, int8(lsb+width-1)
		case "ubfiz":
			i.Op, i.Imm, i.Amount = UBFM, (size-lsb)%size, int8(width-1)
		case "sbfiz":
			i.Op, i.Imm, i.Amount = SBFM, (size-lsb)%size, int8(width-1)
		case "bfi":
			i.Op, i.Imm, i.Amount = BFM, (size-lsb)%size, int8(width-1)
		case "bfxil":
			i.Op, i.Imm, i.Amount = BFM, lsb, int8(lsb+width-1)
		}
		return i, nil

	case "cset", "csetm":
		if len(ops) != 2 {
			return perr("%s needs 2 operands", mnem)
		}
		rd, err := needReg(ops[0])
		if err != nil {
			return i, err
		}
		c, ok := ParseCond(strings.ToLower(ops[1]))
		if !ok {
			return perr("bad condition")
		}
		zr := XZR
		if !rd.Is64() {
			zr = WZR
		}
		i.Rd, i.Rn, i.Rm = rd, zr, zr
		i.Cond = c.Invert()
		if mnem == "cset" {
			i.Op = CSINC
		} else {
			i.Op = CSINV
		}
		return i, nil

	case "cinc", "cinv", "cneg":
		if len(ops) != 3 {
			return perr("%s needs 3 operands", mnem)
		}
		rd, err := needReg(ops[0])
		if err != nil {
			return i, err
		}
		rn, err := needReg(ops[1])
		if err != nil {
			return i, err
		}
		c, ok := ParseCond(strings.ToLower(ops[2]))
		if !ok {
			return perr("bad condition")
		}
		i.Rd, i.Rn, i.Rm = rd, rn, rn
		i.Cond = c.Invert()
		switch mnem {
		case "cinc":
			i.Op = CSINC
		case "cinv":
			i.Op = CSINV
		case "cneg":
			i.Op = CSNEG
		}
		return i, nil
	}

	op, ok := opByName[mnem]
	if !ok {
		return perr("unknown mnemonic %q", mnem)
	}
	i.Op = op

	switch op.shape() {
	case shapeNone:
		return i, nil

	case shapeAdr:
		if len(ops) != 2 {
			return perr("adr needs 2 operands")
		}
		rd, err := needReg(ops[0])
		if err != nil {
			return i, err
		}
		i.Rd = rd
		labelOrOfs(ops[1])
		return i, nil

	case shapeAddSub, shapeLogical:
		if len(ops) < 3 {
			return perr("%s needs at least 3 operands", mnem)
		}
		rd, err := needReg(ops[0])
		if err != nil {
			return i, err
		}
		rn, err := needReg(ops[1])
		if err != nil {
			return i, err
		}
		i.Rd, i.Rn = rd, rn
		if err := fillOp2(ops[2:]); err != nil {
			return i, err
		}
		return i, nil

	case shapeMovWide:
		if len(ops) < 2 {
			return perr("%s needs 2 operands", mnem)
		}
		rd, err := needReg(ops[0])
		if err != nil {
			return i, err
		}
		v, ok := parseImmVal(ops[1])
		if !ok {
			return perr("bad imm16")
		}
		i.Rd, i.Imm, i.Amount = rd, v, 0
		if len(ops) == 3 {
			ext, amt, ok := parseShiftOp(ops[2])
			if !ok || ext != ExtLSL || amt < 0 || amt%16 != 0 {
				return perr("bad move-wide shift")
			}
			i.Amount = amt
			i.Ext = ExtNone
		}
		return i, nil

	case shapeBitfield:
		if len(ops) != 4 {
			return perr("%s needs 4 operands", mnem)
		}
		rd, err := needReg(ops[0])
		if err != nil {
			return i, err
		}
		rn, err := needReg(ops[1])
		if err != nil {
			return i, err
		}
		immr, ok1 := parseImmVal(ops[2])
		imms, ok2 := parseImmVal(ops[3])
		if !ok1 || !ok2 {
			return perr("bad bitfield immediates")
		}
		i.Rd, i.Rn, i.Imm, i.Amount = rd, rn, immr, int8(imms)
		return i, nil

	case shapeExtr:
		if len(ops) != 4 {
			return perr("extr needs 4 operands")
		}
		rd, err := needReg(ops[0])
		if err != nil {
			return i, err
		}
		rn, err := needReg(ops[1])
		if err != nil {
			return i, err
		}
		rm, err := needReg(ops[2])
		if err != nil {
			return i, err
		}
		lsb, ok := parseImmVal(ops[3])
		if !ok {
			return perr("bad lsb")
		}
		i.Rd, i.Rn, i.Rm, i.Imm = rd, rn, rm, lsb
		return i, nil

	case shapeRRR:
		if len(ops) != 3 {
			return perr("%s needs 3 operands", mnem)
		}
		rd, err := needReg(ops[0])
		if err != nil {
			return i, err
		}
		rn, err := needReg(ops[1])
		if err != nil {
			return i, err
		}
		rm, err := needReg(ops[2])
		if err != nil {
			return i, err
		}
		i.Rd, i.Rn, i.Rm = rd, rn, rm
		return i, nil

	case shapeRRRR:
		if len(ops) != 4 {
			return perr("%s needs 4 operands", mnem)
		}
		rd, err := needReg(ops[0])
		if err != nil {
			return i, err
		}
		rn, err := needReg(ops[1])
		if err != nil {
			return i, err
		}
		rm, err := needReg(ops[2])
		if err != nil {
			return i, err
		}
		ra, err := needReg(ops[3])
		if err != nil {
			return i, err
		}
		i.Rd, i.Rn, i.Rm, i.Ra = rd, rn, rm, ra
		return i, nil

	case shapeRR:
		if len(ops) != 2 {
			return perr("%s needs 2 operands", mnem)
		}
		rd, err := needReg(ops[0])
		if err != nil {
			return i, err
		}
		i.Rd = rd
		if op == FMOV && isImm(ops[1]) {
			s := strings.TrimPrefix(ops[1], "#")
			f, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return perr("bad fmov immediate")
			}
			i.Imm = int64(math.Float64bits(f))
			return i, nil
		}
		rn, err := needReg(ops[1])
		if err != nil {
			return i, err
		}
		i.Rn = rn
		return i, nil

	case shapeCSel:
		if len(ops) != 4 {
			return perr("%s needs 4 operands", mnem)
		}
		rd, err := needReg(ops[0])
		if err != nil {
			return i, err
		}
		rn, err := needReg(ops[1])
		if err != nil {
			return i, err
		}
		rm, err := needReg(ops[2])
		if err != nil {
			return i, err
		}
		c, ok := ParseCond(strings.ToLower(ops[3]))
		if !ok {
			return perr("bad condition")
		}
		i.Rd, i.Rn, i.Rm, i.Cond = rd, rn, rm, c
		return i, nil

	case shapeCCmp:
		if len(ops) != 4 {
			return perr("%s needs 4 operands", mnem)
		}
		rn, err := needReg(ops[0])
		if err != nil {
			return i, err
		}
		i.Rn = rn
		if isImm(ops[1]) {
			v, ok := parseImmVal(ops[1])
			if !ok {
				return perr("bad imm5")
			}
			i.Imm = v
		} else {
			rm, err := needReg(ops[1])
			if err != nil {
				return i, err
			}
			i.Rm = rm
		}
		nzcv, ok := parseImmVal(ops[2])
		if !ok || nzcv < 0 || nzcv > 15 {
			return perr("bad nzcv")
		}
		i.Amount = int8(nzcv)
		c, ok := ParseCond(strings.ToLower(ops[3]))
		if !ok {
			return perr("bad condition")
		}
		i.Cond = c
		return i, nil

	case shapeBranch:
		if len(ops) != 1 {
			return perr("%s needs 1 operand", mnem)
		}
		labelOrOfs(ops[0])
		return i, nil

	case shapeCB:
		if len(ops) != 2 {
			return perr("%s needs 2 operands", mnem)
		}
		rt, err := needReg(ops[0])
		if err != nil {
			return i, err
		}
		i.Rd = rt
		labelOrOfs(ops[1])
		return i, nil

	case shapeTB:
		if len(ops) != 3 {
			return perr("%s needs 3 operands", mnem)
		}
		rt, err := needReg(ops[0])
		if err != nil {
			return i, err
		}
		b, ok := parseImmVal(ops[1])
		if !ok || b < 0 || b > 63 {
			return perr("bad bit number")
		}
		i.Rd = rt
		i.Amount = int8(b)
		labelOrOfs(ops[2])
		return i, nil

	case shapeBReg:
		if len(ops) != 1 {
			return perr("%s needs 1 operand", mnem)
		}
		rn, err := needReg(ops[0])
		if err != nil {
			return i, err
		}
		i.Rn = rn
		return i, nil

	case shapeRet:
		if len(ops) == 0 {
			i.Rn = X30
			return i, nil
		}
		rn, err := needReg(ops[0])
		if err != nil {
			return i, err
		}
		i.Rn = rn
		return i, nil

	case shapeMem:
		if len(ops) < 2 {
			return perr("%s needs 2 operands", mnem)
		}
		rt, err := needReg(ops[0])
		if err != nil {
			return i, err
		}
		i.Rd = rt
		if !strings.HasPrefix(ops[1], "[") {
			// Literal (label) load.
			if !op.IsLoad() {
				return perr("store cannot use a literal")
			}
			i.Mem = Mem{Mode: AddrLiteral}
			labelOrOfs(ops[1])
			return i, nil
		}
		m, trail, ok := parseMem(ops[1])
		if !ok {
			return perr("bad memory operand %q", ops[1])
		}
		if len(ops) == 3 { // post-index: ldr x0, [x1], #8
			v, ok := parseImmVal(ops[2])
			if !ok || m.WritesBack() || m.IsRegOffset() || m.Imm != 0 {
				return perr("bad post-index")
			}
			m.Mode = AddrPost
			m.Imm = int32(v)
		} else if trail == "!" && m.Mode != AddrPre {
			return perr("bad pre-index")
		}
		i.Mem = m
		return i, nil

	case shapeMemPair:
		if len(ops) < 3 {
			return perr("%s needs 3 operands", mnem)
		}
		rt, err := needReg(ops[0])
		if err != nil {
			return i, err
		}
		rt2, err := needReg(ops[1])
		if err != nil {
			return i, err
		}
		i.Rd, i.Rm = rt, rt2
		m, trail, ok := parseMem(ops[2])
		if !ok {
			return perr("bad memory operand")
		}
		if len(ops) == 4 {
			v, ok := parseImmVal(ops[3])
			if !ok || m.WritesBack() || m.IsRegOffset() || m.Imm != 0 {
				return perr("bad post-index")
			}
			m.Mode = AddrPost
			m.Imm = int32(v)
		} else if trail == "!" && m.Mode != AddrPre {
			return perr("bad pre-index")
		}
		i.Mem = m
		return i, nil

	case shapeMemEx:
		// ldxr rt, [rn] / stxr rs, rt, [rn]
		isStX := op == STXR || op == STLXR
		want := 2
		if isStX {
			want = 3
		}
		if len(ops) != want {
			return perr("%s needs %d operands", mnem, want)
		}
		k := 0
		if isStX {
			rs, err := needReg(ops[0])
			if err != nil {
				return i, err
			}
			i.Rm = rs
			k = 1
		}
		rt, err := needReg(ops[k])
		if err != nil {
			return i, err
		}
		i.Rd = rt
		m, _, ok := parseMem(ops[k+1])
		if !ok || (m.Mode != AddrImm && m.Mode != AddrBase) || m.Imm != 0 {
			return perr("exclusive ops take [rn] only")
		}
		i.Rn = m.Base
		return i, nil

	case shapeFPCmp:
		if len(ops) != 2 {
			return perr("fcmp needs 2 operands")
		}
		rn, err := needReg(ops[0])
		if err != nil {
			return i, err
		}
		i.Rn = rn
		if isImm(ops[1]) {
			i.Rm = RegNone // fcmp dN, #0.0
			return i, nil
		}
		rm, err := needReg(ops[1])
		if err != nil {
			return i, err
		}
		i.Rm = rm
		return i, nil

	case shapeSys:
		switch op {
		case SVC, BRK:
			if len(ops) != 1 {
				return perr("%s needs 1 operand", mnem)
			}
			v, ok := parseImmVal(ops[0])
			if !ok {
				return perr("bad immediate")
			}
			i.Imm = v
			return i, nil
		case DMB, DSB:
			if len(ops) != 1 {
				return perr("%s needs 1 operand", mnem)
			}
			opt := strings.ToLower(ops[0])
			for v, name := range barrierOpts {
				if name == opt && name != "" {
					i.Imm = int64(v)
					return i, nil
				}
			}
			return perr("bad barrier option %q", ops[0])
		case MRS:
			if len(ops) != 2 {
				return perr("mrs needs 2 operands")
			}
			rt, err := needReg(ops[0])
			if err != nil {
				return i, err
			}
			v, ok := parseSysReg(ops[1])
			if !ok {
				return perr("unknown system register %q", ops[1])
			}
			i.Rd, i.Imm = rt, v
			return i, nil
		case MSR:
			if len(ops) != 2 {
				return perr("msr needs 2 operands")
			}
			v, ok := parseSysReg(ops[0])
			if !ok {
				return perr("unknown system register %q", ops[0])
			}
			rt, err := needReg(ops[1])
			if err != nil {
				return i, err
			}
			i.Rd, i.Imm = rt, v
			return i, nil
		}
	}
	return perr("unhandled shape for %q", mnem)
}

// movImmInst lowers "mov rd, #imm" to movz/movn/orr-immediate.
func movImmInst(rd Reg, v int64) (Inst, *ParseError) {
	i := Inst{Rd: rd, Rn: RegNone, Rm: RegNone, Ra: RegNone, Amount: 0}
	u := uint64(v)
	if !rd.Is64() {
		u &= 0xffffffff
	}
	shifts := 4
	if !rd.Is64() {
		shifts = 2
	}
	// movz: single non-zero 16-bit chunk.
	for s := 0; s < shifts; s++ {
		if u&^(uint64(0xffff)<<(16*s)) == 0 {
			i.Op = MOVZ
			i.Imm = int64(u >> (16 * s))
			i.Amount = int8(16 * s)
			return i, nil
		}
	}
	// movn: single non-ones 16-bit chunk.
	inv := ^u
	if !rd.Is64() {
		inv &= 0xffffffff
	}
	for s := 0; s < shifts; s++ {
		if inv&^(uint64(0xffff)<<(16*s)) == 0 {
			i.Op = MOVN
			i.Imm = int64(inv >> (16 * s))
			i.Amount = int8(16 * s)
			return i, nil
		}
	}
	// Bitmask immediate via ORR.
	if _, _, _, ok := EncodeBitmask(u, rd.Is64()); ok {
		i.Op = ORR
		if rd.Is64() {
			i.Rn = XZR
		} else {
			i.Rn = WZR
		}
		i.Imm = int64(u)
		i.Amount = -1
		return i, nil
	}
	return perr("mov immediate %#x needs multiple instructions", u)
}
