package arm64

import "fmt"

// Cond is an ARM64 condition code.
type Cond uint8

const (
	EQ Cond = iota // equal
	NE             // not equal
	CS             // carry set / unsigned higher or same (HS)
	CC             // carry clear / unsigned lower (LO)
	MI             // minus / negative
	PL             // plus / positive or zero
	VS             // overflow
	VC             // no overflow
	HI             // unsigned higher
	LS             // unsigned lower or same
	GE             // signed greater or equal
	LT             // signed less than
	GT             // signed greater than
	LE             // signed less or equal
	AL             // always
	NV             // always (encoding 1111)
)

var condNames = [...]string{
	"eq", "ne", "hs", "lo", "mi", "pl", "vs", "vc",
	"hi", "ls", "ge", "lt", "gt", "le", "al", "nv",
}

func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("<bad cond %d>", uint8(c))
}

// Invert returns the logically inverted condition (EQ<->NE and so on).
func (c Cond) Invert() Cond { return c ^ 1 }

// ParseCond parses a condition-code suffix.
func ParseCond(s string) (Cond, bool) {
	switch s {
	case "cs":
		return CS, true
	case "cc":
		return CC, true
	}
	for i, n := range condNames {
		if n == s {
			return Cond(i), true
		}
	}
	return 0, false
}

// Extend is a register extension/shift modifier used by extended-register
// ADD/SUB and register-offset addressing modes.
type Extend uint8

const (
	ExtNone Extend = iota
	ExtUXTB
	ExtUXTH
	ExtUXTW
	ExtUXTX // same as LSL for addressing
	ExtSXTB
	ExtSXTH
	ExtSXTW
	ExtSXTX
	ExtLSL // plain shift (shifted-register forms, or LSL in addressing)
	ExtLSR
	ExtASR
	ExtROR
)

var extendNames = [...]string{
	"", "uxtb", "uxth", "uxtw", "uxtx", "sxtb", "sxth", "sxtw", "sxtx",
	"lsl", "lsr", "asr", "ror",
}

func (e Extend) String() string {
	if int(e) < len(extendNames) {
		return extendNames[e]
	}
	return fmt.Sprintf("<bad extend %d>", uint8(e))
}

// ParseExtend parses an extend/shift keyword.
func ParseExtend(s string) (Extend, bool) {
	for i := 1; i < len(extendNames); i++ {
		if extendNames[i] == s {
			return Extend(i), true
		}
	}
	return ExtNone, false
}

// option returns the 3-bit "option" field for extended-register encodings.
func (e Extend) option() (uint32, bool) {
	switch e {
	case ExtUXTB:
		return 0, true
	case ExtUXTH:
		return 1, true
	case ExtUXTW:
		return 2, true
	case ExtUXTX, ExtLSL:
		return 3, true
	case ExtSXTB:
		return 4, true
	case ExtSXTH:
		return 5, true
	case ExtSXTW:
		return 6, true
	case ExtSXTX:
		return 7, true
	}
	return 0, false
}

func extendFromOption(opt uint32, is64 bool) Extend {
	switch opt {
	case 0:
		return ExtUXTB
	case 1:
		return ExtUXTH
	case 2:
		return ExtUXTW
	case 3:
		_ = is64
		return ExtUXTX
	case 4:
		return ExtSXTB
	case 5:
		return ExtSXTH
	case 6:
		return ExtSXTW
	default:
		return ExtSXTX
	}
}

// AddrMode identifies a load/store addressing mode (Table 1 in the paper).
type AddrMode uint8

const (
	AddrNone    AddrMode = iota
	AddrBase             // [xN]           addr = xN
	AddrImm              // [xN, #i]       addr = xN + i (scaled unsigned or unscaled signed)
	AddrPre              // [xN, #i]!      addr = xN + i; xN = addr
	AddrPost             // [xN], #i       addr = xN;     xN += i
	AddrReg              // [xN, xM{, lsl #i}]        addr = xN + (xM << i)
	AddrRegUXTW          // [xN, wM, uxtw {#i}]       addr = xN + (zx(wM) << i)
	AddrRegSXTW          // [xN, wM, sxtw {#i}]       addr = xN + (sx(wM) << i)
	AddrRegSXTX          // [xN, xM, sxtx {#i}]       addr = xN + (xM << i)
	AddrLiteral          // label (PC-relative literal load)
)

// Mem is a memory operand.
type Mem struct {
	Mode   AddrMode
	Base   Reg   // base register (x or sp)
	Index  Reg   // index register for register-offset modes
	Imm    int32 // immediate offset for imm/pre/post modes
	Amount int8  // shift amount for register-offset modes (-1: extend without amount)
}

// WritesBack reports whether the addressing mode modifies the base register.
func (m Mem) WritesBack() bool { return m.Mode == AddrPre || m.Mode == AddrPost }

// IsRegOffset reports whether the mode adds an index register.
func (m Mem) IsRegOffset() bool {
	return m.Mode == AddrReg || m.Mode == AddrRegUXTW || m.Mode == AddrRegSXTW || m.Mode == AddrRegSXTX
}

// Inst is one decoded or parsed instruction. Fields that do not apply to a
// given Op are zero (registers: RegNone).
type Inst struct {
	Op Op

	Rd Reg // destination (or transfer register Rt for loads/stores)
	Rn Reg // first source / base
	Rm Reg // second source / Rt2 for pairs / Rs status for stxr
	Ra Reg // third source (madd/msub)

	Imm int64 // immediate operand (shift amount, imm16, nzcv, sys, ...)

	Ext    Extend // extend/shift modifier for Rm
	Amount int8   // extend/shift amount (-1 means "no amount written")

	Cond Cond // condition for b.cond, csel, ccmp

	Mem Mem // memory operand for loads/stores

	// Branch / literal target. At assembly level branches carry a symbolic
	// label; after encoding/decoding they carry a byte offset in Imm.
	Label string
}
