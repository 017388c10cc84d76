// Package arm64 models the subset of the ARMv8.0-A AArch64 ISA needed by
// LFI: an instruction representation, a GNU-syntax assembly parser and
// printer, and a binary encoder and decoder following the ARMv8-A reference
// encodings. The same tables drive the assembler, the disassembler, the
// static verifier, and the emulator, so every component agrees on exactly
// which instructions exist and what they do.
package arm64

import (
	"fmt"
	"strconv"
)

// Reg identifies an architectural register together with the width or view
// under which an instruction names it (x5 vs w5, d0 vs q0).
type Reg uint16

// regKindStride separates register kinds in the Reg value layout
// (kind*regKindStride + number).
const regKindStride = 40

// Register kinds.
const (
	kindX Reg = iota // 64-bit general purpose (number 31 = XZR, 32 = SP)
	kindW            // 32-bit view          (number 31 = WZR, 32 = WSP)
	kindB            // 8-bit scalar FP/SIMD view
	kindH            // 16-bit scalar FP/SIMD view
	kindS            // 32-bit scalar FP/SIMD view
	kindD            // 64-bit scalar FP/SIMD view
	kindQ            // 128-bit scalar FP/SIMD view
	kindV            // full vector register (arrangement held by the op)
	numRegKinds
)

// RegNone marks an unused register slot in an Inst.
const RegNone Reg = 0xffff

// General-purpose registers.
const (
	X0 Reg = Reg(kindX)*regKindStride + iota
	X1
	X2
	X3
	X4
	X5
	X6
	X7
	X8
	X9
	X10
	X11
	X12
	X13
	X14
	X15
	X16
	X17
	X18
	X19
	X20
	X21
	X22
	X23
	X24
	X25
	X26
	X27
	X28
	X29
	X30
	XZR
	SP
)

// 32-bit views.
const (
	W0 Reg = Reg(kindW)*regKindStride + iota
	W1
	W2
	W3
	W4
	W5
	W6
	W7
	W8
	W9
	W10
	W11
	W12
	W13
	W14
	W15
	W16
	W17
	W18
	W19
	W20
	W21
	W22
	W23
	W24
	W25
	W26
	W27
	W28
	W29
	W30
	WZR
	WSP
)

// Scalar FP and vector registers are constructed with BReg..QReg and VReg.

// XReg returns the 64-bit general-purpose register n (0..30), XZR for 31.
func XReg(n int) Reg { return Reg(kindX)*regKindStride + Reg(n) }

// WReg returns the 32-bit view of register n (0..30), WZR for 31.
func WReg(n int) Reg { return Reg(kindW)*regKindStride + Reg(n) }

// BReg..QReg return scalar FP/SIMD views of vector register n (0..31).
func BReg(n int) Reg { return Reg(kindB)*regKindStride + Reg(n) }
func HReg(n int) Reg { return Reg(kindH)*regKindStride + Reg(n) }
func SReg(n int) Reg { return Reg(kindS)*regKindStride + Reg(n) }
func DReg(n int) Reg { return Reg(kindD)*regKindStride + Reg(n) }
func QReg(n int) Reg { return Reg(kindQ)*regKindStride + Reg(n) }

// VReg returns vector register n (0..31) without a width view.
func VReg(n int) Reg { return Reg(kindV)*regKindStride + Reg(n) }

func (r Reg) kind() Reg { return r / regKindStride }

// Num returns the architectural register number: 0..30 for x/w (31 for
// xzr/wzr, 32 for sp/wsp), 0..31 for FP/SIMD views.
func (r Reg) Num() int { return int(r % regKindStride) }

// EncNum returns the 5-bit field value used in machine encodings. SP and
// the zero register both encode as 31; which one an encoding means is
// determined by the instruction class.
func (r Reg) EncNum() uint32 {
	n := r.Num()
	if n >= 31 {
		return 31
	}
	return uint32(n)
}

// IsGP reports whether r is a general-purpose register view (x or w),
// including xzr/wzr and sp/wsp.
func (r Reg) IsGP() bool { return r.kind() == kindX || r.kind() == kindW }

// Is64 reports whether r is a 64-bit integer view (x registers, xzr, sp).
func (r Reg) Is64() bool { return r.kind() == kindX }

// Is32 reports whether r is a 32-bit integer view (w registers, wzr, wsp).
func (r Reg) Is32() bool { return r.kind() == kindW }

// IsFP reports whether r is an FP/SIMD register view of any width.
func (r Reg) IsFP() bool { return r.kind() >= kindB && r.kind() <= kindV }

// IsSP reports whether r is the stack pointer under either view.
func (r Reg) IsSP() bool { return r == SP || r == WSP }

// IsZR reports whether r is the zero register under either view.
func (r Reg) IsZR() bool { return r == XZR || r == WZR }

// X returns the 64-bit view of the same architectural register. FP
// registers are returned unchanged.
func (r Reg) X() Reg {
	if r.IsGP() {
		return Reg(kindX)*regKindStride + Reg(r.Num())
	}
	return r
}

// W returns the 32-bit view of the same architectural register. FP
// registers are returned unchanged.
func (r Reg) W() Reg {
	if r.IsGP() {
		return Reg(kindW)*regKindStride + Reg(r.Num())
	}
	return r
}

// FPBits returns the width in bits of an FP/SIMD view (8..128), or 0 for
// integer registers.
func (r Reg) FPBits() int {
	switch r.kind() {
	case kindB:
		return 8
	case kindH:
		return 16
	case kindS:
		return 32
	case kindD:
		return 64
	case kindQ, kindV:
		return 128
	}
	return 0
}

// regNames holds the GNU assembly spelling of every valid Reg value.
var regNames [int(numRegKinds) * regKindStride]string

func init() {
	for k, prefix := range [numRegKinds]string{"x", "w", "b", "h", "s", "d", "q", "v"} {
		for n := 0; n < regKindStride; n++ {
			regNames[k*regKindStride+n] = prefix + strconv.Itoa(n)
		}
	}
	regNames[XZR], regNames[SP] = "xzr", "sp"
	regNames[WZR], regNames[WSP] = "wzr", "wsp"
}

// String returns the GNU assembly spelling of the register.
func (r Reg) String() string {
	if r == RegNone {
		return "<none>"
	}
	if int(r) >= len(regNames) {
		return fmt.Sprintf("<bad reg %d>", uint16(r))
	}
	return regNames[r]
}

// ParseReg parses a register name ("x0", "wzr", "sp", "d12", ...). It
// returns RegNone and false if s is not a register.
func ParseReg(s string) (Reg, bool) {
	switch s {
	case "sp":
		return SP, true
	case "wsp":
		return WSP, true
	case "xzr":
		return XZR, true
	case "wzr":
		return WZR, true
	case "lr":
		return X30, true
	case "fp":
		return X29, true
	}
	if len(s) < 2 {
		return RegNone, false
	}
	var kind Reg
	switch s[0] {
	case 'x':
		kind = kindX
	case 'w':
		kind = kindW
	case 'b':
		kind = kindB
	case 'h':
		kind = kindH
	case 's':
		kind = kindS
	case 'd':
		kind = kindD
	case 'q':
		kind = kindQ
	case 'v':
		kind = kindV
	default:
		return RegNone, false
	}
	n := 0
	for i := 1; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return RegNone, false
		}
		n = n*10 + int(c-'0')
		if n > 31 {
			return RegNone, false
		}
	}
	max := 31
	if kind == kindX || kind == kindW {
		max = 30
	}
	if n > max {
		return RegNone, false
	}
	return kind*regKindStride + Reg(n), true
}
