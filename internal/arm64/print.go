package arm64

import (
	"math"
	"strconv"
	"strings"
)

// asmText is assembly text under construction. Every method appends and
// returns the longer text, so a line reads left to right.
type asmText []byte

func (b asmText) str(s string) asmText { return append(b, s...) }
func (b asmText) reg(r Reg) asmText    { return append(b, r.String()...) }
func (b asmText) int(v int64) asmText  { return strconv.AppendInt(b, v, 10) }
func (b asmText) imm(v int64) asmText  { return strconv.AppendInt(append(b, '#'), v, 10) }

// op writes the mnemonic and the blank after it.
func (b asmText) op(o Op) asmText { return append(append(b, o.Name()...), ' ') }

// regs writes registers separated by ", ".
func (b asmText) regs(rs ...Reg) asmText {
	for n, r := range rs {
		if n > 0 {
			b = b.str(", ")
		}
		b = b.reg(r)
	}
	return b
}

// target writes a branch or literal target: the label, or the byte offset
// once the label has been resolved.
func (b asmText) target(i *Inst) asmText {
	if i.Label != "" {
		return b.str(i.Label)
	}
	return b.int(i.Imm)
}

// shift writes the ", lsl #3" suffix of a shifted or extended operand.
func (b asmText) shift(i *Inst) asmText {
	if i.Ext == ExtNone {
		return b
	}
	b = b.str(", ").str(i.Ext.String())
	if i.Amount < 0 {
		return b
	}
	return b.str(" ").imm(int64(i.Amount))
}

func (b asmText) sysReg(v int64) asmText {
	for _, sr := range sysRegs {
		if sr.enc == v {
			return b.str(sr.name)
		}
	}
	b = b.str("s").int(2 + (v>>14)&1).str("_").int((v >> 11) & 7)
	return b.str("_c").int((v >> 7) & 15).str("_c").int((v >> 3) & 15).str("_").int(v & 7)
}

func (b asmText) mem(m Mem) asmText {
	switch m.Mode {
	case AddrBase:
		return b.str("[").reg(m.Base).str("]")
	case AddrImm:
		if m.Imm == 0 {
			return b.str("[").reg(m.Base).str("]")
		}
		return b.str("[").reg(m.Base).str(", ").imm(int64(m.Imm)).str("]")
	case AddrPre:
		return b.str("[").reg(m.Base).str(", ").imm(int64(m.Imm)).str("]!")
	case AddrPost:
		return b.str("[").reg(m.Base).str("], ").imm(int64(m.Imm))
	case AddrReg:
		b = b.str("[").regs(m.Base, m.Index)
		if m.Amount <= 0 {
			return b.str("]")
		}
		return b.str(", lsl ").imm(int64(m.Amount)).str("]")
	case AddrRegUXTW, AddrRegSXTW, AddrRegSXTX:
		ext := ", uxtw"
		if m.Mode == AddrRegSXTW {
			ext = ", sxtw"
		} else if m.Mode == AddrRegSXTX {
			ext = ", sxtx"
		}
		b = b.str("[").regs(m.Base, m.Index).str(ext)
		if m.Amount < 0 {
			return b.str("]")
		}
		return b.str(" ").imm(int64(m.Amount)).str("]")
	}
	return b.str("<bad mem>")
}

// appendInst appends i in GNU assembly syntax that ParseInst accepts back.
func appendInst(dst []byte, i *Inst) []byte {
	b := asmText(dst)
	switch i.Op {
	case BAD:
		return b.str("<bad>")
	case BCOND:
		return b.str("b.").str(i.Cond.String()).str(" ").target(i)
	case NOP, ISB:
		return b.str(i.Op.Name())
	case SVC, BRK:
		return b.op(i.Op).imm(i.Imm)
	case DMB, DSB:
		opt := "sy"
		if i.Imm >= 0 && i.Imm < int64(len(barrierOpts)) && barrierOpts[i.Imm] != "" {
			opt = barrierOpts[i.Imm]
		}
		return b.op(i.Op).str(opt)
	case MRS:
		return b.str("mrs ").reg(i.Rd).str(", ").sysReg(i.Imm)
	case MSR:
		return b.str("msr ").sysReg(i.Imm).str(", ").reg(i.Rd)
	}

	switch i.Op.shape() {
	case shapeAdr, shapeCB:
		return b.op(i.Op).reg(i.Rd).str(", ").target(i)

	case shapeAddSub:
		b = b.op(i.Op).regs(i.Rd, i.Rn).str(", ")
		if i.Rm != RegNone {
			return b.reg(i.Rm).shift(i)
		}
		if i.Label != "" {
			return b.str(i.Label)
		}
		b = b.imm(i.Imm)
		if i.Ext == ExtLSL && i.Amount == 12 {
			b = b.str(", lsl #12")
		}
		return b

	case shapeLogical:
		b = b.op(i.Op).regs(i.Rd, i.Rn).str(", ")
		if i.Rm != RegNone {
			return b.reg(i.Rm).shift(i)
		}
		return strconv.AppendUint(b.str("#0x"), uint64(i.Imm), 16)

	case shapeMovWide:
		b = b.op(i.Op).reg(i.Rd).str(", ").imm(i.Imm)
		if i.Amount > 0 {
			b = b.str(", lsl ").imm(int64(i.Amount))
		}
		return b

	case shapeBitfield:
		return b.op(i.Op).regs(i.Rd, i.Rn).str(", ").imm(i.Imm).str(", ").imm(int64(i.Amount))

	case shapeExtr:
		return b.op(i.Op).regs(i.Rd, i.Rn, i.Rm).str(", ").imm(i.Imm)

	case shapeRRR:
		return b.op(i.Op).regs(i.Rd, i.Rn, i.Rm)

	case shapeRRRR:
		return b.op(i.Op).regs(i.Rd, i.Rn, i.Rm, i.Ra)

	case shapeRR:
		if i.Op == FMOV && i.Rn == RegNone {
			b = b.str("fmov ").reg(i.Rd).str(", #")
			return strconv.AppendFloat(b, math.Float64frombits(uint64(i.Imm)), 'g', -1, 64)
		}
		return b.op(i.Op).regs(i.Rd, i.Rn)

	case shapeCSel:
		return b.op(i.Op).regs(i.Rd, i.Rn, i.Rm).str(", ").str(i.Cond.String())

	case shapeCCmp:
		b = b.op(i.Op).reg(i.Rn).str(", ")
		if i.Rm == RegNone {
			b = b.imm(i.Imm)
		} else {
			b = b.reg(i.Rm)
		}
		return b.str(", ").imm(int64(i.Amount)).str(", ").str(i.Cond.String())

	case shapeBranch:
		return b.op(i.Op).target(i)

	case shapeTB:
		return b.op(i.Op).reg(i.Rd).str(", ").imm(int64(i.Amount)).str(", ").target(i)

	case shapeBReg:
		return b.op(i.Op).reg(i.Rn)

	case shapeRet:
		if i.Rn == X30 || i.Rn == RegNone {
			return b.str("ret")
		}
		return b.str("ret ").reg(i.Rn)

	case shapeMem:
		b = b.op(i.Op).reg(i.Rd).str(", ")
		if i.Mem.Mode == AddrLiteral {
			return b.target(i)
		}
		return b.mem(i.Mem)

	case shapeMemPair:
		return b.op(i.Op).regs(i.Rd, i.Rm).str(", ").mem(i.Mem)

	case shapeMemEx:
		b = b.op(i.Op)
		if i.Op == STXR || i.Op == STLXR {
			b = b.reg(i.Rm).str(", ")
		}
		return b.reg(i.Rd).str(", [").reg(i.Rn).str("]")

	case shapeFPCmp:
		b = b.op(i.Op).reg(i.Rn).str(", ")
		if i.Rm == RegNone {
			return b.str("#0.0")
		}
		return b.reg(i.Rm)
	}
	return b.str("<unprintable ").str(i.Op.Name()).str(">")
}

// String renders the instruction in GNU assembly syntax.
func (i Inst) String() string {
	var buf [64]byte
	return string(appendInst(buf[:0], &i))
}

func (m Mem) String() string {
	var buf [32]byte
	return string(asmText(buf[:0]).mem(m))
}

// String renders the file back to assembly text. The builder is grown
// once, to 32 bytes an item: a guarded line averages under 25.
func (f *File) String() string {
	var b strings.Builder
	b.Grow(32 * len(f.Items))
	var buf [64]byte
	for idx := range f.Items {
		it := &f.Items[idx]
		line := asmText(buf[:0])
		switch it.Kind {
		case ItemLabel:
			line = line.str(it.Name).str(":\n")
		case ItemDirective:
			line = line.str(".").str(it.Name)
			for n, a := range it.Args {
				if n == 0 {
					line = line.str(" ")
				} else {
					line = line.str(", ")
				}
				line = line.str(a)
			}
			line = line.str("\n")
		case ItemInst:
			line = asmText(appendInst(line.str("\t"), &it.Inst)).str("\n")
		}
		b.Write(line)
	}
	return b.String()
}
