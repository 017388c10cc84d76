package arm64

// Op is a canonical opcode. Assembly aliases (mov, cmp, lsl #imm, cset, …)
// are normalized to these canonical operations by the parser.
type Op uint16

const (
	BAD Op = iota

	// PC-relative address generation.
	ADR
	ADRP

	// Add/subtract (immediate, shifted register, extended register — the
	// form is chosen from the operands).
	ADD
	ADDS
	SUB
	SUBS

	// Logical (shifted register or bitmask immediate).
	AND
	ANDS
	ORR
	ORN
	EOR
	EON
	BIC
	BICS

	// Move wide.
	MOVZ
	MOVN
	MOVK

	// Bitfield and extract.
	SBFM
	BFM
	UBFM
	EXTR

	// Data processing, 2-source.
	UDIV
	SDIV
	LSLV
	LSRV
	ASRV
	RORV

	// Data processing, 3-source.
	MADD
	MSUB
	SMADDL
	UMADDL
	SMULH
	UMULH

	// Data processing, 1-source.
	CLZ
	CLS
	RBIT
	REV
	REV16
	REV32

	// Conditional select and compare.
	CSEL
	CSINC
	CSINV
	CSNEG
	CCMP
	CCMN

	// Branches.
	B
	BL
	BCOND
	CBZ
	CBNZ
	TBZ
	TBNZ
	BR
	BLR
	RET

	// Loads and stores. Width and signedness of LDR/STR come from the
	// transfer register view (w/x/b/h/s/d/q); the B/H/SB/SH/SW ops are the
	// sub-word integer forms.
	LDR
	LDRB
	LDRH
	LDRSB
	LDRSH
	LDRSW
	STR
	STRB
	STRH
	LDP
	STP

	// Exclusive and acquire/release.
	LDXR
	STXR
	LDAXR
	STLXR
	LDAR
	STLR

	// Floating point.
	FMOV
	FADD
	FSUB
	FMUL
	FDIV
	FNEG
	FABS
	FSQRT
	FMADD
	FMSUB
	FCMP
	FCSEL
	FCVT
	SCVTF
	UCVTF
	FCVTZS
	FCVTZU

	// System.
	NOP
	SVC
	BRK
	DMB
	DSB
	ISB
	MRS
	MSR

	NumOps
)

// opShape describes the operand arrangement for parsing and printing.
type opShape uint8

const (
	shapeNone     opShape = iota // nop, isb
	shapeAdr                     // adr rd, label
	shapeAddSub                  // add rd, rn, (#imm | rm {,shift/ext #amt})
	shapeLogical                 // and rd, rn, (#bitmask | rm {,shift #amt})
	shapeMovWide                 // movz rd, #imm16 {, lsl #hw}
	shapeBitfield                // ubfm rd, rn, #immr, #imms
	shapeExtr                    // extr rd, rn, rm, #lsb
	shapeRRR                     // udiv rd, rn, rm
	shapeRRRR                    // madd rd, rn, rm, ra
	shapeRR                      // clz rd, rn
	shapeCSel                    // csel rd, rn, rm, cond
	shapeCCmp                    // ccmp rn, (rm|#imm), #nzcv, cond
	shapeBranch                  // b label
	shapeCB                      // cbz rt, label
	shapeTB                      // tbz rt, #bit, label
	shapeBReg                    // br rn
	shapeRet                     // ret {rn}
	shapeMem                     // ldr rt, [mem]
	shapeMemPair                 // ldp rt, rt2, [mem]
	shapeMemEx                   // ldxr rt, [rn] / stxr rs, rt, [rn]
	shapeFPCmp                   // fcmp rn, (rm|#0.0)
	shapeSys                     // svc #imm / dmb ish / mrs rt, sysreg
)

type opProps struct {
	name    string
	shape   opShape
	load    bool // reads memory
	store   bool // writes memory
	branch  bool // can change PC
	setsFlg bool // writes NZCV
	rdsFlg  bool // reads NZCV
}

var opTab = [NumOps]opProps{
	BAD:    {name: "<bad>"},
	ADR:    {name: "adr", shape: shapeAdr},
	ADRP:   {name: "adrp", shape: shapeAdr},
	ADD:    {name: "add", shape: shapeAddSub},
	ADDS:   {name: "adds", shape: shapeAddSub, setsFlg: true},
	SUB:    {name: "sub", shape: shapeAddSub},
	SUBS:   {name: "subs", shape: shapeAddSub, setsFlg: true},
	AND:    {name: "and", shape: shapeLogical},
	ANDS:   {name: "ands", shape: shapeLogical, setsFlg: true},
	ORR:    {name: "orr", shape: shapeLogical},
	ORN:    {name: "orn", shape: shapeLogical},
	EOR:    {name: "eor", shape: shapeLogical},
	EON:    {name: "eon", shape: shapeLogical},
	BIC:    {name: "bic", shape: shapeLogical},
	BICS:   {name: "bics", shape: shapeLogical, setsFlg: true},
	MOVZ:   {name: "movz", shape: shapeMovWide},
	MOVN:   {name: "movn", shape: shapeMovWide},
	MOVK:   {name: "movk", shape: shapeMovWide},
	SBFM:   {name: "sbfm", shape: shapeBitfield},
	BFM:    {name: "bfm", shape: shapeBitfield},
	UBFM:   {name: "ubfm", shape: shapeBitfield},
	EXTR:   {name: "extr", shape: shapeExtr},
	UDIV:   {name: "udiv", shape: shapeRRR},
	SDIV:   {name: "sdiv", shape: shapeRRR},
	LSLV:   {name: "lsl", shape: shapeRRR},
	LSRV:   {name: "lsr", shape: shapeRRR},
	ASRV:   {name: "asr", shape: shapeRRR},
	RORV:   {name: "ror", shape: shapeRRR},
	MADD:   {name: "madd", shape: shapeRRRR},
	MSUB:   {name: "msub", shape: shapeRRRR},
	SMADDL: {name: "smaddl", shape: shapeRRRR},
	UMADDL: {name: "umaddl", shape: shapeRRRR},
	SMULH:  {name: "smulh", shape: shapeRRR},
	UMULH:  {name: "umulh", shape: shapeRRR},
	CLZ:    {name: "clz", shape: shapeRR},
	CLS:    {name: "cls", shape: shapeRR},
	RBIT:   {name: "rbit", shape: shapeRR},
	REV:    {name: "rev", shape: shapeRR},
	REV16:  {name: "rev16", shape: shapeRR},
	REV32:  {name: "rev32", shape: shapeRR},
	CSEL:   {name: "csel", shape: shapeCSel, rdsFlg: true},
	CSINC:  {name: "csinc", shape: shapeCSel, rdsFlg: true},
	CSINV:  {name: "csinv", shape: shapeCSel, rdsFlg: true},
	CSNEG:  {name: "csneg", shape: shapeCSel, rdsFlg: true},
	CCMP:   {name: "ccmp", shape: shapeCCmp, setsFlg: true, rdsFlg: true},
	CCMN:   {name: "ccmn", shape: shapeCCmp, setsFlg: true, rdsFlg: true},
	B:      {name: "b", shape: shapeBranch, branch: true},
	BL:     {name: "bl", shape: shapeBranch, branch: true},
	BCOND:  {name: "b.", shape: shapeBranch, branch: true, rdsFlg: true},
	CBZ:    {name: "cbz", shape: shapeCB, branch: true},
	CBNZ:   {name: "cbnz", shape: shapeCB, branch: true},
	TBZ:    {name: "tbz", shape: shapeTB, branch: true},
	TBNZ:   {name: "tbnz", shape: shapeTB, branch: true},
	BR:     {name: "br", shape: shapeBReg, branch: true},
	BLR:    {name: "blr", shape: shapeBReg, branch: true},
	RET:    {name: "ret", shape: shapeRet, branch: true},
	LDR:    {name: "ldr", shape: shapeMem, load: true},
	LDRB:   {name: "ldrb", shape: shapeMem, load: true},
	LDRH:   {name: "ldrh", shape: shapeMem, load: true},
	LDRSB:  {name: "ldrsb", shape: shapeMem, load: true},
	LDRSH:  {name: "ldrsh", shape: shapeMem, load: true},
	LDRSW:  {name: "ldrsw", shape: shapeMem, load: true},
	STR:    {name: "str", shape: shapeMem, store: true},
	STRB:   {name: "strb", shape: shapeMem, store: true},
	STRH:   {name: "strh", shape: shapeMem, store: true},
	LDP:    {name: "ldp", shape: shapeMemPair, load: true},
	STP:    {name: "stp", shape: shapeMemPair, store: true},
	LDXR:   {name: "ldxr", shape: shapeMemEx, load: true},
	STXR:   {name: "stxr", shape: shapeMemEx, store: true},
	LDAXR:  {name: "ldaxr", shape: shapeMemEx, load: true},
	STLXR:  {name: "stlxr", shape: shapeMemEx, store: true},
	LDAR:   {name: "ldar", shape: shapeMemEx, load: true},
	STLR:   {name: "stlr", shape: shapeMemEx, store: true},
	FMOV:   {name: "fmov", shape: shapeRR},
	FADD:   {name: "fadd", shape: shapeRRR},
	FSUB:   {name: "fsub", shape: shapeRRR},
	FMUL:   {name: "fmul", shape: shapeRRR},
	FDIV:   {name: "fdiv", shape: shapeRRR},
	FNEG:   {name: "fneg", shape: shapeRR},
	FABS:   {name: "fabs", shape: shapeRR},
	FSQRT:  {name: "fsqrt", shape: shapeRR},
	FMADD:  {name: "fmadd", shape: shapeRRRR},
	FMSUB:  {name: "fmsub", shape: shapeRRRR},
	FCMP:   {name: "fcmp", shape: shapeFPCmp, setsFlg: true},
	FCSEL:  {name: "fcsel", shape: shapeCSel, rdsFlg: true},
	FCVT:   {name: "fcvt", shape: shapeRR},
	SCVTF:  {name: "scvtf", shape: shapeRR},
	UCVTF:  {name: "ucvtf", shape: shapeRR},
	FCVTZS: {name: "fcvtzs", shape: shapeRR},
	FCVTZU: {name: "fcvtzu", shape: shapeRR},
	NOP:    {name: "nop", shape: shapeNone},
	SVC:    {name: "svc", shape: shapeSys},
	BRK:    {name: "brk", shape: shapeSys},
	DMB:    {name: "dmb", shape: shapeSys},
	DSB:    {name: "dsb", shape: shapeSys},
	ISB:    {name: "isb", shape: shapeNone},
	MRS:    {name: "mrs", shape: shapeSys},
	MSR:    {name: "msr", shape: shapeSys},
}

// Name returns the canonical mnemonic.
func (o Op) Name() string {
	if o < NumOps {
		return opTab[o].name
	}
	return "<bad>"
}

func (o Op) String() string { return o.Name() }

// IsLoad reports whether the op reads memory.
func (o Op) IsLoad() bool { return o < NumOps && opTab[o].load }

// IsStore reports whether the op writes memory.
func (o Op) IsStore() bool { return o < NumOps && opTab[o].store }

// IsMemory reports whether the op accesses memory.
func (o Op) IsMemory() bool { return o.IsLoad() || o.IsStore() }

// IsBranch reports whether the op can change the PC.
func (o Op) IsBranch() bool { return o < NumOps && opTab[o].branch }

// IsIndirectBranch reports whether the op jumps to a register value.
func (o Op) IsIndirectBranch() bool { return o == BR || o == BLR || o == RET }

// SetsFlags reports whether the op writes NZCV.
func (o Op) SetsFlags() bool { return o < NumOps && opTab[o].setsFlg }

// ReadsFlags reports whether the op reads NZCV.
func (o Op) ReadsFlags() bool { return o < NumOps && opTab[o].rdsFlg }

func (o Op) shape() opShape {
	if o < NumOps {
		return opTab[o].shape
	}
	return shapeNone
}

// DestRegs appends to dst the registers written by the instruction,
// including writeback bases and the link register for BL/BLR. The zero
// register is never included.
func (i *Inst) DestRegs(dst []Reg) []Reg {
	add := func(r Reg) {
		if r != RegNone && !r.IsZR() {
			dst = append(dst, r)
		}
	}
	switch i.Op {
	case BL, BLR:
		add(X30)
		return dst
	case B, BCOND, CBZ, CBNZ, TBZ, TBNZ, BR, RET, NOP, SVC, BRK, DMB, DSB, ISB, MSR:
		return dst
	case FCMP:
		return dst
	case CCMP, CCMN:
		return dst
	case STR, STRB, STRH, STLR:
		if i.Mem.WritesBack() {
			add(i.Mem.Base)
		}
		return dst
	case STP:
		if i.Mem.WritesBack() {
			add(i.Mem.Base)
		}
		return dst
	case STXR, STLXR:
		add(i.Rm) // status register
		return dst
	case LDP:
		add(i.Rd)
		add(i.Rm)
		if i.Mem.WritesBack() {
			add(i.Mem.Base)
		}
		return dst
	}
	add(i.Rd)
	if i.Op.IsMemory() && i.Mem.WritesBack() {
		add(i.Mem.Base)
	}
	return dst
}

// SrcRegs appends to dst the registers read by the instruction (register
// operands, memory base/index, stored data). The zero register is skipped.
func (i *Inst) SrcRegs(dst []Reg) []Reg {
	add := func(r Reg) {
		if r != RegNone && !r.IsZR() {
			dst = append(dst, r)
		}
	}
	switch i.Op.shape() {
	case shapeMem:
		if i.Op.IsStore() {
			add(i.Rd)
		}
		add(i.Mem.Base)
		if i.Mem.IsRegOffset() {
			add(i.Mem.Index)
		}
		return dst
	case shapeMemPair:
		if i.Op.IsStore() {
			add(i.Rd)
			add(i.Rm)
		}
		add(i.Mem.Base)
		return dst
	case shapeMemEx:
		if i.Op.IsStore() {
			add(i.Rd)
		}
		add(i.Rn)
		return dst
	}
	add(i.Rn)
	add(i.Rm)
	add(i.Ra)
	return dst
}

// A mnemonic is what a name in the op position means: an op, or an alias
// that parseInst resolves to one from the operands (lsl is both: the
// alias takes an immediate, the op a register).
type mnemonic struct {
	op    Op
	alias alias
}

type alias uint8

const (
	aliasNone     alias = iota
	aliasMov            // mov
	aliasCmp            // cmp, cmn
	aliasTst            // tst
	aliasNeg            // neg, negs
	aliasMvn            // mvn
	aliasMul            // mul, mneg, smull, umull
	aliasShift          // lsl, lsr, asr, ror
	aliasExtend         // sxtb, sxth, sxtw, uxtb, uxth
	aliasBitfield       // ubfx, ubfiz, sbfx, sbfiz, bfi, bfxil
	aliasCset           // cset, csetm
	aliasCinc           // cinc, cinv, cneg
)

// mnemonics holds every name by its length over its bytes, packed into a
// word (no mnemonic is longer than 7 bytes): one lookup, which hashes
// faster than the string, says both what the name is and which alias.
var mnemonics = make(map[uint64]mnemonic, NumOps+40)

// packName is s as mnemonics keys it, or 0 if no mnemonic could be s.
func packName(s string) uint64 {
	if len(s) > 7 {
		return 0
	}
	k := uint64(len(s))
	for i := 0; i < len(s); i++ {
		k = k<<8 | uint64(s[i])
	}
	return k
}

func init() {
	add := func(op Op, a alias, names ...string) {
		for _, name := range names {
			m := mnemonics[packName(name)]
			if op != BAD {
				m.op = op
			}
			if a != aliasNone {
				m.alias = a
			}
			mnemonics[packName(name)] = m
		}
	}
	for op := Op(1); op < NumOps; op++ {
		// b.cond is parsed by its condition suffix.
		if name := opTab[op].name; name != "" && name != "b." {
			add(op, aliasNone, name)
		}
	}
	// ldur/stur spell the unscaled forms of the same canonical ops.
	add(LDR, aliasNone, "ldur")
	add(STR, aliasNone, "stur")
	add(LDRB, aliasNone, "ldurb")
	add(STRB, aliasNone, "sturb")
	add(LDRH, aliasNone, "ldurh")
	add(STRH, aliasNone, "sturh")
	add(LDRSB, aliasNone, "ldursb")
	add(LDRSH, aliasNone, "ldursh")
	add(LDRSW, aliasNone, "ldursw")
	add(BAD, aliasMov, "mov")
	add(BAD, aliasCmp, "cmp", "cmn")
	add(BAD, aliasTst, "tst")
	add(BAD, aliasNeg, "neg", "negs")
	add(BAD, aliasMvn, "mvn")
	add(BAD, aliasMul, "mul", "mneg", "smull", "umull")
	add(BAD, aliasShift, "lsl", "lsr", "asr", "ror")
	add(BAD, aliasExtend, "sxtb", "sxth", "sxtw", "uxtb", "uxth")
	add(BAD, aliasBitfield, "ubfx", "ubfiz", "sbfx", "sbfiz", "bfi", "bfxil")
	add(BAD, aliasCset, "cset", "csetm")
	add(BAD, aliasCinc, "cinc", "cinv", "cneg")
}
