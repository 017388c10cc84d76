package arm64

import "fmt"

// The encoding table. Each row is one (op, form): the word matches it
// when w&mask == val, and its kinds move the operands between the word's
// fields and Inst. DecodeInto and Encode read the same rows; a row's order
// among its op's rows is the encoder's preference between forms.
//
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

// kind is one operand of a row; kind.decode and kind.encode (codec.go)
// run it in each direction.
type kind uint8

// row is one encoding: fixed bits, op, and up to five operand kinds.
type row struct {
	mask, val uint32
	op        Op
	args      [5]kind
}

const (
	kNone kind = iota

	// Kinds that do not decode: the row's fixed bits already say what they
	// would check. Some only select their row's form.
	kSf       // sf (bit 31) from Rd's width
	kSfRn     // sf from Rn's width
	kSfAdd    // sf from Rd's width, or Rn's when Rd is the zero register
	kSf32     // the row is for a 32-bit Rd
	kSf64     // the op needs a 64-bit Rd
	kFtRd     // ftype (bits 23:22) from Rd's view
	kFtRn     // ftype from Rn's view
	kRaZR     // Ra field of 31 (smulh, umulh)
	kCRmAll   // isb: any CRm, encodes SY
	kFZero    // fcmp with #0.0; the form whose Rm is RegNone
	kFmovFF   // fmov between fp registers
	kFmovToGP // fmov from fp to a general register

	kSfN      // sf and N (bit 22) from Rd's width; the word must have N == sf
	kAdr      // adr/adrp offset: immhi:immlo, in pages for adrp
	kAddImm   // imm12 with sh; the immediate form of add/sub
	kLogImm   // N:immr:imms bitmask; the immediate form of a logical op
	kShift    // shift type (23:22) and amount (15:10) on Rm
	kExtend   // Rm, extend option (15:13) and amount (12:10)
	kMovWide  // imm16 and hw
	kBitfield // immr and imms
	kLsb      // extr's imms
	kCond     // condition at 15:12
	kNZCV     // ccmp flags at 3:0
	kCcmpImm  // ccmp imm5 in the Rm field; the immediate form

	kB26    // b, bl offset
	kB19    // b.cond, cbz and literal offset at 23:5
	kTB     // tbz offset and bit number
	kImm16  // svc, brk immediate at 20:5
	kCRm    // dmb, dsb option at 11:8
	kSysReg // mrs, msr system register at 19:5

	kLdSt    // op and Rt of a single-register load/store, by ldst
	kUimm12  // [xn, #imm] scaled unsigned offset
	kImm9    // [xn, #imm] unscaled, [xn, #imm]!, [xn], #imm
	kRegOff  // [xn, rm{, extend {#amount}}]
	kLit     // op and Rt of a literal load, by lits
	kPair    // Rt and Rt2 of a pair, by pairs
	kPairMem // pair addressing mode and scaled imm7

	kFImm // fmov immediate; the form whose Rn is RegNone
	kFcvt // fcvt's Rd, typed by opcode bits 16:15
)

// Register operands: rd, rn, rm or ra (the Inst slot, and the word field
// 4:0, 9:5, 20:16 or 14:10) plus one view.
const (
	rd kind = 64 + 8*iota
	rn
	rm
	ra
)

const (
	vW   = iota // x or w by sf (bit 31); 31 is the zero register
	vWSP        // x or w by sf; 31 is sp
	vX          // x; 31 is xzr
	vXSP        // x; 31 is sp
	v32         // w
	v30         // x or w by bit 30, which it encodes (exclusives)
	vF          // s, d or h by ftype (bits 23:22)
)

// views gives each view's register kind by the two word bits at sel, and
// whether 31 names sp.
var views = [...]struct {
	kinds [4]Reg
	sel   uint
	sp    bool
}{
	vW:   {[4]Reg{kindW, kindX}, 31, false},
	vWSP: {[4]Reg{kindW, kindX}, 31, true},
	vX:   {[4]Reg{kindX, kindX}, 31, false},
	vXSP: {[4]Reg{kindX, kindX}, 31, true},
	v32:  {[4]Reg{kindW, kindW}, 31, false},
	v30:  {[4]Reg{2: kindW, 3: kindX}, 30, false}, // bit 31 is set
	vF:   {ftypes, 22, false},
}

// access is one load or store encoding: op, transfer register view and
// log2 of the access size.
type access struct {
	op    Op
	view  Reg
	scale uint8
}

// ldst is the single-register load/store map, indexed by size<<3 | V<<2
// | opc. kLdSt reads it by index to decode and by lookup to encode.
var ldst = [32]access{
	0<<3 | 0: {STRB, kindW, 0}, 0<<3 | 1: {LDRB, kindW, 0}, 0<<3 | 2: {LDRSB, kindX, 0}, 0<<3 | 3: {LDRSB, kindW, 0},
	1<<3 | 0: {STRH, kindW, 1}, 1<<3 | 1: {LDRH, kindW, 1}, 1<<3 | 2: {LDRSH, kindX, 1}, 1<<3 | 3: {LDRSH, kindW, 1},
	2<<3 | 0: {STR, kindW, 2}, 2<<3 | 1: {LDR, kindW, 2}, 2<<3 | 2: {LDRSW, kindX, 2},
	3<<3 | 0: {STR, kindX, 3}, 3<<3 | 1: {LDR, kindX, 3},
	0<<3 | 4: {STR, kindB, 0}, 0<<3 | 5: {LDR, kindB, 0}, 0<<3 | 6: {STR, kindQ, 4}, 0<<3 | 7: {LDR, kindQ, 4},
	1<<3 | 4: {STR, kindH, 1}, 1<<3 | 5: {LDR, kindH, 1},
	2<<3 | 4: {STR, kindS, 2}, 2<<3 | 5: {LDR, kindS, 2},
	3<<3 | 4: {STR, kindD, 3}, 3<<3 | 5: {LDR, kindD, 3},
}

// lits maps a literal load's opc<<1 | V; pairs maps a pair's opc<<1 | V
// (its op comes from the L bit, so every entry says LDP).
var (
	lits = [8]access{
		0<<1 | 0: {LDR, kindW, 0}, 1<<1 | 0: {LDR, kindX, 0}, 2<<1 | 0: {LDRSW, kindX, 0},
		0<<1 | 1: {LDR, kindS, 0}, 1<<1 | 1: {LDR, kindD, 0}, 2<<1 | 1: {LDR, kindQ, 0},
	}
	pairs = [8]access{
		0<<1 | 0: {LDP, kindW, 2}, 2<<1 | 0: {LDP, kindX, 3},
		0<<1 | 1: {LDP, kindS, 2}, 1<<1 | 1: {LDP, kindD, 3}, 2<<1 | 1: {LDP, kindQ, 4},
	}
)

// Addressing modes by field value: imm9's 11:10, register offset's option
// (whose low bit makes the index an x register), and a pair's 24:23.
var (
	imm9Modes   = [4]AddrMode{AddrImm, AddrPost, AddrNone, AddrPre}
	regOffModes = [8]AddrMode{2: AddrRegUXTW, 3: AddrReg, 6: AddrRegSXTW, 7: AddrRegSXTX}
	pairModes   = [4]AddrMode{AddrNone, AddrPost, AddrImm, AddrPre}
)

// rows lists every encoding. Rows whose fixed bits overlap are ordered so
// the first match is the one meant; rows of one op are in the encoder's
// order of preference.
var rows = [...]row{
	// PC-relative addressing, add/sub immediate.
	{0x9f000000, 0x10000000, ADR, [5]kind{rd + vX, kAdr}},
	{0x9f000000, 0x90000000, ADRP, [5]kind{rd + vX, kAdr}},
	{0x7f800000, 0x11000000, ADD, [5]kind{kAddImm, kSfAdd, rd + vWSP, rn + vWSP}},
	{0x7f800000, 0x31000000, ADDS, [5]kind{kAddImm, kSfAdd, rd + vW, rn + vWSP}},
	{0x7f800000, 0x51000000, SUB, [5]kind{kAddImm, kSfAdd, rd + vWSP, rn + vWSP}},
	{0x7f800000, 0x71000000, SUBS, [5]kind{kAddImm, kSfAdd, rd + vW, rn + vWSP}},

	// Logical immediate, move wide, bitfield, extract.
	{0x7f800000, 0x12000000, AND, [5]kind{kSfAdd, kLogImm, rd + vWSP, rn + vW}},
	{0x7f800000, 0x32000000, ORR, [5]kind{kSfAdd, kLogImm, rd + vWSP, rn + vW}},
	{0x7f800000, 0x52000000, EOR, [5]kind{kSfAdd, kLogImm, rd + vWSP, rn + vW}},
	{0x7f800000, 0x72000000, ANDS, [5]kind{kSfAdd, kLogImm, rd + vW, rn + vW}},
	{0x7f800000, 0x12800000, MOVN, [5]kind{kSf, rd + vW, kMovWide}},
	{0x7f800000, 0x52800000, MOVZ, [5]kind{kSf, rd + vW, kMovWide}},
	{0x7f800000, 0x72800000, MOVK, [5]kind{kSf, rd + vW, kMovWide}},
	{0x7f800000, 0x13000000, SBFM, [5]kind{kSfN, rd + vW, rn + vW, kBitfield}},
	{0x7f800000, 0x33000000, BFM, [5]kind{kSfN, rd + vW, rn + vW, kBitfield}},
	{0x7f800000, 0x53000000, UBFM, [5]kind{kSfN, rd + vW, rn + vW, kBitfield}},
	{0x7fa00000, 0x13800000, EXTR, [5]kind{kSfN, rd + vW, rn + vW, rm + vW, kLsb}},

	// Branches, exceptions, system.
	{0xfc000000, 0x14000000, B, [5]kind{kB26}},
	{0xfc000000, 0x94000000, BL, [5]kind{kB26}},
	{0xff000010, 0x54000000, BCOND, [5]kind{kB19}},
	{0x7f000000, 0x34000000, CBZ, [5]kind{kB19, kSf, rd + vW}},
	{0x7f000000, 0x35000000, CBNZ, [5]kind{kB19, kSf, rd + vW}},
	{0x7f000000, 0x36000000, TBZ, [5]kind{kTB, rd + vW}},
	{0x7f000000, 0x37000000, TBNZ, [5]kind{kTB, rd + vW}},
	{0xfffffc1f, 0xd61f0000, BR, [5]kind{rn + vX}},
	{0xfffffc1f, 0xd63f0000, BLR, [5]kind{rn + vX}},
	{0xfffffc1f, 0xd65f0000, RET, [5]kind{rn + vX}},
	{0xffe0001f, 0xd4000001, SVC, [5]kind{kImm16}},
	{0xffe0001f, 0xd4200000, BRK, [5]kind{kImm16}},
	{0xffffffff, 0xd503201f, NOP, [5]kind{}},
	{0xfffff0ff, 0xd50330bf, DMB, [5]kind{kCRm}},
	{0xfffff0ff, 0xd503309f, DSB, [5]kind{kCRm}},
	{0xfffff0ff, 0xd50330df, ISB, [5]kind{kCRmAll}},
	{0xfff00000, 0xd5300000, MRS, [5]kind{rd + vX, kSysReg}},
	{0xfff00000, 0xd5100000, MSR, [5]kind{rd + vX, kSysReg}},

	// Loads and stores. The single-register rows serve every op from LDR
	// to STRH: kLdSt and kLit set the op.
	{0xbffffc00, 0x885f7c00, LDXR, [5]kind{rd + v30, rn + vXSP}},
	{0xbffffc00, 0x885ffc00, LDAXR, [5]kind{rd + v30, rn + vXSP}},
	{0xbfe0fc00, 0x88007c00, STXR, [5]kind{rd + v30, rn + vXSP, rm + v32}},
	{0xbfe0fc00, 0x8800fc00, STLXR, [5]kind{rd + v30, rn + vXSP, rm + v32}},
	{0xbffffc00, 0x88dffc00, LDAR, [5]kind{rd + v30, rn + vXSP}},
	{0xbffffc00, 0x889ffc00, STLR, [5]kind{rd + v30, rn + vXSP}},
	{0x3a400000, 0x28400000, LDP, [5]kind{kPair, kPairMem}},
	{0x3a400000, 0x28000000, STP, [5]kind{kPair, kPairMem}},
	{0x3b000000, 0x39000000, LDR, [5]kind{kLdSt, kUimm12}},
	{0x3b200000, 0x38000000, LDR, [5]kind{kLdSt, kImm9}},
	{0x3b200c00, 0x38200800, LDR, [5]kind{kLdSt, kRegOff}},
	{0x3b000000, 0x18000000, LDR, [5]kind{kLit, kB19}},

	// Data processing, register.
	{0x7f200000, 0x0a000000, AND, [5]kind{kSfAdd, kShift, rd + vW, rn + vW, rm + vW}},
	{0x7f200000, 0x0a200000, BIC, [5]kind{kSfAdd, kShift, rd + vW, rn + vW, rm + vW}},
	{0x7f200000, 0x2a000000, ORR, [5]kind{kSfAdd, kShift, rd + vW, rn + vW, rm + vW}},
	{0x7f200000, 0x2a200000, ORN, [5]kind{kSfAdd, kShift, rd + vW, rn + vW, rm + vW}},
	{0x7f200000, 0x4a000000, EOR, [5]kind{kSfAdd, kShift, rd + vW, rn + vW, rm + vW}},
	{0x7f200000, 0x4a200000, EON, [5]kind{kSfAdd, kShift, rd + vW, rn + vW, rm + vW}},
	{0x7f200000, 0x6a000000, ANDS, [5]kind{kSfAdd, kShift, rd + vW, rn + vW, rm + vW}},
	{0x7f200000, 0x6a200000, BICS, [5]kind{kSfAdd, kShift, rd + vW, rn + vW, rm + vW}},
	{0x7fe00000, 0x0b200000, ADD, [5]kind{kSfAdd, kExtend, rd + vWSP, rn + vWSP}},
	{0x7fe00000, 0x2b200000, ADDS, [5]kind{kSfAdd, kExtend, rd + vW, rn + vWSP}},
	{0x7fe00000, 0x4b200000, SUB, [5]kind{kSfAdd, kExtend, rd + vWSP, rn + vWSP}},
	{0x7fe00000, 0x6b200000, SUBS, [5]kind{kSfAdd, kExtend, rd + vW, rn + vWSP}},
	{0x7f200000, 0x0b000000, ADD, [5]kind{kSfAdd, kShift, rd + vW, rn + vW, rm + vW}},
	{0x7f200000, 0x2b000000, ADDS, [5]kind{kSfAdd, kShift, rd + vW, rn + vW, rm + vW}},
	{0x7f200000, 0x4b000000, SUB, [5]kind{kSfAdd, kShift, rd + vW, rn + vW, rm + vW}},
	{0x7f200000, 0x6b000000, SUBS, [5]kind{kSfAdd, kShift, rd + vW, rn + vW, rm + vW}},
	{0x7fe00c00, 0x1a800000, CSEL, [5]kind{kSf, rd + vW, rn + vW, rm + vW, kCond}},
	{0x7fe00c00, 0x1a800400, CSINC, [5]kind{kSf, rd + vW, rn + vW, rm + vW, kCond}},
	{0x7fe00c00, 0x5a800000, CSINV, [5]kind{kSf, rd + vW, rn + vW, rm + vW, kCond}},
	{0x7fe00c00, 0x5a800400, CSNEG, [5]kind{kSf, rd + vW, rn + vW, rm + vW, kCond}},
	{0x7fe00c10, 0x7a400800, CCMP, [5]kind{kCcmpImm, kSfRn, rn + vW, kCond, kNZCV}},
	{0x7fe00c10, 0x7a400000, CCMP, [5]kind{kSfRn, rn + vW, rm + vW, kCond, kNZCV}},
	{0x7fe00c10, 0x3a400800, CCMN, [5]kind{kCcmpImm, kSfRn, rn + vW, kCond, kNZCV}},
	{0x7fe00c10, 0x3a400000, CCMN, [5]kind{kSfRn, rn + vW, rm + vW, kCond, kNZCV}},
	{0x5fe0fc00, 0x1ac00800, UDIV, [5]kind{kSf, rd + vW, rn + vW, rm + vW}},
	{0x5fe0fc00, 0x1ac00c00, SDIV, [5]kind{kSf, rd + vW, rn + vW, rm + vW}},
	{0x5fe0fc00, 0x1ac02000, LSLV, [5]kind{kSf, rd + vW, rn + vW, rm + vW}},
	{0x5fe0fc00, 0x1ac02400, LSRV, [5]kind{kSf, rd + vW, rn + vW, rm + vW}},
	{0x5fe0fc00, 0x1ac02800, ASRV, [5]kind{kSf, rd + vW, rn + vW, rm + vW}},
	{0x5fe0fc00, 0x1ac02c00, RORV, [5]kind{kSf, rd + vW, rn + vW, rm + vW}},
	{0x7ffffc00, 0x5ac00000, RBIT, [5]kind{kSf, rd + vW, rn + vW}},
	{0x7ffffc00, 0x5ac00400, REV16, [5]kind{kSf, rd + vW, rn + vW}},
	{0xfffffc00, 0x5ac00800, REV, [5]kind{kSf32, rd + vW, rn + vW}},
	{0xfffffc00, 0xdac00c00, REV, [5]kind{rd + vW, rn + vW}},
	{0xfffffc00, 0xdac00800, REV32, [5]kind{kSf64, rd + vW, rn + vW}},
	{0x7ffffc00, 0x5ac01000, CLZ, [5]kind{kSf, rd + vW, rn + vW}},
	{0x7ffffc00, 0x5ac01400, CLS, [5]kind{kSf, rd + vW, rn + vW}},
	{0x7fe08000, 0x1b000000, MADD, [5]kind{kSf, rd + vW, rn + vW, rm + vW, ra + vW}},
	{0x7fe08000, 0x1b008000, MSUB, [5]kind{kSf, rd + vW, rn + vW, rm + vW, ra + vW}},
	{0xffe08000, 0x9b200000, SMADDL, [5]kind{rd + vW, rn + v32, rm + v32, ra + vW}},
	{0xffe08000, 0x9ba00000, UMADDL, [5]kind{rd + vW, rn + v32, rm + v32, ra + vW}},
	{0xffe08000, 0x9b400000, SMULH, [5]kind{rd + vW, rn + vW, rm + vW, kRaZR}},
	{0xffe08000, 0x9bc00000, UMULH, [5]kind{rd + vW, rn + vW, rm + vW, kRaZR}},

	// Scalar floating point. The fmov rows go immediate, fp to fp, fp to
	// general, general to fp.
	{0x5f208000, 0x1f000000, FMADD, [5]kind{kFtRd, rd + vF, rn + vF, rm + vF, ra + vF}},
	{0x5f208000, 0x1f008000, FMSUB, [5]kind{kFtRd, rd + vF, rn + vF, rm + vF, ra + vF}},
	{0x5f20fc00, 0x1e200800, FMUL, [5]kind{kFtRd, rd + vF, rn + vF, rm + vF}},
	{0x5f20fc00, 0x1e201800, FDIV, [5]kind{kFtRd, rd + vF, rn + vF, rm + vF}},
	{0x5f20fc00, 0x1e202800, FADD, [5]kind{kFtRd, rd + vF, rn + vF, rm + vF}},
	{0x5f20fc00, 0x1e203800, FSUB, [5]kind{kFtRd, rd + vF, rn + vF, rm + vF}},
	{0x5f200c00, 0x1e200c00, FCSEL, [5]kind{kFtRd, rd + vF, rn + vF, rm + vF, kCond}},
	{0x5f201fe0, 0x1e201000, FMOV, [5]kind{kFImm, rd + vF}},
	{0x5f203c1f, 0x1e202008, FCMP, [5]kind{kFZero, kFtRn, rn + vF}},
	{0x5f203c1f, 0x1e202000, FCMP, [5]kind{kFtRn, rn + vF, rm + vF}},
	{0x5f3ffc00, 0x1e204000, FMOV, [5]kind{kFmovFF, kFtRd, rd + vF, rn + vF}},
	{0x5f3ffc00, 0x1e20c000, FABS, [5]kind{kFtRn, rd + vF, rn + vF}},
	{0x5f3ffc00, 0x1e214000, FNEG, [5]kind{kFtRn, rd + vF, rn + vF}},
	{0x5f3ffc00, 0x1e21c000, FSQRT, [5]kind{kFtRn, rd + vF, rn + vF}},
	{0x5f3e7c00, 0x1e224000, FCVT, [5]kind{kFtRn, kFcvt, rn + vF}},
	{0x5f3ffc00, 0x1e220000, SCVTF, [5]kind{kFtRd, kSfRn, rd + vF, rn + vW}},
	{0x5f3ffc00, 0x1e230000, UCVTF, [5]kind{kFtRd, kSfRn, rd + vF, rn + vW}},
	{0x5f3ffc00, 0x1e380000, FCVTZS, [5]kind{kFtRn, kSf, rd + vW, rn + vF}},
	{0x5f3ffc00, 0x1e390000, FCVTZU, [5]kind{kFtRn, kSf, rd + vW, rn + vF}},
	{0x5f3ffc00, 0x1e260000, FMOV, [5]kind{kFmovToGP, kFtRn, kSf, rd + vW, rn + vF}},
	{0x5f3ffc00, 0x1e270000, FMOV, [5]kind{kFtRd, kSfRn, rd + vF, rn + vW}},
}

// What DecodeInto and Encode run is derived from rows at init, so a row's
// mask stays the one place that says which words it takes.
//
// Decoding indexes the rows by the word's bits 31:21: decTop holds, for
// each value, the rows whose fixed bits allow it, in table order. Where
// more than one row is left and they test bits 15:10, the entry instead
// names 64 entries of decSub, one per value of those bits. DecodeInto
// takes the first row of its entry whose fixed bits all match, as it
// would over the whole table.
//
// Encoding holds each op's rows in table order; Encode takes the first
// whose kinds serve the operands' form. ldstAt is kLdSt's map from op and
// transfer register view to its ldst entry.
var (
	coded   [len(rows)]codedRow
	decTop  [1 << 11]span
	decSub  []span
	decRows []uint8
	encRows [NumOps][]*codedRow
	encNeed [NumOps]form // what formOf computes for the op: what its rows test
	ldstAt  [STRH - LDR + 1][numRegKinds]int8
)

// span is a run of decRows, or with sub set the first of 64 decSub
// entries.
type span struct {
	lo, n uint16
	sub   bool
}

// codedRow is a row as the codec runs it: its register operands, the
// kinds that decode, the kinds that encode, and the operand form
// (form&need == want) it serves.
type codedRow struct {
	mask, val  uint32
	op         Op
	ndec, nenc uint8
	nregs      uint8
	regs       [4]uint8 // the slots that hold a register
	slots      [4]slotCodec
	dec        [3]kind
	enc        [5]kind
	need, want form
}

// slotCodec is how a row holds the register in one Inst slot: the
// register kind (times regKindStride) for each value of the view's two
// select bits at sel, or regBad where the view has none; num, 31 where
// the row has a register in the slot; whether 31 names sp; and the view.
// A slot without a register has RegNone for every kind and num 0, so it
// decodes as RegNone.
type slotCodec struct {
	kinds [4]Reg
	num   Reg
	sel   uint8
	view  uint8
	sp    bool
}

// regBad is the kind of a select value the view has no register for: it
// and the register number it is added to lie between every register and
// RegNone.
const regBad = 0x8000

func init() {
	for j := range rows {
		r, c := &rows[j], &coded[j]
		c.mask, c.val, c.op = r.mask, r.val, r.op
		for s := range c.slots {
			c.slots[s].kinds = [4]Reg{RegNone, RegNone, RegNone, RegNone}
		}
		for _, k := range r.args {
			switch {
			case k == kNone:
			case k >= rd:
				v := &views[(k-rd)%8]
				c.regs[c.nregs], c.nregs = uint8(k-rd)/8, c.nregs+1
				sc := &c.slots[(k-rd)/8]
				sc.view, sc.sel, sc.num, sc.sp = uint8(k-rd)%8, uint8(v.sel), 31, v.sp
				for b, vk := range v.kinds {
					sc.kinds[b] = regBad
					if vk != RegNone {
						sc.kinds[b] = vk * regKindStride
					}
				}
			default:
				if k.decodes() {
					c.dec[c.ndec], c.ndec = k, c.ndec+1
				}
				if k.encodes() {
					c.enc[c.nenc], c.nenc = k, c.nenc+1
				}
				kc := &kindForms[k]
				if c.want&kc.need != kc.want&c.need {
					panic(fmt.Sprintf("arm64: row %d serves two forms", j))
				}
				c.need, c.want = c.need|kc.need, c.want|kc.want
			}
		}
		ops := []Op{r.op}
		if r.args[0] == kLdSt || r.args[0] == kLit {
			ops = nil
			for op := LDR; op <= STRH; op++ {
				ops = append(ops, op)
			}
		}
		for _, op := range ops {
			encRows[op] = append(encRows[op], c)
			encNeed[op] |= c.need
		}
	}
	for op := LDR; op <= STRH; op++ {
		for v := range ldstAt[op-LDR] {
			ldstAt[op-LDR][v] = int8(lookup(ldst[:], op, Reg(v)))
		}
	}

	// Runs of decRows are shared: most index entries repeat another's.
	runs := map[string]span{}
	run := func(w, bits uint32) span {
		var list []uint8
		for j := range rows {
			if (w^rows[j].val)&rows[j].mask&bits == 0 {
				list = append(list, uint8(j))
			}
		}
		s, ok := runs[string(list)]
		if !ok {
			s = span{lo: uint16(len(decRows)), n: uint16(len(list))}
			decRows = append(decRows, list...)
			runs[string(list)] = s
		}
		return s
	}
	const top, sub = 0x7ff << 21, 0x3f << 10
	for t := range decTop {
		hi := uint32(t) << 21
		s := run(hi, top)
		split := false
		for _, j := range decRows[s.lo : s.lo+s.n] {
			split = split || (s.n > 1 && rows[j].mask&sub != 0)
		}
		if !split {
			decTop[t] = s
			continue
		}
		decTop[t] = span{lo: uint16(len(decSub)), sub: true}
		for b := uint32(0); b < 64; b++ {
			decSub = append(decSub, run(hi|b<<10, top|sub))
		}
	}
}
