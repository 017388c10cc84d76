package arm64

import (
	"math/bits"
	"strings"
	"testing"
	"testing/quick"
)

// corpus is a broad set of instructions in GNU syntax covering every shape
// and addressing mode the package supports.
var corpus = []string{
	"add x0, x1, #42",
	"add x0, x1, #4095",
	"add x0, x1, #8192",
	"add sp, sp, #16",
	"sub sp, sp, #32",
	"add x0, x1, x2",
	"add w0, w1, w2",
	"add x0, x1, x2, lsl #3",
	"sub x3, x4, x5, lsr #7",
	"adds x0, x1, x2, asr #1",
	"subs x0, x1, #12",
	"add x18, x21, w1, uxtw",
	"add x0, x1, w2, sxtw #2",
	"add x0, x1, x2, sxtx #3",
	"add x0, sp, x2",
	"add sp, x21, x22",
	"and x0, x1, x2",
	"orr x0, x1, x2, lsl #12",
	"eor w0, w1, w2, ror #3",
	"bic x0, x1, x2",
	"orn x0, x1, x2",
	"eon x0, x1, x2, lsr #2",
	"ands x0, x1, x2",
	"bics w0, w1, w2",
	"and x0, x1, #0xff",
	"orr x0, x1, #0x3f0",
	"eor x0, x1, #0xf0f0f0f0f0f0f0f0",
	"ands x0, x1, #0x7fffffff",
	"and w0, w1, #0x1",
	"movz x0, #123",
	"movz x0, #1, lsl #16",
	"movz x0, #65535, lsl #48",
	"movn x0, #0",
	"movk x0, #52, lsl #32",
	"movz w0, #99",
	"sbfm x0, x1, #4, #11",
	"ubfm x0, x1, #0, #31",
	"bfm x0, x1, #8, #15",
	"ubfm w0, w1, #3, #5",
	"extr x0, x1, x2, #17",
	"extr w0, w1, w2, #3",
	"udiv x0, x1, x2",
	"sdiv w0, w1, w2",
	"lsl x0, x1, x2",
	"lsr x0, x1, x2",
	"asr w0, w1, w2",
	"ror x0, x1, x2",
	"madd x0, x1, x2, x3",
	"msub x0, x1, x2, x3",
	"smaddl x0, w1, w2, x3",
	"umaddl x0, w1, w2, x3",
	"smulh x0, x1, x2",
	"umulh x0, x1, x2",
	"clz x0, x1",
	"cls w0, w1",
	"rbit x0, x1",
	"rev x0, x1",
	"rev w0, w1",
	"rev16 x0, x1",
	"rev32 x0, x1",
	"csel x0, x1, x2, eq",
	"csinc x0, x1, x2, ne",
	"csinv w0, w1, w2, lt",
	"csneg x0, x1, x2, ge",
	"ccmp x0, x1, #4, ne",
	"ccmp x0, #12, #0, eq",
	"ccmn w0, w1, #15, hi",
	"b 64",
	"b -1024",
	"bl 4096",
	"b.eq 32",
	"b.lt -32",
	"b.hi 1028",
	"cbz x0, 16",
	"cbnz w3, -64",
	"tbz x5, #33, 256",
	"tbnz w5, #3, -256",
	"br x7",
	"blr x30",
	"ret",
	"ret x3",
	"ldr x0, [x1]",
	"ldr x0, [x1, #8]",
	"ldr x0, [x1, #32760]",
	"ldr w0, [x1, #-5]",
	"ldr x0, [sp, #16]",
	"str x0, [x1, #8]",
	"str w0, [x1, #-256]",
	"ldr x0, [x1, #8]!",
	"ldr x0, [x1], #8",
	"str x0, [sp, #-16]!",
	"ldr x0, [x1, x2]",
	"ldr x0, [x1, x2, lsl #3]",
	"ldr w0, [x1, x2, lsl #2]",
	"ldr x0, [x21, w2, uxtw]",
	"ldr x0, [x21, w2, uxtw #3]",
	"str x0, [x21, w2, uxtw]",
	"ldr x0, [x1, w2, sxtw]",
	"ldr x0, [x1, w2, sxtw #3]",
	"ldr x0, [x1, x2, sxtx]",
	"ldrb w0, [x1, #3]",
	"strb w0, [x1]",
	"ldrh w0, [x1, #2]",
	"strh w0, [x1, #4]",
	"ldrsb x0, [x1]",
	"ldrsb w0, [x1, #1]",
	"ldrsh x0, [x1, #2]",
	"ldrsh w0, [x1]",
	"ldrsw x0, [x1, #4]",
	"ldrsw x0, [x1, w2, uxtw #2]",
	"ldrb w0, [x21, w2, uxtw]",
	"ldp x0, x1, [sp, #16]",
	"ldp w0, w1, [x2]",
	"stp x29, x30, [sp, #-32]!",
	"ldp x29, x30, [sp], #32",
	"stp x0, x1, [x2, #64]",
	"ldxr x0, [x1]",
	"ldxr w0, [x1]",
	"stxr w2, x0, [x1]",
	"stlxr w2, w0, [x1]",
	"ldaxr x0, [x1]",
	"ldar x0, [x1]",
	"stlr w0, [x1]",
	"ldr d0, [x1, #8]",
	"str d0, [x1, x2, lsl #3]",
	"ldr s1, [x2]",
	"str s1, [x2, #4]",
	"ldr q2, [x3, #16]",
	"str q2, [x3, w4, uxtw #4]",
	"ldr b3, [x1]",
	"ldr h3, [x1, #2]",
	"ldp d0, d1, [x2, #16]",
	"stp q0, q1, [x2]",
	"ldp s0, s1, [sp], #8",
	"fmov d0, d1",
	"fmov s0, s1",
	"fmov x0, d1",
	"fmov d1, x0",
	"fmov w0, s1",
	"fmov s1, w0",
	"fmov d0, #1.0",
	"fmov d0, #-2.5",
	"fmov s0, #0.5",
	"fadd d0, d1, d2",
	"fsub s0, s1, s2",
	"fmul d0, d1, d2",
	"fdiv d0, d1, d2",
	"fneg d0, d1",
	"fabs s0, s1",
	"fsqrt d0, d1",
	"fmadd d0, d1, d2, d3",
	"fmsub s0, s1, s2, s3",
	"fcmp d0, d1",
	"fcmp d0, #0.0",
	"fcmp s3, s4",
	"fcsel d0, d1, d2, gt",
	"fcvt d0, s1",
	"fcvt s0, d1",
	"scvtf d0, x1",
	"scvtf s0, w1",
	"ucvtf d0, x1",
	"fcvtzs x0, d1",
	"fcvtzs w0, s1",
	"fcvtzu x0, d1",
	"nop",
	"svc #0",
	"svc #123",
	"brk #1",
	"dmb ish",
	"dmb sy",
	"dsb ishst",
	"isb",
	"mrs x0, tpidr_el0",
	"msr tpidr_el0, x0",
	"adr x0, 1024",
	"adr x0, -16",
	"adrp x0, 65536",
	"ldr x0, 1048",
	"ldrsw x0, -32",
	"ldr d0, 2000",
	// Immediate and shift-amount edges.
	"ldr q0, [x1, #65520]",
	"str q7, [sp, #65520]",
	"ldr w1, [x2, #16380]",
	"ldrh w0, [x1, #8190]",
	"ldrb w0, [x1, #4095]",
	"ldp x0, x1, [x2, #504]",
	"stp x0, x1, [x2, #-512]",
	"stp q0, q1, [x2, #1008]",
	"add x0, x1, #16773120",
	"add x0, x1, x2, lsl #63",
	"eor w0, w1, w2, ror #31",
	"movk x0, #65535, lsl #48",
	"movn x0, #65535, lsl #48",
	"extr x0, x1, x2, #63",
	"sbfm x0, x1, #63, #63",
	"tbz x1, #63, 32764",
	"tbnz w2, #31, -32768",
	"cbz x0, 1048572",
	"adrp x1, 4294963200",
	"adrp x1, -4294967296",
	// Generic (unnamed) system registers, as printed by sysRegName.
	"mrs x28, s3_7_c7_c0_7",
	"msr s2_5_c10_c0_5, x10",
}

// aliases maps alias spellings to the canonical form they should parse to.
var aliases = map[string]string{
	"mov x0, x1":           "orr x0, xzr, x1",
	"mov w0, w1":           "orr w0, wzr, w1",
	"mov sp, x1":           "add sp, x1, #0",
	"mov x1, sp":           "add x1, sp, #0",
	"mov x0, #7":           "movz x0, #7",
	"mov x0, #-1":          "movn x0, #0",
	"mov x0, #0xff00":      "movz x0, #0xff00",
	"mov x0, #0xff":        "movz x0, #255",
	"mov w0, #0x55555555":  "orr w0, wzr, #0x55555555",
	"cmp x0, x1":           "subs xzr, x0, x1",
	"cmp w0, #3":           "subs wzr, w0, #3",
	"cmn x0, x1":           "adds xzr, x0, x1",
	"tst x0, #0xf":         "ands xzr, x0, #0xf",
	"tst w1, w2":           "ands wzr, w1, w2",
	"neg x0, x1":           "sub x0, xzr, x1",
	"negs w0, w1":          "subs w0, wzr, w1",
	"mvn x0, x1":           "orn x0, xzr, x1",
	"mul x0, x1, x2":       "madd x0, x1, x2, xzr",
	"mneg x0, x1, x2":      "msub x0, x1, x2, xzr",
	"smull x0, w1, w2":     "smaddl x0, w1, w2, xzr",
	"umull x0, w1, w2":     "umaddl x0, w1, w2, xzr",
	"lsl x0, x1, #3":       "ubfm x0, x1, #61, #60",
	"lsr x0, x1, #3":       "ubfm x0, x1, #3, #63",
	"asr w0, w1, #5":       "sbfm w0, w1, #5, #31",
	"ror x0, x1, #9":       "extr x0, x1, x1, #9",
	"sxtw x0, w1":          "sbfm x0, x1, #0, #31",
	"sxth w0, w1":          "sbfm w0, w1, #0, #15",
	"sxtb x0, w1":          "sbfm x0, x1, #0, #7",
	"uxth w0, w1":          "ubfm w0, w1, #0, #15",
	"uxtb w0, w1":          "ubfm w0, w1, #0, #7",
	"ubfx x0, x1, #8, #16": "ubfm x0, x1, #8, #23",
	"sbfx w0, w1, #2, #3":  "sbfm w0, w1, #2, #4",
	"ubfiz x0, x1, #8, #4": "ubfm x0, x1, #56, #3",
	"bfi x0, x1, #16, #8":  "bfm x0, x1, #48, #7",
	"bfxil x0, x1, #4, #4": "bfm x0, x1, #4, #7",
	"cset x0, eq":          "csinc x0, xzr, xzr, ne",
	"csetm w0, lt":         "csinv w0, wzr, wzr, ge",
	"cinc x0, x1, eq":      "csinc x0, x1, x1, ne",
	"cinv x0, x1, hi":      "csinv x0, x1, x1, ls",
	"cneg x0, x1, mi":      "csneg x0, x1, x1, pl",
	"ldur x0, [x1, #-3]":   "ldr x0, [x1, #-3]",
	"stur w0, [x1, #-9]":   "str w0, [x1, #-9]",
	"mov w22, wsp":         "add w22, wsp, #0",
}

func TestParsePrintRoundTrip(t *testing.T) {
	for _, src := range corpus {
		inst, err := ParseInst(src)
		if err != nil {
			t.Errorf("parse %q: %v", src, err)
			continue
		}
		printed := inst.String()
		inst2, err := ParseInst(printed)
		if err != nil {
			t.Errorf("reparse of %q -> %q: %v", src, printed, err)
			continue
		}
		if inst != inst2 {
			t.Errorf("round trip %q -> %q: %+v != %+v", src, printed, inst, inst2)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, src := range corpus {
		inst, err := ParseInst(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		w, err := Encode(&inst)
		if err != nil {
			t.Errorf("encode %q: %v", src, err)
			continue
		}
		dec, err := Decode(w)
		if err != nil {
			t.Errorf("decode %q (%#08x): %v", src, w, err)
			continue
		}
		w2, err := Encode(&dec)
		if err != nil {
			t.Errorf("re-encode %q: decoded %q: %v", src, dec.String(), err)
			continue
		}
		if w != w2 {
			t.Errorf("encode/decode %q: %#08x -> %q -> %#08x", src, w, dec.String(), w2)
		}
	}
}

// TestDecodeMatchesSemantics checks a few fields of decoded instructions
// instead of relying purely on re-encoding.
func TestDecodeSelected(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"add x18, x21, w1, uxtw", "add x18, x21, w1, uxtw"},
		{"ldr x0, [x21, w2, uxtw]", "ldr x0, [x21, w2, uxtw]"},
		{"mov x0, x1", "orr x0, xzr, x1"},
		{"cmp x0, #3", "subs xzr, x0, #3"},
		{"ret", "ret"},
		{"stp x29, x30, [sp, #-32]!", "stp x29, x30, [sp, #-32]!"},
	}
	for _, c := range cases {
		inst, err := ParseInst(c.src)
		if err != nil {
			t.Fatalf("parse %q: %v", c.src, err)
		}
		w, err := Encode(&inst)
		if err != nil {
			t.Fatalf("encode %q: %v", c.src, err)
		}
		dec, err := Decode(w)
		if err != nil {
			t.Fatalf("decode %q: %v", c.src, err)
		}
		if got := dec.String(); got != c.want {
			t.Errorf("%q: decoded %q, want %q", c.src, got, c.want)
		}
	}
}

func TestAliases(t *testing.T) {
	for alias, canon := range aliases {
		a, err := ParseInst(alias)
		if err != nil {
			t.Errorf("parse alias %q: %v", alias, err)
			continue
		}
		c, err := ParseInst(canon)
		if err != nil {
			t.Errorf("parse canonical %q: %v", canon, err)
			continue
		}
		if a != c {
			t.Errorf("alias %q != canonical %q:\n  %+v\n  %+v", alias, canon, a, c)
		}
	}
}

func TestParseRejects(t *testing.T) {
	bad := []string{
		"frobnicate x0",
		"add x0",
		"add x0, x1",
		"ldr x0, [x99]",
		"ldr x0, [w1]",
		"b.zz 4",
		"mov x0, #0x123456789", // needs multiple instructions
		"tbz x0, #64, 8",
		"ccmp x0, x1, #16, eq",
		// Accepted once, and printed as something that parsed differently.
		"ldr x0, [x1]junk",
		"add x0, x1, #1, lsl #3",
		"and x0, x1, #1, lsl #12",
		"add x0, x1, x2, lsl #128",
		"add x0, x1, x2, lsl #1, x3",
		"and x0, x1, :lo12:sym",
		"movz x0, #0, lsl",
		"ldp x0, x1, [x2, x3], #16",
	}
	for _, src := range bad {
		if _, err := ParseInst(src); err == nil {
			t.Errorf("parse %q: expected error", src)
		}
	}
}

// TestEncodeRejects gives every operand check in the encoder a row at its
// boundary, with a piece of the message it must give. Rows the parser
// would refuse first build the Inst directly.
func TestEncodeRejects(t *testing.T) {
	x := func(op Op, rd, rn, rm Reg, imm int64, amount int8) Inst {
		return Inst{Op: op, Rd: rd, Rn: rn, Rm: rm, Ra: RegNone, Imm: imm, Amount: amount}
	}
	mem := func(op Op, rt Reg, m Mem) Inst {
		return Inst{Op: op, Rd: rt, Rn: RegNone, Rm: RegNone, Ra: RegNone, Amount: -1, Mem: m}
	}
	cases := []struct {
		src  string // parsed when inst.Op is BAD
		inst Inst
		sub  string
	}{
		{src: "add x0, x1, #123456789", sub: "out of range"},
		{src: "add x0, x1, #4097", sub: "add/sub immediate 4097 out of range"},
		{src: "add x0, x1, #16777216", sub: "out of range"},
		{src: "add x0, xzr, #1", sub: "zero register"},
		{src: "add w0, w1, w2, lsl #32", sub: "shift amount out of range"},
		{src: "add x0, x1, x2, ror #3", sub: "bad shift ror for add/sub"},
		{inst: Inst{Op: ADD, Rd: X0, Rn: X1, Rm: W2, Ra: RegNone, Ext: ExtUXTW, Amount: 5}, sub: "extend amount 5 out of range"},
		{src: "and x0, x1, #0", sub: "not a valid bitmask immediate"},
		{src: "and w0, w1, #0x5", sub: "not a valid bitmask immediate"},
		{inst: x(BIC, X0, X1, RegNone, 1, -1), sub: "no immediate form"},
		{inst: Inst{Op: AND, Rd: X0, Rn: X1, Rm: X2, Ra: RegNone, Ext: ExtUXTW, Amount: -1}, sub: "bad shift uxtw for logical op"},
		{src: "eor w0, w1, w2, ror #32", sub: "shift amount out of range"},
		{src: "movz x0, #65536", sub: "imm16 out of range"},
		{inst: x(MOVZ, X0, RegNone, RegNone, 1, 8), sub: "bad move-wide shift 8"},
		{src: "movz w0, #1, lsl #32", sub: "bad move-wide shift 32"},
		{src: "ubfm w0, w1, #32, #0", sub: "bitfield immediate out of range"},
		{src: "sbfm x0, x1, #0, #64", sub: "bitfield immediate out of range"},
		{src: "extr w0, w1, w2, #32", sub: "extr lsb out of range"},
		{src: "rev32 w0, w1", sub: "rev32 requires 64-bit registers"},
		{src: "ccmp x0, #32, #0, eq", sub: "ccmp imm5 out of range"},
		{src: "adrp x0, 4097", sub: "not page aligned"},
		{src: "adr x0, 1048576", sub: "adr offset out of range"},
		{src: "adrp x0, 4294967296", sub: "adr offset out of range"},
		{src: "b 3", sub: "out of range"}, // not a multiple of 4
		{src: "b 536870912", sub: "out of range"},
		{src: "bl 134217728", sub: "branch offset 134217728 out of range"},
		{src: "b -134217732", sub: "branch offset -134217732 out of range"},
		{src: "b.eq 1048576", sub: "b.cond offset out of range"},
		{src: "cbz x0, 1048576", sub: "cbz offset out of range"},
		{src: "cbnz w0, -1048580", sub: "cbz offset out of range"},
		{src: "tbz x0, #0, 32768", sub: "tbz offset out of range"},
		{src: "tbz w0, #32, 8", sub: "tbz bit number out of range"},
		{src: "svc #65536", sub: "svc imm16 out of range"},
		{src: "brk #65536", sub: "brk imm16 out of range"},
		{src: "ldr x0, [x1, #65536]", sub: "out of range"},
		{src: "ldr x0, [x1, #257]", sub: "load/store offset 257 out of range"},
		{src: "ldr x0, [x1, #-257]", sub: "load/store offset -257 out of range"},
		{src: "ldr x0, [x1, #256]!", sub: "pre/post index offset 256 out of range"},
		{src: "str x0, [x1], #-257", sub: "pre/post index offset -257 out of range"},
		{inst: mem(LDR, X0, Mem{Mode: AddrReg, Base: X1, Index: X2, Amount: 2}), sub: "register-offset shift 2 must be 0 or 3"},
		{inst: mem(LDRH, W0, Mem{Mode: AddrRegUXTW, Base: X1, Index: W2, Amount: 2}), sub: "register-offset shift 2 must be 0 or 1"},
		{inst: mem(LDR, X0, Mem{Mode: AddrNone, Base: X1}), sub: "bad addressing mode"},
		{src: "ldr x0, 6", sub: "literal offset out of range"},
		{src: "ldr x0, 1048576", sub: "literal offset out of range"},
		{inst: mem(STR, X0, Mem{Mode: AddrLiteral}), sub: "literal addressing requires a load"},
		{inst: mem(LDRB, W0, Mem{Mode: AddrLiteral}), sub: "op has no literal form"},
		{src: "ldp x0, x1, [x2, #1024]", sub: "pair offset 1024 out of range"}, // imm7*8 max 504
		{src: "ldp x0, x1, [x2, #4]", sub: "pair offset 4 out of range"},
		{src: "stp w0, w1, [sp, #-260]!", sub: "pair offset -260 out of range"},
		{inst: Inst{Op: LDP, Rd: X0, Rn: RegNone, Rm: X1, Ra: RegNone, Amount: -1, Mem: Mem{Mode: AddrReg, Base: X2, Index: X3}}, sub: "bad pair addressing mode"},
		{src: "fmov d0, #0.1", sub: "is not an fmov immediate"},
		{src: "fadd q0, q1, q2", sub: "has no fp type"},
		{src: "scvtf q0, x1", sub: "has no fp type"},
		{src: "fcvt q0, d1", sub: "register q0 has no fp type"},
		{inst: Inst{Op: BAD}, sub: "unsupported op"},
	}
	for _, c := range cases {
		inst := c.inst
		if inst.Op == BAD && c.src != "" {
			var err error
			if inst, err = ParseInst(c.src); err != nil {
				t.Fatalf("parse %q unexpectedly failed: %v", c.src, err)
			}
		}
		_, err := Encode(&inst)
		if err == nil || !strings.Contains(err.Error(), c.sub) {
			t.Errorf("encode %q: err = %v, want one containing %q", inst.String(), err, c.sub)
		}
	}
}

// TestEncodeRefusesMismatchedTransfer: a transfer register the op has no
// encoding for is refused. The hand-written encoder turned each of these
// into another instruction (ldrb h2 into a store of b2, ldr h2 from a
// literal into ldr s2, ldp b1 into ldp w1).
func TestEncodeRefusesMismatchedTransfer(t *testing.T) {
	for _, src := range []string{
		"ldrb h2, [x1]",
		"strh q0, [x1, #2]",
		"ldrsw s0, [x1], #4",
		"ldr h2, 1024",
		"ldrsw d0, 8",
		"ldp b1, b2, [x0]",
		"stp h1, h2, [sp, #-4]!",
	} {
		inst, err := ParseInst(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if w, err := Encode(&inst); err == nil {
			t.Errorf("encode %q = %#08x, want an error", src, w)
		}
	}
}

func TestBitmaskRoundTripQuick(t *testing.T) {
	f := func(v uint64) bool {
		n, immr, imms, ok := EncodeBitmask(v, true)
		if !ok {
			return true // not encodable is fine
		}
		got, ok := DecodeBitmask(n, immr, imms, true)
		return ok && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestBitmaskAllDecodable enumerates every (N, immr, imms) and checks that
// decodable patterns re-encode to an encoding that decodes identically.
func TestBitmaskAllDecodable(t *testing.T) {
	seen := 0
	for n := uint32(0); n <= 1; n++ {
		for immr := uint32(0); immr < 64; immr++ {
			for imms := uint32(0); imms < 64; imms++ {
				v, ok := DecodeBitmask(n, immr, imms, true)
				if !ok {
					continue
				}
				seen++
				n2, immr2, imms2, ok := EncodeBitmask(v, true)
				if !ok {
					t.Fatalf("decoded %#x from (%d,%d,%d) but cannot re-encode", v, n, immr, imms)
				}
				v2, ok := DecodeBitmask(n2, immr2, imms2, true)
				if !ok || v2 != v {
					t.Fatalf("re-encode mismatch for %#x", v)
				}
			}
		}
	}
	// There are 64-bit patterns for element sizes 2..64; expect thousands.
	if seen < 2000 {
		t.Errorf("only %d decodable bitmask encodings; expected thousands", seen)
	}
}

func TestBitmaskKnownValues(t *testing.T) {
	known := []uint64{
		0xff, 0xff00, 0xffff, 0x5555555555555555, 0xaaaaaaaaaaaaaaaa,
		0x0f0f0f0f0f0f0f0f, 0x3, 0x7fffffffffffffff, 0xfffffffffffffffe,
		0x00000000ffffffff, 0xffffffff00000000, 0x8000000000000001,
	}
	for _, v := range known {
		n, immr, imms, ok := EncodeBitmask(v, true)
		if !ok {
			t.Errorf("EncodeBitmask(%#x) failed", v)
			continue
		}
		got, ok := DecodeBitmask(n, immr, imms, true)
		if !ok || got != v {
			t.Errorf("DecodeBitmask(EncodeBitmask(%#x)) = %#x", v, got)
		}
	}
	for _, v := range []uint64{0, ^uint64(0), 0x123456789abcdef0} {
		if _, _, _, ok := EncodeBitmask(v, true); ok {
			if bits.OnesCount64(v) != 0 && v != ^uint64(0) {
				// 0x123456789abcdef0 genuinely is not a bitmask immediate.
				t.Errorf("EncodeBitmask(%#x) unexpectedly succeeded", v)
			} else {
				t.Errorf("EncodeBitmask(%#x) must fail", v)
			}
		}
	}
}

// TestDecodeFuzzNoCrash makes sure arbitrary words never panic the decoder
// and that anything decoded re-encodes to an instruction that decodes back
// to the same Inst (the encoder may pick a different but equivalent
// encoding, e.g. scaled vs unscaled immediates).
func TestDecodeFuzzNoCrash(t *testing.T) {
	f := func(w uint32) bool {
		inst, err := Decode(w)
		if err != nil {
			return true
		}
		w2, err := Encode(&inst)
		if err != nil {
			t.Logf("decoded %#08x -> %q but cannot re-encode: %v", w, inst.String(), err)
			return false
		}
		inst2, err := Decode(w2)
		if err != nil {
			t.Logf("re-encoded %#08x -> %q -> %#08x does not decode: %v", w, inst.String(), w2, err)
			return false
		}
		if inst != inst2 {
			t.Logf("decode fixpoint mismatch: %#08x -> %+v -> %#08x -> %+v", w, inst, w2, inst2)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

func TestRegisters(t *testing.T) {
	cases := []struct {
		s    string
		r    Reg
		is64 bool
	}{
		{"x0", X0, true}, {"x30", X30, true}, {"xzr", XZR, true},
		{"sp", SP, true}, {"w5", W5, false}, {"wzr", WZR, false},
		{"lr", X30, true}, {"fp", X29, true},
	}
	for _, c := range cases {
		r, ok := ParseReg(c.s)
		if !ok || r != c.r {
			t.Errorf("ParseReg(%q) = %v, %v", c.s, r, ok)
		}
		if r.Is64() != c.is64 {
			t.Errorf("%q Is64 = %v", c.s, r.Is64())
		}
	}
	if SP.W() != WSP || WZR.X() != XZR || X7.W() != W7 {
		t.Error("register view conversion broken")
	}
	if !SP.IsSP() || !WSP.IsSP() || X0.IsSP() {
		t.Error("IsSP broken")
	}
	if !XZR.IsZR() || X30.IsZR() {
		t.Error("IsZR broken")
	}
	if d := DReg(3); d.FPBits() != 64 || d.String() != "d3" {
		t.Error("FP register view broken")
	}
	for _, s := range []string{"x31", "w31", "z0", "x32", "q32", ""} {
		if r, ok := ParseReg(s); ok {
			t.Errorf("ParseReg(%q) = %v, expected failure", s, r)
		}
	}
}
