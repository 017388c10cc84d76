package emu

import (
	"fmt"
	"testing"
)

// Table-driven semantics checks: each case sets up registers via mov/movk
// sequences, executes one instruction under test, and checks one result
// register. This systematically covers the ALU operand forms, bitfields,
// extensions, and conversions that the workload kernels rely on.

type semCase struct {
	name  string
	setup string // register setup assembly
	inst  string // the instruction under test
	reg   int    // x register to check
	want  uint64
}

func runSem(t *testing.T, c semCase) {
	t.Helper()
	src := "_start:\n" + c.setup + "\t" + c.inst + "\n\tbrk #0\n"
	cpu, tr := run(t, src)
	if tr.Kind != TrapBRK {
		t.Fatalf("%s: trap %v", c.name, tr)
	}
	if cpu.X()[c.reg] != c.want {
		t.Errorf("%s: x%d = %#x, want %#x", c.name, c.reg, cpu.X()[c.reg], c.want)
	}
}

func TestALUOperandForms(t *testing.T) {
	setup := "\tmov x1, #0x1234\n\tmov x2, #0xff\n\tmov x3, #-1\n"
	w := func(v uint64) uint64 { return v & 0xffffffff }
	cases := []semCase{
		{"add imm", setup, "add x0, x1, #0x10", 0, 0x1244},
		{"add imm lsl12", setup, "add x0, x1, #1, lsl #12", 0, 0x2234},
		{"sub imm", setup, "sub x0, x1, #4", 0, 0x1230},
		{"add lsl", setup, "add x0, x1, x2, lsl #4", 0, 0x1234 + 0xff0},
		{"add lsr", setup, "add x0, x1, x2, lsr #4", 0, 0x1234 + 0xf},
		{"add asr neg", setup, "add x0, x2, x3, asr #1", 0, 0xfe},
		{"sub shifted", setup, "sub x0, x1, x2, lsl #1", 0, 0x1234 - 0x1fe},
		{"add uxtb", setup, "add x0, x1, w3, uxtb", 0, 0x1234 + 0xff},
		{"add uxth", setup, "add x0, x1, w3, uxth", 0, 0x1234 + 0xffff},
		{"add uxtw", setup, "add x0, x1, w3, uxtw", 0, 0x1234 + 0xffffffff},
		{"add uxtw shift", setup, "add x0, x1, w2, uxtw #2", 0, 0x1234 + 0xff*4},
		{"add sxtb", setup, "add x0, x1, w3, sxtb", 0, 0x1233},
		{"add sxth", setup, "add x0, x1, w3, sxth", 0, 0x1233},
		{"add sxtw", setup, "add x0, x1, w3, sxtw", 0, 0x1233},
		{"add sxtw shift", setup, "add x0, x1, w3, sxtw #3", 0, 0x1234 - 8},
		{"and", setup, "and x0, x1, x2", 0, 0x34},
		{"orr ror", setup, "orr x0, xzr, x2, ror #4", 0, 0xf00000000000000f},
		{"eor", setup, "eor x0, x1, x1", 0, 0},
		{"bic", setup, "bic x0, x1, x2", 0, 0x1200},
		{"orn", setup, "orn x0, xzr, xzr", 0, ^uint64(0)},
		{"eon", setup, "eon x0, xzr, x3", 0, 0},
		{"and imm", setup, "and x0, x1, #0xf0", 0, 0x30},
		{"32-bit add wraps", setup, "add w0, w3, w3", 0, w(0xfffffffe)},
		{"neg", setup, "neg x0, x2", 0, ^uint64(0xff) + 1},
		{"mvn", setup, "mvn x0, x2", 0, ^uint64(0xff)},
	}
	for _, c := range cases {
		runSem(t, c)
	}
}

func TestBitfieldForms(t *testing.T) {
	setup := "\tmovz x1, #0xBEEF\n\tmovk x1, #0xDEAD, lsl #16\n"
	cases := []semCase{
		{"lsl imm", setup, "lsl x0, x1, #8", 0, 0xDEADBEEF00},
		{"lsr imm", setup, "lsr x0, x1, #8", 0, 0xDEADBE},
		{"asr keeps sign", "\tmov x1, #-256\n", "asr x0, x1, #4", 0, ^uint64(0xf)},
		{"ror imm", "\tmov x1, #0xf\n", "ror x0, x1, #4", 0, 0xf000000000000000},
		{"ubfx", setup, "ubfx x0, x1, #16, #16", 0, 0xDEAD},
		{"sbfx sign", setup, "sbfx x0, x1, #16, #16", 0, 0xffffffffffffDEAD},
		{"ubfiz", setup, "ubfiz x0, x1, #8, #8", 0, 0xEF00},
		{"uxtb", setup, "uxtb w0, w1", 0, 0xEF},
		{"uxth", setup, "uxth w0, w1", 0, 0xBEEF},
		{"sxtb", setup, "sxtb x0, w1", 0, ^uint64(0x10)},
		{"sxtw", "\tmov w1, #-2\n", "sxtw x0, w1", 0, ^uint64(1)},
		{"extr", "\tmov x1, #1\n\tmov x2, #0\n", "extr x0, x1, x2, #60", 0, 0x10},
	}
	for _, c := range cases {
		runSem(t, c)
	}
}

func TestVariableShifts(t *testing.T) {
	setup := "\tmov x1, #0xf0\n\tmov x2, #4\n\tmov x3, #68\n"
	cases := []semCase{
		{"lslv", setup, "lsl x0, x1, x2", 0, 0xf00},
		{"lsrv", setup, "lsr x0, x1, x2", 0, 0xf},
		{"asrv", setup, "asr x0, x1, x2", 0, 0xf},
		{"rorv", setup, "ror x0, x1, x2", 0, 0xf},
		{"lslv mod 64", setup, "lsl x0, x1, x3", 0, 0xf00}, // 68 % 64 = 4
		{"lslv w mod 32", "\tmov w1, #1\n\tmov w2, #33\n", "lsl w0, w1, w2", 0, 2},
	}
	for _, c := range cases {
		runSem(t, c)
	}
}

func TestMultiplyFamily(t *testing.T) {
	setup := "\tmov x1, #7\n\tmov x2, #-3\n\tmov x3, #100\n"
	cases := []semCase{
		{"madd", setup, "madd x0, x1, x1, x3", 0, 149},
		{"msub", setup, "msub x0, x1, x1, x3", 0, 51},
		{"mneg", setup, "mneg x0, x1, x1", 0, ^uint64(48)},
		{"smull", "\tmov w1, #-2\n\tmov w2, #3\n", "smull x0, w1, w2", 0, ^uint64(5)},
		{"umull", "\tmov w1, #-1\n\tmov w2, #2\n", "umull x0, w1, w2", 0, 0x1fffffffe},
		{"smulh neg", setup, "smulh x0, x2, x2", 0, 0}, // (-3)^2 = 9, high = 0
		{"umulh", "\tmov x1, #-1\n\tmov x2, #2\n", "umulh x0, x1, x2", 0, 1},
		{"smulh big", "\tmov x1, #-1\n\tmov x2, #2\n", "smulh x0, x1, x2", 0, ^uint64(0)},
	}
	for _, c := range cases {
		runSem(t, c)
	}
}

func TestBitCounting(t *testing.T) {
	cases := []semCase{
		{"clz", "\tmov x1, #0x10\n", "clz x0, x1", 0, 59},
		{"clz zero", "\tmov x1, #0\n", "clz x0, x1", 0, 64},
		{"clz w", "\tmov w1, #0x10\n", "clz w0, w1", 0, 27},
		{"cls", "\tmov x1, #-1\n", "cls x0, x1", 0, 63},
		{"rbit", "\tmov x1, #1\n", "rbit x0, x1", 0, 1 << 63},
		{"rev", "\tmov x1, #0x12\n", "rev x0, x1", 0, 0x1200000000000000},
		{"rev16", "\tmovz x1, #0x1234\n", "rev16 x0, x1", 0, 0x3412},
		{"rev32", "\tmovz x1, #0x1234\n", "rev32 x0, x1", 0, 0x34120000},
		{"rev w", "\tmov w1, #0x12\n", "rev w0, w1", 0, 0x12000000},
	}
	for _, c := range cases {
		runSem(t, c)
	}
}

func TestConditionCodes(t *testing.T) {
	// Exercise every condition code through cset after a fixed compare.
	conds := map[string][2]uint64{
		// Column 0: after cmp 5, 7  (N=1 Z=0 C=0 V=0).
		// Column 1: after cmp 7, 7  (N=0 Z=1 C=1 V=0).
		"eq": {0, 1}, "ne": {1, 0}, "hs": {0, 1}, "lo": {1, 0},
		"mi": {1, 0}, "pl": {0, 1}, "vs": {0, 0}, "vc": {1, 1},
		"hi": {0, 0}, "ls": {1, 1}, "ge": {0, 1}, "lt": {1, 0},
		"gt": {0, 0}, "le": {1, 1},
	}
	for cond, want := range conds {
		runSem(t, semCase{
			name:  "cset " + cond + " after 5<7",
			setup: "\tmov x1, #5\n\tcmp x1, #7\n",
			inst:  "cset x0, " + cond,
			reg:   0, want: want[0],
		})
		runSem(t, semCase{
			name:  "cset " + cond + " after 7==7",
			setup: "\tmov x1, #7\n\tcmp x1, #7\n",
			inst:  "cset x0, " + cond,
			reg:   0, want: want[1],
		})
	}
}

func TestFPConversionEdges(t *testing.T) {
	cases := []semCase{
		{"fcvtzs truncates", "\tfmov d1, #2.5\n", "fcvtzs x0, d1", 0, 2},
		{"fcvtzs negative", "\tfmov d1, #-2.5\n", "fcvtzs x0, d1", 0, ^uint64(1)},
		{"fcvtzu negative clamps", "\tfmov d1, #-2.5\n", "fcvtzu x0, d1", 0, 0},
		{"scvtf roundtrip", "\tmov x1, #-7\n\tscvtf d1, x1\n", "fcvtzs x0, d1", 0, ^uint64(6)},
		{"ucvtf roundtrip", "\tmov x1, #12\n\tucvtf d1, x1\n", "fcvtzs x0, d1", 0, 12},
		{"fmov bits", "\tfmov d1, #1.0\n", "fmov x0, d1", 0, 0x3ff0000000000000},
		{"fmov w<->s", "\tmov w1, #0x42\n\tfmov s1, w1\n", "fmov w0, s1", 0, 0x42},
		{"fcsel taken", "\tfmov d1, #2.0\n\tfmov d2, #3.0\n\tfcmp d1, d2\n\tfcsel d3, d1, d2, lt\n", "fcvtzs x0, d3", 0, 2},
		{"fabs", "\tfmov d1, #-4.0\n\tfabs d2, d1\n", "fcvtzs x0, d2", 0, 4},
		{"fmin via fcmp", "\tfmov d1, #5.0\n\tfsqrt d2, d1\n\tfmul d3, d2, d2\n", "fcvtzs x0, d3", 0, 5},
	}
	for _, c := range cases {
		runSem(t, c)
	}
}

// TestStoreLoadAllWidths writes then reads every access width at every
// alignment within a word, through the emulator and memory substrate.
func TestStoreLoadAllWidths(t *testing.T) {
	for _, width := range []struct {
		st, ld string
		mask   uint64
	}{
		{"strb w1", "ldrb w0", 0xff},
		{"strh w1", "ldrh w0", 0xffff},
		{"str w1", "ldr w0", 0xffffffff},
		{"str x1", "ldr x0", ^uint64(0)},
	} {
		for off := 0; off < 8; off++ {
			src := fmt.Sprintf(`
_start:
	adrp x2, buf
	add x2, x2, :lo12:buf
	movz x1, #0xBEEF
	movk x1, #0xDEAD, lsl #16
	movk x1, #0x5678, lsl #32
	%s, [x2, #%d]
	%s, [x2, #%d]
	brk #0
.bss
buf:
	.space 64
`, width.st, off, width.ld, off)
			cpu, tr := run(t, src)
			if tr.Kind != TrapBRK {
				t.Fatalf("%s off %d: %v", width.st, off, tr)
			}
			want := (0x5678DEADBEEF) & width.mask
			if cpu.X()[0] != uint64(want) {
				t.Errorf("%s off %d: got %#x want %#x", width.st, off, cpu.X()[0], want)
			}
		}
	}
}

// TestFPPairsAndQRegisters moves 128-bit values through q registers and
// d-register pairs, checking full-width preservation.
func TestFPPairsAndQRegisters(t *testing.T) {
	c, tr := run(t, `
_start:
	adrp x1, buf
	add x1, x1, :lo12:buf
	// Fill 16 bytes through two 64-bit stores, load as one q, store back
	// at +32, and reload halves.
	movz x2, #0x1111
	movk x2, #0x2222, lsl #48
	movz x3, #0x3333
	movk x3, #0x4444, lsl #48
	str x2, [x1]
	str x3, [x1, #8]
	ldr q0, [x1]
	str q0, [x1, #32]
	ldr x4, [x1, #32]
	ldr x5, [x1, #40]
	// d-register pairs
	fmov d1, #1.0
	fmov d2, #2.0
	stp d1, d2, [x1, #64]
	ldp d3, d4, [x1, #64]
	fadd d5, d3, d4
	fcvtzs x6, d5
	// q-register pairs
	stp q0, q0, [x1, #96]
	ldp q5, q6, [x1, #96]
	str q6, [x1, #128]
	ldr x7, [x1, #136]
	brk #0
.bss
buf:
	.space 256
`)
	if tr.Kind != TrapBRK {
		t.Fatal(tr)
	}
	if c.X()[4] != c.X()[2] || c.X()[5] != c.X()[3] {
		t.Errorf("q roundtrip: %#x/%#x want %#x/%#x", c.X()[4], c.X()[5], c.X()[2], c.X()[3])
	}
	if c.X()[6] != 3 {
		t.Errorf("d pair arithmetic = %d", c.X()[6])
	}
	if c.X()[7] != c.X()[3] {
		t.Errorf("q pair upper half = %#x, want %#x", c.X()[7], c.X()[3])
	}
}

// TestSetFPClearsUpperBits checks the AArch64 scalar-write rule: writing a
// d view zeroes the upper 64 bits of the vector register.
func TestSetFPClearsUpperBits(t *testing.T) {
	c, tr := run(t, `
_start:
	adrp x1, buf
	add x1, x1, :lo12:buf
	movz x2, #0xffff, lsl #48
	str x2, [x1, #8]
	str x2, [x1]
	ldr q0, [x1]          // v0 = {x2, x2}
	fmov d0, #1.0         // clears the top half
	str q0, [x1, #16]
	ldr x3, [x1, #24]     // upper half must be zero
	brk #0
.bss
buf:
	.space 64
`)
	if tr.Kind != TrapBRK {
		t.Fatal(tr)
	}
	if c.X()[3] != 0 {
		t.Errorf("upper half after scalar write = %#x, want 0", c.X()[3])
	}
}
