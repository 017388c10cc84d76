package emu

import (
	"testing"

	"lfi/internal/arm64"
	"lfi/internal/mem"
)

const textBase = 0x100000

// run assembles src, loads it at textBase, and executes until a trap.
// Programs end with "brk #0" by convention.
func run(t *testing.T, src string) (*CPU, *Trap) {
	t.Helper()
	f, err := arm64.ParseFile(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	img, err := arm64.Assemble(f, arm64.Layout{TextBase: textBase, PageSize: 16384})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	as := mem.NewAddrSpace(16384)
	roundUp := func(v uint64) uint64 { return (v + 16383) &^ 16383 }
	if err := as.Map(img.TextAddr, roundUp(uint64(len(img.Text))+1), mem.PermRX); err != nil {
		t.Fatal(err)
	}
	if f := as.WriteForce(img.Text, img.TextAddr); f != nil {
		t.Fatal(f)
	}
	if len(img.Data) > 0 || img.BSSSize > 0 {
		end := roundUp(img.BSSAddr + img.BSSSize)
		if err := as.Map(img.DataAddr, end-img.DataAddr, mem.PermRW); err != nil {
			t.Fatal(err)
		}
		if f := as.WriteForce(img.Data, img.DataAddr); f != nil {
			t.Fatal(f)
		}
	}
	if len(img.ROData) > 0 {
		if err := as.Map(img.RODataAddr, roundUp(uint64(len(img.ROData))), mem.PermRead); err != nil {
			t.Fatal(err)
		}
		if f := as.WriteForce(img.ROData, img.RODataAddr); f != nil {
			t.Fatal(f)
		}
	}
	// Stack.
	stackTop := uint64(0x800000)
	if err := as.Map(stackTop-64*1024, 64*1024, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	c := New(as)
	c.PC = img.Entry
	c.SP = stackTop
	tr := c.Run(1_000_000)
	return c, tr
}

func expectBRK(t *testing.T, tr *Trap) {
	t.Helper()
	if tr == nil || tr.Kind != TrapBRK {
		t.Fatalf("trap = %v, want brk", tr)
	}
}

func TestArithmeticLoop(t *testing.T) {
	c, tr := run(t, `
_start:
	mov x0, #0
	mov x1, #1
loop:
	add x0, x0, x1
	add x1, x1, #1
	cmp x1, #101
	b.ne loop
	brk #0
`)
	expectBRK(t, tr)
	if c.X[0] != 5050 {
		t.Errorf("sum = %d, want 5050", c.X[0])
	}
}

func TestWideArithmeticAndFlags(t *testing.T) {
	c, tr := run(t, `
_start:
	movz x0, #0xffff, lsl #48
	movk x0, #0xffff, lsl #32
	movk x0, #0xffff, lsl #16
	movk x0, #0xffff          // x0 = ~0
	adds x1, x0, #1            // 0, carry out
	cset x2, cs
	cset x3, eq
	mov w4, #-1
	adds w5, w4, #1            // 32-bit carry/zero
	cset x6, cs
	mov x10, #0
	subs x7, x10, #1           // -1: N set, borrow -> C clear
	cset x8, mi
	cset x9, cc
	brk #0
`)
	expectBRK(t, tr)
	if c.X[1] != 0 || c.X[2] != 1 || c.X[3] != 1 {
		t.Errorf("64-bit adds: x1=%d x2=%d x3=%d", c.X[1], c.X[2], c.X[3])
	}
	if c.X[5] != 0 || c.X[6] != 1 {
		t.Errorf("32-bit adds: x5=%#x x6=%d", c.X[5], c.X[6])
	}
	if c.X[8] != 1 || c.X[9] != 1 {
		t.Errorf("subs flags: mi=%d cc=%d", c.X[8], c.X[9])
	}
}

func TestSignedOverflowFlags(t *testing.T) {
	c, tr := run(t, `
_start:
	movz x0, #0x7fff, lsl #48
	movk x0, #0xffff, lsl #32
	movk x0, #0xffff, lsl #16
	movk x0, #0xffff          // INT64_MAX
	adds x1, x0, #1
	cset x2, vs
	cset x3, ge               // N==V (both set) after positive overflow
	cset x4, lt
	brk #0
`)
	expectBRK(t, tr)
	if c.X[2] != 1 {
		t.Error("overflow flag not set")
	}
	if c.X[3] != 1 || c.X[4] != 0 {
		t.Errorf("ge/lt after overflow: ge=%d lt=%d", c.X[3], c.X[4])
	}
}

func TestMulDivBitfield(t *testing.T) {
	c, tr := run(t, `
_start:
	mov x0, #7
	mov x1, #6
	mul x2, x0, x1          // 42
	mov x3, #100
	mov x4, #7
	udiv x5, x3, x4         // 14
	msub x6, x5, x4, x3     // 100 - 14*7 = 2 (remainder)
	mov x7, #-100
	mov x8, #7
	sdiv x9, x7, x8         // -14
	mov x10, #0
	udiv x11, x3, x10       // div by zero -> 0
	mov x12, #0xff00
	ubfx x13, x12, #8, #8   // 0xff
	sbfx x14, x12, #8, #8   // -1
	lsl x15, x13, #4        // 0xff0
	lsr x16, x12, #8        // 0xff
	mov w17, #0x80000000
	asr w18, w17, #31       // -1 (32-bit)
	brk #0
`)
	expectBRK(t, tr)
	checks := map[int]uint64{
		2: 42, 5: 14, 6: 2, 9: ^uint64(13), 11: 0,
		13: 0xff, 14: ^uint64(0), 15: 0xff0, 16: 0xff, 18: 0xffffffff,
	}
	for reg, want := range checks {
		if c.X[reg] != want {
			t.Errorf("x%d = %#x, want %#x", reg, c.X[reg], want)
		}
	}
}

func TestMemoryOps(t *testing.T) {
	c, tr := run(t, `
_start:
	adrp x1, buf
	add x1, x1, :lo12:buf
	mov x0, #0x1234
	str x0, [x1]
	ldr x2, [x1]
	strb w0, [x1, #8]
	ldrb w3, [x1, #8]       // 0x34
	strh w0, [x1, #10]
	ldrh w4, [x1, #10]      // 0x1234
	mov w5, #-1
	str w5, [x1, #12]
	ldrsw x6, [x1, #12]     // sign extended -1
	mov x7, #2
	str x0, [x1, x7, lsl #3] // buf+16
	ldr x8, [x1, #16]
	mov w9, #3
	str x0, [x1, w9, uxtw #3] // buf+24
	ldr x10, [x1, #24]
	// pre/post index
	add x11, x1, #32
	str x0, [x11, #8]!       // buf+40, x11=buf+40
	ldr x12, [x11], #8       // loads buf+40, x11=buf+48
	sub x13, x11, x1         // 48
	// pairs
	stp x0, x2, [x1, #64]
	ldp x14, x15, [x1, #64]
	brk #0
.bss
buf:
	.space 128
`)
	expectBRK(t, tr)
	checks := map[int]uint64{
		2: 0x1234, 3: 0x34, 4: 0x1234, 6: ^uint64(0),
		8: 0x1234, 10: 0x1234, 12: 0x1234, 13: 48, 14: 0x1234, 15: 0x1234,
	}
	for reg, want := range checks {
		if c.X[reg] != want {
			t.Errorf("x%d = %#x, want %#x", reg, c.X[reg], want)
		}
	}
}

func TestStackAndCalls(t *testing.T) {
	c, tr := run(t, `
_start:
	mov x0, #5
	bl fact
	brk #0
fact:
	cmp x0, #1
	b.le base
	stp x29, x30, [sp, #-16]!
	stp x19, x20, [sp, #-16]!
	mov x19, x0
	sub x0, x0, #1
	bl fact
	mul x0, x0, x19
	ldp x19, x20, [sp], #16
	ldp x29, x30, [sp], #16
	ret
base:
	mov x0, #1
	ret
`)
	expectBRK(t, tr)
	if c.X[0] != 120 {
		t.Errorf("5! = %d, want 120", c.X[0])
	}
}

func TestJumpTable(t *testing.T) {
	c, tr := run(t, `
_start:
	mov x19, #0
	mov x20, #2          // select case 2
	adrp x1, table
	add x1, x1, :lo12:table
	ldr x2, [x1, x20, lsl #3]
	br x2
case0:
	mov x19, #100
	b done
case1:
	mov x19, #200
	b done
case2:
	mov x19, #300
	b done
done:
	brk #0
.data
table:
	.quad case0, case1, case2
`)
	expectBRK(t, tr)
	if c.X[19] != 300 {
		t.Errorf("jump table selected %d, want 300", c.X[19])
	}
}

func TestFloatingPoint(t *testing.T) {
	c, tr := run(t, `
_start:
	fmov d0, #2.0
	fmov d1, #3.0
	fadd d2, d0, d1       // 5
	fmul d3, d2, d0       // 10
	fsub d4, d3, d1       // 7
	fdiv d5, d3, d0       // 5
	fcvtzs x0, d4         // 7
	mov x1, #9
	scvtf d6, x1
	fsqrt d7, d6          // 3
	fcvtzs x2, d7
	fcmp d0, d1
	cset x3, lt           // 2 < 3
	fneg d8, d0
	fabs d9, d8
	fcvtzs x4, d9         // 2
	fmadd d10, d0, d1, d2 // 2*3+5 = 11
	fcvtzs x5, d10
	// float32 path
	fmov s11, #1.5
	fadd s12, s11, s11
	fcvtzs w6, s12        // 3
	fcvt d13, s12
	fcvtzs x7, d13        // 3
	brk #0
`)
	expectBRK(t, tr)
	checks := map[int]uint64{0: 7, 2: 3, 3: 1, 4: 2, 5: 11, 6: 3, 7: 3}
	for reg, want := range checks {
		if c.X[reg] != want {
			t.Errorf("x%d = %d, want %d", reg, c.X[reg], want)
		}
	}
}

func TestExclusives(t *testing.T) {
	c, tr := run(t, `
_start:
	adrp x1, word
	add x1, x1, :lo12:word
retry:
	ldxr x2, [x1]
	add x2, x2, #1
	stxr w3, x2, [x1]
	cbnz w3, retry
	ldr x4, [x1]
	// stxr without monitor fails
	mov x5, #99
	stxr w6, x5, [x1]
	ldar x7, [x1]
	stlr x4, [x1]
	brk #0
.data
word:
	.quad 41
`)
	expectBRK(t, tr)
	if c.X[4] != 42 {
		t.Errorf("atomic increment = %d, want 42", c.X[4])
	}
	if c.X[6] != 1 {
		t.Errorf("stxr without reservation: status = %d, want 1", c.X[6])
	}
	if c.X[7] != 42 {
		t.Errorf("ldar = %d", c.X[7])
	}
}

func TestCSelAndCCmp(t *testing.T) {
	c, tr := run(t, `
_start:
	mov x0, #5
	mov x1, #7
	cmp x0, x1
	csel x2, x0, x1, lt    // 5
	csinc x3, x0, x1, gt   // not gt -> 7+1
	cmp x0, #5
	ccmp x1, #7, #0, eq    // eq holds -> compare x1,7 -> eq
	cset x4, eq
	cmp x0, #6
	ccmp x1, #7, #0, eq    // eq fails -> nzcv=0 -> ne
	cset x5, eq
	brk #0
`)
	expectBRK(t, tr)
	if c.X[2] != 5 || c.X[3] != 8 || c.X[4] != 1 || c.X[5] != 0 {
		t.Errorf("csel/ccmp: x2=%d x3=%d x4=%d x5=%d", c.X[2], c.X[3], c.X[4], c.X[5])
	}
}

func TestTrapKinds(t *testing.T) {
	_, tr := run(t, "_start:\n\tsvc #42\n")
	if tr.Kind != TrapSVC || tr.Imm != 42 {
		t.Errorf("svc trap = %+v", tr)
	}
	_, tr = run(t, "_start:\n\tmov x0, #0\n\tldr x1, [x0]\n")
	if tr.Kind != TrapMemFault || tr.Fault == nil || tr.Fault.Access != mem.AccessRead {
		t.Errorf("fault trap = %+v", tr)
	}
	_, tr = run(t, "_start:\n\tmov x0, #0\n\tstr x1, [x0]\n")
	if tr.Kind != TrapMemFault || tr.Fault.Access != mem.AccessWrite {
		t.Errorf("store fault trap = %+v", tr)
	}
	// Jump outside mapped code.
	_, tr = run(t, "_start:\n\tmov x0, #0x4000\n\tbr x0\n")
	if tr.Kind != TrapMemFault || tr.Fault.Access != mem.AccessExec {
		t.Errorf("exec fault trap = %+v", tr)
	}
	// Running past the nop hits zeroed page bytes, which do not decode.
	_, tr = run(t, "_start:\n\tnop\n")
	if tr.Kind != TrapUndefined {
		t.Errorf("fallthrough trap = %+v", tr)
	}
}

func TestHostCallRegion(t *testing.T) {
	as := mem.NewAddrSpace(16384)
	f, _ := arm64.ParseFile("_start:\n\tmov x0, #7\n\tbr x1\n")
	img, err := arm64.Assemble(f, arm64.Layout{TextBase: textBase, PageSize: 16384})
	if err != nil {
		t.Fatal(err)
	}
	if err := as.Map(textBase, 16384, mem.PermRX); err != nil {
		t.Fatal(err)
	}
	as.WriteForce(img.Text, textBase)
	c := New(as)
	c.PC = textBase
	c.X[1] = 0xdead0000
	c.SetHostCallRegion(0xdead0000, 0x1000)
	tr := c.Run(100)
	if tr.Kind != TrapHostCall || tr.PC != 0xdead0000 {
		t.Fatalf("trap = %+v, want host call at 0xdead0000", tr)
	}
	if c.X[0] != 7 {
		t.Error("state before host call lost")
	}
}

func TestBudget(t *testing.T) {
	as := mem.NewAddrSpace(16384)
	f, _ := arm64.ParseFile("_start:\n\tb _start\n")
	img, _ := arm64.Assemble(f, arm64.Layout{TextBase: textBase, PageSize: 16384})
	if err := as.Map(textBase, 16384, mem.PermRX); err != nil {
		t.Fatal(err)
	}
	as.WriteForce(img.Text, textBase)
	c := New(as)
	c.PC = textBase
	tr := c.Run(1000)
	if tr.Kind != TrapBudget {
		t.Fatalf("trap = %+v, want budget", tr)
	}
	if c.Instrs != 1000 {
		t.Errorf("retired %d, want 1000", c.Instrs)
	}
}

func TestRegViews(t *testing.T) {
	c, tr := run(t, `
_start:
	movz x0, #0xffff, lsl #48
	movk x0, #0x1234
	mov w1, w0              // zeroes upper bits
	add w2, w0, #0          // 32-bit op zero-extends
	brk #0
`)
	expectBRK(t, tr)
	if c.X[1] != 0x1234 || c.X[2] != 0x1234 {
		t.Errorf("w views: x1=%#x x2=%#x", c.X[1], c.X[2])
	}
}

func TestMrsMsrTpidr(t *testing.T) {
	c, tr := run(t, `
_start:
	mov x0, #0x1000
	msr tpidr_el0, x0
	mrs x1, tpidr_el0
	brk #0
`)
	expectBRK(t, tr)
	if c.X[1] != 0x1000 {
		t.Errorf("tpidr roundtrip = %#x", c.X[1])
	}
}

// TestBlockIndexSpreadsSlots pins the slot half of the block cache key:
// the same in-slot offset in slots 1..256 (a yield pair, clones of one
// image) lands on 256 different entries, so co-scheduled sandboxes do not
// evict each other's blocks, while within one slot consecutive words still
// map to consecutive entries.
func TestBlockIndexSpreadsSlots(t *testing.T) {
	for _, off := range []uint64{textBase, textBase + 4, textBase + 0x7fc} {
		seen := map[uint64]uint64{}
		for slot := uint64(1); slot <= 256; slot++ {
			i := bcIndex(slot<<32 | off)
			if prev, dup := seen[i]; dup {
				t.Fatalf("offset %#x: slots %d and %d share block cache entry %d", off, prev, slot, i)
			}
			seen[i] = slot
		}
	}
	const pc = 7<<32 | textBase
	for w := uint64(1); w < bcacheSize; w++ {
		if got, want := bcIndex(pc+4*w), (bcIndex(pc)+w)%bcacheSize; got != want {
			t.Fatalf("word %d of slot 7 maps to entry %d, want %d", w, got, want)
		}
	}
}
