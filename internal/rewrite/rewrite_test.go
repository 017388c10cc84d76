package rewrite

import (
	"strings"
	"testing"

	"lfi/internal/arm64"
	"lfi/internal/core"
	"lfi/internal/emu"
	"lfi/internal/mem"
)

const pageSize = 16 * 1024

func parse(t *testing.T, src string) *arm64.File {
	t.Helper()
	f, err := arm64.ParseFile(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f
}

func rewriteSrc(t *testing.T, src string, opts core.Options) (*arm64.File, Stats) {
	t.Helper()
	f := parse(t, src)
	nf, stats, err := Rewrite(f, opts)
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	return nf, stats
}

// runNative executes the program outside any sandbox.
func runNative(t *testing.T, f *arm64.File) *emu.CPU {
	t.Helper()
	img, err := arm64.Assemble(f, arm64.Layout{TextBase: 0x10000000, PageSize: pageSize})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	as := mem.NewAddrSpace(pageSize)
	loadImage(t, as, img)
	stackTop := uint64(0x10000000 + 32*1024*1024)
	if err := as.Map(stackTop-1024*1024, 1024*1024, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	c := emu.New(as)
	c.PC = img.Entry
	c.SetSP(stackTop)
	tr := c.Run(10_000_000)
	if tr.Kind != emu.TrapBRK {
		t.Fatalf("native run trapped: %v", tr)
	}
	return c
}

// runSandboxed executes the rewritten program inside a 4GiB slot with x21
// holding the sandbox base, mirroring the runtime's layout.
func runSandboxed(t *testing.T, f *arm64.File) (*emu.CPU, *emu.Trap) {
	t.Helper()
	slot := core.SlotBase(1)
	img, err := arm64.Assemble(f, arm64.Layout{
		TextBase: slot + core.MinCodeOffset,
		PageSize: pageSize,
	})
	if err != nil {
		t.Fatalf("assemble sandboxed: %v", err)
	}
	as := mem.NewAddrSpace(pageSize)
	loadImage(t, as, img)
	stackTop := slot + uint64(64*1024*1024)
	if err := as.Map(stackTop-1024*1024, 1024*1024, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	c := emu.New(as)
	c.PC = img.Entry
	c.SetSP(stackTop)
	c.X()[21-0] = slot // x21 = sandbox base
	c.X()[18] = slot + core.MinCodeOffset
	c.X()[23] = slot + core.MinCodeOffset
	c.X()[24] = slot + core.MinCodeOffset
	tr := c.Run(10_000_000)
	return c, tr
}

func loadImage(t *testing.T, as *mem.AddrSpace, img *arm64.Image) {
	t.Helper()
	up := func(v uint64) uint64 { return (v + pageSize - 1) &^ (pageSize - 1) }
	if err := as.Map(img.TextAddr, up(uint64(len(img.Text))+1), mem.PermRX); err != nil {
		t.Fatal(err)
	}
	as.WriteForce(img.Text, img.TextAddr)
	if len(img.ROData) > 0 {
		if err := as.Map(img.RODataAddr, up(uint64(len(img.ROData))), mem.PermRead); err != nil {
			t.Fatal(err)
		}
		as.WriteForce(img.ROData, img.RODataAddr)
	}
	if len(img.Data) > 0 || img.BSSSize > 0 {
		end := up(img.BSSAddr + img.BSSSize)
		if end > img.DataAddr {
			if err := as.Map(img.DataAddr, end-img.DataAddr, mem.PermRW); err != nil {
				t.Fatal(err)
			}
		}
		as.WriteForce(img.Data, img.DataAddr)
	}
}

// equivalence asserts that the rewritten program computes the same results
// in the given registers as the original, at every optimization level.
// Registers holding pointers are excluded by the caller, since native and
// sandboxed runs legitimately place data at different addresses.
func equivalence(t *testing.T, src string, results ...int) {
	t.Helper()
	native := runNative(t, parse(t, src))
	for _, opts := range []core.Options{
		{Opt: core.O0},
		{Opt: core.O1},
		{Opt: core.O2},
		{Opt: core.O2, NoLoads: true},
		{Opt: core.O2, DisableSPOpts: true},
	} {
		nf, _ := rewriteSrc(t, src, opts)
		c, tr := runSandboxed(t, nf)
		if tr.Kind != emu.TrapBRK {
			t.Fatalf("%v: sandboxed run trapped: %v\n%s", opts, tr, nf.String())
		}
		for _, i := range results {
			if c.X()[i] != native.X()[i] {
				t.Errorf("%v: x%d = %#x, native %#x\n%s", opts, i, c.X()[i], native.X()[i], nf.String())
			}
		}
	}
}

func TestEquivalenceBasicLoads(t *testing.T) {
	equivalence(t, `
_start:
	adrp x1, data
	add x1, x1, :lo12:data
	ldr x0, [x1]
	ldr x2, [x1, #8]
	ldr x3, [x1, #16]
	ldrb w4, [x1, #1]
	ldrh w5, [x1, #2]
	ldrsw x6, [x1, #4]
	mov x9, #1
	ldr x7, [x1, x9, lsl #3]
	mov w10, #2
	ldr x8, [x1, w10, uxtw #3]
	brk #0
.data
data:
	.quad 0x1122334455667788
	.quad 0x99aabbccddeeff00
	.quad 42
`, 0, 2, 3, 4, 5, 6, 7, 8)
}

func TestEquivalenceStores(t *testing.T) {
	equivalence(t, `
_start:
	adrp x1, buf
	add x1, x1, :lo12:buf
	mov x0, #0xbeef
	str x0, [x1]
	str x0, [x1, #8]
	strb w0, [x1, #16]
	strh w0, [x1, #18]
	mov x9, #3
	str x0, [x1, x9, lsl #3]
	ldr x2, [x1]
	ldr x3, [x1, #8]
	ldrb w4, [x1, #16]
	ldrh w5, [x1, #18]
	ldr x6, [x1, #24]
	brk #0
.bss
buf:
	.space 64
`, 0, 2, 3, 4, 5, 6)
}

func TestEquivalenceWriteback(t *testing.T) {
	equivalence(t, `
_start:
	adrp x1, buf
	add x1, x1, :lo12:buf
	mov x0, #7
	str x0, [x1, #8]!
	sub x2, x1, #8          // x1 advanced by 8
	mov x0, #9
	str x0, [x1], #16
	ldr x3, [x2, #8]        // 7
	ldr x4, [x2, #8]
	ldr x5, [x1, #-16]      // 9? no: x1 = buf+24 now; buf+8 holds 7... use fresh
	adrp x6, buf
	add x6, x6, :lo12:buf
	ldr x7, [x6, #8]!       // 7, x6=buf+8
	sub x8, x6, x2          // 0? x2 = buf. x6 = buf+8 -> 8
	sub x8, x6, x2
	brk #0
.bss
buf:
	.space 64
`, 0, 3, 4, 5, 7, 8)
}

func TestEquivalencePairsAndCalls(t *testing.T) {
	equivalence(t, `
_start:
	mov x0, #6
	bl fib
	brk #0
fib:
	cmp x0, #2
	b.lt done
	stp x29, x30, [sp, #-32]!
	stp x19, x20, [sp, #16]
	mov x19, x0
	sub x0, x0, #1
	bl fib
	mov x20, x0
	sub x0, x19, #2
	bl fib
	add x0, x0, x20
	ldp x19, x20, [sp, #16]
	ldp x29, x30, [sp], #32
	ret
done:
	ret
`, 0)
}

func TestEquivalenceIndirect(t *testing.T) {
	equivalence(t, `
_start:
	adrp x1, table
	add x1, x1, :lo12:table
	mov x9, #1
	ldr x2, [x1, x9, lsl #3]
	blr x2
	mov x5, x0
	adr x3, third
	br x3
third:
	mov x6, #33
	brk #0
f0:
	mov x0, #10
	ret
f1:
	mov x0, #20
	ret
.data
table:
	.quad f0, f1
`, 0, 5, 6)
}

func TestEquivalenceSPManipulation(t *testing.T) {
	equivalence(t, `
_start:
	sub sp, sp, #64
	mov x0, #5
	str x0, [sp, #8]
	add sp, sp, #32
	ldr x1, [sp, #-24]
	sub sp, sp, #512
	str x0, [sp]
	ldr x2, [sp]
	add sp, sp, #512
	add sp, sp, #32
	mov x9, sp
	mov sp, x9
	str x0, [sp, #-16]!
	ldr x3, [sp], #16
	brk #0
`, 0, 1, 2, 3)
}

func TestEquivalenceExclusives(t *testing.T) {
	equivalence(t, `
_start:
	adrp x1, word
	add x1, x1, :lo12:word
retry:
	ldxr x2, [x1]
	add x2, x2, #1
	stxr w3, x2, [x1]
	cbnz w3, retry
	ldr x0, [x1]
	ldar x4, [x1]
	add x4, x4, #1
	stlr x4, [x1]
	ldr x5, [x1]
	brk #0
.data
word:
	.quad 41
`, 0, 2, 4, 5)
}

func TestEquivalenceHoisting(t *testing.T) {
	// The Figure 2 pattern: several stores off the same base.
	equivalence(t, `
_start:
	adrp x1, buf
	add x1, x1, :lo12:buf
	mov x0, #1
	str x0, [x1, #8]
	str x0, [x1, #16]
	str x0, [x1, #24]
	str x0, [x1, #32]
	adrp x2, buf2
	add x2, x2, :lo12:buf2
	str x0, [x2, #8]
	str x0, [x2, #16]
	ldr x3, [x1, #8]
	ldr x4, [x2, #16]
	ldr x5, [x1, #32]
	brk #0
.bss
buf:
	.space 64
buf2:
	.space 64
`, 0, 3, 4, 5)
}

func TestEquivalenceFP(t *testing.T) {
	equivalence(t, `
_start:
	adrp x1, vals
	add x1, x1, :lo12:vals
	ldr d0, [x1]
	ldr d1, [x1, #8]
	fadd d2, d0, d1
	fcvtzs x0, d2
	str d2, [x1, #16]
	ldr d3, [x1, #16]
	fcvtzs x2, d3
	ldr q4, [x1]
	str q4, [x1, #32]
	ldr x3, [x1, #32]
	ldp d5, d6, [x1]
	fadd d7, d5, d6
	fcvtzs x4, d7
	brk #0
.data
vals:
	.quad 0x4008000000000000   // 3.0
	.quad 0x4010000000000000   // 4.0
	.space 48
`, 0, 2, 3, 4)
}

// Oversized immediates: q-register scaled offsets reach up to 65520 bytes,
// past the 48KiB guard region, so the rewriter must stage the full address
// in w22 instead of passing the immediate through (the verifier rejects
// immediates above GuardSize-16).
func TestEquivalenceOversizedImm(t *testing.T) {
	equivalence(t, `
_start:
	adrp x1, buf
	add x1, x1, :lo12:buf
	ldr q0, [x1]
	sub sp, sp, #65536
	str q0, [sp, #65520]
	ldr q1, [sp, #65520]
	add sp, sp, #65536
	str q1, [x1, #65520]
	ldr q2, [x1, #65520]
	str q2, [x1, #32]
	ldr x0, [x1, #32]
	ldr x2, [x1, #40]
	brk #0
.data
buf:
	.quad 0x1122334455667788
	.quad 0x99aabbccddeeff00
	.space 65536
`, 0, 2)
}

// TestGuardEscape verifies the security property: a rewritten program that
// tries to access memory outside its sandbox is forced back inside (the
// access is redirected, not faulted, per §3).
func TestGuardEscape(t *testing.T) {
	src := `
_start:
	movz x1, #0x7f, lsl #32    // address far outside the sandbox
	movk x1, #0x1234
	ldr x0, [x1]               // guarded: must not fault, must stay inside
	str x0, [x1]
	brk #0
`
	for _, opt := range []core.OptLevel{core.O0, core.O1, core.O2} {
		nf, _ := rewriteSrc(t, src, core.Options{Opt: opt})
		_, tr := runSandboxed(t, nf)
		// The forced address is slot+0x1234, which is in the call-table/
		// guard area and unmapped -> memory fault *inside* the sandbox is
		// acceptable; escaping to 0x7f00001234 would also fault, so check
		// the faulting address instead.
		if tr.Kind == emu.TrapMemFault {
			if tr.Fault.Addr>>32 != core.SlotBase(1)>>32 {
				t.Errorf("%v: fault outside sandbox at %#x", opt, tr.Fault.Addr)
			}
		} else if tr.Kind != emu.TrapBRK {
			t.Errorf("%v: unexpected trap %v", opt, tr)
		}
	}
}

func TestTable3Shapes(t *testing.T) {
	// Check the exact emitted sequences for Table 3 rows at O1.
	cases := []struct {
		in   string
		want []string
	}{
		{"ldr x0, [x1]", []string{"ldr x0, [x21, w1, uxtw]"}},
		{"ldr x0, [x1, #8]", []string{"add w22, w1, #8", "ldr x0, [x21, w22, uxtw]"}},
		{"ldr x0, [x1, #8]!", []string{"add x1, x1, #8", "ldr x0, [x21, w1, uxtw]"}},
		{"ldr x0, [x1], #8", []string{"ldr x0, [x21, w1, uxtw]", "add x1, x1, #8"}},
		{"ldr x0, [x1, x2, lsl #3]", []string{"add w22, w1, w2, lsl #3", "ldr x0, [x21, w22, uxtw]"}},
		{"ldr x0, [x1, w2, uxtw #3]", []string{"add w22, w1, w2, uxtw #3", "ldr x0, [x21, w22, uxtw]"}},
		{"ldr x0, [x1, w2, sxtw #3]", []string{"add w22, w1, w2, sxtw #3", "ldr x0, [x21, w22, uxtw]"}},
		{"str x0, [x1, #-4]", []string{"sub w22, w1, #4", "str x0, [x21, w22, uxtw]"}},
		{"ldp x0, x1, [x2, #16]", []string{"add x18, x21, w2, uxtw", "ldp x0, x1, [x18, #16]"}},
		{"ldxr x0, [x1]", []string{"add x18, x21, w1, uxtw", "ldxr x0, [x18]"}},
		{"ldr x0, [sp, #8]", []string{"ldr x0, [sp, #8]"}},
	}
	for _, c := range cases {
		nf, _ := rewriteSrc(t, "_start:\n\t"+c.in+"\n\tbrk #0\n", core.Options{Opt: core.O1})
		var got []string
		for _, it := range nf.Items {
			if it.Kind == arm64.ItemInst && it.Inst.Op != arm64.BRK {
				got = append(got, it.Inst.String())
			}
		}
		if len(got) != len(c.want) {
			t.Errorf("%q -> %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%q inst %d = %q, want %q", c.in, i, got[i], c.want[i])
			}
		}
	}
}

func TestO0Shapes(t *testing.T) {
	nf, _ := rewriteSrc(t, "_start:\n\tldr x0, [x1, #8]\n\tbrk #0\n", core.Options{Opt: core.O0})
	var got []string
	for _, it := range nf.Items {
		if it.Kind == arm64.ItemInst && it.Inst.Op != arm64.BRK {
			got = append(got, it.Inst.String())
		}
	}
	want := []string{"add x18, x21, w1, uxtw", "ldr x0, [x18, #8]"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("O0 shape = %v, want %v", got, want)
	}
}

func TestHoistingStats(t *testing.T) {
	src := `
_start:
	str x0, [x1, #8]
	str x0, [x1, #16]
	str x0, [x1, #24]
	str x0, [x1, #32]
	brk #0
`
	_, stats := rewriteSrc(t, src, core.Options{Opt: core.O2})
	if stats.HoistGuards != 1 {
		t.Errorf("hoist guards = %d, want 1", stats.HoistGuards)
	}
	if stats.GuardsHoisted != 4 {
		t.Errorf("hoisted accesses = %d, want 4", stats.GuardsHoisted)
	}
	// At O1 the same input costs one staging add per store.
	_, statsO1 := rewriteSrc(t, src, core.Options{Opt: core.O1})
	if statsO1.GuardsSingle != 4 {
		t.Errorf("O1 staging adds = %d, want 4", statsO1.GuardsSingle)
	}
	// O2 output must be smaller.
	if stats.OutputInsts >= statsO1.OutputInsts {
		t.Errorf("O2 (%d insts) not smaller than O1 (%d)", stats.OutputInsts, statsO1.OutputInsts)
	}
}

func TestSPGuardStats(t *testing.T) {
	// Small sub with later access in the same block: elided.
	_, s1 := rewriteSrc(t, "_start:\n\tsub sp, sp, #32\n\tstr x0, [sp]\n\tbrk #0\n", core.Options{Opt: core.O2})
	if s1.SPElided != 1 || s1.SPGuards != 0 {
		t.Errorf("elidable sp mod: elided=%d guards=%d", s1.SPElided, s1.SPGuards)
	}
	// Large sub: guarded.
	_, s2 := rewriteSrc(t, "_start:\n\tsub sp, sp, #4096\n\tstr x0, [sp]\n\tbrk #0\n", core.Options{Opt: core.O2})
	if s2.SPGuards != 1 {
		t.Errorf("large sp mod: guards=%d", s2.SPGuards)
	}
	// Small sub followed by a branch before any access: guarded.
	_, s3 := rewriteSrc(t, "_start:\n\tsub sp, sp, #32\n\tb next\nnext:\n\tstr x0, [sp]\n\tbrk #0\n", core.Options{Opt: core.O2})
	if s3.SPGuards != 1 {
		t.Errorf("branch-interrupted sp mod: guards=%d", s3.SPGuards)
	}
	// mov sp, xN: always guarded.
	_, s4 := rewriteSrc(t, "_start:\n\tmov x9, sp\n\tmov sp, x9\n\tstr x0, [sp]\n\tbrk #0\n", core.Options{Opt: core.O2})
	if s4.SPGuards != 1 {
		t.Errorf("mov sp: guards=%d", s4.SPGuards)
	}
	// DisableSPOpts forces the guard.
	_, s5 := rewriteSrc(t, "_start:\n\tsub sp, sp, #32\n\tstr x0, [sp]\n\tbrk #0\n",
		core.Options{Opt: core.O2, DisableSPOpts: true})
	if s5.SPGuards != 1 {
		t.Errorf("DisableSPOpts: guards=%d", s5.SPGuards)
	}
}

func TestX30Guard(t *testing.T) {
	nf, stats := rewriteSrc(t, `
_start:
	ldp x29, x30, [sp], #16
	ret
`, core.Options{Opt: core.O2})
	if stats.RetGuards != 1 {
		t.Errorf("ret guards = %d, want 1", stats.RetGuards)
	}
	text := nf.String()
	if !strings.Contains(text, "add x30, x21, w30, uxtw") {
		t.Errorf("missing x30 guard:\n%s", text)
	}
}

func TestRuntimeCallPassThrough(t *testing.T) {
	src := "_start:\n\tldr x30, [x21, #8]\n\tblr x30\n\tbrk #0\n"
	nf, stats := rewriteSrc(t, src, core.Options{Opt: core.O2})
	if stats.RetGuards != 0 || stats.GuardsBase != 0 || stats.GuardsSingle != 0 {
		t.Errorf("runtime call pair was instrumented: %+v", stats)
	}
	count := 0
	for _, it := range nf.Items {
		if it.Kind == arm64.ItemInst {
			count++
		}
	}
	if count != 3 {
		t.Errorf("output has %d insts, want 3:\n%s", count, nf.String())
	}
}

func TestRejectsReservedRegs(t *testing.T) {
	bad := []string{
		"mov x21, x0",
		"add x18, x0, #1",
		"ldr x22, [x0]",
		"ldr x0, [x23]",
		"ldr x0, [x0, x24]",
		"ldr x0, [x21, #200]", // beyond the call table without blr
	}
	for _, src := range bad {
		f := parse(t, "_start:\n\t"+src+"\n\tbrk #0\n")
		if _, _, err := Rewrite(f, core.Options{Opt: core.O2}); err == nil {
			t.Errorf("%q: expected rejection", src)
		}
	}
}

func TestTbzRangeFixup(t *testing.T) {
	var b strings.Builder
	b.WriteString("_start:\n\ttbz x0, #3, far\n")
	for i := 0; i < 9000; i++ {
		b.WriteString("\tnop\n")
	}
	b.WriteString("far:\n\tbrk #0\n")
	nf, stats := rewriteSrc(t, b.String(), core.Options{Opt: core.O2})
	if stats.RangeFixups != 1 {
		t.Fatalf("range fixups = %d, want 1", stats.RangeFixups)
	}
	// The result must assemble (tbz range respected).
	if _, err := arm64.Assemble(nf, arm64.Layout{TextBase: 0x10000000}); err != nil {
		t.Fatalf("fixed-up file does not assemble: %v", err)
	}
	// And the semantics must hold: tbz bit 3 of 0 -> branch taken.
	c, tr := runSandboxed(t, nf)
	if tr.Kind != emu.TrapBRK {
		t.Fatalf("trap: %v", tr)
	}
	_ = c
}

func TestNoLoadsMode(t *testing.T) {
	src := `
_start:
	ldr x0, [x1]
	str x0, [x1]
	brk #0
`
	nf, _ := rewriteSrc(t, src, core.Options{Opt: core.O2, NoLoads: true})
	text := nf.String()
	if !strings.Contains(text, "ldr x0, [x1]") {
		t.Errorf("load was instrumented in no-loads mode:\n%s", text)
	}
	if strings.Contains(text, "str x0, [x1]") {
		t.Errorf("store was not instrumented in no-loads mode:\n%s", text)
	}
	// Loads into x30 must still be guarded.
	nf2, stats := rewriteSrc(t, "_start:\n\tldr x30, [x1]\n\tret\n", core.Options{Opt: core.O2, NoLoads: true})
	if stats.RetGuards != 1 {
		t.Errorf("x30 load unguarded in no-loads mode:\n%s", nf2.String())
	}
	// Writeback loads are outside the verifier's no-loads exemption, so
	// they must be lowered like any other access, not passed through
	// (regression: the fuzz harness caught post-index loads emitted raw).
	for _, src := range []string{
		"_start:\n\tldr x2, [x10], #16\n\tbrk #0\n",
		"_start:\n\tldr x2, [x10, #8]!\n\tbrk #0\n",
	} {
		nf3, _ := rewriteSrc(t, src, core.Options{Opt: core.O2, NoLoads: true})
		if strings.Contains(nf3.String(), "[x10],") || strings.Contains(nf3.String(), "[x10, #8]!") {
			t.Errorf("writeback load passed through in no-loads mode:\n%s", nf3.String())
		}
	}
}

func TestCodeSizeGrowthModest(t *testing.T) {
	// A load/store heavy block should grow far less than 2x at O2.
	var b strings.Builder
	b.WriteString("_start:\n")
	for i := 0; i < 50; i++ {
		b.WriteString("\tldr x0, [x1]\n\tadd x0, x0, #1\n\tstr x0, [x1]\n")
	}
	b.WriteString("\tbrk #0\n")
	_, stats := rewriteSrc(t, b.String(), core.Options{Opt: core.O2})
	growth := float64(stats.OutputInsts) / float64(stats.InputInsts)
	if growth > 1.25 {
		t.Errorf("O2 instruction growth = %.2f, want <= 1.25", growth)
	}
	_, statsO0 := rewriteSrc(t, b.String(), core.Options{Opt: core.O0})
	growthO0 := float64(statsO0.OutputInsts) / float64(statsO0.InputInsts)
	if growthO0 <= growth {
		t.Errorf("O0 growth %.2f not larger than O2 growth %.2f", growthO0, growth)
	}
}
