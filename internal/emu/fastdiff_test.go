package emu

// Differential tests: the predecoded-block fast path must be bit-identical
// to the per-step interpreter — registers, memory, Instrs, cycle count, and
// the exact instruction at which every trap (including TrapBudget) lands.

import (
	"bytes"
	"reflect"
	"testing"

	"lfi/internal/arm64"
	"lfi/internal/mem"
)

// loadProgram assembles src and builds a fresh machine around it, mirroring
// the run() harness but without executing, so two identical machines can be
// stepped in lockstep.
func loadProgram(t *testing.T, src string) *CPU {
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
	stackTop := uint64(0x800000)
	if err := as.Map(stackTop-64*1024, 64*1024, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	c := New(as)
	c.PC = img.Entry
	c.SP = stackTop
	c.Timing = NewTiming(ModelM1())
	return c
}

func compareCPUs(t *testing.T, slow, fast *CPU, when string) {
	t.Helper()
	if slow.X != fast.X {
		t.Fatalf("%s: X registers diverge:\nslow=%#x\nfast=%#x", when, slow.X, fast.X)
	}
	if slow.SP != fast.SP {
		t.Fatalf("%s: SP diverges: slow=%#x fast=%#x", when, slow.SP, fast.SP)
	}
	if slow.V != fast.V {
		t.Fatalf("%s: V registers diverge", when)
	}
	if slow.FlagN != fast.FlagN || slow.FlagZ != fast.FlagZ ||
		slow.FlagC != fast.FlagC || slow.FlagV != fast.FlagV {
		t.Fatalf("%s: flags diverge", when)
	}
	if slow.PC != fast.PC {
		t.Fatalf("%s: PC diverges: slow=%#x fast=%#x", when, slow.PC, fast.PC)
	}
	if slow.Instrs != fast.Instrs {
		t.Fatalf("%s: Instrs diverge: slow=%d fast=%d", when, slow.Instrs, fast.Instrs)
	}
	if sc, fc := slow.Timing.Cycles(), fast.Timing.Cycles(); sc != fc {
		t.Fatalf("%s: cycles diverge: slow=%v fast=%v", when, sc, fc)
	}
}

func compareTraps(t *testing.T, slow, fast *Trap, when string) {
	t.Helper()
	if (slow == nil) != (fast == nil) {
		t.Fatalf("%s: trap presence diverges: slow=%v fast=%v", when, slow, fast)
	}
	if slow == nil {
		return
	}
	if slow.Kind != fast.Kind || slow.PC != fast.PC || slow.Imm != fast.Imm {
		t.Fatalf("%s: traps diverge: slow=%v fast=%v", when, slow, fast)
	}
	if (slow.Fault == nil) != (fast.Fault == nil) {
		t.Fatalf("%s: fault presence diverges: slow=%v fast=%v", when, slow, fast)
	}
	if slow.Fault != nil && *slow.Fault != *fast.Fault {
		t.Fatalf("%s: faults diverge: slow=%v fast=%v", when, slow.Fault, fast.Fault)
	}
}

// compareMem checks the two machines' whole memory images are identical.
func compareMem(t *testing.T, slow, fast *CPU, when string) {
	t.Helper()
	sm, err := slow.Mem.SnapshotRange(0, 0x900000)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := fast.Mem.SnapshotRange(0, 0x900000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sm, fm) {
		t.Fatalf("%s: memory snapshots diverge", when)
	}
}

// lockstep runs the program on two identical machines — the per-step
// reference and the fast path — in deliberately awkward budget slices so
// TrapBudget lands mid-block and between the halves of fused pairs,
// comparing the complete architectural state after every slice and the
// final memory image at the end. Returns the final trap.
func lockstep(t *testing.T, src string) *Trap {
	t.Helper()
	slow := loadProgram(t, src)
	slow.SetFastpath(false)
	return lockstepOn(t, slow, loadProgram(t, src))
}

// lockstepOn is lockstep on two machines the caller built alike.
func lockstepOn(t *testing.T, slow, fast *CPU) *Trap {
	t.Helper()
	// Prime slice sizes defeat any alignment with block boundaries.
	slices := []uint64{1, 2, 3, 5, 7, 11, 13, 17, 23, 97, 251, 1021}
	var final *Trap
	for i := 0; i < 100000; i++ {
		n := slices[i%len(slices)]
		str := slow.Run(n)
		ftr := fast.Run(n)
		compareTraps(t, str, ftr, "mid-run")
		compareCPUs(t, slow, fast, "mid-run")
		if str.Kind != TrapBudget {
			final = str
			break
		}
	}
	if final == nil {
		t.Fatal("program did not finish within the lockstep budget")
	}
	compareMem(t, slow, fast, "final")
	return final
}

func TestDiffArithmeticLoop(t *testing.T) {
	tr := lockstep(t, `
_start:
	mov x0, #0
	mov x1, #1
loop:
	add x0, x0, x1
	add x1, x1, #1
	cmp x1, #500
	b.ne loop
	brk #0
`)
	if tr.Kind != TrapBRK {
		t.Fatalf("trap = %v, want brk", tr)
	}
}

func TestDiffMemoryMix(t *testing.T) {
	tr := lockstep(t, `
_start:
	adrp x1, buf
	add x1, x1, :lo12:buf
	mov x2, #0
	mov x3, #200
fill:
	str x2, [x1, x2, lsl #3]
	strb w2, [x1, x2]
	strh w2, [x1, #2]
	add x2, x2, #1
	cmp x2, x3
	b.ne fill
	mov x2, #0
	mov x4, #0
sum:
	ldr x5, [x1, x2, lsl #3]
	ldrb w6, [x1, x2]
	ldrsw x7, [x1, #4]
	add x4, x4, x5
	add x4, x4, x6
	add x4, x4, x7
	add x2, x2, #1
	cmp x2, x3
	b.ne sum
	stp x4, x2, [sp, #-16]!
	ldp x8, x9, [sp], #16
	brk #0
.bss
buf:
	.space 4096
`)
	if tr.Kind != TrapBRK {
		t.Fatalf("trap = %v, want brk", tr)
	}
}

func TestDiffFPKernel(t *testing.T) {
	tr := lockstep(t, `
_start:
	mov x0, #300
	fmov d0, #1.0
	fmov d1, #2.0
	fmov d2, #0.5
loop:
	fmadd d0, d1, d2, d0
	fdiv d3, d0, d1
	fsqrt d4, d3
	fadd d1, d1, d2
	subs x0, x0, #1
	b.ne loop
	fcmp d0, d1
	brk #0
`)
	if tr.Kind != TrapBRK {
		t.Fatalf("trap = %v, want brk", tr)
	}
}

func TestDiffBranchy(t *testing.T) {
	tr := lockstep(t, `
_start:
	mov x0, #0
	mov x1, #12345
	mov x2, #600
loop:
	// xorshift-style mixing plus data-dependent branches
	eor x1, x1, x1, lsl #13
	eor x1, x1, x1, lsr #7
	tbz x1, #3, skip1
	add x0, x0, #1
skip1:
	cbz x1, skip2
	add x0, x0, #2
skip2:
	subs x2, x2, #1
	b.ne loop
	bl leaf
	brk #0
leaf:
	add x0, x0, #7
	ret
`)
	if tr.Kind != TrapBRK {
		t.Fatalf("trap = %v, want brk", tr)
	}
}

func TestDiffMemFault(t *testing.T) {
	tr := lockstep(t, `
_start:
	mov x0, #64
	movk x0, #0x4000, lsl #16
	str x1, [x0]
	brk #0
`)
	if tr.Kind != TrapMemFault {
		t.Fatalf("trap = %v, want memory fault", tr)
	}
}

func TestDiffSVC(t *testing.T) {
	tr := lockstep(t, `
_start:
	mov x8, #93
	svc #0
`)
	if tr.Kind != TrapSVC {
		t.Fatalf("trap = %v, want svc", tr)
	}
}

func TestDiffMisalignedJump(t *testing.T) {
	tr := lockstep(t, `
_start:
	adr x0, _start
	add x0, x0, #2
	br x0
`)
	if tr.Kind != TrapMemFault || tr.Fault == nil || tr.Fault.Access != mem.AccessExec {
		t.Fatalf("trap = %v, want exec fault", tr)
	}
}

// TestDiffHostCallWindow checks that both paths stop at the host-call
// window at the same instruction, and resume identically afterwards.
func TestDiffHostCallWindow(t *testing.T) {
	src := `
_start:
	mov x0, #0
	mov x2, #50
loop:
	add x0, x0, #3
	movz x1, #0x0030, lsl #16
	movk x1, #0x0040
	blr x1
	subs x2, x2, #1
	b.ne loop
	brk #0
`
	slow := loadProgram(t, src)
	slow.SetFastpath(false)
	fast := loadProgram(t, src)
	const hcBase, hcLen = 0x300000, 0x10000
	slow.SetHostCallRegion(hcBase, hcLen)
	fast.SetHostCallRegion(hcBase, hcLen)

	for hops := 0; ; hops++ {
		str := slow.Run(9)
		ftr := fast.Run(9)
		compareTraps(t, str, ftr, "hostcall lockstep")
		compareCPUs(t, slow, fast, "hostcall lockstep")
		if str.Kind == TrapBudget {
			continue
		}
		if str.Kind == TrapHostCall {
			// Emulate the host returning: jump back to the link register.
			slow.PC = slow.X[30]
			fast.PC = fast.X[30]
			continue
		}
		if str.Kind != TrapBRK {
			t.Fatalf("trap = %v, want brk", str)
		}
		if hops < 50 {
			t.Fatalf("expected at least 50 host-call stops, got %d iterations", hops)
		}
		break
	}
}

// TestDiffEpochInvalidation remaps the text page with different code and
// checks both paths pick up the new instructions with no manual flush.
func TestDiffEpochInvalidation(t *testing.T) {
	for _, fastpath := range []bool{false, true} {
		as := mem.NewAddrSpace(16384)
		if err := as.Map(textBase, 16384, mem.PermRX); err != nil {
			t.Fatal(err)
		}
		code1 := []byte{
			0x20, 0x00, 0x80, 0xd2, // mov x0, #1
			0x00, 0x00, 0x20, 0xd4, // brk #0
		}
		if f := as.WriteForce(code1, textBase); f != nil {
			t.Fatal(f)
		}
		c := New(as)
		c.SetFastpath(fastpath)
		c.PC = textBase
		if tr := c.Run(10); tr == nil || tr.Kind != TrapBRK {
			t.Fatalf("fastpath=%v: first run trap = %v, want brk", fastpath, tr)
		}
		if c.X[0] != 1 {
			t.Fatalf("fastpath=%v: x0 = %d, want 1", fastpath, c.X[0])
		}

		// Remap the same page with different code; the AddrSpace epoch
		// bump must invalidate every decode cache without FlushICache.
		if err := as.Unmap(textBase, 16384); err != nil {
			t.Fatal(err)
		}
		if err := as.Map(textBase, 16384, mem.PermRX); err != nil {
			t.Fatal(err)
		}
		code2 := []byte{
			0x40, 0x00, 0x80, 0xd2, // mov x0, #2
			0x00, 0x00, 0x20, 0xd4, // brk #0
		}
		if f := as.WriteForce(code2, textBase); f != nil {
			t.Fatal(f)
		}
		c.PC = textBase
		if tr := c.Run(10); tr == nil || tr.Kind != TrapBRK {
			t.Fatalf("fastpath=%v: second run trap = %v, want brk", fastpath, tr)
		}
		if c.X[0] != 2 {
			t.Fatalf("fastpath=%v: stale decode survived remap: x0 = %d, want 2", fastpath, c.X[0])
		}
	}
}

// assembleText assembles src with the standard test layout and returns the
// raw text bytes (for rewrite-in-place scenarios).
func assembleText(t *testing.T, src string) []byte {
	t.Helper()
	f, err := arm64.ParseFile(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	img, err := arm64.Assemble(f, arm64.Layout{TextBase: textBase, PageSize: 16384})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return img.Text
}

// TestDiffChainEpochInvalidation checks that chain links — not just raw
// block decodes — are dropped when the address-space epoch
// bumps, in both mutation scenarios: remapping the text page, and
// rewriting text in place with WriteForce (which cannot change mappings
// but must still bump the epoch).
func TestDiffChainEpochInvalidation(t *testing.T) {
	const loop1 = `
_start:
	mov x0, #0
	mov x1, #200
loop:
	add x0, x0, #1
	subs x1, x1, #1
	b.ne loop
	brk #0
`
	const loop2 = `
_start:
	mov x0, #0
	mov x1, #200
loop:
	add x0, x0, #3
	subs x1, x1, #1
	b.ne loop
	brk #0
`
	for _, scenario := range []string{"remap", "rewrite-in-place"} {
		c := loadProgram(t, loop1)
		entry := c.PC
		if tr := c.Run(0); tr == nil || tr.Kind != TrapBRK {
			t.Fatalf("%s: first run trap = %v, want brk", scenario, tr)
		}
		if c.X[0] != 200 {
			t.Fatalf("%s: x0 = %d, want 200", scenario, c.X[0])
		}
		// The run must actually have followed the links being tested.
		if c.Stat.ChainHits == 0 {
			t.Fatalf("%s: no chain hits recorded; chaining not exercised", scenario)
		}

		text2 := assembleText(t, loop2)
		switch scenario {
		case "remap":
			if err := c.Mem.Unmap(textBase, 16384); err != nil {
				t.Fatal(err)
			}
			if err := c.Mem.Map(textBase, 16384, mem.PermRX); err != nil {
				t.Fatal(err)
			}
			if f := c.Mem.WriteForce(text2, textBase); f != nil {
				t.Fatal(f)
			}
		case "rewrite-in-place":
			// No mapping mutation at all: WriteForce alone must invalidate
			// the warm chains.
			if f := c.Mem.WriteForce(text2, textBase); f != nil {
				t.Fatal(f)
			}
		}
		c.PC = entry
		if tr := c.Run(0); tr == nil || tr.Kind != TrapBRK {
			t.Fatalf("%s: second run trap = %v, want brk", scenario, tr)
		}
		if c.X[0] != 600 {
			t.Fatalf("%s: stale chained code survived: x0 = %d, want 600", scenario, c.X[0])
		}
	}
}

// TestDiffSnapshotMidChainedLoop stops a machine whose hot loop runs over
// a warm chain link at a budget trap that lands mid-block, snapshots
// memory and architectural state, rebuilds a machine from the snapshot
// (cold caches, no links), and runs both forward in lockstep: the restored
// machine must resume at the exact PC and stay bit-identical to the
// original.
func TestDiffSnapshotMidChainedLoop(t *testing.T) {
	const src = `
_start:
	mov x0, #0
	mov x1, #20000
loop:
	add x0, x0, #1
	eor x2, x0, x1
	subs x1, x1, #1
	b.ne loop
	brk #0
`
	a := loadProgram(t, src)
	a.Timing = nil // timing scoreboards are not part of a snapshot
	// Warm up until the loop block is chained to itself; 97 is not a
	// multiple of the 4-instruction loop, so budget traps from here on land
	// inside the block.
	for i := 0; i < 20; i++ {
		if tr := a.Run(97); tr.Kind != TrapBudget {
			t.Fatalf("warmup trap = %v, want budget", tr)
		}
	}
	if a.Stat.ChainHits == 0 {
		t.Fatal("no chain link followed during warmup")
	}

	pages, err := a.Mem.SnapshotRange(0, 0x900000)
	if err != nil {
		t.Fatal(err)
	}
	as := mem.NewAddrSpace(16384)
	if err := as.RestoreRange(0, pages); err != nil {
		t.Fatal(err)
	}
	b := New(as)
	b.X, b.SP, b.V = a.X, a.SP, a.V
	b.FlagN, b.FlagZ, b.FlagC, b.FlagV = a.FlagN, a.FlagZ, a.FlagC, a.FlagV
	b.PC = a.PC
	b.Instrs = a.Instrs

	for i := 0; ; i++ {
		atr := a.Run(97)
		btr := b.Run(97)
		compareTraps(t, atr, btr, "post-restore")
		if a.X != b.X || a.SP != b.SP || a.PC != b.PC || a.Instrs != b.Instrs {
			t.Fatalf("post-restore state diverges at slice %d: a.pc=%#x b.pc=%#x a.x0=%d b.x0=%d",
				i, a.PC, b.PC, a.X[0], b.X[0])
		}
		if atr.Kind == TrapBRK {
			break
		}
		if atr.Kind != TrapBudget {
			t.Fatalf("trap = %v, want budget or brk", atr)
		}
	}
	if a.X[0] != 20000 {
		t.Fatalf("x0 = %d, want 20000", a.X[0])
	}
}

// TestDiffFusedPairBudgetSplit runs one straight-line block dense in
// guard+access idioms under every budget from 1 to the block length, so
// TrapBudget lands on every slot — in particular between the two halves of
// every fused pair, where runSlots must run the head alone — and checks
// the stop and the resumed run against the per-step interpreter.
func TestDiffFusedPairBudgetSplit(t *testing.T) {
	const src = `
_start:
	adrp x21, buf
	add x21, x21, :lo12:buf
	mov w1, #8
	mov x3, #0x1234
	add x22, x21, w1, uxtw
	str x3, [x22]
	add x22, x21, w1, uxtw
	ldr x4, [x22]
	add x18, x21, w1, uxtw
	ldrb w5, [x18, #1]
	and x22, x1, #0xff
	ldr x6, [x21, x22]
	add x22, x21, w4, uxtw
	strh w3, [x22, #2]
	sub x22, x22, #2
	ldrsh x7, [x22, #4]
	eor x22, x21, x1
	ldrsw x8, [x22]
	mov x22, x21
	ldr d0, [x22, #8]
	brk #0
.bss
buf:
	.space 8192
`
	probe := loadProgram(t, src)
	entry := probe.PC
	if tr := probe.Run(0); tr.Kind != TrapBRK {
		t.Fatalf("probe trap = %v, want brk", tr)
	}
	block := probe.bcache[bcIndex(entry)].insts
	if uint64(len(block)) != probe.Instrs+1 {
		t.Fatalf("program is %d instructions but its first block has %d; want one block",
			probe.Instrs+1, len(block))
	}
	splits := 0
	for n := 1; n <= len(block); n++ {
		slow := loadProgram(t, src)
		slow.SetFastpath(false)
		fast := loadProgram(t, src)
		compareTraps(t, slow.Run(uint64(n)), fast.Run(uint64(n)), "clipped")
		compareCPUs(t, slow, fast, "clipped")
		compareMem(t, slow, fast, "clipped")
		// Pairs wholly inside the clip ran fused; a head in the last
		// clipped slot ran alone.
		var whole uint64
		for k := 0; k+1 < n; k++ {
			if block[k].fuse.kind == fusePair {
				whole++
			}
		}
		if fast.Stat.FusedPairs != whole {
			t.Fatalf("budget %d: %d fused pairs executed, want %d", n, fast.Stat.FusedPairs, whole)
		}
		if block[n-1].fuse.kind == fusePair {
			splits++
		}
		compareTraps(t, slow.Run(0), fast.Run(0), "resumed")
		compareCPUs(t, slow, fast, "resumed")
		compareMem(t, slow, fast, "resumed")
	}
	if splits < 8 {
		t.Fatalf("only %d budgets split a fused pair, want at least 8", splits)
	}
}

// TestHotTrapReuse checks Run's budget/host-call traps reuse per-CPU
// storage (no per-slice allocation) and stay correct slice over slice.
func TestHotTrapReuse(t *testing.T) {
	c := loadProgram(t, `
_start:
loop:
	add x0, x0, #1
	b loop
`)
	t1 := c.Run(10)
	t2 := c.Run(10)
	if t1 != t2 {
		t.Errorf("budget traps not reused: %p vs %p", t1, t2)
	}
	if t2.Kind != TrapBudget {
		t.Errorf("trap kind = %v, want budget", t2.Kind)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if tr := c.Run(64); tr.Kind != TrapBudget {
			t.Fatal("expected budget trap")
		}
	})
	if allocs != 0 {
		t.Errorf("Run budget slice allocates %v objects per run, want 0", allocs)
	}
}

// TestDiffRestoredClone runs the two executors on clones of one snapshot.
// A clone's pages are references to the snapshot's bytes until first touch
// gives a writable page its own; the loop's load–store–load on one restored
// data page must read the snapshot's value, then its own stores, on both
// paths and at every slice boundary, and nothing may reach the snapshot —
// or the machine it was taken from, which runs on the same bytes.
func TestDiffRestoredClone(t *testing.T) {
	const src = `
_start:
	adrp x1, val
	add x1, x1, :lo12:val
	mov x3, #300
loop:
	ldr x4, [x1]
	add x4, x4, #3
	str x4, [x1]
	ldr x5, [x1]
	add x0, x0, x5
	stp x4, x5, [sp, #-16]!
	ldr x6, [sp], #16
	add x0, x0, x6
	subs x3, x3, #1
	b.ne loop
	brk #0
.data
val:
	.quad 0x1111
`
	origin := loadProgram(t, src)
	pages, err := origin.Mem.SnapshotRange(0, 0x900000)
	if err != nil {
		t.Fatal(err)
	}
	saved := make([][]byte, len(pages))
	for i, pi := range pages {
		saved[i] = append([]byte(nil), pi.Data...)
	}
	clone := func() *CPU {
		as := mem.NewAddrSpace(16384)
		if err := as.RestoreRange(0, pages); err != nil {
			t.Fatal(err)
		}
		c := New(as)
		c.PC, c.SP = origin.PC, origin.SP
		c.Timing = NewTiming(ModelM1())
		return c
	}
	slow, fast := clone(), clone()
	slow.SetFastpath(false)
	if tr := lockstepOn(t, slow, fast); tr.Kind != TrapBRK {
		t.Fatalf("trap = %v, want brk", tr)
	}
	// The cold-loaded machine reaches the same state on its own.
	if tr := origin.Run(0); tr.Kind != TrapBRK {
		t.Fatalf("origin trap = %v, want brk", tr)
	}
	compareCPUs(t, origin, fast, "clone against the machine snapshotted")
	compareMem(t, origin, fast, "clone against the machine snapshotted")
	if want := uint64(2 * (300*0x1111 + 3*300*301/2)); fast.X[0] != want {
		t.Errorf("x0 = %#x, want %#x", fast.X[0], want)
	}
	for i, pi := range pages {
		if !bytes.Equal(pi.Data, saved[i]) {
			t.Errorf("snapshot page %#x changed while its clones ran", pi.Off)
		}
	}
}
