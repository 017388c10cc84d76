package lfirt

// Edge-case tests for the runtime-call surface: error paths, descriptor
// semantics, and policy behaviours that the main integration tests do not
// reach.

import (
	"strings"
	"testing"

	"lfi/internal/core"
	"lfi/internal/emu"
	"lfi/internal/progs"
)

// callAndExit builds a program that performs one runtime call with the
// given register setup and exits with the (possibly negated) result.
func callAndExit(setup string, call core.RuntimeCall, negate bool) string {
	neg := ""
	if negate {
		neg = "\tneg x0, x0\n"
	}
	return "_start:\n" + setup + progs.RTCall(call) + neg + progs.Exit()
}

func TestWriteBadFD(t *testing.T) {
	rt := newRT(t)
	src := callAndExit("\tmov x0, #77\n\tadrp x1, b\n\tadd x1, x1, :lo12:b\n\tmov x2, #1\n",
		core.RTWrite, true) + "\n.bss\nb:\n\t.space 8\n"
	if status := loadRun(t, rt, src); status != EBADF {
		t.Errorf("write(77) = -%d, want -EBADF", status)
	}
}

func TestReadBadFD(t *testing.T) {
	rt := newRT(t)
	src := callAndExit("\tmov x0, #55\n\tadrp x1, b\n\tadd x1, x1, :lo12:b\n\tmov x2, #1\n",
		core.RTRead, true) + "\n.bss\nb:\n\t.space 8\n"
	if status := loadRun(t, rt, src); status != EBADF {
		t.Errorf("read(55) = -%d, want -EBADF", status)
	}
}

func TestCloseBadFD(t *testing.T) {
	rt := newRT(t)
	src := callAndExit("\tmov x0, #99\n", core.RTClose, true)
	if status := loadRun(t, rt, src); status != EBADF {
		t.Errorf("close(99) = -%d, want -EBADF", status)
	}
}

func TestOpenMissingWithoutCreate(t *testing.T) {
	rt := newRT(t)
	src := callAndExit("\tadrp x0, p\n\tadd x0, x0, :lo12:p\n\tmov x1, #0\n",
		core.RTOpen, true) + "\n.rodata\np:\n\t.asciz \"/nope\"\n"
	if status := loadRun(t, rt, src); status != ENOENT {
		t.Errorf("open(/nope) = -%d, want -ENOENT", status)
	}
}

func TestOpenTruncAndAppend(t *testing.T) {
	rt := newRT(t)
	rt.FS().WriteFile("/f", []byte("old contents"))
	// Open with O_TRUNC, write "a"; reopen with O_APPEND, write "b".
	src := `
_start:
	adrp x0, p
	add x0, x0, :lo12:p
	mov x1, #0x201           // O_WRONLY|O_TRUNC
` + progs.RTCall(core.RTOpen) + `
	mov x19, x0
	mov x0, x19
	adrp x1, ch
	add x1, x1, :lo12:ch
	mov x2, #1
` + progs.RTCall(core.RTWrite) + `
	mov x0, x19
` + progs.RTCall(core.RTClose) + `
	adrp x0, p
	add x0, x0, :lo12:p
	movz x1, #0x401           // O_WRONLY|O_APPEND
` + progs.RTCall(core.RTOpen) + `
	mov x19, x0
	mov x0, x19
	adrp x1, ch2
	add x1, x1, :lo12:ch2
	mov x2, #1
` + progs.RTCall(core.RTWrite) + `
	mov x0, #0
` + progs.Exit() + `
.rodata
p:
	.asciz "/f"
ch:
	.ascii "a"
ch2:
	.ascii "b"
`
	if status := loadRun(t, rt, src); status != 0 {
		t.Fatalf("status %d", status)
	}
	got, _ := rt.FS().ReadFile("/f")
	if string(got) != "ab" {
		t.Errorf("/f = %q, want \"ab\"", got)
	}
}

func TestBrkQueryAndGrowth(t *testing.T) {
	rt := newRT(t)
	// brk(0) returns the current break; brk(smaller) does not shrink.
	src := `
_start:
	mov x0, #0
` + progs.RTCall(core.RTBrk) + `
	mov x19, x0
	mov x0, #0
` + progs.RTCall(core.RTBrk) + `
	cmp x0, x19
	cset x20, eq
	// attempt to shrink: must report the old break
	sub x0, x19, #4096
` + progs.RTCall(core.RTBrk) + `
	cmp x0, x19
	cset x21x, eq
	add x0, x20, x21x
` + progs.Exit()
	src = strings.ReplaceAll(src, "x21x", "x25")
	if status := loadRun(t, rt, src); status != 2 {
		t.Errorf("brk invariants failed: %d/2", status)
	}
}

func TestMmapErrors(t *testing.T) {
	rt := newRT(t)
	// Zero length is ENOMEM (nothing mapped).
	src := callAndExit("\tmov x0, #0\n\tmov x1, #0\n", core.RTMmap, true)
	if status := loadRun(t, rt, src); status != ENOMEM {
		t.Errorf("mmap(0) = -%d, want -ENOMEM", status)
	}
	// Unaligned munmap address is EINVAL.
	rt2 := newRT(t)
	src = callAndExit("\tmov x0, #123\n\tmov x1, #16384\n", core.RTMunmap, true)
	if status := loadRun(t, rt2, src); status != EINVAL {
		t.Errorf("munmap(123) = -%d, want -EINVAL", status)
	}
}

func TestMunmapThenFault(t *testing.T) {
	rt := newRT(t)
	src := `
_start:
	mov x0, #0
	mov x1, #16384
	mov x2, #3
	mov x3, #0x22
` + progs.RTCall(core.RTMmap) + `
	mov x25, x0
	mov x9, #1
	str x9, [x25]
	mov x0, x25
	mov x1, #16384
` + progs.RTCall(core.RTMunmap) + `
	ldr x9, [x25]          // must fault now
` + progs.Exit()
	if status := loadRun(t, rt, src); status != 128+11 {
		t.Errorf("use-after-munmap status = %d, want SIGSEGV-style", status)
	}
}

func TestWaitNoChildren(t *testing.T) {
	rt := newRT(t)
	src := callAndExit("\tmov x0, #0\n", core.RTWait, true)
	if status := loadRun(t, rt, src); status != ECHILD {
		t.Errorf("wait with no children = -%d, want -ECHILD", status)
	}
}

func TestYieldToMissingProc(t *testing.T) {
	rt := newRT(t)
	src := callAndExit("\tmov x0, #42\n", core.RTYield, true)
	if status := loadRun(t, rt, src); status != ESRCH {
		t.Errorf("yield(42) = -%d, want -ESRCH", status)
	}
}

func TestKillOtherProcess(t *testing.T) {
	rt := newRT(t)
	spin, err := rt.Load(build(t, "_start:\nspin:\n\tb spin\n"))
	if err != nil {
		t.Fatal(err)
	}
	killer := callAndExit("\tmov x0, #1\n", core.RTKill, false)
	p, err := rt.Load(build(t, killer))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if spin.ExitStatus() != 128+9 {
		t.Errorf("victim status = %d", spin.ExitStatus())
	}
	if p.ExitStatus() != 0 {
		t.Errorf("killer status = %d", p.ExitStatus())
	}
}

func TestKillSelf(t *testing.T) {
	rt := newRT(t)
	// getpid then kill(self): the exit status is the SIGKILL-style 137.
	src := "_start:\n" + progs.RTCall(core.RTGetPID) + progs.RTCall(core.RTKill) +
		"\tmov x0, #0\n" + progs.Exit()
	if status := loadRun(t, rt, src); status != 128+9 {
		t.Errorf("kill(self) status = %d, want 137", status)
	}
}

func TestKillMissing(t *testing.T) {
	rt := newRT(t)
	src := callAndExit("\tmov x0, #99\n", core.RTKill, true)
	if status := loadRun(t, rt, src); status != ESRCH {
		t.Errorf("kill(99) = -%d, want -ESRCH", status)
	}
}

func TestUsleepRequeues(t *testing.T) {
	rt := newRT(t)
	src := "_start:\n\tmov x0, #100\n" + progs.RTCall(core.RTUsleep) + progs.ExitCode(3)
	if status := loadRun(t, rt, src); status != 3 {
		t.Errorf("status after usleep = %d", status)
	}
}

// TestUsleepSaturatesClock sleeps for the longest time a guest can ask
// for, twice, then runs a counted loop: the clock must never move back,
// and the loop's cycles must still count on top of the saturated clock.
func TestUsleepSaturatesClock(t *testing.T) {
	cycles := func(body string) float64 {
		t.Helper()
		cfg := DefaultConfig()
		cfg.Model = emu.ModelM1()
		rt := New(cfg)
		p, err := rt.Load(build(t, "_start:\n"+body+progs.Exit()))
		if err != nil {
			t.Fatal(err)
		}
		if status, err := rt.RunProc(p); err != nil || status != 0 {
			t.Fatalf("status %d, err %v", status, err)
		}
		return rt.Tim.Cycles()
	}
	sleep := "\tmov x0, #-1\n" + progs.RTCall(core.RTUsleep)
	loop := "\tmov x9, #1000\nspin:\n\tsub x9, x9, #1\n\tcbnz x9, spin\n"
	one := cycles(sleep)
	two := cycles(sleep + sleep)
	looped := cycles(sleep + sleep + loop)
	if one < 1e13 || two < one {
		t.Fatalf("usleep(2^64-1) once = %v cycles, twice = %v: the clock must saturate high and never move back", one, two)
	}
	if looped-two < 900 {
		t.Fatalf("1000 loop iterations after the sleeps added %v cycles, want at least 900 (a dependent sub per iteration)", looped-two)
	}
}

func TestWriteToClosedPipeEPIPE(t *testing.T) {
	rt := newRT(t)
	src := `
_start:
	adrp x0, fds
	add x0, x0, :lo12:fds
` + progs.RTCall(core.RTPipe) + `
	adrp x9, fds
	add x9, x9, :lo12:fds
	ldr w19, [x9]
	ldr w20, [x9, #4]
	// close the read end, then write
	mov x0, x19
` + progs.RTCall(core.RTClose) + `
	mov x0, x20
	adrp x1, fds
	add x1, x1, :lo12:fds
	mov x2, #1
` + progs.RTCall(core.RTWrite) + `
	neg x0, x0
` + progs.Exit() + `
.bss
fds:
	.space 8
`
	if status := loadRun(t, rt, src); status != EPIPE {
		t.Errorf("write to closed pipe = -%d, want -EPIPE", status)
	}
}

func TestPipeEOFAfterWriterCloses(t *testing.T) {
	rt := newRT(t)
	src := `
_start:
	adrp x0, fds
	add x0, x0, :lo12:fds
` + progs.RTCall(core.RTPipe) + `
	adrp x9, fds
	add x9, x9, :lo12:fds
	ldr w19, [x9]
	ldr w20, [x9, #4]
	mov x0, x20
` + progs.RTCall(core.RTClose) + `
	// read on an empty pipe with no writers: immediate EOF (0)
	mov x0, x19
	adrp x1, fds
	add x1, x1, :lo12:fds
	mov x2, #1
` + progs.RTCall(core.RTRead) + `
	add x0, x0, #100
` + progs.Exit() + `
.bss
fds:
	.space 8
`
	if status := loadRun(t, rt, src); status != 100 {
		t.Errorf("EOF read returned %d, want 0 (+100)", status-100)
	}
}

func TestFaultingPointerInRuntimeCall(t *testing.T) {
	rt := newRT(t)
	// write() with a pointer into unmapped sandbox space: the runtime must
	// return EFAULT, not crash or read host memory.
	src := callAndExit("\tmov x0, #1\n\tmovz x1, #0x4000, lsl #16\n\tmov x2, #8\n",
		core.RTWrite, true)
	if status := loadRun(t, rt, src); status != EFAULT {
		t.Errorf("write(bad ptr) = -%d, want -EFAULT", status)
	}
}

func TestRuntimeCallPointerMasking(t *testing.T) {
	rt := newRT(t)
	// A pointer with garbage top bits must be masked into the sandbox:
	// write(1, buf | garbage<<32, n) still writes the sandbox's buffer.
	src := `
_start:
	mov x0, #1
	adrp x1, msg
	add x1, x1, :lo12:msg
	movz x9, #0xdead, lsl #48
	orr x1, x1, x9             // corrupt the top bits
	mov x2, #2
` + progs.RTCall(core.RTWrite) + progs.ExitCode(0) + `
.rodata
msg:
	.ascii "ok"
`
	if status := loadRun(t, rt, src); status != 0 {
		t.Fatalf("status %d", status)
	}
	if got := string(rt.Stdout()); got != "ok" {
		t.Errorf("stdout = %q (pointer not masked?)", got)
	}
}

func TestInvalidHostCallOffsetKills(t *testing.T) {
	rt := newRT(t)
	// Jump into the host-call region at a non-entry offset via a crafted
	// call-table-like value. Programs cannot load such a value through the
	// verifier, so build it natively and skip verification.
	cfg := DefaultConfig()
	cfg.Verify = false
	rt = New(cfg)
	res, err := progs.BuildNative(`
_start:
	ldr x30, [x21, #8]
	add x30, x30, #4          // misaligned host entry
	blr x30
`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := rt.Load(res.ELF)
	if err != nil {
		t.Fatal(err)
	}
	status, err := rt.RunProc(p)
	if err != nil {
		t.Fatal(err)
	}
	if status != 128+4 {
		t.Errorf("misaligned host call status = %d, want 132", status)
	}
}
