package lfirt

import (
	"strings"
	"testing"

	"lfi/internal/core"
	"lfi/internal/emu"
	"lfi/internal/progs"
)

func build(t testing.TB, src string) []byte {
	t.Helper()
	res, err := progs.Build(src, core.Options{Opt: core.O2})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return res.ELF
}

func newRT(t *testing.T) *Runtime {
	t.Helper()
	return New(DefaultConfig())
}

func loadRun(t *testing.T, rt *Runtime, src string) int {
	t.Helper()
	p, err := rt.Load(build(t, src))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	status, err := rt.RunProc(p)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return status
}

func TestExitStatus(t *testing.T) {
	rt := newRT(t)
	status := loadRun(t, rt, "_start:\n"+progs.ExitCode(42))
	if status != 42 {
		t.Errorf("exit status = %d, want 42", status)
	}
}

func TestHelloWrite(t *testing.T) {
	rt := newRT(t)
	src := `
_start:
	mov x0, #1
	adrp x1, msg
	add x1, x1, :lo12:msg
	mov x2, #14
` + progs.RTCall(core.RTWrite) + `
	mov x19, x0
	mov x0, x19
` + progs.Exit() + `
.rodata
msg:
	.ascii "hello, sandbox"
`
	status := loadRun(t, rt, src)
	if got := string(rt.Stdout()); got != "hello, sandbox" {
		t.Errorf("stdout = %q", got)
	}
	if status != 14 {
		t.Errorf("write returned %d, want 14", status)
	}
}

func TestGetPID(t *testing.T) {
	rt := newRT(t)
	src := "_start:\n" + progs.RTCall(core.RTGetPID) + progs.Exit()
	status := loadRun(t, rt, src)
	if status != 1 {
		t.Errorf("pid = %d, want 1", status)
	}
}

func TestOpenReadWriteFile(t *testing.T) {
	rt := newRT(t)
	rt.FS().WriteFile("/input.txt", []byte("abcdef"))
	src := `
_start:
	// fd = open("/input.txt", O_RDONLY)
	adrp x0, path
	add x0, x0, :lo12:path
	mov x1, #0
` + progs.RTCall(core.RTOpen) + `
	mov x19, x0              // fd
	// read(fd, buf, 6)
	mov x0, x19
	adrp x1, buf
	add x1, x1, :lo12:buf
	mov x2, #6
` + progs.RTCall(core.RTRead) + `
	mov x20, x0              // bytes read
	// write(1, buf, n)
	mov x0, #1
	adrp x1, buf
	add x1, x1, :lo12:buf
	mov x2, x20
` + progs.RTCall(core.RTWrite) + `
	// fd2 = open("/out.txt", O_WRONLY|O_CREAT)
	adrp x0, path2
	add x0, x0, :lo12:path2
	mov x1, #0x41
` + progs.RTCall(core.RTOpen) + `
	mov x21x, x0
	mov x0, x21x
	adrp x1, buf
	add x1, x1, :lo12:buf
	mov x2, #3
` + progs.RTCall(core.RTWrite) + `
	// close both
	mov x0, x19
` + progs.RTCall(core.RTClose) + `
	mov x0, x20
` + progs.Exit() + `
.rodata
path:
	.asciz "/input.txt"
path2:
	.asciz "/out.txt"
.bss
buf:
	.space 16
`
	// x21 is reserved; rename the scratch use.
	src = strings.ReplaceAll(src, "x21x", "x25")
	status := loadRun(t, rt, src)
	if status != 6 {
		t.Errorf("read returned %d, want 6", status)
	}
	if got := string(rt.Stdout()); got != "abcdef" {
		t.Errorf("stdout = %q", got)
	}
	out, ok := rt.FS().ReadFile("/out.txt")
	if !ok || string(out) != "abc" {
		t.Errorf("/out.txt = %q, %v", out, ok)
	}
}

func TestOpenDenied(t *testing.T) {
	rt := newRT(t)
	rt.FS().DenyPrefixes = []string{"/secret"}
	rt.FS().WriteFile("/secret/key", []byte("k"))
	src := `
_start:
	adrp x0, path
	add x0, x0, :lo12:path
	mov x1, #0
` + progs.RTCall(core.RTOpen) + `
	neg x0, x0
` + progs.Exit() + `
.rodata
path:
	.asciz "/secret/key"
`
	if status := loadRun(t, rt, src); status != EACCES {
		t.Errorf("open denied returned -%d, want -EACCES(%d)", status, EACCES)
	}
}

func TestBrkAndMmap(t *testing.T) {
	rt := newRT(t)
	src := `
_start:
	// query current brk, grow by 64KiB, store/load at the new area
	mov x0, #0
` + progs.RTCall(core.RTBrk) + `
	mov x19, x0
	add x0, x19, #1
	movk x0, #0x1, lsl #16    // +64KiB (approximately; set bit 16)
` + progs.RTCall(core.RTBrk) + `
	mov x20, x0
	mov x9, #123
	str x9, [x19]
	ldr x10, [x19]
	// mmap 2 pages
	mov x0, #0
	mov x1, #32768
	mov x2, #3
	mov x3, #0x22
` + progs.RTCall(core.RTMmap) + `
	mov x25, x0
	mov x9, #77
	str x9, [x25, #16384]
	ldr x11, [x25, #16384]
	add x0, x10, x11          // 123 + 77 = 200
` + progs.Exit()
	status := loadRun(t, rt, src)
	if status != 200 {
		t.Errorf("brk/mmap arithmetic = %d, want 200", status)
	}
}

func TestForkAndWait(t *testing.T) {
	rt := newRT(t)
	src := `
_start:
	adrp x25, val
	add x25, x25, :lo12:val
	mov x9, #5
	str x9, [x25]
` + progs.RTCall(core.RTFork) + `
	cbz x0, child
	// parent: wait for the child, then read the (unshared) value
	mov x19, x0               // child pid
	adrp x0, status
	add x0, x0, :lo12:status
` + progs.RTCall(core.RTWait) + `
	adrp x1, status
	add x1, x1, :lo12:status
	ldr w2, [x1]              // child exit status (55)
	ldr x3, [x25]             // parent copy still 5
	add x0, x2, x3            // 60
` + progs.Exit() + `
child:
	// child: bump the value; memory is copied, parent must not see it
	ldr x9, [x25]
	add x9, x9, #50           // 55
	str x9, [x25]
	ldr x0, [x25]
` + progs.Exit() + `
.data
val:
	.quad 0
status:
	.word 0
`
	status := loadRun(t, rt, src)
	if status != 60 {
		t.Errorf("fork/wait result = %d, want 60", status)
	}
	if len(rt.Procs()) != 0 {
		t.Errorf("process table not empty: %d", len(rt.Procs()))
	}
}

func TestPipeBetweenForkedProcs(t *testing.T) {
	rt := newRT(t)
	src := `
_start:
	adrp x0, fds
	add x0, x0, :lo12:fds
` + progs.RTCall(core.RTPipe) + `
	adrp x9, fds
	add x9, x9, :lo12:fds
	ldr w19, [x9]             // read fd
	ldr w20, [x9, #4]         // write fd
` + progs.RTCall(core.RTFork) + `
	cbz x0, child
	// parent: read one byte (blocks until the child writes)
	mov x0, x19
	adrp x1, buf
	add x1, x1, :lo12:buf
	mov x2, #1
` + progs.RTCall(core.RTRead) + `
	adrp x1, buf
	add x1, x1, :lo12:buf
	ldrb w0, [x1]             // 0x5a
` + progs.Exit() + `
child:
	// child: write one byte then exit
	adrp x1, buf
	add x1, x1, :lo12:buf
	mov w9, #0x5a
	strb w9, [x1]
	mov x0, x20
	mov x2, #1
` + progs.RTCall(core.RTWrite) + `
	mov x0, #0
` + progs.Exit() + `
.bss
fds:
	.space 8
buf:
	.space 8
`
	p, err := rt.Load(build(t, src))
	if err != nil {
		t.Fatal(err)
	}
	status, err := rt.RunProc(p)
	if err != nil {
		t.Fatal(err)
	}
	if status != 0x5a {
		t.Errorf("pipe byte = %#x, want 0x5a", status)
	}
	if err := rt.Run(); err != nil {
		t.Fatalf("draining remaining procs: %v", err)
	}
}

func TestYieldPingPong(t *testing.T) {
	rt := newRT(t)
	// Two sandboxes yield to each other N times; each counts iterations.
	mk := func(peerFirst bool) string {
		start := `
_start:
	mov x19, #0               // counter
	mov x20, #10              // rounds
`
		loop := `
loop:
` + "\tmov x0, x25\n" + progs.RTCall(core.RTYield) + `
	add x19, x19, #1
	cmp x19, x20
	b.ne loop
	mov x0, x19
` + progs.Exit()
		if peerFirst {
			// The second process learns the peer pid via yield's return.
			return start + "\tmov x25, #1\n" + loop
		}
		return start + "\tmov x25, #2\n" + loop
	}
	p1, err := rt.Load(build(t, mk(false)))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := rt.Load(build(t, mk(true)))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		// The last yield of the slower side targets an already-exited
		// peer; that returns -ESRCH to the yielder (pinned by
		// TestYieldDeadPeer) and never aborts the run.
		t.Fatalf("run: %v", err)
	}
	if p1.ExitStatus() != 10 || p2.ExitStatus() != 10 {
		t.Errorf("ping-pong counts = %d, %d; want 10, 10", p1.ExitStatus(), p2.ExitStatus())
	}
}

// TestYieldDeadPeer pins the defined error for yielding to a peer that
// cannot receive control: a zombie and a never-existing pid both return
// -ESRCH, and the yielder keeps running.
func TestYieldDeadPeer(t *testing.T) {
	rt := newRT(t)
	dead, err := rt.Load(build(t, "_start:\n"+progs.ExitCode(0)))
	if err != nil {
		t.Fatal(err)
	}
	yielder := `
_start:
	// yield to pid 1 once it is dead -> -ESRCH
	mov x0, #1
` + progs.RTCall(core.RTYield) + `
	mov x19, x0
	// yield to a pid that never existed -> -ESRCH
	mov x0, #77
` + progs.RTCall(core.RTYield) + `
	mov x20, x0
	// exit 0 iff both returned -ESRCH
	neg x19, x19
	neg x20, x20
	cmp x19, #3               // ESRCH
	b.ne bad
	cmp x20, #3
	b.ne bad
	mov x0, #0
` + progs.Exit() + `
bad:
	mov x0, #1
` + progs.Exit()
	p, err := rt.Load(build(t, yielder))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunProc(dead); err != nil {
		t.Fatal(err)
	}
	status, err := rt.RunProc(p)
	if err != nil {
		t.Fatal(err)
	}
	if status != 0 {
		t.Errorf("dead-peer yields did not both return -ESRCH (status %d)", status)
	}
}

func TestPreemption(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Timeslice = 10_000
	rt := New(cfg)
	// One infinite loop and one quick program: the quick one must finish.
	spin, err := rt.Load(build(t, "_start:\nspin:\n\tb spin\n"))
	if err != nil {
		t.Fatal(err)
	}
	quick, err := rt.Load(build(t, "_start:\n"+progs.ExitCode(7)))
	if err != nil {
		t.Fatal(err)
	}
	status, err := rt.RunProc(quick)
	if err != nil {
		t.Fatal(err)
	}
	if status != 7 {
		t.Errorf("quick status = %d", status)
	}
	if rt.Preempts == 0 {
		t.Error("spinner was never preempted")
	}
	// Kill the spinner from the host side.
	rt.kill(spin, 137)
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestVerifierGatesLoading(t *testing.T) {
	rt := newRT(t)
	res, err := progs.BuildNative("_start:\n\tldr x0, [x1]\n" + progs.Exit())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Load(res.ELF); err == nil {
		t.Fatal("unguarded binary was loaded with verification enabled")
	}
	// With verification off (the native-baseline configuration) it loads.
	cfg := DefaultConfig()
	cfg.Verify = false
	rt2 := New(cfg)
	if _, err := rt2.Load(res.ELF); err != nil {
		t.Fatalf("native load failed: %v", err)
	}
}

func TestNativeSVCKilled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Verify = false
	rt := New(cfg)
	res, err := progs.BuildNative("_start:\n\tsvc #0\n")
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
		t.Errorf("svc status = %d, want SIGILL-style %d", status, 128+4)
	}
}

func TestFaultKillsSandboxOnly(t *testing.T) {
	rt := newRT(t)
	// This program dereferences an unmapped in-sandbox address.
	crash, err := rt.Load(build(t, `
_start:
	mov x1, #0x100000
	movk x1, #0x4000, lsl #16   // far into the unmapped middle
	ldr x0, [x1]
`+progs.Exit()))
	if err != nil {
		t.Fatal(err)
	}
	ok, err := rt.Load(build(t, "_start:\n"+progs.ExitCode(5)))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if crash.ExitStatus() != 128+11 {
		t.Errorf("crash status = %d", crash.ExitStatus())
	}
	if ok.ExitStatus() != 5 {
		t.Errorf("bystander status = %d", ok.ExitStatus())
	}
}

func TestManySandboxes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxSlots = 40
	cfg.StackSize = 1 << 20
	rt := New(cfg)
	elf := build(t, `
_start:
`+progs.RTCall(core.RTGetPID)+progs.Exit())
	var procs []*Proc
	for i := 0; i < 20; i++ {
		p, err := rt.Load(elf)
		if err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
		procs = append(procs, p)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	for i, p := range procs {
		if p.ExitStatus() != i+1 {
			t.Errorf("sandbox %d exit = %d, want its pid %d", i, p.ExitStatus(), i+1)
		}
	}
}

func TestSlotExhaustionAndReuse(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxSlots = 3
	cfg.StackSize = 1 << 20
	rt := New(cfg)
	elf := build(t, "_start:\n"+progs.ExitCode(0))
	var ps []*Proc
	for i := 0; i < 3; i++ {
		p, err := rt.Load(elf)
		if err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
		ps = append(ps, p)
	}
	if _, err := rt.Load(elf); err == nil {
		t.Fatal("slot exhaustion not detected")
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	// Slots must be reusable after exit.
	if _, err := rt.Load(elf); err != nil {
		t.Fatalf("slot not reused: %v", err)
	}
}

// TestSandboxCapacity checks the §3 slot arithmetic: 64Ki slots in the
// 48-bit space, 4GiB apart, with the runtime owning the last one.
func TestSandboxCapacity(t *testing.T) {
	if core.MaxSandboxes != 65536 {
		t.Errorf("MaxSandboxes = %d, want 65536", core.MaxSandboxes)
	}
	if core.SlotBase(1)-core.SlotBase(0) != core.SandboxSize {
		t.Error("slots are not adjacent")
	}
	last := core.SlotBase(core.MaxSandboxes - 1)
	if last+core.SandboxSize != uint64(1)<<48 {
		t.Errorf("last slot ends at %#x, want 2^48", last+core.SandboxSize)
	}
	rt := newRT(t)
	if rt.hostBase != last {
		t.Errorf("runtime slot = %#x, want %#x", rt.hostBase, last)
	}
	if core.SlotIndex(core.SlotBase(77)+123) != 77 {
		t.Error("SlotIndex broken")
	}
}

func TestDeadlockDetection(t *testing.T) {
	rt := newRT(t)
	// A process that reads from a pipe nobody writes to, while holding
	// the write end open in... itself. Reading an empty pipe with a live
	// writer blocks forever -> deadlock.
	src := `
_start:
	adrp x0, fds
	add x0, x0, :lo12:fds
` + progs.RTCall(core.RTPipe) + `
	adrp x9, fds
	add x9, x9, :lo12:fds
	ldr w0, [x9]
	adrp x1, buf
	add x1, x1, :lo12:buf
	mov x2, #1
` + progs.RTCall(core.RTRead) + progs.Exit() + `
.bss
fds:
	.space 8
buf:
	.space 8
`
	if _, err := rt.Load(build(t, src)); err != nil {
		t.Fatal(err)
	}
	err := rt.Run()
	var dl *ErrDeadlock
	if err == nil {
		t.Fatal("deadlock not detected")
	}
	if de, ok := err.(*ErrDeadlock); !ok || de.Blocked != 1 {
		t.Errorf("error = %v, want deadlock with 1 blocked", err)
	}
	_ = dl
}

func TestRuntimeCallCosts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Model = emu.ModelM1()
	rt := New(cfg)
	src := "_start:\n" + progs.RTCall(core.RTGetPID) + progs.Exit()
	p, err := rt.Load(build(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunProc(p); err != nil {
		t.Fatal(err)
	}
	if rt.Tim.Cycles() <= 0 {
		t.Error("no cycles charged")
	}
	if rt.HostCalls != 2 {
		t.Errorf("host calls = %d, want 2 (getpid + exit)", rt.HostCalls)
	}
}

func TestSpectreMitigationCost(t *testing.T) {
	run := func(spectre bool) float64 {
		cfg := DefaultConfig()
		cfg.Model = emu.ModelM1()
		cfg.SpectreMitigations = spectre
		rt := New(cfg)
		src := "_start:\n"
		for i := 0; i < 50; i++ {
			src += progs.RTCall(core.RTGetPID)
		}
		src += progs.Exit()
		p, err := rt.Load(build(t, src))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.RunProc(p); err != nil {
			t.Fatal(err)
		}
		return rt.Tim.Cycles()
	}
	base := run(false)
	hardened := run(true)
	// 51 runtime calls x 2 SCXTNUM writes x 25 cycles = ~2550 extra.
	if hardened <= base+2000 {
		t.Errorf("spectre mitigations cost too little: %.0f vs %.0f", hardened, base)
	}
	if hardened >= base*2 {
		t.Errorf("spectre mitigations cost absurdly much: %.0f vs %.0f", hardened, base)
	}
}

// TestStressManyMixedSandboxes runs dozens of sandboxes with different
// behaviours concurrently under a small timeslice: compute loops, runtime
// call storms, forkers, pipers, and crashers, all sharing one address
// space. Everything must terminate with its own status and the runtime
// must end with an empty process table.
func TestStressManyMixedSandboxes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Timeslice = 5_000
	cfg.MaxSlots = 80
	cfg.StackSize = 1 << 20
	rt := New(cfg)

	compute := build(t, `
_start:
	mov x19, #0
	movz x20, #20000
loop:
	add x19, x19, x20
	subs x20, x20, #1
	b.ne loop
	mov x0, #1
`+progs.Exit())
	caller := build(t, `
_start:
	movz x20, #300
loop:
`+progs.RTCall(core.RTGetPID)+`
	subs x20, x20, #1
	b.ne loop
	mov x0, #2
`+progs.Exit())
	forker := build(t, `
_start:
`+progs.RTCall(core.RTFork)+`
	cbz x0, child
	adrp x0, st
	add x0, x0, :lo12:st
`+progs.RTCall(core.RTWait)+`
	mov x0, #3
`+progs.Exit()+`
child:
	mov x0, #4
`+progs.Exit()+`
.bss
st:
	.space 8
`)
	crasher := build(t, `
_start:
	movz x1, #0x7000, lsl #16
	ldr x0, [x1]
`+progs.Exit())

	type want struct {
		p      *Proc
		status int
	}
	var wants []want
	for i := 0; i < 8; i++ {
		for _, spec := range []struct {
			elf    []byte
			status int
		}{
			{compute, 1}, {caller, 2}, {forker, 3}, {crasher, 128 + 11},
		} {
			p, err := rt.Load(spec.elf)
			if err != nil {
				t.Fatalf("load %d: %v", i, err)
			}
			wants = append(wants, want{p, spec.status})
		}
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	for i, w := range wants {
		if w.p.ExitStatus() != w.status {
			t.Errorf("sandbox %d exit = %d, want %d", i, w.p.ExitStatus(), w.status)
		}
	}
	if rt.Preempts == 0 {
		t.Error("expected preemptions under a 5k-instruction timeslice")
	}
	if len(rt.Procs()) != 0 {
		t.Errorf("%d processes leaked", len(rt.Procs()))
	}
}

// TestForkTree builds a three-generation process tree: the root forks a
// child, the child forks a grandchild, everyone waits for their own
// children, and statuses propagate upward. Exercises reparenting and reap
// order.
func TestForkTree(t *testing.T) {
	rt := newRT(t)
	src := `
_start:
` + progs.RTCall(core.RTFork) + `
	cbz x0, gen2
	// root: wait for the child, add 100 to its status
	adrp x0, st
	add x0, x0, :lo12:st
` + progs.RTCall(core.RTWait) + `
	adrp x1, st
	add x1, x1, :lo12:st
	ldr w0, [x1]
	add x0, x0, #100
` + progs.Exit() + `
gen2:
` + progs.RTCall(core.RTFork) + `
	cbz x0, gen3
	adrp x0, st
	add x0, x0, :lo12:st
` + progs.RTCall(core.RTWait) + `
	adrp x1, st
	add x1, x1, :lo12:st
	ldr w0, [x1]
	add x0, x0, #10
` + progs.Exit() + `
gen3:
	mov x0, #1
` + progs.Exit() + `
.bss
st:
	.space 8
`
	status := loadRun(t, rt, src)
	if status != 111 {
		t.Errorf("tree status = %d, want 111 (1 -> 11 -> 111)", status)
	}
	if len(rt.Procs()) != 0 {
		t.Errorf("%d processes leaked", len(rt.Procs()))
	}
}

// TestOrphanGrandchild kills a middle process while its child still runs;
// the orphan must finish and be reaped without a parent.
func TestOrphanGrandchild(t *testing.T) {
	rt := newRT(t)
	src := `
_start:
` + progs.RTCall(core.RTFork) + `
	cbz x0, middle
	mov x25, x0              // middle pid
	// give the middle process time to fork its own child
	mov x0, #10
` + progs.RTCall(core.RTUsleep) + `
	mov x0, x25
` + progs.RTCall(core.RTKill) + `
	mov x0, #7
` + progs.Exit() + `
middle:
` + progs.RTCall(core.RTFork) + `
	cbz x0, leafp
spinm:
	b spinm                  // wait to be killed
leafp:
	movz x20, #60000
spinl:
	subs x20, x20, #1
	b.ne spinl
	mov x0, #0
` + progs.Exit() + `
.bss
pad:
	.space 8
`
	p, err := rt.Load(build(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunProc(p); err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if p.ExitStatus() != 7 {
		t.Errorf("root status = %d", p.ExitStatus())
	}
	if len(rt.Procs()) != 0 {
		t.Errorf("%d processes leaked after orphaning", len(rt.Procs()))
	}
}
