package lfirt

// End-to-end differential tests: every workload program must produce an
// identical run — exit status, stdout, retired instruction count, cycle
// count, and final register file — under both emulator executors (the
// per-step reference interpreter and the fast path), including the exact
// instruction at which a deadline kill lands.

import (
	"errors"
	"reflect"
	"testing"

	"lfi/internal/core"
	"lfi/internal/emu"
	"lfi/internal/progs"
	"lfi/internal/workloads"
)

type runResult struct {
	status int
	err    string
	instrs uint64
	cycles float64
	stdout string
	x      [31]uint64
	sp     uint64
	v      [32][2]uint64
}

func runPath(t *testing.T, elf []byte, fastpath bool, budget uint64) runResult {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Model = emu.ModelM1()
	rt := New(cfg)
	rt.CPU.SetFastpath(fastpath)
	p, err := rt.Load(elf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	status, err := rt.RunProcDeadline(p, budget)
	r := runResult{
		status: status,
		instrs: rt.CPU.Instrs,
		cycles: rt.CPU.Timing.Cycles(),
		stdout: string(rt.Stdout()),
		x:      rt.CPU.X,
		sp:     rt.CPU.SP,
		v:      rt.CPU.V,
	}
	if err != nil {
		r.err = err.Error()
	}
	return r
}

func diffRun(t *testing.T, name string, elf []byte, budget uint64) {
	t.Helper()
	slow := runPath(t, elf, false, budget)
	fast := runPath(t, elf, true, budget)
	if !reflect.DeepEqual(slow, fast) {
		t.Errorf("%s: fast path diverges from reference:\nslow=%+v\nfast=%+v", name, slow, fast)
	}
}

func TestDiffWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			elf := build(t, w.Source(0.05))
			diffRun(t, w.Name, elf, 0)
		})
	}
}

func TestDiffMicro(t *testing.T) {
	micro := map[string]string{
		"syscall-loop": workloads.SyscallLoop(500),
		"pipe-ping":    workloads.PipePing(100),
	}
	for name, src := range micro {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			diffRun(t, name, build(t, src), 0)
		})
	}
}

func TestDiffProgs(t *testing.T) {
	sources := map[string]string{
		"exit-code": "_start:\n" + progs.ExitCode(42),
		"rt-write": `
_start:
	mov x0, #1
	adrp x1, msg
	add x1, x1, :lo12:msg
	mov x2, #14
` + progs.RTCall(core.RTWrite) + progs.Exit() + `
.rodata
msg:
	.ascii "hello, sandbox"
`,
	}
	for name, src := range sources {
		t.Run(name, func(t *testing.T) {
			diffRun(t, name, build(t, src), 0)
		})
	}
}

// TestDiffDeadlineExact verifies ErrDeadline fires after the same retired
// instruction on both paths: the fast path's budget carry-in and block
// clip may not slide the kill point even by one instruction.
func TestDiffDeadlineExact(t *testing.T) {
	w, _ := workloads.Get("531.deepsjeng")
	elf := build(t, w.Source(0.05))
	// Budgets chosen to land mid-run, at awkward offsets w.r.t. any
	// block boundary.
	for _, budget := range []uint64{1, 97, 1009, 10007, 30011} {
		slow := runPath(t, elf, false, budget)
		fast := runPath(t, elf, true, budget)
		if !reflect.DeepEqual(slow, fast) {
			t.Errorf("budget=%d: deadline run diverges:\nslow=%+v\nfast=%+v", budget, slow, fast)
		}
		if slow.err == "" {
			t.Fatalf("budget=%d did not trip the deadline; pick a smaller budget", budget)
		}
	}

	// And the error type itself must still be *ErrDeadline.
	cfg := DefaultConfig()
	cfg.Model = emu.ModelM1()
	rt := New(cfg)
	p, err := rt.Load(elf)
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.RunProcDeadline(p, 1000)
	var ed *ErrDeadline
	if !errors.As(err, &ed) {
		t.Fatalf("err = %v, want *ErrDeadline", err)
	}
}

// TestDiffMidRunMemory drives the CPU directly (below the scheduler) to a
// mid-run stop and compares the complete sandbox memory image across paths.
func TestDiffMidRunMemory(t *testing.T) {
	w, _ := workloads.Get("557.xz")
	elf := build(t, w.Source(0.05))

	type stop struct {
		kind    emu.TrapKind
		pc      uint64
		instrs  uint64
		cycles  float64
		x       [31]uint64
		sp      uint64
		memHash string
	}
	capture := func(fastpath bool) stop {
		cfg := DefaultConfig()
		cfg.Model = emu.ModelM1()
		rt := New(cfg)
		rt.CPU.SetFastpath(fastpath)
		p, err := rt.Load(elf)
		if err != nil {
			t.Fatal(err)
		}
		rt.loadRegs(p)
		tr := rt.CPU.Run(30011)
		snap, err := rt.AS.SnapshotRange(p.Base, core.SandboxSize)
		if err != nil {
			t.Fatal(err)
		}
		var buf []byte
		for _, pg := range snap {
			buf = append(buf, byte(pg.Off), byte(pg.Off>>8), byte(pg.Off>>16), byte(pg.Off>>24))
			buf = append(buf, pg.Data...)
		}
		return stop{
			kind:    tr.Kind,
			pc:      tr.PC,
			instrs:  rt.CPU.Instrs,
			cycles:  rt.CPU.Timing.Cycles(),
			x:       rt.CPU.X,
			sp:      rt.CPU.SP,
			memHash: string(buf),
		}
	}
	slow, fast := capture(false), capture(true)
	if slow.kind != fast.kind || slow.pc != fast.pc || slow.instrs != fast.instrs ||
		slow.cycles != fast.cycles || slow.x != fast.x || slow.sp != fast.sp {
		t.Fatalf("mid-run state diverges: slow kind=%v pc=%#x instrs=%d, fast kind=%v pc=%#x instrs=%d",
			slow.kind, slow.pc, slow.instrs, fast.kind, fast.pc, fast.instrs)
	}
	if slow.memHash != fast.memHash {
		t.Fatal("mid-run memory images diverge")
	}
}

// TestDiffSnapshotHotProc snapshots a process whose hot loop has already
// run over chain links (it parks in an RTRecv on an empty ring
// mid-program), then restores it three ways: into the same runtime (whose
// CPU still holds blocks and chain links built over the original slot),
// into a fresh fast-path runtime, and into a reference interpreter
// runtime. All three clones must resume at the correct PC with the
// snapshotted registers — the program's second loop continues the first
// loop's counter and checks the exact final value — and exit identically.
// This pins two properties at the runtime level: restores never resume
// through stale links (the clone lands in a different slot, so warm
// blocks keyed by the old pcs must not misfire), and a snapshot image is
// executor independent.
func TestDiffSnapshotHotProc(t *testing.T) {
	src := `
_start:
	// First hot loop: 2000 iterations over the loop block's chain link
	// to itself before the program parks.
	mov x19, #0
loop1:
	add x19, x19, #1
	cmp x19, #2000
	b.lt loop1
	// Paired ring: fd 3 passive (port 1), fd 4 active.
	mov x0, #2
	mov x1, #0
` + progs.RTCall(core.RTSocket) + `
	mov x0, #3
	mov x1, #1
` + progs.RTCall(core.RTBind) + `
	cbnz x0, fail
	mov x0, #2
	mov x1, #0
` + progs.RTCall(core.RTSocket) + `
	mov x0, #4
	mov x1, #1
` + progs.RTCall(core.RTConnect) + `
	cbnz x0, fail
	// Ring is empty and nobody can fill it: parks the process. This is
	// the snapshot point; x19 still holds the first loop's count.
	mov x0, #3
` + la("x1", "buf") + `	mov x2, #8
` + progs.RTCall(core.RTRecv) + `
	// Reached only in a restored clone: the wait resolves to -EPIPE.
	neg x9, x0
	cmp x9, #32
	b.ne fail
	// Second hot loop continues the snapshotted counter.
loop2:
	add x19, x19, #1
	cmp x19, #4000
	b.lt loop2
	cmp x19, #4000
	b.ne fail
	mov x0, #42
` + progs.Exit() + `
fail:
	mov x0, #70
` + progs.Exit() + `
.bss
buf:
	.space 8
`
	rt := newRT(t)
	p := blockedDeadlock(t, rt, src, 1)
	if rt.CPU.Stat.ChainHits == 0 {
		t.Fatal("hot loop never followed a chain link; the snapshot point is not downstream of chained code")
	}
	snap, err := rt.Snapshot(p)
	if err != nil {
		t.Fatal(err)
	}

	rtSlow := newRT(t)
	rtSlow.CPU.SetFastpath(false)
	for name, dst := range map[string]*Runtime{"same": rt, "fast": newRT(t), "slow": rtSlow} {
		q, err := dst.Restore(snap)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dst.Start(q)
		status, err := dst.RunProc(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if status != 42 {
			t.Errorf("%s: restored clone exited %d, want 42 (70 = wrong resume state)", name, status)
		}
	}
}

// TestDiffRestoredClone runs a restored clone under both executors. Its
// pages start as references to the snapshot's bytes and get their own on
// first touch, under whichever executor's translation caches; shareSrc's
// load–store–load on one restored page, its stores to every other page and
// its fork must leave registers, memory, instruction and cycle counts
// bit-identical, and equal to a cold load's.
func TestDiffRestoredClone(t *testing.T) {
	elf := build(t, shareSrc)
	newModelRT := func(fastpath bool) *Runtime {
		cfg := DefaultConfig()
		cfg.StackSize = 1 << 20 // shareSrc walks a 64-page stack
		cfg.Model = emu.ModelM1()
		rt := New(cfg)
		rt.CPU.SetFastpath(fastpath)
		return rt
	}
	origin := newModelRT(true)
	op, err := origin.Load(elf)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := origin.Snapshot(op)
	if err != nil {
		t.Fatal(err)
	}
	type end struct {
		instrs uint64
		cycles float64
		regs   Regs
		mem    [32]byte
	}
	park := func(rt *Runtime, p *Proc) end {
		t.Helper()
		if err := runToPark(rt, p); err != nil {
			t.Fatal(err)
		}
		return end{rt.CPU.Instrs, rt.CPU.Timing.Cycles(), p.Regs, memDigest(rt, p)}
	}
	clone := func(fastpath bool) end {
		t.Helper()
		rt := newModelRT(fastpath)
		p, err := rt.Restore(snap)
		if err != nil {
			t.Fatal(err)
		}
		return park(rt, p)
	}
	slow, fast, cold := clone(false), clone(true), park(origin, op)
	if slow != fast {
		t.Errorf("restored clone diverges between executors:\nslow=%+v\nfast=%+v", slow, fast)
	}
	if fast != cold {
		t.Errorf("restored clone diverges from the cold-loaded original:\nclone=%+v\ncold=%+v", fast, cold)
	}
}
