package lfirt

import (
	"fmt"
	"testing"

	"lfi/internal/core"
	"lfi/internal/mem"
	"lfi/internal/obs"
	"lfi/internal/progs"
	"lfi/internal/workloads"
)

// Tests for the vectored runtime call (RTVSubmit): ABI/dispatch sync,
// the ping-pong transition path with direct handoff, a conformance suite
// of negative cases mirroring ipc_conformance_test.go, mid-batch
// deadline kill, snapshot/restore of a parked batch, and wakeup
// coalescing.

// TestCallTableSync pins the dispatch table against the declarative ABI
// table: every runtime call in core.CallTable has a handler, so adding a
// call to the ABI without wiring its dispatch (or vice versa — the array
// length is enforced by the type) fails here, not at sandbox runtime.
func TestCallTableSync(t *testing.T) {
	for rc := core.RuntimeCall(0); rc < core.NumRuntimeCalls; rc++ {
		info := core.CallTable[rc]
		if info.Name == "" {
			t.Errorf("call %d: no ABI table entry", rc)
		}
		if callHandlers[rc] == nil {
			t.Errorf("%s: ABI table entry with no dispatch handler", info.Name)
		}
	}
}

// TestVSubmitPingPong runs the vectored transition workload end to end:
// two sandboxes exchange 2*batch one-byte messages per trap over a ring
// channel. Verifies both sides complete every batch in full, that the
// traffic really went through the vectored path, and that send→recv
// direct handoffs (plus blocked-side hand-backs) carried the switching.
func TestVSubmitPingPong(t *testing.T) {
	const rounds = 50
	for _, batch := range []int{1, 8} {
		t.Run(fmt.Sprintf("batch-%d", batch), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Obs = obs.New()
			rt := New(cfg)
			// Passive first so port 5 is bound before the connect.
			pp, err := rt.Load(build(t, workloads.VSubmitPing(rounds, batch, false)))
			if err != nil {
				t.Fatalf("load passive: %v", err)
			}
			pa, err := rt.Load(build(t, workloads.VSubmitPing(rounds, batch, true)))
			if err != nil {
				t.Fatalf("load active: %v", err)
			}
			if err := rt.Run(); err != nil {
				t.Fatalf("run: %v", err)
			}
			if s := pp.ExitStatus(); s != 0 {
				t.Errorf("passive exited %d, want 0 (86 = short batch)", s)
			}
			if s := pa.ExitStatus(); s != 0 {
				t.Errorf("active exited %d, want 0 (86 = short batch)", s)
			}
			// Both sides trap once per round.
			if v := rt.ipc.mVSubmits.Value(); v < 2*rounds {
				t.Errorf("vsubmits = %d, want >= %d", v, 2*rounds)
			}
			// Each round moves 2*batch ops per side (blocked attempts may
			// re-step, so this is a floor, not an exact count).
			if v := rt.ipc.mVOps.Value(); v < uint64(2*2*batch*rounds) {
				t.Errorf("vops = %d, want >= %d", v, 2*2*batch*rounds)
			}
			if h := rt.ipc.mHandoffs.Value(); h == 0 {
				t.Error("no send→recv direct handoffs recorded")
			}
			if h := rt.ipc.mHandbacks.Value(); h == 0 {
				t.Error("no direct hand-backs recorded")
			}
			// Wakeup coalescing: the handoff path bypasses the scheduler,
			// so scans must be far fewer than messages moved.
			if msgs := uint64(2 * 2 * batch * rounds); rt.WakeScans > msgs/2 {
				t.Errorf("WakeScans = %d for %d messages: coalescing broken", rt.WakeScans, msgs)
			}
		})
	}
}

// Conformance suite: negative cases driving RTVSubmit into each failure
// mode, checked exactly. Reuses the driver idiom (and marker exits) of
// ipc_conformance_test.go.

// vprog wraps a case body with the standard prologue, failure sink, a
// 4-slot submission ring, and a scratch buffer.
func vprog(body string) string {
	return "_start:\n" + body + progs.Exit() + `
fail:
	mov x0, #99
` + progs.Exit() + `
.bss
vring:
	.space 256
vbuf:
	.space 16
`
}

// vslotInit emits initialization of ring slot idx: x9 must hold the ring
// base and x10 the scratch-buffer pointer. fd is a register name.
func vslotInit(idx int, op uint64, fd string, length, flags int) string {
	off := idx * int(core.VSubmitSlotSize)
	return fmt.Sprintf(`	mov x12, #%d
	str x12, [x9, #%d]
	str %s, [x9, #%d]
	str x10, [x9, #%d]
	mov x13, #%d
	str x13, [x9, #%d]
	mov x13, #%d
	str x13, [x9, #%d]
	mov x13, #0
	str x13, [x9, #%d]
`, op, off+int(core.VOffOp), fd, off+int(core.VOffFD), off+int(core.VOffBuf),
		length, off+int(core.VOffLen), flags, off+int(core.VOffFlags),
		off+int(core.VOffStatus))
}

func vsubmitConformanceCases() []confCase {
	ringBase := la("x9", "vring") + la("x10", "vbuf")
	submit := func(n string) string {
		return la("x0", "vring") + "\tmov x1, " + n + "\n" + progs.RTCall(core.RTVSubmit)
	}
	// Status-word loads: slot i's status is at vring + i*64 + 40.
	statOff := func(i int) int { return i*int(core.VSubmitSlotSize) + int(core.VOffStatus) }

	return []confCase{
		// Ring pointer into the unmapped middle of the sandbox.
		{core.RTVSubmit, "bad-ring-pointer", vprog(`	movz x0, #0x4000, lsl #16
	mov x1, #1
` + progs.RTCall(core.RTVSubmit) + negExit), EFAULT},
		// Ring whose last slot straddles the trailing guard region: the
		// stack's final mapped bytes end at 0xFFFF4000, so a slot at
		// 0xFFFF3FE0 spans mapped and guard pages. The whole-ring
		// validation must reject it before any op runs.
		{core.RTVSubmit, "ring-straddles-guard", vprog(`	movz x0, #0xFFFF, lsl #16
	movk x0, #0x3FE0
	mov x1, #1
` + progs.RTCall(core.RTVSubmit) + negExit), EFAULT},
		// Ring extending past the 4GiB sandbox: caught by the bounds
		// check, not the page walk.
		{core.RTVSubmit, "ring-escapes-sandbox", vprog(`	movz x0, #0xFFFF, lsl #16
	movk x0, #0xFFC0
	mov x1, #2
` + progs.RTCall(core.RTVSubmit) + negExit), EFAULT},
		// Batch size zero.
		{core.RTVSubmit, "zero-batch", vprog(submit("#0") + negExit), EINVAL},
		// Batch size over VSubmitMaxOps.
		{core.RTVSubmit, "oversized-batch", vprog(submit("#65") + negExit), EINVAL},
		// Unknown op code: a per-op -EINVAL in the status word, not a
		// batch error — the call still reports one op completed.
		{core.RTVSubmit, "invalid-op", vprog(ringBase +
			vslotInit(0, 99, "x13", 0, 0) +
			submit("#1") + `	cmp x0, #1
	b.ne fail
` + la("x9", "vring") + fmt.Sprintf(`	ldr x0, [x9, #%d]
`, statOff(0)) + negExit), EINVAL},
		// Mixed batch: a valid send, a bad fd, and a bad op. The batch
		// runs to completion with exact per-op statuses.
		{core.RTVSubmit, "mixed-valid-invalid", vprog(ringPair() + ringBase +
			vslotInit(0, core.VOpSend, "x20", 4, 0) +
			"\tmov x11, #77\n" + vslotInit(1, core.VOpSend, "x11", 4, 0) +
			vslotInit(2, 99, "x11", 0, 0) +
			submit("#3") + fmt.Sprintf(`	cmp x0, #3
	b.ne fail
`+la("x9", "vring")+`	ldr x0, [x9, #%d]
	cmp x0, #4
	b.ne fail
	ldr x0, [x9, #%d]
	neg x10, x0
	cmp x10, #%d
	b.ne fail
	ldr x0, [x9, #%d]
	neg x10, x0
	cmp x10, #%d
	b.ne fail
	mov x0, #55
`, statOff(0), statOff(1), EBADF, statOff(2), EINVAL)), 55},
		// A blocking recv with VFlagNonblock: per-op -EAGAIN instead of
		// parking the batch.
		{core.RTVSubmit, "nonblock-recv-eagain", vprog(ringPair() + ringBase +
			vslotInit(0, core.VOpRecv, "x19", 4, int(core.VFlagNonblock)) +
			submit("#1") + fmt.Sprintf(`	cmp x0, #1
	b.ne fail
`+la("x9", "vring")+`	ldr x0, [x9, #%d]
`, statOff(0)) + negExit), EAGAIN},
		// Send into a full ring: per-op -EAGAIN backpressure, never a
		// park (the batch completes).
		{core.RTVSubmit, "send-backpressure", vprog(ringPair() + ringBase +
			vslotInit(0, core.VOpSend, "x20", 48, 0) +
			vslotInit(1, core.VOpSend, "x20", 32, 0) +
			submit("#2") + fmt.Sprintf(`	cmp x0, #2
	b.ne fail
`+la("x9", "vring")+`	ldr x0, [x9, #%d]
	cmp x0, #48
	b.ne fail
	ldr x0, [x9, #%d]
`, statOff(0), statOff(1)) + negExit), EAGAIN},
	}
}

func TestVSubmitConformance(t *testing.T) {
	for _, tc := range vsubmitConformanceCases() {
		t.Run(tc.name, func(t *testing.T) {
			rt := newRT(t)
			p, err := rt.Load(build(t, tc.src))
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			status, err := rt.RunProc(p)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if status != tc.want {
				t.Errorf("exit status = %d, want %d", status, tc.want)
			}
			// No runtime-state corruption: everything drains, and the same
			// runtime still serves a fresh sandbox.
			if err := rt.Run(); err != nil {
				t.Fatalf("drain: %v", err)
			}
			if n := len(rt.Procs()); n != 0 {
				t.Errorf("%d processes leaked", n)
			}
			if s := loadRun(t, rt, "_start:\n"+progs.ExitCode(42)); s != 42 {
				t.Errorf("runtime corrupted: followup sandbox exited %d, want 42", s)
			}
		})
	}
}

// TestVSubmitRingCheck pins the whole-ring validation that runs before any
// op: every page under the ring must be mapped readable and writable. The
// host plants the pages at the sandbox's otherwise unmapped 1GiB mark. In
// the two failing layouts slot 0 sits on a good page and holds a write to
// stdout, so a check that let the batch start would show as output or as
// an overwritten status word; a demand-zero page nobody has touched is as
// good as a committed one.
func TestVSubmitRingCheck(t *testing.T) {
	const arena = 0x4000_0000
	ps := uint64(core.DefaultPageSize)
	demandZero := func(rt *Runtime, addr uint64) error {
		return rt.AS.RestoreRange(addr, []mem.PageImage{{Perm: mem.PermRW}})
	}
	committed := func(perm mem.Perm) func(*Runtime, uint64) error {
		return func(rt *Runtime, addr uint64) error { return rt.AS.Map(addr, ps, perm) }
	}
	// straddle submits two slots from the last 64 bytes of the arena's
	// first page: slot 0 a one-byte write to stdout with a sentinel where
	// its status goes, slot 1 on whatever follows. It exits with the
	// call's errno, or 99 if the sentinel was overwritten.
	straddle := vprog(`	movz x9, #0x4000, lsl #16
	movk x9, #0x3fc0
` + la("x10", "vbuf") + `	mov w12, #88
	strb w12, [x10]
	mov x11, #1
` + vslotInit(0, core.VOpWrite, "x11", 1, 0) + fmt.Sprintf(`	movz x13, #0x5555
	str x13, [x9, #%d]
	mov x0, x9
	mov x1, #2
`, core.VOffStatus) + progs.RTCall(core.RTVSubmit) + fmt.Sprintf(`	ldr x12, [x9, #%d]
	movz x13, #0x5555
	cmp x12, x13
	b.ne fail
`, core.VOffStatus) + negExit)
	// zeroRing submits the arena's first 64 bytes, never written, as one
	// slot: all zeros is a nop. It exits with the completed count.
	zeroRing := vprog(`	movz x0, #0x4000, lsl #16
	mov x1, #1
` + progs.RTCall(core.RTVSubmit))

	for _, tc := range []struct {
		name  string
		src   string
		pages []func(*Runtime, uint64) error // arena pages in order; nil leaves a hole
		want  int
	}{
		{"last-slot-on-read-only-text", straddle, []func(*Runtime, uint64) error{committed(mem.PermRW), committed(mem.PermRX)}, EFAULT},
		{"last-slot-on-unmapped-guard", straddle, []func(*Runtime, uint64) error{committed(mem.PermRW), nil}, EFAULT},
		{"untouched-demand-zero-page", zeroRing, []func(*Runtime, uint64) error{demandZero}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := newRT(t)
			p, err := rt.Load(build(t, tc.src))
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			for i, mapPage := range tc.pages {
				if mapPage == nil {
					continue
				}
				if err := mapPage(rt, p.Base+arena+uint64(i)*ps); err != nil {
					t.Fatalf("arena page %d: %v", i, err)
				}
			}
			status, err := rt.RunProc(p)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if status != tc.want {
				t.Errorf("exit status = %d, want %d (99 = status word overwritten)", status, tc.want)
			}
			if out := p.Stdout(); len(out) != 0 {
				t.Errorf("stdout = %q: slot 0 ran although the ring check must fail the batch first", out)
			}
		})
	}
}

// TestVSubmitConformanceCoverage pins the suite's floor: the vectored
// call carries at least 6 negative cases.
func TestVSubmitConformanceCoverage(t *testing.T) {
	n := 0
	for _, tc := range vsubmitConformanceCases() {
		if tc.call == core.RTVSubmit {
			n++
		}
	}
	if n < 6 {
		t.Errorf("RTVSubmit: %d conformance cases, want >= 6", n)
	}
}

// vsubmitParkedSrc is a guest that parks itself mid-batch: a same-proc
// ring pair (x19 bound at port 7, x20 connected), then a 2-op batch
// whose first op is a nop and whose second is a recv on the empty ring —
// the batch parks at index 1. The code after the call only runs if the
// park is completed from the host side (deadline kill never returns;
// snapshot restore returns 1 with -EPIPE in the unfinished slot).
var vsubmitParkedSrc = vprog(ringPair() +
	la("x9", "vring") + la("x10", "vbuf") +
	vslotInit(0, core.VOpNop, "x19", 0, 0) +
	vslotInit(1, core.VOpRecv, "x19", 4, 0) +
	la("x0", "vring") + "\tmov x1, #2\n" + progs.RTCall(core.RTVSubmit) + `	cmp x0, #1
	b.ne fail
` + la("x9", "vring") + `	ldr x10, [x9, #40]
	cbnz x10, fail
	ldr x10, [x9, #104]
	neg x10, x10
	cmp x10, #32
	b.ne fail
	mov x0, #44
`)

// TestVSubmitMidBatchDeadline kills a process whose batch is parked
// mid-submission once the run budget expires, and verifies the runtime
// survives: the peer keeps running, and a fresh sandbox still loads.
func TestVSubmitMidBatchDeadline(t *testing.T) {
	rt := newRT(t)
	p, err := rt.Load(build(t, vsubmitParkedSrc))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	spinner, err := rt.Load(build(t, "_start:\nspin:\n\tb spin\n"))
	if err != nil {
		t.Fatalf("load spinner: %v", err)
	}
	_, err = rt.RunProcDeadline(p, 100_000)
	if _, ok := err.(*ErrDeadline); !ok {
		t.Fatalf("RunProcDeadline error = %v, want *ErrDeadline", err)
	}
	if p.State != ProcZombie {
		t.Errorf("parked proc state = %v after deadline kill, want zombie", p.State)
	}
	rt.KillProcess(spinner, 0)
	if s := loadRun(t, rt, "_start:\n"+progs.ExitCode(42)); s != 42 {
		t.Errorf("runtime corrupted: followup sandbox exited %d, want 42", s)
	}
}

// TestSnapshotBlockedVSubmit snapshots a process parked mid-batch and
// restores it into a fresh runtime: the restored call must return the
// completed-op count with -EPIPE in every unfinished slot (the guest
// checks both and exits 44).
func TestSnapshotBlockedVSubmit(t *testing.T) {
	rt := newRT(t)
	p := blockedDeadlock(t, rt, vsubmitParkedSrc, 1)
	snap, err := rt.Snapshot(p)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	for _, fresh := range []bool{true, false} {
		rt2 := rt
		if fresh {
			rt2 = newRT(t)
		}
		q, err := rt2.Restore(snap)
		if err != nil {
			t.Fatalf("restore (fresh=%v): %v", fresh, err)
		}
		rt2.Start(q)
		status, err := rt2.RunProc(q)
		if err != nil {
			t.Fatalf("run restored (fresh=%v): %v", fresh, err)
		}
		if status != 44 {
			t.Errorf("restored batch exited %d, want 44 (fresh=%v)", status, fresh)
		}
	}
}

// vsubmitParkedEINVALSrc parks the same batch as vsubmitParkedSrc but
// expects the host to complete the call with -EINVAL: the contract for a
// batch whose staged descriptor was tampered with while parked.
var vsubmitParkedEINVALSrc = vprog(ringPair() +
	la("x9", "vring") + la("x10", "vbuf") +
	vslotInit(0, core.VOpNop, "x19", 0, 0) +
	vslotInit(1, core.VOpRecv, "x19", 4, 0) +
	la("x0", "vring") + "\tmov x1, #2\n" + progs.RTCall(core.RTVSubmit) + fmt.Sprintf(`	neg x10, x0
	cmp x10, #%d
	b.ne fail
	mov x0, #44
`, EINVAL))

// TestVSubmitParkedHostileResize rewrites the staged descriptor of a
// parked batch and resumes it: the resume must complete the call with
// -EINVAL rather than step the rewritten batch — a widened n would let
// vstep walk status writes far outside the ring sysVSubmit validated.
func TestVSubmitParkedHostileResize(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Proc)
	}{
		{"huge-n", func(p *Proc) { p.Regs.X[1] = 1 << 62 }},
		{"zero-n", func(p *Proc) { p.Regs.X[1] = 0 }},
		{"widened-n", func(p *Proc) { p.Regs.X[1] = core.VSubmitMaxOps + 1 }},
		{"idx-past-n", func(p *Proc) { p.Regs.X[2] = 3 }},
		{"ring-resized-out", func(p *Proc) {
			p.Regs.X[0] = core.SandboxSize - core.VSubmitSlotSize
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := newRT(t)
			p := blockedDeadlock(t, rt, vsubmitParkedEINVALSrc, 1)
			tc.mutate(p)
			if done := rt.resumeVBatchParked(p); !done {
				t.Fatal("tampered batch re-parked instead of failing")
			}
			if got := p.Regs.X[0]; got != errRet(EINVAL) {
				t.Errorf("X0 = %#x, want -EINVAL", got)
			}
			if p.State != ProcReady {
				t.Errorf("state = %v, want ProcReady", p.State)
			}
		})
	}
}

// TestSnapshotTamperedVSubmit restores a snapshot whose parked batch
// descriptor was rewritten to a hostile size: Restore must complete the
// call with -EINVAL (observed by the guest) instead of back-filling 2^62
// status words through the sandbox.
func TestSnapshotTamperedVSubmit(t *testing.T) {
	rt := newRT(t)
	p := blockedDeadlock(t, rt, vsubmitParkedEINVALSrc, 1)
	p.Regs.X[1] = 1 << 62
	snap, err := rt.Snapshot(p)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	rt2 := newRT(t)
	q, err := rt2.Restore(snap)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	rt2.Start(q)
	status, err := rt2.RunProc(q)
	if err != nil {
		t.Fatalf("run restored: %v", err)
	}
	if status != 44 {
		t.Errorf("restored tampered batch exited %d, want 44 (guest saw -EINVAL)", status)
	}
}

// TestHandoffDirectReturn verifies the scalar IPC path also rides the
// transition machinery: a ring ping-pong pair must transfer control via
// send→recv handoffs and blocked-side hand-backs, not scheduler passes.
func TestHandoffDirectReturn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Obs = obs.New()
	rt := New(cfg)
	pp, err := rt.Load(build(t, workloads.RingPingPassive(100)))
	if err != nil {
		t.Fatalf("load passive: %v", err)
	}
	pa, err := rt.Load(build(t, workloads.RingPingActive(100)))
	if err != nil {
		t.Fatalf("load active: %v", err)
	}
	if err := rt.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if pp.ExitStatus() != 0 || pa.ExitStatus() != 0 {
		t.Fatalf("exits = %d/%d, want 0/0", pp.ExitStatus(), pa.ExitStatus())
	}
	if h := rt.ipc.mHandoffs.Value(); h < 90 {
		t.Errorf("handoffs = %d, want >= 90", h)
	}
	if h := rt.ipc.mHandbacks.Value(); h < 90 {
		t.Errorf("handbacks = %d, want >= 90", h)
	}
	// With the pair handing control back and forth directly, wakeup
	// scans stay far below the 200 messages exchanged.
	if rt.WakeScans > 100 {
		t.Errorf("WakeScans = %d for 200 messages: handoff not bypassing scheduler", rt.WakeScans)
	}
}

// TestWakeCoalescing pins the coalescing contract for non-IPC work: a
// sandbox making thousands of runtime calls must not trigger a wakeup
// scan per call.
func TestWakeCoalescing(t *testing.T) {
	rt := newRT(t)
	if s := loadRun(t, rt, workloads.SyscallLoop(2000)); s != 0 {
		t.Fatalf("syscall loop exited %d", s)
	}
	st := rt.Stats()
	if st.HostCalls < 2000 {
		t.Fatalf("host calls = %d, want >= 2000", st.HostCalls)
	}
	if st.WakeScans > 10 {
		t.Errorf("WakeScans = %d for %d host calls: coalescing broken", st.WakeScans, st.HostCalls)
	}
}
