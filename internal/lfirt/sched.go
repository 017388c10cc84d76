package lfirt

import (
	"errors"
	"fmt"
	"slices"

	"lfi/internal/core"
	"lfi/internal/emu"
)

// The scheduler is round-robin with preemption by instruction budget,
// standing in for the setitimer alarm of §5.3. Runtime calls are handled
// inline — no mode switch, no pagetable switch — which is where LFI's
// syscall speedup comes from.

type action uint8

const (
	actContinue action = iota // resume the same process
	actResched                // process was saved and requeued/blocked/killed
	actSwitch                 // direct switch to rt.switchTarget (yield)
)

// ErrDeadlock is returned when live processes remain but none can run.
type ErrDeadlock struct {
	Blocked int
}

func (e *ErrDeadlock) Error() string {
	return fmt.Sprintf("lfirt: deadlock: %d blocked processes and no runnable ones", e.Blocked)
}

// Run schedules processes until all of them have exited. It returns an
// error on deadlock.
func (rt *Runtime) Run() error {
	for {
		p := rt.schedNext()
		if p == nil {
			blocked := 0
			for _, q := range rt.procs {
				if q.State == ProcBlocked {
					blocked++
				}
			}
			if blocked > 0 {
				return &ErrDeadlock{Blocked: blocked}
			}
			return nil
		}
		rt.dispatch(p)
	}
}

// RunProc runs until the given process exits (other processes are
// scheduled as needed). It returns the exit status.
func (rt *Runtime) RunProc(p *Proc) (int, error) {
	for p.State != ProcZombie {
		q := rt.schedNext()
		if q == nil {
			return 0, &ErrDeadlock{}
		}
		rt.dispatch(q)
	}
	return p.Exit, nil
}

// ErrDeadline reports that a process exceeded its instruction budget and
// was killed from the host side — the serving pool's defense against
// runaway sandboxes. The runtime itself stays healthy; only the offender
// is reclaimed.
type ErrDeadline struct {
	PID    int
	Budget uint64
}

func (e *ErrDeadline) Error() string {
	return fmt.Sprintf("lfirt: pid %d exceeded its instruction budget (%d)", e.PID, e.Budget)
}

// RunProcDeadline runs like RunProc but kills p with a SIGXCPU-style
// status once the runtime has retired budget instructions while serving
// it, returning *ErrDeadline. A budget of 0 means no deadline. The
// budget covers everything retired between dispatches — for a pool
// serving one job per runtime, that is exactly the job's execution.
func (rt *Runtime) RunProcDeadline(p *Proc, budget uint64) (int, error) {
	return rt.RunProcCancel(p, budget, nil)
}

// ErrCanceled reports a run stopped because the caller's cancellation
// signal fired; the process was killed from the host side. The serving
// pool maps it onto its context-cancellation error.
var ErrCanceled = errors.New("lfirt: run canceled")

// RunProcCancel runs like RunProcDeadline but additionally stops when
// done becomes readable (a context's Done channel), killing p with a
// SIGKILL-style status and returning ErrCanceled. The signal is checked
// between scheduler dispatches — the only point where KillProcess is
// safe — so cancellation latency is bounded by one timeslice. A nil
// done never fires; a budget of 0 means no deadline.
func (rt *Runtime) RunProcCancel(p *Proc, budget uint64, done <-chan struct{}) (int, error) {
	start := rt.CPU.Instrs
	if budget != 0 {
		rt.deadline = start + budget
		defer func() { rt.deadline = 0 }()
	}
	for p.State != ProcZombie {
		select {
		case <-done:
			rt.KillProcess(p, 128+9) // "SIGKILL"
			return 0, ErrCanceled
		default:
		}
		if budget != 0 && rt.CPU.Instrs-start >= budget {
			rt.KillProcess(p, 128+24) // "SIGXCPU"
			return 0, &ErrDeadline{PID: p.PID, Budget: budget}
		}
		q := rt.schedNext()
		if q == nil {
			return 0, &ErrDeadlock{}
		}
		rt.dispatch(q)
	}
	return p.Exit, nil
}

// schedNext is pickNext plus a forced, un-hinted wakeup scan before
// giving up: the wake hint is an optimization and must never convert a
// missed wakeup into a deadlock report.
func (rt *Runtime) schedNext() *Proc {
	p := rt.pickNext()
	if p == nil {
		rt.markWake()
		p = rt.pickNext()
	}
	return p
}

// pickNext wakes any unblockable processes and pops the ready queue.
// The hand-back slot is reclaimed both before and after the wakeup scan:
// its occupant is runnable, and the scan itself can park a new one (a
// resumed batch's send completing another receiver).
func (rt *Runtime) pickNext() *Proc {
	for {
		rt.reclaimHandoff()
		rt.wakeBlocked()
		rt.reclaimHandoff()
		for len(rt.ready) > 0 {
			p := rt.ready[0]
			// Shift down in place, not ready[1:]: a queue that only
			// advances through its array reallocates every few pops.
			rt.ready = slices.Delete(rt.ready, 0, 1)
			if p.State == ProcReady {
				return p
			}
		}
		// A wakeup pass can itself re-arm the hint (a resumed batch
		// deposited bytes); rescan until the system quiesces. This
		// terminates: a re-armed hint implies bytes moved, and rings,
		// queues, and pipes are finitely full.
		if !rt.wakeHint {
			return nil
		}
	}
}

// markWake records that some state change may have unblocked a process,
// arming the next wakeBlocked scan. Deposits, closes, connects, and
// kills all mark it; N completions between dispatches then cost one
// scheduler pass instead of N.
func (rt *Runtime) markWake() { rt.wakeHint = true }

// setHandback parks p (ProcReady, regs saved) in the hand-back slot,
// requeueing any previous occupant.
func (rt *Runtime) setHandback(p *Proc) {
	if h := rt.handoff; h != nil && h != p && h.State == ProcReady {
		rt.ready = append(rt.ready, h)
	}
	rt.handoff = p
}

// takeHandoff pops the hand-back occupant if it is still runnable.
func (rt *Runtime) takeHandoff() *Proc {
	h := rt.handoff
	rt.handoff = nil
	if h == nil || h.State != ProcReady || h == rt.cur {
		return nil
	}
	return h
}

// reclaimHandoff returns the hand-back occupant to the ready queue (the
// scheduler proper is taking over, so the direct-return optimization is
// off the table for this occupant).
func (rt *Runtime) reclaimHandoff() {
	if h := rt.handoff; h != nil {
		rt.handoff = nil
		if h.State == ProcReady {
			rt.ready = append(rt.ready, h)
		}
	}
}

// blockSwitch finishes a blocking call for a process that has already
// been parked: if a hand-back target is waiting, control switches to it
// directly at yield cost — the second half of the send→recv direct
// handoff, which makes a ping-pong pair never take a scheduler pass.
func (rt *Runtime) blockSwitch(p *Proc) action {
	t := rt.takeHandoff()
	if t == nil {
		return actResched
	}
	rt.charge(rt.ticks.yieldDelta)
	rt.ipc.mHandbacks.Inc()
	rt.switchTarget = t
	return actSwitch
}

// wakeBlocked retries fd-blocked processes — readers whose pipes now
// have data or EOF, receivers whose channels filled or lost their peer,
// accepters with a pending connection, batches parked mid-RTVSubmit —
// in PID order, so which of several waiters on one pipe or port wakes
// first is the same on every run. wait()-blocked processes are woken by
// kill() directly. The scan runs only when the wake hint is armed;
// completions are coalesced.
func (rt *Runtime) wakeBlocked() {
	if !rt.wakeHint {
		return
	}
	rt.wakeHint = false
	rt.WakeScans++
	for _, p := range rt.procs {
		if p.State != ProcBlocked || p.block == blockChild {
			continue
		}
		if p.block == blockVSubmit {
			// Re-step the parked batch; a vanished fd surfaces as a
			// per-op -EBADF status inside the step, so no fd check here.
			if rt.resumeVBatchParked(p) {
				rt.ready = append(rt.ready, p)
			}
			continue
		}
		fd := p.fds.get(p.waitingFD)
		if fd == nil {
			// fd vanished: fail the operation with EBADF.
			p.Regs.X[0] = errRet(EBADF)
			rt.makeReady(p)
			continue
		}
		var n int64
		switch p.block {
		case blockRead:
			if fd.kind == fdPipeRead && fd.pipe.buf.Len() == 0 && fd.pipe.writers > 0 {
				continue // still nothing to read
			}
			// Retry the read against the saved arguments.
			n = rt.doRead(p, fd, p.Regs.X[1], p.Regs.X[2])
		case blockRecv:
			n = rt.doRecv(p, fd, p.Regs.X[1], p.Regs.X[2])
		case blockAccept:
			n = rt.doAccept(p, fd)
		default:
			continue
		}
		if n == -EAGAIN {
			continue
		}
		p.Regs.X[0] = uint64(n)
		rt.makeReady(p)
	}
}

func (rt *Runtime) makeReady(p *Proc) {
	p.State = ProcReady
	p.block = blockNone
	rt.ready = append(rt.ready, p)
}

// dispatch runs p until it blocks, exits, is preempted, or yields away.
func (rt *Runtime) dispatch(p *Proc) {
	rt.loadRegs(p)
	p.State = ProcRunning
	rt.cur = p
	rt.Switches++
	rt.mSwitches.Inc()
	rt.charge(rt.ticks.switch_)
	if rt.cfg.SpectreMitigations {
		rt.charge(rt.ticks.scxtnum)
	}

	for {
		budget := rt.runBudget()
		if budget == 0 {
			// The deadline expired mid-dispatch (e.g. across an inline
			// host call); hand control back to RunProcDeadline's check.
			rt.saveRegs(p)
			rt.makeReady(p)
			return
		}
		sliceStart := rt.CPU.Instrs
		tr := rt.CPU.Run(budget)
		rt.mSliceInstrs.Observe(rt.CPU.Instrs - sliceStart)
		switch tr.Kind {
		case emu.TrapHostCall:
			rt.HostCalls++
			rt.mHostCalls.Inc()
			act := rt.hostCall(p, tr.PC)
			switch act {
			case actContinue:
				continue
			case actSwitch:
				t := rt.switchTarget
				rt.switchTarget = nil
				rt.loadRegs(t)
				t.State = ProcRunning
				rt.cur = t
				p = t
				continue
			default:
				return
			}

		case emu.TrapBudget:
			rt.Preempts++
			rt.mPreempts.Inc()
			rt.saveRegs(p)
			rt.makeReady(p)
			rt.charge(rt.ticks.switch_)
			return

		case emu.TrapBRK:
			// brk is an abort from the sandbox's perspective.
			rt.saveRegs(p)
			rt.trapKill(p, 128+6)
			return

		case emu.TrapMemFault:
			rt.saveRegs(p)
			rt.trapKill(p, 128+11) // "SIGSEGV"
			return

		case emu.TrapSVC, emu.TrapUndefined:
			// The verifier prevents these in verified code; native code
			// run unverified can still reach them.
			rt.saveRegs(p)
			rt.trapKill(p, 128+4) // "SIGILL"
			return

		default:
			rt.saveRegs(p)
			rt.trapKill(p, 128)
			return
		}
	}
}

// runBudget is the instruction budget for the next emulator run: the
// timeslice, clamped to the remaining deadline (0 = expired).
func (rt *Runtime) runBudget() uint64 {
	b := rt.cfg.Timeslice
	if rt.deadline != 0 {
		if rt.CPU.Instrs >= rt.deadline {
			return 0
		}
		if rem := rt.deadline - rt.CPU.Instrs; rem < b {
			b = rem
		}
	}
	return b
}

func (rt *Runtime) charge(ticks int64) {
	if rt.Tim != nil {
		rt.Tim.AddTicks(ticks)
	}
}

// trapKill counts and traces a fatal sandbox trap, then kills p.
func (rt *Runtime) trapKill(p *Proc, status int) {
	rt.Traps++
	rt.mTraps.Inc()
	rt.kill(p, status)
}

// hostCall dispatches the runtime call whose entry the sandbox jumped to.
func (rt *Runtime) hostCall(p *Proc, pc uint64) action {
	off := pc - hostBase
	if off%hostCallStride != 0 || off/hostCallStride >= uint64(core.NumRuntimeCalls) {
		rt.saveRegs(p)
		rt.trapKill(p, 128+4)
		return actResched
	}
	call := core.RuntimeCall(off / hostCallStride)
	rt.charge(rt.ticks.hostCall)
	if rt.cfg.SpectreMitigations {
		// Entering and leaving the runtime each rewrite SCXTNUM_EL0 so
		// the sandbox cannot poison host branch prediction (§7.1).
		rt.charge(2 * rt.ticks.scxtnum)
	}
	return rt.syscall(p, call)
}

// resume returns control to the sandbox after a completed call: x0 holds
// the result and execution continues at the (re-guarded) return address.
func (rt *Runtime) resume(p *Proc, ret uint64) action {
	c := rt.CPU
	c.X()[0] = ret
	retPC := p.Base | (c.X()[30] & 0xffffffff)
	c.X()[30] = retPC // restore the x30 invariant before reentry
	c.PC = retPC
	return actContinue
}
