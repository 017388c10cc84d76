package lfirt

import (
	"encoding/binary"

	"lfi/internal/core"
	"lfi/internal/mem"
)

// Vectored runtime calls (RTVSubmit): the near-zero-cost transition
// machinery. A sandbox describes a batch of I/O/IPC operations in a
// fixed-layout submission ring inside its own memory and traps once; the
// runtime validates the whole ring against the sandbox bounds a single
// time, executes the ops in order, and writes a status word back into
// each slot, so partial failure is per-op and well-defined. Ops that
// would block park the *batch* (blockVSubmit) with the resume index
// staged; the batch is re-stepped in place by the wakeup scan or by a
// peer's send completing the blocked receive — no per-op traps, and the
// send→recv direct handoff amortizes the remaining transition cost.
//
// ABI: RTVSubmit(ring, n) → n (ops completed), -EINVAL (bad batch size),
// or -EFAULT (ring outside the sandbox or overlapping a guard region; or
// a parked batch restored from a snapshot, which returns the completed
// count with -EPIPE in every unfinished slot — see Restore). Per-op
// statuses are bytes moved or -errno; an invalid op code is a per-op
// -EINVAL, not a batch error. A blocking op with VFlagNonblock set gets
// a per-op -EAGAIN instead of parking the batch.

// vputStatus writes slot i's status word into a resolved ring, where it
// lies unless it crosses a page.
func (rt *Runtime) vputStatus(ring span, i uint64, status int64) {
	off := i*core.VSubmitSlotSize + core.VOffStatus
	if off+8 <= uint64(len(ring.head)) {
		binary.LittleEndian.PutUint64(ring.head[off:], uint64(status))
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(status))
	rt.copyIn(ring, off, b[:])
}

// vring resolves a batch's whole ring, writable and so readable, once
// per step: a ring overlapping an unmapped guard region or read-only text
// fails here, before any op runs, and no slot read or status write can
// fault after.
func (rt *Runtime) vring(p *Proc, ring, n uint64) (span, bool) {
	return rt.span(p, ring, n*core.VSubmitSlotSize, mem.AccessWrite)
}

// vstep executes ops idx..n-1 of p's resolved submission ring. It is
// CPU-state free — arguments come from the decoded slots, results go to
// the status words — so the same engine serves the trap path, the wakeup
// scan, and the send-side completion of a parked receiver. Returns the
// index of the first unfinished op, the fd of a blocking op, and whether
// that op blocked.
func (rt *Runtime) vstep(p *Proc, ring span, n, idx uint64) (uint64, int, bool) {
	le := binary.LittleEndian
	for ; idx < n; idx++ {
		// Decode the slot's input half where it lies (through a copy if
		// it crosses a page) into locals, before the op can overwrite
		// it: a five-word struct would go through memory.
		off := idx * core.VSubmitSlotSize
		sl := ring.head[min(off, uint64(len(ring.head))):]
		if len(sl) < int(core.VOffStatus) {
			var c [core.VOffStatus]byte
			rt.copyOut(c[:], ring, off)
			sl = c[:]
		}
		op, fdw, buf := le.Uint64(sl[core.VOffOp:]), le.Uint64(sl[core.VOffFD:]), le.Uint64(sl[core.VOffBuf:])
		size, flags := le.Uint64(sl[core.VOffLen:]), le.Uint64(sl[core.VOffFlags:])
		rt.charge(rt.ticks.vop)
		rt.ipc.mVOps.Inc()
		var status int64
		blocked := false
		fdn := int(int32(uint32(fdw)))
		switch op {
		case core.VOpNop:
			status = 0
		case core.VOpWrite:
			status = rt.sysWrite(p, fdw, buf, size)
		case core.VOpRead:
			if fd := p.fds.get(fdn); fd == nil {
				status = -EBADF
			} else {
				status = rt.doRead(p, fd, buf, size)
				blocked = status == -EAGAIN
			}
		case core.VOpSend:
			// Ring-full backpressure is a per-op -EAGAIN, never a park:
			// the guest retries the send, exactly as the scalar call.
			status = rt.vsend(p, fdn, buf, size)
		case core.VOpRecv:
			if fd := p.fds.get(fdn); fd == nil {
				status = -EBADF
			} else {
				status = rt.doRecv(p, fd, buf, size)
				blocked = status == -EAGAIN
			}
		default:
			status = -EINVAL // unknown op: fail the slot, not the batch
		}
		if blocked && flags&core.VFlagNonblock == 0 {
			return idx, fdn, true
		}
		rt.vputStatus(ring, idx, status)
	}
	return n, 0, false
}

// vsend is VOpSend: a doSend deposit plus the handoff bookkeeping. A
// completed receiver does not get switched to mid-batch — it becomes the
// hand-back target, so the batch finishes first and control transfers
// when the submitter next blocks (or via the scheduler).
func (rt *Runtime) vsend(p *Proc, fdn int, ptr, n uint64) int64 {
	fd := p.fds.get(fdn)
	if fd == nil {
		return -EBADF
	}
	sent, dst := rt.doSend(p, fd, ptr, n)
	if sent < 0 {
		if sent == -EAGAIN {
			rt.ipc.mBackpressure.Inc()
		}
		return sent
	}
	rt.ipc.mSends.Inc()
	if sent > 0 {
		if t := rt.findRecvWaiter(dst); t != nil && rt.completeWaiter(t) {
			rt.ipc.mHandoffs.Inc()
			rt.setHandback(t)
		}
	}
	return sent
}

// vbatchValid reports whether a parked batch descriptor (ring, n, idx)
// is one sysVSubmit could have staged: a nonzero batch within the op
// limit, the whole ring inside the sandbox, and a resume index that has
// not run past the end. Resume paths re-read the descriptor from guest
// registers, so a snapshot restored with a tampered X[1] (or any other
// rewrite of the staged state while parked) must fail here rather than
// widen the batch — n*VSubmitSlotSize with a hostile n would otherwise
// let vstep walk status writes far outside the ring.
func vbatchValid(ring, n, idx uint64) bool {
	if n == 0 || n > core.VSubmitMaxOps || idx > n {
		return false
	}
	return (ring&0xffffffff)+n*core.VSubmitSlotSize <= core.SandboxSize
}

// resumeVBatchParked re-steps a parked vectored batch (staged state:
// X[0]=ring, X[1]=n, X[2]=resume index), resolving its ring afresh.
// Returns true when the batch finished and t is ProcReady — left
// unqueued, like completeWaiter. t's blocked state is cleared while
// stepping so deposits made by its own send ops can never re-select it
// as a receive waiter.
func (rt *Runtime) resumeVBatchParked(t *Proc) bool {
	ring, n, idx := t.Regs.X[0], t.Regs.X[1], t.Regs.X[2]
	t.block = blockNone
	if !vbatchValid(ring, n, idx) {
		t.Regs.X[0] = errRet(EINVAL)
	} else if s, ok := rt.vring(t, ring, n); !ok {
		t.Regs.X[0] = errRet(EFAULT)
	} else if nidx, fdn, blocked := rt.vstep(t, s, n, idx); blocked {
		t.block = blockVSubmit
		t.Regs.X[2] = nidx
		t.waitingFD = fdn
		return false
	} else {
		t.Regs.X[0] = n
	}
	t.State = ProcReady
	return true
}

// sysVSubmit is the RTVSubmit(ring, n) trap entry.
func (rt *Runtime) sysVSubmit(p *Proc, ring, n uint64) action {
	if n == 0 || n > core.VSubmitMaxOps {
		return rt.resume(p, errRet(EINVAL))
	}
	s, ok := rt.vring(p, ring, n)
	if !ok {
		return rt.resume(p, errRet(EFAULT))
	}
	rt.ipc.mVSubmits.Inc()
	if idx, fdn, blocked := rt.vstep(p, s, n, 0); blocked {
		rt.block(p, blockVSubmit, fdn, ring, n, idx)
		return rt.blockSwitch(p)
	}
	return rt.resume(p, n)
}
