package lfirt

import (
	"encoding/binary"

	"lfi/internal/core"
	"lfi/internal/mem"
	"lfi/internal/obs"
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

// vres is the outcome of stepping a batch.
type vres int

const (
	vDone    vres = iota // every op completed; statuses written
	vBlocked             // op at the returned index would block
	vFault               // the ring became unreadable/unwritable
)

// vslot is the decoded input half of one submission slot.
type vslot struct {
	op, fd, buf, len, flags uint64
}

// vreadSlot decodes slot i of the ring at sandbox pointer ring.
func (rt *Runtime) vreadSlot(p *Proc, ring, i uint64) (vslot, bool) {
	var b [core.VOffStatus]byte
	addr := p.maskPtr(ring) + i*core.VSubmitSlotSize
	if f := rt.AS.ReadAt(b[:], addr); f != nil {
		return vslot{}, false
	}
	return vslot{
		op:    binary.LittleEndian.Uint64(b[core.VOffOp:]),
		fd:    binary.LittleEndian.Uint64(b[core.VOffFD:]),
		buf:   binary.LittleEndian.Uint64(b[core.VOffBuf:]),
		len:   binary.LittleEndian.Uint64(b[core.VOffLen:]),
		flags: binary.LittleEndian.Uint64(b[core.VOffFlags:]),
	}, true
}

// vputStatus writes slot i's status word.
func (rt *Runtime) vputStatus(p *Proc, ring, i uint64, status int64) bool {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(status))
	addr := p.maskPtr(ring) + i*core.VSubmitSlotSize + core.VOffStatus
	return rt.AS.WriteAt(b[:], addr) == nil
}

// vstep executes ops idx..n-1 of p's submission ring. It is CPU-state
// free — arguments come from the decoded slots, results go to the status
// words — so the same engine serves the trap path, the wakeup scan, and
// the send-side completion of a parked receiver. Returns the index of
// the first unfinished op, the fd of a blocking op, and the outcome.
func (rt *Runtime) vstep(p *Proc, ring, n, idx uint64) (uint64, int, vres) {
	for ; idx < n; idx++ {
		sl, ok := rt.vreadSlot(p, ring, idx)
		if !ok {
			return idx, 0, vFault
		}
		rt.charge(rt.CostVOp)
		rt.ipc.mVOps.Inc()
		var status int64
		blocked := false
		fdn := int(int32(uint32(sl.fd)))
		switch sl.op {
		case core.VOpNop:
			status = 0
		case core.VOpWrite:
			status = rt.sysWrite(p, sl.fd, sl.buf, sl.len)
		case core.VOpRead:
			if fd := p.fds.get(fdn); fd == nil {
				status = -EBADF
			} else {
				status = rt.doRead(p, fd, sl.buf, sl.len)
				blocked = status == -EAGAIN
			}
		case core.VOpSend:
			// Ring-full backpressure is a per-op -EAGAIN, never a park:
			// the guest retries the send, exactly as the scalar call.
			status = rt.vsend(p, fdn, sl.buf, sl.len)
		case core.VOpRecv:
			if fd := p.fds.get(fdn); fd == nil {
				status = -EBADF
			} else {
				status = rt.doRecv(p, fd, sl.buf, sl.len)
				blocked = status == -EAGAIN
			}
		default:
			status = -EINVAL // unknown op: fail the slot, not the batch
		}
		if blocked && sl.flags&core.VFlagNonblock == 0 {
			return idx, fdn, vBlocked
		}
		if !rt.vputStatus(p, ring, idx, status) {
			return idx, 0, vFault
		}
	}
	return n, 0, vDone
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
	rt.tracer.Record(obs.Event{Kind: obs.EvSend, Worker: rt.cfg.ObsTag, PID: p.PID, Arg: uint64(sent)})
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
// X[0]=ring, X[1]=n, X[2]=resume index). Returns true when the batch
// finished and t is ProcReady — left unqueued, like completeWaiter. t's
// blocked state is cleared while stepping so deposits made by its own
// send ops can never re-select it as a receive waiter.
func (rt *Runtime) resumeVBatchParked(t *Proc) bool {
	ring, n, idx := t.Regs.X[0], t.Regs.X[1], t.Regs.X[2]
	t.block = blockNone
	if !vbatchValid(ring, n, idx) {
		t.Regs.X[0] = errRet(EINVAL)
		t.State = ProcReady
		return true
	}
	nidx, fdn, res := rt.vstep(t, ring, n, idx)
	switch res {
	case vBlocked:
		t.block = blockVSubmit
		t.Regs.X[2] = nidx
		t.waitingFD = fdn
		return false
	case vFault:
		t.Regs.X[0] = errRet(EFAULT)
	default:
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
	off := ring & 0xffffffff
	size := n * core.VSubmitSlotSize
	if off+size > core.SandboxSize {
		return rt.resume(p, errRet(EFAULT))
	}
	// Validate the whole ring once per batch: every page it touches must
	// be mapped readable and writable. A ring overlapping an unmapped
	// guard region or read-only text fails here, before any op runs, and
	// no later slot read or status write can fault.
	if !rt.AS.Mapped(p.maskPtr(ring), size, mem.PermRW) {
		return rt.resume(p, errRet(EFAULT))
	}
	rt.ipc.mVSubmits.Inc()
	idx, fdn, res := rt.vstep(p, ring, n, 0)
	switch res {
	case vBlocked:
		rt.block(p, blockVSubmit, fdn, ring, n, idx)
		return rt.blockSwitch(p)
	case vFault:
		return rt.resume(p, errRet(EFAULT))
	}
	return rt.resume(p, n)
}
