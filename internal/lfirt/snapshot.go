package lfirt

import (
	"encoding/binary"
	"fmt"

	"lfi/internal/core"
	"lfi/internal/mem"
)

// Sandbox snapshot/restore: the serving-path counterpart of fork (§5.3).
// fork clones a live sandbox into a sibling slot of the same address
// space; Restore clones a *saved* sandbox into a fresh slot — of this
// runtime or any other with the same page size — rebasing the
// address-bearing registers exactly the way fork does. Because LFI guards
// replace the top 32 bits of every sandboxed pointer at each use, a
// sandbox image is position-independent across slots, which is what makes
// a snapshot restorable anywhere.

// Snapshot is an immutable image of one process: every mapped page of its
// sandbox (stored base-relative, with all-zero pages deduplicated) plus
// the register file and the per-process runtime state. A snapshot may be
// restored any number of times, concurrently into different runtimes.
// Restored pages alias the snapshot's bytes — every tenant running the
// image reads the same text — which is safe because mem never lets a page
// write bytes it shares: it gets private ones first (the sharing invariant,
// stated on mem's page type).
type Snapshot struct {
	pages    []mem.PageImage
	regs     Regs
	brk      uint64
	mmap     uint64
	segHi    uint64
	pageSize uint64
	// blocked records what the process was waiting on when snapshotted
	// (blockNone for a runnable process). Descriptors are not part of a
	// snapshot, so a restore cannot resurrect the wait; Restore instead
	// completes the parked call with a defined error (see Restore).
	blocked blockKind
}

// Pages reports how many pages the snapshot holds (for diagnostics).
func (s *Snapshot) Pages() int { return len(s.pages) }

// Snapshot captures p's current state, taking its pages' bytes rather than
// copying them; p runs on, under the same invariant. It must be quiescent —
// not currently executing — and must not have forked children (their
// shared descriptors cannot be saved coherently). Snapshotting a process
// right after LoadExecutable, before it runs, always satisfies both.
func (rt *Runtime) Snapshot(p *Proc) (*Snapshot, error) {
	switch {
	case p.State == ProcZombie:
		return nil, fmt.Errorf("lfirt: cannot snapshot a zombie process")
	case p.State == ProcRunning:
		return nil, fmt.Errorf("lfirt: cannot snapshot the running process")
	case len(p.children) != 0:
		return nil, fmt.Errorf("lfirt: cannot snapshot a process with live children")
	}
	pages, err := rt.AS.SnapshotRange(p.Base, core.SandboxSize)
	if err != nil {
		return nil, fmt.Errorf("lfirt: snapshot: %w", err)
	}
	return &Snapshot{
		pages:    pages,
		regs:     p.Regs,
		brk:      p.brk,
		mmap:     p.mmap,
		segHi:    p.segHi,
		pageSize: rt.cfg.PageSize,
		blocked:  p.block,
	}, nil
}

// Restore maps a snapshot into a fresh sandbox slot, by reference — its
// cost follows the snapshot's page count, not its bytes — and returns the
// new process. The process is *parked*: it exists in the process
// table with its memory mapped and registers staged, but is not scheduled
// until Start — which is what lets a serving pool keep warm, pre-restored
// sandboxes waiting for requests. Restore skips verification: the pages
// were verified when the snapshotted image was first loaded, and the
// snapshot is immutable.
func (rt *Runtime) Restore(s *Snapshot) (*Proc, error) {
	if s.pageSize != rt.cfg.PageSize {
		return nil, fmt.Errorf("lfirt: snapshot page size %d does not match runtime page size %d",
			s.pageSize, rt.cfg.PageSize)
	}
	slot, err := rt.allocSlot()
	if err != nil {
		return nil, err
	}
	base := core.SlotBase(slot)
	if err := rt.AS.RestoreRange(base, s.pages); err != nil {
		rt.releaseSlot(slot) // drop any partial restore
		return nil, fmt.Errorf("lfirt: restore: %w", err)
	}
	// The context heap-base word in the call-table page still holds the
	// snapshotted slot's base; repoint it at this slot.
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], base)
	rt.AS.WriteForce(b[:], base+core.CtxHeapBaseOff)

	p := &Proc{
		PID:    rt.nextPID,
		Slot:   slot,
		Base:   base,
		State:  ProcReady,
		brk:    s.brk,
		mmap:   s.mmap,
		segHi:  s.segHi,
		parked: true,
	}
	p.fds = newFDTable(rt.console(&p.stdout, &rt.stdout), rt.console(&p.stderr, &rt.stderr))
	rt.nextPID++

	// Rebase exactly the registers fork rebases; the guards mask the rest.
	rebase := func(v uint64) uint64 { return base | (v & 0xffffffff) }
	p.Regs = s.regs
	p.Regs.X[18] = rebase(p.Regs.X[18])
	p.Regs.X[21] = base
	p.Regs.X[23] = rebase(p.Regs.X[23])
	p.Regs.X[24] = rebase(p.Regs.X[24])
	p.Regs.X[30] = rebase(p.Regs.X[30])
	p.Regs.SP = rebase(p.Regs.SP)
	p.Regs.PC = rebase(p.Regs.PC)

	// A process snapshotted while blocked (in RTRead/RTRecv/RTAccept or
	// RTWait) held a descriptor or child that does not exist in the fresh
	// runtime. Its PC is already at the call's return point with the
	// arguments staged; complete the call with a defined error rather
	// than letting it resume against a stale fd: -EPIPE for channel and
	// pipe waits (the peer is gone — reconnect), -ECHILD for wait().
	switch s.blocked {
	case blockNone:
	case blockChild:
		p.Regs.X[0] = errRet(ECHILD)
	case blockVSubmit:
		// A batch parked mid-RTVSubmit has its ring pointer, size, and
		// resume index staged in X[0..2]. The blocking op's peer is gone,
		// so complete the batch with the scalar calls' -EPIPE contract
		// applied per op: every unfinished slot gets -EPIPE in its status
		// word and the call returns the number of ops that completed.
		// The staged descriptor comes from the snapshot, not from a live
		// sysVSubmit, so re-validate it: a tampered image with a huge n
		// would otherwise drive the -EPIPE back-fill far past the ring.
		ring, n, idx := p.Regs.X[0], p.Regs.X[1], p.Regs.X[2]
		if !vbatchValid(ring, n, idx) {
			p.Regs.X[0] = errRet(EINVAL)
			break
		}
		if s, ok := rt.vring(p, ring, n); ok {
			for i := idx; i < n; i++ {
				rt.vputStatus(s, i, -EPIPE)
			}
		}
		p.Regs.X[0] = idx
	default:
		p.Regs.X[0] = errRet(EPIPE)
	}

	rt.procs = append(rt.procs, p)
	return p, nil
}

// Start schedules a parked (restored) process. Processes created by Load
// are scheduled automatically; Start on them is a no-op.
func (rt *Runtime) Start(p *Proc) {
	if !p.parked || p.State != ProcReady {
		return
	}
	p.parked = false
	rt.ready = append(rt.ready, p)
}
