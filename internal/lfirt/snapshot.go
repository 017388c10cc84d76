package lfirt

import (
	"debug/elf"
	"encoding/binary"
	"fmt"
	"sort"

	"lfi/internal/core"
	"lfi/internal/elfobj"
	"lfi/internal/mem"
	"lfi/internal/verifier"
)

// A Snapshot is the one thing a process is made from (§5.3). NewSnapshot
// lays out a verified executable, Runtime.Snapshot and fork save a live
// process, and restore maps either into a fresh slot of any runtime with
// the same page size, rebasing the address-bearing registers. Load is
// NewSnapshot then Restore; fork is a save of the parent then a restore
// into a sibling slot. Because LFI guards replace the top 32 bits of
// every sandboxed pointer at each use, a sandbox image is
// position-independent across slots, which is what makes a snapshot
// restorable anywhere.

// Snapshot is an immutable image of one process: every mapped page of its
// sandbox (stored base-relative, with all-zero pages deduplicated) plus
// the register file and the per-process runtime state. A snapshot may be
// restored any number of times, concurrently into different runtimes.
// Restored pages alias the snapshot's bytes — every tenant running the
// image reads the same text — which is safe because mem never lets a page
// write bytes it shares: it gets private ones first (the sharing invariant,
// stated on mem's page type). Its fields are unexported, so every Snapshot
// holds either verified text (NewSnapshot) or a live process's memory.
type Snapshot struct {
	pages    []mem.PageImage
	regs     Regs
	brk      uint64
	mmap     uint64
	segHi    uint64
	pageSize uint64
	// blocked records what the process was waiting on when snapshotted
	// (blockNone for a runnable process). Descriptors are not part of a
	// snapshot, so a restore cannot resurrect the wait; restore instead
	// completes the parked call with a defined error (see restore).
	blocked blockKind
}

// NewSnapshot verifies exe (iff cfg.Verify) and lays it out as the
// snapshot of a process that has not yet run: the call-table page, the
// segments and a demand-zero stack, with the registers at the entry point
// of slot 0 and the heap-base word left for restore to write. Every check
// on the layout is made here, before any runtime gives it a slot.
func NewSnapshot(cfg Config, exe *elfobj.Executable) (*Snapshot, error) {
	cfg = cfg.withDefaults()
	text, err := exe.TextSegment()
	if err != nil {
		return nil, err
	}
	if cfg.Verify {
		vcfg := cfg.VerifierCfg
		vcfg.TextOff = text.Vaddr
		cfg.Obs.Registry().Counter("rt.verifies").Inc()
		if _, err := verifier.Verify(text.Data, vcfg); err != nil {
			return nil, fmt.Errorf("lfirt: %w: %w", ErrVerify, err)
		}
	}
	if cfg.StackSize%cfg.PageSize != 0 || cfg.StackSize > core.StackTopOff {
		return nil, fmt.Errorf("lfirt: stack size %#x is not a page multiple below %#x", cfg.StackSize, core.StackTopOff)
	}
	s := &Snapshot{mmap: core.SandboxSize / 2, pageSize: cfg.PageSize} // mmap arena in the upper half

	// Call-table page: read-only, entries point at the host-call region.
	// Then the context words used by the Wasm-baseline instrumentation (no
	// secrets: the sandbox base, which restore writes, and a type tag; see
	// internal/wasmbase).
	table := make([]byte, core.CtxTypeTagOff+8)
	for rc := core.RuntimeCall(0); rc < core.NumRuntimeCalls; rc++ {
		binary.LittleEndian.PutUint64(table[rc.TableOffset():], hostBase+uint64(rc)*hostCallStride)
	}
	binary.LittleEndian.PutUint64(table[core.CtxTypeTagOff:], core.CtxTypeTag)
	s.addPages(0, core.CallTableSize, mem.PermRead, table)

	const limit = core.SandboxSize - core.GuardSize
	for _, seg := range exe.Segments {
		if seg.Vaddr < core.MinCodeOffset {
			return nil, fmt.Errorf("lfirt: segment at %#x below the code region", seg.Vaddr)
		}
		if seg.MemSize > limit || seg.Vaddr > limit-seg.MemSize {
			return nil, fmt.Errorf("lfirt: segment at %#x overflows the sandbox", seg.Vaddr)
		}
		if uint64(len(seg.Data)) > seg.MemSize {
			return nil, fmt.Errorf("lfirt: segment at %#x holds more data than its size", seg.Vaddr)
		}
		perm := mem.PermRead
		if seg.Flags&elf.PF_W != 0 {
			perm |= mem.PermWrite
		}
		if seg.Flags&elf.PF_X != 0 {
			perm = mem.PermRX // W^X: never writable and executable
		}
		n := len(s.pages)
		if s.addPages(seg.Vaddr, seg.MemSize, perm, seg.Data); len(s.pages) == n {
			return nil, fmt.Errorf("lfirt: segment at %#x maps no page", seg.Vaddr)
		}
		s.segHi = max(s.segHi, seg.Vaddr+seg.MemSize)
	}
	s.segHi = (s.segHi + cfg.PageSize - 1) &^ (cfg.PageSize - 1)
	s.brk = s.segHi

	// Stack: below the trailing guard region.
	s.addPages(core.StackTopOff-cfg.StackSize, cfg.StackSize, mem.PermRW, nil)
	sort.Slice(s.pages, func(i, j int) bool { return s.pages[i].Off < s.pages[j].Off })
	for i := 1; i < len(s.pages); i++ {
		if s.pages[i].Off == s.pages[i-1].Off {
			return nil, fmt.Errorf("lfirt: the page at %#x is mapped twice", s.pages[i].Off)
		}
	}

	// The always-valid registers start at the entry point.
	e := exe.Entry
	s.regs.PC, s.regs.SP = e, core.StackTopOff
	s.regs.X[18], s.regs.X[23], s.regs.X[24], s.regs.X[30] = e, e, e, e
	return s, nil
}

// addPages appends the images of the pages covering [off, off+size), whose
// first len(data) bytes are data and the rest zeros. A page with no
// non-zero byte gets a nil (demand-zero) image, as Snapshot would give it.
func (s *Snapshot) addPages(off, size uint64, perm mem.Perm, data []byte) {
	ps := s.pageSize
	for po := off &^ (ps - 1); po < off+size; po += ps {
		pi := mem.PageImage{Off: po, Perm: perm}
		lo, hi := max(po, off), min(po+ps, off+uint64(len(data)))
		if lo < hi && !mem.AllZero(data[lo-off:hi-off]) {
			pi.Data = make([]byte, ps)
			copy(pi.Data[lo-po:], data[lo-off:hi-off])
		}
		s.pages = append(s.pages, pi)
	}
}

// Pages reports how many pages the snapshot holds (for diagnostics).
func (s *Snapshot) Pages() int { return len(s.pages) }

// Snapshot captures p's current state, taking its pages' bytes rather than
// copying them; p runs on, under the same invariant. It must be quiescent —
// not currently executing — and must not have forked children (their
// shared descriptors cannot be saved coherently). Snapshotting a process
// right after Load, before it runs, always satisfies both.
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
// sandboxes waiting for requests. Restore does not verify: a Snapshot
// holds text that NewSnapshot verified or that a live process runs, and is
// immutable.
func (rt *Runtime) Restore(s *Snapshot) (*Proc, error) { return rt.restore(s, nil) }

// restore is Restore for a child of parent, or for no one's child when
// parent is nil: a child shares its parent's descriptors, any other
// process gets fresh consoles. It points the heap-base context word at
// the new slot and rebases the address-bearing registers into it; the
// guards mask the rest.
func (rt *Runtime) restore(s *Snapshot, parent *Proc) (*Proc, error) {
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
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], base)
	rt.AS.WriteForce(b[:], base+core.CtxHeapBaseOff)

	p := &Proc{
		PID:    rt.nextPID,
		Slot:   slot,
		Base:   base,
		State:  ProcReady,
		parent: parent,
		brk:    s.brk,
		mmap:   s.mmap,
		segHi:  s.segHi,
		parked: true,
	}
	if parent != nil {
		p.fds = parent.fds.clone()
	} else {
		p.fds = newFDTable(rt.console(&p.stdout, &rt.stdout), rt.console(&p.stderr, &rt.stderr))
	}
	rt.nextPID++

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

// Start schedules a parked (restored) process. Load and fork start the
// processes they make; Start on them is a no-op.
func (rt *Runtime) Start(p *Proc) {
	if !p.parked || p.State != ProcReady {
		return
	}
	p.parked = false
	rt.ready = append(rt.ready, p)
}
