// Predecoded basic-block fast path.
//
// The per-step interpreter (Step) pays for a host-call range check, a PC
// alignment check, an icache map lookup, and full timing-metadata
// classification on every instruction. The fast path amortises all of that
// to block boundaries, with three mechanisms that are always on together:
//
//   - Predecode: straight-line runs are decoded once into flat blocks
//     whose slots carry the decoded instruction plus its cached retire
//     metadata, and a tight inner loop executes the slots back to back.
//     Blocks end at anything that can redirect or stop the flow: branches,
//     SVC, BRK, undecodable words, page boundaries (the next page may be
//     unmapped or remapped independently), and the host-call window.
//
//   - Direct block chaining: when a block exit leads to a block that is
//     already predecoded, a direct pointer is patched into the exiting
//     block's chain slots, keyed by the observed next PC. Dispatch then
//     jumps block-to-block without re-hashing the PC or re-running the
//     host-call/alignment checks — both were proven when the link was
//     installed (the window only changes via SetHostCallRegion, which
//     flushes; the target PC is a constant). Links are validated on use
//     by comparing the target's pc (conflict eviction refills entries),
//     so a stale link can only miss, never misdirect.
//
//   - Guard-idiom fusion (fuse.go) runs at predecode time: the rewriter's
//     staged-address guard sequences are marked so the dispatch loop
//     executes them through specialised accessors instead of the general
//     exec switch.
//
// Equivalence with the slow path is exact, not approximate:
//   - exec() itself is shared (the fused executors replicate its
//     load/store semantics instruction for instruction and still write
//     every intermediate register), so architectural state transitions
//     are identical.
//   - retire metadata is model-independent (scoreboard slots + latency
//     class); retireWith runs the identical arithmetic in the identical
//     order as per-step retire, so Timing.Cycles() is bit-identical.
//   - the instruction budget is applied with exact carry-in: blocks are
//     clipped to the remaining budget (fused pairs split when the clip
//     lands between them), so TrapBudget lands on the same instruction as
//     the slow loop.
//
// The block cache is keyed by sandbox slot as well as in-slot offset
// (bcIndex): sandboxes that run code at the same offset — a yield pair, two
// clones of one image — keep their blocks, and with them their chain links,
// across every switch.
//
// All caches here (block cache, chain links, page-translation caches, the
// slow path's icache) are guarded by the AddrSpace epoch, which bumps on
// any mapping mutation or host-side forced write. The chained inner loop
// checks the epoch only at outer dispatches: mappings cannot mutate during
// a single Run call, because every mutation path (host calls, the
// scheduler, snapshot restore) first returns a trap out of Run.
package emu

import (
	"encoding/binary"

	"lfi/internal/arm64"
	"lfi/internal/mem"
)

const (
	// bcacheSize is the number of direct-mapped block cache entries.
	bcacheSize = 512
	// bcSlotStride spaces the sandbox slots' images of one in-slot offset
	// across the block cache: bcacheSize over the golden ratio, odd, so
	// any run of consecutive slots lands on distinct, well-separated
	// entries.
	bcSlotStride = 317
	// maxBlockInsts caps block length so one block cannot monopolise
	// a budget slice's granularity beyond a page of straight-line code.
	maxBlockInsts = 512
	// tcacheSize is the number of direct-mapped page-translation entries
	// per access kind. Sized to cover a multi-MiB working set of 16KiB
	// pages: pointer-chasing workloads (505.mcf) touch hundreds of pages
	// and previously thrashed a 64-entry cache straight into the
	// AddrSpace map lookup.
	tcacheSize = 512
	// chainWays is the number of chain links per block: two covers both
	// arms of a conditional branch (and memoizes up to two indirect
	// targets).
	chainWays = 2
)

// instSlot is one predecoded instruction plus its cached retire metadata
// and fusion mark.
type instSlot struct {
	inst arm64.Inst
	meta retireMeta
	fuse fuseInfo
}

// bcEntry is a direct-mapped block cache entry; valid iff len(insts) > 0
// (pc alone cannot mark validity: 0 is a decodable address).
type bcEntry struct {
	pc    uint64
	insts []instSlot

	// Chain links: resolved successor blocks keyed by the next PC.
	// Validated on use (target pc + validity), so conflict eviction of
	// the target is detected, never followed.
	chainPC  [chainWays]uint64
	chainTo  [chainWays]*bcEntry
	chainClk uint8
}

// reset invalidates e and clears its chain links for reuse at pc.
func (e *bcEntry) reset(pc uint64) {
	e.pc = pc
	e.insts = e.insts[:0]
	e.chainPC = [chainWays]uint64{}
	e.chainTo = [chainWays]*bcEntry{}
	e.chainClk = 0
}

// bcIndex is the block cache entry for pc: the word offset displaced by
// the slot number (pc>>32) times bcSlotStride.
func bcIndex(pc uint64) uint64 {
	return (pc>>2 + (pc>>32)*bcSlotStride) & (bcacheSize - 1)
}

// chainNext returns the already-validated successor block for pc, or nil.
// A link whose target was evicted (pc mismatch) or flushed (empty) is
// dropped so the slot can be reused.
func (e *bcEntry) chainNext(pc uint64) *bcEntry {
	for i := range e.chainTo {
		if t := e.chainTo[i]; t != nil && e.chainPC[i] == pc {
			if t.pc == pc && len(t.insts) > 0 {
				return t
			}
			e.chainTo[i] = nil
		}
	}
	return nil
}

// chain installs t as the successor for pc, replacing round-robin when
// both ways are taken.
func (e *bcEntry) chain(pc uint64, t *bcEntry) {
	for i := range e.chainTo {
		if e.chainTo[i] == nil || e.chainPC[i] == pc {
			e.chainPC[i], e.chainTo[i] = pc, t
			return
		}
	}
	i := int(e.chainClk) % chainWays
	e.chainClk++
	e.chainPC[i], e.chainTo[i] = pc, t
}

// tcEntry caches the backing slice of one translated page for one access
// kind; valid iff data != nil (page index 0 is a real page).
type tcEntry struct {
	idx  uint64
	data []byte
}

// memRead is AddrSpace.Read with a direct-mapped translation cache in
// front: a hit turns the region walk into two compares plus a load.
func (c *CPU) memRead(addr uint64, size int) (uint64, *mem.Fault) {
	idx := addr >> c.pageShift
	e := &c.tcRead[idx&(tcacheSize-1)]
	if e.idx != idx || e.data == nil {
		c.Stat.TCReadMisses++
		data, f := c.Mem.PageSlice(addr, mem.AccessRead)
		if f != nil {
			f.Size = size
			return 0, f
		}
		e.idx, e.data = idx, data
	} else {
		c.Stat.TCReadHits++
	}
	off := addr & (c.pageSize - 1)
	if off+uint64(size) <= c.pageSize {
		d := e.data[off:]
		switch size {
		case 1:
			return uint64(d[0]), nil
		case 2:
			return uint64(binary.LittleEndian.Uint16(d)), nil
		case 4:
			return uint64(binary.LittleEndian.Uint32(d)), nil
		case 8:
			return binary.LittleEndian.Uint64(d), nil
		}
	}
	// Page-crossing access: defer to the general path.
	return c.Mem.Read(addr, size)
}

// memWrite is AddrSpace.Write behind the same translation cache.
func (c *CPU) memWrite(addr uint64, v uint64, size int) *mem.Fault {
	idx := addr >> c.pageShift
	e := &c.tcWrite[idx&(tcacheSize-1)]
	if e.idx != idx || e.data == nil {
		c.Stat.TCWriteMisses++
		data, f := c.Mem.PageSlice(addr, mem.AccessWrite)
		if f != nil {
			f.Size = size
			return f
		}
		e.idx, e.data = idx, data
	} else {
		c.Stat.TCWriteHits++
	}
	off := addr & (c.pageSize - 1)
	if off+uint64(size) <= c.pageSize {
		d := e.data[off:]
		switch size {
		case 1:
			d[0] = byte(v)
			return nil
		case 2:
			binary.LittleEndian.PutUint16(d, uint16(v))
			return nil
		case 4:
			binary.LittleEndian.PutUint32(d, uint32(v))
			return nil
		case 8:
			binary.LittleEndian.PutUint64(d, v)
			return nil
		}
	}
	return c.Mem.Write(addr, v, size)
}

// blockEnd reports whether the instruction terminates a block.
func blockEnd(i *arm64.Inst) bool {
	return i.Op.IsBranch() || i.Op == arm64.SVC || i.Op == arm64.BRK
}

// decodeBlock fills e with the straight-line run starting at pc. A fetch
// fault or undecodable word on the *first* instruction returns the trap the
// slow path would raise there; later ones just end the block early so the
// trap is raised when (and only if) execution actually reaches that pc.
func (c *CPU) decodeBlock(pc uint64, e *bcEntry) *Trap {
	e.reset(pc)
	for p := pc; len(e.insts) < maxBlockInsts; {
		w, f := c.Mem.Fetch32(p)
		if f != nil {
			if len(e.insts) == 0 {
				return &Trap{Kind: TrapMemFault, PC: p, Fault: f}
			}
			break
		}
		inst, err := arm64.Decode(w)
		if err != nil {
			if len(e.insts) == 0 {
				return &Trap{Kind: TrapUndefined, PC: p}
			}
			break
		}
		e.insts = append(e.insts, instSlot{inst: inst})
		s := &e.insts[len(e.insts)-1]
		c.mSrc, c.mDst = buildMeta(&s.inst, &s.meta, c.mSrc, c.mDst)
		if blockEnd(&s.inst) {
			break
		}
		p += 4
		// Stop at page boundaries and at the host-call window: the block
		// must not run past an address the outer loop has to re-check.
		if p&(c.pageSize-1) == 0 {
			break
		}
		if c.hostCallLen != 0 && p-c.hostCallBase < c.hostCallLen {
			break
		}
	}
	annotateFusion(e.insts)
	return nil
}

// runSlots executes a clipped run of predecoded slots back to back,
// dispatching fused idioms through their specialised executors. Fused
// pairs whose partner fell outside the clip execute the head generically,
// so a budget expiry between the two instructions still lands exactly.
func (c *CPU) runSlots(slots []instSlot) *Trap {
	n := len(slots)
	for k := 0; k < n; k++ {
		s := &slots[k]
		switch s.fuse.kind {
		case fuseNone:
			if tr := c.exec(&s.inst, &s.meta); tr != nil {
				return tr
			}
		case fuseAccess:
			if tr := c.execFastMem(s); tr != nil {
				return tr
			}
		default: // pair head
			if k+1 < n {
				// execFusedPair counts the guard itself; the Instrs++
				// below counts the access.
				if tr := c.execFusedPair(s, &slots[k+1]); tr != nil {
					return tr
				}
				k++
			} else if tr := c.exec(&s.inst, &s.meta); tr != nil {
				// Partner clipped out: run the head alone, generically.
				return tr
			}
		}
		c.Instrs++
	}
	return nil
}

// runBlocks is the fast-path Run loop. The outer loop's check order per
// iteration matches the slow path exactly: budget, then host-call window,
// then alignment. The inner loop follows chain links, re-checking only
// the budget: chained targets were proven aligned and outside the
// host-call window when the link was installed, and the epoch cannot move
// mid-Run (see the package comment).
func (c *CPU) runBlocks(maxInstrs uint64) *Trap {
	end := ^uint64(0)
	if maxInstrs != 0 {
		end = c.Instrs + maxInstrs
	}
	var prev *bcEntry // block whose exit led here; chain install point
	for {
		if c.Instrs >= end {
			return c.hotTrap(TrapBudget, c.PC)
		}
		if e := c.Mem.Epoch(); e != c.memEpoch {
			c.flushDecoded(e)
			prev = nil
		}
		pc := c.PC
		if c.hostCallLen != 0 && pc-c.hostCallBase < c.hostCallLen {
			return c.hotTrap(TrapHostCall, pc)
		}
		if pc%4 != 0 {
			return &Trap{Kind: TrapMemFault, PC: pc,
				Fault: &mem.Fault{Addr: pc, Access: mem.AccessExec, Size: 4}}
		}
		e := &c.bcache[bcIndex(pc)]
		if e.pc != pc || len(e.insts) == 0 {
			c.Stat.BlockMisses++
			if tr := c.decodeBlock(pc, e); tr != nil {
				return tr
			}
		} else {
			c.Stat.BlockHits++
		}
		if prev != nil {
			prev.chain(pc, e)
			prev = nil
		}
		for {
			if tr := c.runEntry(e, end); tr != nil {
				return tr
			}
			if c.Instrs >= end {
				return c.hotTrap(TrapBudget, c.PC)
			}
			if next := e.chainNext(c.PC); next != nil {
				c.Stat.ChainHits++
				e = next
				continue
			}
			c.Stat.ChainMisses++
			prev = e
			break
		}
	}
}

// runEntry executes one dispatched block: its predecoded slots, clipped
// to the remaining budget.
func (c *CPU) runEntry(e *bcEntry, end uint64) *Trap {
	slots := e.insts
	if rem := end - c.Instrs; rem < uint64(len(slots)) {
		slots = slots[:rem]
	}
	return c.runSlots(slots)
}
