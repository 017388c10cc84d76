// Predecoded basic-block fast path.
//
// The per-step interpreter (Step) pays for a host-call range check, a PC
// alignment check and an icache map lookup on every instruction. The fast
// path amortises all of that to block boundaries: straight-line runs are
// decoded and lowered (lower.go) once into flat blocks of slots, and exec
// runs a block's slots back to back. Blocks end at anything that can
// redirect or stop the flow: branches, SVC, BRK, undecodable words, page
// boundaries (the next page may be unmapped or remapped independently),
// and the host-call window. Every block is entered through the one
// dispatch in runBlocks.
//
// Equivalence with the slow path is exact, not approximate:
//   - lowering and exec are shared: Step runs the same slots, lowered by
//     the same function, so architectural state transitions and
//     Timing.Cycles() are identical.
//   - the instruction budget is applied with exact carry-in: blocks are
//     clipped to the remaining budget, so TrapBudget lands on the same
//     instruction as the slow loop.
//
// The block cache is keyed by sandbox slot as well as in-slot offset
// (bcIndex): sandboxes that run code at the same offset — a yield pair, two
// clones of one image — keep their blocks across every switch.
//
// The block cache and the page-translation caches are invalidated by
// generation, not by sweep: an entry filled under an older CPU.gen is never
// used, and flushDecoded only bumps gen (see its comment for when).
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
)

// bcEntry is a direct-mapped block cache entry, valid for pc iff gen is the
// CPU's current generation. insts keeps its capacity across refills.
type bcEntry struct {
	pc    uint64
	gen   uint64
	insts []instSlot
}

// bcIndex is the block cache entry for pc: the word offset displaced by
// the slot number (pc>>32) times bcSlotStride.
func bcIndex(pc uint64) uint64 {
	return (pc>>2 + (pc>>32)*bcSlotStride) & (bcacheSize - 1)
}

// tcEntry caches the backing slice of one translated page for one access
// kind, valid for page idx iff gen is the CPU's current generation.
type tcEntry struct {
	idx  uint64
	gen  uint64
	data []byte
}

// memRead is AddrSpace.Read with a direct-mapped translation cache in
// front: a hit turns the region walk into two compares plus a load.
func (c *CPU) memRead(addr uint64, size int) (uint64, *mem.Fault) {
	idx := addr >> c.pageShift
	e := &c.tcRead[idx&(tcacheSize-1)]
	if e.idx != idx || e.gen != c.gen {
		c.Stat.TCReadMisses++
		data, f := c.Mem.PageSlice(addr, mem.AccessRead)
		if f != nil {
			f.Size = size
			return 0, f
		}
		e.idx, e.gen, e.data = idx, c.gen, data
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
	if e.idx != idx || e.gen != c.gen {
		c.Stat.TCWriteMisses++
		data, f := c.Mem.PageSlice(addr, mem.AccessWrite)
		if f != nil {
			f.Size = size
			return f
		}
		e.idx, e.gen, e.data = idx, c.gen, data
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

// decodeBlock refills e in place with the straight-line run starting at pc.
// A fetch fault or undecodable word on the *first* instruction returns the
// trap the slow path would raise there and leaves e invalid (gen 0); later
// ones just end the block early so the trap is raised when (and only if)
// execution actually reaches that pc.
func (c *CPU) decodeBlock(pc uint64, e *bcEntry) *Trap {
	e.pc, e.gen, e.insts = pc, 0, e.insts[:0]
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
		e.insts = append(e.insts, instSlot{})
		c.mSrc, c.mDst = lower(&inst, p, &e.insts[len(e.insts)-1], c.mSrc, c.mDst)
		if blockEnd(&inst) {
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
	e.gen = c.gen
	return nil
}

// runBlocks is the fast-path Run loop. Its check order before every block
// matches the slow path's before every instruction: budget, then host-call
// window, then alignment.
func (c *CPU) runBlocks(maxInstrs uint64) *Trap {
	end := ^uint64(0)
	if maxInstrs != 0 {
		end = c.Instrs + maxInstrs
	}
	for {
		if c.Instrs >= end {
			return c.hotTrap(TrapBudget, c.PC)
		}
		if e := c.Mem.Epoch(); e != c.memEpoch {
			c.flushDecoded(e)
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
		if e.pc != pc || e.gen != c.gen {
			c.Stat.BlockMisses++
			if tr := c.decodeBlock(pc, e); tr != nil {
				return tr
			}
		} else {
			c.Stat.BlockHits++
		}
		slots := e.insts
		if rem := end - c.Instrs; rem < uint64(len(slots)) {
			slots = slots[:rem]
		}
		if tr := c.exec(slots); tr != nil {
			return tr
		}
	}
}
