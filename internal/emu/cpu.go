// Package emu executes ARM64 machine code over a mem.AddrSpace. It has two
// halves that run in lockstep: a functional interpreter (registers, flags,
// memory, traps) and a timing model (superscalar dependency scoreboard,
// branch predictor, TLB) that attributes a cycle cost to every retired
// instruction. LFI's evaluation is entirely about the *relative* cycle cost
// of guard instructions, which is exactly what the scoreboard captures.
package emu

import (
	"fmt"

	"lfi/internal/arm64"
	"lfi/internal/mem"
)

// TrapKind classifies why execution stopped.
type TrapKind uint8

const (
	TrapNone      TrapKind = iota
	TrapMemFault           // load/store/fetch permission or mapping fault
	TrapSVC                // svc instruction (forbidden inside sandboxes)
	TrapBRK                // brk instruction
	TrapUndefined          // undecodable or unsupported instruction
	TrapHostCall           // PC entered a registered host-call address
	TrapBudget             // instruction budget exhausted (preemption)
	TrapHalt               // wfi-style clean stop requested by the host
)

func (k TrapKind) String() string {
	switch k {
	case TrapNone:
		return "none"
	case TrapMemFault:
		return "memory fault"
	case TrapSVC:
		return "svc"
	case TrapBRK:
		return "brk"
	case TrapUndefined:
		return "undefined instruction"
	case TrapHostCall:
		return "host call"
	case TrapBudget:
		return "budget expired"
	case TrapHalt:
		return "halt"
	}
	return "unknown"
}

// Trap describes an execution stop. PC is the address of the trapping
// instruction (or the host-call target for TrapHostCall).
type Trap struct {
	Kind  TrapKind
	PC    uint64
	Imm   uint64 // svc/brk immediate
	Fault *mem.Fault
}

func (t *Trap) Error() string {
	if t.Fault != nil {
		return fmt.Sprintf("emu: trap %s at pc=%#x: %v", t.Kind, t.PC, t.Fault)
	}
	return fmt.Sprintf("emu: trap %s at pc=%#x (imm=%d)", t.Kind, t.PC, t.Imm)
}

// CPU is one hardware thread. The register file covers the 31 general
// purpose registers, SP, 32 vector registers, and NZCV.
type CPU struct {
	X  [31]uint64    // x0..x30
	SP uint64        // stack pointer
	V  [32][2]uint64 // v0..v31, little-endian 128-bit (lo, hi)

	// NZCV condition flags.
	FlagN, FlagZ, FlagC, FlagV bool

	PC  uint64
	Mem *mem.AddrSpace

	// Exclusive monitor for ldxr/stxr.
	exclAddr  uint64
	exclValid bool

	// tpidr models the tpidr_el0 thread pointer.
	tpidr uint64

	// Host-call region: jumping to an address with hostCallBase <= a <
	// hostCallBase+hostCallLen raises TrapHostCall instead of fetching.
	hostCallBase uint64
	hostCallLen  uint64

	// Decoded-instruction cache, keyed by page index. Pages are decoded
	// lazily. Coherence is by AddrSpace epoch: any Map/Unmap/Protect/
	// restore bumps the epoch and the next Step/Run flushes stale decodes,
	// so remapping text pages needs no manual flush call.
	icache    map[uint64][]cachedInst
	pageShift uint
	pageSize  uint64

	// Predecoded basic-block cache (fast path) and direct-mapped page
	// translation caches, all epoch-guarded like icache. See block.go.
	bcache   [bcacheSize]bcEntry
	tcRead   [tcacheSize]tcEntry
	tcWrite  [tcacheSize]tcEntry
	memEpoch uint64
	fastpath bool

	// Reused storage for the hot TrapBudget/TrapHostCall results, so
	// budget-sliced scheduling does not allocate per slice. Traps of those
	// kinds returned by Run are valid only until the next Run/Step call.
	trap Trap

	// Scratch register buffers for block predecoding.
	mSrc, mDst []arm64.Reg

	// Timing, optional. When non-nil every retired instruction is charged.
	Timing *Timing

	// Trace, optional. When non-nil it is invoked before every executed
	// instruction (debug tooling; adds an indirect call per step and
	// disables the predecoded-block fast path).
	Trace func(pc uint64, inst *arm64.Inst)

	// Retired instruction count.
	Instrs uint64

	// Stat counts cache and dispatch activity. The fields are plain
	// uint64s owned by the CPU's executing goroutine — reading them
	// concurrently with execution is a data race; snapshot between runs
	// (the runtime does this per job).
	Stat Stats
}

// Stats are the emulator's cache and dispatch counters: how often the
// predecoded-block cache and the page-translation caches hit, and which
// dispatch loop served each Run call. Hit ratios here are the first
// thing to look at when simulator throughput regresses.
type Stats struct {
	BlockHits     uint64 `json:"block_hits"`      // block cache hits (per block, not per instr)
	BlockMisses   uint64 `json:"block_misses"`    // block decodes
	TCReadHits    uint64 `json:"tc_read_hits"`    // load translation-cache hits
	TCReadMisses  uint64 `json:"tc_read_misses"`  // load page-walk refills
	TCWriteHits   uint64 `json:"tc_write_hits"`   // store translation-cache hits
	TCWriteMisses uint64 `json:"tc_write_misses"` // store page-walk refills
	FastRuns      uint64 `json:"fast_runs"`       // Run calls served by the block loop
	SlowRuns      uint64 `json:"slow_runs"`       // Run calls served by the per-step loop
	Flushes       uint64 `json:"flushes"`         // epoch-driven decode/translation flushes
	ChainHits     uint64 `json:"chain_hits"`      // block transfers served by chain links
	ChainMisses   uint64 `json:"chain_misses"`    // chain exits resolved by the outer dispatch
	FusedPairs    uint64 `json:"fused_pairs"`     // guard+access pairs executed fused
	FusedAccesses uint64 `json:"fused_accesses"`  // accesses served by the fused access path
}

// Add accumulates other into s (for aggregating across CPUs).
func (s *Stats) Add(other Stats) {
	s.BlockHits += other.BlockHits
	s.BlockMisses += other.BlockMisses
	s.TCReadHits += other.TCReadHits
	s.TCReadMisses += other.TCReadMisses
	s.TCWriteHits += other.TCWriteHits
	s.TCWriteMisses += other.TCWriteMisses
	s.FastRuns += other.FastRuns
	s.SlowRuns += other.SlowRuns
	s.Flushes += other.Flushes
	s.ChainHits += other.ChainHits
	s.ChainMisses += other.ChainMisses
	s.FusedPairs += other.FusedPairs
	s.FusedAccesses += other.FusedAccesses
}

type cachedInst struct {
	inst arm64.Inst
	ok   bool
}

// New creates a CPU over the address space.
func New(m *mem.AddrSpace) *CPU {
	ps := m.PageSize()
	shift := uint(0)
	for s := ps; s > 1; s >>= 1 {
		shift++
	}
	return &CPU{
		Mem:       m,
		icache:    make(map[uint64][]cachedInst),
		pageShift: shift,
		pageSize:  ps,
		memEpoch:  m.Epoch(),
		fastpath:  true,
	}
}

// SetFastpath selects the executor Run uses: the predecoded-block fast
// path (the default) or, when off, the per-step interpreter that the
// differential suites use as the bit-identical reference. Decoded state
// is dropped so nothing cached under one executor is reused by the other.
func (c *CPU) SetFastpath(on bool) {
	c.fastpath = on
	c.flushDecoded(c.Mem.Epoch())
}

// SetHostCallRegion registers [base, base+size) as host-call addresses.
// Cached blocks are dropped: block boundaries depend on the region.
func (c *CPU) SetHostCallRegion(base, size uint64) {
	c.hostCallBase, c.hostCallLen = base, size
	c.flushDecoded(c.Mem.Epoch())
}

// flushDecoded drops every decode- and translation-cache entry — including
// chain links, which hold pointers into the block cache — and marks the
// caches current as of epoch.
func (c *CPU) flushDecoded(epoch uint64) {
	c.Stat.Flushes++
	c.memEpoch = epoch
	clear(c.icache)
	for i := range c.bcache {
		c.bcache[i].reset(0)
	}
	c.tcRead = [tcacheSize]tcEntry{}
	c.tcWrite = [tcacheSize]tcEntry{}
}

// Reg reads a register operand, honoring the zero register and 32-bit
// views. Reading SP through either view returns the stack pointer.
func (c *CPU) Reg(r arm64.Reg) uint64 {
	if r.IsZR() {
		return 0
	}
	if r.IsSP() {
		if r.Is32() {
			return c.SP & 0xffffffff
		}
		return c.SP
	}
	v := c.X[r.Num()]
	if r.Is32() {
		return v & 0xffffffff
	}
	return v
}

// SetReg writes a register operand. 32-bit views zero the upper bits.
func (c *CPU) SetReg(r arm64.Reg, v uint64) {
	if r.IsZR() {
		return
	}
	if r.Is32() {
		v &= 0xffffffff
	}
	if r.IsSP() {
		c.SP = v
		return
	}
	c.X[r.Num()] = v
}

// FP reads a floating point register view as raw bits.
func (c *CPU) FP(r arm64.Reg) uint64 {
	v := c.V[r.Num()][0]
	switch r.FPBits() {
	case 8:
		return v & 0xff
	case 16:
		return v & 0xffff
	case 32:
		return v & 0xffffffff
	}
	return v
}

// SetFP writes a floating point register view; writes clear the rest of
// the vector register, matching AArch64 scalar write semantics.
func (c *CPU) SetFP(r arm64.Reg, v uint64) {
	switch r.FPBits() {
	case 8:
		v &= 0xff
	case 16:
		v &= 0xffff
	case 32:
		v &= 0xffffffff
	}
	c.V[r.Num()][0] = v
	c.V[r.Num()][1] = 0
}

// CondHolds evaluates a condition code against the current flags.
func (c *CPU) CondHolds(cond arm64.Cond) bool {
	var r bool
	switch cond >> 1 {
	case 0: // EQ/NE
		r = c.FlagZ
	case 1: // CS/CC
		r = c.FlagC
	case 2: // MI/PL
		r = c.FlagN
	case 3: // VS/VC
		r = c.FlagV
	case 4: // HI/LS
		r = c.FlagC && !c.FlagZ
	case 5: // GE/LT
		r = c.FlagN == c.FlagV
	case 6: // GT/LE
		r = c.FlagN == c.FlagV && !c.FlagZ
	default: // AL/NV
		return true
	}
	if cond&1 == 1 && cond < arm64.AL {
		return !r
	}
	return r
}

// fetch returns the decoded instruction at PC.
func (c *CPU) fetch(pc uint64) (*arm64.Inst, *Trap) {
	idx := pc >> c.pageShift
	line, ok := c.icache[idx]
	if !ok {
		line = make([]cachedInst, c.pageSize/4)
		c.icache[idx] = line
	}
	slot := (pc & (c.pageSize - 1)) / 4
	ci := &line[slot]
	if !ci.ok {
		w, f := c.Mem.Fetch32(pc)
		if f != nil {
			return nil, &Trap{Kind: TrapMemFault, PC: pc, Fault: f}
		}
		inst, err := arm64.Decode(w)
		if err != nil {
			inst = arm64.Inst{Op: arm64.BAD}
		}
		ci.inst = inst
		ci.ok = true
	}
	if ci.inst.Op == arm64.BAD {
		return nil, &Trap{Kind: TrapUndefined, PC: pc}
	}
	return &ci.inst, nil
}

// Step executes one instruction. It returns nil on success or a Trap.
func (c *CPU) Step() *Trap {
	if e := c.Mem.Epoch(); e != c.memEpoch {
		c.flushDecoded(e)
	}
	if pc := c.PC; c.hostCallLen != 0 && pc-c.hostCallBase < c.hostCallLen {
		return &Trap{Kind: TrapHostCall, PC: pc}
	}
	if c.PC%4 != 0 {
		return &Trap{Kind: TrapMemFault, PC: c.PC,
			Fault: &mem.Fault{Addr: c.PC, Access: mem.AccessExec, Size: 4}}
	}
	inst, tr := c.fetch(c.PC)
	if tr != nil {
		return tr
	}
	if c.Trace != nil {
		c.Trace(c.PC, inst)
	}
	tr = c.exec(inst, nil)
	if tr != nil {
		return tr
	}
	c.Instrs++
	return nil
}

// hotTrap fills the CPU's reused trap storage. Only the allocation-heavy
// control-flow traps (budget, host call) go through it; fault traps carry
// detail and stay freshly allocated.
func (c *CPU) hotTrap(k TrapKind, pc uint64) *Trap {
	c.trap = Trap{Kind: k, PC: pc}
	return &c.trap
}

// Run executes until a trap occurs or maxInstrs instructions retire
// (maxInstrs 0 means no budget). It returns the trap that stopped it.
// TrapBudget and TrapHostCall results reuse per-CPU storage and are valid
// only until the next Run/Step call.
func (c *CPU) Run(maxInstrs uint64) *Trap {
	if c.fastpath && c.Trace == nil {
		c.Stat.FastRuns++
		return c.runBlocks(maxInstrs)
	}
	c.Stat.SlowRuns++
	if maxInstrs == 0 {
		for {
			if tr := c.Step(); tr != nil {
				return tr
			}
		}
	}
	end := c.Instrs + maxInstrs
	for c.Instrs < end {
		if tr := c.Step(); tr != nil {
			return tr
		}
	}
	return c.hotTrap(TrapBudget, c.PC)
}
