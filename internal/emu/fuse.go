// Guard-idiom fusion.
//
// The LFI rewriter materialises every sandboxed access as a short fixed
// idiom: an address guard (`add x22, x21, wN, uxtw`, or the staged-w22
// lowering that first moves the untrusted index into w22) immediately
// followed by the dependent load or store. Interpreting that pair costs
// two trips through the general exec switch, two operand decoders, and a
// general effective-address computation, even though the shapes are known
// at predecode time.
//
// annotateFusion marks two patterns on predecoded slots:
//
//   - fuseAccess: a single-register, non-writeback load/store whose
//     addressing mode needs no writeback bookkeeping. It executes through
//     execFastMem, which uses the size/extension facts cached at decode
//     time instead of re-deriving them per execution.
//
//   - fusePair: a flagless ALU staging op (the guard family: ADD/SUB/
//     AND/ORR/EOR with an integer destination) immediately followed by a
//     fuseAccess-eligible instruction. The pair executes as one dispatch
//     through execFusedPair: one retire slot handoff instead of two trips
//     around the dispatch loop.
//
// Fusion is strictly a dispatch optimisation — it MUST be architecturally
// invisible. The fused executors replicate exec()'s semantics (see the
// keep-in-sync notes in exec.go) instruction for instruction: the guard's
// intermediate register (x18/x22/...) is still written, both instructions
// retire separately with their own pc and metadata (so Timing cycles are
// bit-identical), Instrs advances once per instruction, and a fault in
// the access leaves the guard retired exactly as the unfused path would.
// Budget clipping may split a pair: runSlots (block.go) runs the head
// generically when its partner falls outside the clip, so TrapBudget
// still lands on the exact instruction.
package emu

import "lfi/internal/arm64"

type fuseKind uint8

const (
	fuseNone fuseKind = iota
	fuseAccess
	fusePair // this slot is the ALU head; the next slot is its access
)

// fuseInfo caches the facts execFastMem needs about an access so they are
// derived once at predecode instead of per execution.
type fuseInfo struct {
	kind fuseKind
	size int8  // access size in bytes
	load bool  // load vs store
	fp   bool  // FP/SIMD register target
	sext uint8 // sign-extend width in bytes after load (0 = none)
}

// fastMemInfo reports whether i is a single-register, non-writeback
// load/store that execFastMem can run, and the cached facts if so.
// Excluded (handled by the general path): pairs, exclusives/acquire-
// release (monitor state), writeback modes, and 128-bit vector accesses.
func fastMemInfo(i *arm64.Inst) (fuseInfo, bool) {
	switch i.Op {
	case arm64.LDR, arm64.LDRB, arm64.LDRH, arm64.LDRSB, arm64.LDRSH,
		arm64.LDRSW, arm64.STR, arm64.STRB, arm64.STRH:
	default:
		return fuseInfo{}, false
	}
	switch i.Mem.Mode {
	case arm64.AddrBase, arm64.AddrImm, arm64.AddrLiteral,
		arm64.AddrReg, arm64.AddrRegUXTW, arm64.AddrRegSXTW, arm64.AddrRegSXTX:
	default:
		return fuseInfo{}, false
	}
	size := memAccessSize(i)
	if size > 8 {
		return fuseInfo{}, false
	}
	fi := fuseInfo{
		kind: fuseAccess,
		size: int8(size),
		load: !i.Op.IsStore(),
		fp:   i.Rd.IsFP(),
	}
	switch i.Op {
	case arm64.LDRSB:
		fi.sext = 1
	case arm64.LDRSH:
		fi.sext = 2
	case arm64.LDRSW:
		fi.sext = 4
	}
	return fi, true
}

// isStageALU reports whether i is a flagless ALU op the fused-pair
// executor can replicate: the guard adds themselves (`add x22, x21, wN,
// uxtw`, `add sp, x21, x22`) and the mov/and staging forms that feed
// them. Flag-setting ops are excluded (execFusedPair never touches NZCV)
// and so are ZR destinations (flagless ALU to ZR is dead anyway).
func isStageALU(i *arm64.Inst) bool {
	switch i.Op {
	case arm64.ADD, arm64.SUB, arm64.AND, arm64.ORR, arm64.EOR:
	default:
		return false
	}
	return !i.Rd.IsZR() && !i.Rd.IsFP()
}

// annotateFusion marks fusable slots in a freshly decoded block. Pair
// heads consume their access, so a slot is never both a pair tail and a
// pair head; an access that follows a non-fusable instruction still gets
// the standalone fuseAccess mark.
func annotateFusion(slots []instSlot) {
	for k := range slots {
		if fi, ok := fastMemInfo(&slots[k].inst); ok {
			slots[k].fuse = fi
		}
	}
	for k := 0; k+1 < len(slots); k++ {
		if slots[k].fuse.kind == fuseNone && isStageALU(&slots[k].inst) &&
			slots[k+1].fuse.kind == fuseAccess {
			slots[k].fuse.kind = fusePair
			k++ // the access is consumed by the head
		}
	}
}

// execFastMem executes one fuseAccess-marked load/store. It is
// execLoadStore (exec.go) specialised to the non-writeback single-register
// subset, using the facts cached in s.fuse; the state transitions, fault
// objects, retire arguments, and PC update are identical.
func (c *CPU) execFastMem(s *instSlot) *Trap {
	i := &s.inst
	pc := c.PC
	m := &i.Mem
	var addr uint64
	switch m.Mode {
	case arm64.AddrBase:
		addr = c.Reg(m.Base)
	case arm64.AddrImm:
		addr = c.Reg(m.Base) + uint64(int64(m.Imm))
	case arm64.AddrLiteral:
		addr = pc + uint64(i.Imm)
	default:
		base := c.Reg(m.Base)
		idx := c.Reg(m.Index)
		amt := uint(0)
		if m.Amount > 0 {
			amt = uint(m.Amount)
		}
		switch m.Mode {
		case arm64.AddrReg, arm64.AddrRegSXTX:
			addr = base + idx<<amt
		case arm64.AddrRegUXTW:
			addr = base + (idx&0xffffffff)<<amt
		default: // AddrRegSXTW
			addr = base + uint64(int64(int32(uint32(idx))))<<amt
		}
	}
	size := int(s.fuse.size)
	if s.fuse.load {
		v, f := c.memRead(addr, size)
		if f != nil {
			return c.memFault(pc, f)
		}
		switch s.fuse.sext {
		case 1:
			v = uint64(int64(int8(v)))
		case 2:
			v = uint64(int64(int16(v)))
		case 4:
			v = uint64(int64(int32(uint32(v))))
		}
		if s.fuse.fp {
			c.SetFP(i.Rd, v)
		} else {
			c.SetReg(i.Rd, v)
		}
	} else {
		var v uint64
		if s.fuse.fp {
			v = c.FP(i.Rd)
		} else {
			v = c.Reg(i.Rd)
		}
		if f := c.memWrite(addr, v, size); f != nil {
			return c.memFault(pc, f)
		}
	}
	c.Stat.FusedAccesses++
	if c.Timing != nil {
		eff := effects{hasMem: true, memAddr: addr}
		c.Timing.retireWith(pc, &eff, &s.meta)
	}
	c.PC = pc + 4
	return nil
}

// execFusedPair executes a fusePair head (g) and its access (a) as one
// dispatch. The guard is a flagless ALU op, so it can never trap: its
// result is architecturally committed (the intermediate register write is
// observable and preserved), it retires with its own pc and metadata, and
// c.Instrs counts it here — the caller's post-dispatch increment counts
// the access. The ALU replication matches exec()'s flagless ADD/SUB (sum
// and difference agree with addWithCarry modulo the register width) and
// logical paths; see the keep-in-sync note in exec.go.
func (c *CPU) execFusedPair(g, a *instSlot) *Trap {
	i := &g.inst
	pc := c.PC
	is64 := i.Rd.Is64()
	av := c.Reg(i.Rn)
	bv := c.operand2(i, is64)
	var r uint64
	switch i.Op {
	case arm64.ADD:
		r = av + bv
	case arm64.SUB:
		r = av - bv
	case arm64.AND:
		r = av & bv
	case arm64.ORR:
		r = av | bv
	default: // EOR
		r = av ^ bv
	}
	c.SetReg(i.Rd, r&sizeMask(boolSize(is64)))
	if c.Timing != nil {
		var eff effects
		c.Timing.retireWith(pc, &eff, &g.meta)
	}
	c.PC = pc + 4
	c.Instrs++
	c.Stat.FusedPairs++
	return c.execFastMem(a)
}
