package emu

import (
	"math"
	"math/bits"

	"lfi/internal/arm64"
	"lfi/internal/mem"
)

// TPIDR is thread-local storage base (tpidr_el0), modeled as plain state.
// CNTVCT reads return the retired instruction count.
const (
	sysTPIDR   = 1<<14 | 3<<11 | 13<<7 | 0<<3 | 2
	sysNZCV    = 1<<14 | 3<<11 | 4<<7 | 2<<3 | 0
	sysCNTVCT  = 1<<14 | 3<<11 | 14<<7 | 0<<3 | 2
	sysSCXTNUM = 1<<14 | 3<<11 | 13<<7 | 0<<3 | 7
)

// TPIDREL0 is modeled TLS state for mrs/msr tpidr_el0.
var _ = sysSCXTNUM

func (c *CPU) memFault(pc uint64, f *mem.Fault) *Trap {
	return &Trap{Kind: TrapMemFault, PC: pc, Fault: f}
}

// get reads register-file entry i through view shift w.
func (c *CPU) get(i, w uint8) uint64 { return c.r[i] & (^uint64(0) >> (w & 63)) }

// put writes v to register-file entry i through view shift w: a 32-bit
// view zeroes the upper half.
func (c *CPU) put(i, w uint8, v uint64) { c.r[i] = v & (^uint64(0) >> (w & 63)) }

// op2 is operand 2 of the handlers whose register form is shifted left
// or zero-extended: one of the two terms is zero.
func (c *CPU) op2(s *instSlot) uint64 { return c.get(s.rm, s.wm)<<(s.amt&63) | s.imm }

// operand2 computes the shifted/extended register operand of hALU; an
// immediate form reads the zero entry here and ORs in its immediate.
func (c *CPU) operand2(s *instSlot, is64 bool) uint64 {
	v := c.get(s.rm, s.wm)
	amt := uint(s.amt)
	size := boolSize(is64)
	switch s.ext {
	case arm64.ExtNone:
		return v
	case arm64.ExtLSL, arm64.ExtUXTX, arm64.ExtSXTX:
		return v << amt
	case arm64.ExtLSR:
		if !is64 {
			v &= 0xffffffff
		}
		return v >> amt
	case arm64.ExtASR:
		if is64 {
			return uint64(int64(v) >> amt)
		}
		return uint64(uint32(int32(uint32(v)) >> amt))
	case arm64.ExtROR:
		if is64 {
			return bits.RotateLeft64(v, -int(amt))
		}
		return uint64(bits.RotateLeft32(uint32(v), -int(amt)))
	case arm64.ExtUXTB:
		return (v & 0xff) << amt
	case arm64.ExtUXTH:
		return (v & 0xffff) << amt
	case arm64.ExtUXTW:
		return (v & 0xffffffff) << amt
	case arm64.ExtSXTB:
		return uint64(int64(int8(v))) << amt & sizeMask(size)
	case arm64.ExtSXTH:
		return uint64(int64(int16(v))) << amt & sizeMask(size)
	case arm64.ExtSXTW:
		return uint64(int64(int32(v))) << amt & sizeMask(size)
	}
	return v
}

func sizeMask(size uint) uint64 {
	if size >= 64 {
		return ^uint64(0)
	}
	return (1 << size) - 1
}

func boolSize(is64 bool) uint {
	if is64 {
		return 64
	}
	return 32
}

func (c *CPU) setNZ(v uint64, is64 bool) {
	if is64 {
		c.FlagN = int64(v) < 0
	} else {
		c.FlagN = int32(uint32(v)) < 0
	}
	if !is64 {
		v &= 0xffffffff
	}
	c.FlagZ = v == 0
}

// addWithCarry computes a+b+carry and the NZCV flags.
func (c *CPU) addWithCarry(a, b uint64, carry bool, is64 bool, setFlags bool) uint64 {
	var result uint64
	var cy, ov bool
	if is64 {
		s1, c1 := bits.Add64(a, b, 0)
		cin := uint64(0)
		if carry {
			cin = 1
		}
		s2, c2 := bits.Add64(s1, cin, 0)
		result = s2
		cy = c1+c2 != 0
		ov = (int64(a) >= 0) == (int64(b) >= 0) && (int64(result) >= 0) != (int64(a) >= 0)
	} else {
		a32, b32 := a&0xffffffff, b&0xffffffff
		cin := uint64(0)
		if carry {
			cin = 1
		}
		sum := a32 + b32 + cin
		result = sum & 0xffffffff
		cy = sum>>32 != 0
		ov = (int32(uint32(a32)) >= 0) == (int32(uint32(b32)) >= 0) &&
			(int32(uint32(result)) >= 0) != (int32(uint32(a32)) >= 0)
	}
	if setFlags {
		c.setNZ(result, is64)
		c.FlagC = cy
		c.FlagV = ov
	}
	return result
}

// subFlags is a - b with the NZCV flags of a subs/cmp of width is64.
func (c *CPU) subFlags(a, b uint64, is64 bool) uint64 {
	return c.addWithCarry(a, ^b&sizeMask(boolSize(is64)), true, is64, true)
}

// exec runs slots back to back, each at the pc it was lowered at: one
// switch on the handler, then the scoreboard, the PC update and the
// instruction count. Step passes one slot, a block its run clipped to the
// budget. It returns the first trap; the trapping instruction does not
// retire.
func (c *CPU) exec(slots []instSlot) *Trap {
	for k := range slots {
		s := &slots[k]
		var (
			memAddr  uint64 // effective address of the (first) memory access
			hasMem   bool
			branched bool   // a branch redirected the PC
			target   uint64 // branch target if branched
			tr       *Trap
		)

		switch s.h {
		case hMovI:
			c.put(s.rd, s.wd, s.imm)
		case hMovK:
			c.put(s.rd, s.wd, c.get(s.ra, s.wa)&^(0xffff<<s.amt)|s.imm<<s.amt)

		case hAdd:
			c.put(s.rd, s.wd, c.get(s.rn, s.wn)+c.op2(s))
		case hSub:
			c.put(s.rd, s.wd, c.get(s.rn, s.wn)-c.op2(s))
		case hAdds:
			c.put(s.rd, s.wd, c.addWithCarry(c.get(s.rn, s.wn), c.op2(s), false, s.wd == 0, true))
		case hSubs:
			c.put(s.rd, s.wd, c.subFlags(c.get(s.rn, s.wn), c.op2(s), s.wd == 0))
		case hAnd:
			c.put(s.rd, s.wd, c.get(s.rn, s.wn)&c.op2(s))
		case hOrr:
			c.put(s.rd, s.wd, c.get(s.rn, s.wn)|c.op2(s))
		case hEor:
			c.put(s.rd, s.wd, c.get(s.rn, s.wn)^c.op2(s))
		case hALU:
			c.execALU(s)

		case hBitfield:
			c.execBitfield(s)
		case hExtr:
			lsb := uint(s.imm)
			if s.wd == 0 {
				hi, lo := c.get(s.rn, s.wn), c.get(s.rm, s.wm)
				r := lo
				if lsb != 0 {
					r = lo>>lsb | hi<<(64-lsb)
				}
				c.put(s.rd, s.wd, r)
			} else {
				hi, lo := uint32(c.get(s.rn, s.wn)), uint32(c.get(s.rm, s.wm))
				r := lo
				if lsb != 0 {
					r = lo>>lsb | hi<<(32-lsb)
				}
				c.put(s.rd, s.wd, uint64(r))
			}
		case hDiv:
			c.put(s.rd, s.wd, c.divide(s))
		case hShiftV:
			is64 := s.wd == 0
			size := boolSize(is64)
			amt := uint(c.get(s.rm, s.wm) % uint64(size))
			v := c.get(s.rn, s.wn)
			var r uint64
			switch s.op {
			case arm64.LSLV:
				r = v << amt
			case arm64.LSRV:
				r = v >> amt
			case arm64.ASRV:
				if is64 {
					r = uint64(int64(v) >> amt)
				} else {
					r = uint64(uint32(int32(uint32(v)) >> amt))
				}
			case arm64.RORV:
				if is64 {
					r = bits.RotateLeft64(v, -int(amt))
				} else {
					r = uint64(bits.RotateLeft32(uint32(v), -int(amt)))
				}
			}
			c.put(s.rd, s.wd, r&sizeMask(size))
		case hMAdd:
			n, m, a := c.get(s.rn, s.wn), c.get(s.rm, s.wm), c.get(s.ra, s.wa)
			if s.op == arm64.MADD {
				c.put(s.rd, s.wd, a+n*m)
			} else {
				c.put(s.rd, s.wd, a-n*m)
			}
		case hMulL:
			n, m, a := c.get(s.rn, s.wn), c.get(s.rm, s.wm), c.get(s.ra, s.wa)
			if s.op == arm64.SMADDL {
				c.put(s.rd, s.wd, a+uint64(int64(int32(uint32(n)))*int64(int32(uint32(m)))))
			} else {
				c.put(s.rd, s.wd, a+(n&0xffffffff)*(m&0xffffffff))
			}
		case hMulH:
			n, m := c.get(s.rn, s.wn), c.get(s.rm, s.wm)
			hi, _ := bits.Mul64(n, m)
			if s.op == arm64.SMULH {
				// Convert unsigned high to signed high.
				if int64(n) < 0 {
					hi -= m
				}
				if int64(m) < 0 {
					hi -= n
				}
			}
			c.put(s.rd, s.wd, hi)
		case hBits:
			c.put(s.rd, s.wd, c.bitOp(s))
		case hCSel:
			var r uint64
			if c.CondHolds(s.cond) {
				r = c.get(s.rn, s.wn)
			} else {
				m := c.get(s.rm, s.wm)
				switch s.op {
				case arm64.CSEL:
					r = m
				case arm64.CSINC:
					r = m + 1
				case arm64.CSINV:
					r = ^m
				case arm64.CSNEG:
					r = -m
				}
			}
			c.put(s.rd, s.wd, r)
		case hCCmp:
			if c.CondHolds(s.cond) {
				is64 := s.wn == 0
				a, b := c.get(s.rn, s.wn), c.get(s.rm, s.wm)|s.imm
				if s.op == arm64.CCMP {
					c.subFlags(a, b, is64)
				} else {
					c.addWithCarry(a, b, false, is64, true)
				}
			} else {
				c.FlagN = s.amt&8 != 0
				c.FlagZ = s.amt&4 != 0
				c.FlagC = s.amt&2 != 0
				c.FlagV = s.amt&1 != 0
			}

		case hB:
			branched, target = true, s.imm
		case hBL:
			c.r[30] = s.pc + 4
			branched, target = true, s.imm
		case hBCond:
			branched, target = c.CondHolds(s.cond), s.imm
		case hCBZ:
			branched, target = c.get(s.rd, s.wd) == 0, s.imm
		case hCBNZ:
			branched, target = c.get(s.rd, s.wd) != 0, s.imm
		case hTBZ:
			branched, target = c.get(s.rd, s.wd)>>s.amt&1 == 0, s.imm
		case hTBNZ:
			branched, target = c.get(s.rd, s.wd)>>s.amt&1 == 1, s.imm
		case hBR:
			branched, target = true, c.get(s.rn, s.wn)
		case hBLR:
			t := c.get(s.rn, s.wn)
			c.r[30] = s.pc + 4
			branched, target = true, t

		case hLdr:
			addr := c.get(s.rn, s.wn) + c.op2(s)
			v, f := c.memRead(addr, int(s.size))
			if f != nil {
				return c.memFault(s.pc, f)
			}
			c.put(s.rd, s.wd, uint64(int64(v<<s.sx)>>s.sx))
			hasMem, memAddr = true, addr
		case hStr:
			addr := c.get(s.rn, s.wn) + c.op2(s)
			if f := c.memWrite(addr, c.get(s.rd, s.wd), int(s.size)); f != nil {
				return c.memFault(s.pc, f)
			}
			hasMem, memAddr = true, addr
		case hMem:
			memAddr, tr = c.execMem(s)
			hasMem = true
		case hPair:
			memAddr, tr = c.execPair(s)
			hasMem = true
		case hExcl:
			memAddr, tr = c.execExclusive(s)
			hasMem = true

		case hFMovI:
			c.setFPVal(s.rd, s.wd, math.Float64frombits(s.imm))
		case hFCmpZ:
			c.fcmp(c.fpVal(s.rn, s.wn), 0)
		case hFP:
			tr = c.execFP(s)

		case hNop:
			// Barriers have timing cost only.
		case hSVC:
			return &Trap{Kind: TrapSVC, PC: s.pc, Imm: s.imm}
		case hBRK:
			return &Trap{Kind: TrapBRK, PC: s.pc, Imm: s.imm}
		case hMRS:
			switch s.imm {
			case sysTPIDR:
				c.put(s.rd, s.wd, c.tpidr)
			case sysNZCV:
				var v uint64
				if c.FlagN {
					v |= 1 << 31
				}
				if c.FlagZ {
					v |= 1 << 30
				}
				if c.FlagC {
					v |= 1 << 29
				}
				if c.FlagV {
					v |= 1 << 28
				}
				c.put(s.rd, s.wd, v)
			case sysCNTVCT:
				c.put(s.rd, s.wd, c.Instrs)
			default:
				return &Trap{Kind: TrapUndefined, PC: s.pc}
			}
		case hMSR:
			switch s.imm {
			case sysTPIDR:
				c.tpidr = c.get(s.rd, s.wd)
			case sysNZCV:
				v := c.get(s.rd, s.wd)
				c.FlagN = v&(1<<31) != 0
				c.FlagZ = v&(1<<30) != 0
				c.FlagC = v&(1<<29) != 0
				c.FlagV = v&(1<<28) != 0
			default:
				return &Trap{Kind: TrapUndefined, PC: s.pc}
			}

		default: // hUndef
			return &Trap{Kind: TrapUndefined, PC: s.pc}
		}

		if tr != nil {
			return tr
		}

		// Retire: charge the instruction to the scoreboard (see Timing).
		if t := c.Timing; t != nil {
			md := &s.meta
			t.Retired++

			// Front-end issue slot, then wait for source operands.
			start := t.issueAt
			t.issueAt += 2
			r := &t.ready
			start = max(start, r[md.src[0]], r[md.src[1]], r[md.src[2]], r[md.src[3]])

			lat := t.latTab[md.class]

			// TLB lookup for memory operations.
			if hasMem && len(t.tlb) > 0 {
				page := memAddr >> t.pageShift
				// page % len(t.tlb): the reciprocal's quotient is exact or one
				// short, and the compare corrects the second case.
				n := uint64(len(t.tlb))
				q, _ := bits.Mul64(page, t.tlbRecip)
				set := page - q*n
				if set >= n {
					set -= n
				}
				if t.tlb[set] != page {
					t.tlb[set] = page
					t.TLBMisses++
					// Walks serialize on the (single, non-pipelined) table walker.
					t.walkerFree = max(start, t.walkerFree) + t.walk
					lat += t.walkerFree - start
				}
			}

			// Extended-register guards execute on a subset of the ALU ports
			// (reduced throughput, per the optimization guides the paper
			// cites): charge half an extra issue slot.
			if lat == t.seLat {
				t.issueAt += t.seIssue
			}

			done := start + lat
			if t.profile != nil {
				t.profile[s.pc] += lat
			}

			// Destinations. Writeback address updates complete in one ALU
			// cycle even on long-latency loads.
			wb := start + t.aluLat
			for j, d := range md.dst {
				v := done
				if md.wbALU>>j&1 != 0 {
					v = wb
				}
				r[d] = v
			}
			t.horizon = max(t.horizon, done)

			// Branch prediction.
			if md.branch != brNone {
				resolve := start + t.perCycle
				switch md.branch {
				case brUncond:
					// Unconditional direct branches are effectively free.
				case brCond:
					idx := (s.pc >> 2) % uint64(len(t.bimodal))
					ctr := t.bimodal[idx]
					predTaken := ctr >= 2
					if predTaken != branched {
						t.Mispredicts++
						t.issueAt = max(t.issueAt, resolve+t.mispredict)
					}
					if branched && ctr < 3 {
						t.bimodal[idx] = ctr + 1
					} else if !branched && ctr > 0 {
						t.bimodal[idx] = ctr - 1
					}
				case brIndirect:
					idx := (s.pc >> 2) % uint64(len(t.btb))
					if t.btb[idx] != target {
						t.Mispredicts++
						t.issueAt = max(t.issueAt, resolve+t.mispredict)
						t.btb[idx] = target
					}
				}
			}
		}

		if branched {
			c.PC = target
		} else {
			c.PC = s.pc + 4
		}
		c.Instrs++
	}
	return nil
}

// execALU runs the add/sub/logical forms without a handler of their own:
// the flag-setting logical ops, orn/eon/bic, and every operand 2 that is
// not an immediate or a left-shifted or zero-extended register.
func (c *CPU) execALU(s *instSlot) {
	is64 := s.wd == 0
	a := c.get(s.rn, s.wn)
	b := c.operand2(s, is64) | s.imm
	var r uint64
	switch s.op {
	case arm64.ADD, arm64.ADDS:
		r = c.addWithCarry(a, b, false, is64, s.op == arm64.ADDS)
	case arm64.SUB, arm64.SUBS:
		r = c.addWithCarry(a, ^b&sizeMask(boolSize(is64)), true, is64, s.op == arm64.SUBS)
	default:
		switch s.op {
		case arm64.AND, arm64.ANDS:
			r = a & b
		case arm64.ORR:
			r = a | b
		case arm64.ORN:
			r = a | ^b
		case arm64.EOR:
			r = a ^ b
		case arm64.EON:
			r = a ^ ^b
		case arm64.BIC, arm64.BICS:
			r = a &^ b
		}
		r &= sizeMask(boolSize(is64))
		if s.op == arm64.ANDS || s.op == arm64.BICS {
			c.setNZ(r, is64)
			c.FlagC, c.FlagV = false, false
		}
	}
	c.put(s.rd, s.wd, r)
}

func (c *CPU) execBitfield(s *instSlot) {
	is64 := s.wd == 0
	size := boolSize(is64)
	r := uint(s.imm)
	sv := uint(s.amt)
	src := c.get(s.rn, s.wn) & sizeMask(size)
	dst := c.get(s.ra, s.wa) & sizeMask(size)
	var res uint64
	if sv >= r {
		// Extract field src[s:r] into the low bits.
		width := sv - r + 1
		fieldv := (src >> r) & sizeMask(width)
		switch s.op {
		case arm64.UBFM:
			res = fieldv
		case arm64.SBFM:
			if fieldv>>(width-1)&1 == 1 {
				fieldv |= ^sizeMask(width)
			}
			res = fieldv & sizeMask(size)
		case arm64.BFM:
			res = dst&^sizeMask(width) | fieldv
		}
	} else {
		// Insert low bits of src at position size-r.
		width := sv + 1
		pos := size - r
		fieldv := src & sizeMask(width)
		switch s.op {
		case arm64.UBFM:
			res = fieldv << pos
		case arm64.SBFM:
			if fieldv>>(width-1)&1 == 1 {
				fieldv |= ^sizeMask(width)
			}
			res = (fieldv << pos) & sizeMask(size)
		case arm64.BFM:
			m := sizeMask(width) << pos
			res = dst&^m | (fieldv<<pos)&m
		}
	}
	c.put(s.rd, s.wd, res&sizeMask(size))
}

// divide is udiv/sdiv: division by zero gives zero, and the one signed
// overflow gives the dividend.
func (c *CPU) divide(s *instSlot) uint64 {
	n, m := c.get(s.rn, s.wn), c.get(s.rm, s.wm)
	switch {
	case s.op == arm64.UDIV:
		if m == 0 {
			return 0
		}
		return n / m
	case s.wd == 0:
		n, m := int64(n), int64(m)
		switch {
		case m == 0:
			return 0
		case n == math.MinInt64 && m == -1:
			return uint64(n)
		}
		return uint64(n / m)
	}
	n32, m32 := int32(uint32(n)), int32(uint32(m))
	switch {
	case m32 == 0:
		return 0
	case n32 == math.MinInt32 && m32 == -1:
		return uint64(uint32(n32))
	}
	return uint64(uint32(n32 / m32))
}

// bitOp is clz, cls, rbit, rev, rev16 and rev32.
func (c *CPU) bitOp(s *instSlot) uint64 {
	v := c.get(s.rn, s.wn)
	is64 := s.wd == 0
	switch s.op {
	case arm64.CLZ:
		if is64 {
			return uint64(bits.LeadingZeros64(v))
		}
		return uint64(bits.LeadingZeros32(uint32(v)))
	case arm64.CLS:
		if is64 {
			if int64(v) < 0 {
				v = ^v
			}
			return uint64(bits.LeadingZeros64(v)) - 1
		}
		v32 := uint32(v)
		if int32(v32) < 0 {
			v32 = ^v32
		}
		return uint64(bits.LeadingZeros32(v32)) - 1
	case arm64.RBIT:
		if is64 {
			return bits.Reverse64(v)
		}
		return uint64(bits.Reverse32(uint32(v)))
	case arm64.REV:
		if is64 {
			return bits.ReverseBytes64(v)
		}
		return uint64(bits.ReverseBytes32(uint32(v)))
	case arm64.REV16:
		var r uint64
		n := 4
		if !is64 {
			n = 2
		}
		for k := 0; k < n; k++ {
			h := (v >> (16 * k)) & 0xffff
			r |= uint64(bits.ReverseBytes16(uint16(h))) << (16 * k)
		}
		return r
	}
	// REV32
	lo := uint64(bits.ReverseBytes32(uint32(v)))
	hi := uint64(bits.ReverseBytes32(uint32(v >> 32)))
	return hi<<32 | lo
}

// effAddr computes the effective address of hMem's and hPair's memory
// operand and the post-execution base value if there is writeback.
func (c *CPU) effAddr(s *instSlot) (addr uint64, wb bool, wbVal uint64) {
	base := c.get(s.rn, s.wn)
	switch s.mode {
	case arm64.AddrImm:
		return base + s.imm, false, 0
	case arm64.AddrPre:
		a := base + s.imm
		return a, true, a
	case arm64.AddrPost:
		return base, true, base + s.imm
	}
	idx := c.get(s.rm, s.wm)
	amt := uint(s.amt)
	switch s.mode {
	case arm64.AddrReg, arm64.AddrRegUXTW, arm64.AddrRegSXTX:
		return base + (idx << amt), false, 0
	case arm64.AddrRegSXTW:
		return base + (uint64(int64(int32(uint32(idx)))) << amt), false, 0
	}
	return base, false, 0
}

// xfer moves one register of a load or store to or from memory at a:
// integer entry or v register n with view w (fp set), size bytes.
func (c *CPU) xfer(store, fp bool, n, w uint8, a uint64, size int, sx uint8, pc uint64) *Trap {
	if store {
		if fp && size == 16 {
			if f := c.memWrite(a, c.V[n][0], 8); f != nil {
				return c.memFault(pc, f)
			}
			if f := c.memWrite(a+8, c.V[n][1], 8); f != nil {
				return c.memFault(pc, f)
			}
			return nil
		}
		var v uint64
		if fp {
			v = c.fpGet(n, w)
		} else {
			v = c.get(n, w)
		}
		if f := c.memWrite(a, v, size); f != nil {
			return c.memFault(pc, f)
		}
		return nil
	}
	if fp && size == 16 {
		lo, f := c.memRead(a, 8)
		if f != nil {
			return c.memFault(pc, f)
		}
		hi, f := c.memRead(a+8, 8)
		if f != nil {
			return c.memFault(pc, f)
		}
		c.V[n][0], c.V[n][1] = lo, hi
		return nil
	}
	v, f := c.memRead(a, size)
	if f != nil {
		return c.memFault(pc, f)
	}
	v = uint64(int64(v<<sx) >> sx)
	if fp {
		c.fpSet(n, w, v)
	} else {
		c.put(n, w, v)
	}
	return nil
}

// execMem runs a single-register load or store without a handler of its
// own: FP and q transfers and writeback modes.
func (c *CPU) execMem(s *instSlot) (uint64, *Trap) {
	addr, wb, wbVal := c.effAddr(s)
	if tr := c.xfer(s.op.IsStore(), s.fp&fpD != 0, s.rd, s.wd, addr, int(s.size), s.sx, s.pc); tr != nil {
		return addr, tr
	}
	if wb {
		c.put(s.rn, s.wn, wbVal)
	}
	return addr, nil
}

func (c *CPU) execPair(s *instSlot) (uint64, *Trap) {
	addr, wb, wbVal := c.effAddr(s)
	size := int(s.size)
	store := s.op == arm64.STP
	if tr := c.xfer(store, s.fp&fpD != 0, s.rd, s.wd, addr, size, 0, s.pc); tr != nil {
		return addr, tr
	}
	if tr := c.xfer(store, s.fp&fpM != 0, s.rm, s.wm, addr+uint64(size), size, 0, s.pc); tr != nil {
		return addr, tr
	}
	if wb {
		c.put(s.rn, s.wn, wbVal)
	}
	return addr, nil
}

func (c *CPU) execExclusive(s *instSlot) (uint64, *Trap) {
	addr := c.get(s.rn, s.wn)
	size := int(s.size)
	switch s.op {
	case arm64.LDXR, arm64.LDAXR:
		v, f := c.memRead(addr, size)
		if f != nil {
			return addr, c.memFault(s.pc, f)
		}
		c.exclAddr, c.exclValid = addr, true
		c.put(s.rd, s.wd, v)
	case arm64.STXR, arm64.STLXR:
		if c.exclValid && c.exclAddr == addr {
			if f := c.memWrite(addr, c.get(s.rd, s.wd), size); f != nil {
				return addr, c.memFault(s.pc, f)
			}
			c.put(s.rm, s.wm, 0) // success
		} else {
			c.put(s.rm, s.wm, 1) // failure
		}
		c.exclValid = false
	case arm64.LDAR:
		v, f := c.memRead(addr, size)
		if f != nil {
			return addr, c.memFault(s.pc, f)
		}
		c.put(s.rd, s.wd, v)
	case arm64.STLR:
		if f := c.memWrite(addr, c.get(s.rd, s.wd), size); f != nil {
			return addr, c.memFault(s.pc, f)
		}
	}
	return addr, nil
}
