package emu

import (
	"math"

	"lfi/internal/arm64"
)

// fpGet reads the low bits of v register n through a view of w bits.
func (c *CPU) fpGet(n, w uint8) uint64 {
	v := c.V[n][0]
	switch w {
	case 8:
		return v & 0xff
	case 16:
		return v & 0xffff
	case 32:
		return v & 0xffffffff
	}
	return v
}

// fpSet writes a w-bit view of v register n; writes clear the rest of the
// vector register, matching AArch64 scalar write semantics.
func (c *CPU) fpSet(n, w uint8, v uint64) {
	switch w {
	case 8:
		v &= 0xff
	case 16:
		v &= 0xffff
	case 32:
		v &= 0xffffffff
	}
	c.V[n] = [2]uint64{v, 0}
}

// fpVal loads a register view as float64 (converting from float32 views).
func (c *CPU) fpVal(n, w uint8) float64 {
	b := c.fpGet(n, w)
	if w == 64 {
		return math.Float64frombits(b)
	}
	return float64(math.Float32frombits(uint32(b)))
}

// setFPVal stores a float64 into a register view (converting to float32
// views as needed).
func (c *CPU) setFPVal(n, w uint8, v float64) {
	if w == 64 {
		c.fpSet(n, w, math.Float64bits(v))
	} else {
		c.fpSet(n, w, uint64(math.Float32bits(float32(v))))
	}
}

// fcmp sets NZCV from comparing a with b.
func (c *CPU) fcmp(a, b float64) {
	switch {
	case math.IsNaN(a) || math.IsNaN(b):
		c.FlagN, c.FlagZ, c.FlagC, c.FlagV = false, false, true, true
	case a == b:
		c.FlagN, c.FlagZ, c.FlagC, c.FlagV = false, true, true, false
	case a < b:
		c.FlagN, c.FlagZ, c.FlagC, c.FlagV = true, false, false, false
	default:
		c.FlagN, c.FlagZ, c.FlagC, c.FlagV = false, false, true, false
	}
}

// execFP runs the FP ops other than fmov-immediate and fcmp-zero.
func (c *CPU) execFP(s *instSlot) *Trap {
	switch s.op {
	case arm64.FMOV:
		switch {
		case s.fp&(fpD|fpN) == fpD|fpN: // bit move between equal views
			c.fpSet(s.rd, s.wd, c.fpGet(s.rn, s.wn))
		case s.fp&fpD == 0: // fp -> gpr: raw bits
			c.put(s.rd, s.wd, c.fpGet(s.rn, s.wn))
		default: // gpr -> fp: raw bits
			c.fpSet(s.rd, s.wd, c.get(s.rn, s.wn))
		}

	case arm64.FADD, arm64.FSUB, arm64.FMUL, arm64.FDIV:
		a, b := c.fpVal(s.rn, s.wn), c.fpVal(s.rm, s.wm)
		var r float64
		switch s.op {
		case arm64.FADD:
			r = a + b
		case arm64.FSUB:
			r = a - b
		case arm64.FMUL:
			r = a * b
		case arm64.FDIV:
			r = a / b
		}
		c.setFPVal(s.rd, s.wd, r)

	case arm64.FMADD:
		c.setFPVal(s.rd, s.wd, c.fpVal(s.ra, s.wa)+c.fpVal(s.rn, s.wn)*c.fpVal(s.rm, s.wm))
	case arm64.FMSUB:
		c.setFPVal(s.rd, s.wd, c.fpVal(s.ra, s.wa)-c.fpVal(s.rn, s.wn)*c.fpVal(s.rm, s.wm))

	case arm64.FNEG:
		c.setFPVal(s.rd, s.wd, -c.fpVal(s.rn, s.wn))
	case arm64.FABS:
		c.setFPVal(s.rd, s.wd, math.Abs(c.fpVal(s.rn, s.wn)))
	case arm64.FSQRT:
		c.setFPVal(s.rd, s.wd, math.Sqrt(c.fpVal(s.rn, s.wn)))

	case arm64.FCMP:
		c.fcmp(c.fpVal(s.rn, s.wn), c.fpVal(s.rm, s.wm))

	case arm64.FCSEL:
		if c.CondHolds(s.cond) {
			c.fpSet(s.rd, s.wd, c.fpGet(s.rn, s.wn))
		} else {
			c.fpSet(s.rd, s.wd, c.fpGet(s.rm, s.wm))
		}

	case arm64.FCVT:
		if s.wd == 16 || s.wn == 16 {
			return &Trap{Kind: TrapUndefined, PC: s.pc}
		}
		c.setFPVal(s.rd, s.wd, c.fpVal(s.rn, s.wn))

	case arm64.SCVTF:
		v := int64(c.get(s.rn, s.wn))
		if s.wn == 32 {
			v = int64(int32(v))
		}
		c.setFPVal(s.rd, s.wd, float64(v))
	case arm64.UCVTF:
		c.setFPVal(s.rd, s.wd, float64(c.get(s.rn, s.wn)))

	case arm64.FCVTZS:
		v := c.fpVal(s.rn, s.wn)
		if s.wd == 0 {
			c.put(s.rd, s.wd, uint64(satS64(v)))
		} else {
			c.put(s.rd, s.wd, uint64(uint32(satS32(v))))
		}
	case arm64.FCVTZU:
		v := c.fpVal(s.rn, s.wn)
		if s.wd == 0 {
			c.put(s.rd, s.wd, satU64(v))
		} else {
			c.put(s.rd, s.wd, uint64(uint32(satU32(v))))
		}
	}
	return nil
}

func satS64(v float64) int64 {
	switch {
	case math.IsNaN(v):
		return 0
	case v >= math.MaxInt64:
		return math.MaxInt64
	case v <= math.MinInt64:
		return math.MinInt64
	}
	return int64(v)
}

func satS32(v float64) int32 {
	switch {
	case math.IsNaN(v):
		return 0
	case v >= math.MaxInt32:
		return math.MaxInt32
	case v <= math.MinInt32:
		return math.MinInt32
	}
	return int32(v)
}

func satU64(v float64) uint64 {
	switch {
	case math.IsNaN(v) || v <= 0:
		return 0
	case v >= math.MaxUint64:
		return math.MaxUint64
	}
	return uint64(v)
}

func satU32(v float64) uint32 {
	switch {
	case math.IsNaN(v) || v <= 0:
		return 0
	case v >= math.MaxUint32:
		return math.MaxUint32
	}
	return uint32(v)
}
