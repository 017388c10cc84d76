package arm64

import "math/bits"

// Logical (bitmask) immediates. ARM64 logical-immediate encodings describe
// a bit pattern as an element of size 2/4/8/16/32/64 bits containing a
// rotated run of ones, replicated across the register width. The fields are
// N (element size 64), immr (rotation) and imms (element size + run length).

func ror(v uint64, r, size uint) uint64 {
	r %= size
	mask := onesMask(size)
	v &= mask
	return ((v >> r) | (v << (size - r))) & mask
}

func onesMask(n uint) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << n) - 1
}

// EncodeBitmask encodes v as a logical immediate for a 64-bit (is64) or
// 32-bit operation. It reports ok=false for values that have no encoding
// (0 and all-ones, among others).
func EncodeBitmask(v uint64, is64 bool) (n, immr, imms uint32, ok bool) {
	width := uint(64)
	if !is64 {
		if v>>32 != 0 && v>>32 != 0xffffffff {
			return 0, 0, 0, false
		}
		v &= 0xffffffff
		width = 32
	}
	if v == 0 || v == onesMask(width) {
		return 0, 0, 0, false
	}
	// Find the smallest replicating element size.
	size := width
	for size > 2 {
		half := size / 2
		mask := onesMask(half)
		if v&mask != (v>>half)&mask {
			break
		}
		size = half
		v &= mask
	}
	elem := v & onesMask(size)
	ones := uint(bits.OnesCount64(elem))
	if ones == 0 || ones == size {
		return 0, 0, 0, false
	}
	// The element must be a run of ones rotated right by rot. A run that
	// does not reach bit 0 started tz places lower; one that does has
	// wrapped, and its low part is the trailing ones.
	var rot uint
	if elem&1 == 0 {
		rot = size - uint(bits.TrailingZeros64(elem))
	} else {
		rot = ones - uint(bits.TrailingZeros64(^elem))
	}
	if ror(onesMask(ones), rot, size) != elem {
		return 0, 0, 0, false
	}
	if size == 64 {
		n = 1
		imms = uint32(ones - 1)
	} else {
		n = 0
		imms = uint32((0x3f &^ (size*2 - 1)) | (ones - 1))
	}
	immr = uint32(rot)
	return n, immr, imms, true
}

// DecodeBitmask expands a logical-immediate encoding into its value. The
// result is truncated to 32 bits when is64 is false.
func DecodeBitmask(n, immr, imms uint32, is64 bool) (uint64, bool) {
	// len = index of highest set bit of n:NOT(imms)<5:0>
	combined := (n << 6) | (^imms & 0x3f)
	if combined == 0 {
		return 0, false
	}
	length := uint(bits.Len32(combined)) - 1
	if length < 1 {
		return 0, false
	}
	size := uint(1) << length
	if size > 64 || (size == 64 && !is64) {
		return 0, false
	}
	levels := uint32(size - 1)
	s := imms & levels
	r := immr & levels
	if s == levels {
		return 0, false
	}
	welem := onesMask(uint(s) + 1)
	elem := ror(welem, uint(r), size)
	// Replicate across the register width.
	v := elem
	for sz := size; sz < 64; sz *= 2 {
		v |= v << sz
	}
	if !is64 {
		v &= 0xffffffff
	}
	return v, true
}

// vfpExpandImm8 expands the 8-bit FMOV immediate encoding to a float64 bit
// pattern (the float32 pattern is derived by conversion in the emulator).
func vfpExpandImm8(imm8 uint32) uint64 {
	// double = a : NOT(b) : Replicate(b,8) : cd : efgh : Zeros(48)
	a := uint64(imm8>>7) & 1
	b := uint64(imm8>>6) & 1
	cd := uint64(imm8>>4) & 3
	efgh := uint64(imm8) & 0xf
	v := a<<63 | (b^1)<<62 | cd<<52 | efgh<<48
	if b == 1 {
		v |= 0xff << 54
	}
	return v
}

// encodeFPImm8 finds the 8-bit encoding for a float64 bit pattern, if any.
func encodeFPImm8(bitsval uint64) (uint32, bool) {
	for imm := uint32(0); imm < 256; imm++ {
		if vfpExpandImm8(imm) == bitsval {
			return imm, true
		}
	}
	return 0, false
}
