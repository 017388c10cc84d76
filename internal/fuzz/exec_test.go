package fuzz

import (
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"lfi/internal/arm64"
	"lfi/internal/emu"
	"lfi/internal/mem"
)

const (
	execText = uint64(0x100000) // one page of fuzzed words
	execData = uint64(0x200000) // one read-write page the registers point into
	execMax  = 2048             // instructions per input
)

// execSeeds are the zero-register and stack-pointer forms of every
// handler the emulator lowers to, as destinations and as sources: the
// operand encodings where a register-file index can go wrong.
var execSeeds = []string{
	// moves and immediates
	"movz xzr, #5\nmovn wzr, #1\nmovk xzr, #7, lsl #16\nmovk wzr, #7\nadr x0, #16\nadrp x1, #4096\nmov x2, sp\nmov sp, x16",
	// add/sub, immediate and register, flagless and flag-setting
	"add x3, sp, #1\nadd wsp, wsp, #16\nadd sp, sp, #32\nsub wsp, w2, #3\nsub sp, x16, #8\nadds xzr, sp, #1\nsubs wzr, wsp, #2\nadds w4, wsp, #5\ncmp sp, #16\ncmn x1, #1",
	"add xzr, x1, x2\nadd x3, xzr, x2, lsl #3\nadd x4, x1, wzr, uxtw\nadd sp, x21, x22\nadd x5, sp, w2, uxtw #2\nsub wzr, w1, w2, lsr #3\nsubs x6, xzr, x2, asr #5\nadds wzr, w1, w2, lsl #1\ncmp x1, w2, sxtw\nneg x7, x2",
	// logical
	"and xzr, x1, #0xff\norr wzr, w1, #1\neor x3, xzr, #0x3\nand sp, x16, #0xfffffffffffffff0\nmov x4, xzr\nmov w5, wzr\norr x6, xzr, x2, lsl #4\neor wzr, w1, w2\nands xzr, x1, x2\ntst w1, #1\nbic x7, x1, xzr\norn w8, wzr, w2\neon x9, x1, x2, ror #7\nbics wzr, w1, w2",
	// bitfields, shifts, multiply, divide, bit ops, conditional select/compare
	"ubfm xzr, x1, #4, #8\nsbfm w3, wzr, #1, #31\nbfm x4, xzr, #60, #3\nlsl x5, x2, #3\nasr wzr, w2, #1\nextr xzr, x1, x2, #7\nlsl x6, xzr, x2\nror wzr, w1, w2\nmadd xzr, x1, x2, x3\nmsub w7, wzr, w2, w3\nsmaddl x8, wzr, w2, xzr\numulh xzr, x1, x2\nsmulh x9, xzr, x2",
	"udiv xzr, x1, x2\nsdiv w3, wzr, w2\nsdiv x4, x1, xzr\nclz xzr, x1\ncls w5, wzr\nrbit x6, xzr\nrev wzr, w1\nrev16 x7, x2\nrev32 x8, xzr\ncsel xzr, x1, x2, eq\ncsinc wzr, wzr, wzr, ne\ncsinv x9, xzr, x2, lt\ncsneg w10, w1, wzr, ge\nccmp xzr, #3, #4, ne\nccmn w1, wzr, #2, eq",
	// branches
	"cbz xzr, #8\nbrk #1\ncbnz wzr, #8\ntbz wzr, #3, #8\nbrk #2\ntbnz xzr, #63, #8\nb.ne #8\nbl #8\nbrk #3\nadr x30, #8\nret\nbrk #4\nadr x17, #8\nbr x17\nbrk #5\nadr x18, #8\nblr x18\nbrk #0",
	// loads and stores: immediate, register, sxtw, writeback, pairs, exclusives, literals
	"ldr xzr, [sp, #8]\nstr xzr, [sp, #16]\nldr wzr, [x16]\nstr wzr, [x16, #4]\nldrb wzr, [x16, x1]\nstrh wzr, [x17, x2, lsl #1]\nldrsw xzr, [x16, w2, sxtw #2]\nstr wzr, [x16, w2, uxtw #2]\nldrsb w3, [sp, x1]\nldrsh xzr, [x16, #2]\nldr x4, #8",
	"str xzr, [sp, #-16]!\nldr xzr, [sp], #16\nldp xzr, x1, [sp]\nstp xzr, xzr, [sp, #16]\nldp w2, wzr, [x16, #8]!\nstp wzr, w3, [x16], #8\nldxr xzr, [sp]\nstxr wzr, xzr, [sp]\nldaxr w4, [x16]\nstlxr w5, wzr, [x16]\nldar xzr, [x16]\nstlr wzr, [x16]",
	// floating point, through the zero register and sp-based addressing
	"fmov d0, #1.0\nfmov s1, wzr\nfmov xzr, d0\nfmov d2, xzr\nfadd d3, d0, d2\nfcmp s1, #0.0\nfcmp d0, d3\nfcsel d4, d0, d3, eq\nscvtf d5, xzr\nucvtf s6, wzr\nfcvtzs xzr, d0\nfcvtzu w7, s1\nstr d0, [sp, #8]\nldr q1, [sp]\nstp s0, s1, [sp, #32]\nfmadd d8, d0, d3, d4\nfsqrt d9, d3\nfcvt s10, d9",
	// system
	"mrs xzr, tpidr_el0\nmsr tpidr_el0, xzr\nmrs x1, nzcv\nmsr nzcv, xzr\nmrs x2, cntvct_el0\nnop\ndmb ish\nsvc #0",
}

// assembleWords encodes one instruction per line.
func assembleWords(t testing.TB, src string) []byte {
	var out []byte
	for _, line := range strings.Split(src, "\n") {
		inst, err := arm64.ParseInst(line)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		w, err := arm64.Encode(&inst)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		out = binary.LittleEndian.AppendUint32(out, w)
	}
	return out
}

// newExecCPU maps text (padded with zero words, which are undefined) and
// a patterned data page, and points the registers into it: x0..x15 hold
// small offsets, x16..x30 and sp addresses in the data page, v0..v31
// assorted doubles.
func newExecCPU(t testing.TB, text []byte, fastpath bool) *emu.CPU {
	as := mem.NewAddrSpace(pageSize)
	if err := as.Map(execText, pageSize, mem.PermRX); err != nil {
		t.Fatal(err)
	}
	as.WriteForce(text, execText)
	if err := as.Map(execData, pageSize, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, pageSize)
	for i := range data {
		data[i] = byte(i*7 + i>>8)
	}
	as.WriteForce(data, execData)
	c := emu.New(as)
	c.SetFastpath(fastpath)
	c.SetHostCallRegion(execText+pageSize, 4096)
	c.Timing = emu.NewTiming(emu.ModelM1())
	c.PC = execText
	x := c.X()
	for i := range x {
		if i < 16 {
			x[i] = uint64(i * 24)
		} else {
			x[i] = execData + uint64(i-16)*512
		}
	}
	c.SetSP(execData + pageSize/2)
	for i := range c.V {
		c.V[i] = [2]uint64{0x3ff0000000000000 + uint64(i)<<44, uint64(i)}
	}
	return c
}

// FuzzExecLockstep runs a page of fuzzed words, decodable or not, on a
// fast-path CPU and a per-step CPU in lockstep at a fuzzed budget slice,
// comparing registers, flags, PC, Instrs, cycles, mispredicts, TLB misses
// and the trap after every slice and the data page at the end. Both
// executors run the same lowered slots, so this is the oracle for what
// they still do differently: blocks, budget clipping, caches.
func FuzzExecLockstep(f *testing.F) {
	for _, src := range execSeeds {
		f.Add(assembleWords(f, src), uint8(0))
		f.Add(assembleWords(f, src), uint8(6))
	}
	f.Fuzz(func(t *testing.T, text []byte, slice uint8) {
		if len(text) > int(pageSize) {
			text = text[:pageSize]
		}
		slow := newExecCPU(t, text, false)
		fast := newExecCPU(t, text, true)
		n := uint64(slice%32) + 1
		for spent := uint64(0); spent < execMax; spent += n {
			st, ft := slow.Run(n), fast.Run(n)
			if d := trapsDiffer(st, ft); d != "" {
				t.Fatal(d)
			}
			if d := diverged(slow, fast); d != "" {
				t.Fatal(d)
			}
			if st.Kind != emu.TrapBudget {
				break
			}
		}
		sm, err1 := slow.Mem.SnapshotRange(execData, pageSize)
		fm, err2 := fast.Mem.SnapshotRange(execData, pageSize)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !reflect.DeepEqual(sm, fm) {
			t.Fatal("data pages diverge")
		}
	})
}
