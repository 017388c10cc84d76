// Package verifier implements the LFI static verifier (§5.2): a single
// linear pass over the text segment of a binary that proves the machine
// code cannot escape its sandbox. Nothing upstream — not the compiler, not
// the rewriter, not the assembler — is trusted; every security property is
// checked directly on the encoded instructions.
//
// The verifier enforces three properties:
//
//  1. Loads, stores, and indirect branches only go through registers that
//     always hold valid sandbox addresses (x18, x23, x24, sp, x30), or use
//     the guarded addressing mode [x21, wN, uxtw].
//  2. Reserved registers are only written by invariant-preserving
//     instructions: x21 never, x18/x23/x24 only by the canonical guard,
//     x22 only through its 32-bit view, sp and x30 only by guarded or
//     self-limiting sequences.
//  3. Only instructions from the safe-instruction allowlist appear (no
//     svc, no writes to system registers other than the thread pointer).
package verifier

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"

	"lfi/internal/arm64"
	"lfi/internal/core"
)

// Config parameterizes verification.
type Config struct {
	// TextOff is the byte offset of the text segment within its sandbox;
	// it is needed to bounds-check PC-relative literal loads.
	TextOff uint64

	// AllowLLSC permits the load-linked/store-conditional instructions.
	// §7.1 describes disallowing them to close the S2C timerless
	// side channel on Apple cores.
	AllowLLSC bool

	// AllowTLS permits mrs/msr of tpidr_el0 (thread-local storage base).
	AllowTLS bool

	// NoLoads verifies the weaker "fault isolation" property of §6.1:
	// stores and control flow are still fully checked, but loads that do
	// not write protected registers may use any addressing mode. Sandboxes
	// verified this way can read (but not modify or disturb) their
	// neighbors.
	NoLoads bool
}

// DefaultConfig matches the paper's default deployment.
func DefaultConfig() Config {
	return Config{AllowLLSC: true, AllowTLS: true}
}

// Error reports a verification failure at a specific instruction.
type Error struct {
	Offset uint64 // byte offset within the text segment
	Word   uint32
	Inst   string // disassembly if decodable
	Msg    string
}

func (e *Error) Error() string {
	if e.Inst != "" {
		return fmt.Sprintf("verifier: +%#x: %q: %s", e.Offset, e.Inst, e.Msg)
	}
	return fmt.Sprintf("verifier: +%#x: word %#08x: %s", e.Offset, e.Word, e.Msg)
}

// Stats summarizes a successful verification, for throughput reporting.
type Stats struct {
	Bytes  int
	Insts  int
	Guards int // canonical guard instructions seen
}

// Verify checks the text segment. It returns nil exactly when every
// instruction satisfies the LFI invariants.
func Verify(text []byte, cfg Config) (Stats, error) { return verifyText(text, cfg, 0) }

// minVerifyChunk is the fewest instructions worth a goroutine.
const minVerifyChunk = 16 << 10

// verifyText is Verify in k chunks (0: one per minVerifyChunk, at most
// GOMAXPROCS). Each word is decoded and checked in one step. A chunk
// checks its own instructions and reads past its end only to settle the
// obligations they left open. An undecodable word anywhere beats a check
// failure anywhere, and of each kind the lowest chunk's error wins.
func verifyText(text []byte, cfg Config, k int) (Stats, error) {
	if len(text)%4 != 0 {
		return Stats{}, &Error{Offset: uint64(len(text) &^ 3), Msg: "text size not a multiple of 4"}
	}
	// Check TextOff against the margin before adding the length: the sum
	// cfg.TextOff+len(text) can wrap for a hostile TextOff near 2^64,
	// making oversized text appear to fit.
	if cfg.TextOff > core.MaxCodeOffset || uint64(len(text)) > core.MaxCodeOffset-cfg.TextOff {
		return Stats{}, &Error{Msg: fmt.Sprintf("text extends past the 128MiB code margin (%#x)", core.MaxCodeOffset)}
	}
	if cfg.TextOff < core.MinCodeOffset {
		return Stats{}, &Error{Msg: fmt.Sprintf("text begins before the code region (%#x)", core.MinCodeOffset)}
	}
	n := len(text) / 4
	if k == 0 {
		k = max(1, min(runtime.GOMAXPROCS(0), n/minVerifyChunk))
	}
	if k == 1 { // on the stack: the fan-out's closure would move vs to the heap
		vs := [1]verify{{cfg: cfg, text: text}}
		vs[0].run(0, n)
		return verdict(vs[:], n)
	}
	vs := make([]verify, k)
	inChunks(k, func(c int) {
		vs[c] = verify{cfg: cfg, text: text}
		vs[c].run(c*n/k, (c+1)*n/k)
	})
	return verdict(vs, n)
}

// verdict joins the chunks' results.
func verdict(vs []verify, n int) (Stats, error) {
	st, first := Stats{Bytes: 4 * n, Insts: n}, (*Error)(nil)
	for c := range vs {
		if vs[c].bad {
			return Stats{}, vs[c].err
		}
		if first == nil {
			first = vs[c].err
		}
		st.Guards += vs[c].guards
	}
	if first != nil {
		return Stats{Bytes: 4 * n, Insts: n}, first
	}
	return st, nil
}

// inChunks runs fn(0), …, fn(k-1) at once, fn(0) on this goroutine.
func inChunks(k int, fn func(c int)) {
	var wg sync.WaitGroup
	wg.Add(k - 1)
	for c := 1; c < k; c++ {
		go func() { fn(c); wg.Done() }()
	}
	fn(0)
	wg.Wait()
}

// verify is one chunk's pass. Between two instructions all it knows is
// its guard count, its first failure, and the forward obligations still
// open (§4.2, §4.4). An instruction opens at most one: the runtime-call
// load's x30 write is exempt from the re-guard, and an sp write with a
// second destination is a writeback, which is either sp-based and safe or
// rejected by checkMemory.
type verify struct {
	cfg    Config
	text   []byte
	guards int

	call   bool  // the last instruction was ldr x30, [x21, #n]: this one must be blr x30
	x30    bool  // the last instruction wrote x30 unguarded: this one must re-guard it
	spAt   int   // the instruction whose sp write is still unguarded
	spPair uint8 // 1, 2: mov w22, wsp, then add sp, x21, x22 may still follow; 0: cannot
	spScan bool  // elided add/sub: an sp-based access before a branch or sp write will do

	err   *Error // the lowest-offset failure so far
	errAt int
	bad   bool // err is an undecodable word, which beats any check failure
}

// run checks instructions lo to hi-1, decoding each word as it reaches
// it. After a failure it only decodes, to hi and on while an obligation
// of an instruction at or before the failure is open.
func (v *verify) run(lo, hi int) {
	n := len(v.text) / 4
	var inst arm64.Inst
	for i := lo; i < hi || v.call || v.x30 || v.spPair != 0 || v.spScan; i++ {
		if i == n {
			v.settle(&endOfText, i)
			break
		}
		w := binary.LittleEndian.Uint32(v.text[i*4:])
		if err := arm64.DecodeInto(w, &inst); err != nil {
			v.err, v.bad = &Error{Offset: uint64(i * 4), Word: w, Msg: "undecodable instruction"}, true
			return
		}
		v.settle(&inst, i)
		if v.err == nil && i < hi {
			if err := v.check(&inst, i); err != nil {
				v.err, v.errAt = err, i
			}
		}
	}
	if v.err != nil {
		arm64.DecodeInto(binary.LittleEndian.Uint32(v.text[v.errAt*4:]), &inst)
		v.err.Offset, v.err.Inst = uint64(v.errAt*4), inst.String()
	}
}

// endOfText settles obligations as a branch would: it discharges none.
var endOfText = arm64.Inst{Op: arm64.B}

// settle runs the open obligations against instruction i. A failure is
// the error of the instruction that opened the obligation, so it replaces
// any failure found at or after that one: the obligation's check came
// first there.
func (v *verify) settle(inst *arm64.Inst, i int) {
	if v.spPair != 0 || v.spScan {
		access, escape := spStep(inst)
		switch {
		case v.spPair == 2 && isSPGuardAdd(inst), v.spScan && access:
			v.spPair, v.spScan = 0, false
		case v.spPair == 1 && isSPGuardMov(inst): // neither branch nor sp write
			v.spPair = 2
		default:
			if v.spPair, v.spScan = 0, v.spScan && !escape; !v.spScan {
				v.fail(v.spAt, "sp written without a guard")
			}
		}
	}
	if v.x30 && !core.IsGuard(inst, arm64.X30) {
		v.fail(i-1, "x30 written without an immediately following guard")
	}
	if msg := "runtime-call load must be followed by blr x30"; v.call && (inst.Op != arm64.BLR || inst.Rn != arm64.X30) {
		if inst == &endOfText {
			msg = "runtime-call load at end of text"
		}
		v.fail(i-1, msg)
	}
	v.call, v.x30 = false, false
}

func (v *verify) fail(at int, msg string) {
	if v.err == nil || at <= v.errAt {
		v.err, v.errAt = &Error{Msg: msg}, at
	}
}

func vErr(format string, args ...any) *Error {
	return &Error{Msg: fmt.Sprintf(format, args...)}
}

// validAddrReg reports whether reads of r always see a valid sandbox
// address.
func validAddrReg(r arm64.Reg) bool {
	switch r {
	case core.RegScratch, core.RegHoist1, core.RegHoist2, arm64.SP, arm64.X30:
		return true
	}
	return false
}

func (v *verify) check(inst *arm64.Inst, i int) *Error {
	// Property 3: allowlist.
	if err := v.allowlisted(inst); err != nil {
		return err
	}

	// Property 1: memory accesses and indirect branches.
	if inst.Op.IsMemory() {
		if err := v.checkMemory(inst, i); err != nil {
			return err
		}
	}
	switch inst.Op {
	case arm64.BR, arm64.BLR:
		if !validAddrReg(inst.Rn) {
			return vErr("indirect branch through unguarded register %v", inst.Rn)
		}
	case arm64.RET:
		if !validAddrReg(inst.Rn) {
			return vErr("return through unguarded register %v", inst.Rn)
		}
	}

	// Property 2: writes to protected registers.
	return v.checkWrites(inst, i)
}

func (v *verify) allowlisted(inst *arm64.Inst) *Error {
	switch inst.Op {
	case arm64.SVC:
		return vErr("system calls are forbidden; use the runtime-call table")
	case arm64.LDXR, arm64.LDAXR, arm64.STXR, arm64.STLXR:
		if !v.cfg.AllowLLSC {
			return vErr("ll/sc instructions disabled by configuration (S2C side channel)")
		}
	case arm64.MRS:
		switch inst.Imm {
		case sysTPIDR:
			if !v.cfg.AllowTLS {
				return vErr("tls access disabled by configuration")
			}
		case sysCNTVCT:
			// Virtual counter reads are safe.
		default:
			return vErr("read of system register %#x", inst.Imm)
		}
	case arm64.MSR:
		if inst.Imm != sysTPIDR || !v.cfg.AllowTLS {
			return vErr("write to system register %#x", inst.Imm)
		}
	}
	return nil
}

const (
	sysTPIDR  = 1<<14 | 3<<11 | 13<<7 | 0<<3 | 2
	sysCNTVCT = 1<<14 | 3<<11 | 14<<7 | 0<<3 | 2
)

// checkMemory enforces property 1 for the load/store at index i.
func (v *verify) checkMemory(inst *arm64.Inst, i int) *Error {
	// Under the no-loads policy, plain loads are exempt from address
	// checks; loads that write x30 or use writeback on protected
	// registers still go through the full rules below.
	if v.cfg.NoLoads && inst.Op.IsLoad() && !inst.Mem.WritesBack() {
		x30Dest := inst.Rd.X() == arm64.X30 ||
			(inst.Op == arm64.LDP && inst.Rm.X() == arm64.X30)
		if !x30Dest {
			return nil
		}
	}

	// Exclusives address through Rn with no offset.
	switch inst.Op {
	case arm64.LDXR, arm64.LDAXR, arm64.STXR, arm64.STLXR, arm64.LDAR, arm64.STLR:
		if !validAddrReg(inst.Rn) {
			return vErr("exclusive access through unguarded register %v", inst.Rn)
		}
		return nil
	}

	m := inst.Mem
	switch m.Mode {
	case arm64.AddrLiteral:
		// PC-relative: the target must stay inside this sandbox. Derived
		// in uint64 with explicit wrap guards (the same style as the
		// Verify entry check): summing in int64 could wrap for a hostile
		// TextOff combined with a large displacement and sneak an
		// escaping target past the bound.
		pc := v.cfg.TextOff + uint64(i)*4 // cannot wrap: both bounded by MaxCodeOffset
		target := pc + uint64(inst.Imm)   // two's-complement; wrap checked below
		if inst.Imm >= 0 && target < pc {
			return vErr("literal load displacement wraps the address space")
		}
		if inst.Imm < 0 && target > pc {
			return vErr("literal load reaches below the sandbox")
		}
		if target >= core.SandboxSize {
			return vErr("literal load escapes the sandbox (target offset %#x)", target)
		}
		return nil

	case arm64.AddrBase, arm64.AddrImm, arm64.AddrPre, arm64.AddrPost:
		if m.Base == core.RegBase {
			// Only the runtime-call idiom may address off x21.
			return v.checkRuntimeCall(inst)
		}
		if !validAddrReg(m.Base) {
			return vErr("access through unguarded base %v", m.Base)
		}
		// Most immediate offsets are bounded by their encodings to at most
		// 32760 bytes — well within the 48KiB guard regions — but the
		// q-register scaled form reaches 65520, past the guard and into the
		// neighboring slot. Bound the reach explicitly: from the worst-case
		// base (one byte below the slot end) a 16-byte access at offset
		// GuardSize-16 still ends inside the guard.
		immHi, immLo := int64(core.GuardSize)-16, -int64(core.GuardSize)
		if m.Base.IsSP() {
			// sp is not confined to the slot the way x18/x23/x24/x30 are:
			// the §4.2 elisions let it drift by up to SPMaxDrift (one
			// un-reguarded add/sub plus index writeback) at the moment an
			// access executes. Shrink the immediate bounds by that drift
			// so the worst-case access still lands inside the guard bands.
			immHi -= int64(core.SPMaxDrift)
			immLo += int64(core.SPMaxDrift)
		}
		if int64(m.Imm) > immHi || int64(m.Imm) < immLo {
			return vErr("immediate offset %d reaches past the guard region", m.Imm)
		}
		// Writeback modifies the base: only sp self-limits (§4.2); the
		// reserved always-valid registers must not drift.
		if m.WritesBack() && !m.Base.IsSP() {
			return vErr("writeback through protected register %v", m.Base)
		}
		return nil

	case arm64.AddrRegUXTW:
		if m.Base != core.RegBase {
			return vErr("guarded addressing requires base x21, got %v", m.Base)
		}
		if !m.Index.Is32() || m.Index.IsSP() {
			return vErr("guarded addressing requires a w-register index")
		}
		// A scaled 32-bit index can reach past 4GiB and the guard region;
		// the paper's guarded mode uses no shift.
		if m.Amount > 0 {
			return vErr("guarded addressing must not scale the index")
		}
		return nil

	default:
		return vErr("unsafe addressing mode %v", m.Mode)
	}
}

// checkRuntimeCall validates "ldr x30, [x21, #n]" and obliges the next
// instruction to be "blr x30" (§4.4).
func (v *verify) checkRuntimeCall(inst *arm64.Inst) *Error {
	if inst.Op != arm64.LDR || inst.Rd != arm64.X30 {
		return vErr("only the runtime-call load may address off x21")
	}
	m := inst.Mem
	if m.Mode != arm64.AddrImm && m.Mode != arm64.AddrBase {
		return vErr("runtime-call load must use immediate addressing")
	}
	if m.Imm < 0 || int64(m.Imm) >= core.MaxTableOffset || m.Imm%8 != 0 {
		return vErr("runtime-call table offset %d out of range", m.Imm)
	}
	v.call = true
	return nil
}

// checkWrites enforces property 2 for the instruction at index i.
func (v *verify) checkWrites(inst *arm64.Inst, i int) *Error {
	var dsts [4]arm64.Reg
	for _, d := range inst.DestRegs(dsts[:0]) {
		switch {
		case d.X() == core.RegBase:
			return vErr("write to x21 (sandbox base)")

		case d == core.RegScratch || d == core.RegHoist1 || d == core.RegHoist2:
			if !core.IsGuard(inst, d) {
				return vErr("%v written by a non-guard instruction", d)
			}
			v.guards++

		case d.IsGP() && core.IsReserved(d) && d.Is32() && d.X() != core.RegAddr32:
			// w18/w23/w24 writes would break the valid-address invariant;
			// w22 writes are always fine (they zero-extend).
			return vErr("32-bit write to reserved register %v", d)

		case d == core.RegAddr32:
			// 64-bit writes to x22 could set its high bits.
			return vErr("64-bit write to x22")

		case d.X() == arm64.X30:
			// bl/blr write the return address, and the runtime-call load
			// (immediate form only) has obliged the next instruction to be
			// blr x30. Any other write, ldr x30, [x21, wN, uxtw] included,
			// is permitted only when the very next instruction re-guards
			// x30 (§4.2): the dirty value is confined to the fall-through
			// path, which immediately passes the guard.
			switch {
			case d.Is32():
				return vErr("32-bit write to w30")
			case core.IsGuard(inst, arm64.X30):
				v.guards++
			case inst.Op != arm64.BL && inst.Op != arm64.BLR && !v.call:
				v.x30 = true
			}

		case d.IsSP():
			v.checkSPWrite(inst, i)
		}
	}
	return nil
}

// checkSPWrite allows: the sp guard (add sp, x21, x22), writeback from
// sp-based accesses (checked in checkMemory), small add/sub sp, sp, #imm
// followed linearly by an sp access (§4.2), and any sp write immediately
// followed by the two-instruction guard sequence. The last two are
// obligations on the instructions that follow.
func (v *verify) checkSPWrite(inst *arm64.Inst, i int) {
	// Writeback on an sp-based access was validated by checkMemory; the
	// guard itself is add sp, x21, x22 (x22 always has 32 zero top bits).
	if inst.Op.IsMemory() && inst.Mem.WritesBack() && inst.Mem.Base.IsSP() || isSPGuardAdd(inst) {
		return
	}

	// add/sub sp, sp, #imm with imm < 2^10 may instead be followed by an sp
	// access before the next branch or sp write (§4.2). This elision is
	// only sound for the 64-bit form: "add wsp, wsp, #imm" would zero the
	// top 32 bits of sp and escape downward.
	v.spAt, v.spPair = i, 1
	v.spScan = (inst.Op == arm64.ADD || inst.Op == arm64.SUB) &&
		inst.Rm == arm64.RegNone && inst.Rn == arm64.SP && inst.Rd == arm64.SP &&
		inst.Imm >= 0 && inst.Imm < 1024
}

// isSPGuardMov matches "mov w22, wsp" (add w22, wsp, #0).
func isSPGuardMov(inst *arm64.Inst) bool {
	return inst.Op == arm64.ADD && inst.Rd == core.RegAddr32.W() &&
		inst.Rn == arm64.WSP && inst.Rm == arm64.RegNone && inst.Imm == 0
}

// isSPGuardAdd matches "add sp, x21, x22".
func isSPGuardAdd(inst *arm64.Inst) bool {
	return inst.Op == arm64.ADD && inst.Rd == arm64.SP &&
		inst.Rn == core.RegBase && inst.Rm == core.RegAddr32 &&
		(inst.Ext == arm64.ExtNone || inst.Ext == arm64.ExtUXTX || inst.Ext == arm64.ExtLSL) &&
		inst.Amount <= 0
}

// spStep reports whether inst is a memory access based on sp, which
// settles an elided sp write, or else a branch or another sp write, which
// fails it.
func spStep(inst *arm64.Inst) (access, escape bool) {
	if inst.Op.IsBranch() {
		return false, true
	}
	if inst.Op.IsMemory() {
		base := inst.Mem.Base
		switch inst.Op {
		case arm64.LDXR, arm64.LDAXR, arm64.STXR, arm64.STLXR, arm64.LDAR, arm64.STLR:
			base = inst.Rn
		}
		if base.IsSP() {
			return true, false
		}
	}
	var dsts [4]arm64.Reg
	for _, d := range inst.DestRegs(dsts[:0]) {
		if d.IsSP() {
			return false, true
		}
	}
	return false, false
}
