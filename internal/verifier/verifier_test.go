package verifier

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"lfi/internal/arm64"
	"lfi/internal/core"
	"lfi/internal/emu"
	"lfi/internal/mem"
	"lfi/internal/rewrite"
)

const pageSize = 16 * 1024

// asmText assembles raw assembly and returns just the text bytes.
func asmText(t *testing.T, src string) []byte {
	t.Helper()
	f, err := arm64.ParseFile(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	img, err := arm64.Assemble(f, arm64.Layout{
		TextBase: core.SlotBase(1) + core.MinCodeOffset,
		PageSize: pageSize,
	})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return img.Text
}

func verifySrc(t *testing.T, src string) error {
	t.Helper()
	cfg := DefaultConfig()
	cfg.TextOff = core.MinCodeOffset
	_, err := Verify(asmText(t, src), cfg)
	return err
}

// rewriteAndVerify runs the full pipeline: rewrite -> assemble -> verify.
func rewriteAndVerify(t *testing.T, src string, opts core.Options) error {
	t.Helper()
	f, err := arm64.ParseFile(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	nf, _, err := rewrite.Rewrite(f, opts)
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	cfg := DefaultConfig()
	cfg.TextOff = core.MinCodeOffset
	_, err = Verify(asmText(t, nf.String()), cfg)
	if err != nil {
		t.Logf("rewritten assembly:\n%s", nf.String())
	}
	return err
}

// workload exercises every transformation class.
const workload = `
_start:
	adrp x1, buf
	add x1, x1, :lo12:buf
	ldr x0, [x1]
	ldr x2, [x1, #8]
	str x0, [x1, #16]
	str x0, [x1, #24]
	str x0, [x1, #32]
	mov x9, #1
	ldr x3, [x1, x9, lsl #3]
	ldr x4, [x1, w9, uxtw #3]
	ldr x5, [x1, w9, sxtw #3]
	stp x29, x30, [sp, #-32]!
	sub sp, sp, #64
	str x0, [sp, #8]
	ldr x6, [sp, #8]
	add sp, sp, #64
	ldr x6, [sp]
	bl helper
	ldp x29, x30, [sp], #32
	adrp x7, table
	add x7, x7, :lo12:table
	ldr x8, [x7]
	blr x8
	ldr x30, [x21, #16]
	blr x30
	mov x10, #4096
	ldr x11, [x1, #2048]
retry:
	ldxr x12, [x1]
	add x12, x12, #1
	stxr w13, x12, [x1]
	cbnz w13, retry
	ldr d0, [x1, #8]
	fadd d1, d0, d0
	str d1, [x1, #40]
	brk #0
helper:
	sub sp, sp, #4096
	str x0, [sp]
	add sp, sp, #4096
	ret
leaf:
	mov x0, #1
	ret
.data
table:
	.quad leaf
buf:
	.space 128
`

func TestPipelineVerifies(t *testing.T) {
	for _, opts := range []core.Options{
		{Opt: core.O0},
		{Opt: core.O1},
		{Opt: core.O2},
		{Opt: core.O2, NoLoads: false},
		{Opt: core.O1, DisableSPOpts: true},
	} {
		if err := rewriteAndVerify(t, workload, opts); err != nil {
			t.Errorf("%+v: %v", opts, err)
		}
	}
}

func TestNoLoadsPipelineVerifiesWithRelaxedChecker(t *testing.T) {
	// no-loads output intentionally leaves loads unguarded, so the strict
	// verifier must reject it — that mode trades the full-isolation
	// property away (§6.1).
	err := rewriteAndVerify(t, workload, core.Options{Opt: core.O2, NoLoads: true})
	if err == nil {
		t.Error("strict verifier accepted no-loads output")
	}
	// The matching relaxed policy accepts it while still checking stores
	// and control flow.
	f, err := arm64.ParseFile(workload)
	if err != nil {
		t.Fatal(err)
	}
	nf, _, err := rewrite.Rewrite(f, core.Options{Opt: core.O2, NoLoads: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.TextOff = core.MinCodeOffset
	cfg.NoLoads = true
	if _, err := Verify(asmText(t, nf.String()), cfg); err != nil {
		t.Errorf("relaxed verifier rejected no-loads output: %v", err)
	}
	// Stores must still be caught under the relaxed policy.
	if _, err := Verify(asmText(t, "_start:\n\tstr x0, [x1]\n\tret\n"), cfg); err == nil {
		t.Error("relaxed verifier accepted an unguarded store")
	}
}

func TestRejectsUnsafePatterns(t *testing.T) {
	cases := []struct {
		name string
		src  string
		sub  string
	}{
		{"raw load", "\tldr x0, [x1]", "unguarded base"},
		{"raw store", "\tstr x0, [x1, #8]", "unguarded base"},
		{"raw store regoff", "\tstr x0, [x1, x2]", "unsafe addressing"},
		{"svc", "\tsvc #0", "system calls are forbidden"},
		{"write x21", "\tmov x21, x0", "write to x21"},
		{"write x21 arith", "\tadd x21, x21, #1", "write to x21"},
		{"write x18 arith", "\tadd x18, x18, #8", "non-guard"},
		{"write w18", "\tmov w18, w0", "32-bit write"},
		{"write x22 64bit", "\tmov x22, x0", "64-bit write to x22"},
		{"write x23 load", "\tldr x23, [sp]", "non-guard"},
		{"br unguarded", "\tbr x1", "unguarded register"},
		{"blr unguarded", "\tblr x1", "unguarded register"},
		{"ret unguarded", "\tret x1", "unguarded register"},
		{"x30 load unguarded", "\tldr x30, [sp]\n\tnop", "x30"},
		{"x30 mov unguarded", "\tmov x30, x1\n\tnop", "x30"},
		{"sp mov unguarded", "\tmov sp, x1\n\tnop\n\tnop", "sp written"},
		{"sp big sub unguarded", "\tsub sp, sp, #4095\n\tstr x0, [sp]", "sp written"},
		{"sp small sub no access", "\tsub sp, sp, #16\n\tb 8", "sp written"},
		{"guarded addr with shift", "\tldr x0, [x21, w1, uxtw #3]", "must not scale"},
		{"x21 base non-idiom", "\tldr x0, [x21, #8]", "runtime-call"},
		{"rtcall bad offset", "\tldr x30, [x21, #124]\n\tblr x30", "table offset"},
		{"rtcall huge offset", "\tldr x30, [x21, #4096]\n\tblr x30", "table offset"},
		{"rtcall no blr", "\tldr x30, [x21, #16]\n\tnop", "followed by blr"},
		{"writeback on x18", "\tldr x0, [x18, #8]!", "writeback through protected"},
		{"writeback on x30", "\tstr x0, [x30], #8", "writeback through protected"},
		{"mrs forbidden", "\tmrs x0, fpcr", "system register"},
		{"msr forbidden", "\tmsr fpsr, x0", "system register"},
		// A q-register scaled immediate reaches up to 65520 bytes — past the
		// 48KiB guard region and into the neighboring sandbox.
		{"q imm past guard", "\tldr q0, [x23, #65520]", "past the guard"},
		{"q imm past guard store", "\tstr q0, [x18, #49152]", "past the guard"},
	}
	for _, c := range cases {
		err := verifySrc(t, "_start:\n"+c.src+"\n\tret\n")
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.sub) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.sub)
		}
	}
}

func TestAcceptsSafePatterns(t *testing.T) {
	cases := []string{
		"\tldr x0, [sp, #8]",
		"\tstr x0, [sp, #-16]!\n\tldr x0, [sp], #16",
		"\tldr x0, [x18]",
		"\tldr x0, [x23, #32760]",
		"\tldr q0, [x23, #32752]",
		"\tldr q0, [x18, #49136]",
		"\tstr x0, [x24, #8]",
		"\tldr x0, [x21, w1, uxtw]",
		"\tstr q0, [x21, w5, uxtw]",
		"\tadd x18, x21, w1, uxtw\n\tldr x0, [x18]",
		"\tadd x23, x21, w9, uxtw",
		"\tadd x30, x21, w30, uxtw\n\tret",
		"\tldr x30, [x21, #16]\n\tblr x30",
		"\tsub sp, sp, #16\n\tstr x0, [sp]",
		"\tsub sp, sp, #4096\n\tmov w22, wsp\n\tadd sp, x21, x22",
		"\tmov w22, w1",
		"\tadd w22, w1, #22",
		"\tbr x18",
		"\tblr x23",
		"\tret",
		"\tbl 8",
		"\tmrs x0, tpidr_el0\n\tmsr tpidr_el0, x0",
		"\tdmb ish\n\tisb\n\tnop",
		"\tldxr x0, [x18]\n\tstxr w1, x0, [x18]",
		"\tldr x0, 8",
	}
	for _, src := range cases {
		if err := verifySrc(t, "_start:\n"+src+"\n\tret\n"); err != nil {
			t.Errorf("%q rejected: %v", src, err)
		}
	}
}

func TestLiteralBounds(t *testing.T) {
	// A literal load reaching before the sandbox start must be rejected.
	// TextOff is MinCodeOffset = 64KiB; a -128KiB literal escapes.
	err := verifySrc(t, "_start:\n\tldr x0, -131072\n\tret\n")
	if err == nil || !strings.Contains(err.Error(), "literal") {
		t.Errorf("escaping literal: %v", err)
	}
}

func TestTextPlacementBounds(t *testing.T) {
	text := asmText(t, "_start:\n\tret\n")
	cfg := DefaultConfig()
	cfg.TextOff = 0
	if _, err := Verify(text, cfg); err == nil {
		t.Error("text below the code region accepted")
	}
	cfg.TextOff = core.MaxCodeOffset
	if _, err := Verify(text, cfg); err == nil {
		t.Error("text inside the 128MiB margin accepted")
	}
	cfg.TextOff = core.MinCodeOffset
	if _, err := Verify(text, cfg); err != nil {
		t.Errorf("valid placement rejected: %v", err)
	}
}

// TestTextOffOverflow is the regression test for the bounds-check overflow:
// cfg.TextOff+len(text) wraps for TextOff near 2^64, so the old check
// ("sum > MaxCodeOffset") concluded the text fit inside the code region.
func TestTextOffOverflow(t *testing.T) {
	text := asmText(t, "_start:\n\tret\n\tnop\n")
	for _, off := range []uint64{
		^uint64(0),                         // max: any length wraps
		^uint64(0) - uint64(len(text)) + 1, // sum wraps to exactly 0
		^uint64(0) - uint64(len(text)),     // sum wraps to ^uint64(0)... -1
		^uint64(0) &^ 3,                    // aligned max
		core.MaxCodeOffset + 4,             // just past the margin, no wrap
	} {
		cfg := DefaultConfig()
		cfg.TextOff = off
		if _, err := Verify(text, cfg); err == nil {
			t.Errorf("TextOff=%#x accepted; overflow check defeated", off)
		}
	}
	// The margin boundary itself must still work: text ending exactly at
	// MaxCodeOffset is legal.
	cfg := DefaultConfig()
	cfg.TextOff = core.MaxCodeOffset - uint64(len(text))
	if _, err := Verify(text, cfg); err != nil {
		t.Errorf("text ending exactly at the margin rejected: %v", err)
	}
}

// errOffset verifies src and requires rejection by a *verifier.Error with
// the exact byte offset and message substring.
func errOffset(t *testing.T, name, src string, cfg Config, wantOff uint64, sub string) {
	t.Helper()
	f, err := arm64.ParseFile(src)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	img, err := arm64.Assemble(f, arm64.Layout{
		TextBase: core.SlotBase(1) + core.MinCodeOffset,
		PageSize: pageSize,
	})
	if err != nil {
		t.Fatalf("%s: assemble: %v", name, err)
	}
	_, err = Verify(img.Text, cfg)
	if err == nil {
		t.Errorf("%s: accepted", name)
		return
	}
	verr, ok := err.(*Error)
	if !ok {
		t.Errorf("%s: error is %T, not *verifier.Error", name, err)
		return
	}
	if verr.Offset != wantOff {
		t.Errorf("%s: rejected at +%#x, want +%#x (%v)", name, verr.Offset, wantOff, verr)
	}
	if !strings.Contains(verr.Msg, sub) {
		t.Errorf("%s: message %q does not mention %q", name, verr.Msg, sub)
	}
}

// TestAdversarialRejections covers the attack shapes a linear-pass verifier
// must reject precisely because control flow can land anywhere: a guard
// staged through a non-reserved register (a jump target between the guard
// and its access would skip the guard), protected-register writes that look
// dead because a branch hops over them, and stores under the NoLoads
// policy. Each must fail with a *verifier.Error at the exact instruction.
func TestAdversarialRejections(t *testing.T) {
	strict := DefaultConfig()
	strict.TextOff = core.MinCodeOffset
	noLoads := strict
	noLoads.NoLoads = true

	// A "guard" into x9 does not protect the access at +8: any jump target
	// between them (here the explicit label mid) lets an attacker enter
	// with an arbitrary x9. The verifier must reject the access itself.
	errOffset(t, "guard into non-reserved register",
		"_start:\n\tadd x9, x21, w0, uxtw\nmid:\n\tldr x0, [x9]\n\tret\n",
		strict, 4, "unguarded base")

	// Same shape for a store, reached around the guard by a real branch:
	// cbz jumps straight to mid, skipping the staging add entirely.
	errOffset(t, "store through non-reserved staged guard",
		"_start:\n\tcbz x0, mid\n\tadd x9, x21, w0, uxtw\nmid:\n\tstr x2, [x9]\n\tret\n",
		strict, 8, "unguarded base")

	// A non-guard write to a reserved register is rejected even when a
	// branch appears to jump over it: the linear pass assumes every
	// instruction is reachable, so the write at +4 is the finding.
	errOffset(t, "reserved-register write hopped by branch",
		"_start:\n\tcbz x0, over\n\tadd x18, x18, #8\nover:\n\tstr x2, [x18]\n\tret\n",
		strict, 4, "non-guard")

	// The store stays rejected when it is only reachable via the branch:
	// mid-sequence control flow does not launder an unguarded store.
	errOffset(t, "unguarded store reachable via branch",
		"_start:\n\tcbz x0, deep\n\tret\ndeep:\n\tstr x2, [x1, #16]\n\tret\n",
		strict, 8, "unguarded base")

	// NoLoads mode exempts loads but never stores.
	errOffset(t, "noloads store",
		"_start:\n\tldr x0, [x1]\n\tstr x0, [x1, #8]\n\tret\n",
		noLoads, 4, "unguarded base")

	// NoLoads also keeps checking loads that write x30 (control flow) and
	// loads with writeback on protected registers.
	errOffset(t, "noloads x30 load",
		"_start:\n\tldr x30, [x1]\n\tnop\n\tret\n",
		noLoads, 0, "unguarded base")
	errOffset(t, "noloads writeback on x23",
		"_start:\n\tldr x0, [x23, #8]!\n\tret\n",
		noLoads, 0, "writeback through protected")
}

func TestConfigKnobs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TextOff = core.MinCodeOffset
	cfg.AllowLLSC = false
	if _, err := Verify(asmText(t, "_start:\n\tldxr x0, [x18]\n\tret\n"), cfg); err == nil {
		t.Error("ll/sc accepted with AllowLLSC=false")
	}
	cfg = DefaultConfig()
	cfg.TextOff = core.MinCodeOffset
	cfg.AllowTLS = false
	if _, err := Verify(asmText(t, "_start:\n\tmrs x0, tpidr_el0\n\tret\n"), cfg); err == nil {
		t.Error("tls accepted with AllowTLS=false")
	}
}

func TestVerifyStats(t *testing.T) {
	text := asmText(t, "_start:\n\tadd x18, x21, w1, uxtw\n\tldr x0, [x18]\n\tret\n")
	cfg := DefaultConfig()
	cfg.TextOff = core.MinCodeOffset
	st, err := Verify(text, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Insts != 3 || st.Bytes != 12 || st.Guards != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestMutationContainment is the soundness property behind the whole
// system: any text the verifier accepts — including randomly corrupted
// ones — must be unable to touch memory outside its sandbox when run.
func TestMutationContainment(t *testing.T) {
	f, err := arm64.ParseFile(workload)
	if err != nil {
		t.Fatal(err)
	}
	nf, _, err := rewrite.Rewrite(f, core.Options{Opt: core.O2})
	if err != nil {
		t.Fatal(err)
	}
	slot := core.SlotBase(1)
	img, err := arm64.Assemble(nf, arm64.Layout{
		TextBase: slot + core.MinCodeOffset,
		PageSize: pageSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.TextOff = core.MinCodeOffset

	if _, err := Verify(img.Text, cfg); err != nil {
		t.Fatalf("baseline does not verify: %v", err)
	}

	hostBase := uint64(0x7000_0000_0000)
	rng := rand.New(rand.NewSource(12345))
	trials := 400
	if testing.Short() {
		trials = 100
	} else if os.Getenv("LFI_MUTATION_TRIALS") != "" {
		fmt.Sscanf(os.Getenv("LFI_MUTATION_TRIALS"), "%d", &trials)
	}
	accepted, rejected := 0, 0
	for trial := 0; trial < trials; trial++ {
		text := append([]byte(nil), img.Text...)
		// Flip one or two random bits in one random instruction word.
		word := rng.Intn(len(text) / 4)
		bit := uint(rng.Intn(32))
		w := binary.LittleEndian.Uint32(text[word*4:])
		w ^= 1 << bit
		if trial%3 == 0 {
			w ^= 1 << uint(rng.Intn(32))
		}
		binary.LittleEndian.PutUint32(text[word*4:], w)

		if _, err := Verify(text, cfg); err != nil {
			rejected++
			continue
		}
		accepted++

		// The verifier accepted the mutant: run it and check containment.
		as := mem.NewAddrSpace(pageSize)
		up := func(v uint64) uint64 { return (v + pageSize - 1) &^ (pageSize - 1) }
		if err := as.Map(slot, core.CallTableSize, mem.PermRead); err != nil {
			t.Fatal(err)
		}
		for rc := core.RuntimeCall(0); rc < core.NumRuntimeCalls; rc++ {
			as.WriteForce(le64(hostBase+uint64(rc)*16), slot+uint64(rc.TableOffset()))
		}
		if err := as.Map(img.TextAddr, up(uint64(len(text))), mem.PermRX); err != nil {
			t.Fatal(err)
		}
		as.WriteForce(text, img.TextAddr)
		dataEnd := up(img.BSSAddr + img.BSSSize)
		if dataEnd > img.DataAddr {
			if err := as.Map(img.DataAddr, dataEnd-img.DataAddr, mem.PermRW); err != nil {
				t.Fatal(err)
			}
			as.WriteForce(img.Data, img.DataAddr)
		}
		if len(img.ROData) > 0 {
			if err := as.Map(img.RODataAddr, up(uint64(len(img.ROData))), mem.PermRead); err != nil {
				t.Fatal(err)
			}
			as.WriteForce(img.ROData, img.RODataAddr)
		}
		stackTop := slot + 512*1024*1024
		if err := as.Map(stackTop-1024*1024, 1024*1024, mem.PermRW); err != nil {
			t.Fatal(err)
		}

		c := emu.New(as)
		c.SetHostCallRegion(hostBase, 4096)
		c.PC = img.Entry
		c.SetSP(stackTop)
		c.X()[21] = slot
		c.X()[18] = slot + core.MinCodeOffset
		c.X()[23] = slot + core.MinCodeOffset
		c.X()[24] = slot + core.MinCodeOffset
		c.X()[30] = slot + core.MinCodeOffset

		for steps := 0; steps < 3; steps++ { // allow a few host-call resumes
			tr := c.Run(200_000)
			if tr == nil {
				t.Fatal("run returned nil trap")
			}
			switch tr.Kind {
			case emu.TrapHostCall:
				// Runtime would handle it; emulate a return.
				c.PC = c.X()[30]
				if c.PC>>32 != slot>>32 {
					t.Fatalf("trial %d: runtime call with x30 outside sandbox: %#x", trial, c.PC)
				}
				continue
			case emu.TrapMemFault:
				if tr.Fault.Access == mem.AccessExec {
					// Direct branches can reach up to 128MiB past the
					// sandbox, where §3's code margin guarantees nothing
					// executable lives: the fetch traps harmlessly. Data
					// accesses, however, must never leave the slot.
					lo, hi := slot-core.CodeMargin, slot+core.SandboxSize
					if tr.Fault.Addr < lo || tr.Fault.Addr >= hi {
						t.Fatalf("trial %d (word %d bit %d): pc escaped to %#x\n%v",
							trial, word, bit, tr.Fault.Addr, tr)
					}
				} else if tr.Fault.Addr>>32 != slot>>32 {
					t.Fatalf("trial %d (word %d bit %d): escaped to %#x\n%v",
						trial, word, bit, tr.Fault.Addr, tr)
				}
			case emu.TrapSVC:
				t.Fatalf("trial %d: svc executed in verified code", trial)
			}
			break
		}
	}
	if accepted == 0 {
		t.Error("no mutants were accepted; mutation test is vacuous")
	}
	if rejected == 0 {
		t.Error("no mutants were rejected; verifier may be a no-op")
	}
	t.Logf("mutants: %d accepted, %d rejected", accepted, rejected)
}

func le64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// TestX30RegOffsetLoadEscape is the regression test for the soundness
// hole the internal/prove sweep found: checkX30Write exempted every LDR
// whose base is x21, assuming the runtime-call idiom, but the idiom is
// immediate-mode only. A guarded register-offset load into x30
// (ldr x30, [x21, wN, uxtw]) reads attacker-chosen sandbox memory, and a
// following ret would then jump to an arbitrary host address.
func TestX30RegOffsetLoadEscape(t *testing.T) {
	for _, src := range []string{
		"\tldr x30, [x21, w0, uxtw]\n\tret",
		"\tldr x30, [x21, w0, uxtw]\n\tnop",
	} {
		err := verifySrc(t, "_start:\n"+src+"\n")
		if err == nil {
			t.Errorf("%q accepted: arbitrary host jump", src)
		} else if !strings.Contains(err.Error(), "x30") {
			t.Errorf("%q: error %q does not mention x30", src, err)
		}
	}
	// The rewriter's actual output stays legal: x30-loading accesses get
	// an immediate re-guard, confining the dirty value to fall-through.
	if err := verifySrc(t, "_start:\n\tldr x30, [x21, w0, uxtw]\n\tadd x30, x21, w30, uxtw\n\tret\n"); err != nil {
		t.Errorf("re-guarded x30 load rejected: %v", err)
	}
	// The immediate-mode runtime-call idiom is untouched by the fix.
	if err := verifySrc(t, "_start:\n\tldr x30, [x21, #16]\n\tblr x30\n\tret\n"); err != nil {
		t.Errorf("runtime-call idiom rejected: %v", err)
	}
}

// checkImm runs checkMemory on a synthetic immediate-mode access. The
// interesting boundary offsets are not all encodable (q-form immediates
// step by 16, so GuardSize-15 ... GuardSize-1 have no concrete word),
// but the bound must hold for any decoded Imm value.
func checkImm(t *testing.T, src string, imm int64) *Error {
	t.Helper()
	inst, err := arm64.ParseInst(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	inst.Mem.Mode = arm64.AddrImm
	inst.Mem.Imm = int32(imm)
	cfg := DefaultConfig()
	cfg.TextOff = core.MinCodeOffset
	v := &verify{cfg: cfg}
	return v.checkMemory(&inst, 0)
}

// TestGuardImmediateEdges pins the immediate-offset bounds at their
// exact edges, both the encodable ones (through the assembler) and the
// synthetic in-between values: accepted at GuardSize-16, rejected at
// GuardSize-12, with the mirrored negative bound, and the sp bounds
// shrunk by SPMaxDrift on both sides.
func TestGuardImmediateEdges(t *testing.T) {
	guard := int64(core.GuardSize)
	drift := int64(core.SPMaxDrift)

	// Encodable edges, end to end through the assembler.
	accepts := []string{
		"\tldr q0, [x18, #49136]",    // GuardSize-16: last byte is the window's last
		"\tstr q0, [x23, #49136]",    // mirrored on the other hoisted base
		"\tstr q0, [sp, #47088]",     // GuardSize-16-SPMaxDrift
		"\tldur x0, [x18, #-256]",    // widest encodable negative unscaled
		"\tldp q0, q1, [sp, #-1024]", // widest encodable negative pair
	}
	for _, src := range accepts {
		if err := verifySrc(t, "_start:\n"+src+"\n\tret\n"); err != nil {
			t.Errorf("%q rejected: %v", src, err)
		}
	}
	rejects := []string{
		"\tldr q0, [x18, #49152]", // GuardSize: one step past
		"\tstr q0, [x24, #49152]",
		"\tstr q0, [sp, #47104]", // sp bound + 16: one q step past
		"\tstr q0, [sp, #49136]", // the pre-fix sp bound (drift escape)
	}
	for _, src := range rejects {
		if err := verifySrc(t, "_start:\n"+src+"\n\tret\n"); err == nil {
			t.Errorf("%q accepted", src)
		}
	}

	// Synthetic non-encodable boundaries: the bound is exact, not
	// rounded to the nearest encoding.
	cases := []struct {
		src  string
		imm  int64
		want bool // accepted?
	}{
		{"ldr q0, [x18]", guard - 16, true},
		{"ldr q0, [x18]", guard - 12, false}, // GuardSize-12: reaches 3 bytes past
		{"ldr x0, [x18]", guard - 16, true},  // bound is per-offset, not per-extent
		{"ldr x0, [x18]", guard - 15, false},
		{"ldr x0, [x18]", -guard, true}, // mirrored negative bound
		{"ldr x0, [x18]", -guard - 1, false},
		{"str q0, [sp]", guard - 16 - drift, true},
		{"str q0, [sp]", guard - 12 - drift, false},
		{"str q0, [sp]", -(guard - drift), true}, // mirrored sp bound
		{"str q0, [sp]", -(guard - drift) - 1, false},
	}
	for _, c := range cases {
		err := checkImm(t, c.src, c.imm)
		if c.want && err != nil {
			t.Errorf("%s imm=%d rejected: %v", c.src, c.imm, err)
		}
		if !c.want && err == nil {
			t.Errorf("%s imm=%d accepted", c.src, c.imm)
		}
	}
}

// TestSPDriftRepro replays the drift-escape chain the old GuardSize-16
// sp bound permitted: an elided sub leaves sp below the slot, and a
// maximal q store then reached past the guard band. The shrunk bound
// rejects the store; the same chain at the new bound stays legal.
func TestSPDriftRepro(t *testing.T) {
	if err := verifySrc(t, "_start:\n\tsub sp, sp, #1008\n\tstr q0, [sp, #49136]\n\tret\n"); err == nil {
		t.Error("pre-fix drift chain accepted")
	}
	if err := verifySrc(t, "_start:\n\tsub sp, sp, #1008\n\tstr q0, [sp, #47088]\n\tret\n"); err != nil {
		t.Errorf("in-bound drift chain rejected: %v", err)
	}
}
