package rewrite

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lfi/internal/arm64"
	"lfi/internal/core"
	"lfi/internal/emu"
	"lfi/internal/verifier"
)

// Differential fuzzing: generate random (but well-defined) programs that
// hammer memory through every addressing mode, run them natively and
// under every rewriter configuration, and require identical results. This
// is the strongest statement of the rewriter's correctness contract: the
// transformation is semantics-preserving for in-sandbox programs.

// progGen builds a random program over a 64KiB buffer. Values live in
// x0..x8; x25 holds the buffer base; x9-x16 are scratch. All offsets are
// masked into bounds, so native and sandboxed runs see identical
// addresses modulo the sandbox base.
type progGen struct {
	rng *rand.Rand
	b   strings.Builder
	n   int
}

func (g *progGen) line(format string, args ...any) {
	fmt.Fprintf(&g.b, "\t"+format+"\n", args...)
}

func (g *progGen) val() string { return fmt.Sprintf("x%d", g.rng.Intn(9)) }

// maskedOffset materializes an in-bounds offset (0..0xff00) in the given
// scratch register, derived from a random value register.
func (g *progGen) maskedOffset(dst string) {
	g.line("and %s, %s, #0xff00", dst, g.val())
	if g.rng.Intn(2) == 0 {
		g.line("add %s, %s, #%d", dst, dst, g.rng.Intn(128))
	}
}

func (g *progGen) stmt() {
	switch g.rng.Intn(12) {
	case 0: // plain ALU
		ops := []string{"add", "sub", "eor", "orr", "and", "mul"}
		g.line("%s %s, %s, %s", ops[g.rng.Intn(len(ops))], g.val(), g.val(), g.val())
	case 1: // shifted ALU
		g.line("add %s, %s, %s, lsl #%d", g.val(), g.val(), g.val(), g.rng.Intn(8))
	case 2: // store, immediate mode
		g.maskedOffset("x9")
		g.line("add x10, x25, x9")
		g.line("str %s, [x10, #%d]", g.val(), 8*g.rng.Intn(16))
	case 3: // load, immediate mode
		g.maskedOffset("x9")
		g.line("add x10, x25, x9")
		g.line("ldr %s, [x10, #%d]", g.val(), 8*g.rng.Intn(16))
	case 4: // register-offset load (the Table 3 modes)
		g.maskedOffset("x9")
		switch g.rng.Intn(3) {
		case 0:
			g.line("ldr %s, [x25, x9]", g.val())
		case 1:
			g.line("ldr %s, [x25, w9, uxtw]", g.val())
		case 2:
			g.line("lsr x11, x9, #3")
			g.line("ldr %s, [x25, x11, lsl #3]", g.val())
		}
	case 5: // byte/half accesses
		g.maskedOffset("x9")
		g.line("add x10, x25, x9")
		v := g.rng.Intn(9)
		g.line("strb w%d, [x10, #%d]", v, g.rng.Intn(64))
		g.line("ldrb w%d, [x10, #%d]", g.rng.Intn(9), g.rng.Intn(64))
		g.line("strh w%d, [x10, #%d]", v, 2*g.rng.Intn(32))
	case 6: // pre/post index
		g.maskedOffset("x9")
		g.line("add x10, x25, x9")
		if g.rng.Intn(2) == 0 {
			g.line("str %s, [x10, #%d]!", g.val(), 8*(g.rng.Intn(8)+1))
		} else {
			g.line("ldr %s, [x10], #%d", g.val(), 8*g.rng.Intn(8))
		}
	case 7: // pairs
		g.maskedOffset("x9")
		g.line("add x10, x25, x9")
		g.line("stp x%d, x%d, [x10, #%d]", g.rng.Intn(9), g.rng.Intn(9), 16*g.rng.Intn(4))
		g.line("ldp x%d, x%d, [x10, #%d]", g.rng.Intn(9), g.rng.Intn(9), 16*g.rng.Intn(4))
	case 8: // stack traffic (exercises §4.2 paths)
		amt := 16 * (g.rng.Intn(8) + 1)
		g.line("sub sp, sp, #%d", amt)
		g.line("str %s, [sp, #8]", g.val())
		g.line("ldr %s, [sp, #8]", g.val())
		g.line("add sp, sp, #%d", amt)
		g.line("sub sp, sp, #4096")
		g.line("str %s, [sp]", g.val())
		g.line("add sp, sp, #4096")
	case 9: // conditional select on data
		g.line("cmp %s, %s", g.val(), g.val())
		g.line("csel %s, %s, %s, %s", g.val(), g.val(), g.val(),
			[]string{"eq", "lt", "hi", "ge"}[g.rng.Intn(4)])
	case 10: // short data-dependent branch
		l1 := fmt.Sprintf(".Lf%d", g.n)
		g.n++
		g.line("tbz %s, #%d, %s", g.val(), g.rng.Intn(20), l1)
		g.line("add %s, %s, #1", g.val(), g.val())
		g.b.WriteString(l1 + ":\n")
	case 11: // call/return (exercises x30 guards)
		g.line("bl helper")
	}
}

func (g *progGen) generate(stmts int) string {
	g.b.WriteString(".globl _start\n_start:\n")
	// Seed the value registers deterministically.
	for i := 0; i < 9; i++ {
		g.line("movz x%d, #%d", i, g.rng.Intn(65536))
		g.line("movk x%d, #%d, lsl #16", i, g.rng.Intn(65536))
	}
	g.line("adrp x25, buf")
	g.line("add x25, x25, :lo12:buf")
	// Zero-fill is implicit (.bss).
	for i := 0; i < stmts; i++ {
		g.stmt()
	}
	// Fold all value registers into x0.
	for i := 1; i < 9; i++ {
		g.line("eor x0, x0, x%d", i)
	}
	// Mix in a memory checksum.
	g.b.WriteString(`
	mov x9, #0
	mov x10, #0
cksum:
	ldr x11, [x25, x9]
	eor x10, x10, x11
	add x9, x9, #8
	cmp x9, #65536
	b.ne cksum
	eor x0, x0, x10
	brk #0
helper:
	add x7, x7, #3
	ret
.bss
buf:
	.space 66560
`)
	return g.b.String()
}

func TestDifferentialFuzz(t *testing.T) {
	const trials = 25
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		g := &progGen{rng: rng}
		src := g.generate(40)

		f := parse(t, src)
		native := runNative(t, f)

		for _, opts := range []core.Options{
			{Opt: core.O0},
			{Opt: core.O1},
			{Opt: core.O2},
			{Opt: core.O2, NoLoads: true},
			{Opt: core.O1, DisableSPOpts: true},
		} {
			nf, _, err := Rewrite(parse(t, src), opts)
			if err != nil {
				t.Fatalf("trial %d %+v: rewrite: %v\n%s", trial, opts, err, src)
			}
			c, tr := runSandboxed(t, nf)
			if tr.Kind != emu.TrapBRK {
				t.Fatalf("trial %d %+v: trap %v\n%s", trial, opts, tr, src)
			}
			if c.X()[0] != native.X()[0] {
				t.Fatalf("trial %d %+v: checksum %#x != native %#x\n%s",
					trial, opts, c.X()[0], native.X()[0], src)
			}
		}
	}
}

// TestFuzzedProgramsVerify runs the same generator through the full
// build-and-verify pipeline: every random program rewritten at O0/O1/O2
// must pass the static verifier after assembly.
func TestFuzzedProgramsVerify(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		g := &progGen{rng: rng}
		src := g.generate(30)
		for _, opt := range []core.OptLevel{core.O0, core.O1, core.O2} {
			nf, _, err := Rewrite(parse(t, src), core.Options{Opt: opt})
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, opt, err)
			}
			img, err := arm64.Assemble(nf, arm64.Layout{
				TextBase: core.SlotBase(1) + core.MinCodeOffset, PageSize: pageSize})
			if err != nil {
				t.Fatalf("trial %d %v: assemble: %v", trial, opt, err)
			}
			cfg := verifier.DefaultConfig()
			cfg.TextOff = core.MinCodeOffset
			if _, err := verifier.Verify(img.Text, cfg); err != nil {
				t.Fatalf("trial %d %v: verifier rejected rewriter output: %v\n%s",
					trial, opt, err, nf.String())
			}
		}
	}
}
