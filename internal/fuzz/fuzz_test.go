package fuzz

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"lfi/internal/arm64"
	"lfi/internal/core"
	"lfi/internal/verifier"
)

// TestHarnessSmoke replays a bounded slice of the differential harness on
// every plain `go test` run: all three oracles, zero violations.
func TestHarnessSmoke(t *testing.T) {
	iters := 30
	if testing.Short() {
		iters = 8
	}
	rep := Run(Options{Seed: 1, Iters: iters})
	for _, v := range rep.Violations {
		t.Error(v)
	}
	if rep.Configs != rep.Programs*len(optionSets) {
		t.Errorf("verified %d configs for %d programs, want %d",
			rep.Configs, rep.Programs, rep.Programs*len(optionSets))
	}
	if rep.MutantsAccepted == 0 {
		t.Error("no mutants accepted; the soundness oracle is vacuous")
	}
	if rep.MutantsRejected == 0 {
		t.Error("no mutants rejected; the verifier may be a no-op")
	}
	t.Log(rep)
}

// TestHarnessDeterministic: the same seed must replay the same run.
func TestHarnessDeterministic(t *testing.T) {
	a := Run(Options{Seed: 42, Iters: 3})
	b := Run(Options{Seed: 42, Iters: 3})
	if a.String() != b.String() {
		t.Errorf("same seed, different reports:\n%s\n%s", a, b)
	}
	if NewGen(99).Generate(20) != NewGen(99).Generate(20) {
		t.Error("generator is not deterministic for a fixed seed")
	}
}

// TestFaultInjection drives the serving layer through hostile schedules.
func TestFaultInjection(t *testing.T) {
	opts := FaultOptions{Seed: 1}
	if testing.Short() {
		opts.Rounds = 1
		opts.SnapshotTrials = 5
		opts.ServeRounds = 1
	}
	rep := InjectFaults(opts)
	for _, v := range rep.Violations {
		t.Error(v)
	}
	if rep.Submitted == 0 || rep.Resolved == 0 {
		t.Errorf("vacuous pool hammer: %s", rep)
	}
	if rep.Restores == 0 {
		t.Errorf("vacuous snapshot driver: %s", rep)
	}
	if rep.VecFaults == 0 || rep.VecDrains == 0 {
		t.Errorf("vacuous vectored ipc round: %s", rep)
	}
	if rep.SnapBatches == 0 {
		t.Errorf("vacuous batch snapshot round: %s", rep)
	}
	if rep.ServeRequests == 0 || rep.ServeTerminal == 0 {
		t.Errorf("vacuous serve round: %s", rep)
	}
	t.Log(rep)
}

// FuzzDecode: any 32-bit word that decodes must re-encode to a word that
// decodes to the same instruction, and its printed form must parse back
// to an equivalent instruction. Seeds include the generic-sysreg and
// q-register-offset regressions.
func FuzzDecode(f *testing.F) {
	f.Add(uint32(0xd53f70fc)) // mrs x28, s3_7_c7_c0_7 (generic sysreg print/parse)
	f.Add(uint32(0xd515a0aa)) // msr s2_5_c10_c0_5, x10
	f.Add(uint32(0x3dfffee0)) // ldr q0, [x23, #65520] (guard-escaping immediate)
	f.Add(uint32(0x8b2142b2)) // add x18, x21, w1, uxtw (the guard idiom)
	f.Add(uint32(0xf9400abe)) // ldr x30, [x21, #16] (runtime-call idiom)
	f.Add(uint32(0xf8604abe)) // ldr x30, [x21, w0, uxtw] (x30 reg-offset escape)
	f.Fuzz(func(t *testing.T, w uint32) {
		inst, err := arm64.Decode(w)
		if err != nil {
			return
		}
		w2, err := arm64.Encode(&inst)
		if err != nil {
			t.Fatalf("decoded %#08x -> %q but cannot re-encode: %v", w, inst.String(), err)
		}
		inst2, err := arm64.Decode(w2)
		if err != nil || inst2 != inst {
			t.Fatalf("decode fixpoint: %#08x -> %+v -> %#08x -> %+v (%v)", w, inst, w2, inst2, err)
		}
		s := inst.String()
		p, err := arm64.ParseInst(s)
		if err != nil {
			t.Fatalf("decode %#08x -> %q does not parse: %v", w, s, err)
		}
		if p != inst {
			w3, err := arm64.Encode(&p)
			if err != nil {
				t.Fatalf("parse of %q cannot encode: %v", s, err)
			}
			d3, err := arm64.Decode(w3)
			if err != nil || d3 != inst {
				t.Fatalf("print/parse divergence: %#08x (%q) reparsed to %#08x", w, s, w3)
			}
		}
	})
}

// FuzzVerify: the verifier must never panic, whatever the text bytes and
// text offset; and cut into three chunks it must reach the verdict of one
// pass, with the same stats, offset and message. Seeds include the
// TextOff-overflow regression.
func FuzzVerify(f *testing.F) {
	f.Add(uint64(core.MinCodeOffset), []byte{0xe0, 0xfe, 0xff, 0x3d}) // q-imm word at valid offset
	f.Add(^uint64(0), []byte{0x1f, 0x20, 0x03, 0xd5})                 // TextOff overflow regression
	f.Add(^uint64(0)&^uint64(3), []byte{0x1f, 0x20, 0x03, 0xd5})      // aligned hostile TextOff
	f.Add(uint64(core.MaxCodeOffset), []byte{0x1f, 0x20, 0x03, 0xd5}) // boundary
	f.Add(uint64(core.MinCodeOffset), []byte{0xb2, 0x42, 0x21, 0x8b, 0xc0, 0x03, 0x5f, 0xd6})
	// ldr x30, [x21, w0, uxtw]; ret — the reg-offset x30 load the prover
	// caught: accepted pre-fix, jumps to an arbitrary loaded address.
	f.Add(uint64(core.MinCodeOffset), []byte{0xbe, 0x4a, 0x60, 0xf8, 0xc0, 0x03, 0x5f, 0xd6})
	// sub sp, sp, #1008; str q0, [sp, #49136] — the sp drift chain the
	// old GuardSize-16 sp bound let escape past the guard band.
	f.Add(uint64(core.MinCodeOffset), []byte{0xff, 0xc3, 0x0f, 0xd1, 0xe0, 0xff, 0xaf, 0x3d})
	f.Fuzz(func(t *testing.T, textOff uint64, text []byte) {
		cfg := verifier.DefaultConfig()
		cfg.TextOff = textOff
		st1, err1 := verifyText(text, cfg, 1)
		st2, err2 := verifyText(text, cfg, 3)
		if !reflect.DeepEqual(err1, err2) || st1 != st2 {
			t.Fatalf("three chunks verify differently from one: (%v, %v) vs (%v, %v)", st1, err1, st2, err2)
		}
		if err1 == nil && textOff > core.MaxCodeOffset {
			t.Fatalf("accepted text at offset %#x past the code margin", textOff)
		}
	})
}

// FuzzRewriteVerify: every generated program, rewritten at every option
// set, must pass the verifier — the native-fuzzing form of oracle 1 — and
// parsing, rewriting, assembling and verifying it in three chunks must
// give what one pass gives.
func FuzzRewriteVerify(f *testing.F) {
	f.Add(int64(1), uint8(10))
	f.Add(int64(1337), uint8(30))
	f.Add(int64(-7), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, stmts uint8) {
		src := NewGen(seed).Generate(int(stmts%48) + 1)
		for _, set := range optionSets {
			img, err := buildSandboxed(src, set, core.SlotBase(1))
			if err != nil {
				// The generator only emits well-formed programs, so any
				// pipeline failure is a bug.
				t.Fatalf("%+v: %v\n%s", set, err, src)
			}
			cfg := verifier.DefaultConfig()
			cfg.TextOff = core.MinCodeOffset
			cfg.NoLoads = set.NoLoads
			one, err := verifyText(img.Text, cfg, 1)
			if err != nil {
				t.Fatalf("%+v: verifier rejected rewriter output: %v\n%s", set, err, src)
			}
			f1, err1 := parseFile(src, 1)
			f3, err3 := parseFile(src, 3)
			if err1 != nil || err3 != nil {
				t.Fatalf("parse: %v / %v\n%s", err1, err3, src)
			}
			nf1, st1, err1 := rewriteFile(f1, set, 1)
			nf3, st3, err3 := rewriteFile(f3, set, 3)
			if fmt.Sprint(err1) != fmt.Sprint(err3) || st1 != st3 || err1 == nil && !reflect.DeepEqual(nf1.Items, nf3.Items) {
				t.Fatalf("%+v: three chunks rewrite differently from one: %v / %v\n%s", set, err1, err3, src)
			}
			layout := arm64.Layout{TextBase: core.MinCodeOffset}
			img1, err1 := assemble(nf1, layout, 1)
			img3, err3 := assemble(nf1, layout, 3)
			if fmt.Sprint(err1) != fmt.Sprint(err3) || !reflect.DeepEqual(img1, img3) {
				t.Fatalf("%+v: three chunks assemble differently from one: %v / %v\n%s", set, err1, err3, src)
			}
			if three, err := verifyText(img.Text, cfg, 3); err != nil || three != one {
				t.Fatalf("%+v: three chunks verify differently from one: %+v, %v vs %+v\n%s", set, three, err, one, src)
			}
		}
	})
}

// TestGeneratorCoversRegressions pins generator coverage of the paths
// behind past bugs: oversized q-register immediates must keep appearing
// in the program stream, or the corpus silently loses the regression.
func TestGeneratorCoversRegressions(t *testing.T) {
	found := false
	for seed := int64(0); seed < 50 && !found; seed++ {
		src := NewGen(seed).Generate(40)
		if strings.Contains(src, "str q0, [x11, #49") ||
			strings.Contains(src, "ldr q1, [x11, #49") {
			found = true
		}
	}
	if !found {
		t.Error("generator never emitted an oversized q-register immediate in 50 seeds")
	}
}
