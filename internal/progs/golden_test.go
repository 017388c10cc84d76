package progs_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"lfi/internal/arm64"
	"lfi/internal/core"
	"lfi/internal/fuzz"
	"lfi/internal/progs"
	"lfi/internal/rewrite"
	"lfi/internal/wasmfront"
	"lfi/internal/workloads"
)

// goldenInputs calls fn with every committed input at every committed
// option set: the 14 kernels at five, the Wasm samples and eight
// generated programs at O0 and O2.
func goldenInputs(t testing.TB, fn func(name, src string, opts core.Options)) {
	type config struct {
		name string
		opts core.Options
	}
	all := []config{
		{"O0", core.Options{Opt: core.O0}},
		{"O1", core.Options{Opt: core.O1}},
		{"O2", core.Options{Opt: core.O2}},
		{"O2+NoLoads", core.Options{Opt: core.O2, NoLoads: true}},
		{"O1+DisableSPOpts", core.Options{Opt: core.O1, DisableSPOpts: true}},
	}
	each := func(name, src string, cfgs []config) {
		for _, c := range cfgs {
			fn(name+" "+c.name, src, c.opts)
		}
	}
	o0o2 := []config{all[0], all[2]}
	for _, k := range workloads.All() {
		each(k.Name, k.Source(1), all)
	}
	for _, s := range wasmfront.SampleWorkloads() {
		asm, _, err := wasmfront.Translate(s.Build(s.Iters))
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		each(s.Name, asm, o0o2)
	}
	for seed := int64(1); seed <= 8; seed++ {
		each(fmt.Sprintf("generated-%d", seed), fuzz.NewGen(seed).Generate(2000), o0o2)
	}
}

// elfManifest is one line per built image: the ELF's sha256, the input
// and options, and the rewriter's counters.
func elfManifest(t testing.TB) string {
	var b strings.Builder
	goldenInputs(t, func(name, src string, opts core.Options) {
		res, err := progs.Build(src, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&b, "%x  %s %+v\n", sha256.Sum256(res.ELF), name, res.Stats)
	})
	return b.String()
}

// asmManifest is one line per rewritten file: the sha256 of the guarded
// assembly text arm64.File.String prints.
func asmManifest(t testing.TB) string {
	var b strings.Builder
	goldenInputs(t, func(name, src string, opts core.Options) {
		f, err := arm64.ParseFile(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		nf, _, err := rewrite.Rewrite(f, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&b, "%x  %s\n", sha256.Sum256([]byte(nf.String())), name)
	})
	return b.String()
}

func compareGolden(t *testing.T, file, got string) {
	t.Helper()
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got, "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, %s has %d", len(gotLines)-1, file, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d differs\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
		}
	}
}

// TestBuildGolden is the byte-identity oracle for the toolchain: the
// hashes in testdata/elf.sha256 were recorded before the parser,
// rewriter and assembler were optimised, and every image must still come
// out bit for bit the same, with the same rewrite.Stats.
func TestBuildGolden(t *testing.T) {
	compareGolden(t, "testdata/elf.sha256", elfManifest(t))
}

// TestRewriteTextGolden pins the printer the same way: testdata/asm.sha256
// was recorded from the fmt-based printer the strconv one replaced.
func TestRewriteTextGolden(t *testing.T) {
	compareGolden(t, "testdata/asm.sha256", asmManifest(t))
}
