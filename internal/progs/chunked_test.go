package progs_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"
	_ "unsafe" // go:linkname

	"lfi/internal/arm64"
	"lfi/internal/core"
	"lfi/internal/elfobj"
	"lfi/internal/fuzz"
	"lfi/internal/progs"
	"lfi/internal/rewrite"
	"lfi/internal/verifier"
)

// The toolchain's four large-input stages split their input into as many
// chunks as its size and GOMAXPROCS warrant, and no caller may choose the
// count. These tests must, to hold every input at every count against
// the single pass, so they reach the unexported forms that take it.

//go:linkname parseFile lfi/internal/arm64.parseFile
func parseFile(src string, k int) (*arm64.File, error)

//go:linkname assemble lfi/internal/arm64.assemble
func assemble(f *arm64.File, layout arm64.Layout, k int) (*arm64.Image, error)

//go:linkname rewriteFile lfi/internal/rewrite.rewriteFile
func rewriteFile(f *arm64.File, opts core.Options, k int) (*arm64.File, rewrite.Stats, error)

//go:linkname verifyText lfi/internal/verifier.verifyText
func verifyText(text []byte, cfg verifier.Config, k int) (verifier.Stats, error)

// chunked is what buildChunked produced.
type chunked struct {
	elf []byte
	rw  rewrite.Stats
	vs  verifier.Stats
}

// buildChunked is progs.Build and then verification of the text, with
// the parser, the rewriter, the assembler and the verifier each cut into
// k chunks.
func buildChunked(src string, opts core.Options, k int) (chunked, error) {
	var b chunked
	f, err := parseFile(src, k)
	if err != nil {
		return b, err
	}
	nf, rw, err := rewriteFile(f, opts, k)
	if err != nil {
		return b, err
	}
	img, err := assemble(nf, arm64.Layout{TextBase: core.MinCodeOffset, PageSize: 16 * 1024}, k)
	if err != nil {
		return b, err
	}
	if b.elf, err = elfobj.FromImage(img).Marshal(); err != nil {
		return b, err
	}
	cfg := verifier.DefaultConfig()
	cfg.TextOff, cfg.NoLoads = img.TextAddr, opts.NoLoads
	b.rw = rw
	b.vs, err = verifyText(img.Text, cfg, k)
	return b, err
}

// largeInputs calls fn with the benchmark's four 20 000-statement
// generated programs at O0 and O2.
func largeInputs(fn func(name, src string, opts core.Options)) {
	for seed := int64(1); seed <= 4; seed++ {
		src := fuzz.NewGen(seed).Generate(20000)
		for _, opt := range []core.OptLevel{core.O0, core.O2} {
			fn(fmt.Sprintf("generated-20000-%d O%d", seed, opt), src, core.Options{Opt: opt})
		}
	}
}

// TestChunkedBuildIdentical holds the split stages to the single pass:
// at every chunk count from 1 to 8, every input behind elf.sha256 and the
// four large generated programs give the same ELF bytes as progs.Build,
// the same rewrite.Stats and the same verifier.Stats; and where a stage
// fails, it fails with the single pass's error.
func TestChunkedBuildIdentical(t *testing.T) {
	check := func(name, src string, opts core.Options) {
		res, err := progs.Build(src, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := buildChunked(src, opts, 1)
		if err != nil || !bytes.Equal(want.elf, res.ELF) || want.rw != res.Stats {
			t.Fatalf("%s: one chunk gives %+v, %v; progs.Build %+v", name, want.rw, err, res.Stats)
		}
		for k := 2; k <= 8; k++ {
			got, err := buildChunked(src, opts, k)
			if err != nil || !bytes.Equal(got.elf, want.elf) || got.rw != want.rw || got.vs != want.vs {
				t.Errorf("%s: %d chunks give %+v, %+v, %v; one gives %+v, %+v", name, k, got.rw, got.vs, err, want.rw, want.vs)
			}
		}
	}
	goldenInputs(t, check)
	if !testing.Short() {
		largeInputs(check)
	}

	t.Run("parse error in the first and the last chunk", func(t *testing.T) {
		body := strings.Repeat("\tadd x0, x0, #1\n", 400)
		src := "\tadd x0, x0, #1\n\tbogus x1\n" + body + "\tbogus x2\n"
		_, want := parseFile(src, 1)
		if want == nil || !strings.HasPrefix(want.Error(), "line 2: ") || !strings.Contains(want.Error(), "bogus x1") {
			t.Fatalf("one chunk: %v, want line 2's error", want)
		}
		for k := 2; k <= 8; k++ {
			if _, err := parseFile(src, k); fmt.Sprint(err) != want.Error() {
				t.Errorf("%d chunks: %v, want %v", k, err, want)
			}
		}
	})

	t.Run("rewrite error after a label boundary", func(t *testing.T) {
		var b strings.Builder
		for i := 0; i < 128; i++ {
			fmt.Fprintf(&b, "l%d:\n\tldr x0, [x1, #8]\n\tstr x0, [x1, #16]\n", i)
			if i == 100 {
				b.WriteString("\tmov x21, x0\n") // writes the sandbox base
			}
		}
		f, err := parseFile(b.String(), 1)
		if err != nil {
			t.Fatal(err)
		}
		_, want, wantErr := rewriteFile(f, core.Options{Opt: core.O2}, 1)
		if wantErr == nil || want.InputInsts != 101*2+1 {
			t.Fatalf("one chunk: %+v, %v; want an error at the 203rd instruction", want, wantErr)
		}
		for k := 2; k <= 8; k++ {
			_, st, err := rewriteFile(f, core.Options{Opt: core.O2}, k)
			if st != want || fmt.Sprint(err) != wantErr.Error() {
				t.Errorf("%d chunks: %+v, %v; one chunk %+v, %v", k, st, err, want, wantErr)
			}
		}
	})

	t.Run("undecodable word after a check failure", func(t *testing.T) {
		const n, nop, svc, undecodable = 64, 0xd503201f, 0xd4000001, 0
		if _, err := arm64.Decode(undecodable); err == nil {
			t.Fatalf("%#x decodes", undecodable)
		}
		text := make([]byte, 4*n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(text[4*i:], nop)
		}
		binary.LittleEndian.PutUint32(text[4*1:], svc)                 // chunk 0 of 4
		binary.LittleEndian.PutUint32(text[4*(3*n/4+1):], undecodable) // chunk 3 of 4
		cfg := verifier.DefaultConfig()
		cfg.TextOff = core.MinCodeOffset
		_, want := verifyText(text, cfg, 1)
		if e, ok := want.(*verifier.Error); !ok || e.Offset != 4*(3*n/4+1) || e.Msg != "undecodable instruction" {
			t.Fatalf("one chunk: %v, want the undecodable word's offset", want)
		}
		for k := 2; k <= 8; k++ {
			if _, err := verifyText(text, cfg, k); !reflect.DeepEqual(err, want) {
				t.Errorf("%d chunks: %v, want %v", k, err, want)
			}
		}
	})
}
