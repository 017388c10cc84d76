package arm64

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
)

// printManifest renders everything the printer can be asked for: each
// round-trip corpus line and alias as text, a file with labels and
// directives, and a hash over the text of 200k pseudo-random words that
// decode (numeric targets, every register bank, every addressing mode).
func printManifest(t *testing.T) string {
	var b strings.Builder
	lines := append([]string(nil), corpus...)
	for alias := range aliases {
		lines = append(lines, alias)
	}
	sort.Strings(lines[len(corpus):])
	for _, src := range lines {
		inst, err := ParseInst(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		fmt.Fprintf(&b, "%s\n", inst.String())
	}
	f, err := ParseFile(helloSrc)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(f.String())
	h := sha256.New()
	rng := rand.New(rand.NewSource(1))
	n := 0
	for i := 0; i < 200000; i++ {
		inst, err := Decode(rng.Uint32())
		if err != nil {
			continue
		}
		n++
		fmt.Fprintf(h, "%s\n%s\n", inst.String(), inst.Mem.String())
	}
	fmt.Fprintf(&b, "decoded %d %x\n", n, h.Sum(nil))
	return b.String()
}

// TestPrintGolden pins the printer byte for byte: testdata/print.golden
// was recorded from the fmt-based printer that appendInst replaced.
func TestPrintGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/print.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := printManifest(t)
	if got == string(want) {
		return
	}
	wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d: got %q, want %q", i+1, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Errorf("%d lines, want %d", len(gotLines), len(wantLines))
	}
}
