package arm64

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestChunkedParse: cut into 2 to 8 chunks, a source parses to the items
// of a single pass, both when every chunk fits its window of the
// reservation (one item a line) and when each overflows it (labels ahead
// of an instruction on one line).
func TestChunkedParse(t *testing.T) {
	var sparse, dense strings.Builder
	sparse.WriteString("/* a block\ncomment */\n")
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&sparse, "f%d:\n\tadd x0, x1, #%d // tail\n\n\tldr x2, [sp, #16]\n.data\nd%d:\n\t.quad %d, f%d\n.text\n", i, i, i, i, i)
		fmt.Fprintf(&dense, "f%d: a%d: add x0, x1, #%d\n\tldr x2, [sp, #16] ; tail\nd%d: .quad %d\n", i, i, i, i, i)
	}
	for name, src := range map[string]string{"sparse": sparse.String(), "dense": dense.String()} {
		want, err := parseFile(src, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for k := 2; k <= 8; k++ {
			got, err := parseFile(src, k)
			if err != nil || !reflect.DeepEqual(got.Items, want.Items) {
				t.Errorf("%s: %d chunks parse differently from one (%v)", name, k, err)
			}
		}
	}
}

// TestChunkedAssemble: encoded in 2 to 8 chunks, a file assembles to the
// image of a single pass, or fails with its error: the first in the file
// when chunks fail apart, a .quad whose label a later chunk defines, and
// text alignment wherever the cuts fall.
func TestChunkedAssemble(t *testing.T) {
	body := strings.Repeat("\tadd x0, x0, #1\n", 400)
	var aligned strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&aligned, "\tadd x0, x0, #%d\n", i)
		if i%7 == 3 {
			fmt.Fprintf(&aligned, "\t.byte %d\n\t.balign %d\n", i, 4<<(i%4))
		}
	}
	cases := map[string]string{
		"encode error first, undefined symbol last": "_start:\n\tadd x0, x0, #5000\n" + body + "\tb nowhere\n",
		"quad of a later label":                     ".data\nv:\n\t.quad tail, 7\n\t.word tail\n.text\n_start:\n" + body + "tail:\n\tret\n",
		"balign in text":                            "_start:\n" + aligned.String() + "\tret\n.data\n\t.byte 1\n\t.balign 8\n\t.quad _start\n",
	}
	layout := Layout{TextBase: 0x10000}
	for name, src := range cases {
		f, err := ParseFile(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, wantErr := assemble(f, layout, 1)
		if strings.HasPrefix(name, "encode error") && (wantErr == nil || !strings.HasPrefix(wantErr.Error(), "line 2: ")) {
			t.Fatalf("%s: one chunk gives %v, want line 2's error", name, wantErr)
		}
		for k := 2; k <= 8; k++ {
			got, err := assemble(f, layout, k)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %d chunks assemble differently from one (%v; one: %v)", name, k, err, wantErr)
			}
		}
	}
}
