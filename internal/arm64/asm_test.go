package arm64

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
)

const helloSrc = `
// A tiny program exercising labels, sections, and data directives.
.text
.globl _start
_start:
	adrp x0, msg
	add x0, x0, :lo12:msg
	mov x1, #14
	bl compute
	cbz x0, done
loop:
	sub x0, x0, #1
	cbnz x0, loop
done:
	ret

compute:
	add x0, x1, #1
	ret

.data
counter:
	.quad 0
table:
	.quad _start, done
	.word 42, 43
	.byte 1, 2, 3
.align 3
aligned8:
	.quad 7

.rodata
msg:
	.asciz "hello, world\n"

.bss
buf:
	.space 64
`

func TestAssembleProgram(t *testing.T) {
	f, err := ParseFile(helloSrc)
	if err != nil {
		t.Fatal(err)
	}
	img, err := Assemble(f, Layout{TextBase: 0x100000})
	if err != nil {
		t.Fatal(err)
	}
	if img.TextAddr != 0x100000 {
		t.Errorf("text base = %#x", img.TextAddr)
	}
	if len(img.Text) != 10*4 {
		t.Errorf("text size = %d, want 40", len(img.Text))
	}
	if img.Entry != img.Symbols["_start"] {
		t.Errorf("entry = %#x, want _start %#x", img.Entry, img.Symbols["_start"])
	}
	if !img.Globals["_start"] {
		t.Error("_start not global")
	}
	// Branch to compute must point at the compute label.
	blWord := binary.LittleEndian.Uint32(img.Text[3*4:])
	bl, err := Decode(blWord)
	if err != nil || bl.Op != BL {
		t.Fatalf("word 3 is %v (%v), want bl", bl.Op, err)
	}
	blTarget := img.TextAddr + 3*4 + uint64(bl.Imm)
	if blTarget != img.Symbols["compute"] {
		t.Errorf("bl target %#x, want compute %#x", blTarget, img.Symbols["compute"])
	}
	// Data: .quad _start must hold the absolute address.
	tblOff := img.Symbols["table"] - img.DataAddr
	got := binary.LittleEndian.Uint64(img.Data[tblOff:])
	if got != img.Symbols["_start"] {
		t.Errorf(".quad _start = %#x, want %#x", got, img.Symbols["_start"])
	}
	// rodata content.
	msgOff := img.Symbols["msg"] - img.RODataAddr
	if s := string(img.ROData[msgOff : msgOff+13]); s != "hello, world\n" {
		t.Errorf("msg = %q", s)
	}
	// .align 3 must make aligned8 8-byte aligned.
	if img.Symbols["aligned8"]%8 != 0 {
		t.Errorf("aligned8 at %#x not aligned", img.Symbols["aligned8"])
	}
	// BSS is after data, page aligned, 64 bytes.
	if img.BSSSize != 64 {
		t.Errorf("bss size %d", img.BSSSize)
	}
	// adrp/lo12 pair must compute the address of msg.
	w0 := binary.LittleEndian.Uint32(img.Text[0:])
	adrp, _ := Decode(w0)
	w1 := binary.LittleEndian.Uint32(img.Text[4:])
	addlo, _ := Decode(w1)
	if adrp.Op != ADRP || addlo.Op != ADD {
		t.Fatalf("prologue ops: %v %v", adrp.Op, addlo.Op)
	}
	page := (img.TextAddr &^ 0xfff) + uint64(adrp.Imm)
	if page+uint64(addlo.Imm) != img.Symbols["msg"] {
		t.Errorf("adrp+lo12 = %#x, want msg %#x", page+uint64(addlo.Imm), img.Symbols["msg"])
	}
}

func TestFileStringRoundTrip(t *testing.T) {
	f, err := ParseFile(helloSrc)
	if err != nil {
		t.Fatal(err)
	}
	text := f.String()
	f2, err := ParseFile(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	img1, err := Assemble(f, Layout{TextBase: 0x100000})
	if err != nil {
		t.Fatal(err)
	}
	img2, err := Assemble(f2, Layout{TextBase: 0x100000})
	if err != nil {
		t.Fatal(err)
	}
	if string(img1.Text) != string(img2.Text) || string(img1.Data) != string(img2.Data) {
		t.Error("reassembled image differs")
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		src string
		sub string
	}{
		{"dup:\ndup:\n\tret", "duplicate symbol"},
		{"\tb nowhere", "undefined symbol"},
		{".data\n\tadd x0, x1, #1", "outside .text"},
		{"x:\n\tldr x0, [x1, #99999]", "out of range"},
		// Sizes a client can name in a few bytes; each must be refused in
		// pass 1, before pass 2 allocates the section.
		{".data\nbuf:\n\t.space 1099511627776", "section exceeds"},
		{".rodata\nbuf:\n\t.space 1099511627776", "section exceeds"},
		{".data\n\t.byte 1\n\t.balign 1099511627776", "section exceeds"},
		{".bss\nbuf:\n\t.space 1099511627776", "section exceeds"},
		{".data\n\t.byte 1\n\t.balign 1099511627777", "bad alignment"},
	}
	for _, c := range cases {
		f, err := ParseFile(c.src)
		if err == nil {
			_, err = Assemble(f, Layout{TextBase: 0x100000})
		}
		if err == nil || !strings.Contains(err.Error(), c.sub) {
			t.Errorf("src %q: err = %v, want substring %q", c.src, err, c.sub)
		}
		var ae *AssembleError
		if !errors.As(err, &ae) {
			t.Errorf("src %q: err is a %T, want an *AssembleError", c.src, err)
		}
	}
}

// A section exactly at the cap assembles; one byte more does not.
func TestSectionCapBoundary(t *testing.T) {
	src := func(n uint64) string { return fmt.Sprintf(".bss\nbuf:\n\t.space %d\n", n) }
	f, err := ParseFile(src(MaxSectionSize))
	if err != nil {
		t.Fatal(err)
	}
	img, err := Assemble(f, Layout{TextBase: 0x100000})
	if err != nil {
		t.Fatalf("section of MaxSectionSize bytes: %v", err)
	}
	if img.BSSSize != MaxSectionSize {
		t.Errorf("BSSSize = %d, want %d", img.BSSSize, MaxSectionSize)
	}
	f, err = ParseFile(src(MaxSectionSize + 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Assemble(f, Layout{TextBase: 0x100000}); err == nil {
		t.Error("section of MaxSectionSize+1 bytes assembled")
	}
}

// A trailing comma leaves an empty last operand; it must come back as a
// *ParseError (parseShiftOp once indexed the empty operand's fields).
func TestTrailingCommaIsParseError(t *testing.T) {
	for _, line := range []string{
		"add x0, x1, x2,",
		"cmp x0, x1,",
		"tst x0, x1,",
		"add x0, x1, #1,",
	} {
		_, err := ParseFile("_start:\n\t" + line + "\n")
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("%q: err = %v, want a *ParseError", line, err)
		} else if pe.Line != line {
			t.Errorf("%q: error names line %q", line, pe.Line)
		}
	}
}

func TestStripComment(t *testing.T) {
	cases := map[string]string{
		"add x0, x1, #1 // comment":           "add x0, x1, #1",
		"add x0, x1, #1 ; tail":               "add x0, x1, #1",
		`.asciz "a // not a comment"`:         `.asciz "a // not a comment"`,
		"mov x0, #2 @ arm style":              "mov x0, #2",
		`.asciz "quote \" inside" // c`:       `.asciz "quote \" inside"`,
		"\t ret \r":                           "ret",
		`.ascii "ends in \`:                   `.ascii "ends in \`,
		"\u00a0nop\u00a0// unicode blanks":    "nop",
		"l1: l2:\tadd x0, x0, :lo12:l1 // x:": "l1: l2:\tadd x0, x0, :lo12:l1",
	}
	for in, want := range cases {
		for _, tail := range []string{"", "\nnext"} {
			line, rest, colon := cutLine(in + tail)
			if line != want || rest != strings.TrimPrefix(tail, "\n") || colon != strings.Contains(want, ":") {
				t.Errorf("cutLine(%q) = %q, %q, %v; want %q, %q", in+tail, line, rest, colon, want, strings.TrimPrefix(tail, "\n"))
			}
		}
	}
}

func TestDestSrcRegs(t *testing.T) {
	cases := []struct {
		src  string
		dst  []Reg
		srcs []Reg
	}{
		{"add x0, x1, x2", []Reg{X0}, []Reg{X1, X2}},
		{"ldr x0, [x1, x2]", []Reg{X0}, []Reg{X1, X2}},
		{"str x0, [x1], #8", []Reg{X1}, []Reg{X0, X1}},
		{"ldp x0, x1, [sp], #16", []Reg{X0, X1, SP}, []Reg{SP}},
		{"stp x29, x30, [sp, #-32]!", []Reg{SP}, []Reg{X29, X30, SP}},
		{"bl 16", []Reg{X30}, nil},
		{"blr x5", []Reg{X30}, []Reg{X5}},
		{"ret", nil, []Reg{X30}},
		{"cmp x0, x1", nil, []Reg{X0, X1}},
		{"stxr w2, x0, [x1]", []Reg{W2}, []Reg{X0, X1}},
		{"madd x0, x1, x2, x3", []Reg{X0}, []Reg{X1, X2, X3}},
	}
	eq := func(a, b []Reg) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for _, c := range cases {
		inst, err := ParseInst(c.src)
		if err != nil {
			t.Fatalf("parse %q: %v", c.src, err)
		}
		if got := inst.DestRegs(nil); !eq(got, c.dst) {
			t.Errorf("%q DestRegs = %v, want %v", c.src, got, c.dst)
		}
		if got := inst.SrcRegs(nil); !eq(got, c.srcs) {
			t.Errorf("%q SrcRegs = %v, want %v", c.src, got, c.srcs)
		}
	}
}

// TestEncodeRefusesWrongBank: a register of the other bank in an operand
// is refused, not encoded as the register of the same number.
func TestEncodeRefusesWrongBank(t *testing.T) {
	cases := map[string]string{
		"mov x0, d1":          "d1 is not a general register",
		"add x0, x1, d2":      "d2 is not a general register",
		"madd x0, x1, q2, x3": "q2 is not a general register",
		"fadd d0, x1, d2":     "x1 is not an fp register",
		"cmp x0, s3":          "s3 is not a general register",
		"str x1, [x2, d3]":    "d3 is not a general register",
	}
	for src, want := range cases {
		in, err := ParseInst(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		w, err := Encode(&in)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: encoded %#08x, %v; want %q", src, w, err, want)
		}
	}
}
