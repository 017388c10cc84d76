package fuzz

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"lfi/internal/arm64"
)

// mnemonicSeeds is one line per mnemonic and alias of the arm64
// round-trip corpus (internal/arm64/roundtrip_test.go).
const mnemonicSeeds = `add x0, x1, #42
sub sp, sp, #32
adds x0, x1, x2, asr #1
subs x0, x1, #12
and x0, x1, x2
orr x0, x1, x2, lsl #12
eor w0, w1, w2, ror #3
bic x0, x1, x2
orn x0, x1, x2
eon x0, x1, x2, lsr #2
ands x0, x1, x2
bics w0, w1, w2
movz x0, #123
movn x0, #0
movk x0, #52, lsl #32
sbfm x0, x1, #4, #11
ubfm x0, x1, #0, #31
bfm x0, x1, #8, #15
extr x0, x1, x2, #17
udiv x0, x1, x2
sdiv w0, w1, w2
lsl x0, x1, x2
lsr x0, x1, x2
asr w0, w1, w2
ror x0, x1, x2
madd x0, x1, x2, x3
msub x0, x1, x2, x3
smaddl x0, w1, w2, x3
umaddl x0, w1, w2, x3
smulh x0, x1, x2
umulh x0, x1, x2
clz x0, x1
cls w0, w1
rbit x0, x1
rev x0, x1
rev16 x0, x1
rev32 x0, x1
csel x0, x1, x2, eq
csinc x0, x1, x2, ne
csinv w0, w1, w2, lt
csneg x0, x1, x2, ge
ccmp x0, x1, #4, ne
ccmn w0, w1, #15, hi
b 64
bl 4096
b.eq 32
b.lt -32
b.hi 1028
cbz x0, 16
cbnz w3, -64
tbz x5, #33, 256
tbnz w5, #3, -256
br x7
blr x30
ret
ldr x0, [x1]
str x0, [x1, #8]
ldrb w0, [x1, #3]
strb w0, [x1]
ldrh w0, [x1, #2]
strh w0, [x1, #4]
ldrsb x0, [x1]
ldrsh x0, [x1, #2]
ldrsw x0, [x1, #4]
ldp x0, x1, [sp, #16]
stp x29, x30, [sp, #-32]!
ldxr x0, [x1]
stxr w2, x0, [x1]
stlxr w2, w0, [x1]
ldaxr x0, [x1]
ldar x0, [x1]
stlr w0, [x1]
fmov d0, d1
fadd d0, d1, d2
fsub s0, s1, s2
fmul d0, d1, d2
fdiv d0, d1, d2
fneg d0, d1
fabs s0, s1
fsqrt d0, d1
fmadd d0, d1, d2, d3
fmsub s0, s1, s2, s3
fcmp d0, d1
fcsel d0, d1, d2, gt
fcvt d0, s1
scvtf d0, x1
ucvtf d0, x1
fcvtzs x0, d1
fcvtzu x0, d1
nop
svc #0
brk #1
dmb ish
dsb ishst
isb
mrs x0, tpidr_el0
msr tpidr_el0, x0
adr x0, 1024
adrp x0, 65536
mov x0, x1
cmp x0, x1
cmn x0, x1
tst x0, #0xf
neg x0, x1
negs w0, w1
mvn x0, x1
mul x0, x1, x2
mneg x0, x1, x2
smull x0, w1, w2
umull x0, w1, w2
sxtw x0, w1
sxth w0, w1
sxtb x0, w1
uxth w0, w1
uxtb w0, w1
ubfx x0, x1, #8, #16
sbfx w0, w1, #2, #3
ubfiz x0, x1, #8, #4
bfi x0, x1, #16, #8
bfxil x0, x1, #4, #4
cset x0, eq
csetm w0, lt
cinc x0, x1, eq
cinv x0, x1, hi
cneg x0, x1, mi
ldur x0, [x1, #-3]
stur w0, [x1, #-9]`

// FuzzParseFile: arm64.ParseFile is reached by POST /v1/jobs and POST
// /v1/images with bytes a client chose. It must never panic, cut into
// three chunks it must give what one pass gives (the same items or the
// same error), and whatever it accepts must print to text that parses
// back to the same items (the print/parse fixpoint lfi.Rewrite's output
// relies on). Seeds: the four trailing-comma lines that once panicked
// parseShiftOp, every mnemonic, comments of each kind, and a block
// comment spanning lines.
func FuzzParseFile(f *testing.F) {
	f.Add([]byte("add x0, x1, x2,"))
	f.Add([]byte("cmp x0, x1,"))
	f.Add([]byte("tst x0, x1,"))
	f.Add([]byte("add x0, x1, #1,"))
	f.Add([]byte("ldr x0, [x1]junk\nadd x0, x1, #1, lsl #3\nadd x0, x1, x2, lsl #128\nldp x0, x1, [x2, x3], #16"))
	for _, line := range strings.Split(mnemonicSeeds, "\n") {
		f.Add([]byte(line))
	}
	f.Add([]byte(mnemonicSeeds))
	f.Add([]byte("_start: /* a block comment\nspanning */ mov x0, #1 // tail\nloop: b loop ; gnu\n.data\nv: .quad 1, _start @ arm\n.asciz \"/* kept */ // kept\"\n"))
	f.Add([]byte(NewGen(1).Generate(12)))
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := parseFile(string(data), 1)
		split, serr := parseFile(string(data), 3)
		if fmt.Sprint(err) != fmt.Sprint(serr) || err == nil && !reflect.DeepEqual(file.Items, split.Items) {
			t.Fatalf("three chunks parse differently from one: %v / %v\nsource %q", err, serr, data)
		}
		if err != nil {
			return
		}
		img, aerr := assemble(file, arm64.Layout{}, 1)
		split3, serr := assemble(file, arm64.Layout{}, 3)
		if fmt.Sprint(aerr) != fmt.Sprint(serr) || !reflect.DeepEqual(img, split3) {
			t.Fatalf("three chunks assemble differently from one: %v / %v\nsource %q", aerr, serr, data)
		}
		text := file.String()
		again, err := arm64.ParseFile(text)
		if err != nil {
			t.Fatalf("printed form does not parse: %v\nsource %q\nprinted %q", err, data, text)
		}
		if len(again.Items) != len(file.Items) {
			t.Fatalf("%d items reparse to %d\nsource %q\nprinted %q", len(file.Items), len(again.Items), data, text)
		}
		for i := range file.Items {
			a, b := file.Items[i], again.Items[i]
			a.LineNo, b.LineNo = 0, 0
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("item %d: %+v reparses to %+v\nsource %q\nprinted %q", i, a, b, data, text)
			}
		}
	})
}
