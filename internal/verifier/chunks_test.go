package verifier

import (
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"lfi/internal/arm64"
	"lfi/internal/core"
)

// TestChunkedVerify: cut into 2 to 8 chunks, a text gets the single
// pass's verdict, stats, offset and message, both when it verifies —
// with sp adjustments, runtime-call pairs and x30 re-guards straddling
// the chunk boundaries — and when an svc is planted at any of a spread of
// offsets. Then each forward obligation, opened by an instruction that
// ends a chunk, settles every way it can, and the single pass reports the
// opener's offset and message.
func TestChunkedVerify(t *testing.T) {
	text := asmText(t, strings.Repeat("\tsub sp, sp, #16\n\tstr x0, [sp]\n\tldr x30, [x21, #8]\n\tblr x30\n"+
		"\tldr x30, [sp, #8]\n\tadd x30, x21, w30, uxtw\n\tadd x18, x21, w1, uxtw\n\tldr x0, [x18]\n", 50))
	cfg := DefaultConfig()
	cfg.TextOff = core.MinCodeOffset
	same := func(text []byte) {
		t.Helper()
		want, wantErr := verifyText(text, cfg, 1)
		for k := 2; k <= 8; k++ {
			if st, err := verifyText(text, cfg, k); st != want || !reflect.DeepEqual(err, wantErr) {
				t.Errorf("%d chunks: %+v, %v; one chunk %+v, %v", k, st, err, want, wantErr)
			}
		}
	}
	if _, err := verifyText(text, cfg, 1); err != nil {
		t.Fatal(err)
	}
	same(text)
	for i := 0; i < len(text)/4; i += 37 {
		bad := append([]byte(nil), text...)
		binary.LittleEndian.PutUint32(bad[4*i:], 0xd4000001) // svc #0
		same(bad)
	}

	const (
		callMsg = "runtime-call load must be followed by blr x30"
		x30Msg  = "x30 written without an immediately following guard"
		spMsg   = "sp written without a guard"
	)
	// Each body opens its obligation with its first instruction. at is
	// the failing instruction's index in the body (-1: accepted); "udf"
	// is an undecodable word.
	rows := []struct {
		name string
		body []string
		at   int
		msg  string
	}{
		{"call discharged", []string{"ldr x30, [x21, #8]", "blr x30"}, -1, ""},
		{"call failed by a branch", []string{"ldr x30, [x21, #8]", "ret"}, 0, callMsg},
		{"call failed by an sp write", []string{"ldr x30, [x21, #8]", "mov sp, x0"}, 0, callMsg},
		{"call failed by the wrong next", []string{"ldr x30, [x21, #8]", "nop", "blr x30"}, 0, callMsg},
		{"call failed at end of text", []string{"ldr x30, [x21, #8]"}, 0, "runtime-call load at end of text"},

		{"x30 discharged", []string{"ldr x30, [sp, #8]", "add x30, x21, w30, uxtw"}, -1, ""},
		{"x30 failed by a branch", []string{"ldr x30, [sp, #8]", "ret"}, 0, x30Msg},
		{"x30 failed by an sp write", []string{"ldr x30, [sp, #8]", "mov sp, x0"}, 0, x30Msg},
		{"x30 failed by the wrong next", []string{"ldr x30, [sp, #8]", "nop", "add x30, x21, w30, uxtw"}, 0, x30Msg},
		{"x30 failed at end of text", []string{"ldr x30, [sp, #8]"}, 0, x30Msg},

		{"sp pair discharged", []string{"mov sp, x0", "mov w22, wsp", "add sp, x21, x22"}, -1, ""},
		{"sp pair failed by a branch", []string{"mov sp, x0", "mov w22, wsp", "ret"}, 0, spMsg},
		{"sp pair failed by an sp write", []string{"mov sp, x0", "mov sp, x1", "mov w22, wsp", "add sp, x21, x22"}, 0, spMsg},
		{"sp pair failed by the wrong next", []string{"mov sp, x0", "nop", "mov w22, wsp", "add sp, x21, x22"}, 0, spMsg},
		{"sp pair failed at end of text", []string{"mov sp, x0", "mov w22, wsp"}, 0, spMsg},

		{"elided sp discharged by an access", []string{"sub sp, sp, #16", "nop", "ldr x0, [x18]", "nop", "str x0, [sp]"}, -1, ""},
		{"elided sp discharged by the pair", []string{"sub sp, sp, #16", "mov w22, wsp", "add sp, x21, x22"}, -1, ""},
		{"elided sp failed by a branch", []string{"sub sp, sp, #16", "nop", "ldr x0, [x18]", "ret", "str x0, [sp]"}, 0, spMsg},
		{"elided sp failed by an sp write", []string{"sub sp, sp, #16", "nop", "add sp, sp, #16", "str x0, [sp]"}, 0, spMsg},
		{"elided sp failed at end of text", []string{"sub sp, sp, #16", "nop", "ldr x0, [x18]"}, 0, spMsg},
		// An elided sp write has no next-instruction form to get wrong:
		// the pair's first half is not an access, so it fails there when
		// the second half does not follow.
		{"elided sp failed by half a pair", []string{"sub sp, sp, #16", "mov w22, wsp", "ret"}, 0, spMsg},

		{"error while sp open, then discharged", []string{"sub sp, sp, #16", "svc #0", "str x0, [sp]"}, 1, "system calls are forbidden; use the runtime-call table"},
		{"error while sp open, then failed", []string{"sub sp, sp, #16", "svc #0", "ret"}, 0, spMsg},
		{"undecodable while sp open", []string{"sub sp, sp, #16", "udf", "str x0, [sp]"}, 1, "undecodable instruction"},
		{"undecodable after a failure", []string{"ldr x30, [x21, #8]", "nop", "udf"}, 2, "undecodable instruction"},
		{"x30 checked before a later destination", []string{"ldp x30, x21, [sp]", "nop"}, 0, x30Msg},
		{"later destination after a discharged x30", []string{"ldp x30, x21, [sp]", "add x30, x21, w30, uxtw"}, 0, "write to x21 (sandbox base)"},
	}
	nop := encodeLine(t, "nop")
	for _, r := range rows {
		var body []byte
		for _, l := range r.body {
			body = binary.LittleEndian.AppendUint32(body, encodeLine(t, l))
		}
		straddles := make([]bool, 9)
		for p := 0; p < 48; p++ {
			var text []byte
			for range p {
				text = binary.LittleEndian.AppendUint32(text, nop)
			}
			text = append(text, body...)
			_, err := verifyText(text, cfg, 1)
			if r.at < 0 && err != nil {
				t.Fatalf("%s at %d: %v", r.name, p, err)
			}
			if e, ok := err.(*Error); r.at >= 0 && (!ok || e.Offset != uint64(4*(p+r.at)) || e.Msg != r.msg) {
				t.Fatalf("%s at %d: %v; want %q at +%#x", r.name, p, err, r.msg, 4*(p+r.at))
			}
			same(text)
			n := len(text) / 4
			for k := 2; k <= 8; k++ {
				for c := 1; c <= k; c++ { // c == k: the end of text
					straddles[k] = straddles[k] || c*n/k == p+1
				}
			}
		}
		for k := 2; k <= 8; k++ {
			if !straddles[k] {
				t.Errorf("%s: no chunk of %d ends at the opener", r.name, k)
			}
		}
	}
}

// encodeLine assembles one instruction; "udf" is the undecodable word 0.
func encodeLine(t *testing.T, src string) uint32 {
	t.Helper()
	if src == "udf" {
		if _, err := arm64.Decode(0); err == nil {
			t.Fatal("word 0 decodes")
		}
		return 0
	}
	inst, err := arm64.ParseInst(src)
	if err != nil {
		t.Fatalf("%q: %v", src, err)
	}
	w, err := arm64.Encode(&inst)
	if err != nil {
		t.Fatalf("%q: %v", src, err)
	}
	return w
}
