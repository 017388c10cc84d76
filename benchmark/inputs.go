package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"strings"

	"lfi/internal/core"
	"lfi/internal/progs"
)

// testdata holds the Wasm sample modules, the result each must print
// (computed once by the reference interpreter, never by the translator
// under test), and the unguarded translation of the three exec samples —
// committed so that the Wasm baseline does not move with the translator.
//
//go:embed testdata
var testdata embed.FS

// wasmSamples are the three modules of BENCH_wasm.json at their default
// iteration counts.
var wasmSamples = []string{"wasm-arith", "wasm-memfill", "wasm-calls"}

func testdataFile(name string) []byte {
	b, err := testdata.ReadFile("testdata/" + name)
	if err != nil {
		panic("benchmark: " + err.Error()) // embedded at build time
	}
	return b
}

// wasmChecksum is the 8 bytes a sample writes to stdout: its i64 result,
// little-endian, as the reference interpreter computed it.
func wasmChecksum(sample string) ([]byte, error) {
	var sums map[string]string
	if err := json.Unmarshal(testdataFile("checksums.json"), &sums); err != nil {
		return nil, fmt.Errorf("checksums.json: %w", err)
	}
	b, err := hex.DecodeString(sums[sample])
	if err != nil || len(b) != 8 {
		return nil, fmt.Errorf("checksums.json: no 8-byte checksum for %s", sample)
	}
	return b, nil
}

// inputHash accumulates every generated input of a workload.
type inputHash struct{ h hash.Hash }

func (i *inputHash) reset() { i.h = sha256.New() }

func (i *inputHash) add(parts ...string) {
	for _, p := range parts {
		fmt.Fprintf(i.h, "%d:", len(p))
		i.h.Write([]byte(p))
	}
}

func (i *inputHash) inputSHA256() string { return hex.EncodeToString(i.h.Sum(nil)) }

var o2 = core.Options{Opt: core.O2}

// writeAndExit is the tail shared by the serving programs: write n bytes
// at label to stdout and exit 0.
func writeAndExit(label string, n int) string {
	return fmt.Sprintf("\tmov x0, #1\n\tadrp x1, %[1]s\n\tadd x1, x1, :lo12:%[1]s\n\tmov x2, #%[2]d\n%[3]s%[4]s",
		label, n, progs.RTCall(core.RTWrite), progs.ExitCode(0))
}

// tinySource is the lfi-loadgen job: write a short line, exit. Serving
// cost, not sandbox time.
func tinySource(payload string) string {
	return fmt.Sprintf("_start:\n%s.rodata\nmsg:\n\t.ascii %q\n", writeAndExit("msg", len(payload)), payload)
}

// echoSource copies up to 1 KiB of stdin to stdout.
func echoSource() string {
	return fmt.Sprintf(`_start:
	mov x0, #0
	adrp x1, buf
	add x1, x1, :lo12:buf
	mov x2, #1024
%s	mov x2, x0
	mov x0, #1
	adrp x1, buf
	add x1, x1, :lo12:buf
%s%s.bss
buf:
	.space 1024
`, progs.RTCall(core.RTRead), progs.RTCall(core.RTWrite), progs.ExitCode(0))
}

// handlerSource is a request-handler stand-in: a short compute loop and a
// response write in a text padded with filler never-executed instruction
// triples, so that loading, verifying and snapshotting it cost what a
// real handler's text would (1500 triples ≈ 4.5 k instructions, the shape
// internal/bench uses for its pool numbers).
func handlerSource(payload string, loops, filler int) string {
	var pad strings.Builder
	for i := 0; i < filler; i++ {
		fmt.Fprintf(&pad, "\tadd x9, x9, #%d\n\teor x10, x10, x9\n\tstr x10, [x25]\n", i%1024)
	}
	return fmt.Sprintf(`_start:
	mov x9, #0
	mov x10, #%d
loop:
	add x9, x9, #1
	cmp x9, x10
	b.lt loop
%s	b done
%sdone:
.rodata
msg:
	.ascii %q
`, loops, writeAndExit("msg", len(payload)), pad.String(), payload)
}
