package arm64

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// isaEnc is one encoding of the ARM64 ISA as the Go toolchain's vendored
// x/arch tables list it: fixed bits and the instruction's name.
type isaEnc struct {
	mask, val uint32
	name      string // "LDR (immediate)" -> "LDR"
}

// loadISA reads x/arch's inst.json from GOROOT. Should-be bits, (0) and
// (1), count as fixed.
func loadISA(t *testing.T) []isaEnc {
	path := filepath.Join(runtime.GOROOT(), "src/cmd/vendor/golang.org/x/arch/arm64/arm64asm/inst.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Skipf("no ISA table: %v", err)
	}
	var raw []struct{ Name, Bits string }
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	encs := make([]isaEnc, 0, len(raw))
	for _, r := range raw {
		e := isaEnc{name: strings.SplitN(r.Name, " (", 2)[0]}
		pos := 32
		for _, tok := range strings.Split(r.Bits, "|") {
			width := 1
			if _, n, ok := strings.Cut(tok, ":"); ok {
				width, _ = strconv.Atoi(n)
			}
			pos -= width
			switch strings.Trim(tok, "()") {
			case "0":
				e.mask |= 1 << pos
			case "1":
				e.mask |= 1 << pos
				e.val |= 1 << pos
			}
		}
		if pos != 0 {
			t.Fatalf("%s: bits %q do not make 32", r.Name, r.Bits)
		}
		encs = append(encs, e)
	}
	return encs
}

// isaNames are the ISA spellings of an op beyond its own upper-cased name.
var isaNames = map[Op][]string{
	LSLV: {"LSLV"}, LSRV: {"LSRV"}, ASRV: {"ASRV"}, RORV: {"RORV"},
	BCOND: {"B.cond"},
	LDR:   {"LDUR"}, LDRB: {"LDURB"}, LDRH: {"LDURH"}, LDRSB: {"LDURSB"},
	LDRSH: {"LDURSH"}, LDRSW: {"LDURSW"}, STR: {"STUR"}, STRB: {"STURB"}, STRH: {"STURH"},
}

// TestRowsAgainstISA puts every stride word the table accepts in one of
// three groups: (a) the ISA spells it as the row's op, (b) the ISA gives
// it to another instruction, (c) the ISA has no encoding for it. Group (b)
// must be empty. Group (c) is logged per row: words that differ from an
// ISA encoding only in bits the row's mask leaves don't-care.
func TestRowsAgainstISA(t *testing.T) {
	encs := loadISA(t)
	var buckets [16][]isaEnc
	for _, e := range encs {
		for b := uint32(0); b < 16; b++ {
			if (b<<25^e.val)&e.mask&(0xf<<25) == 0 {
				buckets[b] = append(buckets[b], e)
			}
		}
	}
	type tally struct{ a, b, c int }
	perRow := make([]tally, len(rows))
	var inst Inst
	for k := uint32(0); k < strideWords; k++ {
		w := k * strideMul
		if DecodeInto(w, &inst) != nil {
			continue
		}
		ri := -1
		for j := range rows {
			if w&rows[j].mask == rows[j].val {
				ri = j
				break
			}
		}
		spell := map[string]bool{strings.ToUpper(inst.Op.Name()): true}
		for _, n := range isaNames[inst.Op] {
			spell[n] = true
		}
		matched, same := false, false
		for _, e := range buckets[w>>25&0xf] {
			if w&e.mask == e.val {
				matched = true
				same = same || spell[e.name]
			}
		}
		switch {
		case same:
			perRow[ri].a++
		case matched:
			perRow[ri].b++
			t.Errorf("%#08x (%s, row %d) is another instruction in the ISA", w, inst.String(), ri)
		default:
			perRow[ri].c++
		}
	}
	var total tally
	for j, n := range perRow {
		total.a, total.b, total.c = total.a+n.a, total.b+n.b, total.c+n.c
		if n.c > 0 {
			t.Logf("row %3d %-6s mask %08x: accepted %6d, not in the ISA %6d", j, rows[j].op, rows[j].mask, n.a+n.b+n.c, n.c)
		}
	}
	t.Logf("accepted %d: (a) %d, (b) %d, (c) %d", total.a+total.b+total.c, total.a, total.b, total.c)
}
