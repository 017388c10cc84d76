package arm64

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// ItemKind distinguishes the pieces of a parsed assembly file.
type ItemKind uint8

const (
	ItemInst ItemKind = iota
	ItemLabel
	ItemDirective
)

// Item is one element of an assembly file: an instruction, a label
// definition, or a directive. The rewriter copies every item once, so the
// struct carries one name and a 32-bit line number rather than a field
// per kind.
type Item struct {
	Kind   ItemKind
	LineNo int32    // 1-based source line
	Inst   Inst     // ItemInst
	Name   string   // ItemLabel: the label; ItemDirective: the directive, without the leading dot
	Args   []string // directive arguments
}

// File is a parsed assembly source file.
type File struct {
	Items []Item
}

// cutLine splits src after its first newline. It returns the line without
// its comment (//, @ or ;, outside string literals) and without the blanks
// around what is left, and whether that has a colon, reading each byte
// once.
func cutLine(src string) (line, rest string, colon bool) {
	inStr := false
	for i := 0; i < len(src); i++ {
		for i < len(src) && !lineStop[src[i]] {
			i++
		}
		if i == len(src) {
			break
		}
		switch c := src[i]; {
		case c == '\n':
			return trimSpace(src[:i]), src[i+1:], colon
		case inStr:
			if c == '"' {
				inStr = false
			} else if c == '\\' && i+1 < len(src) && src[i+1] != '\n' {
				i++
			}
		case c == '"':
			inStr = true
		case c == ':':
			colon = true
		case c == ';' || c == '@' || (c == '/' && i+1 < len(src) && src[i+1] == '/'):
			line = trimSpace(src[:i])
			if j := strings.IndexByte(src[i:], '\n'); j >= 0 {
				return line, src[i+j+1:], colon
			}
			return line, "", colon
		}
	}
	return trimSpace(src), "", colon
}

// lineStop marks the bytes cutLine stops at.
var lineStop = [256]bool{'\n': true, '"': true, '\\': true, ':': true, ';': true, '@': true, '/': true}

// trimSpace is strings.TrimSpace, returning at once the common line or
// operand that has no blank or non-ASCII byte at either edge.
func trimSpace(s string) string {
	if len(s) > 0 && (trimEdge[s[0]] || trimEdge[s[len(s)-1]]) {
		return trimBlanks(s)
	}
	return s
}

// trimBlanks is trimSpace's loop.
func trimBlanks(s string) string {
	for len(s) > 0 && asciiSpace[s[0]] {
		s = s[1:]
	}
	for len(s) > 0 && asciiSpace[s[len(s)-1]] {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && (s[0]|s[len(s)-1]) >= utf8.RuneSelf {
		return strings.TrimSpace(s)
	}
	return s
}

// asciiSpace marks the blanks strings.TrimSpace trims in ASCII; trimEdge
// marks those and every non-ASCII byte.
var asciiSpace, trimEdge [256]bool

func init() {
	for _, c := range "\t\n\v\f\r " {
		asciiSpace[c], trimEdge[c] = true, true
	}
	for c := utf8.RuneSelf; c < len(trimEdge); c++ {
		trimEdge[c] = true
	}
}

// stripBlockComments removes /* ... */ comments (which may span lines),
// preserving newlines so line numbers in diagnostics stay accurate.
// String literals are respected.
func stripBlockComments(src string) string {
	var b strings.Builder
	b.Grow(len(src))
	inStr, inComment := false, false
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case inComment:
			if c == '\n' {
				b.WriteByte('\n')
			}
			if c == '*' && i+1 < len(src) && src[i+1] == '/' {
				inComment = false
				i++
			}
		case inStr:
			b.WriteByte(c)
			if c == '\\' && i+1 < len(src) {
				i++
				b.WriteByte(src[i])
			} else if c == '"' {
				inStr = false
			}
		case c == '"':
			inStr = true
			b.WriteByte(c)
		case c == '/' && i+1 < len(src) && src[i+1] == '*':
			inComment = true
			i++
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// ParseFile parses GNU-syntax assembly source into items. Items is
// reserved once, from the line count; operand and mnemonic strings are
// substrings of src.
func ParseFile(src string) (*File, error) { return parseFile(src, 0) }

// minParseChunk is the least source, in bytes, worth a goroutine.
const minParseChunk = 256 << 10

// parseFile is ParseFile in k chunks (0: one per minParseChunk, at most
// GOMAXPROCS), cut after newlines: a line's items depend on it alone. The
// chunk whose lines start at index lo writes its items from there up to
// the next chunk's lo. The lowest chunk's error is the first in src.
func parseFile(src string, k int) (*File, error) {
	if strings.Contains(src, "/*") {
		src = stripBlockComments(src)
	}
	if k == 0 {
		k = max(1, min(runtime.GOMAXPROCS(0), len(src)/minParseChunk))
	}
	parts := make([]chunk, k)
	lines, start := 0, 0
	for c := range parts {
		end := len(src)
		if c < k-1 {
			end = max(start, strings.LastIndexByte(src[:(c+1)*len(src)/k], '\n')+1)
		}
		p := &parts[c]
		p.lo, p.src = lines, src[start:end]
		lines += strings.Count(p.src, "\n")
		p.hi, start = lines, end
	}
	parts[k-1].hi++ // the last line need not end in a newline
	items := make([]Item, 0, lines+1)
	inChunks(k, func(c int) {
		p := &parts[c]
		p.items, p.err = parseLines(items[p.lo:p.hi:p.hi][:0], p.src, int32(p.lo+1))
	})
	for _, p := range parts {
		if p.err != nil {
			return nil, p.err
		}
	}
	return &File{Items: compact(items, parts)}, nil
}

// A chunk is one goroutine's share of a file and its window of items.
type chunk struct {
	lo, hi int
	src    string
	items  []Item
	err    error
}

// compact joins the chunks' items: in place if each fitted its window of
// all, else (labels before an instruction) in one exact-size copy.
func compact(all []Item, parts []chunk) []Item {
	n, fits := 0, true
	for _, p := range parts {
		n += len(p.items)
		fits = fits && len(p.items) <= p.hi-p.lo
	}
	out := all[:0]
	if !fits {
		out = make([]Item, 0, n)
	}
	for _, p := range parts {
		out = append(out, p.items...)
	}
	return out
}

// inChunks runs fn(0), …, fn(k-1) at once, fn(0) on this goroutine.
func inChunks(k int, fn func(c int)) {
	var wg sync.WaitGroup
	wg.Add(k - 1)
	for c := 1; c < k; c++ {
		go func() { fn(c); wg.Done() }()
	}
	fn(0)
	wg.Wait()
}

// parseLines appends the items of src, whose first line is number no.
func parseLines(items []Item, src string, no int32) ([]Item, error) {
	var line string
	var hasColon bool
	var it *Item
	for ; src != ""; no++ {
		line, src, hasColon = cutLine(src)
		// A line may start with one or more labels.
		for hasColon && line != "" {
			colon := strings.IndexByte(line, ':')
			if colon < 0 {
				break
			}
			name := trimSpace(line[:colon])
			if !isSymbolName(name) {
				break
			}
			items, it = next(items)
			it.Kind, it.Name, it.LineNo = ItemLabel, name, no
			line = trimSpace(line[colon+1:])
		}
		if line == "" {
			continue
		}
		if line[0] == '.' {
			dir, rest := cutWord(line[1:])
			var args []string
			if rest != "" {
				var buf [8]string
				args = append(args, splitOperands(buf[:0], rest)...)
			}
			items, it = next(items)
			it.Kind, it.Name, it.Args, it.LineNo = ItemDirective, dir, args, no
			continue
		}
		items, it = next(items)
		if err := parseInst(line, &it.Inst); err != nil {
			err.Line = line
			return nil, fmt.Errorf("line %d: %w", no, err)
		}
		it.Kind, it.LineNo = ItemInst, no
	}
	return items, nil
}

// next appends an item to items and returns it to be filled in: in the
// reservation, whose items are zero, where it has room.
func next(items []Item) ([]Item, *Item) {
	if len(items) < cap(items) {
		items = items[:len(items)+1]
	} else {
		items = append(items, Item{})
	}
	return items, &items[len(items)-1]
}

// cutWord splits s at its first run of blanks: "lsl #3" gives "lsl", "#3".
func cutWord(s string) (word, rest string) {
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' || s[i] == '\t' {
			return s[:i], trimSpace(s[i+1:])
		}
	}
	return s, ""
}

func isSymbolName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == '.' || c == '$' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// Layout tells the assembler where each section will live in the target
// address space.
type Layout struct {
	TextBase   uint64
	RODataBase uint64 // 0: placed after text, page aligned
	DataBase   uint64 // 0: placed after rodata, page aligned
	PageSize   uint64 // 0: 16KiB
}

// Image is a fully resolved program image.
type Image struct {
	TextAddr   uint64
	Text       []byte
	RODataAddr uint64
	ROData     []byte
	DataAddr   uint64
	Data       []byte
	BSSAddr    uint64
	BSSSize    uint64
	Symbols    map[string]uint64
	Globals    map[string]bool
	Entry      uint64 // address of _start, main, or text base
}

type section int

const (
	secText section = iota
	secROData
	secData
	secBSS
	numSections
)

func alignUp(v, a uint64) uint64 {
	if a == 0 {
		return v
	}
	return (v + a - 1) &^ (a - 1)
}

// MaxSectionSize bounds each section of an assembled image. A few bytes
// of source (`.space N`, `.balign N`) can ask for any size, and source
// arrives from network clients, so Assemble rejects a section that grows
// past this in pass 1, before it allocates anything. The value is the
// slot layout's code margin (internal/core asserts the two are equal; it
// imports this package, so the constant cannot live there): text may not
// be larger than that in any case, and with every section held to it a
// whole image stays far below the mmap arena in the slot's upper half.
const MaxSectionSize = uint64(128) << 20

// AssembleError decorates assembly failures with a line number.
type AssembleError struct {
	LineNo int32
	Err    error
}

func (e *AssembleError) Error() string {
	return fmt.Sprintf("line %d: %v", e.LineNo, e.Err)
}

func (e *AssembleError) Unwrap() error { return e.Err }

// sectionSwitch reports the section a .text/.data/.bss/.rodata/.section
// directive selects.
func sectionSwitch(it *Item) (section, bool) {
	switch it.Name {
	case "text":
		return secText, true
	case "data":
		return secData, true
	case "bss":
		return secBSS, true
	case "rodata":
		return secROData, true
	case "section":
		if len(it.Args) > 0 {
			switch {
			case strings.HasPrefix(it.Args[0], ".text"):
				return secText, true
			case strings.HasPrefix(it.Args[0], ".rodata"):
				return secROData, true
			case strings.HasPrefix(it.Args[0], ".bss"):
				return secBSS, true
			}
			return secData, true
		}
	}
	return 0, false
}

// dataSize is the number of bytes a data directive emits.
func dataSize(it *Item) (uint64, error) {
	switch it.Name {
	case "quad", "xword", "dword", "8byte":
		return uint64(8 * len(it.Args)), nil
	case "word", "long", "4byte":
		return uint64(4 * len(it.Args)), nil
	case "hword", "short", "2byte":
		return uint64(2 * len(it.Args)), nil
	case "byte":
		return uint64(len(it.Args)), nil
	case "ascii", "asciz", "string":
		n := uint64(0)
		for _, a := range it.Args {
			s, err := parseStringLit(a)
			if err != nil {
				return 0, err
			}
			n += uint64(len(s))
			if it.Name != "ascii" {
				n++
			}
		}
		return n, nil
	case "space", "skip", "zero":
		if len(it.Args) < 1 {
			return 0, fmt.Errorf(".space needs a size")
		}
		v, ok := parseImmVal(it.Args[0])
		if !ok || v < 0 {
			return 0, fmt.Errorf("bad .space size %q", it.Args[0])
		}
		return uint64(v), nil
	}
	return 0, nil
}

// Assemble lays out and encodes the file into a linked image.
func Assemble(f *File, layout Layout) (*Image, error) { return assemble(f, layout, 0) }

// minAssembleChunk is the fewest items worth a goroutine.
const minAssembleChunk = 16 << 10

// secShift places a symbol's section in the top two bits over its offset
// until the section bases are known.
const secShift = 62

// An asmChunk is one goroutine's share of pass 2: items c*n/k up to
// (c+1)*n/k, which start in section cur at offset off[s] of every
// section s.
type asmChunk struct {
	cur section
	off [numSections]uint64
	err error
}

// A label is a symbol definition pass 1 found: its item, and its section
// over its offset.
type label struct {
	item int
	at   uint64
}

// assemble is Assemble with pass 2 in k chunks (0: one per
// minAssembleChunk items, at most GOMAXPROCS). Pass 1 is one walk: it
// sizes the sections, finds the labels, and notes where each chunk
// starts. Each chunk then encodes its items into its window of the sized
// section buffers, reading the finished symbol map; the lowest chunk's
// error is the first in the file.
func assemble(f *File, layout Layout, k int) (*Image, error) {
	if layout.PageSize == 0 {
		layout.PageSize = 16 * 1024
	}
	n := len(f.Items)
	if k == 0 {
		k = max(1, min(runtime.GOMAXPROCS(0), n/minAssembleChunk))
	}
	parts := make([]asmChunk, k)

	// Pass 1: compute section sizes and symbol offsets.
	var labels []label
	globals := make(map[string]bool)
	cur := secText
	var size [numSections]uint64
	c := 0
	for idx := range f.Items {
		for c < k && idx == c*n/k {
			parts[c].cur, parts[c].off = cur, size
			c++
		}
		if err := layOut(&f.Items[idx], &cur, &size, globals); err != nil {
			_, dup := symbols(f, labels, &size) // a duplicate on an earlier line comes first
			return nil, cmp.Or(dup, err)
		}
		if f.Items[idx].Kind == ItemLabel {
			labels = append(labels, label{idx, uint64(cur)<<secShift | size[cur]})
		}
	}

	// Section base addresses.
	var base [numSections]uint64
	base[secText] = layout.TextBase
	base[secROData] = layout.RODataBase
	if base[secROData] == 0 {
		base[secROData] = alignUp(base[secText]+size[secText], layout.PageSize)
	}
	base[secData] = layout.DataBase
	if base[secData] == 0 {
		base[secData] = alignUp(base[secROData]+size[secROData], layout.PageSize)
	}
	base[secBSS] = alignUp(base[secData]+size[secData], layout.PageSize)
	symAddr, err := symbols(f, labels, &base)
	if err != nil {
		return nil, err
	}

	// Pass 2: emit bytes into buffers of the sizes pass 1 found. The BSS
	// holds no bytes, so nothing is emitted for it.
	a := &assembler{f: f, sym: symAddr, base: base}
	for sec := secText; sec < secBSS; sec++ {
		a.buf[sec] = make([]byte, size[sec])
	}
	inChunks(k, func(c int) { parts[c].err = a.emit(&parts[c], c*n/k, (c+1)*n/k) })
	for _, p := range parts {
		if p.err != nil {
			return nil, p.err
		}
	}

	img := &Image{
		TextAddr:   base[secText],
		Text:       a.buf[secText],
		RODataAddr: base[secROData],
		ROData:     a.buf[secROData],
		DataAddr:   base[secData],
		Data:       a.buf[secData],
		BSSAddr:    base[secBSS],
		BSSSize:    size[secBSS],
		Symbols:    symAddr,
		Globals:    globals,
		Entry:      base[secText],
	}
	if a, ok := symAddr["_start"]; ok {
		img.Entry = a
	} else if a, ok := symAddr["main"]; ok {
		img.Entry = a
	}
	return img, nil
}

// layOut is pass 1 for one item: it moves *cur and grows *size by what the
// item emits, and notes .globl names.
func layOut(it *Item, cur *section, size *[numSections]uint64, globals map[string]bool) error {
	switch it.Kind {
	case ItemInst:
		if *cur != secText {
			return &AssembleError{it.LineNo, fmt.Errorf("instruction outside .text")}
		}
		size[*cur] += 4
	case ItemDirective:
		if sec, ok := sectionSwitch(it); ok {
			*cur = sec
			return nil
		}
		switch it.Name {
		case "globl", "global":
			for _, a := range it.Args {
				globals[a] = true
			}
		case "align", "p2align":
			if len(it.Args) >= 1 {
				v, ok := parseImmVal(it.Args[0])
				if !ok || v < 0 || v > 16 {
					return &AssembleError{it.LineNo, fmt.Errorf("bad alignment")}
				}
				size[*cur] = alignUp(size[*cur], 1<<uint(v))
			}
		case "balign":
			if len(it.Args) >= 1 {
				v, ok := parseImmVal(it.Args[0])
				if !ok || v <= 0 || v&(v-1) != 0 {
					return &AssembleError{it.LineNo, fmt.Errorf("bad alignment")}
				}
				size[*cur] = alignUp(size[*cur], uint64(v))
			}
		default:
			n, err := dataSize(it)
			if err != nil {
				return &AssembleError{it.LineNo, err}
			}
			size[*cur] += n
		}
	}
	if size[*cur] > MaxSectionSize {
		return &AssembleError{it.LineNo, fmt.Errorf("section exceeds %d bytes", MaxSectionSize)}
	}
	return nil
}

// symbols maps each label to its address, given the section bases, in a
// map sized once. It reports the first symbol defined twice.
func symbols(f *File, labels []label, base *[numSections]uint64) (map[string]uint64, error) {
	sym := make(map[string]uint64, len(labels))
	for _, l := range labels {
		it := &f.Items[l.item]
		if _, dup := sym[it.Name]; dup {
			return nil, &AssembleError{it.LineNo, fmt.Errorf("duplicate symbol %q", it.Name)}
		}
		sym[it.Name] = base[l.at>>secShift] + l.at&(1<<secShift-1)
	}
	return sym, nil
}

// assembler is what pass 2 reads, and the buffers its chunks write.
type assembler struct {
	f    *File
	sym  map[string]uint64
	base [numSections]uint64
	buf  [numSections][]byte
}

func (a *assembler) resolve(label string, lineNo int32) (uint64, error) {
	v, ok := a.sym[label]
	if !ok {
		return 0, &AssembleError{lineNo, fmt.Errorf("undefined symbol %q", label)}
	}
	return v, nil
}

// value is a data directive argument: a number or a symbol's address.
func (a *assembler) value(arg string, lineNo int32) (uint64, error) {
	if isImm(arg) {
		v, _ := parseImmVal(arg)
		return uint64(v), nil
	}
	return a.resolve(arg, lineNo)
}

// emit is pass 2 over chunk p, items [lo, hi): it writes them from p.off
// on.
func (a *assembler) emit(p *asmChunk, lo, hi int) error {
	cur, off := p.cur, p.off
	le := binary.LittleEndian
	for idx := lo; idx < hi; idx++ {
		it := &a.f.Items[idx]
		switch it.Kind {
		case ItemInst:
			in := &it.Inst
			if in.Label != "" {
				pc := a.base[secText] + off[secText]
				inst := *in
				in = &inst
				if strings.HasPrefix(inst.Label, ":lo12:") {
					v, err := a.resolve(inst.Label[len(":lo12:"):], it.LineNo)
					if err != nil {
						return err
					}
					inst.Imm = int64(v & 0xfff)
				} else {
					v, err := a.resolve(inst.Label, it.LineNo)
					if err != nil {
						return err
					}
					switch inst.Op {
					case ADRP:
						inst.Imm = int64(v&^0xfff) - int64(pc&^0xfff)
					case ADR, B, BL, BCOND, CBZ, CBNZ, TBZ, TBNZ:
						inst.Imm = int64(v) - int64(pc)
					default:
						if inst.Mem.Mode == AddrLiteral {
							inst.Imm = int64(v) - int64(pc)
						} else {
							inst.Imm = int64(v)
						}
					}
				}
				inst.Label = ""
			}
			w, err := Encode(in)
			if err != nil {
				return &AssembleError{it.LineNo, err}
			}
			le.PutUint32(a.buf[secText][off[secText]:], w)
			off[secText] += 4

		case ItemDirective:
			if sec, ok := sectionSwitch(it); ok {
				cur = sec
				continue
			}
			if cur == secBSS {
				continue
			}
			out, at := a.buf[cur], off[cur]
			switch it.Name {
			case "align", "p2align", "balign":
				if len(it.Args) >= 1 {
					v, _ := parseImmVal(it.Args[0])
					n := uint64(1) << uint(v)
					if it.Name == "balign" {
						n = uint64(v)
					}
					// The buffer is zero: only text padding from a
					// word boundary on needs writing, as nops.
					for ; at%n != 0; at++ {
						if cur == secText && at%4 == 0 && n >= 4 {
							le.PutUint32(out[at:], 0xd503201f) // nop
							at += 3
						}
					}
				}
			case "quad", "xword", "dword", "8byte":
				for _, arg := range it.Args {
					v, err := a.value(arg, it.LineNo)
					if err != nil {
						return err
					}
					le.PutUint64(out[at:], v)
					at += 8
				}
			case "word", "long", "4byte":
				for _, arg := range it.Args {
					v, err := a.value(arg, it.LineNo)
					if err != nil {
						return err
					}
					le.PutUint32(out[at:], uint32(v))
					at += 4
				}
			case "hword", "short", "2byte":
				for _, arg := range it.Args {
					sv, _ := parseImmVal(arg)
					le.PutUint16(out[at:], uint16(sv))
					at += 2
				}
			case "byte":
				for _, arg := range it.Args {
					sv, _ := parseImmVal(arg)
					out[at] = byte(sv)
					at++
				}
			case "ascii", "asciz", "string":
				for _, arg := range it.Args {
					s, err := parseStringLit(arg)
					if err != nil {
						return &AssembleError{it.LineNo, err}
					}
					at += uint64(copy(out[at:], s))
					if it.Name != "ascii" {
						at++
					}
				}
			case "space", "skip", "zero":
				v, _ := parseImmVal(it.Args[0])
				at += uint64(v)
			}
			off[cur] = at
		}
	}
	return nil
}

func parseStringLit(s string) (string, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return "", fmt.Errorf("bad string literal %s", s)
	}
	out, err := strconv.Unquote(s)
	if err != nil {
		return "", fmt.Errorf("bad string literal %s: %v", s, err)
	}
	return out, nil
}
