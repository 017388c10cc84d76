package arm64

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
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

// stripComment removes //, @ and ; comments (not inside string literals).
func stripComment(line string) string {
	inStr := false
	for i := 0; i < len(line); i++ {
		c := line[i]
		if c == '"' {
			inStr = !inStr
			continue
		}
		if inStr {
			if c == '\\' {
				i++
			}
			continue
		}
		if c == ';' || c == '@' {
			return line[:i]
		}
		if c == '/' && i+1 < len(line) && line[i+1] == '/' {
			return line[:i]
		}
	}
	return line
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
func ParseFile(src string) (*File, error) {
	if strings.Contains(src, "/*") {
		src = stripBlockComments(src)
	}
	f := &File{Items: make([]Item, 0, strings.Count(src, "\n")+1)}
	var line string
	for no := int32(1); src != ""; no++ {
		line, src, _ = strings.Cut(src, "\n")
		line = strings.TrimSpace(stripComment(line))
		// A line may start with one or more labels.
		for line != "" {
			colon := strings.IndexByte(line, ':')
			if colon < 0 {
				break
			}
			name := strings.TrimSpace(line[:colon])
			if !isSymbolName(name) {
				break
			}
			f.Items = append(f.Items, Item{Kind: ItemLabel, Name: name, LineNo: no})
			line = strings.TrimSpace(line[colon+1:])
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
			f.Items = append(f.Items, Item{Kind: ItemDirective, Name: dir, Args: args, LineNo: no})
			continue
		}
		inst, err := ParseInst(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", no, err)
		}
		f.Items = append(f.Items, Item{Kind: ItemInst, Inst: inst, LineNo: no})
	}
	return f, nil
}

// cutWord splits s at its first run of blanks: "lsl #3" gives "lsl", "#3".
func cutWord(s string) (word, rest string) {
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' || s[i] == '\t' {
			return s[:i], strings.TrimSpace(s[i+1:])
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
func Assemble(f *File, layout Layout) (*Image, error) {
	if layout.PageSize == 0 {
		layout.PageSize = 16 * 1024
	}

	// Pass 1: compute section sizes and symbol offsets. A symbol is held
	// as its section in the top two bits over its offset until the
	// section bases are known.
	const secShift = 62
	symAddr := make(map[string]uint64)
	globals := make(map[string]bool)
	cur := secText
	var size [numSections]uint64

	for idx := range f.Items {
		it := &f.Items[idx]
		switch it.Kind {
		case ItemLabel:
			if _, dup := symAddr[it.Name]; dup {
				return nil, &AssembleError{it.LineNo, fmt.Errorf("duplicate symbol %q", it.Name)}
			}
			symAddr[it.Name] = uint64(cur)<<secShift | size[cur]
		case ItemInst:
			if cur != secText {
				return nil, &AssembleError{it.LineNo, fmt.Errorf("instruction outside .text")}
			}
			size[cur] += 4
		case ItemDirective:
			if sec, ok := sectionSwitch(it); ok {
				cur = sec
				continue
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
						return nil, &AssembleError{it.LineNo, fmt.Errorf("bad alignment")}
					}
					size[cur] = alignUp(size[cur], 1<<uint(v))
				}
			case "balign":
				if len(it.Args) >= 1 {
					v, ok := parseImmVal(it.Args[0])
					if !ok || v <= 0 || v&(v-1) != 0 {
						return nil, &AssembleError{it.LineNo, fmt.Errorf("bad alignment")}
					}
					size[cur] = alignUp(size[cur], uint64(v))
				}
			default:
				n, err := dataSize(it)
				if err != nil {
					return nil, &AssembleError{it.LineNo, err}
				}
				size[cur] += n
			}
		}
		if size[cur] > MaxSectionSize {
			return nil, &AssembleError{it.LineNo, fmt.Errorf("section exceeds %d bytes", MaxSectionSize)}
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

	for name, v := range symAddr {
		symAddr[name] = base[v>>secShift] + v&(1<<secShift-1)
	}

	resolve := func(label string, lineNo int32) (uint64, error) {
		a, ok := symAddr[label]
		if !ok {
			return 0, &AssembleError{lineNo, fmt.Errorf("undefined symbol %q", label)}
		}
		return a, nil
	}
	// value is a data directive argument: a number or a symbol's address.
	value := func(arg string, lineNo int32) (uint64, error) {
		if isImm(arg) {
			v, _ := parseImmVal(arg)
			return uint64(v), nil
		}
		return resolve(arg, lineNo)
	}

	// Pass 2: emit bytes into buffers of the sizes pass 1 found. The BSS
	// holds no bytes, so nothing is emitted for it.
	var buf [numSections][]byte
	for sec := secText; sec < secBSS; sec++ {
		buf[sec] = make([]byte, 0, size[sec])
	}
	cur = secText
	le := binary.LittleEndian

	for idx := range f.Items {
		it := &f.Items[idx]
		switch it.Kind {
		case ItemInst:
			pc := base[secText] + uint64(len(buf[secText]))
			inst := it.Inst
			if inst.Label != "" {
				if strings.HasPrefix(inst.Label, ":lo12:") {
					a, err := resolve(inst.Label[len(":lo12:"):], it.LineNo)
					if err != nil {
						return nil, err
					}
					inst.Imm = int64(a & 0xfff)
				} else {
					a, err := resolve(inst.Label, it.LineNo)
					if err != nil {
						return nil, err
					}
					switch inst.Op {
					case ADRP:
						inst.Imm = int64(a&^0xfff) - int64(pc&^0xfff)
					case ADR, B, BL, BCOND, CBZ, CBNZ, TBZ, TBNZ:
						inst.Imm = int64(a) - int64(pc)
					default:
						if inst.Mem.Mode == AddrLiteral {
							inst.Imm = int64(a) - int64(pc)
						} else {
							inst.Imm = int64(a)
						}
					}
				}
				inst.Label = ""
			}
			w, err := Encode(&inst)
			if err != nil {
				return nil, &AssembleError{it.LineNo, err}
			}
			buf[secText] = le.AppendUint32(buf[secText], w)

		case ItemDirective:
			if sec, ok := sectionSwitch(it); ok {
				cur = sec
				continue
			}
			if cur == secBSS {
				continue
			}
			out := buf[cur]
			switch it.Name {
			case "align", "p2align", "balign":
				if len(it.Args) >= 1 {
					v, _ := parseImmVal(it.Args[0])
					a := uint64(1) << uint(v)
					if it.Name == "balign" {
						a = uint64(v)
					}
					for uint64(len(out))%a != 0 {
						if cur == secText && len(out)%4 == 0 && a >= 4 {
							out = le.AppendUint32(out, 0xd503201f) // nop
						} else {
							out = append(out, 0)
						}
					}
				}
			case "quad", "xword", "dword", "8byte":
				for _, a := range it.Args {
					v, err := value(a, it.LineNo)
					if err != nil {
						return nil, err
					}
					out = le.AppendUint64(out, v)
				}
			case "word", "long", "4byte":
				for _, a := range it.Args {
					v, err := value(a, it.LineNo)
					if err != nil {
						return nil, err
					}
					out = le.AppendUint32(out, uint32(v))
				}
			case "hword", "short", "2byte":
				for _, a := range it.Args {
					sv, _ := parseImmVal(a)
					out = le.AppendUint16(out, uint16(sv))
				}
			case "byte":
				for _, a := range it.Args {
					sv, _ := parseImmVal(a)
					out = append(out, byte(sv))
				}
			case "ascii", "asciz", "string":
				for _, a := range it.Args {
					s, err := parseStringLit(a)
					if err != nil {
						return nil, &AssembleError{it.LineNo, err}
					}
					out = append(out, s...)
					if it.Name != "ascii" {
						out = append(out, 0)
					}
				}
			case "space", "skip", "zero":
				v, _ := parseImmVal(it.Args[0])
				out = append(out, make([]byte, v)...)
			}
			buf[cur] = out
		}
	}

	img := &Image{
		TextAddr:   base[secText],
		Text:       buf[secText],
		RODataAddr: base[secROData],
		ROData:     buf[secROData],
		DataAddr:   base[secData],
		Data:       buf[secData],
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
