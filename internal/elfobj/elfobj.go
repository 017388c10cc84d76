// Package elfobj writes and reads the minimal ELF64 executables that the
// LFI runtime loads: little-endian AArch64 ET_EXEC images whose program
// headers carry sandbox-relative virtual addresses. The reader uses the
// standard library's debug/elf so that the loader consumes genuine ELF.
package elfobj

import (
	"bytes"
	"debug/elf"
	"encoding/binary"
	"fmt"

	"lfi/internal/arm64"
)

// Segment is one loadable program segment.
type Segment struct {
	Vaddr uint64 // sandbox-relative virtual address
	Data  []byte
	// MemSize >= len(Data); the loader zero-fills the rest (BSS).
	MemSize uint64
	Flags   elf.ProgFlag
}

// Executable is a loadable program.
type Executable struct {
	Entry    uint64 // sandbox-relative entry point
	Segments []Segment
	Symbols  map[string]uint64
}

// FromImage converts an assembled image into an executable with the
// standard text/rodata/data+bss segments.
func FromImage(img *arm64.Image) *Executable {
	e := &Executable{Entry: img.Entry, Symbols: img.Symbols}
	if len(img.Text) > 0 {
		e.Segments = append(e.Segments, Segment{
			Vaddr: img.TextAddr, Data: img.Text,
			MemSize: uint64(len(img.Text)), Flags: elf.PF_R | elf.PF_X,
		})
	}
	if len(img.ROData) > 0 {
		e.Segments = append(e.Segments, Segment{
			Vaddr: img.RODataAddr, Data: img.ROData,
			MemSize: uint64(len(img.ROData)), Flags: elf.PF_R,
		})
	}
	dataSize := uint64(len(img.Data))
	memSize := dataSize
	if img.BSSSize > 0 {
		memSize = img.BSSAddr + img.BSSSize - img.DataAddr
	}
	if memSize > 0 {
		e.Segments = append(e.Segments, Segment{
			Vaddr: img.DataAddr, Data: img.Data,
			MemSize: memSize, Flags: elf.PF_R | elf.PF_W,
		})
	}
	return e
}

const (
	ehSize = 64
	phSize = 56
)

// Marshal serializes the executable as an ELF64 binary.
func (e *Executable) Marshal() ([]byte, error) {
	n := len(e.Segments)
	// File layout: ehdr, phdrs, then segment data back to back (8-aligned).
	offs := make([]uint64, n)
	pos := uint64(ehSize + n*phSize)
	for i, s := range e.Segments {
		pos = (pos + 7) &^ 7
		offs[i] = pos
		pos += uint64(len(s.Data))
	}
	var buf bytes.Buffer
	buf.Grow(int(pos))

	// ELF header.
	var ident [16]byte
	copy(ident[:], elf.ELFMAG)
	ident[elf.EI_CLASS] = byte(elf.ELFCLASS64)
	ident[elf.EI_DATA] = byte(elf.ELFDATA2LSB)
	ident[elf.EI_VERSION] = byte(elf.EV_CURRENT)
	buf.Write(ident[:])
	le := binary.LittleEndian
	w16 := func(v uint16) { _ = binary.Write(&buf, le, v) }
	w32 := func(v uint32) { _ = binary.Write(&buf, le, v) }
	w64 := func(v uint64) { _ = binary.Write(&buf, le, v) }
	w16(uint16(elf.ET_EXEC))
	w16(uint16(elf.EM_AARCH64))
	w32(uint32(elf.EV_CURRENT))
	w64(e.Entry)
	w64(ehSize) // phoff
	w64(0)      // shoff
	w32(0)      // flags
	w16(ehSize)
	w16(phSize)
	w16(uint16(n))
	w16(0) // shentsize
	w16(0) // shnum
	w16(0) // shstrndx

	for i, s := range e.Segments {
		if s.MemSize < uint64(len(s.Data)) {
			return nil, fmt.Errorf("elfobj: segment %d memsize < filesize", i)
		}
		w32(uint32(elf.PT_LOAD))
		w32(uint32(s.Flags))
		w64(offs[i])
		w64(s.Vaddr)
		w64(s.Vaddr) // paddr
		w64(uint64(len(s.Data)))
		w64(s.MemSize)
		w64(8) // align
	}
	for i, s := range e.Segments {
		for uint64(buf.Len()) < offs[i] {
			buf.WriteByte(0)
		}
		buf.Write(s.Data)
	}
	return buf.Bytes(), nil
}

// Unmarshal parses an ELF binary produced by Marshal (or any simple
// static AArch64 ELF executable).
func Unmarshal(b []byte) (*Executable, error) {
	f, err := elf.NewFile(bytes.NewReader(b))
	if err != nil {
		return nil, fmt.Errorf("elfobj: %w", err)
	}
	defer f.Close()
	if f.Machine != elf.EM_AARCH64 {
		return nil, fmt.Errorf("elfobj: not an AArch64 binary (machine %v)", f.Machine)
	}
	if f.Type != elf.ET_EXEC {
		return nil, fmt.Errorf("elfobj: not an executable (type %v)", f.Type)
	}
	e := &Executable{Entry: f.Entry}
	for _, p := range f.Progs {
		if p.Type != elf.PT_LOAD {
			continue
		}
		var data []byte
		if p.Filesz > 0 {
			data = make([]byte, p.Filesz)
			if _, err := p.ReadAt(data, 0); err != nil {
				return nil, fmt.Errorf("elfobj: reading segment: %w", err)
			}
		}
		e.Segments = append(e.Segments, Segment{
			Vaddr:   p.Vaddr,
			Data:    data,
			MemSize: p.Memsz,
			Flags:   p.Flags,
		})
	}
	if len(e.Segments) == 0 {
		return nil, fmt.Errorf("elfobj: no loadable segments")
	}
	return e, nil
}

// TextSegment returns the executable segment (there must be exactly one).
func (e *Executable) TextSegment() (*Segment, error) {
	var text *Segment
	for i := range e.Segments {
		if e.Segments[i].Flags&elf.PF_X != 0 {
			if text != nil {
				return nil, fmt.Errorf("elfobj: multiple executable segments")
			}
			text = &e.Segments[i]
		}
	}
	if text == nil {
		return nil, fmt.Errorf("elfobj: no executable segment")
	}
	return text, nil
}
