// Package mem provides a sparse 48-bit virtual address space with
// page-granular permissions. It is the memory substrate underneath the
// emulated CPU: sandbox slots, guard regions, and the runtime's own
// mappings all live in one AddrSpace, exactly as LFI packs tens of
// thousands of sandboxes into a single hardware address space.
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Perm is a page permission bitmask.
type Perm uint8

const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec

	PermNone Perm = 0
	PermRW        = PermRead | PermWrite
	PermRX        = PermRead | PermExec
)

func (p Perm) String() string {
	b := []byte("---")
	if p&PermRead != 0 {
		b[0] = 'r'
	}
	if p&PermWrite != 0 {
		b[1] = 'w'
	}
	if p&PermExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Access identifies the kind of memory access that faulted.
type Access uint8

const (
	AccessRead Access = iota
	AccessWrite
	AccessExec
)

func (a Access) String() string {
	switch a {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	default:
		return "exec"
	}
}

// accessPerm is the permission each kind of access needs.
var accessPerm = [...]Perm{AccessRead: PermRead, AccessWrite: PermWrite, AccessExec: PermExec}

// Fault describes a memory access violation. It plays the role of a
// hardware exception: the emulator converts it into a trap that kills the
// offending sandbox.
type Fault struct {
	Addr   uint64
	Access Access
	Size   int
}

func (f *Fault) Error() string {
	return fmt.Sprintf("mem: fault: %s of %d bytes at %#x", f.Access, f.Size, f.Addr)
}

// AddrWidth is the usable virtual address width (48-bit usermode space, as
// on typical ARM64 machines; the paper's sandbox count derives from it).
const AddrWidth = 48

// MaxAddr is the first address beyond the usable address space.
const MaxAddr = uint64(1) << AddrWidth

// page is one mapped page. data == nil means demand-zero: the page reads
// as zeros and gets its backing store on first access (materialized in
// lookup/WriteForce). Fresh stacks and sparse heaps therefore cost
// nothing to map, copy (fork), snapshot, or restore until touched.
type page struct {
	perm Perm
	data []byte
}

// AddrSpace is a sparse page-mapped address space.
type AddrSpace struct {
	pageSize  uint64
	pageShift uint
	pages     map[uint64]*page

	// Direct-mapped lookup caches, one per Access kind. An entry holds a
	// page that grants its kind's permission, so a hit needs neither the
	// page map nor a permission check. invalidate drops every entry.
	cache [AccessExec + 1][lookupCacheSize]cachedPage

	// epoch counts mapping mutations (Map/Unmap/Protect/CopyRange/
	// RestoreRange). External caches keyed on page identity — the
	// emulator's decoded-block and translation caches — revalidate by
	// comparing epochs instead of being flushed explicitly.
	epoch uint64
}

// cachedPage is one lookup cache entry; valid iff pg != nil (page index 0
// is a real page).
type cachedPage struct {
	idx uint64
	pg  *page
}

const (
	// lookupCacheSize is the number of entries per lookup cache: a few
	// pages for each of a handful of co-scheduled sandboxes, and still a
	// 3KiB clear in invalidate.
	lookupCacheSize = 64
	// lookupSlotStride displaces each 4GiB slot's pages in the cache, so
	// two sandboxes touching the same in-slot page (a ring pair's
	// buffers, a fork's stacks) hit different entries: lookupCacheSize
	// over the golden ratio, odd, which keeps consecutive slots distinct
	// and well separated.
	lookupSlotStride = 39
)

// NewAddrSpace creates an empty address space with the given page size
// (must be a power of two; 0 selects 16KiB, the Apple ARM64 page size).
func NewAddrSpace(pageSize uint64) *AddrSpace {
	if pageSize == 0 {
		pageSize = 16 * 1024
	}
	if pageSize&(pageSize-1) != 0 {
		panic("mem: page size must be a power of two")
	}
	shift := uint(0)
	for s := pageSize; s > 1; s >>= 1 {
		shift++
	}
	return &AddrSpace{
		pageSize:  pageSize,
		pageShift: shift,
		pages:     make(map[uint64]*page),
	}
}

// PageSize returns the page size in bytes.
func (as *AddrSpace) PageSize() uint64 { return as.pageSize }

func (as *AddrSpace) invalidate() {
	as.cache = [len(as.cache)][lookupCacheSize]cachedPage{}
	as.epoch++
}

// Epoch returns the mapping-mutation counter. Any Map, Unmap, UnmapRange,
// Protect, CopyRange, or RestoreRange bumps it, as does WriteForce — the
// host-side escape hatch that can rewrite text in place under a read/exec
// mapping. Sandbox-initiated page *contents* changes (ordinary stores) do
// not: sandboxed code cannot write executable pages, so they cannot
// invalidate decoded text. A cache of page translations or decoded text is
// coherent as long as the epoch it was filled under is still current.
func (as *AddrSpace) Epoch() uint64 { return as.epoch }

// PageSlice returns the backing bytes of the mapped page containing addr,
// provided the page grants acc, materializing demand-zero pages. The slice
// aliases the page (writes through it are visible to all readers) and stays
// valid until the next epoch bump, so callers may cache it keyed by page
// index while Epoch() is unchanged.
func (as *AddrSpace) PageSlice(addr uint64, acc Access) ([]byte, *Fault) {
	pg, f := as.lookup(addr, acc)
	if f != nil {
		return nil, f
	}
	return pg.data, nil
}

func (as *AddrSpace) aligned(addr, size uint64) error {
	if addr%as.pageSize != 0 {
		return fmt.Errorf("mem: address %#x not page aligned", addr)
	}
	if size == 0 || size%as.pageSize != 0 {
		return fmt.Errorf("mem: size %#x not a positive page multiple", size)
	}
	if addr >= MaxAddr || addr+size > MaxAddr || addr+size < addr {
		return fmt.Errorf("mem: range [%#x, %#x) outside the %d-bit address space", addr, addr+size, AddrWidth)
	}
	return nil
}

// Map creates pages over [addr, addr+size) with the given permissions.
// Mapping over an existing page fails.
func (as *AddrSpace) Map(addr, size uint64, perm Perm) error {
	return as.mapPages(addr, size, perm, true)
}

// MapZero is Map with demand-zero pages: each gets its backing store on
// first access, like the zero pages of a restored snapshot. It is the call
// for a mapping that stays mostly untouched — an 8MiB stack of which a
// process uses a few pages — which then costs its page table entries and
// nothing else to map, fork, snapshot or release.
func (as *AddrSpace) MapZero(addr, size uint64, perm Perm) error {
	return as.mapPages(addr, size, perm, false)
}

func (as *AddrSpace) mapPages(addr, size uint64, perm Perm, commit bool) error {
	if err := as.aligned(addr, size); err != nil {
		return err
	}
	first := addr >> as.pageShift
	n := size >> as.pageShift
	for i := uint64(0); i < n; i++ {
		if _, ok := as.pages[first+i]; ok {
			return fmt.Errorf("mem: page %#x already mapped", (first+i)<<as.pageShift)
		}
	}
	// A committed mapping is backed by one slab, sliced per page, so the
	// per-page allocation and 16KiB zeroing that first-touch
	// materialization does inside the emulator's load/store path happen
	// here instead, attributable to the map call that created the mapping
	// rather than to whatever emulated instruction touched the page first.
	var slab []byte
	if commit {
		slab = make([]byte, size)
	}
	for i := uint64(0); i < n; i++ {
		pg := &page{perm: perm}
		if commit {
			pg.data = slab[i<<as.pageShift : (i+1)<<as.pageShift : (i+1)<<as.pageShift]
		}
		as.pages[first+i] = pg
	}
	as.invalidate()
	return nil
}

// Unmap removes pages over [addr, addr+size). Unmapped pages are skipped.
func (as *AddrSpace) Unmap(addr, size uint64) error {
	if err := as.aligned(addr, size); err != nil {
		return err
	}
	first := addr >> as.pageShift
	n := size >> as.pageShift
	for i := uint64(0); i < n; i++ {
		delete(as.pages, first+i)
	}
	as.invalidate()
	return nil
}

// UnmapRange unmaps every mapped page in [addr, addr+size) with a single
// pass over the page table. Unlike Unmap it does not probe each page
// index in the range, so it is the right call for sparse ranges — e.g.
// releasing a whole 4GiB sandbox slot of which only a few hundred pages
// were ever mapped.
func (as *AddrSpace) UnmapRange(addr, size uint64) error {
	if err := as.aligned(addr, size); err != nil {
		return err
	}
	first := addr >> as.pageShift
	last := (addr + size) >> as.pageShift
	for idx := range as.pages {
		if idx >= first && idx < last {
			delete(as.pages, idx)
		}
	}
	as.invalidate()
	return nil
}

// Protect changes permissions over [addr, addr+size). All pages must be
// mapped.
func (as *AddrSpace) Protect(addr, size uint64, perm Perm) error {
	if err := as.aligned(addr, size); err != nil {
		return err
	}
	first := addr >> as.pageShift
	n := size >> as.pageShift
	for i := uint64(0); i < n; i++ {
		if _, ok := as.pages[first+i]; !ok {
			return fmt.Errorf("mem: page %#x not mapped", (first+i)<<as.pageShift)
		}
	}
	for i := uint64(0); i < n; i++ {
		as.pages[first+i].perm = perm
	}
	as.invalidate()
	return nil
}

// Mapped reports whether every page of [addr, addr+size) is mapped with at
// least the given permissions.
func (as *AddrSpace) Mapped(addr, size uint64, perm Perm) bool {
	if size == 0 {
		return true
	}
	first := addr >> as.pageShift
	last := (addr + size - 1) >> as.pageShift
	for i := first; i <= last; i++ {
		pg, ok := as.pages[i]
		if !ok || pg.perm&perm != perm {
			return false
		}
	}
	return true
}

// MappedBytes returns the total number of mapped bytes.
func (as *AddrSpace) MappedBytes() uint64 {
	return uint64(len(as.pages)) << as.pageShift
}

func (as *AddrSpace) lookup(addr uint64, acc Access) (*page, *Fault) {
	idx := addr >> as.pageShift
	cache := &as.cache[acc][(idx+(addr>>32)*lookupSlotStride)&(lookupCacheSize-1)]
	if cache.idx == idx && cache.pg != nil {
		return cache.pg, nil
	}
	pg, ok := as.pages[idx]
	if !ok || pg.perm&accessPerm[acc] == 0 {
		return nil, &Fault{Addr: addr, Access: acc, Size: 1}
	}
	if pg.data == nil {
		pg.data = make([]byte, as.pageSize) // first touch materializes
	}
	cache.idx, cache.pg = idx, pg
	return pg, nil
}

// ReadAt copies len(b) bytes from addr, honoring read permissions.
func (as *AddrSpace) ReadAt(b []byte, addr uint64) *Fault {
	for len(b) > 0 {
		pg, f := as.lookup(addr, AccessRead)
		if f != nil {
			f.Size = len(b)
			return f
		}
		n := copy(b, pg.data[addr&(as.pageSize-1):])
		b = b[n:]
		addr += uint64(n)
	}
	return nil
}

// WriteAt copies b to addr, honoring write permissions.
func (as *AddrSpace) WriteAt(b []byte, addr uint64) *Fault {
	for len(b) > 0 {
		pg, f := as.lookup(addr, AccessWrite)
		if f != nil {
			f.Size = len(b)
			return f
		}
		n := copy(pg.data[addr&(as.pageSize-1):], b)
		b = b[n:]
		addr += uint64(n)
	}
	return nil
}

// WriteForce copies b to addr ignoring permissions (loader use only; the
// pages must exist). Because it can rewrite pages mapped read/exec — the
// one way text changes without a mapping mutation — it bumps the epoch so
// decoded-block caches and chain links built over the old bytes are
// dropped.
func (as *AddrSpace) WriteForce(b []byte, addr uint64) *Fault {
	defer as.invalidate()
	for len(b) > 0 {
		idx := addr >> as.pageShift
		pg, ok := as.pages[idx]
		if !ok {
			return &Fault{Addr: addr, Access: AccessWrite, Size: len(b)}
		}
		if pg.data == nil {
			pg.data = make([]byte, as.pageSize)
		}
		off := addr & (as.pageSize - 1)
		n := copy(pg.data[off:], b)
		b = b[n:]
		addr += uint64(n)
	}
	return nil
}

// Read returns an unsigned little-endian value of size 1, 2, 4, or 8 bytes.
func (as *AddrSpace) Read(addr uint64, size int) (uint64, *Fault) {
	pg, f := as.lookup(addr, AccessRead)
	if f != nil {
		f.Size = size
		return 0, f
	}
	off := addr & (as.pageSize - 1)
	if off+uint64(size) <= as.pageSize {
		d := pg.data[off:]
		switch size {
		case 1:
			return uint64(d[0]), nil
		case 2:
			return uint64(binary.LittleEndian.Uint16(d)), nil
		case 4:
			return uint64(binary.LittleEndian.Uint32(d)), nil
		case 8:
			return binary.LittleEndian.Uint64(d), nil
		}
	}
	// Crosses a page boundary (or odd size): slow path.
	var buf [8]byte
	if f := as.ReadAt(buf[:size], addr); f != nil {
		return 0, f
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// Write stores an unsigned little-endian value of size 1, 2, 4, or 8 bytes.
func (as *AddrSpace) Write(addr uint64, v uint64, size int) *Fault {
	pg, f := as.lookup(addr, AccessWrite)
	if f != nil {
		f.Size = size
		return f
	}
	off := addr & (as.pageSize - 1)
	if off+uint64(size) <= as.pageSize {
		d := pg.data[off:]
		switch size {
		case 1:
			d[0] = byte(v)
			return nil
		case 2:
			binary.LittleEndian.PutUint16(d, uint16(v))
			return nil
		case 4:
			binary.LittleEndian.PutUint32(d, uint32(v))
			return nil
		case 8:
			binary.LittleEndian.PutUint64(d, v)
			return nil
		}
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return as.WriteAt(buf[:size], addr)
}

// Fetch32 reads a 4-byte instruction word, honoring execute permission.
func (as *AddrSpace) Fetch32(addr uint64) (uint32, *Fault) {
	pg, f := as.lookup(addr, AccessExec)
	if f != nil {
		f.Size = 4
		return 0, f
	}
	off := addr & (as.pageSize - 1)
	if off+4 <= as.pageSize {
		return binary.LittleEndian.Uint32(pg.data[off:]), nil
	}
	return 0, &Fault{Addr: addr, Access: AccessExec, Size: 4}
}

// CopyRange copies size bytes of mapped content (and permissions) from
// srcBase to dstBase, mapping destination pages as needed. It implements
// the memory side of single-address-space fork: unmapped source pages stay
// unmapped at the destination.
func (as *AddrSpace) CopyRange(srcBase, dstBase, size uint64) error {
	if err := as.aligned(srcBase, size); err != nil {
		return err
	}
	if err := as.aligned(dstBase, size); err != nil {
		return err
	}
	n := size >> as.pageShift
	src := srcBase >> as.pageShift
	dst := dstBase >> as.pageShift
	for i := uint64(0); i < n; i++ {
		spg, ok := as.pages[src+i]
		if !ok {
			continue
		}
		if _, ok := as.pages[dst+i]; ok {
			return fmt.Errorf("mem: destination page %#x already mapped", (dst+i)<<as.pageShift)
		}
		npg := &page{perm: spg.perm}
		if spg.data != nil {
			npg.data = append([]byte(nil), spg.data...)
		}
		as.pages[dst+i] = npg
	}
	as.invalidate()
	return nil
}

// PageImage is one saved page of a snapshot: its offset from the snapshot
// base, its permissions, and its contents. Data is nil for an all-zero
// page, so snapshots of mostly-untouched sandboxes (fresh stacks, sparse
// heaps) stay small and restore without copying.
type PageImage struct {
	Off  uint64
	Perm Perm
	Data []byte
}

// SnapshotRange copies out every mapped page in [base, base+size) as a
// base-relative PageImage list. The result shares nothing with the address
// space: it is immutable and may be restored concurrently into other
// AddrSpaces (the memory half of sandbox snapshot/restore, which reuses
// the same single-address-space copy idea as fork).
func (as *AddrSpace) SnapshotRange(base, size uint64) ([]PageImage, error) {
	if err := as.aligned(base, size); err != nil {
		return nil, err
	}
	first := base >> as.pageShift
	n := size >> as.pageShift
	var out []PageImage
	for i := uint64(0); i < n; i++ {
		pg, ok := as.pages[first+i]
		if !ok {
			continue
		}
		pi := PageImage{Off: i << as.pageShift, Perm: pg.perm}
		if pg.data != nil && !allZero(pg.data) {
			pi.Data = append([]byte(nil), pg.data...)
		}
		out = append(out, pi)
	}
	return out, nil
}

// RestoreRange maps the snapshot's pages at base and fills their contents.
// The target pages must be unmapped; on error the address space may hold a
// partial restore (callers unmap the whole range to recover).
func (as *AddrSpace) RestoreRange(base uint64, pages []PageImage) error {
	if base%as.pageSize != 0 {
		return fmt.Errorf("mem: restore base %#x not page aligned", base)
	}
	for i := range pages {
		pi := &pages[i]
		addr := base + pi.Off
		if pi.Off%as.pageSize != 0 || addr >= MaxAddr {
			return fmt.Errorf("mem: bad snapshot page offset %#x", pi.Off)
		}
		idx := addr >> as.pageShift
		if _, ok := as.pages[idx]; ok {
			return fmt.Errorf("mem: restore target page %#x already mapped", addr)
		}
		npg := &page{perm: pi.Perm} // zero pages restore demand-zero
		if pi.Data != nil {
			npg.data = make([]byte, as.pageSize)
			copy(npg.data, pi.Data)
		}
		as.pages[idx] = npg
	}
	as.invalidate()
	return nil
}

func allZero(b []byte) bool {
	for len(b) >= 8 {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
		b = b[8:]
	}
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// Region describes one contiguous run of identically-permissioned pages.
type Region struct {
	Addr uint64
	Size uint64
	Perm Perm
}

// Regions returns the mapped regions in address order, coalescing adjacent
// pages with equal permissions. Useful for debugging and tests.
func (as *AddrSpace) Regions() []Region {
	idxs := make([]uint64, 0, len(as.pages))
	for idx := range as.pages {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	var out []Region
	for _, idx := range idxs {
		pg := as.pages[idx]
		addr := idx << as.pageShift
		if n := len(out); n > 0 && out[n-1].Addr+out[n-1].Size == addr && out[n-1].Perm == pg.perm {
			out[n-1].Size += as.pageSize
			continue
		}
		out = append(out, Region{Addr: addr, Size: as.pageSize, Perm: pg.perm})
	}
	return out
}
