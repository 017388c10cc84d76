// Package mem provides a sparse 48-bit virtual address space with
// page-granular permissions. It is the memory substrate underneath the
// emulated CPU: sandbox slots, guard regions, and the runtime's own
// mappings all live in one AddrSpace, exactly as LFI packs tens of
// thousands of sandboxes into a single hardware address space.
package mem

import (
	"encoding/binary"
	"fmt"
	"slices"
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

// page is one mapped page, in one of three states:
//
//	demand-zero  data == nil            reads as zeros, owns no bytes
//	aliased      data != nil, shared    data is a Snapshot's backing (or a
//	                                    fork sibling's page): read in place
//	private      data != nil, !shared   data belongs to this page alone
//
// The sharing invariant: bytes reachable from a Snapshot are never written
// after Snapshot returns; a page whose bytes are shared grants no path —
// lookup(…, AccessWrite), PageSlice(…, AccessWrite), WriteAt, Write,
// WriteForce — that yields those bytes writable; the page gets private
// bytes first.
//
// It holds because first touch decides a page's bytes for good: lookup
// gives a demand-zero page zeros and a shared page *with* write permission
// a private copy before anyone sees a slice of it; a shared page without
// write permission (text, rodata, the call table) is served in place and
// only WriteForce can write it, which privatizes first. Nothing can hold a
// slice of an untouched page, so first touch needs no epoch bump.
type page struct {
	perm   Perm
	shared bool
	data   []byte
}

// extent is a run of consecutively mapped pages inside one 4GiB slot.
type extent struct {
	first uint64 // page index of pages[0]
	pages []page
}

// AddrSpace is a sparse page-mapped address space.
type AddrSpace struct {
	pageSize  uint64
	pageShift uint
	slotShift uint // page index >> slotShift = 4GiB slot number

	// slots is the page table: per slot, its extents sorted and disjoint.
	// Snapshot, restore, fork and release walk one slot's extents, so they
	// cost that sandbox's pages however many other sandboxes are mapped.
	slots map[uint64][]extent

	// free holds the private buffers of unmapped pages, at most freePages,
	// for the next first touch or fork copy: a sandbox restored, run and
	// released in a loop allocates no page. No shared buffer enters it.
	free [][]byte

	// Direct-mapped lookup caches, one per Access kind. An entry holds a
	// page that grants its kind's permission and already has its bytes, so
	// a hit needs neither the page table nor a permission check.
	// invalidate drops every entry.
	cache [AccessExec + 1][lookupCacheSize]cachedPage

	// epoch counts mapping mutations (Map/Unmap/CopyRange/RestoreRange),
	// WriteForce and SnapshotRange. External caches keyed on page identity
	// — the emulator's decoded-block and translation caches — revalidate
	// by comparing epochs instead of being flushed explicitly.
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
	// freePages caps the free list (1MiB at the default page size): a
	// serving job dirties a handful of pages; the surplus of a large
	// sandbox goes to the collector.
	freePages = 64
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
		slotShift: 32 - shift,
		slots:     make(map[uint64][]extent),
	}
}

// PageSize returns the page size in bytes.
func (as *AddrSpace) PageSize() uint64 { return as.pageSize }

func (as *AddrSpace) invalidate() {
	as.cache = [len(as.cache)][lookupCacheSize]cachedPage{}
	as.epoch++
}

// Epoch returns the mapping-mutation counter. Any Map, MapZero, Unmap,
// CopyRange, or RestoreRange bumps it, as do WriteForce — the host-side
// escape hatch that can rewrite text in place under a read/exec mapping —
// and SnapshotRange, which turns the pages it saves into shared ones.
// Sandbox-initiated page *contents* changes (ordinary stores) do not:
// sandboxed code cannot write executable pages, so they cannot invalidate
// decoded text. Nor does first touch: no slice of an untouched page exists
// to go stale. A cache of page translations or decoded text is coherent as
// long as the epoch it was filled under is still current.
func (as *AddrSpace) Epoch() uint64 { return as.epoch }

// PageSlice returns the backing bytes of the mapped page containing addr,
// provided the page grants acc, giving the page its bytes on first touch.
// The slice aliases the page (writes through it are visible to all readers)
// and stays valid until the next epoch bump, so callers may cache it keyed
// by page index while Epoch() is unchanged. A slice obtained for
// AccessWrite is never a shared backing (see page).
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
	// A committed mapping is backed by one slab, sliced per page, so the
	// per-page allocation and 16KiB zeroing that first-touch
	// materialization does inside the emulator's load/store path happen
	// here instead, attributable to the map call that created the mapping
	// rather than to whatever emulated instruction touched the page first.
	var slab []byte
	if commit {
		slab = make([]byte, size)
	}
	pages := make([]page, size>>as.pageShift)
	for i := range pages {
		pages[i].perm = perm
		if commit {
			pages[i].data, slab = slab[:as.pageSize:as.pageSize], slab[as.pageSize:]
		}
	}
	as.invalidate()
	return as.install(addr>>as.pageShift, pages)
}

// touching returns the position of the first extent that ends beyond page
// index idx: the one holding idx if it is mapped, else the place an extent
// starting at idx belongs.
func touching(exts []extent, idx uint64) int {
	lo, hi := 0, len(exts)
	for lo < hi {
		m := (lo + hi) / 2
		if exts[m].first+uint64(len(exts[m].pages)) > idx {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// find returns the page with index idx, or nil if it is unmapped.
func (as *AddrSpace) find(idx uint64) *page {
	exts := as.slots[idx>>as.slotShift]
	if i := touching(exts, idx); i < len(exts) && exts[i].first <= idx {
		return &exts[i].pages[idx-exts[i].first]
	}
	return nil
}

// slotEnd clips the page range [first, last) to first's slot.
func (as *AddrSpace) slotEnd(first, last uint64) uint64 {
	return min(last, (first>>as.slotShift+1)<<as.slotShift)
}

// walk calls f, in address order, with every run of mapped pages in the
// page range [first, last); idx is the index of pages[0]. f must not map
// or unmap.
func (as *AddrSpace) walk(first, last uint64, f func(idx uint64, pages []page)) {
	for first < last {
		end := as.slotEnd(first, last)
		exts := as.slots[first>>as.slotShift]
		for i := touching(exts, first); i < len(exts) && exts[i].first < end; i++ {
			e := exts[i]
			lo, hi := max(first, e.first), min(end, e.first+uint64(len(e.pages)))
			f(lo, e.pages[lo-e.first:hi-e.first])
		}
		first = end
	}
}

// firstMapped returns the lowest mapped page index in [first, last).
func (as *AddrSpace) firstMapped(first, last uint64) (idx uint64, ok bool) {
	as.walk(first, last, func(i uint64, _ []page) {
		if !ok {
			idx, ok = i, true
		}
	})
	return idx, ok
}

// install enters pages into the page table at page index first, one extent
// per slot touched. It fails, entering nothing, if a target page is mapped.
func (as *AddrSpace) install(first uint64, pages []page) error {
	if idx, ok := as.firstMapped(first, first+uint64(len(pages))); ok {
		return fmt.Errorf("mem: page %#x already mapped", idx<<as.pageShift)
	}
	for len(pages) > 0 {
		n := as.slotEnd(first, first+uint64(len(pages))) - first
		s := first >> as.slotShift
		exts := as.slots[s]
		as.slots[s] = slices.Insert(exts, touching(exts, first), extent{first, pages[:n]})
		first, pages = first+n, pages[n:]
	}
	return nil
}

// Unmap removes the mapped pages of [addr, addr+size); unmapped pages are
// skipped. It visits only the extents the range touches — releasing a whole
// 4GiB sandbox slot costs the pages that sandbox mapped — and hands the
// private buffers it frees to the free list.
func (as *AddrSpace) Unmap(addr, size uint64) error {
	if err := as.aligned(addr, size); err != nil {
		return err
	}
	first := addr >> as.pageShift
	last := first + size>>as.pageShift
	for first < last {
		end := as.slotEnd(first, last)
		s := first >> as.slotShift
		exts := as.slots[s]
		i := touching(exts, first)
		j := i
		var keep []extent // what the range leaves of the extents at its two ends
		for ; j < len(exts) && exts[j].first < end; j++ {
			e := exts[j]
			lo, hi := max(first, e.first)-e.first, min(end, e.first+uint64(len(e.pages)))-e.first
			for k := lo; k < hi; k++ {
				pg := &e.pages[k]
				if pg.data != nil && !pg.shared && len(as.free) < freePages {
					as.free = append(as.free, pg.data)
				}
				*pg = page{} // the slab may outlive this page; its bytes need not
			}
			if lo > 0 {
				keep = append(keep, extent{e.first, e.pages[:lo]})
			}
			if hi < uint64(len(e.pages)) {
				keep = append(keep, extent{e.first + hi, e.pages[hi:]})
			}
		}
		if j > i {
			as.slots[s] = slices.Replace(exts, i, j, keep...)
		}
		first = end
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
		pg := as.find(i)
		if pg == nil || pg.perm&perm != perm {
			return false
		}
	}
	return true
}

// buffer returns a page-sized buffer no other page references, holding
// src's bytes (zeros for a nil src). A recycled buffer is wholly
// overwritten — every src is a page long, RestoreRange checks — or cleared,
// so nothing of its previous owner survives.
func (as *AddrSpace) buffer(src []byte) []byte {
	var b []byte
	if n := len(as.free); n > 0 {
		b, as.free = as.free[n-1], as.free[:n-1]
		if src == nil {
			clear(b)
		}
	} else {
		b = make([]byte, as.pageSize)
	}
	copy(b, src)
	return b
}

func (as *AddrSpace) lookup(addr uint64, acc Access) (*page, *Fault) {
	idx := addr >> as.pageShift
	cache := &as.cache[acc][(idx+(addr>>32)*lookupSlotStride)&(lookupCacheSize-1)]
	if cache.idx == idx && cache.pg != nil {
		return cache.pg, nil
	}
	pg := as.find(idx)
	if pg == nil || pg.perm&accessPerm[acc] == 0 {
		return nil, &Fault{Addr: addr, Access: acc, Size: 1}
	}
	// First touch: zeros for a demand-zero page, a private copy for a
	// shared page that could ever be written — before any slice of it exists.
	if pg.data == nil || pg.shared && pg.perm&PermWrite != 0 {
		pg.data, pg.shared = as.buffer(pg.data), false
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
// pages must exist). A shared page gets private bytes first, whatever its
// permissions. Because it can rewrite pages mapped read/exec — the one way
// text changes without a mapping mutation — it bumps the epoch so
// decoded-block caches and chain links built over the old bytes are
// dropped.
func (as *AddrSpace) WriteForce(b []byte, addr uint64) *Fault {
	defer as.invalidate()
	for len(b) > 0 {
		pg := as.find(addr >> as.pageShift)
		if pg == nil {
			return &Fault{Addr: addr, Access: AccessWrite, Size: len(b)}
		}
		if pg.data == nil || pg.shared {
			pg.data, pg.shared = as.buffer(pg.data), false
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

// CopyRange gives dstBase a copy of the mapped pages (and permissions) of
// [srcBase, srcBase+size): the memory side of single-address-space fork.
// It walks the source's mapped pages only; unmapped source pages stay
// unmapped at the destination and demand-zero pages stay demand-zero. A
// page nobody can write — no write permission, or still aliasing a
// snapshot — is shared by reference; a private writable page is copied.
// On error the destination may hold a partial copy (callers unmap it).
func (as *AddrSpace) CopyRange(srcBase, dstBase, size uint64) error {
	if err := as.aligned(srcBase, size); err != nil {
		return err
	}
	if err := as.aligned(dstBase, size); err != nil {
		return err
	}
	src := srcBase >> as.pageShift
	dst := dstBase >> as.pageShift
	var runs []extent // built first: install may move the extents walk reads
	as.walk(src, src+size>>as.pageShift, func(idx uint64, pages []page) {
		cp := slices.Clone(pages)
		for i := range cp {
			switch pg := &cp[i]; {
			case pg.data == nil:
			case pg.shared || pg.perm&PermWrite == 0:
				pg.shared, pages[i].shared = true, true
			default:
				pg.data = as.buffer(pg.data)
			}
		}
		runs = append(runs, extent{idx - src + dst, cp})
	})
	as.invalidate()
	for _, r := range runs {
		if err := as.install(r.first, r.pages); err != nil {
			return err
		}
	}
	return nil
}

// PageImage is one saved page of a snapshot: its offset from the snapshot
// base, its permissions, and its contents. Data is nil for an all-zero
// page, so snapshots of mostly-untouched sandboxes (fresh stacks, sparse
// heaps) stay small. Data is immutable: restored pages alias it.
type PageImage struct {
	Off  uint64
	Perm Perm
	Data []byte
}

// SnapshotRange saves every mapped page in [base, base+size) as a
// base-relative PageImage list in address order, walking mapped pages
// only. It takes each non-zero page's bytes rather than copying them and
// marks the page shared, so the address space keeps running on them under
// the sharing invariant (a writable page copies itself on its next touch)
// and the result is immutable: it may be restored concurrently into other
// AddrSpaces (the memory half of sandbox snapshot/restore, which reuses
// the same single-address-space copy idea as fork).
func (as *AddrSpace) SnapshotRange(base, size uint64) ([]PageImage, error) {
	if err := as.aligned(base, size); err != nil {
		return nil, err
	}
	first := base >> as.pageShift
	var out []PageImage
	as.walk(first, first+size>>as.pageShift, func(idx uint64, pages []page) {
		for i := range pages {
			pg := &pages[i]
			pi := PageImage{Off: (idx + uint64(i) - first) << as.pageShift, Perm: pg.perm}
			if pg.data != nil && !allZero(pg.data) {
				pi.Data, pg.shared = pg.data, true
			}
			out = append(out, pi)
		}
	})
	// Writable pages that just became shared may be in a write cache.
	as.invalidate()
	return out, nil
}

// RestoreRange maps the snapshot's pages at base by reference: it copies
// no page bytes and allocates one descriptor slab for the whole restore.
// The target pages must be unmapped; on error the address space may hold a
// partial restore (callers unmap the whole range to recover).
func (as *AddrSpace) RestoreRange(base uint64, pages []PageImage) error {
	if base%as.pageSize != 0 {
		return fmt.Errorf("mem: restore base %#x not page aligned", base)
	}
	as.invalidate()
	slab := make([]page, len(pages))
	for i := range pages {
		pi := &pages[i]
		if pi.Off%as.pageSize != 0 || base+pi.Off >= MaxAddr {
			return fmt.Errorf("mem: bad snapshot page offset %#x", pi.Off)
		}
		if pi.Data != nil && uint64(len(pi.Data)) != as.pageSize {
			return fmt.Errorf("mem: snapshot page %#x holds %d bytes, not a page", pi.Off, len(pi.Data))
		}
		slab[i] = page{perm: pi.Perm, shared: pi.Data != nil, data: pi.Data}
	}
	for i := 0; i < len(pages); {
		j := i + 1
		for j < len(pages) && pages[j].Off == pages[j-1].Off+as.pageSize {
			j++
		}
		if err := as.install((base+pages[i].Off)>>as.pageShift, slab[i:j]); err != nil {
			return err
		}
		i = j
	}
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
