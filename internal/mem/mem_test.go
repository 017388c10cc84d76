package mem

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

func TestMapUnmapPerms(t *testing.T) {
	as := NewAddrSpace(0)
	ps := as.PageSize()
	if ps != 16*1024 {
		t.Fatalf("default page size = %d", ps)
	}
	if err := as.Map(0x100000000, 4*ps, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(0x100000000, ps, PermRW); err == nil {
		t.Error("double map must fail")
	}
	if !as.Mapped(0x100000000, 4*ps, PermRead) {
		t.Error("range should be mapped readable")
	}
	if as.Mapped(0x100000000, 4*ps, PermExec) {
		t.Error("range should not be executable")
	}
	remap(t, as, 0x100000000, ps, PermRX)
	if !as.Mapped(0x100000000, ps, PermExec) {
		t.Error("remap to rx failed")
	}
	if err := as.Unmap(0x100000000, 2*ps); err != nil {
		t.Fatal(err)
	}
	if as.Mapped(0x100000000, ps, PermRead) {
		t.Error("unmapped page still readable")
	}
	if !as.Mapped(0x100000000+2*ps, 2*ps, PermRW) {
		t.Error("later pages must remain")
	}
}

// remap changes a range's permissions the only way there is: Unmap + Map.
func remap(t *testing.T, as *AddrSpace, addr, size uint64, perm Perm) {
	t.Helper()
	if err := as.Unmap(addr, size); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(addr, size, perm); err != nil {
		t.Fatal(err)
	}
}

func TestAlignmentErrors(t *testing.T) {
	as := NewAddrSpace(4096)
	if err := as.Map(123, 4096, PermRW); err == nil {
		t.Error("unaligned address must fail")
	}
	if err := as.Map(4096, 100, PermRW); err == nil {
		t.Error("unaligned size must fail")
	}
	if err := as.Map(MaxAddr, 4096, PermRW); err == nil {
		t.Error("out-of-space address must fail")
	}
	if err := as.Map(MaxAddr-4096, 8192, PermRW); err == nil {
		t.Error("range extending past MaxAddr must fail")
	}
}

func TestReadWriteSizes(t *testing.T) {
	as := NewAddrSpace(4096)
	base := uint64(0x2000)
	if err := as.Map(base, 8192, PermRW); err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, 2, 4, 8} {
		v := uint64(0x1122334455667788) & (1<<(8*size) - 1)
		if f := as.Write(base+64, v, size); f != nil {
			t.Fatalf("write size %d: %v", size, f)
		}
		got, f := as.Read(base+64, size)
		if f != nil || got != v {
			t.Fatalf("read size %d: %#x (%v), want %#x", size, got, f, v)
		}
	}
	// Cross-page access.
	split := base + 4096 - 3
	if f := as.Write(split, 0xaabbccdd11223344, 8); f != nil {
		t.Fatal(f)
	}
	got, f := as.Read(split, 8)
	if f != nil || got != 0xaabbccdd11223344 {
		t.Fatalf("cross-page read = %#x (%v)", got, f)
	}
}

func TestPermissionFaults(t *testing.T) {
	as := NewAddrSpace(4096)
	if err := as.Map(0x1000, 4096, PermRead); err != nil {
		t.Fatal(err)
	}
	if _, f := as.Read(0x1000, 8); f != nil {
		t.Errorf("read of readable page: %v", f)
	}
	f := as.Write(0x1000, 1, 8)
	if f == nil || f.Access != AccessWrite {
		t.Errorf("write to read-only page: %v", f)
	}
	if _, f := as.Fetch32(0x1000); f == nil || f.Access != AccessExec {
		t.Error("fetch from non-exec page must fault")
	}
	if _, f := as.Read(0x0, 8); f == nil {
		t.Error("read of unmapped page must fault")
	}
	remap(t, as, 0x1000, 4096, PermRX)
	if _, f := as.Fetch32(0x1000); f != nil {
		t.Errorf("fetch from rx page: %v", f)
	}
	// Fault error text is meaningful.
	if f := as.Write(0x1000, 1, 4); f == nil || f.Error() == "" {
		t.Error("fault must describe itself")
	}
}

func TestCacheInvalidation(t *testing.T) {
	as := NewAddrSpace(4096)
	if err := as.Map(0x1000, 4096, PermRW); err != nil {
		t.Fatal(err)
	}
	if f := as.Write(0x1000, 42, 8); f != nil {
		t.Fatal(f)
	}
	// Prime the read cache, then revoke and check the fault is seen.
	if _, f := as.Read(0x1000, 8); f != nil {
		t.Fatal(f)
	}
	remap(t, as, 0x1000, 4096, PermNone)
	if _, f := as.Read(0x1000, 8); f == nil {
		t.Error("stale cache: read succeeded after remap to none")
	}
	if err := as.Unmap(0x1000, 4096); err != nil {
		t.Fatal(err)
	}
	if f := as.Write(0x1000, 1, 1); f == nil {
		t.Error("stale cache: write succeeded after unmap")
	}
}

func TestWriteForceAndReadAt(t *testing.T) {
	as := NewAddrSpace(4096)
	if err := as.Map(0x1000, 8192, PermRead); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 5000) // crosses a page boundary
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	if f := as.WriteForce(payload, 0x1800); f != nil {
		t.Fatal(f)
	}
	got := make([]byte, 5000)
	if f := as.ReadAt(got, 0x1800); f != nil {
		t.Fatal(f)
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], payload[i])
		}
	}
	if f := as.WriteForce([]byte{1}, 0x100000); f == nil {
		t.Error("WriteForce to unmapped page must fail")
	}
}

func TestCopyRangeFork(t *testing.T) {
	as := NewAddrSpace(4096)
	src := uint64(0x100000)
	dst := uint64(0x200000)
	if err := as.Map(src, 4096, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(src+8192, 4096, PermRX); err != nil {
		t.Fatal(err)
	}
	if f := as.Write(src+8, 0xdead, 8); f != nil {
		t.Fatal(f)
	}
	if err := as.CopyRange(src, dst, 3*4096); err != nil {
		t.Fatal(err)
	}
	got, f := as.Read(dst+8, 8)
	if f != nil || got != 0xdead {
		t.Fatalf("copied value = %#x (%v)", got, f)
	}
	// Hole stays a hole; permissions carry over.
	if as.Mapped(dst+4096, 4096, PermRead) {
		t.Error("hole was mapped")
	}
	if !as.Mapped(dst+8192, 4096, PermExec) {
		t.Error("rx page lost exec permission")
	}
	// Writes to the copy do not affect the original.
	if f := as.Write(dst+8, 1, 8); f != nil {
		t.Fatal(f)
	}
	got, _ = as.Read(src+8, 8)
	if got != 0xdead {
		t.Error("copy aliases the original")
	}
}

func TestPermString(t *testing.T) {
	if PermRW.String() != "rw-" || PermRX.String() != "r-x" || PermNone.String() != "---" {
		t.Error("Perm.String broken")
	}
}

// Property: a write followed by a read at the same address and size always
// returns the written value (masked to size), for arbitrary in-range
// offsets.
func TestReadAfterWriteQuick(t *testing.T) {
	as := NewAddrSpace(4096)
	base := uint64(0x40000)
	if err := as.Map(base, 64*1024, PermRW); err != nil {
		t.Fatal(err)
	}
	f := func(off uint16, v uint64, szSel uint8) bool {
		size := []int{1, 2, 4, 8}[szSel%4]
		addr := base + uint64(off)%((64*1024)-8)
		if fa := as.Write(addr, v, size); fa != nil {
			return false
		}
		got, fa := as.Read(addr, size)
		if fa != nil {
			return false
		}
		mask := ^uint64(0)
		if size < 8 {
			mask = 1<<(8*size) - 1
		}
		return got == v&mask
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSnapshotRestoreRange(t *testing.T) {
	as := NewAddrSpace(4096)
	base := uint64(0x100000)
	if err := as.Map(base, 4*4096, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(base+6*4096, 4096, PermRX); err != nil {
		t.Fatal(err)
	}
	// Dirty pages 0 and 6; page 1..3 stay zero.
	as.WriteAt([]byte("hello"), base+16)
	as.WriteForce([]byte{0xde, 0xad}, base+6*4096+8)

	snap, err := as.SnapshotRange(base, 8*4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 5 {
		t.Fatalf("snapshot has %d pages, want 5 (4 rw + 1 rx)", len(snap))
	}
	zeros, dirty := 0, 0
	for _, pi := range snap {
		if pi.Data == nil {
			zeros++
		} else {
			dirty++
		}
	}
	if dirty != 2 || zeros != 3 {
		t.Errorf("dirty/zero = %d/%d, want 2/3", dirty, zeros)
	}

	// Restore into a different address space at a different base.
	as2 := NewAddrSpace(4096)
	nbase := uint64(0x900000)
	if err := as2.RestoreRange(nbase, snap); err != nil {
		t.Fatal(err)
	}
	var buf [5]byte
	if f := as2.ReadAt(buf[:], nbase+16); f != nil {
		t.Fatalf("read after restore: %v", f)
	}
	if string(buf[:]) != "hello" {
		t.Errorf("restored data = %q", buf[:])
	}
	if !as2.Mapped(nbase+6*4096, 4096, PermExec) {
		t.Error("rx page lost its permissions across restore")
	}
	if as2.Mapped(nbase+4*4096, 4096, PermRead) {
		t.Error("unmapped hole was restored as mapped")
	}
	// Snapshot immutability: scribbling on the restored copy must not
	// affect a second restore.
	as2.WriteAt([]byte("XXXXX"), nbase+16)
	as3 := NewAddrSpace(4096)
	if err := as3.RestoreRange(0, snap); err != nil {
		t.Fatal(err)
	}
	if f := as3.ReadAt(buf[:], 16); f != nil {
		t.Fatal(f)
	}
	if string(buf[:]) != "hello" {
		t.Errorf("snapshot mutated by restore: %q", buf[:])
	}

	// Restoring over an existing mapping must fail.
	if err := as2.RestoreRange(nbase, snap); err == nil {
		t.Error("restore over mapped pages succeeded")
	}
}

// TestLookupCacheAcrossSlots drives the direct-mapped lookup caches the
// way a sandbox pair drives them: the same in-slot page in two 4GiB
// slots, plus a page whose index collides with the first in the cache.
// Every access must reach its own page, and a permission change must be
// seen through entries primed before it.
func TestLookupCacheAcrossSlots(t *testing.T) {
	as := NewAddrSpace(16384)
	const off = 0x40000
	pages := []uint64{
		1<<32 | off,
		2<<32 | off,
		1<<32 | off + lookupCacheSize*16384, // same cache entry as the first
	}
	for i, a := range pages {
		if err := as.Map(a, 16384, PermRW); err != nil {
			t.Fatal(err)
		}
		if f := as.Write(a, uint64(i+1), 8); f != nil {
			t.Fatal(f)
		}
	}
	for round := 0; round < 3; round++ {
		for i, a := range pages {
			if v, f := as.Read(a, 8); f != nil || v != uint64(i+1) {
				t.Fatalf("round %d: read %#x = %d, %v; want %d", round, a, v, f, i+1)
			}
		}
	}
	remap(t, as, pages[1], 16384, PermRead)
	if f := as.Write(pages[1], 9, 8); f == nil {
		t.Error("stale cache: write succeeded after remap to read-only")
	}
	if f := as.Write(pages[0], 9, 8); f != nil {
		t.Errorf("write to the untouched slot faulted: %v", f)
	}
}

// TestMapZero checks demand-zero mappings: they read as zeros, accept
// writes, snapshot untouched pages without data, and fork like any other.
func TestMapZero(t *testing.T) {
	as := NewAddrSpace(4096)
	base := uint64(0x100000)
	if err := as.MapZero(base, 4*4096, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := as.MapZero(base, 4096, PermRW); err == nil {
		t.Error("MapZero over a mapped page succeeded")
	}
	if !as.Mapped(base, 4*4096, PermRW) {
		t.Error("demand-zero pages do not count as mapped")
	}
	if v, f := as.Read(base+4096+8, 8); f != nil || v != 0 {
		t.Errorf("untouched page read %d, %v; want 0", v, f)
	}
	if f := as.WriteAt([]byte("hello"), base+2*4096-2); f != nil {
		t.Fatal(f)
	}
	snap, err := as.SnapshotRange(base, 4*4096)
	if err != nil {
		t.Fatal(err)
	}
	dirty := 0
	for _, pi := range snap {
		if pi.Data != nil {
			dirty++
		}
	}
	if len(snap) != 4 || dirty != 2 {
		t.Errorf("snapshot has %d pages, %d with data; want 4 and 2", len(snap), dirty)
	}
	if err := as.CopyRange(base, base+0x100000, 4*4096); err != nil {
		t.Fatal(err)
	}
	var buf [5]byte
	if f := as.ReadAt(buf[:], base+0x100000+2*4096-2); f != nil || string(buf[:]) != "hello" {
		t.Errorf("forked copy reads %q, %v", buf[:], f)
	}
}

// The sharing tests: a Snapshot's bytes are immutable whatever the address
// spaces that alias them do, and a recycled page buffer carries nothing
// from its previous owner. DESIGN.md "Memory: shared backing, private
// pages, the free list" names the clause each one discharges.

// digest hashes a page list: offsets, permissions, nil-ness and bytes.
func digest(pages []PageImage) [sha256.Size]byte {
	h := sha256.New()
	for _, pi := range pages {
		fmt.Fprintf(h, "%#x %v %v\n", pi.Off, pi.Perm, pi.Data == nil)
		h.Write(pi.Data)
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// image builds a snapshot of the given shape in a scratch address space:
// one page per perm, a perm's page filled with fill+i (0 leaves the page
// demand-zero), with a one-page hole after the first page.
func image(t *testing.T, fill byte, perms ...Perm) []PageImage {
	t.Helper()
	as := NewAddrSpace(4096)
	for i, perm := range perms {
		addr := uint64(i) * 4096
		if i > 0 {
			addr += 4096
		}
		if err := as.MapZero(addr, 4096, perm); err != nil {
			t.Fatal(err)
		}
		if fill != 0 {
			if f := as.WriteForce(bytes.Repeat([]byte{fill + byte(i)}, 4096), addr); f != nil {
				t.Fatal(f)
			}
		}
	}
	snap, err := as.SnapshotRange(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// scribble writes v over every writable page of [base, base+size) through
// each write path in turn, and forces it over every other mapped page.
func scribble(t *testing.T, as *AddrSpace, base, size uint64, v byte) {
	t.Helper()
	fill := bytes.Repeat([]byte{v}, int(as.PageSize()))
	for n, addr := 0, base; addr < base+size; n, addr = n+1, addr+as.PageSize() {
		switch {
		case !as.Mapped(addr, 1, PermNone):
		case !as.Mapped(addr, 1, PermWrite):
			if f := as.WriteForce(fill, addr); f != nil {
				t.Fatal(f)
			}
		case n%3 == 0:
			if f := as.WriteAt(fill, addr); f != nil {
				t.Fatal(f)
			}
		case n%3 == 1:
			for off := uint64(0); off < as.PageSize(); off += 8 {
				if f := as.Write(addr+off, uint64(v)*0x0101010101010101, 8); f != nil {
					t.Fatal(f)
				}
			}
		default:
			b, f := as.PageSlice(addr, AccessWrite)
			if f != nil {
				t.Fatal(f)
			}
			copy(b, fill)
		}
	}
}

func TestRecycledPageNoResidue(t *testing.T) {
	as := NewAddrSpace(4096)
	const slot = uint64(1) << 32
	// One tenant dirties more private pages than the free list holds.
	if err := as.MapZero(slot, (freePages+8)*4096, PermRW); err != nil {
		t.Fatal(err)
	}
	scribble(t, as, slot, (freePages+8)*4096, 0xA5)
	if err := as.Unmap(slot, 1<<32); err != nil {
		t.Fatal(err)
	}
	if len(as.free) != freePages {
		t.Fatalf("free list holds %d buffers after release, want the cap %d", len(as.free), freePages)
	}
	// The next tenant's pages come out of that list: restored writable
	// pages by copy, fresh and forked ones besides, until it is drained.
	snap := image(t, 0x10, PermRW, PermRW, PermRead)
	want := map[uint64]byte{0: 0x10, 2 * 4096: 0x11, 3 * 4096: 0x12}
	if err := as.RestoreRange(slot, snap); err != nil {
		t.Fatal(err)
	}
	if err := as.MapZero(slot+0x100000, freePages*4096, PermRW); err != nil {
		t.Fatal(err)
	}
	// A private page for the fork to copy.
	if f := as.WriteAt(bytes.Repeat([]byte{0x77}, 4096), slot+2*4096); f != nil {
		t.Fatal(f)
	}
	want[2*4096] = 0x77
	if err := as.CopyRange(slot, 2*slot, 4*4096); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	check := func(base, off uint64) {
		if f := as.ReadAt(buf, base+off); f != nil {
			t.Fatal(f)
		}
		for i, b := range buf {
			if b != want[off] {
				t.Fatalf("page %#x byte %d reads %#x, want %#x: residue of the previous tenant", base+off, i, b, want[off])
			}
		}
	}
	for _, pi := range snap {
		check(slot, pi.Off)
		check(2*slot, pi.Off)
	}
	for off := uint64(0x100000); len(as.free) > 0; off += 4096 {
		check(slot, off)
	}
}

func TestSharedBackingNeverRecycled(t *testing.T) {
	first := image(t, 0x40, PermRX, PermRW, PermRead)
	want := digest(first)
	as := NewAddrSpace(4096)
	const slot = uint64(1) << 32
	if err := as.RestoreRange(slot, first); err != nil {
		t.Fatal(err)
	}
	if _, f := as.Fetch32(slot); f != nil { // touch only text: aliased in place
		t.Fatal(f)
	}
	if b, f := as.PageSlice(slot, AccessExec); f != nil || &b[0] != &first[0].Data[0] {
		t.Fatalf("text page does not alias the snapshot (fault %v)", f)
	}
	if err := as.CopyRange(slot, 2*slot, 4*4096); err != nil { // a fork shares them on
		t.Fatal(err)
	}
	if err := as.Unmap(slot, 2<<32); err != nil {
		t.Fatal(err)
	}
	for _, b := range as.free {
		for _, pi := range first {
			if pi.Data != nil && &b[0] == &pi.Data[0] {
				t.Fatalf("free list holds the backing of snapshot page %#x", pi.Off)
			}
		}
	}
	// Another image in the same slot, written everywhere by every path.
	if err := as.RestoreRange(slot, image(t, 0x60, PermRW, PermRX, PermRW)); err != nil {
		t.Fatal(err)
	}
	if err := as.MapZero(slot+0x100000, 8*4096, PermRW); err != nil {
		t.Fatal(err)
	}
	scribble(t, as, slot, 0x100000+8*4096, 0xEE)
	// And the first image again, written the same way while it is shared.
	if err := as.RestoreRange(2*slot, first); err != nil {
		t.Fatal(err)
	}
	scribble(t, as, 2*slot, 4*4096, 0xDD)
	if digest(first) != want {
		t.Fatal("snapshot bytes changed under writes to address spaces that shared them")
	}

	// A fork shares a page no snapshot ever held — cold-loaded text — the
	// same way; releasing the parent must not recycle what the child reads.
	text := bytes.Repeat([]byte{0x5A}, 4096)
	if err := as.Map(3*slot, 4096, PermRX); err != nil {
		t.Fatal(err)
	}
	if f := as.WriteForce(text, 3*slot); f != nil {
		t.Fatal(f)
	}
	if err := as.CopyRange(3*slot, 4*slot, 4096); err != nil {
		t.Fatal(err)
	}
	if err := as.Unmap(3*slot, 4096); err != nil {
		t.Fatal(err)
	}
	if err := as.MapZero(3*slot, (freePages+1)*4096, PermRW); err != nil {
		t.Fatal(err)
	}
	scribble(t, as, 3*slot, (freePages+1)*4096, 0xBB)
	got := make([]byte, 4096)
	if f := as.ReadAt(got, 4*slot); f != nil || !bytes.Equal(got, text) {
		t.Fatalf("forked child's text changed after its parent was released (fault %v)", f)
	}
}

func TestSnapshotRoundTripExact(t *testing.T) {
	snap := image(t, 0x20, PermRX, PermRW, PermRead, PermRW)
	snap = append(snap, image(t, 0, PermRW)...) // a demand-zero page, at the hole
	snap[len(snap)-1].Off = 4096
	slices.SortFunc(snap, func(a, b PageImage) int { return cmp.Compare(a.Off, b.Off) })
	want := digest(snap)

	as := NewAddrSpace(4096)
	const slot = uint64(3) << 32
	same := func(what string, base uint64) {
		t.Helper()
		got, err := as.SnapshotRange(base, 1<<32)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(snap) {
			t.Fatalf("%s: %d pages, want %d", what, len(got), len(snap))
		}
		for i, pi := range got {
			w := snap[i]
			if pi.Off != w.Off || pi.Perm != w.Perm || (pi.Data == nil) != (w.Data == nil) || !bytes.Equal(pi.Data, w.Data) {
				t.Errorf("%s: page %d = {%#x %v %d bytes}, want {%#x %v %d bytes}", what, i, pi.Off, pi.Perm, len(pi.Data), w.Off, w.Perm, len(w.Data))
			}
			if pi.Data != nil && &pi.Data[0] != &w.Data[0] {
				t.Errorf("%s: page %#x was copied, want the snapshot's own bytes", what, pi.Off)
			}
		}
	}
	if err := as.RestoreRange(slot, snap); err != nil {
		t.Fatal(err)
	}
	same("fresh restore", slot)
	if err := as.CopyRange(slot, 2*slot, 1<<32); err != nil {
		t.Fatal(err)
	}
	same("forked child", 2*slot)
	same("parent after fork", slot)

	// A touched parent forks a child equal to it, byte for byte, and the
	// two then diverge without either reaching the other or the snapshot.
	if f := as.WriteAt([]byte("parent"), slot+2*4096+100); f != nil {
		t.Fatal(f)
	}
	if err := as.Unmap(2*slot, 1<<32); err != nil {
		t.Fatal(err)
	}
	if err := as.CopyRange(slot, 2*slot, 1<<32); err != nil {
		t.Fatal(err)
	}
	parent, _ := as.SnapshotRange(slot, 1<<32)
	child, _ := as.SnapshotRange(2*slot, 1<<32)
	if digest(parent) != digest(child) || digest(parent) == want {
		t.Error("forked child of a touched parent does not equal the parent")
	}
	scribble(t, as, 2*slot, 8*4096, 0xCC)
	if again, _ := as.SnapshotRange(slot, 1<<32); digest(again) != digest(parent) {
		t.Error("writes to the child reached the parent")
	}
	if digest(snap) != want {
		t.Error("snapshot bytes changed")
	}
}
