package mem

import (
	"testing"
	"testing/quick"
)

func TestMapUnmapProtect(t *testing.T) {
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
	if err := as.Protect(0x100000000, ps, PermRX); err != nil {
		t.Fatal(err)
	}
	if !as.Mapped(0x100000000, ps, PermExec) {
		t.Error("protect to rx failed")
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
	if err := as.Protect(0x1000, 4096, PermRX); err != nil {
		t.Fatal(err)
	}
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
	if err := as.Protect(0x1000, 4096, PermNone); err != nil {
		t.Fatal(err)
	}
	if _, f := as.Read(0x1000, 8); f == nil {
		t.Error("stale cache: read succeeded after protect(none)")
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

func TestRegions(t *testing.T) {
	as := NewAddrSpace(4096)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(as.Map(0x1000, 8192, PermRW))
	must(as.Map(0x3000, 4096, PermRX))
	must(as.Map(0x10000, 4096, PermRW))
	rs := as.Regions()
	want := []Region{
		{0x1000, 8192, PermRW},
		{0x3000, 4096, PermRX},
		{0x10000, 4096, PermRW},
	}
	if len(rs) != len(want) {
		t.Fatalf("regions = %+v", rs)
	}
	for i := range want {
		if rs[i] != want[i] {
			t.Errorf("region %d = %+v, want %+v", i, rs[i], want[i])
		}
	}
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
	if err := as.Protect(pages[1], 16384, PermRead); err != nil {
		t.Fatal(err)
	}
	if f := as.Write(pages[1], 9, 8); f == nil {
		t.Error("stale cache: write succeeded after protect(read)")
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
