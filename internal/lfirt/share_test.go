package lfirt

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"lfi/internal/core"
	"lfi/internal/mem"
	"lfi/internal/progs"
)

// shareSrc dirties every kind of page a restored clone can hold and then
// parks, so that its final memory can be read. On one data page it does a
// load–store–load, folding both loads into a sum it stores, so a stale
// slice of the page on either side of the first-touch copy shows in memory.
// Then: a store to every data, bss and stack page (64 of them: the serving
// stack), a brk and an mmap with a store to each new page, a fork whose
// child overwrites all of it and exits 7, a wait, and a read on a pipe
// nobody will write. It stores no pointer and no pid, so two runs differ
// only in the base word of the call-table page.
var shareSrc = `
_start:
	mov x9, #0xA1
` + la("x10", "d0") + `	ldr x15, [x10]
	str x9, [x10]
	ldr x16, [x10]
	add x15, x15, x16
	str x15, [x10, #8]
` + la("x10", "d1") + `	str x9, [x10]
` + la("x10", "b0") + `	str x9, [x10]
` + la("x10", "b1") + `	str x9, [x10]
	mov x13, #16384
	mov x11, sp
	mov x12, #64
stack:
	sub x11, x11, x13
	str x9, [x11]
	subs x12, x12, #1
	b.ne stack
	mov x0, #0
` + progs.RTCall(core.RTBrk) + `	mov x19, x0
	add x0, x19, x13, lsl #1
` + progs.RTCall(core.RTBrk) + `	str x9, [x19]
	str x9, [x19, #16384]
	mov x0, #0
	mov x1, #32768
	mov x2, #3
	mov x3, #0x22
` + progs.RTCall(core.RTMmap) + `	mov x20, x0
	str x9, [x20]
	str x9, [x20, #16384]
` + progs.RTCall(core.RTFork) + `	cbz x0, child
` + la("x0", "status") + progs.RTCall(core.RTWait) + `	mov x9, #0xB2
` + la("x10", "d0") + `	str x9, [x10, #16]
` + la("x0", "fds") + progs.RTCall(core.RTPipe) + la("x10", "fds") + `	ldr w0, [x10]
` + la("x1", "status") + `	mov x2, #1
` + progs.RTCall(core.RTRead) + `	mov x0, #99
` + progs.Exit() + `
child:
	mov x9, #0xC3
` + la("x10", "d0") + `	str x9, [x10]
` + la("x10", "d1") + `	str x9, [x10]
` + la("x10", "b0") + `	str x9, [x10]
` + la("x10", "b1") + `	str x9, [x10]
	str x9, [x19]
	str x9, [x19, #16384]
	str x9, [x20]
	str x9, [x20, #16384]
	mov x11, sp
	mov x12, #64
cstack:
	sub x11, x11, x13
	str x9, [x11]
	subs x12, x12, #1
	b.ne cstack
	mov x0, #7
` + progs.Exit() + `
.data
d0:
	.quad 0x1111
	.space 16376
d1:
	.quad 0x2222
	.space 16376
.bss
b0:
	.space 16384
b1:
	.space 16384
status:
	.space 8
fds:
	.space 8
`

// pagesDigest hashes a page list: offsets, permissions, nil-ness and bytes.
func pagesDigest(pages []mem.PageImage) [sha256.Size]byte {
	h := sha256.New()
	for _, pi := range pages {
		fmt.Fprintf(h, "%#x %v %v\n", pi.Off, pi.Perm, pi.Data == nil)
		h.Write(pi.Data)
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// snapDigest hashes every page a Snapshot holds.
func snapDigest(s *Snapshot) [sha256.Size]byte { return pagesDigest(s.pages) }

// memDigest hashes a sandbox's memory with the one slot-dependent word,
// the heap base in the call-table page, zeroed.
func memDigest(rt *Runtime, p *Proc) [sha256.Size]byte {
	pages, err := rt.AS.SnapshotRange(p.Base, core.SandboxSize)
	if err != nil {
		panic(err) // a slot is an aligned range
	}
	if len(pages) > 0 && pages[0].Off == 0 && pages[0].Data != nil {
		pages[0].Data = slices.Clone(pages[0].Data)
		clear(pages[0].Data[core.CtxHeapBaseOff : core.CtxHeapBaseOff+8])
	}
	return pagesDigest(pages)
}

// runToPark starts the given parked clones and runs rt until every process
// left is blocked, which is where shareSrc ends up.
func runToPark(rt *Runtime, procs ...*Proc) error {
	for _, p := range procs {
		rt.Start(p)
	}
	var dl *ErrDeadlock
	if err := rt.Run(); !errors.As(err, &dl) || dl.Blocked != len(procs) {
		return fmt.Errorf("Run = %v, want a deadlock of %d parked processes", err, len(procs))
	}
	return nil
}

// TestSnapshotBytesImmutable is the sharing invariant end to end: one
// snapshot restored into two runtimes on two goroutines and twice into a
// third, while the runtime that took it keeps running the original on the
// very bytes the snapshot holds. Every clone writes everywhere. No byte of
// the snapshot may change, and each clone must end with the memory a cold
// Load of the same program ends with.
func TestSnapshotBytesImmutable(t *testing.T) {
	elf := build(t, shareSrc)
	ref := servingRT()
	rp, err := ref.Load(elf)
	if err != nil {
		t.Fatal(err)
	}
	if err := runToPark(ref, rp); err != nil {
		t.Fatal(err)
	}
	want := memDigest(ref, rp)

	origin := servingRT()
	op, err := origin.Load(elf)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := origin.Snapshot(op)
	if err != nil {
		t.Fatal(err)
	}
	before := snapDigest(snap)

	park := func(rt *Runtime, procs ...*Proc) {
		if err := runToPark(rt, procs...); err != nil {
			t.Error(err)
			return
		}
		for _, p := range procs {
			if memDigest(rt, p) != want {
				t.Errorf("pid %d in slot %d: final memory differs from a cold load's", p.PID, p.Slot)
			}
		}
	}
	// A clone never lands in the slot the snapshot came from — a filler
	// holds it — so Restore's repoint of the heap-base word always has a
	// new value to write.
	filler := build(t, writerSrc("filler", 0))
	var wg sync.WaitGroup
	for _, n := range []int{0, 1, 1, 2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if n == 0 {
				park(origin, op)
				return
			}
			rt := servingRT()
			if _, err := rt.Load(filler); err != nil {
				t.Error(err)
				return
			}
			procs := make([]*Proc, n)
			for i := range procs {
				p, err := rt.Restore(snap)
				if err != nil {
					t.Error(err)
					return
				}
				procs[i] = p
			}
			park(rt, procs...)
		}()
	}
	wg.Wait()
	if snapDigest(snap) != before {
		t.Fatal("snapshot bytes changed while its clones ran")
	}
}

// TestForkFailureReleasesChild is the regression test for a failed fork
// leaving the half-copied child mapped in a slot it had already freed: the
// next sandbox given that slot could not be loaded ("already mapped").
func TestForkFailureReleasesChild(t *testing.T) {
	rt := servingRT()
	forker := build(t, "_start:\n"+progs.RTCall(core.RTFork)+"\tneg x0, x0\n"+progs.Exit())
	p, err := rt.Load(forker)
	if err != nil {
		t.Fatal(err)
	}
	// The child will get the next slot. One stray page under its stack
	// makes the copy fail after the call table and text are already in.
	next := core.SlotBase(p.Slot + 1)
	if err := rt.AS.Map(next+core.StackTopOff-rt.cfg.PageSize, rt.cfg.PageSize, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	if status, err := rt.RunProc(p); err != nil || status != ENOMEM {
		t.Fatalf("fork into an occupied slot: status=%d err=%v, want -ENOMEM", status, err)
	}
	if rt.AS.Mapped(next, 1, mem.PermNone) {
		t.Error("failed fork left the child's call table mapped")
	}
	// The parent's slot and the child's are both free again, and usable.
	for i := 0; i < 2; i++ {
		q, err := rt.Load(build(t, writerSrc("ok", 3)))
		if err != nil {
			t.Fatalf("load into slot %d after a failed fork: %v", p.Slot+i, err)
		}
		if q.Slot != p.Slot+i {
			t.Fatalf("loaded into slot %d, want %d", q.Slot, p.Slot+i)
		}
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}
