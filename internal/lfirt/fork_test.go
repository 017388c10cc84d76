package lfirt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"lfi/internal/core"
	"lfi/internal/progs"
)

// TestForkChildContextWord: every process a fork makes reads its own slot
// base in the context heap-base word, which wasmbase's heap-reload
// instrumentation loads its heap base from. Two forks make a parent, two
// children and a grandchild; each then blocks on a pipe nobody writes.
func TestForkChildContextWord(t *testing.T) {
	src := "_start:\n" + progs.RTCall(core.RTFork) + progs.RTCall(core.RTFork) +
		la("x0", "fds") + progs.RTCall(core.RTPipe) + la("x10", "fds") + `	ldr w0, [x10]
` + la("x1", "buf") + `	mov x2, #1
` + progs.RTCall(core.RTRead) + progs.ExitCode(99) + `
.bss
fds:
	.space 8
buf:
	.space 8
`
	rt := servingRT()
	if _, err := rt.Load(build(t, src)); err != nil {
		t.Fatal(err)
	}
	var dl *ErrDeadlock
	if err := rt.Run(); !errors.As(err, &dl) || dl.Blocked != 4 {
		t.Fatalf("Run = %v, want a deadlock of 4 blocked processes", err)
	}
	for _, p := range rt.Procs() {
		if got, f := rt.AS.Read(p.Base+core.CtxHeapBaseOff, 8); f != nil || got != p.Base {
			t.Errorf("pid %d in slot %d reads heap base %#x (%v), want its own %#x", p.PID, p.Slot, got, f, p.Base)
		}
	}
}

// forkSrc dirties the first `dirty` of 64 bss pages, reads an 8-byte
// count n from stdin (1 if the read is short) and then n times forks a
// child that exits at once and waits for it. With rewrite set it dirties
// the same pages again before each fork after the first. It exits with the
// child's status, 7.
func forkSrc(dirty int, rewrite bool) string {
	again := ""
	if rewrite {
		again = "\tbl dirty\n"
	}
	return `
_start:
	bl dirty
	mov x0, #0
` + la("x1", "count") + `	mov x2, #8
` + progs.RTCall(core.RTRead) + `	mov x19, #1
	cmp x0, #8
	b.ne loop
` + la("x10", "count") + `	ldr x19, [x10]
loop:
` + progs.RTCall(core.RTFork) + `	cbz x0, child
` + la("x0", "status") + progs.RTCall(core.RTWait) + `	subs x19, x19, #1
	b.eq done
` + again + `	b loop
done:
` + la("x10", "status") + `	ldr w0, [x10]
` + progs.Exit() + `
child:
` + progs.ExitCode(7) + `
dirty:
` + la("x10", "buf") + fmt.Sprintf("\tmov x12, #%d\n", dirty) + `	mov x13, #16384
dloop:
	str x12, [x10]
	add x10, x10, x13
	subs x12, x12, #1
	b.ne dloop
	ret
.bss
count:
	.space 8
status:
	.space 8
	.balign 16384
buf:
	.space 1048576
`
}

// TestForkCopiesOnlyWrittenPages: a parent with 64 dirty private pages
// forks a child that exits at once. The fork shares the pages instead of
// copying them, so it allocates far less than the 64 pages a copying fork
// would. The parent dirties its pages and then blocks on a stdin that
// loops back to its own stdout, so only what follows the host's input is
// measured: the fork, the child's run and the parent's wait and exit.
func TestForkCopiesOnlyWrittenPages(t *testing.T) {
	rt := servingRT()
	p, err := rt.Load(build(t, forkSrc(64, false)))
	if err != nil {
		t.Fatal(err)
	}
	rt.ConnectPipe(p, p)
	var dl *ErrDeadlock
	if err := rt.Run(); !errors.As(err, &dl) || dl.Blocked != 1 {
		t.Fatalf("Run = %v, want the parent blocked on stdin", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rt.FeedInput(p, binary.LittleEndian.AppendUint64(nil, 1))
	if status, err := rt.RunProc(p); err != nil || status != 7 {
		t.Fatalf("status=%d err=%v, want the child's 7", status, err)
	}
	runtime.ReadMemStats(&after)
	page := rt.cfg.PageSize
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("fork, child exit and wait allocated %d bytes", got)
	if got > 16*page {
		t.Errorf("fork of a parent with 64 dirty pages allocated %d bytes (%.1f pages), want at most 16 pages", got, float64(got)/float64(page))
	}
}

// BenchmarkFork times fork → child exit → wait, with the parent
// dirtying 1 or 64 pages before each fork, or 64 pages before the first.
func BenchmarkFork(b *testing.B) {
	for _, shape := range []struct {
		name    string
		dirty   int
		rewrite bool
	}{{"dirty=1", 1, true}, {"dirty=64", 64, true}, {"dirty=64,once", 64, false}} {
		b.Run(shape.name, func(b *testing.B) {
			rt := servingRT()
			p, err := rt.Load(build(b, forkSrc(shape.dirty, shape.rewrite)))
			if err != nil {
				b.Fatal(err)
			}
			rt.FeedInput(p, binary.LittleEndian.AppendUint64(nil, uint64(b.N)))
			b.ReportAllocs()
			b.ResetTimer()
			if status, err := rt.RunProc(p); err != nil || status != 7 {
				b.Fatalf("status=%d err=%v, want the child's 7", status, err)
			}
		})
	}
}
