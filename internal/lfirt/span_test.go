package lfirt

import (
	"fmt"
	"testing"

	"lfi/internal/core"
	"lfi/internal/mem"
	"lfi/internal/progs"
)

// Tests for the span: the one checked window through which a runtime call
// reaches guest memory (DESIGN.md "Runtime calls").

// spanArena is where the host plants the pages a boundary row needs: an
// offset nothing else in a test sandbox maps.
const spanArena = 0x4000_0000

// spanLayout is the page that follows the arena's first, read-write page.
type spanLayout int

const (
	nextRW spanLayout = iota
	nextHole
	nextRO
)

// spanCall is one guest-memory-touching call under test: setup runs with
// the pointer in x19 and the length in x20 and leaves the call's result
// in x27 and the bytes it moved in x26; withStdout adds what reached fd 1.
type spanCall struct {
	name       string
	setup      string
	withStdout bool
}

func spanCalls() []spanCall {
	// pair makes a ring pair: x28 the passive end bound to port 7, x25
	// the active end connected to it.
	pair := `	mov x0, #2
	mov x1, #64
` + progs.RTCall(core.RTSocket) + `	mov x28, x0
	mov x0, #2
	mov x1, #64
` + progs.RTCall(core.RTSocket) + `	mov x25, x0
	mov x0, x28
	mov x1, #7
` + progs.RTCall(core.RTBind) + `	mov x0, x25
	mov x1, #7
` + progs.RTCall(core.RTConnect)
	// drain reads what is left at x28 after the peer in x25 closes, and
	// sets x26 = 8 - that.
	drain := func(call core.RuntimeCall) string {
		return `	mov x0, x25
` + progs.RTCall(core.RTClose) + `	mov x0, x28
` + la("x1", "buf") + `	mov x2, #64
` + progs.RTCall(call) + `	mov x26, #8
	sub x26, x26, x0
`
	}
	return []spanCall{
		{name: "write", withStdout: true, setup: `	mov x0, #1
	mov x1, x19
	mov x2, x20
` + progs.RTCall(core.RTWrite) + `	mov x27, x0
	mov x26, #0
`},
		// read: 8 bytes wait in a pipe whose writer has closed.
		{name: "read", setup: la("x0", "fds") + progs.RTCall(core.RTPipe) + la("x9", "fds") + `	ldr w28, [x9]
	ldr w25, [x9, #4]
	mov x0, x25
` + la("x1", "msg") + `	mov x2, #8
` + progs.RTCall(core.RTWrite) + `	mov x0, x28
	mov x1, x19
	mov x2, x20
` + progs.RTCall(core.RTRead) + `	mov x27, x0
` + drain(core.RTRead)},
		// send: x26 is what a receive then finds deposited.
		{name: "send", setup: pair + `	mov x0, x25
	mov x1, x19
	mov x2, x20
` + progs.RTCall(core.RTSend) + `	mov x27, x0
	mov x0, x25
` + progs.RTCall(core.RTClose) + `	mov x0, x28
` + la("x1", "buf") + `	mov x2, #64
` + progs.RTCall(core.RTRecv) + `	mov x26, x0
`},
		// recv: 8 bytes wait in the ring.
		{name: "recv", setup: pair + `	mov x0, x25
` + la("x1", "msg") + `	mov x2, #8
` + progs.RTCall(core.RTSend) + `	mov x0, x28
	mov x1, x19
	mov x2, x20
` + progs.RTCall(core.RTRecv) + `	mov x27, x0
` + drain(core.RTRecv)},
		// pipe: x26 is how many descriptors the call left behind, read
		// off the number the next pipe() gets.
		{name: "pipe", setup: `	mov x0, x19
` + progs.RTCall(core.RTPipe) + `	mov x27, x0
` + la("x0", "fds") + progs.RTCall(core.RTPipe) + la("x9", "fds") + `	ldr w26, [x9]
	sub x26, x26, #3
`},
		// vsubmit: one slot, which spanProg fills with a 3-byte write to
		// stdout when the slot's first half lies on the arena's first page.
		{name: "vsubmit", withStdout: true, setup: `	mov x0, x19
	mov x1, x20
` + progs.RTCall(core.RTVSubmit) + `	mov x27, x0
	mov x26, #0
`},
	}
}

// spanProg wraps a call's setup: load the pointer and length, run it, and
// exit with (result+1000) | moved<<16.
func spanProg(c spanCall, ptr, n uint64) string {
	src := fmt.Sprintf(`_start:
	movz x19, #%d
	movk x19, #%d, lsl #16
	mov x20, #%d
`, ptr&0xffff, ptr>>16, n)
	if c.name == "vsubmit" && ptr >= spanArena && ptr+32 <= spanArena+core.DefaultPageSize {
		// The op, fd, buf and len words only: flags and status may lie
		// on a page the guest cannot write.
		src += fmt.Sprintf(`	mov x11, #%d
	str x11, [x19, #%d]
	mov x11, #1
	str x11, [x19, #%d]
`, core.VOpWrite, core.VOffOp, core.VOffFD) + la("x10", "msg") + fmt.Sprintf(`	str x10, [x19, #%d]
	mov x11, #3
	str x11, [x19, #%d]
`, core.VOffBuf, core.VOffLen)
	}
	return src + c.setup + `	add x0, x27, #1000
	add x0, x0, x26, lsl #16
` + progs.Exit() + `
.rodata
msg:
	.ascii "ABCDEFGH"
.bss
fds:
	.space 8
buf:
	.space 64
`
}

// TestSpanBoundaries runs write, read, send, recv, pipe and a vsubmit slot
// against buffers at page and region edges and pins each call's result and
// the bytes it moved. The host maps the arena's first page read-write and
// the second as the row says. Every figure is the one the runtime gave
// before calls went through spans, except where fixed records that older
// figure: a faulting read used to consume the pipe's bytes and a faulting
// pipe() to keep its two descriptors.
func TestSpanBoundaries(t *testing.T) {
	ps := core.DefaultPageSize
	edge := uint64(spanArena) + ps // end of the arena's first page
	type want struct{ ret, moved int }
	// A pipe's buffer is its 8 bytes of descriptors. A vsubmit ring is one
	// 64-byte slot, n slots long, placed so that it meets the page edge as
	// the row's buffer does: its flags and status words across it.
	slotAt := map[uint64]uint64{edge - 4: edge - 32, edge - 8: edge - core.VSubmitSlotSize}
	rows := []struct {
		name   string
		next   spanLayout
		ptr, n uint64
		want   map[string]want
		// fixed names the calls whose figure before spans differs, and gives it.
		fixed map[string]want
	}{
		{"crosses-a-page", nextRW, edge - 4, 8, map[string]want{
			"write": {8, 8}, "read": {8, 8}, "send": {8, 8}, "recv": {8, 8}, "pipe": {0, 2}, "vsubmit": {1, 3},
		}, nil},
		{"ends-at-region-edge", nextHole, edge - 8, 8, map[string]want{
			"write": {8, 8}, "read": {8, 8}, "send": {8, 8}, "recv": {8, 8}, "pipe": {0, 2}, "vsubmit": {1, 3},
		}, nil},
		{"second-page-unmapped", nextHole, edge - 4, 8, map[string]want{
			"write": {-EFAULT, 0}, "read": {-EFAULT, 0}, "send": {-EFAULT, 0}, "recv": {-EFAULT, 0}, "pipe": {-EFAULT, 0}, "vsubmit": {-EFAULT, 0},
		}, map[string]want{"read": {-EFAULT, 8}, "pipe": {-EFAULT, 2}}},
		{"second-page-read-only", nextRO, edge - 4, 8, map[string]want{
			"write": {8, 8}, "read": {-EFAULT, 0}, "send": {8, 8}, "recv": {-EFAULT, 0}, "pipe": {-EFAULT, 0}, "vsubmit": {-EFAULT, 0},
		}, map[string]want{"read": {-EFAULT, 8}, "pipe": {-EFAULT, 2}}},
		{"length-0", nextHole, edge + 100, 0, map[string]want{
			"write": {0, 0}, "read": {0, 0}, "send": {0, 0}, "recv": {0, 0}, "vsubmit": {-EINVAL, 0},
		}, nil},
		{"pointer-2^32-1", nextHole, 1<<32 - 1, 1, map[string]want{
			"write": {-EFAULT, 0}, "read": {-EFAULT, 0}, "send": {-EFAULT, 0}, "recv": {-EFAULT, 0}, "pipe": {-EFAULT, 0}, "vsubmit": {-EFAULT, 0},
		}, map[string]want{"read": {-EFAULT, 1}, "pipe": {-EFAULT, 2}}},
	}
	for _, c := range spanCalls() {
		for _, row := range rows {
			w, ok := row.want[c.name]
			if !ok {
				continue
			}
			t.Run(c.name+"/"+row.name, func(t *testing.T) {
				ptr, n := row.ptr, row.n
				if c.name == "vsubmit" {
					if at, ok := slotAt[ptr]; ok {
						ptr = at
					}
					n = min(n, 1)
				}
				rt := newRT(t)
				p, err := rt.Load(build(t, spanProg(c, ptr, n)))
				if err != nil {
					t.Fatalf("load: %v", err)
				}
				if err := rt.AS.Map(p.Base+spanArena, ps, mem.PermRW); err != nil {
					t.Fatal(err)
				}
				switch row.next {
				case nextRW:
					err = rt.AS.Map(p.Base+edge, ps, mem.PermRW)
				case nextRO:
					err = rt.AS.Map(p.Base+edge, ps, mem.PermRead)
				}
				if err != nil {
					t.Fatal(err)
				}
				status, err := rt.RunProc(p)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				got := want{status&0xffff - 1000, status >> 16}
				if c.withStdout {
					got.moved += len(rt.Stdout())
				}
				if got != w {
					t.Errorf("result %d, moved %d; want %d, %d (before spans: %v)", got.ret, got.moved, w.ret, w.moved, row.fixed[c.name])
				}
			})
		}
	}
}

// TestReadFaultKeepsPipeBytes: a read whose guest copy faults leaves the
// pipe's bytes for the next read. Before the span, the read consumed them
// and the next read saw EOF.
func TestReadFaultKeepsPipeBytes(t *testing.T) {
	src := `_start:
` + la("x0", "fds") + progs.RTCall(core.RTPipe) + la("x9", "fds") + `	ldr w28, [x9]
	ldr w25, [x9, #4]
	mov x0, x25
` + la("x1", "msg") + `	mov x2, #4
` + progs.RTCall(core.RTWrite) + `	mov x0, x25
` + progs.RTCall(core.RTClose) + `	mov x0, x28
` + la("x1", "_start") + `	mov x2, #4
` + progs.RTCall(core.RTRead) + `	cmn x0, #14
	b.ne fail
	mov x0, x28
` + la("x1", "buf") + `	mov x2, #4
` + progs.RTCall(core.RTRead) + progs.Exit() + `
fail:
	mov x0, #99
` + progs.Exit() + `
.rodata
msg:
	.ascii "ABCD"
.bss
fds:
	.space 8
buf:
	.space 8
`
	if status := loadRun(t, newRT(t), src); status != 4 {
		t.Errorf("read after a faulting read = %d, want the 4 bytes still queued (99: the faulting read did not return -EFAULT)", status)
	}
}

// TestPipeFaultLeaksNoDescriptor: pipe() with a faulting fd pointer
// allocates nothing. Before the span, each such call kept two descriptors
// and an open pipe, so 200 of them filled the table and the next valid
// pipe() failed with EMFILE.
func TestPipeFaultLeaksNoDescriptor(t *testing.T) {
	src := `_start:
	mov x19, #200
again:
` + la("x0", "_start") + progs.RTCall(core.RTPipe) + `	cmn x0, #14
	b.ne fail
	subs x19, x19, #1
	b.ne again
` + la("x0", "fds") + progs.RTCall(core.RTPipe) + `	neg x0, x0
` + progs.Exit() + `
fail:
	mov x0, #99
` + progs.Exit() + `
.bss
fds:
	.space 8
`
	if status := loadRun(t, newRT(t), src); status != 0 {
		t.Errorf("pipe() after 200 faulting ones = -%d, want 0 (99: a faulting pipe() did not return -EFAULT)", status)
	}
}

// TestWaitFaultKeepsChild: wait() with a status pointer the sandbox
// cannot write returns -EFAULT and leaves the child for the next wait.
// Before the check moved ahead of the reap, the faulting wait reaped the
// child and returned its pid, and the status was lost.
func TestWaitFaultKeepsChild(t *testing.T) {
	src := `_start:
` + progs.RTCall(core.RTFork) + `	cbz x0, child
	mov x19, x0
` + la("x0", "_start") + progs.RTCall(core.RTWait) + `	cmn x0, #14
	b.ne fail
` + la("x0", "status") + progs.RTCall(core.RTWait) + `	cmp x0, x19
	b.ne lost
` + la("x1", "status") + `	ldr w0, [x1]
` + progs.Exit() + `
child:
` + progs.ExitCode(7) + `
fail:
	mov x0, #99
` + progs.Exit() + `
lost:
	mov x0, #98
` + progs.Exit() + `
.bss
status:
	.space 8
`
	switch status := loadRun(t, newRT(t), src); status {
	case 7:
	case 99:
		t.Error("wait(&text) did not return -EFAULT")
	case 98:
		t.Error("wait(&status) after a faulting wait did not return the child's pid")
	default:
		t.Errorf("status = %d, want the child's 7", status)
	}
}
