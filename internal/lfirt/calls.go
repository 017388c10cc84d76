package lfirt

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"

	"lfi/internal/core"
	"lfi/internal/mem"
)

// Runtime call implementations (§5.3). Arguments arrive in x0..x5; the
// result is returned in x0 (negative errno on failure). All pointers are
// masked into the calling sandbox exactly as the hardware guards would
// mask them, so a sandbox can never hand the runtime a pointer outside
// itself (no confused deputy).

const maxIOSize = 1 << 20

// maskPtr forces a sandbox-supplied pointer into the sandbox.
func (p *Proc) maskPtr(ptr uint64) uint64 { return p.Base | (ptr & 0xffffffff) }

// span is a checked window on a sandbox's memory, the one way a runtime
// call reaches guest memory: every page was resolved, permissions checked,
// before any byte moved, so copying through it cannot fault. It aliases
// the pages, so no span is held across an epoch bump (fork, mmap, munmap,
// brk, restore). Four words, so it lives in registers.
type span struct {
	addr uint64 // masked guest address of byte 0
	head []byte // the span's bytes in byte 0's page
}

// span masks ptr into p and resolves [ptr, ptr+n), which must stay inside
// p's slot, for acc on every page. Every page the runtime maps in a slot
// is readable, so a span resolved for writing may be read too.
func (rt *Runtime) span(p *Proc, ptr, n uint64, acc mem.Access) (span, bool) {
	addr := p.maskPtr(ptr)
	if ptr&0xffffffff+n > core.SandboxSize {
		return span{}, false
	}
	head, f := rt.AS.Span(addr, n, acc)
	return span{addr, head}, f == nil
}

// page returns s's bytes from off to the end of off's page; callers bound it.
func (rt *Runtime) page(s span, off uint64, acc mem.Access) []byte {
	if off < uint64(len(s.head)) {
		return s.head[off:]
	}
	b, f := rt.AS.PageSlice(s.addr+off, acc)
	if f != nil {
		panic("lfirt: a span outlived its pages: " + f.Error())
	}
	return b[(s.addr+off)&(rt.cfg.PageSize-1):]
}

// copyOut copies s's bytes from offset off into dst; copyIn copies src
// into s at offset off. Either inlines a copy within the first page.
func (rt *Runtime) copyOut(dst []byte, s span, off uint64) {
	if off+uint64(len(dst)) <= uint64(len(s.head)) {
		copy(dst, s.head[off:])
	} else {
		rt.copyPages(dst, s, off, mem.AccessRead)
	}
}

func (rt *Runtime) copyIn(s span, off uint64, src []byte) {
	if off+uint64(len(src)) <= uint64(len(s.head)) {
		copy(s.head[off:], src)
	} else {
		rt.copyPages(src, s, off, mem.AccessWrite)
	}
}

// copyPages is copyOut (acc AccessRead) or copyIn (AccessWrite) page by page.
func (rt *Runtime) copyPages(buf []byte, s span, off uint64, acc mem.Access) {
	for len(buf) > 0 {
		k := 0
		if acc == mem.AccessWrite {
			k = copy(rt.page(s, off, acc), buf)
		} else {
			k = copy(buf, rt.page(s, off, acc))
		}
		buf, off = buf[k:], off+uint64(k)
	}
}

// callHandler is the uniform dispatch signature: the call's first three
// argument registers, pre-fetched from the CPU. Handlers needing fewer
// arguments ignore the rest; core.CallTable records the real arity.
type callHandler func(rt *Runtime, p *Proc, a0, a1, a2 uint64) action

// callHandlers dispatches runtime calls by number. The table parallels
// core.CallTable — TestCallTableSync pins that every ABI row has a
// handler here and that the two tables agree on the call set.
var callHandlers = [core.NumRuntimeCalls]callHandler{
	core.RTExit:    (*Runtime).callExit,
	core.RTWrite:   (*Runtime).callWrite,
	core.RTRead:    (*Runtime).callRead,
	core.RTOpen:    (*Runtime).callOpen,
	core.RTClose:   (*Runtime).callClose,
	core.RTBrk:     (*Runtime).callBrk,
	core.RTMmap:    (*Runtime).callMmap,
	core.RTMunmap:  (*Runtime).callMunmap,
	core.RTFork:    (*Runtime).callFork,
	core.RTWait:    (*Runtime).callWait,
	core.RTYield:   (*Runtime).callYield,
	core.RTGetPID:  (*Runtime).callGetPID,
	core.RTPipe:    (*Runtime).callPipe,
	core.RTKill:    (*Runtime).callKill,
	core.RTUsleep:  (*Runtime).callUsleep,
	core.RTSocket:  (*Runtime).callSocket,
	core.RTBind:    (*Runtime).callBind,
	core.RTConnect: (*Runtime).callConnect,
	core.RTAccept:  (*Runtime).callAccept,
	core.RTSend:    (*Runtime).callSend,
	core.RTRecv:    (*Runtime).callRecv,
	core.RTVSubmit: (*Runtime).callVSubmit,
}

func (rt *Runtime) syscall(p *Proc, call core.RuntimeCall) action {
	c := rt.CPU
	if call < 0 || call >= core.NumRuntimeCalls || callHandlers[call] == nil {
		rt.saveRegs(p)
		rt.kill(p, 128+4)
		return actResched
	}
	return callHandlers[call](rt, p, c.X()[0], c.X()[1], c.X()[2])
}

func (rt *Runtime) callExit(p *Proc, a0, _, _ uint64) action {
	rt.saveRegs(p)
	rt.kill(p, int(int32(uint32(a0))))
	return actResched
}

func (rt *Runtime) callWrite(p *Proc, a0, a1, a2 uint64) action {
	return rt.resume(p, uint64(rt.sysWrite(p, a0, a1, a2)))
}

func (rt *Runtime) callRead(p *Proc, a0, a1, a2 uint64) action {
	fd := p.fds.get(int(int32(uint32(a0))))
	if fd == nil {
		return rt.resume(p, errRet(EBADF))
	}
	n := rt.doRead(p, fd, a1, a2)
	if n == -EAGAIN {
		// Block with the arguments staged in Regs.X[0..2] so that
		// wakeBlocked can retry the read later.
		rt.block(p, blockRead, int(int32(uint32(a0))), a0, a1, a2)
		return rt.blockSwitch(p)
	}
	return rt.resume(p, uint64(n))
}

func (rt *Runtime) callOpen(p *Proc, a0, a1, _ uint64) action {
	return rt.resume(p, uint64(rt.sysOpen(p, a0, a1)))
}

func (rt *Runtime) callClose(p *Proc, a0, _, _ uint64) action {
	r := p.fds.close(int(int32(uint32(a0))))
	// Closing the write end of a pipe or a socket endpoint can deliver
	// EOF/EPIPE to a blocked peer.
	rt.markWake()
	return rt.resume(p, uint64(r))
}

func (rt *Runtime) callBrk(p *Proc, a0, _, _ uint64) action {
	return rt.resume(p, rt.sysBrk(p, a0))
}

func (rt *Runtime) callMmap(p *Proc, _, a1, _ uint64) action {
	return rt.resume(p, rt.sysMmap(p, a1))
}

func (rt *Runtime) callMunmap(p *Proc, a0, a1, _ uint64) action {
	return rt.resume(p, uint64(rt.sysMunmap(p, a0, a1)))
}

func (rt *Runtime) callFork(p *Proc, _, _, _ uint64) action {
	return rt.sysFork(p)
}

func (rt *Runtime) callWait(p *Proc, a0, _, _ uint64) action {
	return rt.sysWait(p, a0)
}

func (rt *Runtime) callYield(p *Proc, a0, _, _ uint64) action {
	return rt.sysYield(p, a0)
}

func (rt *Runtime) callGetPID(p *Proc, _, _, _ uint64) action {
	return rt.resume(p, uint64(p.PID))
}

func (rt *Runtime) callPipe(p *Proc, a0, _, _ uint64) action {
	return rt.resume(p, uint64(rt.sysPipe(p, a0)))
}

func (rt *Runtime) callKill(p *Proc, a0, _, _ uint64) action {
	if int(int32(uint32(a0))) == p.PID {
		rt.saveRegs(p)
		rt.kill(p, 128+9)
		return actResched
	}
	return rt.resume(p, uint64(rt.sysKill(p, a0)))
}

func (rt *Runtime) callUsleep(p *Proc, a0, _, _ uint64) action {
	// Model the sleep as an immediate requeue plus elapsed virtual
	// time; there are no timers to wait on in the simulation. A
	// microsecond is a whole number of cycles, and AddCycles saturates
	// whatever a0 the guest chose.
	if rt.Tim != nil {
		rt.Tim.AddCycles(float64(a0) * math.Round(rt.Tim.Model.FreqGHz*1000))
	}
	rt.resume(p, 0)
	rt.saveRegs(p)
	rt.makeReady(p)
	return actResched
}

func (rt *Runtime) callSocket(p *Proc, a0, a1, _ uint64) action {
	return rt.resume(p, uint64(rt.sysSocket(p, a0, a1)))
}

func (rt *Runtime) callBind(p *Proc, a0, a1, _ uint64) action {
	return rt.resume(p, uint64(rt.sysBind(p, a0, a1)))
}

func (rt *Runtime) callConnect(p *Proc, a0, a1, _ uint64) action {
	return rt.resume(p, uint64(rt.sysConnect(p, a0, a1)))
}

func (rt *Runtime) callAccept(p *Proc, a0, _, _ uint64) action {
	return rt.sysAccept(p, a0)
}

func (rt *Runtime) callSend(p *Proc, a0, a1, a2 uint64) action {
	return rt.sysSend(p, a0, a1, a2)
}

func (rt *Runtime) callRecv(p *Proc, a0, a1, a2 uint64) action {
	return rt.sysRecv(p, a0, a1, a2)
}

func (rt *Runtime) callVSubmit(p *Proc, a0, a1, _ uint64) action {
	return rt.sysVSubmit(p, a0, a1)
}

func (rt *Runtime) sysWrite(p *Proc, fdn, ptr, n uint64) int64 {
	fd := p.fds.get(int(int32(uint32(fdn))))
	if fd == nil {
		return -EBADF
	}
	if n > maxIOSize {
		n = maxIOSize
	}
	s, ok := rt.span(p, ptr, n, mem.AccessRead)
	if !ok {
		return -EFAULT
	}
	// Only the first page can fail, and an empty write still reports it.
	r := fd.write(s.head)
	for off := uint64(len(s.head)); r > 0 && off < n; {
		b := rt.page(s, off, mem.AccessRead)
		b = b[:min(uint64(len(b)), n-off)]
		r += fd.write(b)
		off += uint64(len(b))
	}
	if r > 0 {
		rt.markWake() // a blocked pipe reader may now have data
	}
	return r
}

// doRead performs one read attempt; -EAGAIN means the caller should block.
// The bytes leave the description only once the guest copy is certain, so
// an -EFAULT read loses nothing.
func (rt *Runtime) doRead(p *Proc, fd *FD, ptr, n uint64) int64 {
	b, r := fd.peek(min(n, maxIOSize))
	if r <= 0 {
		return r
	}
	s, ok := rt.span(p, ptr, uint64(r), mem.AccessWrite)
	if !ok {
		return -EFAULT
	}
	rt.copyIn(s, 0, b)
	fd.consume(int(r))
	return r
}

// readCString reads a NUL-terminated path of under 4096 bytes a page at a
// time, so a string that ends before an unmapped page reads cleanly.
func (rt *Runtime) readCString(p *Proc, ptr uint64) (string, bool) {
	var out []byte
	for off := ptr & 0xffffffff; len(out) < 4096 && off < core.SandboxSize; {
		s, ok := rt.span(p, off, min(rt.cfg.PageSize-off%rt.cfg.PageSize, uint64(4096-len(out))), mem.AccessRead)
		if !ok {
			return "", false
		}
		if i := bytes.IndexByte(s.head, 0); i >= 0 {
			return string(append(out, s.head[:i]...)), true
		}
		out = append(out, s.head...)
		off += uint64(len(s.head))
	}
	return "", false
}

func (rt *Runtime) sysOpen(p *Proc, pathPtr, flags uint64) int64 {
	path, ok := rt.readCString(p, pathPtr)
	if !ok {
		return -EFAULT
	}
	if rt.fs.denied(path) {
		return -EACCES
	}
	fl := int(flags)
	f, exists := rt.fs.files[path]
	if !exists {
		if fl&OCreat == 0 {
			return -ENOENT
		}
		f = &memFile{}
		rt.fs.files[path] = f
	}
	if fl&OTrunc != 0 {
		f.data = nil
	}
	fd := &FD{kind: fdFile, file: f, flags: fl}
	return int64(p.fds.alloc(fd))
}

func (rt *Runtime) sysBrk(p *Proc, addr uint64) uint64 {
	off := addr & 0xffffffff
	if off == 0 {
		return p.Base + p.brk
	}
	if off < p.brk {
		return p.Base + p.brk // shrinking not supported; report current
	}
	if off >= core.SandboxSize/2 {
		return errRet(ENOMEM)
	}
	start := rt.pageUp(p.brk)
	end := rt.pageUp(off)
	if end > start {
		if err := rt.AS.Map(p.Base+start, end-start, mem.PermRW); err != nil {
			return errRet(ENOMEM)
		}
	}
	p.brk = off
	return p.Base + p.brk
}

func (rt *Runtime) sysMmap(p *Proc, length uint64) uint64 {
	length = rt.pageUp(length)
	if length == 0 || p.mmap+length > core.SandboxSize-core.GuardSize-rt.cfg.StackSize {
		return errRet(ENOMEM)
	}
	off := p.mmap
	if err := rt.AS.Map(p.Base+off, length, mem.PermRW); err != nil {
		return errRet(ENOMEM)
	}
	p.mmap = off + length
	return p.Base + off
}

func (rt *Runtime) sysMunmap(p *Proc, addr, length uint64) int64 {
	off := addr & 0xffffffff
	length = rt.pageUp(length)
	if off%rt.cfg.PageSize != 0 || length == 0 {
		return -EINVAL
	}
	if off+length > core.SandboxSize {
		return -EINVAL
	}
	if err := rt.AS.Unmap(p.Base+off, length); err != nil {
		return -EINVAL
	}
	return 0
}

// sysFork implements single-address-space fork (§5.3): the parent is
// snapshotted in place and restored into a fresh slot, so the two share
// every page until one of them writes it. The child resumes at the call's
// return with x0 = 0; restore rebases its address-bearing registers, and
// the guards replace the top 32 bits of the rest at every use, which is
// exactly what makes fork work in one address space.
func (rt *Runtime) sysFork(p *Proc) action {
	pages, err := rt.AS.SnapshotRange(p.Base, core.SandboxSize)
	if err != nil {
		return rt.resume(p, errRet(ENOMEM))
	}
	rt.saveRegs(p) // we are inside the call
	s := &Snapshot{pages: pages, regs: p.Regs, brk: p.brk, mmap: p.mmap, segHi: p.segHi, pageSize: rt.cfg.PageSize}
	s.regs.X[0], s.regs.PC = 0, s.regs.X[30]
	child, err := rt.restore(s, p)
	if err != nil {
		return rt.resume(p, errRet(ENOMEM))
	}
	p.children = append(p.children, child)
	rt.Start(child)
	return rt.resume(p, uint64(child.PID))
}

// sysWait reaps a zombie child, or blocks until a child exits:
// RTWait(status). A status pointer the sandbox cannot write fails with
// -EFAULT before anything is reaped or blocked on, so the child is left
// for the next wait.
func (rt *Runtime) sysWait(p *Proc, statusPtr uint64) action {
	if len(p.children) == 0 {
		return rt.resume(p, errRet(ECHILD))
	}
	if statusPtr != 0 {
		if _, ok := rt.span(p, statusPtr, 4, mem.AccessWrite); !ok {
			return rt.resume(p, errRet(EFAULT))
		}
	}
	for _, c := range p.children {
		if c.State == ProcZombie {
			rt.reap(p, c, statusPtr)
			return rt.resume(p, uint64(c.PID))
		}
	}
	// Block until a child exits.
	rt.resume(p, 0)
	rt.saveRegs(p)
	p.State = ProcBlocked
	p.block = blockChild
	p.waitStatus = statusPtr
	return rt.blockSwitch(p)
}

// reap collects a zombie child, writing its status if requested;
// sysWait has checked that statusPtr is writable.
func (rt *Runtime) reap(p, c *Proc, statusPtr uint64) {
	if statusPtr != 0 {
		if s, ok := rt.span(p, statusPtr, 4, mem.AccessWrite); ok {
			var b [4]byte
			binary.LittleEndian.PutUint32(b[:], uint32(c.Exit))
			rt.copyIn(s, 0, b[:])
		}
	}
	p.children = slices.DeleteFunc(p.children, func(q *Proc) bool { return q == c })
	rt.removeProc(c)
}

// completeWait finishes a blocked wait() when a child has become a zombie.
func (rt *Runtime) completeWait(p *Proc) {
	for _, c := range p.children {
		if c.State == ProcZombie {
			rt.reap(p, c, p.waitStatus)
			p.Regs.X[0] = uint64(c.PID)
			rt.makeReady(p)
			return
		}
	}
}

// sysYield implements the fast direct yield (§5.3): control transfers
// straight to the target sandbox without a scheduler pass, saving and
// restoring only what a cross-domain call needs. The call returns the
// yielding process's pid in the target. Yielding to a dead, blocked, or
// nonexistent process returns -ESRCH to the yielder (pinned by
// TestYieldDeadPeer); yielding to pid 0 is a plain scheduler yield.
func (rt *Runtime) sysYield(p *Proc, target uint64) action {
	// Charge the cheap path instead of the full host-call cost.
	rt.charge(rt.ticks.yieldDelta)
	// An explicit yield hands scheduling decisions back to the runtime;
	// requeue any parked hand-back target so it stays schedulable (and so
	// yielding *to* it finds it in a consistent state).
	rt.reclaimHandoff()

	var t *Proc
	if target != 0 {
		t = rt.proc(int(int32(uint32(target))))
		if t == nil || (t.State != ProcReady && t.State != ProcRunning) {
			return rt.resume(p, errRet(ESRCH))
		}
	} else {
		// Yield to the scheduler.
		rt.resume(p, 0)
		rt.saveRegs(p)
		rt.makeReady(p)
		return actResched
	}

	// Position the yielder at its return point, then save and requeue it.
	rt.resume(p, 0)
	rt.saveRegs(p)
	rt.makeReady(p)

	// The target resumes with x0 = yielder pid.
	t.Regs.X[0] = uint64(p.PID)
	// Remove the target from the ready queue; the dispatcher switches to
	// it directly.
	for i, q := range rt.ready {
		if q == t {
			rt.ready = append(rt.ready[:i], rt.ready[i+1:]...)
			break
		}
	}
	rt.switchTarget = t
	return actSwitch
}

// sysPipe checks the fd pointer before it allocates, so a faulting pipe()
// leaves no descriptor or pipe behind.
func (rt *Runtime) sysPipe(p *Proc, ptr uint64) int64 {
	s, ok := rt.span(p, ptr, 8, mem.AccessWrite)
	if !ok {
		return -EFAULT
	}
	pp := &pipe{readers: 1, writers: 1}
	r := p.fds.alloc(&FD{kind: fdPipeRead, pipe: pp})
	w := p.fds.alloc(&FD{kind: fdPipeWrite, pipe: pp})
	if r < 0 || w < 0 {
		p.fds.close(r) // r may have taken the table's last slot
		return -EMFILE
	}
	var b [8]byte
	binary.LittleEndian.PutUint32(b[0:], uint32(r))
	binary.LittleEndian.PutUint32(b[4:], uint32(w))
	rt.copyIn(s, 0, b[:])
	return 0
}

func (rt *Runtime) sysKill(p *Proc, pid uint64) int64 {
	t := rt.proc(int(int32(uint32(pid))))
	if t == nil || t == p {
		return -ESRCH
	}
	rt.kill(t, 128+9)
	return 0
}
