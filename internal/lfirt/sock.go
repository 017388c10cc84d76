package lfirt

import (
	"fmt"

	"lfi/internal/mem"
	"lfi/internal/obs"
)

// Cross-sandbox IPC (§5.3). The paper's runtime is "a small in-process
// Unix" whose fast direct yield exists to make microkernel-style IPC
// cheap; this file supplies the data plane that rides on it. Endpoints
// are socket descriptors in the ordinary fdTable, so they are shared
// across fork, closed by kill, and reference counted like every other
// description. Three endpoint types:
//
//   - SockStream: connection-oriented byte streams. A bound socket is a
//     listener; RTConnect enqueues a connection that RTAccept pops.
//   - SockDgram: connectionless framed messages to a bound port. Message
//     boundaries are preserved; each RTRecv returns one message.
//   - SockRing: a bounded shared-memory ring channel pair between two
//     co-scheduled sandboxes. Rendezvous is bind/connect with no accept
//     step: the first connector pairs directly with the binder.
//
// All transfers are copied by the runtime between sandboxes in the one
// shared address space — no host kernel crossing, which is the property
// the paper's IPC numbers depend on. Sends are all-or-nothing: a message
// larger than the remaining ring space returns -EAGAIN (backpressure)
// rather than depositing a partial record, so concurrent producers never
// interleave mid-record.

// Socket types (RTSocket's first argument).
const (
	SockStream = 0
	SockDgram  = 1
	SockRing   = 2
)

const (
	// MaxPort bounds the runtime-wide port namespace (1..MaxPort).
	MaxPort = 65535
	// DefaultChanCap is the ring/queue capacity when RTSocket's second
	// argument is zero.
	DefaultChanCap = 16 * 1024
	// MaxChanCap bounds a requested channel capacity.
	MaxChanCap = 1 << 20
	// acceptBacklog bounds pending un-accepted stream connections.
	acceptBacklog = 16
	// maxChanGauges caps how many per-channel depth gauges a runtime
	// registers; channels beyond it are still counted in the aggregate
	// metrics but do not get a dedicated gauge (the registry keeps every
	// name forever, so unbounded per-channel names would leak in
	// long-lived serving runtimes).
	maxChanGauges = 32
)

// ipcState is the runtime-wide IPC state: the port table and the
// observability instruments shared by all sockets of one runtime.
type ipcState struct {
	binds   map[int]*sock // port → bound socket
	chanSeq int           // channel ids handed to rings/queues

	reg           *obs.Registry
	obsTag        int
	mSends        *obs.Counter // completed RTSend deposits
	mRecvs        *obs.Counter // completed RTRecv transfers
	mHandoffs     *obs.Counter // sends that direct-switched to a blocked receiver
	mHandbacks    *obs.Counter // blocks that direct-switched back to a parked sender
	mBackpressure *obs.Counter // sends rejected with -EAGAIN (ring full)
	mVSubmits     *obs.Counter // vectored batches accepted
	mVOps         *obs.Counter // vectored operations executed
}

func newIPCState(reg *obs.Registry, tag int) *ipcState {
	return &ipcState{
		binds:         make(map[int]*sock),
		reg:           reg,
		obsTag:        tag,
		mSends:        reg.Counter("rt.ipc.sends"),
		mRecvs:        reg.Counter("rt.ipc.recvs"),
		mHandoffs:     reg.Counter("rt.ipc.handoffs"),
		mHandbacks:    reg.Counter("rt.ipc.handbacks"),
		mBackpressure: reg.Counter("rt.ipc.backpressure"),
		mVSubmits:     reg.Counter("rt.ipc.vsubmits"),
		mVOps:         reg.Counter("rt.ipc.vops"),
	}
}

// depthGauge returns the per-channel depth gauge for a new channel id,
// or nil once the per-runtime gauge budget is spent.
func (ipc *ipcState) depthGauge(id int) *obs.Gauge {
	if id >= maxChanGauges {
		return nil
	}
	return ipc.reg.Gauge(fmt.Sprintf("rt.chan.%d.%d.depth", ipc.obsTag, id))
}

// chanRing is one direction of a bounded byte channel: a fixed-capacity
// ring buffer, so a deposit and a receive cost their bytes and nothing
// else. Deposits are all-or-nothing; depth is mirrored into an obs gauge
// when one exists.
type chanRing struct {
	buf   []byte // len(buf) is the capacity
	head  int    // index of the oldest queued byte
	n     int    // bytes queued
	depth *obs.Gauge
}

func (ipc *ipcState) newRing(capacity int) *chanRing {
	ipc.chanSeq++
	return &chanRing{buf: make([]byte, capacity), depth: ipc.depthGauge(ipc.chanSeq - 1)}
}

func (r *chanRing) len() int  { return r.n }
func (r *chanRing) free() int { return len(r.buf) - r.n }

// segments returns the k ring bytes that start off bytes past the oldest
// queued one, in two segments; the second is empty unless the run wraps.
// segments(0, k) is the front of the queue, segments(len(), k) the free
// space behind it. The caller resolves the guest side of the copy first
// and copies, commits or consumes only once it has, so a faulting send
// deposits nothing and a faulting recv loses nothing.
func (r *chanRing) segments(off, k int) (a, b []byte) {
	start := r.head + off
	if start >= len(r.buf) {
		start -= len(r.buf)
	}
	if end := start + k; end > len(r.buf) {
		return r.buf[start:], r.buf[:end-len(r.buf)]
	}
	return r.buf[start : start+k], nil
}

// commit queues the k bytes just written behind the queued data.
func (r *chanRing) commit(k int) {
	r.n += k
	r.depth.Set(int64(r.n))
}

// consume drops the k oldest bytes.
func (r *chanRing) consume(k int) {
	r.head += k
	if r.head >= len(r.buf) {
		r.head -= len(r.buf)
	}
	r.n -= k
	r.depth.Set(int64(r.n))
}

// msgq is a bounded queue of framed datagrams owned by a bound dgram
// socket. Capacity is accounted in payload bytes.
type msgq struct {
	msgs  [][]byte
	bytes int
	cap   int
	depth *obs.Gauge
}

func (ipc *ipcState) newMsgq(capacity int) *msgq {
	ipc.chanSeq++
	return &msgq{cap: capacity, depth: ipc.depthGauge(ipc.chanSeq - 1)}
}

func (q *msgq) push(m []byte) {
	q.msgs = append(q.msgs, m)
	q.bytes += len(m)
	q.depth.Set(int64(q.bytes))
}

func (q *msgq) pop() {
	q.bytes -= len(q.msgs[0])
	q.msgs = q.msgs[1:]
	q.depth.Set(int64(q.bytes))
}

// sconn is one established connection: two rings, one per direction.
// buf[i] holds the bytes readable by side i; open[i] reports whether
// side i's endpoint is still open.
type sconn struct {
	buf  [2]*chanRing
	open [2]bool
}

func (ipc *ipcState) newConn(capacity int) *sconn {
	return &sconn{
		buf:  [2]*chanRing{ipc.newRing(capacity), ipc.newRing(capacity)},
		open: [2]bool{true, true},
	}
}

// sock is the state behind one socket descriptor.
type sock struct {
	typ int
	ipc *ipcState
	cap int

	port int // bound port (0 = unbound)

	// Established connection endpoint (stream after connect/accept, ring
	// after pairing). side selects which direction of conn we read.
	conn *sconn
	side int

	// Stream listener state: pending un-accepted connections.
	accq []*sconn

	// Dgram state: peer set by connect (send destination), q owned by a
	// bound socket (recv source).
	peer *sock
	q    *msgq

	closed bool
}

// close tears the socket down once its last descriptor reference drops:
// the port unbinds, the connected peer observes EOF/EPIPE, and pending
// un-accepted connections are refused.
func (s *sock) close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.port != 0 && s.ipc.binds[s.port] == s {
		delete(s.ipc.binds, s.port)
	}
	if s.conn != nil {
		s.conn.open[s.side] = false
	}
	for _, c := range s.accq {
		c.open[1] = false // listener died before accepting
	}
	s.accq = nil
	if s.q != nil {
		// Drop queued datagrams; the gauge reads zero for a dead channel.
		s.q.msgs = nil
		s.q.bytes = 0
		s.q.depth.Set(0)
	}
}

// sysSocket creates an endpoint: RTSocket(type, capacity) → fd.
func (rt *Runtime) sysSocket(p *Proc, typ, capacity uint64) int64 {
	t := int(int64(typ))
	switch t {
	case SockStream, SockDgram, SockRing:
	default:
		return -EINVAL
	}
	c := int64(capacity)
	if c < 0 || c > MaxChanCap {
		return -EINVAL
	}
	if c == 0 {
		c = DefaultChanCap
	}
	s := &sock{typ: t, ipc: rt.ipc, cap: int(c)}
	return int64(p.fds.alloc(&FD{kind: fdSock, sock: s}))
}

// sysBind attaches a socket to a runtime-wide port: RTBind(fd, port).
// A bound stream socket is a listener; a bound dgram socket owns the
// receive queue for its port; a bound ring socket is the passive side
// of a rendezvous.
func (rt *Runtime) sysBind(p *Proc, fdn, port uint64) int64 {
	fd := p.fds.get(int(int32(uint32(fdn))))
	if fd == nil {
		return -EBADF
	}
	s := fd.sock
	if s == nil {
		return -ENOTSOCK
	}
	pt := int(int64(port))
	if pt <= 0 || pt > MaxPort {
		return -EINVAL
	}
	if s.conn != nil || s.peer != nil {
		return -EISCONN
	}
	if s.port != 0 {
		return -EINVAL // already bound
	}
	if rt.ipc.binds[pt] != nil {
		return -EADDRINUSE
	}
	rt.ipc.binds[pt] = s
	s.port = pt
	if s.typ == SockDgram {
		s.q = rt.ipc.newMsgq(s.cap)
	}
	return 0
}

// sysConnect establishes communication with the socket bound at port:
// RTConnect(fd, port). Streams enqueue a connection for the listener to
// accept (data may flow immediately); dgrams set the default send
// destination; rings pair directly with the binder.
func (rt *Runtime) sysConnect(p *Proc, fdn, port uint64) int64 {
	fd := p.fds.get(int(int32(uint32(fdn))))
	if fd == nil {
		return -EBADF
	}
	s := fd.sock
	if s == nil {
		return -ENOTSOCK
	}
	pt := int(int64(port))
	if pt <= 0 || pt > MaxPort {
		return -EINVAL
	}
	if s.conn != nil || s.peer != nil {
		return -EISCONN
	}
	b := rt.ipc.binds[pt]
	if b == nil || b.closed {
		return -ECONNREFUSED
	}
	if b == s {
		return -EINVAL // self-connect
	}
	if b.typ != s.typ {
		return -ECONNREFUSED
	}
	switch s.typ {
	case SockDgram:
		s.peer = b
		return 0
	case SockStream:
		if s.port != 0 {
			return -EINVAL // a listener cannot also connect
		}
		if len(b.accq) >= acceptBacklog {
			return -ECONNREFUSED
		}
		c := rt.ipc.newConn(b.cap)
		s.conn, s.side = c, 0
		b.accq = append(b.accq, c)
		rt.markWake() // a blocked accepter can pop this connection
		return 0
	default: // SockRing
		if s.port != 0 {
			return -EINVAL // the bound ring is the passive side
		}
		if b.conn != nil {
			return -ECONNREFUSED // already paired
		}
		c := rt.ipc.newConn(b.cap)
		b.conn, b.side = c, 1
		s.conn, s.side = c, 0
		rt.markWake() // a recv parked on the passive ring can now pair
		return 0
	}
}

// doAccept attempts to pop one pending connection; -EAGAIN means the
// caller should block. Shared by the syscall path and wakeBlocked.
func (rt *Runtime) doAccept(p *Proc, fd *FD) int64 {
	s := fd.sock
	if s == nil {
		return -ENOTSOCK
	}
	if s.typ != SockStream || s.port == 0 {
		return -EINVAL
	}
	if len(s.accq) == 0 {
		return -EAGAIN
	}
	ns := &sock{typ: SockStream, ipc: s.ipc, cap: s.cap, conn: s.accq[0], side: 1}
	n := p.fds.alloc(&FD{kind: fdSock, sock: ns})
	if n < 0 {
		return int64(n) // table full; leave the connection pending
	}
	s.accq = s.accq[1:]
	return int64(n)
}

// sysAccept pops a pending stream connection, blocking the caller until
// one arrives: RTAccept(fd) → new fd.
func (rt *Runtime) sysAccept(p *Proc, fdn uint64) action {
	fd := p.fds.get(int(int32(uint32(fdn))))
	if fd == nil {
		return rt.resume(p, errRet(EBADF))
	}
	n := rt.doAccept(p, fd)
	if n == -EAGAIN {
		rt.block(p, blockAccept, int(int32(uint32(fdn))), fdn, 0, 0)
		return rt.blockSwitch(p)
	}
	return rt.resume(p, uint64(n))
}

// sendDst names the receive side a deposit landed on — the bound dgram
// socket that owns the queue, or one side of a connection — so the sender
// can find a receiver blocked on it. The zero value means nothing was
// deposited.
type sendDst struct {
	dgram *sock
	conn  *sconn
	side  int
}

// reads reports whether a receive on r drains what was deposited at d.
func (d sendDst) reads(r *sock) bool {
	if d.dgram != nil {
		return r == d.dgram
	}
	return d.conn != nil && r.conn == d.conn && r.side == d.side
}

// doSend deposits the message, returning bytes sent or -errno, plus where
// the deposit landed (zero when nothing was deposited).
func (rt *Runtime) doSend(p *Proc, fd *FD, ptr, n uint64) (int64, sendDst) {
	s := fd.sock
	if s == nil {
		return -ENOTSOCK, sendDst{}
	}
	if n > maxIOSize {
		return -EMSGSIZE, sendDst{}
	}
	switch s.typ {
	case SockDgram:
		dst := s.peer
		if dst == nil {
			return -ENOTCONN, sendDst{}
		}
		if dst.closed || dst.q == nil {
			return -EPIPE, sendDst{}
		}
		if int(n) > dst.q.cap {
			return -EMSGSIZE, sendDst{}
		}
		if dst.q.bytes+int(n) > dst.q.cap {
			return -EAGAIN, sendDst{}
		}
		src, ok := rt.span(p, ptr, n, mem.AccessRead)
		if !ok {
			return -EFAULT, sendDst{}
		}
		msg := make([]byte, n) // owned by the queue until received
		rt.copyOut(msg, src, 0)
		dst.q.push(msg)
		rt.markWake()
		return int64(n), sendDst{dgram: dst}
	default: // SockStream, SockRing
		if s.conn == nil {
			if s.typ == SockStream && s.port != 0 {
				return -EINVAL, sendDst{} // a listener does not carry data
			}
			return -ENOTCONN, sendDst{} // incl. a not-yet-paired passive ring
		}
		c, dstSide := s.conn, 1-s.side
		if !c.open[dstSide] {
			return -EPIPE, sendDst{}
		}
		ring := c.buf[dstSide]
		if int(n) > len(ring.buf) {
			return -EMSGSIZE, sendDst{}
		}
		if n == 0 {
			return 0, sendDst{}
		}
		if int(n) > ring.free() {
			return -EAGAIN, sendDst{}
		}
		src, ok := rt.span(p, ptr, n, mem.AccessRead)
		if !ok {
			return -EFAULT, sendDst{}
		}
		a, b := ring.segments(ring.len(), int(n))
		rt.copyOut(a, src, 0)
		rt.copyOut(b, src, uint64(len(a)))
		ring.commit(int(n))
		rt.markWake()
		return int64(n), sendDst{conn: c, side: dstSide}
	}
}

// doRecv attempts one receive; -EAGAIN means the caller should block.
// The destination pointer is validated before any data is consumed, so
// an -EFAULT recv never loses bytes. Shared by the syscall path,
// wakeBlocked, and the send-side handoff.
func (rt *Runtime) doRecv(p *Proc, fd *FD, ptr, n uint64) int64 {
	s := fd.sock
	if s == nil {
		return -ENOTSOCK
	}
	if n > maxIOSize {
		n = maxIOSize
	}
	switch s.typ {
	case SockDgram:
		if s.port == 0 || s.q == nil {
			return -ENOTCONN
		}
		if s.closed {
			return 0
		}
		if len(s.q.msgs) == 0 {
			return -EAGAIN
		}
		msg := s.q.msgs[0]
		k := int(n)
		if k > len(msg) {
			k = len(msg)
		}
		dst, ok := rt.span(p, ptr, uint64(k), mem.AccessWrite)
		if !ok {
			return -EFAULT
		}
		rt.copyIn(dst, 0, msg[:k])
		s.q.pop() // a datagram is consumed whole; excess bytes are truncated
		rt.ipc.mRecvs.Inc()
		return int64(k)
	default: // SockStream, SockRing
		if s.conn == nil {
			if s.typ == SockRing && s.port != 0 {
				return -EAGAIN // bound passive ring: block until rendezvous
			}
			if s.port != 0 {
				return -EINVAL // a stream listener does not carry data
			}
			return -ENOTCONN
		}
		ring := s.conn.buf[s.side]
		if ring.len() == 0 {
			if !s.conn.open[1-s.side] {
				return 0 // peer closed and drained: EOF
			}
			return -EAGAIN
		}
		if n == 0 {
			return 0
		}
		k := min(int(n), ring.len())
		dst, ok := rt.span(p, ptr, uint64(k), mem.AccessWrite)
		if !ok {
			return -EFAULT
		}
		a, b := ring.segments(0, k)
		rt.copyIn(dst, 0, a)
		rt.copyIn(dst, uint64(len(a)), b)
		ring.consume(k)
		rt.ipc.mRecvs.Inc()
		return int64(k)
	}
}

// sysRecv receives bytes (stream/ring) or one datagram: RTRecv(fd, ptr,
// len). An empty channel with a live peer parks the process in the
// scheduler until a send arrives.
func (rt *Runtime) sysRecv(p *Proc, fdn, ptr, n uint64) action {
	fd := p.fds.get(int(int32(uint32(fdn))))
	if fd == nil {
		return rt.resume(p, errRet(EBADF))
	}
	r := rt.doRecv(p, fd, ptr, n)
	if r == -EAGAIN {
		rt.block(p, blockRecv, int(int32(uint32(fdn))), fdn, ptr, n)
		return rt.blockSwitch(p)
	}
	return rt.resume(p, uint64(r))
}

// sysSend deposits bytes into the peer's ring (or the destination dgram
// queue): RTSend(fd, ptr, len). When the deposit satisfies a receiver
// blocked in RTRecv, control transfers to it directly on the paper's
// fast yield path — no scheduler pass — charged at the yield cost.
func (rt *Runtime) sysSend(p *Proc, fdn, ptr, n uint64) action {
	fd := p.fds.get(int(int32(uint32(fdn))))
	if fd == nil {
		return rt.resume(p, errRet(EBADF))
	}
	sent, dst := rt.doSend(p, fd, ptr, n)
	if sent < 0 {
		if sent == -EAGAIN {
			rt.ipc.mBackpressure.Inc()
		}
		return rt.resume(p, uint64(sent))
	}
	rt.ipc.mSends.Inc()
	if sent == 0 {
		return rt.resume(p, uint64(sent))
	}

	t := rt.findRecvWaiter(dst)
	if t == nil || !rt.completeWaiter(t) {
		return rt.resume(p, uint64(sent))
	}
	// The deposit satisfied a blocked receiver: hand off directly. The
	// sender parks in the hand-back slot (ready, unqueued) so that when
	// the receiver blocks again control returns to it at yield cost —
	// a send→recv ping-pong then never takes a scheduler pass.
	rt.charge(rt.ticks.yieldDelta)
	rt.ipc.mHandoffs.Inc()
	rt.resume(p, uint64(sent))
	rt.saveRegs(p)
	p.State = ProcReady
	rt.setHandback(p)
	rt.switchTarget = t
	return actSwitch
}

// completeWaiter completes a blocked receiver t after a deposit matched
// it: a parked RTRecv is retried against its staged arguments, a parked
// RTVSubmit batch is re-stepped from its blocked op. Returns true when t
// became ProcReady — left unqueued, so the caller decides whether to
// switch to it, park it as the hand-back target, or requeue it.
func (rt *Runtime) completeWaiter(t *Proc) bool {
	switch t.block {
	case blockRecv:
		tfd := t.fds.get(t.waitingFD)
		r := rt.doRecv(t, tfd, t.Regs.X[1], t.Regs.X[2])
		if r == -EAGAIN {
			return false // racing consumer drained it first
		}
		t.Regs.X[0] = uint64(r)
		t.block = blockNone
		t.State = ProcReady
		return true
	case blockVSubmit:
		return rt.resumeVBatchParked(t)
	}
	return false
}

// findRecvWaiter returns the lowest-PID process blocked in RTRecv — or
// parked mid-RTVSubmit on a recv op — against a socket that reads what
// was deposited at dst: the first match in the PID-ordered table, which
// keeps handoff deterministic under multiple consumers.
func (rt *Runtime) findRecvWaiter(dst sendDst) *Proc {
	for _, q := range rt.procs {
		if q.State != ProcBlocked || (q.block != blockRecv && q.block != blockVSubmit) {
			continue
		}
		if fd := q.fds.get(q.waitingFD); fd != nil && fd.sock != nil && dst.reads(fd.sock) {
			return q
		}
	}
	return nil
}

// block parks p in the scheduler mid-call: the return point is staged,
// registers are saved with the original call arguments in X[0..2] so
// wakeBlocked (and the send handoff) can retry the operation later.
func (rt *Runtime) block(p *Proc, kind blockKind, fdn int, a0, a1, a2 uint64) {
	rt.resume(p, 0) // position PC at the return point first
	rt.saveRegs(p)
	p.Regs.X[0] = a0
	p.Regs.X[1] = a1
	p.Regs.X[2] = a2
	p.State = ProcBlocked
	p.block = kind
	p.waitingFD = fdn
}
