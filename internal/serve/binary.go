package serve

import (
	"bufio"
	"context"
	"net"
	"sync"

	"lfi/internal/pool"
)

// ServeBinary accepts binary-protocol connections on ln until the
// listener fails or the server closes. Each connection multiplexes any
// number of in-flight requests; responses are written as their jobs
// resolve, tagged with the request id. Call in its own goroutine.
func (s *Server) ServeBinary(ln net.Listener) error {
	s.connMu.Lock()
	if s.listeners == nil {
		s.listeners = make(map[net.Listener]struct{})
	}
	s.listeners[ln] = struct{}{}
	s.connMu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.closing() {
				return nil
			}
			return err
		}
		bc := &binConn{s: s, c: c, out: make(chan frame, 256)}
		bc.ctx, bc.cancel = context.WithCancel(s.baseCtx)
		s.connMu.Lock()
		if s.closed {
			s.connMu.Unlock()
			c.Close()
			continue
		}
		s.conns[bc] = struct{}{}
		s.connMu.Unlock()
		s.m.binConns.Inc()
		s.wg.Add(1)
		go bc.serve()
	}
}

// binConn is one binary-protocol connection: a reader that decodes and
// dispatches request frames, a writer that serializes response frames,
// and one goroutine per in-flight request in between.
type binConn struct {
	s      *Server
	c      net.Conn
	out    chan frame
	ctx    context.Context
	cancel context.CancelFunc
	reqWG  sync.WaitGroup
	once   sync.Once
}

// closeConn forces the connection shut (server shutdown path); the
// reader unblocks with an error and tears the rest down.
func (bc *binConn) closeConn() { bc.once.Do(func() { bc.c.Close() }) }

func (bc *binConn) serve() {
	defer bc.s.wg.Done()
	writerDone := make(chan struct{})
	go bc.writer(writerDone)

	br := bufio.NewReaderSize(bc.c, 64<<10)
	for {
		f, err := readFrame(br)
		if err != nil {
			break // EOF, conn closed, or protocol violation: stop reading
		}
		bc.s.m.binFrames.Inc()
		switch f.typ {
		case framePing:
			bc.send(frame{typ: framePong, id: f.id})
		case frameReq:
			bc.handleReq(f)
		default:
			// Unknown frame type from a client: protocol violation.
			bc.send(frame{typ: frameRes, id: f.id, payload: (&binRes{
				kind: kindBadRequest, errmsg: "unknown frame type",
			}).marshal()})
		}
	}
	// Client went away (or shutdown closed the socket): cancel what it
	// was waiting for, then drain the machinery.
	bc.cancel()
	bc.reqWG.Wait()
	close(bc.out)
	<-writerDone
	bc.closeConn()
	bc.s.connMu.Lock()
	delete(bc.s.conns, bc)
	bc.s.connMu.Unlock()
}

// writer serializes frames onto the socket. On a write error it keeps
// draining the channel so request goroutines never block on a dead conn.
func (bc *binConn) writer(done chan<- struct{}) {
	defer close(done)
	bw := bufio.NewWriterSize(bc.c, 64<<10)
	broken := false
	for f := range bc.out {
		if broken {
			continue
		}
		if err := writeFrame(bw, f); err != nil {
			broken = true
			bc.cancel()
			continue
		}
		// Flush when the queue momentarily empties: batches bursts,
		// bounds latency.
		if len(bc.out) == 0 {
			if err := bw.Flush(); err != nil {
				broken = true
				bc.cancel()
			}
		}
	}
	if !broken {
		bw.Flush()
	}
}

func (bc *binConn) send(f frame) { bc.out <- f }

// handleReq decodes one request frame and serves it on its own
// goroutine, so a long job never blocks the read loop (pipelining).
func (bc *binConn) handleReq(f frame) {
	q, err := parseBinReq(f.payload)
	if err != nil {
		bc.send(frame{typ: frameRes, id: f.id, payload: (&binRes{
			kind: kindBadRequest, errmsg: err.Error(),
		}).marshal()})
		return
	}
	bc.s.wg.Add(1)
	bc.reqWG.Add(1)
	go func() {
		defer bc.s.wg.Done()
		defer bc.reqWG.Done()
		bc.runReq(f.id, q)
	}()
}

func (bc *binConn) runReq(id uint64, q *binReq) {
	s := bc.s
	if s.closing() {
		bc.send(frame{typ: frameRes, id: id, payload: (&binRes{
			kind: kindClosed, errmsg: ErrServerClosed.Error(),
		}).marshal()})
		return
	}
	img, err := s.resolveImage(q.image)
	if err != nil {
		bc.send(frame{typ: frameRes, id: id, payload: (&binRes{
			kind: errorCode(err), errmsg: err.Error(),
		}).marshal()})
		return
	}
	spec := &jobSpec{
		tenant: s.tenantFor(q.tenant),
		images: []*pool.Image{img},
		input:  q.input,
		budget: q.budget,
		cold:   q.flags&flagCold != 0,
	}
	res, shard, err := s.run(bc.ctx, spec)
	r := &binRes{shard: uint64(shard)}
	if err != nil {
		r.kind = errorCode(err)
		r.errmsg = err.Error()
	} else {
		r.kind = errorCode(res.Err)
		if res.Err != nil {
			r.errmsg = res.Err.Error()
		}
		r.status = int64(res.Status)
		r.instrs = res.Instrs
		r.worker = uint64(res.Worker)
		r.warm = res.WarmHit
		if q.flags&flagStream != 0 {
			// Hot-path streaming: output rides in chunk frames; the
			// terminal frame stays small.
			bc.sendChunks(id, frameOut, res.Stdout)
			bc.sendChunks(id, frameErrOut, res.Stderr)
		} else {
			r.stdout = res.Stdout
			r.stderr = res.Stderr
		}
	}
	bc.send(frame{typ: frameRes, id: id, payload: r.marshal()})
}

func (bc *binConn) sendChunks(id uint64, typ uint8, data []byte) {
	for off := 0; off < len(data); off += streamChunk {
		end := off + streamChunk
		if end > len(data) {
			end = len(data)
		}
		bc.send(frame{typ: typ, id: id, payload: data[off:end]})
	}
}
