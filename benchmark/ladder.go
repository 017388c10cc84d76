package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"lfi/internal/lfirt"
	"lfi/internal/pool"
	"lfi/internal/progs"
	"lfi/internal/serve"
)

// climb measures one request's latency rung by rung, on one image,
// sequentially on one connection, the median of ladderCalls calls each:
//
//  1. lfirt.Restore, then Start + RunProc, called directly
//  2. pool.Do (warm, and Job.Cold)
//  3. a binary-protocol round trip
//  4. an HTTP round trip
//
// Each layer's self time is the difference between its rung and the one
// below, so by construction
//
//	http_rtt_us = start_run_us + pool.self_us + serve.http_self_us
//
// and the named layers sum to the end-to-end figure. pool.self_us includes
// the restore that refills the warm pool before the ticket resolves; the
// serve self times include this client's own encode and decode.
func (w *serveWorkload) climb(layers layerSet) error {
	n := w.sz.ladderCalls
	timeUS := func(samples *[]float64, f func() error) error {
		t0 := time.Now()
		err := f()
		*samples = append(*samples, float64(time.Since(t0).Nanoseconds())/1e3)
		return err
	}
	check := func(rung string, stdout []byte) error {
		if string(stdout) != w.ladder.want {
			return fmt.Errorf("%s: stdout %q, payload %q", rung, stdout, w.ladder.want)
		}
		return nil
	}

	// Rung 1: the runtime alone, configured as the pool configures it.
	b, err := progs.Build(w.ladder.src, o2)
	if err != nil {
		return err
	}
	rt := lfirt.New(pool.Config{}.RuntimeConfig())
	var coldLoad, snapshot, restore, startRun []float64
	var snap *lfirt.Snapshot
	// Loading and snapshotting belong to image build, not to a request,
	// and a snapshot costs milliseconds: a tenth of the calls suffices.
	for i := 0; i < max(n/10, 1); i++ {
		var p *lfirt.Proc
		if err := timeUS(&coldLoad, func() (err error) { p, err = rt.Load(b.ELF); return }); err != nil {
			return err
		}
		if err := timeUS(&snapshot, func() (err error) { snap, err = rt.Snapshot(p); return }); err != nil {
			return err
		}
		rt.KillProcess(p, 0)
	}
	for i := 0; i < n; i++ {
		var p *lfirt.Proc
		if err := timeUS(&restore, func() (err error) { p, err = rt.Restore(snap); return }); err != nil {
			return err
		}
		if err := timeUS(&startRun, func() error {
			rt.Start(p)
			_, err := rt.RunProc(p)
			return err
		}); err != nil {
			return err
		}
		if err := check("direct run", p.Stdout()); err != nil {
			return err
		}
	}
	layers.set("lfirt.cold_load_us", median(coldLoad))
	layers.set("lfirt.snapshot_us", median(snapshot))
	layers.set("lfirt.restore_us", median(restore))
	layers.set("lfirt.start_run_us", median(startRun))

	// Rung 2: one worker of a pool of its own.
	pl := pool.New(pool.Config{Workers: 1})
	defer pl.Close()
	img, err := pl.BuildImage(w.ladder.src, o2)
	if err != nil {
		return err
	}
	do := func(samples *[]float64, job pool.Job, calls int) error {
		for i := 0; i < calls; i++ {
			var res *pool.Result
			if err := timeUS(samples, func() (err error) { res, err = pl.Do(job); return }); err != nil {
				return err
			}
			if res.Err != nil {
				return res.Err
			}
			if err := check("pool.Do", res.Stdout); err != nil {
				return err
			}
		}
		return nil
	}
	var doWarm, doCold []float64
	if err := do(&doWarm, pool.Job{Image: img}, n); err != nil {
		return err
	}
	if err := do(&doCold, pool.Job{Image: img, Cold: true}, max(n/4, 1)); err != nil {
		return err
	}
	layers.set("pool.do_us", median(doWarm))
	layers.set("pool.do_cold_us", median(doCold))
	layers.set("pool.self_us", layers.get("pool.do_us")-layers.get("lfirt.start_run_us"))

	// Rungs 3 and 4: the live server, one connection each.
	bc, err := dialBinary(w.binAddr)
	if err != nil {
		return err
	}
	defer bc.c.Close()
	var binRTT, httpRTT []float64
	for i := 0; i < n; i++ {
		var stdout []byte
		if err := timeUS(&binRTT, func() (err error) { stdout, err = bc.do(w.ladder.name); return }); err != nil {
			return err
		}
		if err := check("binary round trip", stdout); err != nil {
			return err
		}
	}
	body := mustJSON(&serve.JobRequest{Image: w.ladder.name})
	for i := 0; i < n; i++ {
		var resp serve.JobResponse
		if err := timeUS(&httpRTT, func() error {
			code, b, err := w.post(w.clients[0], "/v1/jobs", body)
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("HTTP %d: %s", code, b)
			}
			if err != nil {
				return err
			}
			return json.Unmarshal(b, &resp)
		}); err != nil {
			return err
		}
		if err := check("HTTP round trip", []byte(resp.Stdout)); err != nil {
			return err
		}
	}
	layers.set("serve.bin_rtt_us", median(binRTT))
	layers.set("serve.http_rtt_us", median(httpRTT))
	layers.set("serve.bin_self_us", layers.get("serve.bin_rtt_us")-layers.get("pool.do_us"))
	layers.set("serve.http_self_us", layers.get("serve.http_rtt_us")-layers.get("pool.do_us"))
	return nil
}

// binClient speaks the binary protocol one request at a time. The framing
// is the wire format documented in internal/serve/frame.go: a 16-byte
// header (magic "LF", version 1, type, payload length, request id) and a
// payload of length-prefixed fields.
type binClient struct {
	c  net.Conn
	br *bufio.Reader
	id uint64
}

func dialBinary(addr string) (*binClient, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &binClient{c: c, br: bufio.NewReader(c)}, nil
}

const (
	binMagic    = 0x4C46
	binFrameReq = 1
	binFrameRes = 2
)

// do runs one job against a registered image and returns its stdout.
func (bc *binClient) do(image string) ([]byte, error) {
	bc.id++
	lp := func(b, v []byte) []byte { return append(binary.AppendUvarint(b, uint64(len(v))), v...) }
	payload := lp(nil, nil)              // tenant
	payload = lp(payload, []byte(image)) // image
	payload = append(payload, 0, 0)      // budget uvarint 0, flags 0
	payload = lp(payload, nil)           // input
	hdr := make([]byte, 16)
	binary.BigEndian.PutUint16(hdr[0:], binMagic)
	hdr[2], hdr[3] = 1, binFrameReq
	binary.BigEndian.PutUint32(hdr[4:], uint32(len(payload)))
	binary.BigEndian.PutUint64(hdr[8:], bc.id)
	if _, err := bc.c.Write(append(hdr, payload...)); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(bc.br, hdr); err != nil {
		return nil, err
	}
	body := make([]byte, binary.BigEndian.Uint32(hdr[4:]))
	if _, err := io.ReadFull(bc.br, body); err != nil {
		return nil, err
	}
	if hdr[3] != binFrameRes || len(body) == 0 {
		return nil, fmt.Errorf("binary protocol: frame type %d, %d bytes", hdr[3], len(body))
	}
	// Response: kind, status, instrs, shard, worker, warm, errmsg, stdout, stderr.
	kind, rest := body[0], body[1:]
	skipVarint := func() {
		_, n := binary.Uvarint(rest)
		rest = rest[max(n, 0):]
	}
	field := func() []byte {
		l, n := binary.Uvarint(rest)
		if n <= 0 || uint64(len(rest)-n) < l {
			rest = nil
			return nil
		}
		f := rest[n : n+int(l)]
		rest = rest[n+int(l):]
		return f
	}
	for i := 0; i < 4; i++ { // status, instrs, shard, worker
		skipVarint()
	}
	if len(rest) > 0 {
		rest = rest[1:] // warm
	}
	errmsg, stdout := field(), field()
	if kind != 0 {
		return nil, fmt.Errorf("binary protocol: %s: %s", serve.KindName(kind), errmsg)
	}
	return stdout, nil
}
