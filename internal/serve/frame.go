package serve

import (
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
)

// The binary protocol is the hot-path alternative to HTTP JSON: a
// length-prefixed frame stream over one TCP connection, multiplexed by a
// client-chosen request id. A client may pipeline any number of requests
// without waiting; responses carry the originating id and may arrive out
// of order. The framing is:
//
//	offset size field
//	0      2    magic 0x4C46 ("LF", big-endian)
//	2      1    version (1)
//	3      1    frame type
//	4      4    payload length (big-endian)
//	8      8    request id (big-endian)
//	16     n    payload
//
// Request payloads mirror JobRequest; response payloads mirror
// JobResponse. With the stream flag set, a response's stdout/stderr
// travel in dedicated chunk frames (frameOut/frameErrOut) preceding the
// terminal frameRes.
const (
	frameMagic   = 0x4C46
	frameVersion = 1

	// headerSize is the fixed frame header length.
	headerSize = 16
	// maxFramePayload bounds a single frame (and therefore a request's
	// input or one output chunk).
	maxFramePayload = 16 << 20
)

// Frame types.
const (
	frameReq    = 1 // client → server: job request
	frameRes    = 2 // server → client: terminal job response
	frameOut    = 3 // server → client: stdout chunk (stream flag)
	frameErrOut = 4 // server → client: stderr chunk (stream flag)
	framePing   = 5 // client → server: liveness probe
	framePong   = 6 // server → client: probe answer
)

// Request flag bits (binReq.flags).
const (
	flagCold   = 1 << 0 // bypass the warm/snapshot path
	flagStream = 1 << 1 // deliver output as chunk frames
)

// Error-kind wire codes, one per ErrorKind string. The binary protocol
// ships the code; KindName maps it back for display.
const (
	kindOK = iota
	kindDeadline
	kindQuota
	kindOverloaded
	kindCanceled
	kindVerify
	kindUnknownImage
	kindClosed
	kindQueueFull
	kindBadRequest
	kindInternal
)

// kinds is the one error-kind table, indexed by wire code: the kind's
// ErrorKind string and the HTTP status it answers with.
var kinds = [...]struct {
	name   string
	status int
}{
	kindOK:           {"ok", http.StatusOK},
	kindDeadline:     {"deadline", http.StatusRequestTimeout},
	kindQuota:        {"quota", http.StatusTooManyRequests},
	kindOverloaded:   {"overloaded", http.StatusServiceUnavailable},
	kindCanceled:     {"canceled", statusClientClosedRequest},
	kindVerify:       {"verify", http.StatusBadRequest},
	kindUnknownImage: {"unknown_image", http.StatusNotFound},
	kindClosed:       {"closed", http.StatusServiceUnavailable},
	kindQueueFull:    {"queue_full", http.StatusServiceUnavailable},
	kindBadRequest:   {"bad_request", http.StatusBadRequest},
	kindInternal:     {"internal", http.StatusInternalServerError},
}

// statusClientClosedRequest is nginx's convention for "the client went
// away before the response"; there is no standard code for it.
const statusClientClosedRequest = 499

// KindCode maps an ErrorKind string to its binary wire code
// (kindInternal for unknown strings).
func KindCode(kind string) uint8 {
	for code, k := range kinds {
		if k.name == kind {
			return uint8(code)
		}
	}
	return kindInternal
}

// KindName maps a binary wire code back to its ErrorKind string.
func KindName(code uint8) string {
	if int(code) < len(kinds) {
		return kinds[code].name
	}
	return "internal"
}

// kindStatus is the HTTP status a result document with this ErrorKind
// answers with.
func kindStatus(kind string) int { return kinds[KindCode(kind)].status }

// frame is one decoded wire frame.
type frame struct {
	typ     uint8
	id      uint64
	payload []byte
}

// writeFrame emits one frame to w.
func writeFrame(w io.Writer, f frame) error {
	if len(f.payload) > maxFramePayload {
		return fmt.Errorf("serve: frame payload %d exceeds limit", len(f.payload))
	}
	var hdr [headerSize]byte
	binary.BigEndian.PutUint16(hdr[0:], frameMagic)
	hdr[2] = frameVersion
	hdr[3] = f.typ
	binary.BigEndian.PutUint32(hdr[4:], uint32(len(f.payload)))
	binary.BigEndian.PutUint64(hdr[8:], f.id)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(f.payload)
	return err
}

// readFrame reads one frame from r, validating magic, version, and
// payload bound.
func readFrame(r io.Reader) (frame, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	if m := binary.BigEndian.Uint16(hdr[0:]); m != frameMagic {
		return frame{}, fmt.Errorf("serve: bad frame magic %#x", m)
	}
	if v := hdr[2]; v != frameVersion {
		return frame{}, fmt.Errorf("serve: unsupported protocol version %d", v)
	}
	n := binary.BigEndian.Uint32(hdr[4:])
	if n > maxFramePayload {
		return frame{}, fmt.Errorf("serve: frame payload %d exceeds limit", n)
	}
	f := frame{typ: hdr[3], id: binary.BigEndian.Uint64(hdr[8:])}
	if n > 0 {
		f.payload = make([]byte, n)
		if _, err := io.ReadFull(r, f.payload); err != nil {
			return frame{}, err
		}
	}
	return f, nil
}

// binReq is the binary request payload (the hot-path subset of
// JobRequest: prepared images only, no inline source).
type binReq struct {
	tenant string
	image  string
	budget uint64
	flags  uint8
	input  []byte
}

func (q *binReq) marshal() []byte {
	b := make([]byte, 0, 32+len(q.tenant)+len(q.image)+len(q.input))
	b = appendBytes(b, []byte(q.tenant))
	b = appendBytes(b, []byte(q.image))
	b = binary.AppendUvarint(b, q.budget)
	b = append(b, q.flags)
	b = appendBytes(b, q.input)
	return b
}

func parseBinReq(p []byte) (*binReq, error) {
	d := decoder{buf: p}
	q := &binReq{
		tenant: string(d.bytes()),
		image:  string(d.bytes()),
		budget: d.uvarint(),
		flags:  d.byte(),
		input:  d.bytes(),
	}
	if d.err != nil {
		return nil, fmt.Errorf("serve: bad request payload: %w", d.err)
	}
	return q, nil
}

// binRes is the binary response payload.
type binRes struct {
	kind   uint8
	status int64
	instrs uint64
	shard  uint64
	worker uint64
	warm   bool
	errmsg string
	stdout []byte
	stderr []byte
}

func (r *binRes) marshal() []byte {
	b := make([]byte, 0, 64+len(r.errmsg)+len(r.stdout)+len(r.stderr))
	b = append(b, r.kind)
	b = binary.AppendVarint(b, r.status)
	b = binary.AppendUvarint(b, r.instrs)
	b = binary.AppendUvarint(b, r.shard)
	b = binary.AppendUvarint(b, r.worker)
	b = append(b, boolByte(r.warm))
	b = appendBytes(b, []byte(r.errmsg))
	b = appendBytes(b, r.stdout)
	b = appendBytes(b, r.stderr)
	return b
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// appendBytes writes a uvarint length prefix followed by the bytes.
func appendBytes(b, v []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

// decoder is a cursor over a payload; the first malformed field sticks
// in err and poisons the rest (callers check once at the end).
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = io.ErrUnexpectedEOF
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || len(d.buf) < 1 {
		d.fail()
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil || uint64(len(d.buf)) < n {
		d.fail()
		return nil
	}
	v := d.buf[:n]
	d.buf = d.buf[n:]
	return v
}
