package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"
)

func TestFrameRoundtrip(t *testing.T) {
	frames := []frame{
		{typ: frameReq, id: 1, payload: []byte("hello")},
		{typ: frameRes, id: 1<<63 + 7, payload: bytes.Repeat([]byte{0xAB}, 70000)},
		{typ: framePing, id: 0},
		{typ: frameOut, id: 42, payload: []byte{}},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := writeFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range frames {
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.typ != want.typ || got.id != want.id || !bytes.Equal(got.payload, want.payload) {
			t.Errorf("frame %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := readFrame(&buf); err != io.EOF {
		t.Errorf("read past end: %v, want EOF", err)
	}
}

func TestReadFrameRejectsBadHeader(t *testing.T) {
	good := func() []byte {
		var buf bytes.Buffer
		writeFrame(&buf, frame{typ: frameReq, id: 9, payload: []byte("x")})
		return buf.Bytes()
	}

	badMagic := good()
	badMagic[0] = 0xFF
	if _, err := readFrame(bytes.NewReader(badMagic)); err == nil {
		t.Error("bad magic accepted")
	}

	badVersion := good()
	badVersion[2] = 99
	if _, err := readFrame(bytes.NewReader(badVersion)); err == nil {
		t.Error("bad version accepted")
	}

	oversize := good()
	binary.BigEndian.PutUint32(oversize[4:], maxFramePayload+1)
	if _, err := readFrame(bytes.NewReader(oversize)); err == nil {
		t.Error("oversize payload length accepted")
	}

	truncated := good()
	if _, err := readFrame(bytes.NewReader(truncated[:len(truncated)-1])); err == nil {
		t.Error("truncated payload accepted")
	}
}

func TestWriteFrameRejectsOversizePayload(t *testing.T) {
	err := writeFrame(io.Discard, frame{typ: frameOut, payload: make([]byte, maxFramePayload+1)})
	if err == nil {
		t.Error("oversize payload written")
	}
}

func TestBinReqRoundtrip(t *testing.T) {
	want := &binReq{
		tenant: "pro",
		image:  "sha256:abcdef",
		budget: 1 << 40,
		flags:  flagCold | flagStream,
		input:  []byte("stdin bytes\x00\x01"),
	}
	got, err := parseBinReq(want.marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.tenant != want.tenant || got.image != want.image ||
		got.budget != want.budget || got.flags != want.flags ||
		!bytes.Equal(got.input, want.input) {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

func TestBinResRoundtrip(t *testing.T) {
	want := &binRes{
		kind:   kindDeadline,
		status: -9,
		instrs: 123456789,
		shard:  3,
		worker: 7,
		warm:   true,
		errmsg: "budget exceeded",
		stdout: []byte("partial out"),
		stderr: []byte("partial err"),
	}
	got, err := parseBinRes(want.marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.kind != want.kind || got.status != want.status || got.instrs != want.instrs ||
		got.shard != want.shard || got.worker != want.worker || got.warm != want.warm ||
		got.errmsg != want.errmsg ||
		!bytes.Equal(got.stdout, want.stdout) || !bytes.Equal(got.stderr, want.stderr) {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

func TestParseBinReqMalformed(t *testing.T) {
	full := (&binReq{tenant: "t", image: "img", input: []byte("in")}).marshal()
	// Every strict prefix of a valid payload must be rejected, never
	// panic or silently succeed.
	for n := 0; n < len(full); n++ {
		if _, err := parseBinReq(full[:n]); err == nil {
			t.Errorf("prefix of length %d accepted", n)
		}
	}
	// A length prefix pointing past the buffer must be rejected.
	bad := append(binary.AppendUvarint(nil, 1<<40), 'x')
	if _, err := parseBinReq(bad); err == nil {
		t.Error("runaway length prefix accepted")
	}
}

func TestKindCodesRoundtrip(t *testing.T) {
	for c, k := range kinds {
		name, code := k.name, uint8(c)
		if got := KindCode(name); got != code {
			t.Errorf("KindCode(%q) = %d, want %d", name, got, code)
		}
		if got := KindName(code); got != name {
			t.Errorf("KindName(%d) = %q, want %q", code, got, name)
		}
	}
	if KindCode("no-such-kind") != kindInternal {
		t.Error("unknown kind name should map to internal")
	}
	if KindName(250) != "internal" {
		t.Error("unknown kind code should map to internal")
	}
}

// parseBinRes is the client side of binRes.marshal.
func parseBinRes(p []byte) (*binRes, error) {
	d := decoder{buf: p}
	r := &binRes{
		kind:   d.byte(),
		status: d.varint(),
		instrs: d.uvarint(),
		shard:  d.uvarint(),
		worker: d.uvarint(),
		warm:   d.byte() != 0,
		errmsg: string(d.bytes()),
		stdout: d.bytes(),
		stderr: d.bytes(),
	}
	if d.err != nil {
		return nil, fmt.Errorf("serve: bad response payload: %w", d.err)
	}
	return r, nil
}
