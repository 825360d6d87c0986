package proto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"
)

func TestHelloRoundTrip(t *testing.T) {
	req := &Request{ID: 7, Op: OpHello, Ver: MaxVersion, Feats: AllFeatures}
	got := roundTripReq(t, req)
	normReq(got)
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("hello request round trip:\n got %+v\nwant %+v", got, req)
	}

	resp := &Response{ID: 7, Op: OpHello, Ver: Version2, Feats: FeatCRC}
	frame, err := AppendResponse(nil, resp)
	if err != nil {
		t.Fatalf("AppendResponse: %v", err)
	}
	body, _, err := ReadFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	var dec Response
	if err := DecodeResponse(body, &dec); err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	normResp(&dec)
	if !reflect.DeepEqual(&dec, resp) {
		t.Fatalf("hello response round trip:\n got %+v\nwant %+v", &dec, resp)
	}
}

func TestScanStreamRoundTrips(t *testing.T) {
	reqs := []*Request{
		{ID: 1, Op: OpScanStart, Key: 42, ScanMax: 1 << 40, Max: 512, Credits: 8},
		{ID: 1, Op: OpScanStart, Key: 0, ScanMax: 0, Max: 1, Credits: 1, TimeoutMS: 250},
		{ID: 1, Op: OpScanCredit, Credits: 3},
		{ID: 1, Op: OpScanCancel},
	}
	for _, r := range reqs {
		got := roundTripReq(t, r)
		normReq(got)
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("%v round trip:\n got %+v\nwant %+v", r.Op, got, r)
		}
	}

	resps := []*Response{
		{ID: 1, Op: OpScanStart, Status: StatusBadRequest, Msg: "no such stream"},
		{ID: 1, Op: OpScanChunk, Keys: []uint64{1, 2, 3}, Vals: []uint64{10, 20, 30}},
		{ID: 1, Op: OpScanChunk},
		{ID: 1, Op: OpScanEnd, Val: 1 << 20},
		{ID: 1, Op: OpScanEnd, Status: StatusShuttingDown, Msg: "draining"},
	}
	for _, r := range resps {
		frame, err := AppendResponse(nil, r)
		if err != nil {
			t.Fatalf("%v AppendResponse: %v", r.Op, err)
		}
		body, _, err := ReadFrame(bytes.NewReader(frame), nil)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		var dec Response
		if err := DecodeResponse(body, &dec); err != nil {
			t.Fatalf("%v DecodeResponse: %v", r.Op, err)
		}
		normResp(&dec)
		want := *r
		normResp(&want)
		if !reflect.DeepEqual(dec, want) {
			t.Fatalf("%v round trip:\n got %+v\nwant %+v", r.Op, dec, want)
		}
	}
}

func TestScanStartLimits(t *testing.T) {
	bad := []*Request{
		{Op: OpScanStart, Max: 0, Credits: 1},                  // zero chunk
		{Op: OpScanStart, Max: MaxScan + 1, Credits: 1},        // oversized chunk
		{Op: OpScanStart, Max: 1, Credits: 0},                  // zero credits
		{Op: OpScanStart, Max: 1, Credits: MaxScanCredits + 1}, // oversized credits
		{Op: OpScanCredit, Credits: 0},
		{Op: OpScanCredit, Credits: MaxScanCredits + 1},
	}
	for _, r := range bad {
		if _, err := AppendRequest(nil, r); !errors.Is(err, ErrLimit) {
			t.Errorf("%+v: AppendRequest err = %v, want ErrLimit", r, err)
		}
	}
	// The decoder must enforce the same limits on a hand-forged frame.
	body := appendU64(nil, 1)                // id
	body = append(body, byte(OpScanStart))   // op
	body = appendU64(body, 0)                // start
	body = appendU64(body, 0)                // scan max
	body = appendU32(body, 1)                // chunk
	body = appendU32(body, MaxScanCredits+1) // credits — over limit
	var req Request
	if err := DecodeRequest(body, &req); !errors.Is(err, ErrLimit) {
		t.Errorf("forged credits: DecodeRequest err = %v, want ErrLimit", err)
	}
}

// TestResponseOnlyOpcodesRejectedAsRequests pins the request/response opcode
// split: chunk and end frames must never decode as requests.
func TestResponseOnlyOpcodesRejectedAsRequests(t *testing.T) {
	for _, op := range []Opcode{OpScanChunk, OpScanEnd} {
		if op.Valid() {
			t.Errorf("%v.Valid() = true, want false (response-only)", op)
		}
		if !op.ValidResponse() {
			t.Errorf("%v.ValidResponse() = false, want true", op)
		}
		body := appendU64(nil, 1)
		body = append(body, byte(op))
		var req Request
		if err := DecodeRequest(body, &req); !errors.Is(err, ErrBadOpcode) {
			t.Errorf("%v as request: err = %v, want ErrBadOpcode", op, err)
		}
	}
}

// TestOverloadRetryAfterVersions pins the one point where v1 and v2 response
// encodings differ: the typed retry-after field of a StatusOverload response.
func TestOverloadRetryAfterVersions(t *testing.T) {
	src := &Response{ID: 9, Op: OpGet, Status: StatusOverload, RetryAfterMS: 75, Msg: "75ms"}

	// v2: the typed field survives the wire.
	frame, err := AppendResponseV(nil, src, Version2)
	if err != nil {
		t.Fatalf("AppendResponseV: %v", err)
	}
	body, _, err := ReadFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	var v2 Response
	if err := DecodeResponseV(body, &v2, Version2); err != nil {
		t.Fatalf("DecodeResponseV: %v", err)
	}
	if v2.RetryAfterMS != 75 || v2.Msg != "75ms" {
		t.Fatalf("v2 overload: got RetryAfterMS=%d Msg=%q", v2.RetryAfterMS, v2.Msg)
	}
	if d, ok := v2.RetryAfter(); !ok || d != 75*time.Millisecond {
		t.Fatalf("v2 RetryAfter() = %v, %v", d, ok)
	}

	// v1: the typed field is not encoded; the hint rides in Msg only.
	frame, err = AppendResponseV(nil, src, Version1)
	if err != nil {
		t.Fatalf("AppendResponseV(v1): %v", err)
	}
	body, _, err = ReadFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	var v1 Response
	if err := DecodeResponse(body, &v1); err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	if v1.RetryAfterMS != 0 || v1.Msg != "75ms" {
		t.Fatalf("v1 overload: got RetryAfterMS=%d Msg=%q", v1.RetryAfterMS, v1.Msg)
	}
	if d, ok := v1.RetryAfter(); !ok || d != 75*time.Millisecond {
		t.Fatalf("v1 RetryAfter() fallback = %v, %v", d, ok)
	}

	// The typed field wins over a contradictory Msg.
	r := &Response{Status: StatusOverload, RetryAfterMS: 10, Msg: "1h"}
	if d, ok := r.RetryAfter(); !ok || d != 10*time.Millisecond {
		t.Fatalf("typed-over-Msg RetryAfter() = %v, %v", d, ok)
	}
}

// TestSealFrameRoundTrip pins the sealed framing: a sealed frame reads back
// through ReadFrameCRC, and through the split ReadHeader/ReadBody/ReadTrailer
// path the server uses.
func TestSealFrameRoundTrip(t *testing.T) {
	req := &Request{ID: 3, Op: OpInsert, Key: 1, Val: 2}
	frame, err := AppendRequest(nil, req)
	if err != nil {
		t.Fatalf("AppendRequest: %v", err)
	}
	sealed := SealFrame(frame, 0)
	if len(sealed) != len(frame)+TrailerLen {
		t.Fatalf("sealed length %d, want %d", len(sealed), len(frame)+TrailerLen)
	}

	body, _, err := ReadFrameCRC(bytes.NewReader(sealed), nil)
	if err != nil {
		t.Fatalf("ReadFrameCRC: %v", err)
	}
	var got Request
	if err := DecodeRequest(body, &got); err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	if got.Key != 1 || got.Val != 2 {
		t.Fatalf("decoded %+v", got)
	}

	// Split path.
	r := bytes.NewReader(sealed)
	n, err := ReadHeader(r)
	if err != nil {
		t.Fatalf("ReadHeader: %v", err)
	}
	body, _, err = ReadBody(r, n, nil)
	if err != nil {
		t.Fatalf("ReadBody: %v", err)
	}
	if err := ReadTrailer(r, n, body); err != nil {
		t.Fatalf("ReadTrailer: %v", err)
	}

	// Multi-frame stream: sealing must not confuse the framing.
	stream := append(append([]byte(nil), sealed...), sealed...)
	br := bytes.NewReader(stream)
	for i := 0; i < 2; i++ {
		if _, _, err := ReadFrameCRC(br, nil); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if br.Len() != 0 {
		t.Fatalf("%d bytes left after two frames", br.Len())
	}
}

// TestSealedFrameBitFlipDetected is the checksum-canonicality property from
// the issue: flip ANY bit of a sealed frame — prefix, body, or trailer — and
// the read must fail (checksum mismatch, framing error, or truncation), never
// deliver a wrong body.
func TestSealedFrameBitFlipDetected(t *testing.T) {
	frame, err := AppendRequest(nil, &Request{ID: 0xdeadbeef, Op: OpInsert, Key: 0x1122334455667788, Val: 42})
	if err != nil {
		t.Fatalf("AppendRequest: %v", err)
	}
	sealed := SealFrame(frame, 0)
	for byteIdx := 0; byteIdx < len(sealed); byteIdx++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), sealed...)
			mut[byteIdx] ^= 1 << bit
			body, _, err := ReadFrameCRC(bytes.NewReader(mut), nil)
			if err == nil {
				t.Fatalf("flip byte %d bit %d: accepted corrupt frame, body %x", byteIdx, bit, body)
			}
			// A length-prefix flip may yield a framing/short-read error; any
			// flip that leaves the framing intact must be ErrChecksum.
			if byteIdx >= headerLen && byteIdx < len(sealed)-TrailerLen {
				// Body flips keep the length prefix valid, so the trailer is
				// read in full and the error must be the checksum.
				if !errors.Is(err, ErrChecksum) {
					t.Fatalf("flip byte %d bit %d: err = %v, want ErrChecksum", byteIdx, bit, err)
				}
			}
		}
	}
}

// TestReadTrailerTruncation: a stream that ends mid-trailer is an unexpected
// EOF, not a clean EOF — the peer vanished mid-frame.
func TestReadTrailerTruncation(t *testing.T) {
	frame, err := AppendRequest(nil, &Request{ID: 1, Op: OpPing})
	if err != nil {
		t.Fatalf("AppendRequest: %v", err)
	}
	sealed := SealFrame(frame, 0)
	for cut := len(frame); cut < len(sealed); cut++ {
		_, _, err := ReadFrameCRC(bytes.NewReader(sealed[:cut]), nil)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: err = %v, want ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestSealFrameMidBuffer: SealFrame must checksum only the frame at start,
// not the whole buffer, so a writer can batch multiple sealed frames into
// one buffer.
func TestSealFrameMidBuffer(t *testing.T) {
	var buf []byte
	var offsets []int
	for i := 0; i < 3; i++ {
		offsets = append(offsets, len(buf))
		var err error
		buf, err = AppendRequest(buf, &Request{ID: uint64(i), Op: OpGet, Key: uint64(i) * 7})
		if err != nil {
			t.Fatalf("AppendRequest: %v", err)
		}
		buf = SealFrame(buf, offsets[i])
	}
	r := bytes.NewReader(buf)
	for i := 0; i < 3; i++ {
		body, _, err := ReadFrameCRC(r, nil)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		var req Request
		if err := DecodeRequest(body, &req); err != nil {
			t.Fatalf("frame %d decode: %v", i, err)
		}
		if req.ID != uint64(i) || req.Key != uint64(i)*7 {
			t.Fatalf("frame %d: got %+v", i, req)
		}
	}
}

// loopReader serves the same bytes over and over.
type loopReader struct {
	b   []byte
	off int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.b[l.off:])
	l.off = (l.off + n) % len(l.b)
	return n, nil
}

// TestSealedFrameReadAllocs pins the read loops' per-frame cost: reading a
// sealed frame's header, body and trailer from the *bufio.Reader both sides
// hold allocates nothing, on the server's split path and the client's
// ReadFrameCRC alike.
func TestSealedFrameReadAllocs(t *testing.T) {
	frame, err := AppendRequest(nil, &Request{ID: 9, Op: OpGet, Key: 42})
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReaderSize(&loopReader{b: SealFrame(frame, 0)}, 32<<10)
	buf := make([]byte, 0, 64)
	split := func() {
		n, err := ReadHeader(br)
		if err != nil {
			t.Fatal(err)
		}
		body, _, err := ReadBody(br, n, buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := ReadTrailer(br, n, body); err != nil {
			t.Fatal(err)
		}
	}
	whole := func() {
		if _, _, err := ReadFrameCRC(br, buf); err != nil {
			t.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(1000, split); a != 0 {
		t.Errorf("ReadHeader+ReadBody+ReadTrailer: %v allocs per frame, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, whole); a != 0 {
		t.Errorf("ReadFrameCRC: %v allocs per frame, want 0", a)
	}
	// The table-driven length CRC agrees with hash/crc32.
	for _, n := range []uint32{0, 1, 13, 1 << 20, ^uint32(0)} {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], n)
		if got, want := crcOfLen(n), CRC32C(hdr[:]); got != want {
			t.Errorf("crcOfLen(%d) = %08x, want %08x", n, got, want)
		}
	}
}

// TestReadHeaderBufioEOF: the peeking read keeps io.ReadFull's errors — a
// clean EOF between frames, an unexpected EOF inside a header or trailer.
func TestReadHeaderBufioEOF(t *testing.T) {
	if _, err := ReadHeader(bufio.NewReader(bytes.NewReader(nil))); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
	if _, err := ReadHeader(bufio.NewReader(bytes.NewReader([]byte{0, 0}))); err != io.ErrUnexpectedEOF {
		t.Fatalf("half a header: %v, want io.ErrUnexpectedEOF", err)
	}
	if err := ReadTrailer(bufio.NewReader(bytes.NewReader(nil)), 0, nil); err != io.ErrUnexpectedEOF {
		t.Fatalf("missing trailer: %v, want io.ErrUnexpectedEOF", err)
	}
}
