package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

// roundTripReq frames r, re-reads it through ReadFrame, decodes, and returns
// the decoded request.
func roundTripReq(t *testing.T, r *Request) *Request {
	t.Helper()
	frame, err := AppendRequest(nil, r)
	if err != nil {
		t.Fatalf("AppendRequest: %v", err)
	}
	body, _, err := ReadFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	var got Request
	if err := DecodeRequest(body, &got); err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	return &got
}

func roundTripResp(t *testing.T, r *Response) *Response {
	t.Helper()
	frame, err := AppendResponse(nil, r)
	if err != nil {
		t.Fatalf("AppendResponse: %v", err)
	}
	body, _, err := ReadFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	var got Response
	if err := DecodeResponse(body, &got); err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	return &got
}

// normalize empties nil-vs-zero-length slice differences for comparison.
func normReq(r *Request) {
	if len(r.Keys) == 0 {
		r.Keys = nil
	}
	if len(r.Vals) == 0 {
		r.Vals = nil
	}
}

func normResp(r *Response) {
	if len(r.Keys) == 0 {
		r.Keys = nil
	}
	if len(r.Vals) == 0 {
		r.Vals = nil
	}
	if len(r.Founds) == 0 {
		r.Founds = nil
	}
}

func TestRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{ID: 1, Op: OpPing},
		{ID: 2, Op: OpLen},
		{ID: 3, Op: OpGet, Key: math.MaxUint64},
		{ID: 4, Op: OpDelete, Key: 0},
		{ID: 5, Op: OpInsert, Key: 42, Val: 99},
		{ID: 7, Op: OpGetBatch, Keys: []uint64{1, 2, 3, math.MaxUint64}},
		{ID: 8, Op: OpDeleteBatch, Keys: []uint64{0}},
		{ID: 9, Op: OpInsertBatch, Keys: []uint64{1, 2}, Vals: []uint64{10, 20}},
		{ID: math.MaxUint64, Op: OpGetBatch}, // empty batch
	}
	for _, want := range cases {
		got := roundTripReq(t, &want)
		normReq(&want)
		normReq(got)
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("round trip %v: got %+v want %+v", want.Op, *got, want)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []Response{
		{ID: 1, Op: OpPing},
		{ID: 2, Op: OpGet, Found: true, Val: 123},
		{ID: 3, Op: OpGet, Found: false, Val: 0},
		{ID: 4, Op: OpInsert},
		{ID: 5, Op: OpDelete, Found: true},
		{ID: 7, Op: OpGetBatch, Vals: []uint64{5, 0}, Founds: []bool{true, false}},
		{ID: 8, Op: OpInsertBatch},
		{ID: 9, Op: OpDeleteBatch, Founds: []bool{true, false, true}},
		{ID: 10, Op: OpLen, Val: 1 << 40},
		{ID: 11, Op: OpGet, Status: StatusBadRequest, Msg: "nope"},
	}
	for _, want := range cases {
		got := roundTripResp(t, &want)
		normResp(&want)
		normResp(got)
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("round trip %v: got %+v want %+v", want.Op, *got, want)
		}
	}
}

// TestDecodeReuse verifies the decoder reuses caller buffers instead of
// allocating per frame — the property the server's per-connection scratch
// space relies on.
func TestDecodeReuse(t *testing.T) {
	frame, err := AppendRequest(nil, &Request{ID: 1, Op: OpGetBatch, Keys: []uint64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Keys: make([]uint64, 0, 64), Vals: make([]uint64, 0, 64)}
	keysCap := cap(req.Keys)
	if err := DecodeRequest(frame[4:], &req); err != nil {
		t.Fatal(err)
	}
	if cap(req.Keys) != keysCap {
		t.Errorf("Keys reallocated: cap %d -> %d", keysCap, cap(req.Keys))
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeRequest(frame[4:], &req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("DecodeRequest allocated %.1f times per call with warm buffers", allocs)
	}
}

func TestDecodeRequestErrors(t *testing.T) {
	valid := func(r *Request) []byte {
		frame, err := AppendRequest(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		return frame[4:] // body
	}
	cases := []struct {
		name string
		body []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"id only", make([]byte, 8), ErrTruncated},
		{"zero opcode", make([]byte, 9), ErrBadOpcode},
		{"unknown opcode", append(make([]byte, 8), 0xEE), ErrBadOpcode},
		{"get truncated key", valid(&Request{Op: OpGet, Key: 1})[:12], ErrTruncated},
		{"trailing bytes", append(valid(&Request{Op: OpPing}), 0), ErrTrailingBytes},
		{"batch count truncated", valid(&Request{Op: OpGetBatch, Keys: []uint64{1, 2}})[:11], ErrTruncated},
		{"batch count lies", func() []byte {
			b := valid(&Request{Op: OpGetBatch, Keys: []uint64{1}})
			binary.BigEndian.PutUint32(b[9:], 1000) // claims 1000 keys, carries 1
			return b
		}(), ErrTruncated},
		{"batch over limit", func() []byte {
			b := valid(&Request{Op: OpGetBatch})
			binary.BigEndian.PutUint32(b[9:], MaxBatch+1)
			return b
		}(), ErrLimit},
	}
	for _, tc := range cases {
		var req Request
		err := DecodeRequest(tc.body, &req)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got error %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestReadFrameLimits(t *testing.T) {
	// Oversized length prefix is rejected before any body allocation.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame)
	if _, _, err := ReadFrame(bytes.NewReader(hdr[:]), nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized frame: got %v, want ErrFrameTooLarge", err)
	}
	// A length prefix shorter than the id+opcode prefix is rejected.
	binary.BigEndian.PutUint32(hdr[:], 3)
	if _, _, err := ReadFrame(bytes.NewReader(append(hdr[:], 1, 2, 3)), nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("undersized frame: got %v, want ErrTruncated", err)
	}
	// A truncated body surfaces as ErrUnexpectedEOF, not a hang or panic.
	binary.BigEndian.PutUint32(hdr[:], 100)
	if _, _, err := ReadFrame(bytes.NewReader(append(hdr[:], 1, 2, 3)), nil); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated body: got %v, want ErrUnexpectedEOF", err)
	}
}

func TestAppendRequestRejectsOversizedBatch(t *testing.T) {
	keys := make([]uint64, MaxBatch+1)
	if _, err := AppendRequest(nil, &Request{Op: OpGetBatch, Keys: keys}); !errors.Is(err, ErrLimit) {
		t.Errorf("got %v, want ErrLimit", err)
	}
	if _, err := AppendRequest(nil, &Request{Op: OpInsertBatch, Keys: []uint64{1}, Vals: nil}); err == nil {
		t.Error("keys/vals mismatch not rejected")
	}
}

// TestFrameSizing pins the doc-comment claim that the largest legal frames
// fit inside MaxFrame.
func TestFrameSizing(t *testing.T) {
	keys := make([]uint64, MaxBatch)
	vals := make([]uint64, MaxBatch)
	frame, err := AppendRequest(nil, &Request{Op: OpInsertBatch, Keys: keys, Vals: vals})
	if err != nil {
		t.Fatalf("max insert batch does not fit: %v", err)
	}
	if len(frame) > MaxFrame {
		t.Fatalf("max insert batch frame is %d bytes > MaxFrame %d", len(frame), MaxFrame)
	}
	founds := make([]bool, MaxBatch)
	if _, err := AppendResponse(nil, &Response{Op: OpGetBatch, Vals: vals, Founds: founds}); err != nil {
		t.Fatalf("max get-batch response does not fit: %v", err)
	}
	if _, err := AppendResponse(nil, &Response{Op: OpScanChunk, Keys: keys[:MaxScan], Vals: vals[:MaxScan]}); err != nil {
		t.Fatalf("max scan chunk does not fit: %v", err)
	}
}
