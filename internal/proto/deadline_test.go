package proto

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

// TestDeadlineFlagRoundTrip: TimeoutMS survives encode/decode for every
// opcode, and the flag costs exactly 4 bytes only when a budget is set.
func TestDeadlineFlagRoundTrip(t *testing.T) {
	reqs := []*Request{
		{ID: 1, Op: OpPing, TimeoutMS: 250},
		{ID: 2, Op: OpGet, Key: 42, TimeoutMS: 1},
		{ID: 3, Op: OpInsert, Key: 1, Val: 2, TimeoutMS: ^uint32(0)},
		{ID: 5, Op: OpGetBatch, Keys: []uint64{1, 2, 3}, TimeoutMS: 77},
		{ID: 6, Op: OpInsertBatch, Keys: []uint64{7}, Vals: []uint64{8}, TimeoutMS: 9},
		{ID: 7, Op: OpDeleteBatch, Keys: []uint64{0}, TimeoutMS: 10},
		{ID: 8, Op: OpLen, TimeoutMS: 11},
	}
	for _, r := range reqs {
		got := roundTripReq(t, r)
		if got.TimeoutMS != r.TimeoutMS {
			t.Errorf("%s: TimeoutMS = %d want %d", r.Op, got.TimeoutMS, r.TimeoutMS)
		}
		with, err := AppendRequest(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		bare := *r
		bare.TimeoutMS = 0
		without, err := AppendRequest(nil, &bare)
		if err != nil {
			t.Fatal(err)
		}
		if len(with) != len(without)+4 {
			t.Errorf("%s: deadline flag costs %d bytes, want 4", r.Op, len(with)-len(without))
		}
	}
}

// TestDeadlineFlagZeroBudgetRejected: a flagged opcode with budget 0 is
// non-canonical (the encoder omits the flag) and must not decode.
func TestDeadlineFlagZeroBudgetRejected(t *testing.T) {
	frame, err := AppendRequest(nil, &Request{ID: 9, Op: OpGet, Key: 3, TimeoutMS: 500})
	if err != nil {
		t.Fatal(err)
	}
	body := frame[4:]
	// Zero the 4 budget bytes that follow the flagged opcode byte.
	copy(body[9:13], []byte{0, 0, 0, 0})
	var req Request
	if err := DecodeRequest(body, &req); err == nil {
		t.Fatal("zero-budget deadline flag decoded")
	}
}

// TestDeadlineFlagTruncatedBudget: the flag promising 4 bytes that are not
// there is a truncation, not a panic.
func TestDeadlineFlagTruncatedBudget(t *testing.T) {
	body := make([]byte, 9)
	body[8] = byte(OpPing) | FlagDeadline
	var req Request
	if err := DecodeRequest(body, &req); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

// TestResponseRejectsDeadlineFlag: responses never carry the flag; a
// flagged response opcode byte must fail as an unknown opcode.
func TestResponseRejectsDeadlineFlag(t *testing.T) {
	frame, err := AppendResponse(nil, &Response{ID: 1, Op: OpPing})
	if err != nil {
		t.Fatal(err)
	}
	body := frame[4:]
	body[8] |= FlagDeadline
	var resp Response
	if err := DecodeResponse(body, &resp); !errors.Is(err, ErrBadOpcode) {
		t.Fatalf("err = %v, want ErrBadOpcode", err)
	}
}

// TestStatusOverloadRetryAfter: the retry-after hint rides the message
// field and parses back on the client side.
func TestStatusOverloadRetryAfter(t *testing.T) {
	r := roundTripResp(t, &Response{
		ID: 3, Op: OpGet, Status: StatusOverload, Msg: (150 * time.Millisecond).String(),
	})
	d, ok := r.RetryAfter()
	if !ok || d != 150*time.Millisecond {
		t.Fatalf("RetryAfter = %v,%v want 150ms,true", d, ok)
	}
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "150ms") {
		t.Fatalf("Err = %v, want overload with hint", err)
	}
	if _, ok := (&Response{Status: StatusOK}).RetryAfter(); ok {
		t.Fatal("RetryAfter parsed on StatusOK")
	}
	if _, ok := (&Response{Status: StatusOverload, Msg: "garbage"}).RetryAfter(); ok {
		t.Fatal("RetryAfter parsed garbage")
	}
}

// TestReadHeaderBodySplit: the two-phase frame read equals ReadFrame and
// enforces the same limits at the header stage.
func TestReadHeaderBodySplit(t *testing.T) {
	frame, err := AppendRequest(nil, &Request{ID: 12, Op: OpInsert, Key: 5, Val: 6})
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(frame)
	n, err := ReadHeader(r)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(frame)-4 {
		t.Fatalf("ReadHeader = %d want %d", n, len(frame)-4)
	}
	body, _, err := ReadBody(r, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, frame[4:]) {
		t.Fatal("ReadHeader+ReadBody != frame body")
	}

	// Oversized length dies at the header, before any body allocation.
	big := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadHeader(bytes.NewReader(big)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize header err = %v", err)
	}
	// A body cut short is an unexpected EOF, never a short read.
	r2 := bytes.NewReader(frame[:len(frame)-3])
	n2, err := ReadHeader(r2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadBody(r2, n2, nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated body err = %v", err)
	}
}
