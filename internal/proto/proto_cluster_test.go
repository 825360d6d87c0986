package proto

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestClusterRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{ID: 1, Op: OpShardInfo},
		{ID: 2, Op: OpMapGet},
		{ID: 3, Op: OpMapSet, Lo: 0, Hi: math.MaxUint64, MapBlob: []byte{1, 2, 3, 4}},
		{ID: 4, Op: OpHandoverStart, Lo: 100, Hi: 200, Addr: "127.0.0.1:7071"},
		{ID: 5, Op: OpHandoverStatus},
		{ID: 7, Op: OpImportBatch, Keys: []uint64{1, 2}, Vals: []uint64{10, 20}},
		{ID: 8, Op: OpImportBatch}, // empty page is legal
		{ID: 9, Op: OpImportEnd, Commit: true},
		{ID: 10, Op: OpImportEnd, Commit: false},
		{ID: 11, Op: OpMirror, Del: false, Key: 7, Val: 9},
		{ID: 12, Op: OpMirror, Del: true, Key: 7},
		{ID: 16, Op: OpHandoverResume},
		{ID: 17, Op: OpHandoverAbort},
		{ID: 18, Op: OpImportResume, Lo: 100, Hi: 200},
		// Epoch flag composes with any opcode and with the deadline flag.
		{ID: 13, Op: OpGet, Key: 42, Epoch: 3},
		{ID: 14, Op: OpInsert, Key: 1, Val: 2, Epoch: 1, TimeoutMS: 250},
		{ID: 15, Op: OpScanStart, Key: 5, ScanMax: 100, Max: 64, Credits: 4, Epoch: math.MaxUint64},
	}
	for _, want := range cases {
		got := roundTripReq(t, &want)
		normReq(&want)
		normReq(got)
		if len(want.MapBlob) == 0 {
			want.MapBlob = nil
		}
		if len(got.MapBlob) == 0 {
			got.MapBlob = nil
		}
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("round trip %v: got %+v want %+v", want.Op, *got, want)
		}
	}
}

func TestClusterResponseRoundTrip(t *testing.T) {
	cases := []Response{
		{ID: 1, Op: OpShardInfo, Lo: 0, Hi: math.MaxUint64, Epoch: 9, State: 1},
		{ID: 2, Op: OpMapGet, MapBlob: []byte{5, 6, 7}},
		{ID: 3, Op: OpMapSet},
		{ID: 4, Op: OpHandoverStart},
		{ID: 5, Op: OpHandoverStatus, State: 2, Copied: 1 << 30, Mirrored: 17,
			Retries: 4, Resumes: 1, Watermark: 1 << 40, Lo: 100, Hi: 200, Addr: "127.0.0.1:7071"},
		{ID: 5, Op: OpHandoverStatus, State: 3, Copied: 4096, Retries: 3, Lo: 100, Hi: 200,
			Addr: "127.0.0.1:7071", Cause: "bulk copy to 127.0.0.1:7071: connection refused"},
		{ID: 5, Op: OpHandoverStatus, Addr: strings.Repeat("a", MaxAddr), Cause: "x"},
		{ID: 5, Op: OpHandoverStatus}, // no handover: empty addr and cause, all-zero counters
		{ID: 7, Op: OpImportBatch, Applied: 12345},
		{ID: 8, Op: OpImportEnd},
		{ID: 9, Op: OpMirror},
		{ID: 10, Op: OpHandoverResume},
		{ID: 11, Op: OpHandoverAbort},
		{ID: 12, Op: OpImportResume, Fresh: true, Applied: 777},
		{ID: 13, Op: OpImportResume, Fresh: false},
	}
	for _, want := range cases {
		frame, err := AppendResponse(nil, &want)
		if err != nil {
			t.Fatalf("AppendResponse(%v): %v", want.Op, err)
		}
		var got Response
		if err := DecodeResponse(frame[4:], &got); err != nil {
			t.Fatalf("DecodeResponse(%v): %v", want.Op, err)
		}
		normResp(&want)
		normResp(&got)
		if len(want.MapBlob) == 0 {
			want.MapBlob = nil
		}
		if len(got.MapBlob) == 0 {
			got.MapBlob = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip %v: got %+v want %+v", want.Op, got, want)
		}
	}
}

// TestWrongShardRedirectPayload pins the redirect: a WrongShard response
// carries the server's encoded map before the message.
func TestWrongShardRedirectPayload(t *testing.T) {
	want := Response{
		ID: 1, Op: OpGet, Status: StatusWrongShard,
		MapBlob: []byte{0xAA, 0xBB, 0xCC}, Msg: "key moved",
	}
	frame, err := AppendResponse(nil, &want)
	if err != nil {
		t.Fatal(err)
	}
	var got Response
	if err := DecodeResponse(frame[4:], &got); err != nil {
		t.Fatal(err)
	}
	if string(got.MapBlob) != string(want.MapBlob) || got.Msg != want.Msg {
		t.Fatalf("redirect: got blob %x msg %q", got.MapBlob, got.Msg)
	}

	// An empty blob is legal (a node may not have a map yet).
	frame, err = AppendResponse(nil, &Response{ID: 2, Op: OpGet, Status: StatusWrongShard, Msg: "m"})
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodeResponse(frame[4:], &got); err != nil {
		t.Fatal(err)
	}
	if len(got.MapBlob) != 0 || got.Msg != "m" {
		t.Fatalf("empty-blob redirect: got blob %x msg %q", got.MapBlob, got.Msg)
	}

	// A lying blob length cannot over-read into the message or beyond.
	body, err := AppendResponse(nil, &want)
	if err != nil {
		t.Fatal(err)
	}
	body = body[4:]
	// status is at offset 9; blob length is the next 4 bytes.
	body[10], body[11], body[12], body[13] = 0xFF, 0xFF, 0xFF, 0xFF
	if err := DecodeResponse(body, &got); !errors.Is(err, ErrLimit) {
		t.Fatalf("lying blob length: got %v, want ErrLimit", err)
	}
}

func TestClusterRequestLimits(t *testing.T) {
	if _, err := AppendRequest(nil, &Request{Op: OpHandoverStart, Addr: ""}); !errors.Is(err, ErrLimit) {
		t.Errorf("empty addr: got %v, want ErrLimit", err)
	}
	long := strings.Repeat("x", MaxAddr+1)
	if _, err := AppendRequest(nil, &Request{Op: OpHandoverStart, Addr: long}); !errors.Is(err, ErrLimit) {
		t.Errorf("oversized addr: got %v, want ErrLimit", err)
	}
	if _, err := AppendRequest(nil, &Request{Op: OpMapSet}); !errors.Is(err, ErrLimit) {
		t.Errorf("empty map blob: got %v, want ErrLimit", err)
	}
	if _, err := AppendRequest(nil, &Request{Op: OpMapSet, MapBlob: make([]byte, MaxMapBlob+1)}); !errors.Is(err, ErrLimit) {
		t.Errorf("oversized map blob: got %v, want ErrLimit", err)
	}
	if _, err := AppendRequest(nil, &Request{Op: OpImportBatch, Keys: []uint64{1}}); err == nil {
		t.Error("import batch keys/vals mismatch not rejected")
	}
}

// TestHandoverStatusAddrLength pins the status payload's address prefix:
// the encoder refuses an address over MaxAddr, and the decoder refuses a
// missing prefix or one that claims more bytes than the frame holds.
func TestHandoverStatusAddrLength(t *testing.T) {
	long := Response{ID: 1, Op: OpHandoverStatus, Addr: strings.Repeat("x", MaxAddr+1)}
	if _, err := AppendResponse(nil, &long); !errors.Is(err, ErrLimit) {
		t.Errorf("oversized addr: got %v, want ErrLimit", err)
	}
	want := Response{ID: 1, Op: OpHandoverStatus, State: 3, Addr: "a:1", Cause: "boom"}
	frame, err := AppendResponse(nil, &want)
	if err != nil {
		t.Fatal(err)
	}
	body := frame[4:]
	// id(8) op(1) status(1) state(1) 7 counters(56), then the prefix.
	at := 8 + 1 + 1 + 1 + 7*8
	var got Response
	if err := DecodeResponse(body[:at], &got); !errors.Is(err, ErrTruncated) {
		t.Errorf("missing addr prefix: got %v, want ErrTruncated", err)
	}
	lying := append([]byte(nil), body...)
	lying[at] = byte(len(want.Addr) + len(want.Cause) + 1)
	if err := DecodeResponse(lying, &got); !errors.Is(err, ErrTruncated) {
		t.Errorf("lying addr prefix: got %v, want ErrTruncated", err)
	}
	lying[at] = byte(len(want.Addr) + len(want.Cause))
	if err := DecodeResponse(lying, &got); err != nil || got.Addr != want.Addr+want.Cause || got.Cause != "" {
		t.Errorf("whole rest as addr: got %q/%q, %v", got.Addr, got.Cause, err)
	}
}

// TestClusterDecodeCanonicality: every invalid byte spelling the encoder can
// never emit must be rejected, keeping one-encoding-per-request for the fuzz
// canonicality property.
func TestClusterDecodeCanonicality(t *testing.T) {
	valid := func(r *Request) []byte {
		frame, err := AppendRequest(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		return frame[4:]
	}

	// Commit/del bytes beyond 1 are second spellings of the same request.
	b := valid(&Request{ID: 1, Op: OpImportEnd, Commit: true})
	b[9] = 2
	var req Request
	if err := DecodeRequest(b, &req); err == nil {
		t.Error("import-end commit byte 2 accepted")
	}
	b = valid(&Request{ID: 1, Op: OpMirror, Del: true, Key: 1, Val: 0})
	b[9] = 7
	if err := DecodeRequest(b, &req); err == nil {
		t.Error("mirror del byte 7 accepted")
	}

	// A zero epoch under FlagEpoch is the flag misapplied.
	b = valid(&Request{ID: 1, Op: OpGet, Key: 5, Epoch: 9})
	for i := 0; i < 8; i++ {
		b[9+i] = 0
	}
	if err := DecodeRequest(b, &req); err == nil {
		t.Error("zero epoch under FlagEpoch accepted")
	}

	// Epoch field truncation surfaces as ErrTruncated.
	b = valid(&Request{ID: 1, Op: OpPing, Epoch: 9})
	if err := DecodeRequest(b[:12], &req); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated epoch: got %v, want ErrTruncated", err)
	}
}
