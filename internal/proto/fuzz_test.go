package proto

import (
	"bytes"
	"testing"
)

// FuzzDecodeRequest throws arbitrary bytes at the request decoder — the
// exact surface a hostile client reaches once ReadFrame has accepted a
// length prefix. The decoder must never panic, never allocate beyond the
// validated counts, and must re-encode anything it accepts into a frame
// that decodes to the same request (encode∘decode is the identity on the
// decoder's accepted set, which is how corrupted-but-parseable frames are
// caught semantically, not just memory-safely).
func FuzzDecodeRequest(f *testing.F) {
	seed := func(r *Request) {
		frame, err := AppendRequest(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	seed(&Request{ID: 1, Op: OpPing})
	seed(&Request{ID: 2, Op: OpGet, Key: 42})
	seed(&Request{ID: 3, Op: OpInsert, Key: 1, Val: 2})
	// The retired whole-result scan (opcode 5), which no encoder emits: id 4,
	// start 9, max 100. A decoder must refuse it.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 4, 5, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 100})
	seed(&Request{ID: 5, Op: OpGetBatch, Keys: []uint64{1, 2, 3}})
	seed(&Request{ID: 6, Op: OpInsertBatch, Keys: []uint64{7}, Vals: []uint64{8}})
	seed(&Request{ID: 7, Op: OpDeleteBatch, Keys: []uint64{0, ^uint64(0)}})
	seed(&Request{ID: 8, Op: OpHello, Ver: MaxVersion, Feats: AllFeatures})
	seed(&Request{ID: 9, Op: OpScanStart, Key: 42, ScanMax: 1 << 20, Max: 512, Credits: 8})
	seed(&Request{ID: 10, Op: OpScanCredit, Credits: 1})
	seed(&Request{ID: 11, Op: OpScanCancel})
	seed(&Request{ID: 12, Op: OpShardInfo})
	seed(&Request{ID: 13, Op: OpMapGet})
	seed(&Request{ID: 14, Op: OpMapSet, Lo: 0, Hi: ^uint64(0), MapBlob: []byte{1, 2, 3}})
	seed(&Request{ID: 15, Op: OpHandoverStart, Lo: 1, Hi: 9, Addr: "127.0.0.1:7071"})
	seed(&Request{ID: 16, Op: OpHandoverStatus})
	// The retired import-session open (opcode 21), which no encoder emits:
	// id 17, lo 1, hi 9. A decoder must refuse it.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 17, 21, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 9})
	seed(&Request{ID: 18, Op: OpImportBatch, Keys: []uint64{1}, Vals: []uint64{2}})
	seed(&Request{ID: 19, Op: OpImportEnd, Commit: true})
	seed(&Request{ID: 20, Op: OpMirror, Del: true, Key: 5})
	seed(&Request{ID: 21, Op: OpGet, Key: 7, Epoch: 3})
	seed(&Request{ID: 22, Op: OpScanStart, Key: 7, Max: 10, Credits: 1, Epoch: 1, TimeoutMS: 50})
	f.Add([]byte{})
	f.Add(make([]byte, 9))

	f.Fuzz(func(t *testing.T, body []byte) {
		var req Request
		if err := DecodeRequest(body, &req); err != nil {
			return
		}
		// Accepted input must re-encode to a body that decodes identically.
		frame, err := AppendRequest(nil, &req)
		if err != nil {
			t.Fatalf("decoded request does not re-encode: %+v: %v", req, err)
		}
		var again Request
		if err := DecodeRequest(frame[4:], &again); err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		if !bytes.Equal(frame[4:], body) {
			// The wire format has exactly one encoding per request, so any
			// accepted body must be the canonical one.
			t.Fatalf("non-canonical body accepted:\n in: %x\nout: %x", body, frame[4:])
		}
	})
}

// FuzzDecodeResponse is the client-side mirror: arbitrary bytes at the
// response decoder, which a hostile or corrupted server reaches. The
// response encoding is canonical too (bools are 0 or 1, and a non-OK
// status's message is the rest of the frame), so an accepted body must
// re-encode byte-identically.
func FuzzDecodeResponse(f *testing.F) {
	seed := func(r *Response) {
		frame, err := AppendResponse(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	seed(&Response{ID: 1, Op: OpPing})
	seed(&Response{ID: 2, Op: OpGet, Found: true, Val: 3})
	// A retired whole-result scan answer (opcode 5): id 3, status OK, one pair.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 3, 5, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2})
	seed(&Response{ID: 4, Op: OpGetBatch, Vals: []uint64{1}, Founds: []bool{true}})
	seed(&Response{ID: 5, Op: OpDeleteBatch, Founds: []bool{false, true}})
	seed(&Response{ID: 6, Op: OpLen, Val: 99})
	seed(&Response{ID: 7, Op: OpGet, Status: StatusErr, Msg: "boom"})
	seed(&Response{ID: 8, Op: OpHello, Ver: Version2, Feats: AllFeatures})
	seed(&Response{ID: 9, Op: OpScanChunk, Keys: []uint64{1, 2}, Vals: []uint64{3, 4}})
	seed(&Response{ID: 10, Op: OpScanEnd, Val: 1 << 20})
	seed(&Response{ID: 11, Op: OpScanEnd, Status: StatusShuttingDown, Msg: "draining"})
	seed(&Response{ID: 12, Op: OpShardInfo, Lo: 0, Hi: 99, Epoch: 4, State: 1})
	seed(&Response{ID: 13, Op: OpMapGet, MapBlob: []byte{9, 9}})
	seed(&Response{ID: 14, Op: OpHandoverStatus, State: 2, Copied: 100, Mirrored: 3})
	seed(&Response{ID: 17, Op: OpHandoverStatus, State: 3, Addr: "a:1", Cause: "bulk copy to a:1: refused"})
	seed(&Response{ID: 15, Op: OpImportBatch, Applied: 5})
	seed(&Response{ID: 16, Op: OpGet, Status: StatusWrongShard, Msg: "not mine"})
	f.Add([]byte{})
	seed(&Response{ID: 1, Op: OpHello, Ver: Version2, Feats: AllFeatures})
	seed(&Response{ID: 2, Op: OpGet, Status: StatusOverload, RetryAfterMS: 50, Msg: "50ms"})
	seed(&Response{ID: 3, Op: OpScanChunk, Keys: []uint64{1, 2}, Vals: []uint64{3, 4}})
	seed(&Response{ID: 4, Op: OpScanEnd, Val: 7})
	seed(&Response{ID: 5, Op: OpScanStart, Status: StatusBadRequest, Msg: "no stream"})
	seed(&Response{ID: 6, Op: OpGet, Status: StatusWrongShard, MapBlob: []byte{1, 2}, Msg: "moved"})
	seed(&Response{ID: 7, Op: OpShardInfo, Lo: 1, Hi: 2, Epoch: 3, State: 0})

	f.Fuzz(func(t *testing.T, body []byte) {
		var resp Response
		if err := DecodeResponse(body, &resp); err != nil {
			return
		}
		frame, err := AppendResponse(nil, &resp)
		if err != nil {
			t.Fatalf("decoded response does not re-encode: %+v: %v", resp, err)
		}
		var again Response
		if err := DecodeResponse(frame[4:], &again); err != nil {
			t.Fatalf("re-encoded response does not decode: %v", err)
		}
		if !bytes.Equal(frame[4:], body) {
			t.Fatalf("non-canonical body accepted:\n in: %x\nout: %x", body, frame[4:])
		}
	})
}

// FuzzFrameCRC is the checksum-canonicality property from the issue: seal an
// arbitrary frame, flip any one bit the fuzzer picks, and the sealed read
// must fail — a corrupted-but-parseable frame can no longer reach a decoder
// once FeatCRC is negotiated.
func FuzzFrameCRC(f *testing.F) {
	seedBody := func(r *Request) {
		frame, err := AppendRequest(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:], uint32(0))
	}
	seedBody(&Request{ID: 1, Op: OpPing})
	seedBody(&Request{ID: 2, Op: OpInsert, Key: 1, Val: 2})
	seedBody(&Request{ID: 3, Op: OpScanStart, Key: 9, ScanMax: 100, Max: 64, Credits: 4})
	f.Add([]byte("arbitrary, not even a valid body"), uint32(71))

	f.Fuzz(func(t *testing.T, body []byte, flipBit uint32) {
		if len(body) > maxBody {
			return
		}
		var sealed []byte
		sealed = appendU32(sealed, uint32(len(body)))
		sealed = append(sealed, body...)
		sealed = SealFrame(sealed, 0)

		// The untouched sealed frame must verify (when long enough to frame).
		got, _, err := ReadFrameCRC(bytes.NewReader(sealed), nil)
		if len(body) >= prefixLen {
			if err != nil {
				t.Fatalf("sealed frame does not verify: %v", err)
			}
			if !bytes.Equal(got, body) {
				t.Fatalf("sealed frame read back wrong body")
			}
		} else if err == nil {
			t.Fatalf("undersized body %d framed", len(body))
		}

		// Flip exactly one bit anywhere in the sealed frame: it must not read
		// back clean. Framing errors are fine; success is the only failure.
		mut := append([]byte(nil), sealed...)
		bit := int(flipBit) % (len(mut) * 8)
		mut[bit/8] ^= 1 << (bit % 8)
		if got, _, err := ReadFrameCRC(bytes.NewReader(mut), nil); err == nil {
			t.Fatalf("bit flip %d accepted: body %x", bit, got)
		}
	})
}
