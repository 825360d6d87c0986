package proto

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"
)

// goldenFile pins the wire bytes. Each line is one entry:
//
//	req  <name> <frame hex>            the frame AppendRequest writes for the case
//	resp <name> <frame hex>            the frame AppendResponse writes for the case
//	decode-req  <name> <result> <body hex>
//	decode-resp <name> <result> <body hex>
//
// A decode entry holds a body (a frame less its length prefix) and what its
// decoder returns ("-" is the empty body): ok, one of the sentinels ErrTruncated, ErrLimit,
// ErrTrailingBytes, ErrBadOpcode, or "other". An entry prefixed "changed:"
// behaves differently from the codec before the one-table rewrite, on
// purpose; CHANGES.md lists them. '#' starts a comment line.
const goldenFile = "testdata/golden.txt"

type goldenReq struct {
	name string
	r    Request
}

type goldenResp struct {
	name string
	r    Response
}

type goldenBody struct {
	name    string
	body    []byte
	changed bool
}

func keysN(n int) []uint64 { return []uint64{0x0102030405060708, 0, ^uint64(0)}[:n] }
func valsN(n int) []uint64 { return []uint64{0xA0A1A2A3A4A5A6A7, 1, 0x7F}[:n] }
func foundsN(n int) []bool { return []bool{true, false, true}[:n] }

// goldenRequests holds a case for every request opcode; each is pinned
// plain, under FlagDeadline, under FlagEpoch and under both.
func goldenRequests() []goldenReq {
	cs := []goldenReq{
		{"ping", Request{Op: OpPing}},
		{"get", Request{Op: OpGet, Key: 0x0102030405060708}},
		{"insert", Request{Op: OpInsert, Key: 0x1111, Val: ^uint64(0)}},
		{"delete", Request{Op: OpDelete, Key: 7}},
		{"len", Request{Op: OpLen}},
		{"hello", Request{Op: OpHello, Ver: Version2, Feats: AllFeatures}},
		{"scan-start", Request{Op: OpScanStart, Key: 5, ScanMax: 1000, Max: 64, Credits: 8}},
		{"scan-start/limits", Request{Op: OpScanStart, Key: ^uint64(0), Max: MaxScan, Credits: MaxScanCredits}},
		{"scan-credit", Request{Op: OpScanCredit, Credits: 3}},
		{"scan-cancel", Request{Op: OpScanCancel}},
		{"shard-info", Request{Op: OpShardInfo}},
		{"map-get", Request{Op: OpMapGet}},
		{"map-set", Request{Op: OpMapSet, Lo: 0, Hi: ^uint64(0), MapBlob: []byte{1, 2, 3}}},
		{"handover-start", Request{Op: OpHandoverStart, Lo: 100, Hi: 200, Addr: "127.0.0.1:7071"}},
		{"handover-status", Request{Op: OpHandoverStatus}},
		{"handover-resume", Request{Op: OpHandoverResume}},
		{"handover-abort", Request{Op: OpHandoverAbort}},
		{"import-resume", Request{Op: OpImportResume, Lo: 100, Hi: 200}},
		{"import-end", Request{Op: OpImportEnd, Commit: true}},
		{"import-end/abort", Request{Op: OpImportEnd}},
		{"mirror", Request{Op: OpMirror, Key: 9, Val: 10}},
		{"mirror/del", Request{Op: OpMirror, Del: true, Key: 9}},
	}
	for _, n := range []int{0, 1, 3} {
		cs = append(cs,
			goldenReq{fmt.Sprintf("get-batch/%d", n), Request{Op: OpGetBatch, Keys: keysN(n)}},
			goldenReq{fmt.Sprintf("delete-batch/%d", n), Request{Op: OpDeleteBatch, Keys: keysN(n)}},
			goldenReq{fmt.Sprintf("insert-batch/%d", n), Request{Op: OpInsertBatch, Keys: keysN(n), Vals: valsN(n)}},
			goldenReq{fmt.Sprintf("import-batch/%d", n), Request{Op: OpImportBatch, Keys: keysN(n), Vals: valsN(n)}},
		)
	}
	var out []goldenReq
	for _, c := range cs {
		for _, v := range goldenFlags {
			r := c.r
			r.TimeoutMS, r.Epoch = v.timeout, v.epoch
			r.ID = goldenID(c.name + v.suffix)
			out = append(out, goldenReq{c.name + v.suffix, r})
		}
	}
	return out
}

// goldenFlags are the prefix variants every request case is pinned under.
var goldenFlags = []struct {
	suffix  string
	timeout uint32
	epoch   uint64
}{{"", 0, 0}, {"+deadline", 250, 0}, {"+epoch", 0, 3}, {"+deadline+epoch", 0x01020304, ^uint64(0)}}

// goldenID is an entry's request id, derived from its name so that adding
// or removing a case leaves every other frame as it was.
func goldenID(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// goldenResponses holds an OK case for every opcode a response may carry and
// every status on at least one opcode.
func goldenResponses() []goldenResp {
	cs := []goldenResp{
		{"ping", Response{Op: OpPing}},
		{"get/found", Response{Op: OpGet, Found: true, Val: 0xDEADBEEF}},
		{"get/missing", Response{Op: OpGet}},
		{"insert", Response{Op: OpInsert}},
		{"delete/found", Response{Op: OpDelete, Found: true}},
		{"delete/missing", Response{Op: OpDelete}},
		{"insert-batch", Response{Op: OpInsertBatch}},
		{"len", Response{Op: OpLen, Val: 12345}},
		{"hello", Response{Op: OpHello, Ver: Version2, Feats: FeatCRC | FeatScanStream}},
		{"scan-start", Response{Op: OpScanStart}},
		{"scan-credit", Response{Op: OpScanCredit}},
		{"scan-cancel", Response{Op: OpScanCancel}},
		{"scan-end", Response{Op: OpScanEnd, Val: 1000}},
		{"shard-info", Response{Op: OpShardInfo, Lo: 1, Hi: ^uint64(0), Epoch: 9, State: 2}},
		{"map-get", Response{Op: OpMapGet, MapBlob: []byte{5, 6, 7}}},
		{"map-set", Response{Op: OpMapSet}},
		{"handover-start", Response{Op: OpHandoverStart}},
		{"handover-status", Response{Op: OpHandoverStatus, State: 3, Copied: 4096, Mirrored: 17,
			Retries: 4, Resumes: 1, Watermark: 1 << 40, Lo: 100, Hi: 200,
			Addr: "127.0.0.1:7071", Cause: "bulk copy: connection refused"}},
		{"handover-status/none", Response{Op: OpHandoverStatus}},
		{"handover-resume", Response{Op: OpHandoverResume}},
		{"handover-abort", Response{Op: OpHandoverAbort}},
		{"import-resume/fresh", Response{Op: OpImportResume, Fresh: true}},
		{"import-resume/attached", Response{Op: OpImportResume, Applied: 77}},
		{"import-batch", Response{Op: OpImportBatch, Applied: 5}},
		{"import-end", Response{Op: OpImportEnd}},
		{"mirror", Response{Op: OpMirror}},

		{"get/bad-request", Response{Op: OpGet, Status: StatusBadRequest, Msg: "nope"}},
		{"get/shutting-down", Response{Op: OpGet, Status: StatusShuttingDown, Msg: "draining"}},
		{"get/err", Response{Op: OpGet, Status: StatusErr}},
		{"get/overload", Response{Op: OpGet, Status: StatusOverload, RetryAfterMS: 250, Msg: "250ms"}},
		{"get/deadline-exceeded", Response{Op: OpGet, Status: StatusDeadlineExceeded, Msg: "late"}},
		{"get/checksum", Response{Op: OpGet, Status: StatusChecksum, Msg: "crc"}},
		{"get/wrong-shard", Response{Op: OpGet, Status: StatusWrongShard, MapBlob: []byte{9, 8, 7}, Msg: "key moved"}},
		{"get/wrong-shard-no-map", Response{Op: OpGet, Status: StatusWrongShard, Msg: "m"}},
		{"hello/bad-request", Response{Op: OpHello, Status: StatusBadRequest, Msg: "hello: v2 required"}},
		{"scan-start/overload", Response{Op: OpScanStart, Status: StatusOverload, Msg: "1ms"}},
		{"scan-end/shutting-down", Response{Op: OpScanEnd, Status: StatusShuttingDown, Msg: "draining"}},
	}
	for _, n := range []int{0, 1, 3} {
		cs = append(cs,
			goldenResp{fmt.Sprintf("get-batch/%d", n), Response{Op: OpGetBatch, Vals: valsN(n), Founds: foundsN(n)}},
			goldenResp{fmt.Sprintf("delete-batch/%d", n), Response{Op: OpDeleteBatch, Founds: foundsN(n)}},
			goldenResp{fmt.Sprintf("scan-chunk/%d", n), Response{Op: OpScanChunk, Keys: keysN(n), Vals: valsN(n)}},
		)
	}
	for i := range cs {
		cs[i].r.ID = goldenID(cs[i].name)
	}
	return cs
}

func reqBody(t *testing.T, r Request) []byte {
	t.Helper()
	frame, err := AppendRequest(nil, &r)
	if err != nil {
		t.Fatalf("AppendRequest(%v): %v", r.Op, err)
	}
	return frame[headerLen:]
}

func respBody(t *testing.T, r Response) []byte {
	t.Helper()
	frame, err := AppendResponse(nil, &r)
	if err != nil {
		t.Fatalf("AppendResponse(%v): %v", r.Op, err)
	}
	return frame[headerLen:]
}

// edit returns a copy of b with f applied.
func edit(b []byte, f func([]byte) []byte) []byte { return f(append([]byte(nil), b...)) }

func put32(at int, v uint32) func([]byte) []byte {
	return func(b []byte) []byte { binary.BigEndian.PutUint32(b[at:], v); return b }
}

func setByte(at int, v byte) func([]byte) []byte {
	return func(b []byte) []byte { b[at] = v; return b }
}

func cut(n int) func([]byte) []byte { return func(b []byte) []byte { return b[:len(b)-n] } }

func extend(tail ...byte) func([]byte) []byte {
	return func(b []byte) []byte { return append(b, tail...) }
}

// goldenBadRequests are request bodies a decoder must refuse, each built by
// damaging a valid body. The id(8) and opcode(1) come first, so payload
// offsets start at 9.
func goldenBadRequests(t *testing.T) []goldenBody {
	get := reqBody(t, Request{ID: 1, Op: OpGet, Key: 42})
	batch := reqBody(t, Request{ID: 2, Op: OpGetBatch, Keys: keysN(1)})
	ins := reqBody(t, Request{ID: 3, Op: OpInsertBatch, Keys: keysN(1), Vals: valsN(1)})
	scan := reqBody(t, Request{ID: 4, Op: OpScanStart, Key: 1, Max: 8, Credits: 2})
	hdr := func(op byte) []byte { return append(binary.BigEndian.AppendUint64(nil, 5), op) }
	var retired []goldenBody
	for _, v := range goldenFlags {
		// The import-session open the codec used to encode as opcode 21:
		// import-resume's layout under that opcode.
		name := "import-start" + v.suffix
		b := reqBody(t, Request{ID: goldenID(name), Op: OpImportResume, Lo: 100, Hi: 200, TimeoutMS: v.timeout, Epoch: v.epoch})
		b[8] = 21 | b[8]&(FlagDeadline|FlagEpoch)
		retired = append(retired, goldenBody{name: name, body: b, changed: true})
	}
	return append(retired, []goldenBody{
		{name: "empty", body: []byte{}},
		{name: "id-only", body: make([]byte, 8)},
		{name: "zero-opcode", body: make([]byte, 9)},
		{name: "unknown-opcode", body: hdr(0x3F)},
		{name: "retired-scan", body: append(hdr(5), 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 100)},
		{name: "scan-chunk-as-request", body: hdr(byte(OpScanChunk))},
		{name: "scan-end-as-request", body: hdr(byte(OpScanEnd))},
		{name: "ping-trailing", body: append(hdr(byte(OpPing)), 0)},
		{name: "get-truncated-key", body: edit(get, cut(1))},
		{name: "get-trailing", body: edit(get, extend(0))},
		{name: "insert-missing-val", body: edit(reqBody(t, Request{ID: 6, Op: OpInsert, Key: 1, Val: 2}), cut(8))},
		{name: "deadline-zero", body: edit(reqBody(t, Request{ID: 7, Op: OpGet, Key: 3, TimeoutMS: 500}), put32(9, 0))},
		{name: "deadline-truncated", body: append(hdr(byte(OpPing)|FlagDeadline), 0, 0)},
		{name: "epoch-zero", body: append(hdr(byte(OpPing)|FlagEpoch), 0, 0, 0, 0, 0, 0, 0, 0)},
		{name: "epoch-truncated", body: append(hdr(byte(OpPing)|FlagEpoch), 0, 0, 0, 1)},
		{name: "get-batch-count-truncated", body: batch[:11]},
		{name: "get-batch-count-lies", body: edit(batch, put32(9, 1000))},
		{name: "get-batch-over-limit", body: edit(batch, put32(9, MaxBatch+1))},
		{name: "get-batch-trailing", body: edit(batch, extend(0))},
		{name: "insert-batch-odd-tail", body: edit(ins, cut(8))},
		{name: "insert-batch-over-limit", body: edit(ins, put32(9, MaxBatch+1))},
		{name: "hello-truncated", body: append(hdr(byte(OpHello)), 2, 0, 0)},
		{name: "scan-start-zero-chunk", body: edit(scan, put32(9+16, 0))},
		{name: "scan-start-big-chunk", body: edit(scan, put32(9+16, MaxScan+1))},
		{name: "scan-start-zero-credits", body: edit(scan, put32(9+20, 0))},
		{name: "scan-start-big-credits", body: edit(scan, put32(9+20, MaxScanCredits+1))},
		{name: "scan-start-zero-chunk-truncated", body: edit(edit(scan, put32(9+16, 0)), cut(2))},
		{name: "scan-start-truncated", body: edit(scan, cut(1))},
		{name: "scan-credit-zero", body: append(hdr(byte(OpScanCredit)), 0, 0, 0, 0)},
		{name: "scan-credit-big", body: append(hdr(byte(OpScanCredit)), 0, 0, 4, 1)},
		{name: "map-set-empty-blob", body: append(hdr(byte(OpMapSet)), make([]byte, 16)...)},
		{name: "map-set-truncated-range", body: append(hdr(byte(OpMapSet)), make([]byte, 12)...)},
		{name: "handover-start-empty-addr", body: append(hdr(byte(OpHandoverStart)), make([]byte, 16)...)},
		{name: "handover-start-long-addr", body: append(append(hdr(byte(OpHandoverStart)), make([]byte, 16)...), strings.Repeat("a", MaxAddr+1)...)},
		{name: "import-resume-truncated", body: append(hdr(byte(OpImportResume)), make([]byte, 15)...)},
		{name: "import-batch-over-limit", body: append(hdr(byte(OpImportBatch)), 0, 1, 0, 1)},
		{name: "import-end-commit-2", body: append(hdr(byte(OpImportEnd)), 2)},
		{name: "import-end-missing", body: hdr(byte(OpImportEnd))},
		{name: "mirror-del-7", body: append(append(hdr(byte(OpMirror)), 7), make([]byte, 16)...)},
		{name: "mirror-truncated", body: append(append(hdr(byte(OpMirror)), 1), make([]byte, 15)...)},
	}...)
}

// goldenBadResponses are response bodies for the response decoder; after the
// id and opcode comes the status byte, so payload offsets start at 10.
func goldenBadResponses(t *testing.T) []goldenBody {
	hdr := func(op byte, st Status) []byte { return append(binary.BigEndian.AppendUint64(nil, 5), op, byte(st)) }
	getBatch := respBody(t, Response{ID: 1, Op: OpGetBatch, Vals: valsN(1), Founds: foundsN(1)})
	delBatch := respBody(t, Response{ID: 2, Op: OpDeleteBatch, Founds: foundsN(3)})
	chunk := respBody(t, Response{ID: 3, Op: OpScanChunk, Keys: keysN(1), Vals: valsN(1)})
	status := respBody(t, Response{ID: 4, Op: OpHandoverStatus, State: 3, Addr: "a:1", Cause: "boom"})
	shard := respBody(t, Response{ID: 6, Op: OpGet, Status: StatusWrongShard, MapBlob: []byte{1, 2}, Msg: "moved"})
	const addrLenAt = 10 + 1 + 7*8
	return []goldenBody{
		{name: "empty", body: []byte{}},
		{name: "truncated-status", body: hdr(byte(OpPing), 0)[:9]},
		{name: "zero-opcode", body: hdr(0, 0)},
		{name: "retired-scan", body: append(hdr(5, 0), 0, 0, 0, 0)},
		{name: "unknown-opcode", body: hdr(200, 0)},
		{name: "flagged-opcode", body: hdr(byte(OpPing)|FlagDeadline, 0)},
		{name: "ping-trailing", body: append(hdr(byte(OpPing), 0), 0)},
		{name: "get-truncated", body: append(hdr(byte(OpGet), 0), 1, 0, 0, 0)},
		{name: "get-trailing", body: append(append(hdr(byte(OpGet), 0), 1), make([]byte, 9)...)},
		{name: "get-found-2", body: append(append(hdr(byte(OpGet), 0), 2), make([]byte, 8)...), changed: true},
		{name: "delete-found-ff", body: append(hdr(byte(OpDelete), 0), 0xFF), changed: true},
		{name: "get-batch-found-2", body: edit(getBatch, setByte(14, 2)), changed: true},
		{name: "delete-batch-found-2", body: edit(delBatch, setByte(15, 2)), changed: true},
		{name: "get-batch-count-lies", body: edit(getBatch, put32(10, 2))},
		{name: "get-batch-over-limit", body: edit(getBatch, put32(10, MaxBatch+1))},
		{name: "delete-batch-over-limit", body: edit(delBatch, put32(10, MaxBatch+1))},
		{name: "delete-batch-trailing", body: edit(delBatch, extend(1))},
		{name: "scan-chunk-count-lies", body: edit(chunk, put32(10, 2))},
		{name: "scan-chunk-over-limit", body: edit(chunk, put32(10, MaxScan+1))},
		{name: "scan-chunk-odd-tail", body: edit(chunk, cut(8))},
		{name: "hello-truncated", body: append(hdr(byte(OpHello), 0), 2, 0)},
		{name: "shard-info-truncated", body: append(hdr(byte(OpShardInfo), 0), make([]byte, 24)...)},
		{name: "map-get-empty", body: hdr(byte(OpMapGet), 0)},
		{name: "handover-status-no-addr-len", body: status[:addrLenAt]},
		{name: "handover-status-lying-addr-len", body: edit(status, setByte(addrLenAt, 8))},
		{name: "handover-status-addr-takes-rest", body: edit(status, setByte(addrLenAt, 7))},
		{name: "import-resume-fresh-2", body: append(append(hdr(byte(OpImportResume), 0), 2), make([]byte, 8)...)},
		{name: "import-batch-trailing", body: append(hdr(byte(OpImportBatch), 0), make([]byte, 9)...)},
		{name: "mirror-trailing", body: append(hdr(byte(OpMirror), 0), 0)},
		{name: "overload-truncated-retry", body: append(hdr(byte(OpGet), StatusOverload), 0, 0)},
		{name: "wrong-shard-lying-blob-len", body: edit(shard, put32(10, 3+5+1))},
		{name: "wrong-shard-over-limit", body: edit(shard, put32(10, MaxMapBlob+1))},
		{name: "wrong-shard-truncated-len", body: append(hdr(byte(OpGet), StatusWrongShard), 0, 0, 0)},
		{name: "err-any-message", body: append(hdr(byte(OpGet), StatusErr), 0xFF, 0)},
		{name: "unknown-status", body: append(hdr(byte(OpGet), 200), 'x')},
		{name: "import-start", body: append(binary.BigEndian.AppendUint64(nil, goldenID("import-start")), 21, 0), changed: true},
	}
}

// decodeResult names what a decoder returned, in the file's vocabulary.
func decodeResult(err error) string {
	if err == nil {
		return "ok"
	}
	for _, s := range []struct {
		name string
		err  error
	}{
		{"ErrTruncated", ErrTruncated}, {"ErrLimit", ErrLimit},
		{"ErrTrailingBytes", ErrTrailingBytes}, {"ErrBadOpcode", ErrBadOpcode},
	} {
		if errors.Is(err, s.err) {
			return s.name
		}
	}
	return "other"
}

// hexOf is b in hex, "-" when empty.
func hexOf(b []byte) string {
	if len(b) == 0 {
		return "-"
	}
	return hex.EncodeToString(b)
}

// renderGolden renders every golden entry as its file line, in file order.
func renderGolden(t *testing.T) []string {
	var lines []string
	mark := func(changed bool) string {
		if changed {
			return "changed: "
		}
		return ""
	}
	for _, c := range goldenRequests() {
		frame, err := AppendRequest(nil, &c.r)
		if err != nil {
			t.Fatalf("req %s: %v", c.name, err)
		}
		// The decoder side of the pin: the frame decodes, and re-encodes to
		// the same bytes.
		var got Request
		if err := DecodeRequest(frame[headerLen:], &got); err != nil {
			t.Errorf("req %s: decode: %v", c.name, err)
		} else if again, _ := AppendRequest(nil, &got); string(again) != string(frame) {
			t.Errorf("req %s: decodes to %+v, which re-encodes differently", c.name, got)
		}
		lines = append(lines, fmt.Sprintf("req %s %x", c.name, frame))
	}
	for _, c := range goldenResponses() {
		frame, err := AppendResponse(nil, &c.r)
		if err != nil {
			t.Fatalf("resp %s: %v", c.name, err)
		}
		var got Response
		if err := DecodeResponse(frame[headerLen:], &got); err != nil {
			t.Errorf("resp %s: decode: %v", c.name, err)
		} else if again, _ := AppendResponse(nil, &got); string(again) != string(frame) {
			t.Errorf("resp %s: decodes to %+v, which re-encodes differently", c.name, got)
		}
		lines = append(lines, fmt.Sprintf("resp %s %x", c.name, frame))
	}
	for _, c := range goldenBadRequests(t) {
		var r Request
		res := decodeResult(DecodeRequest(c.body, &r))
		lines = append(lines, fmt.Sprintf("%sdecode-req %s %s %s", mark(c.changed), c.name, res, hexOf(c.body)))
	}
	for _, c := range goldenBadResponses(t) {
		var r Response
		res := decodeResult(DecodeResponse(c.body, &r))
		lines = append(lines, fmt.Sprintf("%sdecode-resp %s %s %s", mark(c.changed), c.name, res, hexOf(c.body)))
	}
	return lines
}

// TestGoldenFrames fails when the codec's bytes or its decoders' verdicts
// differ from testdata/golden.txt, and reports each entry that differs on
// its own line. When the protocol changes on purpose, the failure prints the
// rendered file to replace it with.
func TestGoldenFrames(t *testing.T) {
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var header []string
	want := map[string]string{} // kind+name -> line
	var order []string
	for _, l := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		if l == "" || strings.HasPrefix(l, "#") {
			if len(want) == 0 {
				header = append(header, l)
			}
			continue
		}
		f := strings.Fields(strings.TrimPrefix(l, "changed: "))
		if len(f) < 3 {
			t.Fatalf("malformed golden line %q", l)
		}
		if _, err := hex.DecodeString(strings.TrimPrefix(f[len(f)-1], "-")); err != nil {
			t.Fatalf("golden line %q: %v", l, err)
		}
		key := f[0] + " " + f[1]
		if _, dup := want[key]; dup {
			t.Fatalf("golden entry %q appears twice", key)
		}
		want[key] = l
		order = append(order, key)
	}
	got := renderGolden(t)
	seen := map[string]bool{}
	for _, l := range got {
		f := strings.Fields(strings.TrimPrefix(l, "changed: "))
		key := f[0] + " " + f[1]
		seen[key] = true
		t.Run(strings.ReplaceAll(key, " ", "/"), func(t *testing.T) {
			if w, ok := want[key]; !ok {
				t.Errorf("missing from %s:\n%s", goldenFile, l)
			} else if w != l {
				t.Errorf("differs:\n file: %s\n  got: %s", w, l)
			}
		})
	}
	for _, key := range order {
		if !seen[key] {
			t.Errorf("%s has %q, which no case renders", goldenFile, key)
		}
	}
	if t.Failed() {
		t.Logf("rendered %s:\n%s\n%s", goldenFile, strings.Join(header, "\n"), strings.Join(got, "\n"))
	}
}
