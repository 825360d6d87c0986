// Package proto defines the length-prefixed binary wire protocol spoken
// between dytis-server and the client package. It is the repository's first
// process boundary, so the decoders in this package are written to survive
// arbitrary adversarial bytes: every length is validated before allocation,
// nothing panics, and the fuzz targets in fuzz_test.go hammer exactly the
// two functions a peer can reach with attacker-controlled input
// (DecodeRequest, DecodeResponse).
//
// Framing (both directions):
//
//	uint32  body length (big endian), at most MaxFrame-4
//	uint64  request id  — echoed verbatim in the response so a pipelining
//	                      client can match out-of-order completions
//	uint8   opcode      — requests may OR in FlagDeadline (0x80) and
//	                      FlagEpoch (0x40), each announcing a field before
//	                      the payload: uint32 timeout-millis, the caller's
//	                      remaining deadline budget, which the server uses
//	                      to shed requests that expired in its queue; then
//	                      uint64 shard-map epoch
//	...     opcode-specific payload (requests) / status + payload (responses)
//
// Integers are big endian; a bool is one byte, 0 or 1, and a decoder
// refuses any other value, so every frame has one encoding. Each opcode's
// request payload and OK-response payload is a list of fields in one table,
// specs (spec.go), from which the encoders and decoders run; DESIGN.md §9's
// wire table is rendered from it. A response whose status is not OK carries
// instead a StatusOverload's typed retryAfterMillis(4), a StatusWrongShard's
// encoded shard map as length(4) + blob, and then a UTF-8 message filling
// the rest of the frame.
//
// Opcodes 5 (the whole-result scan, which scans no longer use) and 21 (an
// import-session open that ImportResume replaced) are reserved: no encoder
// emits them and every decoder refuses them, so every later opcode keeps its
// number.
//
// The per-op byte cost makes the batching amortization concrete: a pipelined
// single-key GET costs 25 bytes of request framing for 8 bytes of key; a
// 128-key GetBatch costs 17+4 bytes of framing for 1024 bytes of keys.
//
// # Handshake and features
//
// Every connection opens with OpHello as its first request; the server
// refuses a first frame that is not a HELLO asking for Version2 with FeatCRC
// and FeatScanStream: it answers StatusBadRequest and closes the connection.
// The HELLO exchange itself travels unsealed; every frame after it is
// sealed. Version2 negotiates these features:
//
//   - FeatCRC: every frame after the HELLO exchange, in both directions,
//     carries a 4-byte CRC32C (Castagnoli) trailer covering the length
//     prefix and the body (see crc.go). The trailer is not counted in the
//     length prefix.
//
//   - FeatScanStream: the streaming scan opcode family, the one way a scan
//     travels. ScanStart opens a server-push stream of ScanChunk frames,
//     each at most chunk pairs, ended by ScanEnd carrying the total (status
//     != OK on abort); max is the total pair budget (0 = unbounded). Every
//     frame of a stream echoes the ScanStart's request id. The server sends
//     at most credits chunks ahead of the client's consumption, and the
//     client grants one credit back per consumed chunk (ScanCredit, never
//     answered), so a million-key scan flows in bounded chunks interleaved
//     with the connection's other pipelined traffic. ScanCancel (never
//     answered) abandons a stream.
//
//   - FeatCluster: the sharded-serving opcode family (internal/cluster,
//     client.DialCluster; Opcode.Cluster), FlagEpoch on requests, and
//     StatusWrongShard redirects. A server owning a different epoch, or not
//     owning a request's key, answers StatusWrongShard with its current map,
//     so a routing client refreshes and retries instead of guessing. The map
//     blob is opaque at this layer (internal/cluster defines and validates
//     its encoding); proto only bounds and transports it. Handover semantics
//     live in internal/cluster: HandoverResume restarts a suspended handover
//     from its watermark, HandoverAbort abandons it, and ImportResume
//     reattaches (fresh=0) or opens (fresh=1) the target-side import session.
package proto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"
)

// Opcode identifies a request kind. Zero is deliberately invalid so an
// all-zero frame (a classic truncation artifact) cannot decode.
type Opcode uint8

const (
	OpInvalid Opcode = iota
	OpPing
	OpGet
	OpInsert
	OpDelete
	opScanRetired // reserved: the whole-result scan, which scans no longer use; decoders refuse it
	OpGetBatch
	OpInsertBatch
	OpDeleteBatch
	OpLen

	// Protocol v2 opcodes (negotiated via OpHello; see the package comment).
	OpHello      // feature negotiation; only valid as a connection's first request
	OpScanStart  // open a streaming scan
	OpScanCredit // grant chunk credits to a running scan (never answered)
	OpScanCancel // abandon a running scan (never answered)
	OpScanChunk  //dytis:response-only one chunk of scan pairs
	OpScanEnd    //dytis:response-only end of a scan stream

	// Cluster opcodes (negotiated via FeatCluster; see the package comment).
	OpShardInfo          // this server's owned range, map epoch, and handover state
	OpMapGet             // fetch the server's current encoded shard map
	OpMapSet             // install a shard map (admin/ctl; bumps the epoch)
	OpHandoverStart      // begin migrating an owned subrange to a peer
	OpHandoverStatus     // poll the running handover's progress
	opImportStartRetired // reserved: an import-session open, which OpImportResume replaced; decoders refuse it
	OpImportBatch        // peer-side: one bulk page of the session's pairs
	OpImportEnd          // peer-side: close the session (commit or abort+scrub)
	OpMirror             // peer-side: one double-written op during cutover

	// Handover robustness opcodes (still FeatCluster; see internal/cluster).
	OpHandoverResume // restart a suspended handover from its watermark
	OpHandoverAbort  // abandon the handover and scrub the target session
	OpImportResume   // peer-side: reattach to (or open) an import session

	// NumOpcodes bounds the opcode space; valid opcodes are 1..NumOpcodes-1,
	// so it can size per-opcode metric arrays.
	NumOpcodes
)

// FlagDeadline, OR-ed into a request's opcode byte, announces a uint32
// timeout-millis field between the opcode and the payload. The encoding is
// canonical: the flag appears iff the budget is nonzero, and a decoder
// rejects a zero budget carried under the flag.
const FlagDeadline = 0x80

// FlagEpoch, OR-ed into a request's opcode byte, announces a uint64
// shard-map epoch after the optional deadline field (FeatCluster). Same
// canonicality rule: the flag appears iff the epoch is nonzero (epochs
// start at 1), and a decoder rejects a zero epoch under the flag.
const FlagEpoch = 0x40

// Protocol versions, negotiated via OpHello (see the package comment).
const (
	// Version1 is the original protocol, which no server speaks any more:
	// it refuses a HELLO that asks for no more.
	Version1 uint8 = 1
	// Version2 adds per-frame CRC32C trailers, the streaming scan opcode
	// family, and a typed retry-after field on overload responses.
	Version2 uint8 = 2
	// MaxVersion is the highest version this package implements.
	MaxVersion = Version2
)

// Feature bits carried in the OpHello exchange. The server grants the
// intersection of what the client requested and what it supports.
const (
	// FeatCRC seals every post-handshake frame with a CRC32C trailer.
	FeatCRC uint32 = 1 << 0
	// FeatScanStream enables OpScanStart/OpScanCredit/OpScanCancel and the
	// OpScanChunk/OpScanEnd response stream.
	FeatScanStream uint32 = 1 << 1
	// FeatCluster enables the sharded-serving opcode family (OpShardInfo
	// through OpMirror), FlagEpoch on requests, and StatusWrongShard
	// redirects. A server only grants it when it is running with a cluster
	// node (dytis-server -shard / -cluster).
	FeatCluster uint32 = 1 << 2
	// AllFeatures is every feature bit this package implements.
	AllFeatures = FeatCRC | FeatScanStream | FeatCluster
)

// Status is the first payload byte of every response.
type Status uint8

const (
	StatusOK Status = iota
	// StatusBadRequest: the server could not decode or validate the request;
	// the connection stays usable.
	StatusBadRequest
	// StatusShuttingDown: the server is draining and rejected new work.
	StatusShuttingDown
	// StatusErr: any other server-side failure.
	StatusErr
	// StatusOverload: the server shed the request under admission control.
	// The message is a retry-after hint in time.Duration syntax; the client
	// surfaces it as a typed overload error.
	StatusOverload
	// StatusDeadlineExceeded: the request's propagated deadline budget had
	// already expired when the server was about to execute it, so the work
	// was skipped. The caller has necessarily timed out already; this
	// status exists so a late-reading pipelined client sees "shed", never a
	// stale answer.
	StatusDeadlineExceeded
	// StatusChecksum: a frame failed CRC32C verification (FeatCRC). The
	// answer is best-effort — the id is salvaged from the corrupt body's
	// prefix — and the connection closes right after: a stream that has
	// carried one corrupt frame cannot be trusted to stay aligned.
	StatusChecksum
	// StatusWrongShard: the request named a key this server does not own,
	// or carried a shard-map epoch that is not the server's current one
	// (FeatCluster). The response body carries the server's current
	// encoded shard map (u32 length + blob) before the message, so a
	// routing client can refresh its map and retry without a side channel.
	StatusWrongShard
)

// Wire limits. A decoder rejects anything beyond them before allocating, so
// a hostile peer cannot make either side reserve unbounded memory.
const (
	// MaxFrame bounds a whole frame (4-byte length prefix included). It is
	// sized so a MaxBatch insert batch and a MaxScan scan chunk both fit.
	MaxFrame = 1 << 21
	// MaxBatch bounds the entry count of one batched request.
	MaxBatch = 1 << 16
	// MaxScan bounds a streaming scan's per-chunk pair budget.
	MaxScan = 1 << 16
	// MaxScanCredits bounds the outstanding chunk credits of one streaming
	// scan, so a hostile peer cannot bank an unbounded window.
	MaxScanCredits = 1 << 10
	// MaxAddr bounds an endpoint address carried in a cluster frame
	// (OpHandoverStart's target, the per-shard addresses of a map blob).
	MaxAddr = 255
	// MaxMapBlob bounds an encoded shard map carried in a cluster frame
	// (OpMapSet, OpMapGet, StatusWrongShard): the decoder's allocation
	// bound, far under maxBody. internal/cluster validates that the maps
	// it encodes fit.
	MaxMapBlob = 1 << 16

	headerLen = 4     // length prefix
	prefixLen = 8 + 1 // request id + opcode, present in every body
	maxBody   = MaxFrame - headerLen
	// maxFixed bounds a payload's fixed-width fields: HandoverStatus's
	// state, seven counters and address length are the widest.
	maxFixed = 1 + 7*8 + 1
)

// Decode errors. Wrapped with detail; match with errors.Is.
var (
	ErrFrameTooLarge = errors.New("proto: frame exceeds MaxFrame")
	ErrTruncated     = errors.New("proto: truncated frame")
	ErrTrailingBytes = errors.New("proto: trailing bytes after payload")
	ErrBadOpcode     = errors.New("proto: unknown opcode")
	ErrLimit         = errors.New("proto: count exceeds protocol limit")
)

// Request is one decoded client request.
type Request struct {
	ID uint64
	Op Opcode

	// TimeoutMS, when nonzero, is the caller's remaining deadline budget in
	// milliseconds (FlagDeadline on the wire). A server may skip executing
	// the request once the budget has elapsed since arrival and answer
	// StatusDeadlineExceeded instead.
	TimeoutMS uint32

	Key uint64 // Get/Insert/Delete key, ScanStart start
	Val uint64 // Insert value
	Max uint32 // ScanStart per-chunk pair budget

	Keys []uint64 // GetBatch/DeleteBatch keys, InsertBatch keys
	Vals []uint64 // InsertBatch values (len == len(Keys))

	// Protocol v2 fields.
	Ver     uint8  // Hello: highest version the client speaks
	Feats   uint32 // Hello: requested feature bits
	ScanMax uint64 // ScanStart: total pair budget (0 = unbounded)
	Credits uint32 // ScanStart: initial credit window; ScanCredit: credits granted

	// Cluster fields (FeatCluster).

	// Epoch, when nonzero, is the shard-map epoch the sender routed this
	// request under (FlagEpoch on the wire). A server owning a different
	// epoch answers StatusWrongShard instead of executing.
	Epoch   uint64
	Lo, Hi  uint64 // MapSet: self range; HandoverStart/ImportResume: moved range
	Addr    string // HandoverStart: target endpoint
	MapBlob []byte // MapSet: the encoded shard map to install
	Commit  bool   // ImportEnd: commit (true) or abort+scrub (false)
	Del     bool   // Mirror: the mirrored op is a delete
}

// Response is one decoded server response.
type Response struct {
	ID     uint64
	Op     Opcode
	Status Status
	Msg    string // error message when Status != StatusOK

	Found bool   // Get/Delete
	Val   uint64 // Get value, Len count, ScanEnd total pairs delivered

	Keys   []uint64 // ScanChunk result keys
	Vals   []uint64 // ScanChunk result values, GetBatch values
	Founds []bool   // GetBatch/DeleteBatch per-entry found flags

	// Protocol v2 fields.
	Ver   uint8  // Hello: negotiated version
	Feats uint32 // Hello: granted feature bits
	// RetryAfterMS is the typed retry-after hint of a StatusOverload
	// response; when it is zero, RetryAfter falls back to parsing Msg.
	RetryAfterMS uint32

	// Cluster fields (FeatCluster).
	Lo, Hi    uint64 // ShardInfo: owned range; HandoverStatus: moving range
	Epoch     uint64 // ShardInfo: current shard-map epoch
	State     uint8  // ShardInfo: serving state; HandoverStatus: handover state
	Copied    uint64 // HandoverStatus: pairs bulk-copied so far
	Mirrored  uint64 // HandoverStatus: ops mirrored so far
	Retries   uint64 // HandoverStatus: peer-call retries across all runs
	Resumes   uint64 // HandoverStatus: successful resumes so far
	Watermark uint64 // HandoverStatus: next bulk-copy key (resume restarts here)
	Addr      string // HandoverStatus: handover target endpoint ("" = none)
	Cause     string // HandoverStatus: last suspension cause ("" = none)
	Applied   uint64 // ImportBatch/ImportResume: pairs actually applied (duplicates skipped)
	Fresh     bool   // ImportResume: the session was recreated, not reattached
	// MapBlob is the server's current encoded shard map: the MapGet answer,
	// and the redirect payload of a StatusWrongShard response.
	MapBlob []byte
}

// Err returns the response's error, nil for StatusOK.
func (r *Response) Err() error {
	if r.Status == StatusOK {
		return nil
	}
	return fmt.Errorf("proto: server status %d: %s", r.Status, r.Msg)
}

// RetryAfter returns the retry-after hint of a StatusOverload response: the
// typed field when nonzero, otherwise parsed out of Msg.
// It reports false for other statuses or an absent/unparseable hint.
func (r *Response) RetryAfter() (time.Duration, bool) {
	if r.Status != StatusOverload {
		return 0, false
	}
	if r.RetryAfterMS > 0 {
		return time.Duration(r.RetryAfterMS) * time.Millisecond, true
	}
	d, err := time.ParseDuration(r.Msg)
	if err != nil || d < 0 {
		return 0, false
	}
	return d, true
}

// --- encoding and decoding -------------------------------------------------

func appendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

// AppendRequest appends r as one framed request to dst and returns the
// extended slice. It returns an error (leaving dst unusable only in length)
// if r violates a protocol limit, so a misconfigured caller fails loudly
// instead of emitting a frame the peer must reject.
func AppendRequest(dst []byte, r *Request) ([]byte, error) {
	if !r.Op.Valid() {
		return dst, fmt.Errorf("%w: %d", ErrBadOpcode, uint8(r.Op))
	}
	lenAt := len(dst)
	dst = slices.Grow(dst, headerLen+prefixLen+4+8+maxFixed+TrailerLen+
		8*min(len(r.Keys)+len(r.Vals), 2*MaxBatch)+min(len(r.MapBlob), MaxMapBlob)+min(len(r.Addr), MaxAddr))
	dst = appendU32(dst, 0) // frame length, patched below
	dst = append(appendU64(dst, r.ID), byte(r.Op))
	if r.TimeoutMS != 0 {
		dst[lenAt+headerLen+8] |= FlagDeadline
		dst = appendU32(dst, r.TimeoutMS)
	}
	if r.Epoch != 0 {
		dst[lenAt+headerLen+8] |= FlagEpoch
		dst = appendU64(dst, r.Epoch)
	}
	var err error
	c := codec{err: &err}
	for _, f := range specs[r.Op].req {
		dst = r.field(&c, dst, f)
	}
	return finish(dst, lenAt, err)
}

// AppendResponse appends r as one framed response to dst.
func AppendResponse(dst []byte, r *Response) ([]byte, error) {
	if !r.Op.ValidResponse() {
		return dst, fmt.Errorf("%w: %d", ErrBadOpcode, uint8(r.Op))
	}
	lenAt := len(dst)
	dst = slices.Grow(dst, headerLen+prefixLen+1+maxFixed+TrailerLen+
		8*min(len(r.Keys)+len(r.Vals), 2*MaxScan)+min(len(r.Founds), MaxBatch)+
		min(len(r.MapBlob), MaxMapBlob)+min(len(r.Addr), MaxAddr)+len(r.Cause)+len(r.Msg))
	dst = appendU32(dst, 0)
	dst = appendU64(dst, r.ID)
	dst = append(dst, byte(r.Op), byte(r.Status))
	var err error
	c := codec{err: &err}
	if r.Status == StatusOK {
		for _, f := range specs[r.Op].resp {
			dst = r.field(&c, dst, f)
		}
		return finish(dst, lenAt, err)
	}
	if r.Status == StatusOverload {
		dst = appendU32(dst, r.RetryAfterMS)
	}
	if r.Status == StatusWrongShard {
		if len(r.MapBlob) > MaxMapBlob {
			return dst, fmt.Errorf("%w: map blob of %d bytes", ErrLimit, len(r.MapBlob))
		}
		dst = append(appendU32(dst, uint32(len(r.MapBlob))), r.MapBlob...)
	}
	return finish(append(dst, r.Msg...), lenAt, nil)
}

// finish ends an encoding: it writes the frame's body length into the 4
// bytes at lenAt and rejects frames that failed or outgrew MaxFrame.
func finish(dst []byte, lenAt int, err error) ([]byte, error) {
	if err != nil {
		return dst, err
	}
	body := len(dst) - lenAt - headerLen
	if body > maxBody {
		return dst, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, body+headerLen)
	}
	binary.BigEndian.PutUint32(dst[lenAt:], uint32(body))
	return dst, nil
}

// DecodeRequest decodes one request from a frame body (the bytes after the
// 4-byte length prefix) into req, which is overwritten; its Keys/Vals slices
// are reused when their capacity suffices. It never panics and never
// allocates more than the validated entry counts require.
func DecodeRequest(body []byte, req *Request) error {
	if len(body) < prefixLen {
		return fmt.Errorf("%w: %d-byte body", ErrTruncated, len(body))
	}
	opb := body[8]
	op := Opcode(opb &^ (FlagDeadline | FlagEpoch))
	if !op.Valid() {
		return fmt.Errorf("%w: %d", ErrBadOpcode, opb)
	}
	*req = Request{
		ID: binary.BigEndian.Uint64(body), Op: op,
		Keys: req.Keys[:0], Vals: req.Vals[:0], MapBlob: req.MapBlob[:0],
	}
	var err error
	c := codec{in: body, off: prefixLen, dec: true, err: &err}
	// A flag over a zero field is non-canonical (the encoder omits the flag
	// instead), and epochs start at 1: refusing both keeps one encoding per
	// request.
	if opb&FlagDeadline != 0 {
		if req.TimeoutMS = binary.BigEndian.Uint32(c.take(4)); req.TimeoutMS == 0 {
			c.fail(errors.New("proto: deadline flag with zero budget"))
		}
	}
	if opb&FlagEpoch != 0 {
		if req.Epoch = binary.BigEndian.Uint64(c.take(8)); req.Epoch == 0 {
			c.fail(errors.New("proto: epoch flag with zero epoch"))
		}
	}
	for _, f := range specs[op].req {
		req.field(&c, nil, f)
	}
	c.done()
	return err
}

// DecodeResponse decodes one response from a frame body into resp, which is
// overwritten; slices are reused when capacity suffices.
func DecodeResponse(body []byte, resp *Response) error {
	if len(body) < prefixLen {
		return fmt.Errorf("%w: %d-byte body", ErrTruncated, len(body))
	}
	op := Opcode(body[8])
	if !op.ValidResponse() {
		return fmt.Errorf("%w: %d", ErrBadOpcode, body[8])
	}
	if len(body) == prefixLen {
		return fmt.Errorf("%w: no status", ErrTruncated)
	}
	*resp = Response{
		ID: binary.BigEndian.Uint64(body), Op: op, Status: Status(body[prefixLen]),
		Keys: resp.Keys[:0], Vals: resp.Vals[:0], Founds: resp.Founds[:0],
		MapBlob: resp.MapBlob[:0],
	}
	var err error
	c := codec{in: body, off: prefixLen + 1, dec: true, err: &err}
	if resp.Status == StatusOK {
		for _, f := range specs[op].resp {
			resp.field(&c, nil, f)
		}
		c.done()
		return err
	}
	if resp.Status == StatusOverload {
		resp.RetryAfterMS = binary.BigEndian.Uint32(c.take(4))
	}
	if resp.Status == StatusWrongShard {
		n := int(binary.BigEndian.Uint32(c.take(4)))
		if left := len(c.in) - c.off; n > min(MaxMapBlob, left) {
			c.fail(fmt.Errorf("%w: wrong-shard map blob of %d bytes, %d remain", ErrLimit, n, left))
		}
		resp.MapBlob = append(resp.MapBlob, c.take(n)...)
	}
	resp.Msg = string(c.in[c.off:])
	return err
}

// AppendResponseV is AppendResponse; ver is ignored.
//
// Deprecated: use AppendResponse. benchmark/layers.go is the last caller;
// ROADMAP item 24(b) moves it and deletes this.
func AppendResponseV(dst []byte, r *Response, ver uint8) ([]byte, error) {
	return AppendResponse(dst, r)
}

// DecodeResponseV is DecodeResponse; ver is ignored.
//
// Deprecated: use DecodeResponse. benchmark/layers.go is the last caller;
// ROADMAP item 24(b) moves it and deletes this.
func DecodeResponseV(body []byte, resp *Response, ver uint8) error {
	return DecodeResponse(body, resp)
}

// --- framing ----------------------------------------------------------------

// ReadHeader reads and validates one frame's 4-byte length prefix from r,
// returning the body length. It rejects lengths beyond MaxFrame before any
// allocation — a hostile peer cannot make the caller reserve more — and
// lengths too small to hold the id+opcode prefix every body carries.
//
// Splitting header from body lets a server apply two different read
// deadlines: a long idle deadline while waiting for a request to start, and
// a short per-frame deadline once the header has arrived, which is what
// reaps a slow-loris peer trickling a frame byte by byte.
//
//dytis:blocks
func ReadHeader(r io.Reader) (int, error) {
	u, err := readU32(r)
	if err != nil {
		return 0, err
	}
	n := int(u)
	if n > maxBody {
		return 0, fmt.Errorf("%w: body of %d", ErrFrameTooLarge, n)
	}
	if n < prefixLen {
		return 0, fmt.Errorf("%w: body of %d bytes", ErrTruncated, n)
	}
	return n, nil
}

// readU32 reads one big-endian 4-byte word (a length prefix or a trailer)
// with io.ReadFull's errors: io.EOF before its first byte,
// io.ErrUnexpectedEOF inside it. A *bufio.Reader — what the server and
// client read loops hold — is peeked and advanced in place, so the read
// allocates nothing; any other reader needs a scratch array, which escapes
// through the io.Reader call.
func readU32(r io.Reader) (uint32, error) {
	if br, ok := r.(*bufio.Reader); ok {
		p, err := br.Peek(4)
		if err != nil {
			if err == io.EOF && len(p) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		v := binary.BigEndian.Uint32(p)
		_, _ = br.Discard(4) // cannot fail: Peek just buffered these 4 bytes
		return v, nil
	}
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b[:]), nil
}

// ReadBody reads an n-byte frame body (n from ReadHeader) into buf, grown
// as needed, and returns the body slice, which aliases buf.
//
//dytis:blocks
func ReadBody(r io.Reader, n int, buf []byte) ([]byte, []byte, error) {
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	body := buf[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, buf, err
	}
	hookFrame(body)
	return body, buf, nil
}

// ReadFrame reads one length-prefixed frame body from r into buf (grown as
// needed) and returns the body slice, which aliases buf. It is
// ReadHeader followed by ReadBody.
//
//dytis:blocks
func ReadFrame(r io.Reader, buf []byte) ([]byte, []byte, error) {
	n, err := ReadHeader(r)
	if err != nil {
		return nil, buf, err
	}
	return ReadBody(r, n, buf)
}
