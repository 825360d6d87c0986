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
//	uint8   opcode      — requests may OR in FlagDeadline (0x80), followed
//	                      by uint32 timeout-millis before the payload: the
//	                      caller's remaining deadline budget, which the
//	                      server uses to shed requests that have already
//	                      expired in its queue
//	...     opcode-specific payload (requests) / status + payload (responses)
//
// Integers are big endian. Request payloads:
//
//	Ping         —
//	Get          key(8)
//	Insert       key(8) val(8)
//	Delete       key(8)
//	GetBatch     n(4) key(8)*n                        n <= MaxBatch
//	InsertBatch  n(4) [key(8) val(8)]*n               n <= MaxBatch
//	DeleteBatch  n(4) key(8)*n                        n <= MaxBatch
//	Len          —
//
// Response payloads, after a 1-byte status (0 = OK; otherwise the remaining
// body is a UTF-8 error message):
//
//	Ping         —
//	Get          found(1) val(8)
//	Insert       —
//	Delete       found(1)
//	GetBatch     n(4) [found(1) val(8)]*n
//	InsertBatch  —
//	DeleteBatch  n(4) found(1)*n
//	Len          count(8)
//
// Opcode 5, between Delete and GetBatch, is reserved: it was a whole-result
// scan, which scans no longer use, and every decoder refuses it.
//
// The per-op byte cost makes the batching amortization concrete: a pipelined
// single-key GET costs 25 bytes of request framing for 8 bytes of key; a
// 128-key GetBatch costs 17+4 bytes of framing for 1024 bytes of keys.
//
// # Protocol v2 (negotiated)
//
// Everything above is the protocol v1 encoding, which the HELLO exchange
// still uses. Every connection opens with OpHello as its first request:
//
//	Hello (request)   maxVersion(1) features(4)
//	Hello (response)  version(1) features(4)       — the negotiated subset
//
// The server refuses a first frame that is not a HELLO asking for Version2
// with FeatCRC and FeatScanStream: it answers StatusBadRequest and closes
// the connection. The HELLO exchange itself is unsealed v1 framing; every
// frame after it is protocol v2. Scans travel only as streams. Version2
// negotiates these features:
//
//   - FeatCRC: every frame after the HELLO exchange, in both directions,
//     carries a 4-byte CRC32C (Castagnoli) trailer covering the length
//     prefix and the body (see crc.go). The trailer is not counted in the
//     length prefix.
//
//   - FeatScanStream: the streaming scan opcode family. A scan becomes a
//     server-push stream with client credit-based flow control:
//
//     ScanStart  (request)   start(8) max(8) chunk(4) credits(4)
//     max is the total pair budget (0 = unbounded),
//     chunk the per-frame pair bound (<= MaxScan),
//     credits the initial window (<= MaxScanCredits)
//     ScanCredit (request)   credits(4) — id = the scan's id; never answered
//     ScanCancel (request)   — id = the scan's id; never answered
//     ScanChunk  (response)  n(4) [key(8) val(8)]*n — one chunk, costs one credit
//     ScanEnd    (response)  total(8) — stream end (status != OK on abort)
//
// Every frame of a stream (the chunks and the end) echoes the ScanStart's
// request id. The server sends at most `credits` chunks ahead of the
// client's consumption; the client grants one credit back per chunk it has
// consumed, so a million-key scan flows in bounded chunks interleaved with
// the connection's other pipelined traffic instead of marshaling one huge
// response.
//
// Responses also fork on one point at v2: a StatusOverload response carries
// a typed retryAfterMillis(4) before the message, so clients no longer
// parse the human-readable hint out of Msg (v1 keeps the Msg-only form).
//
// # Cluster opcodes (FeatCluster)
//
// FeatCluster enables the sharded-serving opcode family (internal/cluster,
// client.DialCluster). A cluster-routed request may OR FlagEpoch (0x40) into
// its opcode byte, announcing a uint64 shard-map epoch after the optional
// deadline field; a server owning a different epoch (or not owning a
// request's key) answers StatusWrongShard, whose v2 payload carries the
// server's current encoded shard map before the message, so a routing
// client refreshes and retries instead of guessing. Request payloads:
//
//	ShardInfo       —
//	MapGet          —
//	MapSet          selfLo(8) selfHi(8) map-blob(rest)
//	HandoverStart   lo(8) hi(8) targetAddr(rest)        1 <= len <= MaxAddr
//	HandoverStatus  —
//	HandoverResume  —
//	HandoverAbort   —
//	ImportStart     lo(8) hi(8)
//	ImportResume    lo(8) hi(8)
//	ImportBatch     n(4) [key(8) val(8)]*n              n <= MaxBatch
//	ImportEnd       commit(1)                           0 or 1
//	Mirror          del(1) key(8) val(8)                del 0 or 1
//
// OK response payloads:
//
//	ShardInfo       lo(8) hi(8) epoch(8) state(1)
//	MapGet          map-blob(rest)
//	HandoverStatus  state(1) copied(8) mirrored(8) retries(8) resumes(8)
//	                watermark(8) lo(8) hi(8) addrLen(1) targetAddr(addrLen)
//	                cause(rest)
//	                addrLen <= MaxAddr; both empty when no handover exists;
//	                cause is the suspension's text, empty unless suspended
//	ImportResume    fresh(1) applied(8)                 fresh 0 or 1
//	ImportBatch     applied(8)
//	MapSet/HandoverStart/HandoverResume/HandoverAbort/ImportStart/ImportEnd/Mirror   —
//
// The map blob itself is opaque at this layer (internal/cluster defines
// and validates its encoding); proto only bounds and transports it.
// Handover resume semantics live in internal/cluster: HandoverResume
// restarts a suspended handover from its watermark, HandoverAbort
// abandons it, and ImportResume reattaches (fresh=0) or recreates
// (fresh=1) the target-side import session.
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
	OpShardInfo      // this server's owned range, map epoch, and handover state
	OpMapGet         // fetch the server's current encoded shard map
	OpMapSet         // install a shard map (admin/ctl; bumps the epoch)
	OpHandoverStart  // begin migrating an owned subrange to a peer
	OpHandoverStatus // poll the running handover's progress
	OpImportStart    // peer-side: open an import session for a range
	OpImportBatch    // peer-side: one bulk page of the session's pairs
	OpImportEnd      // peer-side: close the session (commit or abort+scrub)
	OpMirror         // peer-side: one double-written op during cutover

	// Handover robustness opcodes (still FeatCluster; see internal/cluster).
	OpHandoverResume // restart a suspended handover from its watermark
	OpHandoverAbort  // abandon the handover and scrub the target session
	OpImportResume   // peer-side: reattach to (or recreate) an import session

	// NumOpcodes bounds the opcode space; valid opcodes are 1..NumOpcodes-1,
	// so it can size per-opcode metric arrays.
	NumOpcodes
)

func (o Opcode) String() string {
	//dytis:opswitch opcodes
	switch o {
	case OpPing:
		return "ping"
	case OpGet:
		return "get"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpGetBatch:
		return "get-batch"
	case OpInsertBatch:
		return "insert-batch"
	case OpDeleteBatch:
		return "delete-batch"
	case OpLen:
		return "len"
	case OpHello:
		return "hello"
	case OpScanStart:
		return "scan-start"
	case OpScanCredit:
		return "scan-credit"
	case OpScanCancel:
		return "scan-cancel"
	case OpScanChunk:
		return "scan-chunk"
	case OpScanEnd:
		return "scan-end"
	case OpShardInfo:
		return "shard-info"
	case OpMapGet:
		return "map-get"
	case OpMapSet:
		return "map-set"
	case OpHandoverStart:
		return "handover-start"
	case OpHandoverStatus:
		return "handover-status"
	case OpImportStart:
		return "import-start"
	case OpImportBatch:
		return "import-batch"
	case OpImportEnd:
		return "import-end"
	case OpMirror:
		return "mirror"
	case OpHandoverResume:
		return "handover-resume"
	case OpHandoverAbort:
		return "handover-abort"
	case OpImportResume:
		return "import-resume"
	}
	return fmt.Sprintf("opcode(%d)", uint8(o))
}

// Valid reports whether o is a defined request opcode. The response-only
// stream opcodes are excluded: a request decoder must reject them.
func (o Opcode) Valid() bool {
	return o.ValidResponse() && o != OpScanChunk && o != OpScanEnd
}

// ValidResponse reports whether o may appear in a response.
func (o Opcode) ValidResponse() bool { return o > OpInvalid && o < NumOpcodes && o != opScanRetired }

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
	// Version1 is the original encoding, which the HELLO exchange still
	// uses; the server refuses a connection that asks for no more.
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
	// (FeatCluster). At v2 the response body carries the server's current
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
	Lo, Hi  uint64 // MapSet: self range; HandoverStart/ImportStart/ImportResume: moved range
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
	// response. Protocol v2 carries it on the wire; on v1 it stays zero
	// and RetryAfter falls back to parsing Msg.
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
	// and on v2 the redirect payload of a StatusWrongShard response.
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
// typed v2 field when present, otherwise parsed out of Msg (the v1 form).
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

// --- encoding ---------------------------------------------------------------

func appendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

// AppendRequest appends r as one framed request to dst and returns the
// extended slice. It returns an error (leaving dst unusable only in length)
// if r violates a protocol limit, so a misconfigured caller fails loudly
// instead of emitting a frame the peer must reject.
func AppendRequest(dst []byte, r *Request) ([]byte, error) {
	lenAt := len(dst)
	dst = slices.Grow(dst, requestSize(r))
	dst = appendU32(dst, 0) // frame length, patched below
	dst = appendU64(dst, r.ID)
	opb := byte(r.Op)
	if r.TimeoutMS != 0 {
		opb |= FlagDeadline
	}
	if r.Epoch != 0 {
		opb |= FlagEpoch
	}
	dst = append(dst, opb)
	if r.TimeoutMS != 0 {
		dst = appendU32(dst, r.TimeoutMS)
	}
	if r.Epoch != 0 {
		dst = appendU64(dst, r.Epoch)
	}
	//dytis:opswitch requests
	switch r.Op {
	case OpPing, OpLen:
	case OpGet, OpDelete:
		dst = appendU64(dst, r.Key)
	case OpInsert:
		dst = appendU64(dst, r.Key)
		dst = appendU64(dst, r.Val)
	case OpGetBatch, OpDeleteBatch:
		if len(r.Keys) > MaxBatch {
			return dst, fmt.Errorf("%w: batch of %d", ErrLimit, len(r.Keys))
		}
		dst = appendU32(dst, uint32(len(r.Keys)))
		for _, k := range r.Keys {
			dst = appendU64(dst, k)
		}
	case OpInsertBatch:
		if len(r.Keys) > MaxBatch {
			return dst, fmt.Errorf("%w: batch of %d", ErrLimit, len(r.Keys))
		}
		if len(r.Keys) != len(r.Vals) {
			return dst, fmt.Errorf("proto: insert batch keys/vals length mismatch (%d vs %d)", len(r.Keys), len(r.Vals))
		}
		dst = appendU32(dst, uint32(len(r.Keys)))
		for i, k := range r.Keys {
			dst = appendU64(dst, k)
			dst = appendU64(dst, r.Vals[i])
		}
	case OpHello:
		dst = append(dst, r.Ver)
		dst = appendU32(dst, r.Feats)
	case OpScanStart:
		if r.Max == 0 || r.Max > MaxScan {
			return dst, fmt.Errorf("%w: scan chunk %d", ErrLimit, r.Max)
		}
		if r.Credits == 0 || r.Credits > MaxScanCredits {
			return dst, fmt.Errorf("%w: scan credits %d", ErrLimit, r.Credits)
		}
		dst = appendU64(dst, r.Key)
		dst = appendU64(dst, r.ScanMax)
		dst = appendU32(dst, r.Max)
		dst = appendU32(dst, r.Credits)
	case OpScanCredit:
		if r.Credits == 0 || r.Credits > MaxScanCredits {
			return dst, fmt.Errorf("%w: scan credits %d", ErrLimit, r.Credits)
		}
		dst = appendU32(dst, r.Credits)
	case OpScanCancel:
	case OpShardInfo, OpMapGet, OpHandoverStatus, OpHandoverResume, OpHandoverAbort:
	case OpMapSet:
		if len(r.MapBlob) == 0 || len(r.MapBlob) > MaxMapBlob {
			return dst, fmt.Errorf("%w: map blob of %d bytes", ErrLimit, len(r.MapBlob))
		}
		dst = appendU64(dst, r.Lo)
		dst = appendU64(dst, r.Hi)
		dst = append(dst, r.MapBlob...)
	case OpHandoverStart:
		if len(r.Addr) == 0 || len(r.Addr) > MaxAddr {
			return dst, fmt.Errorf("%w: address of %d bytes", ErrLimit, len(r.Addr))
		}
		dst = appendU64(dst, r.Lo)
		dst = appendU64(dst, r.Hi)
		dst = append(dst, r.Addr...)
	case OpImportStart, OpImportResume:
		dst = appendU64(dst, r.Lo)
		dst = appendU64(dst, r.Hi)
	case OpImportBatch:
		if len(r.Keys) > MaxBatch {
			return dst, fmt.Errorf("%w: batch of %d", ErrLimit, len(r.Keys))
		}
		if len(r.Keys) != len(r.Vals) {
			return dst, fmt.Errorf("proto: import batch keys/vals length mismatch (%d vs %d)", len(r.Keys), len(r.Vals))
		}
		dst = appendU32(dst, uint32(len(r.Keys)))
		for i, k := range r.Keys {
			dst = appendU64(dst, k)
			dst = appendU64(dst, r.Vals[i])
		}
	case OpImportEnd:
		dst = append(dst, boolByte(r.Commit))
	case OpMirror:
		dst = append(dst, boolByte(r.Del))
		dst = appendU64(dst, r.Key)
		dst = appendU64(dst, r.Val)
	default:
		return dst, fmt.Errorf("%w: %d", ErrBadOpcode, uint8(r.Op))
	}
	return patchLen(dst, lenAt)
}

// AppendResponse appends r as one framed protocol-v1 response to dst.
func AppendResponse(dst []byte, r *Response) ([]byte, error) {
	return AppendResponseV(dst, r, Version1)
}

// AppendResponseV appends r as one framed response to dst, encoded for the
// connection's negotiated protocol version. The versions differ on exactly
// one point: at Version2 a StatusOverload response carries a typed
// retryAfterMillis field before the message.
func AppendResponseV(dst []byte, r *Response, ver uint8) ([]byte, error) {
	lenAt := len(dst)
	dst = slices.Grow(dst, responseSize(r))
	dst = appendU32(dst, 0)
	dst = appendU64(dst, r.ID)
	dst = append(dst, byte(r.Op))
	dst = append(dst, byte(r.Status))
	if r.Status != StatusOK {
		if r.Status == StatusOverload && ver >= Version2 {
			dst = appendU32(dst, r.RetryAfterMS)
		}
		if r.Status == StatusWrongShard && ver >= Version2 {
			if len(r.MapBlob) > MaxMapBlob {
				return dst, fmt.Errorf("%w: map blob of %d bytes", ErrLimit, len(r.MapBlob))
			}
			dst = appendU32(dst, uint32(len(r.MapBlob)))
			dst = append(dst, r.MapBlob...)
		}
		dst = append(dst, r.Msg...)
		return patchLen(dst, lenAt)
	}
	//dytis:opswitch responses
	switch r.Op {
	case OpPing, OpInsert, OpInsertBatch:
	case OpGet:
		dst = append(dst, boolByte(r.Found))
		dst = appendU64(dst, r.Val)
	case OpDelete:
		dst = append(dst, boolByte(r.Found))
	case OpGetBatch:
		if len(r.Vals) > MaxBatch || len(r.Vals) != len(r.Founds) {
			return dst, fmt.Errorf("%w: get-batch result of %d/%d", ErrLimit, len(r.Vals), len(r.Founds))
		}
		dst = appendU32(dst, uint32(len(r.Vals)))
		for i, v := range r.Vals {
			dst = append(dst, boolByte(r.Founds[i]))
			dst = appendU64(dst, v)
		}
	case OpDeleteBatch:
		if len(r.Founds) > MaxBatch {
			return dst, fmt.Errorf("%w: delete-batch result of %d", ErrLimit, len(r.Founds))
		}
		dst = appendU32(dst, uint32(len(r.Founds)))
		for _, f := range r.Founds {
			dst = append(dst, boolByte(f))
		}
	case OpLen:
		dst = appendU64(dst, r.Val)
	case OpHello:
		dst = append(dst, r.Ver)
		dst = appendU32(dst, r.Feats)
	case OpScanStart, OpScanCredit, OpScanCancel:
		// No OK payload: a successful ScanStart answers with chunk/end
		// frames, and credit/cancel are never answered at all.
	case OpScanChunk:
		if len(r.Keys) > MaxScan || len(r.Keys) != len(r.Vals) {
			return dst, fmt.Errorf("%w: scan chunk of %d/%d", ErrLimit, len(r.Keys), len(r.Vals))
		}
		dst = appendU32(dst, uint32(len(r.Keys)))
		for i, k := range r.Keys {
			dst = appendU64(dst, k)
			dst = appendU64(dst, r.Vals[i])
		}
	case OpScanEnd:
		dst = appendU64(dst, r.Val)
	case OpShardInfo:
		dst = appendU64(dst, r.Lo)
		dst = appendU64(dst, r.Hi)
		dst = appendU64(dst, r.Epoch)
		dst = append(dst, r.State)
	case OpMapGet:
		if len(r.MapBlob) == 0 || len(r.MapBlob) > MaxMapBlob {
			return dst, fmt.Errorf("%w: map blob of %d bytes", ErrLimit, len(r.MapBlob))
		}
		dst = append(dst, r.MapBlob...)
	case OpHandoverStatus:
		if len(r.Addr) > MaxAddr {
			return dst, fmt.Errorf("%w: address of %d bytes", ErrLimit, len(r.Addr))
		}
		dst = append(dst, r.State)
		dst = appendU64(dst, r.Copied)
		dst = appendU64(dst, r.Mirrored)
		dst = appendU64(dst, r.Retries)
		dst = appendU64(dst, r.Resumes)
		dst = appendU64(dst, r.Watermark)
		dst = appendU64(dst, r.Lo)
		dst = appendU64(dst, r.Hi)
		dst = append(dst, byte(len(r.Addr)))
		dst = append(dst, r.Addr...)
		dst = append(dst, r.Cause...)
	case OpImportResume:
		dst = append(dst, boolByte(r.Fresh))
		dst = appendU64(dst, r.Applied)
	case OpImportBatch:
		dst = appendU64(dst, r.Applied)
	case OpMapSet, OpHandoverStart, OpHandoverResume, OpHandoverAbort, OpImportStart, OpImportEnd, OpMirror:
	default:
		return dst, fmt.Errorf("%w: %d", ErrBadOpcode, uint8(r.Op))
	}
	return patchLen(dst, lenAt)
}

// requestSize bounds r's frame from above — length prefix, deadline and
// epoch fields and a CRC trailer included — so AppendRequest reserves its
// room once instead of doubling from nil. An over-limit request is refused
// by the encoder before it copies anything the bound was sized for.
func requestSize(r *Request) int {
	n := headerLen + prefixLen + 4 + 8 + TrailerLen
	switch r.Op {
	case OpGetBatch, OpDeleteBatch:
		return n + 4 + 8*min(len(r.Keys), MaxBatch)
	case OpInsertBatch, OpImportBatch:
		return n + 4 + 16*min(len(r.Keys), MaxBatch)
	}
	// ScanStart's 24 bytes are the largest fixed payload.
	return n + 24 + min(len(r.MapBlob), MaxMapBlob) + min(len(r.Addr), MaxAddr)
}

// responseSize is requestSize for AppendResponseV.
func responseSize(r *Response) int {
	n := headerLen + prefixLen + 1 + TrailerLen
	if r.Status != StatusOK {
		return n + 4 + 4 + min(len(r.MapBlob), MaxMapBlob) + len(r.Msg)
	}
	switch r.Op {
	case OpScanChunk:
		return n + 4 + 16*min(len(r.Keys), MaxScan)
	case OpGetBatch:
		return n + 4 + 9*min(len(r.Vals), MaxBatch)
	case OpDeleteBatch:
		return n + 4 + min(len(r.Founds), MaxBatch)
	case OpHandoverStatus:
		return n + 1 + 7*8 + 1 + min(len(r.Addr), MaxAddr) + len(r.Cause)
	}
	// ShardInfo's 25 bytes are the largest other fixed payload.
	return n + 25 + min(len(r.MapBlob), MaxMapBlob)
}

// patchLen writes the frame's body length into the 4 bytes at lenAt and
// rejects frames that outgrew MaxFrame.
func patchLen(dst []byte, lenAt int) ([]byte, error) {
	body := len(dst) - lenAt - headerLen
	if body > maxBody {
		return dst, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, body+headerLen)
	}
	binary.BigEndian.PutUint32(dst[lenAt:], uint32(body))
	return dst, nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// --- decoding ---------------------------------------------------------------

// reader is a bounds-checked cursor over one frame body.
type reader struct {
	b   []byte
	off int
}

func (r *reader) remaining() int { return len(r.b) - r.off }

func (r *reader) u8() (byte, error) {
	if r.remaining() < 1 {
		return 0, ErrTruncated
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

// count reads a 4-byte entry count and validates it against both the given
// protocol limit and the bytes actually remaining in the frame (at perEntry
// bytes each), so a lying count can neither over-allocate nor over-read.
func (r *reader) count(limit int, perEntry int) (int, error) {
	n32, err := r.u32()
	if err != nil {
		return 0, err
	}
	n := int(n32)
	if n > limit {
		return 0, fmt.Errorf("%w: %d > %d", ErrLimit, n, limit)
	}
	if need := n * perEntry; need > r.remaining() {
		return 0, fmt.Errorf("%w: count %d needs %d bytes, %d remain", ErrTruncated, n, need, r.remaining())
	}
	return n, nil
}

func (r *reader) done() error {
	if r.remaining() != 0 {
		return fmt.Errorf("%w: %d bytes", ErrTrailingBytes, r.remaining())
	}
	return nil
}

// DecodeRequest decodes one request from a frame body (the bytes after the
// 4-byte length prefix) into req, which is overwritten; its Keys/Vals slices
// are reused when their capacity suffices. It never panics and never
// allocates more than the validated entry counts require.
func DecodeRequest(body []byte, req *Request) error {
	rd := reader{b: body}
	id, err := rd.u64()
	if err != nil {
		return err
	}
	opb, err := rd.u8()
	if err != nil {
		return err
	}
	op := Opcode(opb &^ (FlagDeadline | FlagEpoch))
	if !op.Valid() {
		return fmt.Errorf("%w: %d", ErrBadOpcode, opb)
	}
	var timeoutMS uint32
	if opb&FlagDeadline != 0 {
		if timeoutMS, err = rd.u32(); err != nil {
			return err
		}
		if timeoutMS == 0 {
			// Zero budget under the flag is non-canonical (the encoder omits
			// the flag instead); rejecting it keeps one-encoding-per-request.
			return fmt.Errorf("proto: deadline flag with zero budget")
		}
	}
	var epoch uint64
	if opb&FlagEpoch != 0 {
		if epoch, err = rd.u64(); err != nil {
			return err
		}
		if epoch == 0 {
			// Same canonicality rule as the deadline flag: epochs start at 1,
			// so a zero epoch is only ever the flag misapplied.
			return fmt.Errorf("proto: epoch flag with zero epoch")
		}
	}
	*req = Request{
		ID: id, Op: op, TimeoutMS: timeoutMS, Epoch: epoch,
		Keys: req.Keys[:0], Vals: req.Vals[:0], MapBlob: req.MapBlob[:0],
	}
	//dytis:opswitch requests
	switch op {
	case OpPing, OpLen:
	case OpGet, OpDelete:
		if req.Key, err = rd.u64(); err != nil {
			return err
		}
	case OpInsert:
		if req.Key, err = rd.u64(); err != nil {
			return err
		}
		if req.Val, err = rd.u64(); err != nil {
			return err
		}
	case OpGetBatch, OpDeleteBatch:
		n, err := rd.count(MaxBatch, 8)
		if err != nil {
			return err
		}
		req.Keys = growTo(req.Keys, n)
		for i := 0; i < n; i++ {
			req.Keys[i], _ = rd.u64() // length pre-validated by count
		}
	case OpInsertBatch:
		n, err := rd.count(MaxBatch, 16)
		if err != nil {
			return err
		}
		req.Keys = growTo(req.Keys, n)
		req.Vals = growTo(req.Vals, n)
		for i := 0; i < n; i++ {
			req.Keys[i], _ = rd.u64()
			req.Vals[i], _ = rd.u64()
		}
	case OpHello:
		if req.Ver, err = rd.u8(); err != nil {
			return err
		}
		if req.Feats, err = rd.u32(); err != nil {
			return err
		}
	case OpScanStart:
		if req.Key, err = rd.u64(); err != nil {
			return err
		}
		if req.ScanMax, err = rd.u64(); err != nil {
			return err
		}
		if req.Max, err = rd.u32(); err != nil {
			return err
		}
		if req.Max == 0 || req.Max > MaxScan {
			return fmt.Errorf("%w: scan chunk %d", ErrLimit, req.Max)
		}
		if req.Credits, err = rd.u32(); err != nil {
			return err
		}
		if req.Credits == 0 || req.Credits > MaxScanCredits {
			return fmt.Errorf("%w: scan credits %d", ErrLimit, req.Credits)
		}
	case OpScanCredit:
		if req.Credits, err = rd.u32(); err != nil {
			return err
		}
		if req.Credits == 0 || req.Credits > MaxScanCredits {
			return fmt.Errorf("%w: scan credits %d", ErrLimit, req.Credits)
		}
	case OpScanCancel:
	case OpShardInfo, OpMapGet, OpHandoverStatus, OpHandoverResume, OpHandoverAbort:
	case OpMapSet:
		if req.Lo, err = rd.u64(); err != nil {
			return err
		}
		if req.Hi, err = rd.u64(); err != nil {
			return err
		}
		n := rd.remaining()
		if n == 0 || n > MaxMapBlob {
			return fmt.Errorf("%w: map blob of %d bytes", ErrLimit, n)
		}
		req.MapBlob = append(req.MapBlob, rd.b[rd.off:]...)
		rd.off = len(rd.b)
	case OpHandoverStart:
		if req.Lo, err = rd.u64(); err != nil {
			return err
		}
		if req.Hi, err = rd.u64(); err != nil {
			return err
		}
		n := rd.remaining()
		if n == 0 || n > MaxAddr {
			return fmt.Errorf("%w: address of %d bytes", ErrLimit, n)
		}
		req.Addr = string(rd.b[rd.off:])
		rd.off = len(rd.b)
	case OpImportStart, OpImportResume:
		if req.Lo, err = rd.u64(); err != nil {
			return err
		}
		if req.Hi, err = rd.u64(); err != nil {
			return err
		}
	case OpImportBatch:
		n, err := rd.count(MaxBatch, 16)
		if err != nil {
			return err
		}
		req.Keys = growTo(req.Keys, n)
		req.Vals = growTo(req.Vals, n)
		for i := 0; i < n; i++ {
			req.Keys[i], _ = rd.u64()
			req.Vals[i], _ = rd.u64()
		}
	case OpImportEnd:
		b, err := rd.u8()
		if err != nil {
			return err
		}
		if b > 1 {
			// Two spellings of one request would break canonicality.
			return fmt.Errorf("proto: import-end commit byte %d", b)
		}
		req.Commit = b != 0
	case OpMirror:
		b, err := rd.u8()
		if err != nil {
			return err
		}
		if b > 1 {
			return fmt.Errorf("proto: mirror del byte %d", b)
		}
		req.Del = b != 0
		if req.Key, err = rd.u64(); err != nil {
			return err
		}
		if req.Val, err = rd.u64(); err != nil {
			return err
		}
	}
	return rd.done()
}

// DecodeResponse decodes one protocol-v1 response from a frame body into
// resp, which is overwritten; slices are reused when capacity suffices.
func DecodeResponse(body []byte, resp *Response) error {
	return DecodeResponseV(body, resp, Version1)
}

// DecodeResponseV decodes one response encoded at the given negotiated
// protocol version (see AppendResponseV for the difference).
func DecodeResponseV(body []byte, resp *Response, ver uint8) error {
	rd := reader{b: body}
	id, err := rd.u64()
	if err != nil {
		return err
	}
	opb, err := rd.u8()
	if err != nil {
		return err
	}
	op := Opcode(opb)
	if !op.ValidResponse() {
		return fmt.Errorf("%w: %d", ErrBadOpcode, opb)
	}
	st, err := rd.u8()
	if err != nil {
		return err
	}
	*resp = Response{
		ID: id, Op: op, Status: Status(st),
		Keys: resp.Keys[:0], Vals: resp.Vals[:0], Founds: resp.Founds[:0],
		MapBlob: resp.MapBlob[:0],
	}
	if resp.Status != StatusOK {
		if resp.Status == StatusOverload && ver >= Version2 {
			if resp.RetryAfterMS, err = rd.u32(); err != nil {
				return err
			}
		}
		if resp.Status == StatusWrongShard && ver >= Version2 {
			blobLen, err := rd.u32()
			if err != nil {
				return err
			}
			if int(blobLen) > MaxMapBlob || int(blobLen) > rd.remaining() {
				return fmt.Errorf("%w: wrong-shard map blob of %d bytes, %d remain", ErrLimit, blobLen, rd.remaining())
			}
			resp.MapBlob = append(resp.MapBlob, rd.b[rd.off:rd.off+int(blobLen)]...)
			rd.off += int(blobLen)
		}
		resp.Msg = string(rd.b[rd.off:])
		return nil
	}
	//dytis:opswitch responses
	switch op {
	case OpPing, OpInsert, OpInsertBatch:
	case OpGet:
		f, err := rd.u8()
		if err != nil {
			return err
		}
		resp.Found = f != 0
		if resp.Val, err = rd.u64(); err != nil {
			return err
		}
	case OpDelete:
		f, err := rd.u8()
		if err != nil {
			return err
		}
		resp.Found = f != 0
	case OpGetBatch:
		n, err := rd.count(MaxBatch, 9)
		if err != nil {
			return err
		}
		resp.Vals = growTo(resp.Vals, n)
		resp.Founds = growBools(resp.Founds, n)
		for i := 0; i < n; i++ {
			f, _ := rd.u8()
			resp.Founds[i] = f != 0
			resp.Vals[i], _ = rd.u64()
		}
	case OpDeleteBatch:
		n, err := rd.count(MaxBatch, 1)
		if err != nil {
			return err
		}
		resp.Founds = growBools(resp.Founds, n)
		for i := 0; i < n; i++ {
			f, _ := rd.u8()
			resp.Founds[i] = f != 0
		}
	case OpLen:
		if resp.Val, err = rd.u64(); err != nil {
			return err
		}
	case OpHello:
		if resp.Ver, err = rd.u8(); err != nil {
			return err
		}
		if resp.Feats, err = rd.u32(); err != nil {
			return err
		}
	case OpScanStart, OpScanCredit, OpScanCancel:
	case OpScanChunk:
		n, err := rd.count(MaxScan, 16)
		if err != nil {
			return err
		}
		resp.Keys = growTo(resp.Keys, n)
		resp.Vals = growTo(resp.Vals, n)
		for i := 0; i < n; i++ {
			resp.Keys[i], _ = rd.u64()
			resp.Vals[i], _ = rd.u64()
		}
	case OpScanEnd:
		if resp.Val, err = rd.u64(); err != nil {
			return err
		}
	case OpShardInfo:
		if resp.Lo, err = rd.u64(); err != nil {
			return err
		}
		if resp.Hi, err = rd.u64(); err != nil {
			return err
		}
		if resp.Epoch, err = rd.u64(); err != nil {
			return err
		}
		if resp.State, err = rd.u8(); err != nil {
			return err
		}
	case OpMapGet:
		n := rd.remaining()
		if n == 0 || n > MaxMapBlob {
			return fmt.Errorf("%w: map blob of %d bytes", ErrLimit, n)
		}
		resp.MapBlob = append(resp.MapBlob, rd.b[rd.off:]...)
		rd.off = len(rd.b)
	case OpHandoverStatus:
		if resp.State, err = rd.u8(); err != nil {
			return err
		}
		if resp.Copied, err = rd.u64(); err != nil {
			return err
		}
		if resp.Mirrored, err = rd.u64(); err != nil {
			return err
		}
		if resp.Retries, err = rd.u64(); err != nil {
			return err
		}
		if resp.Resumes, err = rd.u64(); err != nil {
			return err
		}
		if resp.Watermark, err = rd.u64(); err != nil {
			return err
		}
		if resp.Lo, err = rd.u64(); err != nil {
			return err
		}
		if resp.Hi, err = rd.u64(); err != nil {
			return err
		}
		var n uint8
		if n, err = rd.u8(); err != nil {
			return err
		}
		if int(n) > rd.remaining() {
			return fmt.Errorf("%w: address of %d bytes, %d remain", ErrTruncated, n, rd.remaining())
		}
		resp.Addr = string(rd.b[rd.off : rd.off+int(n)])
		resp.Cause = string(rd.b[rd.off+int(n):])
		rd.off = len(rd.b)
	case OpImportResume:
		f, err := rd.u8()
		if err != nil {
			return err
		}
		if f > 1 {
			return fmt.Errorf("proto: import-resume fresh byte %d", f)
		}
		resp.Fresh = f != 0
		if resp.Applied, err = rd.u64(); err != nil {
			return err
		}
	case OpImportBatch:
		if resp.Applied, err = rd.u64(); err != nil {
			return err
		}
	case OpMapSet, OpHandoverStart, OpHandoverResume, OpHandoverAbort, OpImportStart, OpImportEnd, OpMirror:
	}
	return rd.done()
}

func growTo(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
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
