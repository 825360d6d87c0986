package proto

import (
	"encoding/binary"
	"fmt"
)

// The wire table. Every opcode's payload is a list of fields, and
// specs[op] names them for the request and for the OK response; the
// encoders, decoders, opcode names, feature gating and DESIGN.md §9's wire
// table all derive from it. Request.field and Response.field are the one
// place a field meets its struct member, for both directions, so a new
// field is one declaration below and one case in each of them.

// A field is one member of a payload: its name (on the wire table and in
// errors), the bounds its value, count or length must keep (hi 0: none),
// and for a list the bytes of one entry. The codec method its case in
// Request.field or Response.field calls is its wire shape. Fields are
// compared by identity.
type field struct {
	name         string
	lo, hi, size int
}

var (
	fKey       = &field{name: "key"}
	fVal       = &field{name: "val"}
	fLo        = &field{name: "lo"}
	fHi        = &field{name: "hi"}
	fScanMax   = &field{name: "max"}
	fVer       = &field{name: "version"}
	fFeats     = &field{name: "features"}
	fChunk     = &field{name: "chunk", lo: 1, hi: MaxScan}
	fCredits   = &field{name: "credits", lo: 1, hi: MaxScanCredits}
	fCommit    = &field{name: "commit"}
	fDel       = &field{name: "del"}
	fKeys      = &field{name: "batch", hi: MaxBatch, size: 8}
	fPairs     = &field{name: "batch", hi: MaxBatch, size: 16}
	fMapBlob   = &field{name: "map-blob", lo: 1, hi: MaxMapBlob}
	fAddr      = &field{name: "target", lo: 1, hi: MaxAddr}
	fFound     = &field{name: "found"}
	fEpoch     = &field{name: "epoch"}
	fState     = &field{name: "state"}
	fCopied    = &field{name: "copied"}
	fMirrored  = &field{name: "mirrored"}
	fRetries   = &field{name: "retries"}
	fResumes   = &field{name: "resumes"}
	fWatermark = &field{name: "watermark"}
	fApplied   = &field{name: "applied"}
	fFresh     = &field{name: "fresh"}
	fFoundVals = &field{name: "get-batch result", hi: MaxBatch, size: 9}
	fFounds    = &field{name: "delete-batch result", hi: MaxBatch, size: 1}
	fScanPairs = &field{name: "scan chunk", hi: MaxScan, size: 16}
	fTarget    = &field{name: "target", hi: MaxAddr}
	fCause     = &field{name: "cause"}
)

// opSpec is one opcode's row of the wire table. A nil req marks a
// response-only opcode; an empty one, a request with no payload. resp is
// the OK response's payload.
type opSpec struct {
	name      string
	req, resp []*field
	cluster   bool // needs FeatCluster
}

var specs = [NumOpcodes]opSpec{
	OpPing:           {name: "ping", req: []*field{}},
	OpGet:            {name: "get", req: []*field{fKey}, resp: []*field{fFound, fVal}},
	OpInsert:         {name: "insert", req: []*field{fKey, fVal}},
	OpDelete:         {name: "delete", req: []*field{fKey}, resp: []*field{fFound}},
	OpGetBatch:       {name: "get-batch", req: []*field{fKeys}, resp: []*field{fFoundVals}},
	OpInsertBatch:    {name: "insert-batch", req: []*field{fPairs}},
	OpDeleteBatch:    {name: "delete-batch", req: []*field{fKeys}, resp: []*field{fFounds}},
	OpLen:            {name: "len", req: []*field{}, resp: []*field{fVal}},
	OpHello:          {name: "hello", req: []*field{fVer, fFeats}, resp: []*field{fVer, fFeats}},
	OpScanStart:      {name: "scan-start", req: []*field{fKey, fScanMax, fChunk, fCredits}},
	OpScanCredit:     {name: "scan-credit", req: []*field{fCredits}},
	OpScanCancel:     {name: "scan-cancel", req: []*field{}},
	OpScanChunk:      {name: "scan-chunk", resp: []*field{fScanPairs}},
	OpScanEnd:        {name: "scan-end", resp: []*field{fVal}},
	OpShardInfo:      {name: "shard-info", req: []*field{}, resp: []*field{fLo, fHi, fEpoch, fState}, cluster: true},
	OpMapGet:         {name: "map-get", req: []*field{}, resp: []*field{fMapBlob}, cluster: true},
	OpMapSet:         {name: "map-set", req: []*field{fLo, fHi, fMapBlob}, cluster: true},
	OpHandoverStart:  {name: "handover-start", req: []*field{fLo, fHi, fAddr}, cluster: true},
	OpHandoverStatus: {name: "handover-status", req: []*field{}, resp: []*field{fState, fCopied, fMirrored, fRetries, fResumes, fWatermark, fLo, fHi, fTarget, fCause}, cluster: true},
	OpImportBatch:    {name: "import-batch", req: []*field{fPairs}, resp: []*field{fApplied}, cluster: true},
	OpImportEnd:      {name: "import-end", req: []*field{fCommit}, cluster: true},
	OpMirror:         {name: "mirror", req: []*field{fDel, fKey, fVal}, cluster: true},
	OpHandoverResume: {name: "handover-resume", req: []*field{}, cluster: true},
	OpHandoverAbort:  {name: "handover-abort", req: []*field{}, cluster: true},
	OpImportResume:   {name: "import-resume", req: []*field{fLo, fHi}, resp: []*field{fFresh, fApplied}, cluster: true},
}

func (o Opcode) String() string {
	if o < NumOpcodes && specs[o].name != "" {
		return specs[o].name
	}
	return fmt.Sprintf("opcode(%d)", uint8(o))
}

// Valid reports whether o is a defined request opcode. The response-only
// stream opcodes are excluded: a request decoder must reject them.
func (o Opcode) Valid() bool { return o < NumOpcodes && specs[o].req != nil }

// ValidResponse reports whether o may appear in a response.
func (o Opcode) ValidResponse() bool { return o < NumOpcodes && specs[o].name != "" }

// Cluster reports whether o belongs to the FeatCluster opcode family.
func (o Opcode) Cluster() bool { return o < NumOpcodes && specs[o].cluster }

// field appends r's member for f to out, or, when c decodes, reads it from
// c into r; it returns out. The hot fields lead, since the cases are
// compared in order.
func (r *Request) field(c *codec, out []byte, f *field) []byte {
	switch f {
	case fKey:
		return c.u64(out, &r.Key)
	case fVal:
		return c.u64(out, &r.Val)
	case fKeys:
		return c.words(out, f, &r.Keys, nil)
	case fPairs:
		return c.words(out, f, &r.Keys, &r.Vals)
	case fScanMax:
		return c.u64(out, &r.ScanMax)
	case fChunk:
		return c.u32(out, f, &r.Max)
	case fCredits:
		return c.u32(out, f, &r.Credits)
	case fLo:
		return c.u64(out, &r.Lo)
	case fHi:
		return c.u64(out, &r.Hi)
	case fVer:
		return c.u8(out, &r.Ver)
	case fFeats:
		return c.u32(out, f, &r.Feats)
	case fCommit:
		return c.bool(out, f, &r.Commit)
	case fDel:
		return c.bool(out, f, &r.Del)
	case fMapBlob:
		return c.rest(out, f, &r.MapBlob, nil)
	case fAddr:
		return c.rest(out, f, nil, &r.Addr)
	}
	panic("proto: request field " + f.name)
}

// field is Request.field for an OK response.
func (r *Response) field(c *codec, out []byte, f *field) []byte {
	switch f {
	case fFound:
		return c.bool(out, f, &r.Found)
	case fVal:
		return c.u64(out, &r.Val)
	case fScanPairs:
		return c.words(out, f, &r.Keys, &r.Vals)
	case fFoundVals:
		return c.flags(out, f, &r.Founds, &r.Vals)
	case fFounds:
		return c.flags(out, f, &r.Founds, nil)
	case fApplied:
		return c.u64(out, &r.Applied)
	case fLo:
		return c.u64(out, &r.Lo)
	case fHi:
		return c.u64(out, &r.Hi)
	case fVer:
		return c.u8(out, &r.Ver)
	case fFeats:
		return c.u32(out, f, &r.Feats)
	case fMapBlob:
		return c.rest(out, f, &r.MapBlob, nil)
	case fEpoch:
		return c.u64(out, &r.Epoch)
	case fState:
		return c.u8(out, &r.State)
	case fCopied:
		return c.u64(out, &r.Copied)
	case fMirrored:
		return c.u64(out, &r.Mirrored)
	case fRetries:
		return c.u64(out, &r.Retries)
	case fResumes:
		return c.u64(out, &r.Resumes)
	case fWatermark:
		return c.u64(out, &r.Watermark)
	case fFresh:
		return c.bool(out, f, &r.Fresh)
	case fTarget:
		return c.str8(out, f, &r.Addr)
	case fCause:
		return c.rest(out, f, nil, &r.Cause)
	}
	panic("proto: response field " + f.name)
}

// codec runs a frame's fields in one direction. Encoding, each field is
// appended to the out slice the kind methods take and return; decoding
// (dec), each is read from in at off. The first failure sticks in *err and
// empties what is left of in, so every later read fails and only the first
// error is reported. Frames pass through return values, the error lives
// outside the struct that holds the body, and decoded slices are reused by
// self-assignment, so escape analysis sees neither the body nor the
// caller's Request or Response escape.
type codec struct {
	in  []byte
	off int
	dec bool
	err *error
}

// fail records err unless an earlier failure stuck, empties what is left
// of in, and returns false.
func (c *codec) fail(err error) bool {
	if *c.err == nil {
		*c.err = err
	}
	c.off = len(c.in)
	return false
}

// take consumes the next n bytes of in. When fewer remain it fails and
// returns zeros (nil past 8 bytes), so a fixed-width read needs no check
// of its own: its value goes with the failed frame.
func (c *codec) take(n int) []byte {
	if len(c.in)-c.off < n {
		c.fail(fmt.Errorf("%w: %d bytes needed, %d remain", ErrTruncated, n, len(c.in)-c.off))
		if n <= len(zeros) {
			return zeros[:n]
		}
		return nil
	}
	c.off += n
	return c.in[c.off-n : c.off]
}

var zeros [8]byte

// check fails unless n is within f's bounds.
func (c *codec) check(f *field, n int) bool {
	return n >= f.lo && (f.hi == 0 || n <= f.hi) || c.fail(fmt.Errorf("%w: %s of %d", ErrLimit, f.name, n))
}

// same fails unless a two-column list's columns have one length.
func (c *codec) same(f *field, a, b int) bool {
	return a == b || c.fail(fmt.Errorf("proto: %s of mismatched lengths %d and %d", f.name, a, b))
}

// done is the decoders' last step: the payload must end the body.
func (c *codec) done() {
	if c.off != len(c.in) {
		c.fail(fmt.Errorf("%w: %d bytes", ErrTrailingBytes, len(c.in)-c.off))
	}
}

// u8, bool, u32 and u64 run one fixed-width value; a bool is 0 or 1, and
// a u32 keeps its field's bounds.
func (c *codec) u8(out []byte, p *uint8) []byte {
	if c.dec {
		*p = c.take(1)[0]
		return out
	}
	return append(out, *p)
}

func (c *codec) bool(out []byte, f *field, p *bool) []byte {
	if !c.dec {
		return append(out, boolByte(*p))
	}
	b := c.take(1)[0]
	c.bools(f, b)
	*p = b == 1
	return out
}

// bools fails when or, one bool byte or the OR of a list's, is not 0 or
// 1: any other value would be a second spelling of one frame.
func (c *codec) bools(f *field, or byte) bool {
	return or <= 1 || c.fail(fmt.Errorf("proto: %s byte not 0 or 1", f.name))
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func (c *codec) u32(out []byte, f *field, p *uint32) []byte {
	if c.dec {
		*p = binary.BigEndian.Uint32(c.take(4))
	} else {
		out = binary.BigEndian.AppendUint32(out, *p)
	}
	c.check(f, int(*p))
	return out
}

func (c *codec) u64(out []byte, p *uint64) []byte {
	if c.dec {
		*p = binary.BigEndian.Uint64(c.take(8))
		return out
	}
	return binary.BigEndian.AppendUint64(out, *p)
}

// count decodes a list's entry count, which must keep f's bound and fit
// the bytes left, and returns the entries' bytes: nil on failure.
func (c *codec) count(f *field) []byte {
	if n := int(binary.BigEndian.Uint32(c.take(4))); c.check(f, n) {
		return c.take(n * f.size)
	}
	return nil
}

// words runs a list of uint64s from *ap, each followed by one from *bp
// when bp is set: n(4) key(8)*n, or n(4) [key(8) val(8)]*n.
func (c *codec) words(out []byte, f *field, ap, bp *[]uint64) []byte {
	if !c.dec {
		if n := len(*ap); c.check(f, n) && (bp == nil || c.same(f, n, len(*bp))) {
			out = binary.BigEndian.AppendUint32(out, uint32(n))
			for i, a := range *ap {
				if out = binary.BigEndian.AppendUint64(out, a); bp != nil {
					out = binary.BigEndian.AppendUint64(out, (*bp)[i])
				}
			}
		}
		return out
	}
	b, size := c.count(f), f.size
	resize(ap, len(b)/size)
	as, bs := *ap, []uint64(nil)
	if bp != nil {
		resize(bp, len(as))
		bs = *bp
	}
	for i := range as {
		if as[i] = binary.BigEndian.Uint64(b[size*i:]); bs != nil {
			bs[i] = binary.BigEndian.Uint64(b[size*i+8:])
		}
	}
	return out
}

// flags runs a list of bools from *fp, each followed by a uint64 from *vp
// when vp is set: n(4) found(1)*n, or n(4) [found(1) val(8)]*n.
func (c *codec) flags(out []byte, f *field, fp *[]bool, vp *[]uint64) []byte {
	if !c.dec {
		if n := len(*fp); c.check(f, n) && (vp == nil || c.same(f, n, len(*vp))) {
			out = binary.BigEndian.AppendUint32(out, uint32(n))
			for i, found := range *fp {
				if out = append(out, boolByte(found)); vp != nil {
					out = binary.BigEndian.AppendUint64(out, (*vp)[i])
				}
			}
		}
		return out
	}
	b, size := c.count(f), f.size
	resize(fp, len(b)/size)
	fs, vs := *fp, []uint64(nil)
	if vp != nil {
		resize(vp, len(fs))
		vs = *vp
	}
	var or byte
	for i := range fs {
		or |= b[size*i]
		if fs[i] = b[size*i] == 1; vs != nil {
			vs[i] = binary.BigEndian.Uint64(b[size*i+1:])
		}
	}
	c.bools(f, or)
	return out
}

// rest runs a field that fills the rest of the frame, held in *bp or in
// *sp, whichever is set; a decoded one is copied out of the body.
func (c *codec) rest(out []byte, f *field, bp *[]byte, sp *string) []byte {
	if !c.dec {
		if bp != nil && c.check(f, len(*bp)) {
			out = append(out, *bp...)
		} else if sp != nil && c.check(f, len(*sp)) {
			out = append(out, *sp...)
		}
		return out
	}
	if n := len(c.in) - c.off; c.check(f, n) {
		if bp != nil {
			resize(bp, n)
			copy(*bp, c.take(n))
		} else {
			*sp = string(c.take(n))
		}
	}
	return out
}

// str8 runs a string with a 1-byte length prefix: len(1) bytes(len).
func (c *codec) str8(out []byte, f *field, p *string) []byte {
	if !c.dec {
		if c.check(f, len(*p)) {
			out = append(append(out, byte(len(*p))), *p...)
		}
	} else {
		*p = string(c.take(int(c.take(1)[0])))
	}
	return out
}

// resize sets *p to n elements, reusing its array when it has room. The
// self-assignment is what keeps escape analysis from seeing the slice
// stored through p.
func resize[T uint64 | bool | byte](p *[]T, n int) {
	if cap(*p) < n {
		*p = make([]T, n)
	} else {
		*p = (*p)[:n]
	}
}
