package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"

	"dytis"
	"dytis/internal/cluster"
	"dytis/internal/proto"
)

// The targets of the traced run's inner layers. The core, client and
// client.cluster rows reuse the targets of the timed workloads (system.go).

// walTarget calls the durable store directly.
type walTarget struct{ s *dytis.DurableStore }

func (t walTarget) Get(key uint64) (uint64, bool, error) {
	v, ok := t.s.Get(key)
	return v, ok, nil
}
func (t walTarget) Insert(key, val uint64) error    { return t.s.Insert(key, val) }
func (t walTarget) Delete(key uint64) (bool, error) { return t.s.Delete(key) }
func (t walTarget) Scan(start uint64, dst []dytis.KV) ([]dytis.KV, error) {
	return t.s.Scan(start, scanLen, dst[:0]), nil
}
func (t walTarget) GetBatch(keys, vals []uint64, found []bool) ([]uint64, []bool, error) {
	vals, found = t.s.GetBatch(keys, vals[:0], found[:0])
	return vals, found, nil
}

// nodeTarget calls a cluster node that owns the whole key space.
type nodeTarget struct{ n *cluster.Node }

func (t nodeTarget) Get(key uint64) (uint64, bool, error) { return t.n.Get(key) }
func (t nodeTarget) Insert(key, val uint64) error         { return t.n.Insert(key, val) }
func (t nodeTarget) Delete(key uint64) (bool, error)      { return t.n.Delete(key) }
func (t nodeTarget) Scan(start uint64, dst []dytis.KV) ([]dytis.KV, error) {
	dst, _, err := t.n.Scan(0, start, scanLen, dst)
	return dst, err
}
func (t nodeTarget) GetBatch(keys, vals []uint64, found []bool) ([]uint64, []bool, error) {
	return t.n.GetBatch(keys, vals[:0], found[:0])
}

// The streaming-scan parameters client.Client sends by default; the codec
// and frame targets send the same frames it would.
const (
	scanChunk   = 1024
	scanCredits = 8
)

// unseal verifies a sealed frame's CRC32C trailer and returns its body.
func unseal(frame []byte) ([]byte, error) {
	n := len(frame) - proto.TrailerLen
	if n < 4 || proto.CRC32C(frame[:n]) != binary.BigEndian.Uint32(frame[n:]) {
		return nil, proto.ErrChecksum
	}
	return frame[4:n], nil
}

// codecTarget is the proto layer alone: every op is encoded, sealed, verified
// and decoded in both directions exactly as client and server do, with no
// I/O and no index. The answers are made up from the key, which the
// self-verifying values allow.
type codecTarget struct {
	id    uint64
	q     proto.Request  // the request the client encodes
	a     proto.Response // the response the server encodes
	req   proto.Request  // q as the server decodes it
	resp  proto.Response // a as the client decodes it
	frame []byte
	keys  []uint64
	vals  []uint64
	found []bool
}

func (t *codecTarget) request() error {
	t.q.ID = t.id
	var err error
	if t.frame, err = proto.AppendRequest(t.frame[:0], &t.q); err != nil {
		return err
	}
	body, err := unseal(proto.SealFrame(t.frame, 0))
	if err != nil {
		return err
	}
	return proto.DecodeRequest(body, &t.req)
}

func (t *codecTarget) response() error {
	t.a.ID = t.id
	var err error
	if t.frame, err = proto.AppendResponseV(t.frame[:0], &t.a, proto.Version2); err != nil {
		return err
	}
	body, err := unseal(proto.SealFrame(t.frame, 0))
	if err != nil {
		return err
	}
	return proto.DecodeResponseV(body, &t.resp, proto.Version2)
}

func (t *codecTarget) trip(q proto.Request, a proto.Response) error {
	t.id++
	t.q, t.a = q, a
	if err := t.request(); err != nil {
		return err
	}
	return t.response()
}

func (t *codecTarget) Get(key uint64) (uint64, bool, error) {
	err := t.trip(proto.Request{Op: proto.OpGet, Key: key}, proto.Response{Op: proto.OpGet, Found: true, Val: makeVal(key, 0)})
	return t.resp.Val, t.resp.Found, err
}

func (t *codecTarget) Insert(key, val uint64) error {
	return t.trip(proto.Request{Op: proto.OpInsert, Key: key, Val: val}, proto.Response{Op: proto.OpInsert})
}

func (t *codecTarget) Delete(key uint64) (bool, error) {
	err := t.trip(proto.Request{Op: proto.OpDelete, Key: key}, proto.Response{Op: proto.OpDelete, Found: true})
	return t.resp.Found, err
}

// Scan is the four frames of a streamed scan that fits one chunk: start and
// chunk, then the credit the client grants back and the end frame.
func (t *codecTarget) Scan(start uint64, dst []dytis.KV) ([]dytis.KV, error) {
	t.keys, t.vals = t.keys[:0], t.vals[:0]
	for i := uint64(0); i < scanLen; i++ {
		t.keys, t.vals = append(t.keys, start+i), append(t.vals, makeVal(start+i, 0))
	}
	err := t.trip(proto.Request{Op: proto.OpScanStart, Key: start, ScanMax: scanLen, Max: scanChunk, Credits: scanCredits},
		proto.Response{Op: proto.OpScanChunk, Keys: t.keys, Vals: t.vals})
	if err != nil {
		return dst[:0], err
	}
	dst = dst[:0]
	for i, k := range t.resp.Keys {
		dst = append(dst, dytis.KV{Key: k, Value: t.resp.Vals[i]})
	}
	t.q = proto.Request{Op: proto.OpScanCredit, Credits: 1}
	if err := t.request(); err != nil {
		return dst, err
	}
	t.a = proto.Response{Op: proto.OpScanEnd, Val: scanLen}
	return dst, t.response()
}

func (t *codecTarget) GetBatch(keys, _ []uint64, _ []bool) ([]uint64, []bool, error) {
	t.vals, t.found = t.vals[:0], t.found[:0]
	for _, k := range keys {
		t.vals, t.found = append(t.vals, makeVal(k, 0)), append(t.found, true)
	}
	err := t.trip(proto.Request{Op: proto.OpGetBatch, Keys: keys}, proto.Response{Op: proto.OpGetBatch, Vals: t.vals, Founds: t.found})
	return t.resp.Vals, t.resp.Founds, err
}

// pipeListener is a net.Listener whose connections are net.Pipe pairs: the
// server layer with no kernel under it.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.closed) }); return nil }
func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// dial hands the server one end of a fresh pipe and returns the other.
func (l *pipeListener) dial() (net.Conn, error) {
	c, s := net.Pipe()
	select {
	case l.conns <- s:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

// frameTarget is the server layer from outside: request frames are encoded
// before the span opens, written to the connection, and response frames are
// read raw; decoding waits until the span has closed. It times itself, since
// only it knows where the codec work ends.
type frameTarget struct {
	nc         net.Conn
	br         *bufio.Reader
	clk        clock
	id         uint64
	q          proto.Request
	resp       proto.Response
	out, out2  []byte // encoded request frames
	in         []byte // read buffer; a response body aliases it
	chunk      []byte // a scan's chunk body, kept past the next read
	start, end int64
}

// span reports the last op's interval from first byte written to last read.
func (t *frameTarget) span() (int64, int64) { return t.start, t.end }

// dialFrames connects over nc and negotiates protocol v2 with checksums and
// streamed scans, as client.Client does.
func dialFrames(nc net.Conn, clk clock) (*frameTarget, error) {
	t := &frameTarget{nc: nc, br: bufio.NewReader(nc), clk: clk, id: 1}
	hello, err := proto.AppendRequest(nil, &proto.Request{ID: 1, Op: proto.OpHello,
		Ver: proto.Version2, Feats: proto.FeatCRC | proto.FeatScanStream})
	if err != nil {
		return nil, err
	}
	if _, err := nc.Write(hello); err != nil {
		return nil, err
	}
	body, _, err := proto.ReadFrame(t.br, nil)
	if err != nil {
		return nil, err
	}
	if err := proto.DecodeResponse(body, &t.resp); err != nil {
		return nil, err
	}
	if t.resp.Status != proto.StatusOK || t.resp.Ver != proto.Version2 || t.resp.Feats != proto.FeatCRC|proto.FeatScanStream {
		return nil, fmt.Errorf("hello answered status %d, version %d, features %#x", t.resp.Status, t.resp.Ver, t.resp.Feats)
	}
	return t, nil
}

func (t *frameTarget) encode(dst []byte, q proto.Request) ([]byte, error) {
	t.q = q
	t.q.ID = t.id
	dst, err := proto.AppendRequest(dst[:0], &t.q)
	return proto.SealFrame(dst, 0), err
}

func (t *frameTarget) read() (body []byte, err error) {
	body, t.in, err = proto.ReadFrameCRC(t.br, t.in)
	return body, err
}

func (t *frameTarget) decode(body []byte) error {
	if err := proto.DecodeResponseV(body, &t.resp, proto.Version2); err != nil {
		return err
	}
	if t.resp.ID != t.id {
		return fmt.Errorf("response carries id %d, request was %d", t.resp.ID, t.id)
	}
	return t.resp.Err()
}

// trip is one request frame out and one response frame back.
func (t *frameTarget) trip(q proto.Request) (err error) {
	t.id++
	if t.out, err = t.encode(t.out, q); err != nil {
		return err
	}
	t.start = t.clk.now()
	if _, err = t.nc.Write(t.out); err != nil {
		return err
	}
	body, err := t.read()
	t.end = t.clk.now()
	if err != nil {
		return err
	}
	return t.decode(body)
}

func (t *frameTarget) Get(key uint64) (uint64, bool, error) {
	err := t.trip(proto.Request{Op: proto.OpGet, Key: key})
	return t.resp.Val, t.resp.Found, err
}

func (t *frameTarget) Insert(key, val uint64) error {
	return t.trip(proto.Request{Op: proto.OpInsert, Key: key, Val: val})
}

func (t *frameTarget) Delete(key uint64) (bool, error) {
	err := t.trip(proto.Request{Op: proto.OpDelete, Key: key})
	return t.resp.Found, err
}

func (t *frameTarget) GetBatch(keys, _ []uint64, _ []bool) ([]uint64, []bool, error) {
	err := t.trip(proto.Request{Op: proto.OpGetBatch, Keys: keys})
	return t.resp.Vals, t.resp.Founds, err
}

// Scan sends what client.Scanner sends for a scan that fits one chunk: the
// start frame, then one credit once the chunk has arrived.
func (t *frameTarget) Scan(start uint64, dst []dytis.KV) (_ []dytis.KV, err error) {
	dst = dst[:0]
	t.id++
	if t.out, err = t.encode(t.out, proto.Request{Op: proto.OpScanStart, Key: start, ScanMax: scanLen, Max: scanChunk, Credits: scanCredits}); err != nil {
		return dst, err
	}
	if t.out2, err = t.encode(t.out2, proto.Request{Op: proto.OpScanCredit, Credits: 1}); err != nil {
		return dst, err
	}
	t.start = t.clk.now()
	if _, err = t.nc.Write(t.out); err != nil {
		return dst, err
	}
	body, err := t.read()
	if err != nil {
		return dst, err
	}
	t.chunk = t.chunk[:0]
	if proto.Opcode(body[8]) == proto.OpScanChunk { // body = id(8) opcode(1) ...
		t.chunk = append(t.chunk, body...)
		if _, err = t.nc.Write(t.out2); err != nil {
			return dst, err
		}
		if body, err = t.read(); err != nil {
			return dst, err
		}
	}
	t.end = t.clk.now()
	if err := t.decode(body); err != nil {
		return dst, err
	}
	if t.resp.Op != proto.OpScanEnd {
		return dst, errors.New("scan stream did not end after one chunk")
	}
	if len(t.chunk) > 0 {
		if err := t.decode(t.chunk); err != nil {
			return dst, err
		}
		for i, k := range t.resp.Keys {
			dst = append(dst, dytis.KV{Key: k, Value: t.resp.Vals[i]})
		}
	}
	return dst, nil
}
