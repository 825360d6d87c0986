package server_test

// The HELLO handshake every connection opens with, and the raw-connection
// helpers the tests that drive frames by hand share: rawDial opens a
// connection with the handshake done, rawSend seals request frames, rawRecv
// reads and verifies one sealed response.

import (
	"context"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"dytis/client"
	"dytis/internal/core"
	"dytis/internal/proto"
	"dytis/internal/server"
)

// v2Hello is the handshake the in-repo clients send.
var v2Hello = proto.Request{ID: 1, Op: proto.OpHello, Ver: proto.MaxVersion, Feats: proto.AllFeatures}

// dialPlain connects to addr without the handshake; the socket closes at test
// end.
func dialPlain(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc
}

// hello writes req as the connection's unsealed first frame and returns the
// server's unsealed answer.
func hello(t *testing.T, nc net.Conn, req proto.Request) proto.Response {
	t.Helper()
	out, err := proto.AppendRequest(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(out); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	body, _, err := proto.ReadFrame(nc, nil)
	if err != nil {
		t.Fatalf("reading the hello answer: %v", err)
	}
	var resp proto.Response
	if err := proto.DecodeResponse(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// rawDial connects to addr and completes the handshake.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc := dialPlain(t, addr)
	if r := hello(t, nc, v2Hello); r.Status != proto.StatusOK || r.Ver != proto.Version2 {
		t.Fatalf("handshake answered %+v", r)
	}
	return nc
}

// rawSend writes reqs as sealed frames in one write.
func rawSend(t *testing.T, nc net.Conn, reqs ...proto.Request) {
	t.Helper()
	var out []byte
	for i := range reqs {
		start := len(out)
		var err error
		if out, err = proto.AppendRequest(out, &reqs[i]); err != nil {
			t.Fatal(err)
		}
		out = proto.SealFrame(out, start)
	}
	if _, err := nc.Write(out); err != nil {
		t.Fatal(err)
	}
}

// rawRecv reads one sealed response.
func rawRecv(t *testing.T, nc net.Conn) proto.Response {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	body, _, err := proto.ReadFrameCRC(nc, nil)
	if err != nil {
		t.Fatalf("reading a response: %v", err)
	}
	var resp proto.Response
	if err := proto.DecodeResponseV(body, &resp, proto.Version2); err != nil {
		t.Fatal(err)
	}
	return resp
}

// requireClosed fails the test unless the server has closed nc.
func requireClosed(t *testing.T, nc net.Conn, after string) {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Read(make([]byte, 1)); err == nil {
		t.Fatalf("connection stayed open after %s", after)
	}
}

// TestHelloNegotiation: a default client against a default server lands on
// v2 with both features, and the sealed session works end to end with zero
// checksum errors.
func TestHelloNegotiation(t *testing.T) {
	idx := core.New(smallOpts())
	m := &server.Metrics{}
	addr, _ := start(t, idx, server.Config{Metrics: m})
	c, err := client.Dial(addr, client.WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	ver, feats, err := c.Protocol(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ver != proto.Version2 || feats != proto.FeatCRC|proto.FeatScanStream {
		t.Fatalf("Protocol = v%d feats %#x, want v2 with CRC+scan-stream", ver, feats)
	}
	for k := uint64(0); k < 100; k++ {
		if err := c.Insert(ctx, k, k); err != nil {
			t.Fatal(err)
		}
	}
	if v, ok, err := c.Get(ctx, 42); err != nil || !ok || v != 42 {
		t.Fatalf("Get = %d,%v,%v", v, ok, err)
	}
	if n := m.FrameChecksumErrors(); n != 0 {
		t.Fatalf("FrameChecksumErrors = %d on a clean link, want 0", n)
	}
}

// TestHandshakeRefusals: a connection whose first frame is not a HELLO
// asking for protocol v2 with checksums and streamed scans is answered
// StatusBadRequest, unsealed, and closed, and each refusal counts as a
// protocol error.
func TestHandshakeRefusals(t *testing.T) {
	idx := core.New(smallOpts())
	m := &server.Metrics{}
	addr, _ := start(t, idx, server.Config{Metrics: m})
	helloReq := func(ver uint8, feats uint32) proto.Request {
		return proto.Request{ID: 1, Op: proto.OpHello, Ver: ver, Feats: feats}
	}
	cases := []struct {
		name  string
		first proto.Request
	}{
		{"not-hello", proto.Request{ID: 1, Op: proto.OpPing}},
		{"version-1", helloReq(proto.Version1, proto.AllFeatures)},
		{"no-crc", helloReq(proto.Version2, proto.FeatScanStream)},
		{"no-scan-stream", helloReq(proto.Version2, proto.FeatCRC)},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nc := dialPlain(t, addr)
			r := hello(t, nc, tc.first)
			if r.ID != 1 || r.Status != proto.StatusBadRequest {
				t.Fatalf("first frame %+v answered %+v, want id 1 bad-request", tc.first, r)
			}
			requireClosed(t, nc, "a refused handshake")
			if n := m.ProtoErrors(); n != int64(i+1) {
				t.Fatalf("ProtoErrors = %d after %d refusals", n, i+1)
			}
		})
	}
}

// TestHandshakeTrickleReaped: a HELLO trickled byte by byte is a slow-loris
// peer like any other — the per-frame ReadTimeout reaps it before the
// handshake completes.
func TestHandshakeTrickleReaped(t *testing.T) {
	idx := core.New(smallOpts())
	m := &server.Metrics{}
	addr, _ := start(t, idx, server.Config{ReadTimeout: 100 * time.Millisecond, Metrics: m})
	out, err := proto.AppendRequest(nil, &v2Hello)
	if err != nil {
		t.Fatal(err)
	}
	nc := dialPlain(t, addr)
	for i, b := range out {
		if _, err := nc.Write([]byte{b}); err != nil {
			if i <= 4 {
				t.Fatalf("write %d failed before the body began: %v", i, err)
			}
			break // reaped mid-body
		}
		time.Sleep(30 * time.Millisecond)
	}
	requireClosed(t, nc, "a trickled HELLO")
	if n := m.ConnTimeouts(); n != 1 {
		t.Fatalf("ConnTimeouts = %d, want 1 (trickled HELLO reaped)", n)
	}
}

// TestHelloMidStreamRejected: HELLO is only valid as a connection's first
// request; later it is a protocol error that drops the connection (otherwise
// a peer could flip framing mid-flight under pipelined traffic).
func TestHelloMidStreamRejected(t *testing.T) {
	idx := core.New(smallOpts())
	addr, _ := start(t, idx, server.Config{})
	nc := rawDial(t, addr)
	rawSend(t, nc, proto.Request{ID: 2, Op: proto.OpPing})
	if r := rawRecv(t, nc); r.ID != 2 || r.Status != proto.StatusOK {
		t.Fatalf("ping answered %+v", r)
	}
	second := v2Hello
	second.ID = 3
	rawSend(t, nc, second)
	if r := rawRecv(t, nc); r.ID != 3 || r.Status != proto.StatusBadRequest {
		t.Fatalf("mid-stream HELLO answered %+v, want id 3 bad-request", r)
	}
	requireClosed(t, nc, "a mid-stream HELLO")
}

// TestScanOpcodeRefused: scans travel only as streams, so the retired
// whole-result scan opcode (5, still reserved) is a request no peer may
// send; it is answered StatusBadRequest and the connection closes. No
// encoder emits it any more, so the frame is built by hand in its old
// layout: id(8) op(1) start(8) max(4).
func TestScanOpcodeRefused(t *testing.T) {
	idx := core.New(smallOpts())
	idx.Insert(1, 1)
	addr, _ := start(t, idx, server.Config{})
	nc := rawDial(t, addr)
	frame := binary.BigEndian.AppendUint32(nil, 8+1+8+4)
	frame = binary.BigEndian.AppendUint64(frame, 2)
	frame = append(frame, 5)
	frame = binary.BigEndian.AppendUint64(frame, 0)
	frame = binary.BigEndian.AppendUint32(frame, 10)
	if _, err := nc.Write(proto.SealFrame(frame, 0)); err != nil {
		t.Fatal(err)
	}
	if r := rawRecv(t, nc); r.ID != 2 || r.Status != proto.StatusBadRequest || len(r.Keys) != 0 {
		t.Fatalf("the retired scan opcode answered %+v, want id 2 bad-request", r)
	}
	requireClosed(t, nc, "the retired scan opcode")
}

// TestOverloadRetryAfterWire pins the retry-after encoding on the sealed
// wire: an overload response carries the configured window as a typed field.
func TestOverloadRetryAfterWire(t *testing.T) {
	const magic = ^uint64(0)
	d := core.New(smallOpts())
	gi := &gateIndex{writableIndex: d, gate: make(chan struct{}), magic: magic}
	addr, _ := startIndex(t, gi, d, server.Config{
		MaxInflight: 1,
		RetryAfter:  50 * time.Millisecond,
	})

	c1, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	blocked := make(chan error, 1)
	go func() {
		_, _, err := c1.Get(context.Background(), magic)
		blocked <- err
	}()
	gi.waitEntered(t, 1)

	nc := rawDial(t, addr)
	rawSend(t, nc, proto.Request{ID: 2, Op: proto.OpGet, Key: 1})
	resp := rawRecv(t, nc)
	if resp.Status != proto.StatusOverload || resp.RetryAfterMS != 50 {
		t.Fatalf("overload response = %+v, want typed retry-after of 50ms", resp)
	}
	if d, ok := resp.RetryAfter(); !ok || d != 50*time.Millisecond {
		t.Fatalf("RetryAfter() = %v,%v, want 50ms", d, ok)
	}

	close(gi.gate)
	if err := <-blocked; err != nil {
		t.Fatalf("gated Get after release: %v", err)
	}
}
