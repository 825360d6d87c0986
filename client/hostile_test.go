package client_test

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"dytis/client"
	"dytis/internal/proto"
)

// This file tests the client against a hostile or dying server: response
// frames with lying length prefixes, operations after Close, and the
// circuit breaker's open/half-open/closed cycle. The contract is the same
// fail-closed one the server chaos suite enforces: a hostile frame may fail
// the request and quarantine the connection, but it must never panic the
// client, hang a caller, or route a response to the wrong waiter.

// fakeServer accepts connections on a loopback listener and hands each to
// script, which speaks raw proto frames (acceptHello answers the handshake).
// Stop with close().
type fakeServer struct {
	ln net.Listener
	wg sync.WaitGroup
}

func newFakeServer(t *testing.T, script func(conn net.Conn)) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeServer{ln: ln}
	fs.wg.Add(1)
	go func() {
		defer fs.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			fs.wg.Add(1)
			go func() {
				defer fs.wg.Done()
				defer nc.Close()
				script(nc)
			}()
		}
	}()
	t.Cleanup(fs.close)
	return fs
}

func (fs *fakeServer) addr() string { return fs.ln.Addr().String() }

func (fs *fakeServer) close() {
	fs.ln.Close()
	fs.wg.Wait()
}

// v2Grant is what a server grants a client asking for every feature.
const v2Grant = proto.FeatCRC | proto.FeatScanStream

// acceptHello reads the connection's unsealed HELLO and answers it with a
// protocol v2 grant of feats, as a server does. It returns the reader the
// rest of the conversation continues on, or false when the client left.
func acceptHello(nc net.Conn, feats uint32) (*bufio.Reader, bool) {
	br := bufio.NewReader(nc)
	body, _, err := proto.ReadFrame(br, nil)
	if err != nil {
		return nil, false
	}
	var req proto.Request
	if proto.DecodeRequest(body, &req) != nil || req.Op != proto.OpHello {
		return nil, false
	}
	frame, err := proto.AppendResponse(nil, &proto.Response{
		ID: req.ID, Op: proto.OpHello, Ver: proto.Version2, Feats: feats,
	})
	if err != nil {
		return nil, false
	}
	_, err = nc.Write(frame)
	return br, err == nil
}

// readRequest decodes one sealed request frame from br, failing the conn
// silently on error (the client closed it).
func readRequest(br *bufio.Reader) (*proto.Request, error) {
	body, _, err := proto.ReadFrameCRC(br, nil)
	if err != nil {
		return nil, err
	}
	req := new(proto.Request)
	if err := proto.DecodeRequest(body, req); err != nil {
		return nil, err
	}
	return req, nil
}

func okResponse(t *testing.T, req *proto.Request) []byte {
	t.Helper()
	resp := &proto.Response{ID: req.ID, Op: req.Op}
	if req.Op == proto.OpGet {
		resp.Val, resp.Found = req.Key, true // echo: the key IS the value
	}
	frame, err := proto.AppendResponse(nil, resp)
	if err != nil {
		t.Errorf("encode response: %v", err)
	}
	return proto.SealFrame(frame, 0)
}

// hostileOpts makes redials immediate so the test exercises quarantine +
// replace, not backoff timing.
func hostileOpts() []client.Option {
	return []client.Option{
		client.WithPoolSize(1),
		client.WithReconnect(2, time.Millisecond, 2*time.Millisecond),
		client.WithCircuitBreaker(0, 0),
	}
}

// TestHostileTruncatedResponse: the server's frame promises more bytes than
// it delivers before closing. The in-flight request must fail with an
// error, the connection must be quarantined, and the next operation must
// succeed over a fresh connection.
func TestHostileTruncatedResponse(t *testing.T) {
	var lied sync.Once
	fs := newFakeServer(t, func(nc net.Conn) {
		br, ok := acceptHello(nc, v2Grant)
		for ok {
			req, err := readRequest(br)
			if err != nil {
				return
			}
			hostile := false
			lied.Do(func() { hostile = true })
			if !hostile {
				nc.Write(okResponse(t, req))
				continue
			}
			// A sealed honest frame whose header is rewritten to promise a
			// 64-byte body, then only 10 bytes of it: the read fails on the
			// short body, before any trailer could be checked.
			frame := okResponse(t, req)
			frame[0], frame[1], frame[2], frame[3] = 0, 0, 0, 64
			nc.Write(frame[:4+10])
			return // close with the body short
		}
	})

	c, err := client.Dial(fs.addr(), hostileOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	if _, _, err := c.Get(ctx, 7); err == nil {
		t.Fatal("Get served from a truncated frame succeeded")
	} else if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Get = %v, want io.ErrUnexpectedEOF in the chain", err)
	}
	// Quarantined and replaced: the next op runs on a fresh, honest conn.
	if v, ok, err := c.Get(ctx, 9); err != nil || !ok || v != 9 {
		t.Fatalf("Get after quarantine = %d,%v,%v want 9,true,nil", v, ok, err)
	}
}

// TestHostileOversizeLengthPrefix: a length prefix beyond MaxFrame must be
// rejected before any allocation, fail the conn, and leave the client
// usable.
func TestHostileOversizeLengthPrefix(t *testing.T) {
	var lied sync.Once
	fs := newFakeServer(t, func(nc net.Conn) {
		br, ok := acceptHello(nc, v2Grant)
		for ok {
			req, err := readRequest(br)
			if err != nil {
				return
			}
			hostile := false
			lied.Do(func() { hostile = true })
			if !hostile {
				nc.Write(okResponse(t, req))
				continue
			}
			nc.Write([]byte{0x7f, 0xff, 0xff, 0xff}) // 2GiB frame, says the peer
			return
		}
	})

	c, err := client.Dial(fs.addr(), hostileOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	if _, _, err := c.Get(ctx, 7); err == nil {
		t.Fatal("Get served from an oversize frame succeeded")
	} else if !errors.Is(err, proto.ErrFrameTooLarge) {
		t.Fatalf("Get = %v, want proto.ErrFrameTooLarge in the chain", err)
	}
	if v, ok, err := c.Get(ctx, 9); err != nil || !ok || v != 9 {
		t.Fatalf("Get after quarantine = %d,%v,%v want 9,true,nil", v, ok, err)
	}
}

// TestHostileFrameNoMisroute pipelines many concurrent Gets into a server
// that answers some honestly and then lies. Every caller must get either
// its own answer (the echoed key) or an error — never another request's
// value, no matter how the lying frame lands.
func TestHostileFrameNoMisroute(t *testing.T) {
	const workers = 8
	var served sync.Map // id -> struct{}: requests answered honestly
	var count int
	var mu sync.Mutex
	fs := newFakeServer(t, func(nc net.Conn) {
		br, ok := acceptHello(nc, v2Grant)
		for ok {
			req, err := readRequest(br)
			if err != nil {
				return
			}
			mu.Lock()
			count++
			lie := count%3 == 0 // every third request gets a lying frame
			mu.Unlock()
			if !lie {
				served.Store(req.ID, struct{}{})
				nc.Write(okResponse(t, req))
				continue
			}
			// Truncated lie: header for 32 bytes, only 5 delivered, close.
			nc.Write([]byte{0, 0, 0, 32, 1, 2, 3, 4, 5})
			return
		}
	})

	c, err := client.Dial(fs.addr(),
		client.WithPoolSize(1),
		client.WithPipeline(workers),
		client.WithReconnect(4, time.Millisecond, 2*time.Millisecond),
		client.WithCircuitBreaker(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := uint64(w)<<32 | uint64(i) | 1
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				v, ok, err := c.Get(ctx, key)
				cancel()
				if err != nil {
					continue // fail-closed: errors are always acceptable
				}
				if !ok || v != key {
					t.Errorf("worker %d: Get(%#x) = %#x,%v — another request's answer", w, key, v, ok)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestHostileGrantWithoutCRC: a server that grants streamed scans but not
// checksums would leave every later frame unverified. The dial fails instead
// of running unsealed.
func TestHostileGrantWithoutCRC(t *testing.T) {
	fs := newFakeServer(t, func(nc net.Conn) {
		if br, ok := acceptHello(nc, proto.FeatScanStream); ok {
			io.Copy(io.Discard, br)
		}
	})
	c, err := client.Dial(fs.addr(), client.WithPoolSize(1))
	if err == nil {
		c.Close()
		t.Fatal("Dial accepted a grant without FeatCRC")
	}
}

// TestClientClosedTyped: after Close, every entry point fails with an error
// matching ErrClientClosed — including an operation already in flight when
// Close runs.
func TestClientClosedTyped(t *testing.T) {
	// A server that reads requests but never answers: the in-flight op can
	// only end through Close.
	fs := newFakeServer(t, func(nc net.Conn) {
		if br, ok := acceptHello(nc, v2Grant); ok {
			io.Copy(io.Discard, br)
		}
	})
	c, err := client.Dial(fs.addr(), client.WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}

	inflight := make(chan error, 1)
	go func() {
		_, _, err := c.Get(context.Background(), 1)
		inflight <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the request reach the wire
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-inflight:
		if !errors.Is(err, client.ErrClientClosed) {
			t.Fatalf("in-flight op after Close = %v, want ErrClientClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight op hung across Close")
	}

	ctx := context.Background()
	checks := map[string]error{}
	_, _, err = c.Get(ctx, 1)
	checks["Get"] = err
	checks["Insert"] = c.Insert(ctx, 1, 2)
	_, err = c.Delete(ctx, 1)
	checks["Delete"] = err
	checks["Ping"] = c.Ping(ctx)
	_, _, err = drainScan(c.ScanStream(ctx, 0, 10))
	checks["Scan"] = err
	_, _, err = c.GetBatch(ctx, []uint64{1})
	checks["GetBatch"] = err
	checks["InsertBatch"] = c.InsertBatch(ctx, []uint64{1}, []uint64{2})
	_, err = c.DeleteBatch(ctx, []uint64{1})
	checks["DeleteBatch"] = err
	_, err = c.Len(ctx)
	checks["Len"] = err
	for op, err := range checks {
		if !errors.Is(err, client.ErrClientClosed) {
			t.Errorf("%s after Close = %v, want ErrClientClosed", op, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestCircuitBreaker walks the breaker through its whole cycle: trips open
// on consecutive connection failures, fails fast while open, re-opens on a
// failed half-open probe, and closes again once a probe succeeds.
func TestCircuitBreaker(t *testing.T) {
	idx := newIndex()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	stop := serveOn(t, idx, ln)

	const trips = 3
	cooldown := 200 * time.Millisecond
	c, err := client.Dial(addr,
		client.WithPoolSize(1),
		client.WithReconnect(1, time.Millisecond, 2*time.Millisecond),
		client.WithCircuitBreaker(trips, cooldown))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}

	// Kill the server; each failed op counts one trip.
	stop()
	for i := 0; i < trips; i++ {
		if err := c.Ping(ctx); err == nil {
			t.Fatalf("Ping %d with server down succeeded", i)
		} else if errors.Is(err, client.ErrCircuitOpen) {
			t.Fatalf("breaker opened after %d failures, want %d", i, trips)
		}
	}
	if err := c.Ping(ctx); !errors.Is(err, client.ErrCircuitOpen) {
		t.Fatalf("Ping after %d failures = %v, want ErrCircuitOpen", trips, err)
	}

	// Cooldown elapses, the half-open probe fails (server still down), and
	// the breaker snaps shut again without admitting a second op.
	time.Sleep(cooldown + 50*time.Millisecond)
	if err := c.Ping(ctx); err == nil || errors.Is(err, client.ErrCircuitOpen) {
		t.Fatalf("half-open probe = %v, want a connection error", err)
	}
	if err := c.Ping(ctx); !errors.Is(err, client.ErrCircuitOpen) {
		t.Fatalf("Ping after failed probe = %v, want ErrCircuitOpen", err)
	}

	// Server returns on the same address; after the cooldown the probe
	// succeeds and the breaker closes for good.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	stop2 := serveOn(t, idx, ln2)
	defer stop2()
	time.Sleep(cooldown + 50*time.Millisecond)
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("probe with server back = %v, want success", err)
	}
	for i := 0; i < 5; i++ {
		if err := c.Ping(ctx); err != nil {
			t.Fatalf("Ping %d after breaker closed: %v", i, err)
		}
	}
	requireSound(t, idx)
}
