package client

// Tests for the connection's outbound path (clientConn.send): the designed
// write counts, gated exactly, and the failure of a write that several
// callers share. They live in the package so they can watch the pending
// buffer and the yield counter; the transport is observed through WithDialer.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dytis/internal/core"
	"dytis/internal/proto"
	"dytis/internal/server"
)

// tapConn counts the client's Write calls and keeps the bytes. gate, when
// set, is consulted before every write with its 1-based number (the HELLO is
// write 1): it may block, and a non-nil error fails the write without
// forwarding a byte.
type tapConn struct {
	net.Conn
	gate func(n int, deadline time.Time) error

	mu       sync.Mutex
	writes   int
	stream   []byte
	deadline time.Time
	closed   chan struct{}
	once     sync.Once
}

func (t *tapConn) SetWriteDeadline(d time.Time) error {
	t.mu.Lock()
	t.deadline = d
	t.mu.Unlock()
	return t.Conn.SetWriteDeadline(d)
}

func (t *tapConn) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.writes++
	n, dl := t.writes, t.deadline
	t.stream = append(t.stream, p...)
	t.mu.Unlock()
	if t.gate != nil {
		if err := t.gate(n, dl); err != nil {
			return 0, err
		}
	}
	return t.Conn.Write(p)
}

func (t *tapConn) Close() error {
	t.once.Do(func() { close(t.closed) })
	return t.Conn.Close()
}

func (t *tapConn) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.writes
}

// requests decodes every request frame written so far. The HELLO travels
// unsealed; every later frame carries a CRC trailer.
func (t *tapConn) requests(tb testing.TB) []proto.Request {
	tb.Helper()
	t.mu.Lock()
	r := bytes.NewReader(t.stream[:len(t.stream):len(t.stream)])
	t.mu.Unlock()
	var reqs []proto.Request
	for i := 0; ; i++ {
		read := proto.ReadFrameCRC
		if i == 0 {
			read = proto.ReadFrame
		}
		body, _, err := read(r, nil)
		if err == io.EOF {
			return reqs
		}
		if err != nil {
			tb.Fatalf("frame %d: %v", i, err)
		}
		var req proto.Request
		if err := proto.DecodeRequest(body, &req); err != nil {
			tb.Fatalf("frame %d: %v", i, err)
		}
		reqs = append(reqs, req)
	}
}

// tapDialer hands out tapConns over TCP and keeps them in dial order.
type tapDialer struct {
	gate func(conn, n int, deadline time.Time) error // conn is the 0-based dial number

	mu    sync.Mutex
	conns []*tapConn
}

func (d *tapDialer) dial(addr string, timeout time.Duration) (net.Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	i := len(d.conns)
	tc := &tapConn{Conn: nc, closed: make(chan struct{})}
	if d.gate != nil {
		tc.gate = func(n int, dl time.Time) error { return d.gate(i, n, dl) }
	}
	d.conns = append(d.conns, tc)
	return tc, nil
}

func (d *tapDialer) conn(i int) *tapConn {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.conns[i]
}

// serveIndex starts an in-process server over n preloaded keys (key i holds
// i) and returns its address.
func serveIndex(t *testing.T, n uint64) string {
	t.Helper()
	idx := core.New(core.Options{FirstLevelBits: 3, BucketEntries: 16, StartDepth: 2, Concurrent: true})
	for k := uint64(0); k < n; k++ {
		idx.Insert(k, k)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Index: idx})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		<-done
	})
	return ln.Addr().String()
}

func dialTapped(t *testing.T, addr string, d *tapDialer, opts ...Option) *Client {
	t.Helper()
	opts = append([]Option{WithPoolSize(1), WithDialer(d.dial)}, opts...)
	c, err := Dial(addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func (cc *clientConn) yieldCount() uint64 {
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	return cc.yields
}

// TestWriteCountLoneCaller: one caller on a connection makes exactly one
// Write per request frame — point ops, batches and bounded scans alike — and
// never yields: the single-caller round trip is the same bytes in the same
// single write it always was.
func TestWriteCountLoneCaller(t *testing.T) {
	d := &tapDialer{}
	c := dialTapped(t, serveIndex(t, 4096), d)
	cc, tc := c.slots[0].cc.Load(), d.conn(0)
	ctx := context.Background()
	before := tc.count()
	const rounds = 400
	requests := 0
	for i := uint64(0); i < rounds; i++ {
		if v, ok, err := c.Get(ctx, i); err != nil || !ok || v != i {
			t.Fatalf("Get(%d) = %d, %v, %v", i, v, ok, err)
		}
		if err := c.Insert(ctx, 1<<40+i, i); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Delete(ctx, 1<<40+i); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.GetBatch(ctx, []uint64{i, i + 1, i + 2}); err != nil {
			t.Fatal(err)
		}
		// A bounded scan is one frame: its budget arrives in the first
		// chunk, so no credit is owed.
		s := c.ScanStream(ctx, i, 100)
		n := 0
		for s.Next() {
			n++
		}
		if err := s.Err(); err != nil || n != 100 {
			t.Fatalf("scan from %d: %d pairs, %v", i, n, err)
		}
		s.Close()
		requests += 5
	}
	if got := tc.count() - before; got != requests {
		t.Errorf("%d writes for %d requests, want exactly one each", got, requests)
	}
	if got := len(tc.requests(t)) - 1; got != requests {
		t.Errorf("%d request frames on the wire for %d requests", got, requests)
	}
	if y := cc.yieldCount(); y != 0 {
		t.Errorf("lone caller yielded %d times", y)
	}
}

// TestWriteCountSharedConnection: sixteen callers on one connection share
// their writes. The design point is ~0.1 write per request; the gate is 0.5,
// at one, two and four Ps.
func TestWriteCountSharedConnection(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			d := &tapDialer{}
			c := dialTapped(t, serveIndex(t, 4096), d)
			tc := d.conn(0)
			before := tc.count()
			const callers, each = 16, 500
			var wg sync.WaitGroup
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func(g uint64) {
					defer wg.Done()
					for i := uint64(0); i < each; i++ {
						k := (g*each + i) % 4096
						if v, ok, err := c.Get(context.Background(), k); err != nil || !ok || v != k {
							t.Errorf("Get(%d) = %d, %v, %v", k, v, ok, err)
							return
						}
					}
				}(uint64(g))
			}
			wg.Wait()
			perReq := float64(tc.count()-before) / (callers * each)
			t.Logf("GOMAXPROCS=%d: %.3f writes per request", procs, perReq)
			if perReq > 0.5 {
				t.Errorf("%.3f writes per request with %d callers, want <= 0.5", perReq, callers)
			}
		})
	}
}

// TestWriteOrderOfScanner: the frames of one Scanner — Start, its Credits,
// Cancel — reach the connection in the order it issued them, whoever wrote
// them, while point traffic shares the connection.
func TestWriteOrderOfScanner(t *testing.T) {
	d := &tapDialer{}
	c := dialTapped(t, serveIndex(t, 4096), d, WithScanStream(16, 2))
	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := c.Get(ctx, (g*512+i)%4096); err != nil {
					t.Errorf("Get: %v", err)
					return
				}
			}
		}(uint64(g))
	}
	s := c.ScanStream(ctx, 0, 0)
	for i := 0; i < 200; i++ { // 12 chunks of 16: a dozen credits
		if !s.Next() {
			t.Fatalf("scan ended after %d pairs: %v", i, s.Err())
		}
	}
	s.Close()
	close(stop)
	wg.Wait()

	var ops []proto.Opcode
	for _, req := range d.conn(0).requests(t) {
		switch req.Op {
		case proto.OpScanStart, proto.OpScanCredit, proto.OpScanCancel:
			ops = append(ops, req.Op)
		}
	}
	if len(ops) < 3 || ops[0] != proto.OpScanStart || ops[len(ops)-1] != proto.OpScanCancel {
		t.Fatalf("scanner frames on the wire: %v", ops)
	}
	for _, op := range ops[1 : len(ops)-1] {
		if op != proto.OpScanCredit {
			t.Fatalf("scanner frames on the wire: %v", ops)
		}
	}
}

// TestScanBoundedWritesOneFrame: a scan whose budget fits its first chunk
// owes the server no credit — the end frame follows the chunk unasked — so it
// writes its ScanStart and nothing else.
func TestScanBoundedWritesOneFrame(t *testing.T) {
	d := &tapDialer{}
	c := dialTapped(t, serveIndex(t, 4096), d)
	s := c.ScanStream(context.Background(), 10, 100)
	n := 0
	for s.Next() {
		n++
	}
	if err := s.Err(); err != nil || n != 100 || s.Total() != 100 {
		t.Fatalf("scan: %d pairs (total %d), %v", n, s.Total(), err)
	}
	s.Close()
	reqs := d.conn(0).requests(t)[1:] // past the HELLO
	if len(reqs) != 1 || reqs[0].Op != proto.OpScanStart {
		t.Fatalf("a 100-pair scan wrote %d frames: %+v", len(reqs), reqs)
	}
	// An unbounded scan still grants credits, or it would stall.
	s = c.ScanStream(context.Background(), 0, 0)
	for n = 0; s.Next(); n++ {
	}
	if err := s.Err(); err != nil || n != 4096 {
		t.Fatalf("full scan: %d pairs, %v", n, err)
	}
}

// sharedWrite sets up the shape every shared-write failure has. On the first
// connection, write 1 is the HELLO; write 2 carries the leader's frame alone
// and is held while followers park their frames behind it; write 3 — the
// followers' group, written by the leader — is held while more callers park
// behind that, and then ends as fate decides. The server swallows the first
// connection's requests and answers on later ones, counting what it is
// asked.
type sharedWrite struct {
	c          *Client
	cc         *clientConn
	inLeader   chan struct{} // closed when write 1 has begun
	holdLeader chan struct{} // close to let write 1 through
	inGroup    chan struct{} // closed when write 2 has begun
	holdGroup  chan struct{} // close to let write 2 meet its fate
	answered   atomic.Int64  // requests seen on connections after the first
}

func newSharedWrite(t *testing.T, fate func(deadline time.Time, closed <-chan struct{}) error) *sharedWrite {
	t.Helper()
	sw := &sharedWrite{
		inLeader: make(chan struct{}), holdLeader: make(chan struct{}),
		inGroup: make(chan struct{}), holdGroup: make(chan struct{}),
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var conns atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			first := conns.Add(1) == 1
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer nc.Close()
				br := bufio.NewReader(nc)
				for hello := true; ; hello = false {
					var req proto.Request
					if !readFakeRequest(br, hello, &req) {
						return
					}
					resp := proto.Response{ID: req.ID, Op: req.Op, Found: true, Val: req.Key}
					switch {
					case hello:
						resp = proto.Response{ID: req.ID, Op: proto.OpHello, Ver: proto.Version2, Feats: proto.FeatCRC | proto.FeatScanStream}
					case first:
						continue
					default:
						sw.answered.Add(1)
					}
					nc.Write(fakeFrame(&resp, !hello))
				}
			}()
		}
	}()
	t.Cleanup(func() { ln.Close(); wg.Wait() })

	d := &tapDialer{}
	d.gate = func(conn, n int, dl time.Time) error {
		if conn != 0 {
			return nil
		}
		tc := d.conn(0)
		switch n {
		case 2:
			close(sw.inLeader)
			select {
			case <-sw.holdLeader:
			case <-tc.closed:
				return net.ErrClosed
			}
		case 3:
			close(sw.inGroup)
			select {
			case <-sw.holdGroup:
			case <-tc.closed:
				return net.ErrClosed
			}
			return fate(dl, tc.closed)
		}
		return nil
	}
	c, err := Dial(ln.Addr().String(), WithPoolSize(1), WithDialer(d.dial),
		WithReconnect(2, time.Millisecond, 2*time.Millisecond), WithCircuitBreaker(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	sw.c, sw.cc = c, c.slots[0].cc.Load()
	return sw
}

// readFakeRequest reads one request frame for a fake server: the unsealed
// HELLO when hello is set, a sealed frame otherwise. It reports false when
// the client left or sent garbage.
func readFakeRequest(br *bufio.Reader, hello bool, req *proto.Request) bool {
	read := proto.ReadFrameCRC
	if hello {
		read = proto.ReadFrame
	}
	body, _, err := read(br, nil)
	return err == nil && proto.DecodeRequest(body, req) == nil && (req.Op == proto.OpHello) == hello
}

// fakeFrame encodes a fake server's response, sealed unless it answers the
// HELLO.
func fakeFrame(resp *proto.Response, sealed bool) []byte {
	frame, _ := proto.AppendResponseV(nil, resp, proto.Version2)
	if sealed {
		frame = proto.SealFrame(frame, 0)
	}
	return frame
}

// parked waits until n frames of size each sit in the pending buffer.
func (sw *sharedWrite) parked(t *testing.T, n, each int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		sw.cc.wmu.Lock()
		got := len(sw.cc.pending)
		sw.cc.wmu.Unlock()
		if got == n*each {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d bytes parked, want %d frames of %d", got, n, each)
		}
		time.Sleep(time.Millisecond)
	}
}

// launch starts n Gets and returns the channel their errors arrive on.
func (sw *sharedWrite) launch(ctx context.Context, n int) <-chan error {
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, _, err := sw.c.Get(ctx, 7)
			errs <- err
		}()
	}
	return errs
}

func getFrameLen(t *testing.T, ctx context.Context) int {
	t.Helper()
	req := proto.Request{Op: proto.OpGet}
	if _, ok := ctx.Deadline(); ok {
		req.TimeoutMS = 1
	}
	frame, err := proto.AppendRequest(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	return len(frame) + proto.TrailerLen
}

// collect requires n errors promptly, each satisfying ok.
func collect(t *testing.T, who string, errs <-chan error, n int, ok func(error) bool) {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			if !ok(err) {
				t.Errorf("%s: got %v", who, err)
			}
		case <-timeout:
			t.Fatalf("%s: %d of %d callers still hanging", who, n-i, n)
		}
	}
}

// TestSharedWriteFailure: when a write that carries several callers' frames
// fails or times out, the leader, every follower in the group and every
// caller parked behind it fail promptly with the connection's error — none
// waits out its own context, none is retried on the next connection — and
// the pool redials for the next operation.
func TestSharedWriteFailure(t *testing.T) {
	errBoom := errors.New("boom")
	isWrite := func(err error) bool { return err != nil && errors.Is(err, errBoom) }
	isTimeout := func(err error) bool { return err != nil && errors.Is(err, os.ErrDeadlineExceeded) }
	cases := []struct {
		name string
		fate func(time.Time, <-chan struct{}) error
		// short is the one follower's context that bounds the group's write.
		short time.Duration
		ok    func(error) bool
	}{
		{"error", func(time.Time, <-chan struct{}) error { return errBoom }, 0, isWrite},
		{"timeout", func(dl time.Time, closed <-chan struct{}) error {
			if dl.IsZero() {
				return errors.New("group write has no deadline armed")
			}
			select {
			case <-time.After(time.Until(dl)):
				return os.ErrDeadlineExceeded
			case <-closed:
				return net.ErrClosed
			}
		}, 300 * time.Millisecond, isTimeout},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sw := newSharedWrite(t, tc.fate)
			// Every other caller's context outlasts the test's patience: an
			// error that arrives comes from the connection, not the clock.
			long, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			each := getFrameLen(t, long)

			leader := sw.launch(long, 1)
			<-sw.inLeader
			const followers, behind = 15, 4
			var shortErrs <-chan error
			inGroup := sw.launch(long, followers)
			if tc.short > 0 {
				short, cancel := context.WithTimeout(context.Background(), tc.short)
				defer cancel()
				shortErrs = sw.launch(short, 1)
				sw.parked(t, followers+1, each)
			} else {
				sw.parked(t, followers, each)
			}
			close(sw.holdLeader)
			<-sw.inGroup
			parkedBehind := sw.launch(long, behind)
			sw.parked(t, behind, each)
			close(sw.holdGroup)

			collect(t, "leader", leader, 1, tc.ok)
			collect(t, "in the group", inGroup, followers, tc.ok)
			collect(t, "behind the group", parkedBehind, behind, tc.ok)
			if shortErrs != nil {
				collect(t, "short-context follower", shortErrs, 1, func(err error) bool {
					return tc.ok(err) || errors.Is(err, context.DeadlineExceeded)
				})
			}
			if n := sw.answered.Load(); n != 0 {
				t.Fatalf("%d requests were re-sent on a new connection", n)
			}
			// The pool redials; exactly this request reaches the server.
			if v, ok, err := sw.c.Get(context.Background(), 9); err != nil || !ok || v != 9 {
				t.Fatalf("Get after the failure = %d, %v, %v", v, ok, err)
			}
			if n := sw.answered.Load(); n != 1 {
				t.Fatalf("server saw %d requests after the failure, want 1", n)
			}
		})
	}
}

// TestSharedWriteClose: Close reaches callers parked as followers behind a
// write in flight, and the leader stuck in it, with ErrClientClosed.
func TestSharedWriteClose(t *testing.T) {
	sw := newSharedWrite(t, func(time.Time, <-chan struct{}) error { return nil })
	ctx := context.Background()
	each := getFrameLen(t, ctx)
	leader := sw.launch(ctx, 1)
	<-sw.inLeader
	followers := sw.launch(ctx, 8)
	sw.parked(t, 8, each)
	if err := sw.c.Close(); err != nil {
		t.Fatal(err)
	}
	closed := func(err error) bool { return errors.Is(err, ErrClientClosed) }
	collect(t, "leader", leader, 1, closed)
	collect(t, "followers", followers, 8, closed)
	if _, _, err := sw.c.Get(ctx, 1); !closed(err) {
		t.Fatalf("Get after Close = %v", err)
	}
}

// TestYieldingWriterNotStarved: a goroutine spinning on every P must not
// keep a writer that yielded from coming back. The scheduler preempts a
// spinner after a slice and polls the global queue the writer sits on, so
// each request costs a bounded number of slices.
func TestYieldingWriterNotStarved(t *testing.T) {
	d := &tapDialer{}
	c := dialTapped(t, serveIndex(t, 64), d)
	cc := c.slots[0].cc.Load()
	var stop atomic.Bool
	var hogs sync.WaitGroup
	for p := 0; p < runtime.GOMAXPROCS(0); p++ {
		hogs.Add(1)
		go func() {
			defer hogs.Done()
			for !stop.Load() {
			}
		}()
	}
	defer hogs.Wait()
	defer stop.Store(true)

	const callers, each = 4, 5
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		go func() {
			for i := uint64(0); i < each; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				_, _, err := c.Get(ctx, i)
				cancel()
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < callers; g++ {
		if err := <-errs; err != nil {
			t.Fatalf("a request starved behind the spinners: %v", err)
		}
	}
	if cc.yieldCount() == 0 {
		t.Fatal("no writer yielded; the test exercised nothing")
	}
}

// TestNoUnsealedFrameAfterHello: every frame the client writes after the
// HELLO is sealed — against a server under a mix of point ops, batches and
// scans, and against a server that refuses the handshake, where the dial
// fails instead of going on over an unsealed wire.
func TestNoUnsealedFrameAfterHello(t *testing.T) {
	t.Run("served", func(t *testing.T) {
		d := &tapDialer{}
		c := dialTapped(t, serveIndex(t, 1024), d, WithScanStream(16, 2))
		ctx := context.Background()
		if err := c.Insert(ctx, 1<<40, 1); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Get(ctx, 7); err != nil {
			t.Fatal(err)
		}
		if _, err := c.DeleteBatch(ctx, []uint64{1 << 40, 3}); err != nil {
			t.Fatal(err)
		}
		s := c.ScanStream(ctx, 0, 0)
		for i := 0; i < 100 && s.Next(); i++ { // credits, then a cancel
		}
		s.Close()
		c.Close()
		reqs := d.conn(0).requests(t) // fails on any frame after the first that is not sealed
		if len(reqs) < 5 || reqs[0].Op != proto.OpHello {
			t.Fatalf("frames on the wire: %+v", reqs)
		}
		for _, req := range reqs[1:] {
			if req.Op == proto.OpHello {
				t.Fatalf("a second HELLO on the wire: %+v", reqs)
			}
		}
	})
	t.Run("refused", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			for {
				nc, err := ln.Accept()
				if err != nil {
					return
				}
				var req proto.Request
				if readFakeRequest(bufio.NewReader(nc), true, &req) {
					nc.Write(fakeFrame(&proto.Response{ID: req.ID, Op: proto.OpPing, Status: proto.StatusBadRequest, Msg: "unknown opcode"}, false))
				}
				nc.Close()
			}
		}()
		d := &tapDialer{}
		if c, err := Dial(ln.Addr().String(), WithPoolSize(1), WithDialer(d.dial)); err == nil {
			c.Close()
			t.Fatal("Dial succeeded against a server that refused the handshake")
		}
		d.mu.Lock()
		conns := d.conns
		d.mu.Unlock()
		for i, tc := range conns {
			if reqs := tc.requests(t); len(reqs) != 1 || reqs[0].Op != proto.OpHello {
				t.Fatalf("connection %d carried %+v after a refused handshake, want the HELLO alone", i, reqs)
			}
		}
	})
}
