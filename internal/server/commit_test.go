package server_test

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"dytis/internal/proto"
	"dytis/internal/server"
	"dytis/internal/wal"
)

// The submitted-mutation path (commit.go), driven with raw sealed frames
// over a durable store whose fsync the test holds open: what overtakes what, who
// waits for whom, and what a drain still answers.

// fsyncStall is a wal Hooks.Sync that parks every fsync while stalled.
type fsyncStall struct {
	mu     sync.Mutex
	gate   chan struct{} // non-nil while stalled; closed by release
	parked chan struct{} // one token per fsync that parked
}

func newFsyncStall() *fsyncStall { return &fsyncStall{parked: make(chan struct{}, 64)} }

func (f *fsyncStall) hook() error {
	f.mu.Lock()
	gate := f.gate
	f.mu.Unlock()
	if gate != nil {
		f.parked <- struct{}{}
		<-gate
	}
	return nil
}

func (f *fsyncStall) stall() {
	f.mu.Lock()
	f.gate = make(chan struct{})
	f.mu.Unlock()
}

// release lets parked and future fsyncs through; a no-op when not stalled.
func (f *fsyncStall) release() {
	f.mu.Lock()
	if f.gate != nil {
		close(f.gate)
		f.gate = nil
	}
	f.mu.Unlock()
}

func (f *fsyncStall) awaitParked(t *testing.T) {
	t.Helper()
	select {
	case <-f.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("no fsync reached the stall")
	}
}

// startStalled serves a fsync-always store whose fsyncs the returned stall
// controls.
func startStalled(t *testing.T, cfg server.Config) (string, *server.Server, *wal.Store, *fsyncStall) {
	t.Helper()
	stall := newFsyncStall()
	opts := durableOpts()
	opts.Fsync = wal.FsyncAlways
	opts.CheckpointBytes = -1
	opts.Hooks.Sync = stall.hook
	st, err := wal.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	addr, srv := startIndex(t, st.Serving(), st.Index(), cfg)
	// LIFO: a failed test's stall is lifted, then the store closes, then
	// startIndex's cleanup drains the server.
	t.Cleanup(func() { st.Close() })
	t.Cleanup(stall.release)
	return addr, srv, st, stall
}

// TestDurableReadOvertakesWriteAck: INSERT k then GET j pipelined on one
// connection, with the INSERT's fsync held open. The GET is answered first;
// while the INSERT is not durable no read sees it; its ack arrives only
// after the fsync returns; a GET sent after that ack sees the value.
func TestDurableReadOvertakesWriteAck(t *testing.T) {
	addr, _, st, stall := startStalled(t, server.Config{})
	if err := st.Insert(7, 70); err != nil {
		t.Fatal(err)
	}
	nc := rawDial(t, addr)

	stall.stall()
	rawSend(t, nc,
		proto.Request{ID: 1, Op: proto.OpInsert, Key: 5, Val: 50},
		proto.Request{ID: 2, Op: proto.OpGet, Key: 7})
	if r := rawRecv(t, nc); r.ID != 2 || r.Op != proto.OpGet || !r.Found || r.Val != 70 {
		t.Fatalf("first response = %+v, want the GET's (id 2): a read waited behind a write's fsync", r)
	}
	stall.awaitParked(t)
	rawSend(t, nc, proto.Request{ID: 3, Op: proto.OpGet, Key: 5})
	if r := rawRecv(t, nc); r.ID != 3 || r.Status != proto.StatusOK || r.Found {
		t.Fatalf("GET of a key whose insert is not yet durable = %+v, want a miss", r)
	}

	stall.release()
	if r := rawRecv(t, nc); r.ID != 1 || r.Op != proto.OpInsert || r.Status != proto.StatusOK {
		t.Fatalf("response after the fsync returned = %+v, want the INSERT's ack (id 1)", r)
	}
	rawSend(t, nc, proto.Request{ID: 4, Op: proto.OpGet, Key: 5})
	if r := rawRecv(t, nc); r.ID != 4 || !r.Found || r.Val != 50 {
		t.Fatalf("GET sent after the INSERT's ack = %+v, want 50", r)
	}
}

// heldConn is a server-side connection whose writes after the handshake's
// answer park while held. Close ends a parked write with net.ErrClosed, so
// a test that fails before releasing the hold still lets the server drain.
type heldConn struct {
	net.Conn
	held      chan struct{} // closed to let writes through
	closed    chan struct{} // closed by Close
	closeOnce sync.Once
	handshook bool // the HELLO answer has gone out
}

func (c *heldConn) Write(p []byte) (int, error) {
	if c.handshook {
		select {
		case <-c.held:
		case <-c.closed:
			return 0, net.ErrClosed
		}
	}
	c.handshook = true
	return c.Conn.Write(p)
}

func (c *heldConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestDurableSlowConnDoesNotDelayCommits: a connection that has stopped
// taking responses fills its own pending-mutation bound and stalls its own
// read loop — and nothing else. Commits go on, another connection's writes
// are acked, and once the slow peer reads again every one of its requests
// has an answer.
func TestDurableSlowConnDoesNotDelayCommits(t *testing.T) {
	const pipeline, burst = 4, 20
	held := make(chan struct{})
	var first sync.Once
	cfg := server.Config{
		Pipeline: pipeline,
		WrapConn: func(nc net.Conn) net.Conn {
			wrapped := nc
			first.Do(func() { wrapped = &heldConn{Conn: nc, held: held, closed: make(chan struct{})} }) // the first connection accepted is the slow one
			return wrapped
		},
	}
	addr, _, st, _ := startStalled(t, cfg)

	slow := rawDial(t, addr)
	reqs := make([]proto.Request, burst)
	for i := range reqs {
		reqs[i] = proto.Request{ID: uint64(i + 1), Op: proto.OpInsert, Key: uint64(100 + i), Val: 1}
	}
	rawSend(t, slow, reqs...)
	// The slow connection's first mutations commit; then its acks have
	// nowhere to go and its read loop stops submitting.
	deadline := time.Now().Add(5 * time.Second)
	for st.Len() < pipeline {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of the slow connection's inserts committed", st.Len())
		}
		time.Sleep(time.Millisecond)
	}

	fast := rawDial(t, addr)
	for i := uint64(0); i < 50; i++ {
		rawSend(t, fast, proto.Request{ID: i, Op: proto.OpInsert, Key: 1000 + i, Val: i})
		if r := rawRecv(t, fast); r.ID != i || r.Status != proto.StatusOK {
			t.Fatalf("insert %d on the healthy connection = %+v", i, r)
		}
	}
	if n := st.Len(); n >= 50+burst {
		t.Fatalf("all %d of the slow connection's inserts committed with none of their acks taken: its pending bound (%d) does not hold", burst, pipeline)
	}

	close(held)
	seen := map[uint64]bool{}
	for range reqs {
		r := rawRecv(t, slow)
		if r.Op != proto.OpInsert || r.Status != proto.StatusOK || seen[r.ID] {
			t.Fatalf("slow connection's response %+v (seen before: %v)", r, seen[r.ID])
		}
		seen[r.ID] = true
	}
	if st.Len() != 50+burst {
		t.Fatalf("Len = %d, want %d", st.Len(), 50+burst)
	}
}

// TestDurableShutdownAnswersPendingMutations: Shutdown with mutations read
// but not yet committed waits for them and answers every one before the
// connection closes.
func TestDurableShutdownAnswersPendingMutations(t *testing.T) {
	addr, srv, st, stall := startStalled(t, server.Config{})
	nc := rawDial(t, addr)

	const n = 5
	stall.stall()
	reqs := make([]proto.Request, 0, n+1)
	for i := uint64(1); i <= n; i++ {
		reqs = append(reqs, proto.Request{ID: i, Op: proto.OpInsert, Key: i, Val: i * 10})
	}
	// The GET behind them is the barrier: once it is answered, the read loop
	// has read — and submitted — all n inserts.
	reqs = append(reqs, proto.Request{ID: n + 1, Op: proto.OpGet, Key: 999})
	rawSend(t, nc, reqs...)
	if r := rawRecv(t, nc); r.ID != n+1 {
		t.Fatalf("first response = %+v, want the GET's", r)
	}
	stall.awaitParked(t)

	shutdown := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdown <- srv.Shutdown(ctx)
	}()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}
	stall.release()

	seen := map[uint64]bool{}
	for i := 0; i < n; i++ {
		r := rawRecv(t, nc)
		if r.Op != proto.OpInsert || r.Status != proto.StatusOK || r.ID < 1 || r.ID > n || seen[r.ID] {
			t.Fatalf("drain response %d = %+v", i, r)
		}
		seen[r.ID] = true
	}
	if err := <-shutdown; err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	for i := uint64(1); i <= n; i++ {
		if v, ok := st.Get(i); !ok || v != i*10 {
			t.Fatalf("Get(%d) after drain = %d,%v", i, v, ok)
		}
	}
}

// TestDurableAdmissionHeldUntilCommit: a submitted mutation keeps its
// MaxInflight slot, and its latency stays unbooked, until its commit
// completes — not merely until it is queued.
func TestDurableAdmissionHeldUntilCommit(t *testing.T) {
	m := &server.Metrics{}
	addr, _, _, stall := startStalled(t, server.Config{
		MaxInflight: 1, RetryAfter: 20 * time.Millisecond, Metrics: m,
	})
	writer, reader := rawDial(t, addr), rawDial(t, addr)

	stall.stall()
	rawSend(t, writer, proto.Request{ID: 1, Op: proto.OpInsert, Key: 1, Val: 1})
	stall.awaitParked(t)
	rawSend(t, reader, proto.Request{ID: 2, Op: proto.OpGet, Key: 1})
	if r := rawRecv(t, reader); r.Status != proto.StatusOverload {
		t.Fatalf("GET while the only slot is held by an uncommitted insert = %+v, want StatusOverload", r)
	}
	if n := m.OpCount(proto.OpInsert); n != 0 {
		t.Fatalf("insert booked %d times before it committed", n)
	}

	stall.release()
	if r := rawRecv(t, writer); r.ID != 1 || r.Status != proto.StatusOK {
		t.Fatalf("insert ack = %+v", r)
	}
	if n := m.OpCount(proto.OpInsert); n != 1 {
		t.Fatalf("insert booked %d times after its ack, want 1", n)
	}
	rawSend(t, reader, proto.Request{ID: 3, Op: proto.OpGet, Key: 1})
	if r := rawRecv(t, reader); r.Status != proto.StatusOK || !r.Found {
		t.Fatalf("GET after the slot was released = %+v", r)
	}
}
