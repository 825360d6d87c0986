package server_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dytis/client"
	"dytis/internal/check"
	"dytis/internal/core"
	"dytis/internal/proto"
	"dytis/internal/server"
)

// smallOpts mirrors the concurrency tests' configuration: tiny segments so
// even small key counts exercise splits, remaps, and directory doublings
// under the server's multi-connection load.
func smallOpts() core.Options {
	return core.Options{FirstLevelBits: 3, BucketEntries: 16, StartDepth: 2, Concurrent: true}
}

// start runs a server over idx on a loopback listener and returns its
// address; the server is drained at test end and the index checked.
func start(t *testing.T, idx *core.DyTIS, cfg server.Config) (string, *server.Server) {
	t.Helper()
	cfg.Index = idx
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; !errors.Is(err, server.ErrServerClosed) {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
		requireSound(t, idx)
	})
	return ln.Addr().String(), srv
}

// drainScan pulls s to its end and closes it, returning the pairs as
// parallel key/value slices and the scan's error. It is safe to call from
// any goroutine.
func drainScan(s *client.Scanner) (keys, vals []uint64, err error) {
	defer s.Close()
	for s.Next() {
		keys = append(keys, s.Key())
		vals = append(vals, s.Value())
	}
	return keys, vals, s.Err()
}

// scanAll drains a routed scan of up to max pairs from start. A cutover
// that interrupts it (ErrWrongShard) has the scan re-issued whole, by the
// map the redirect carried; any other failure is returned as it is.
func scanAll(ctx context.Context, cl *client.Client, start uint64, max int) (keys, vals []uint64, err error) {
	for attempt := 0; attempt < 8; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * 5 * time.Millisecond)
		}
		keys, vals, err = drainScan(cl.ScanStream(ctx, start, max))
		if !errors.Is(err, client.ErrWrongShard) {
			return keys, vals, err
		}
	}
	return nil, nil, err
}

func requireSound(t *testing.T, d *core.DyTIS) {
	t.Helper()
	if vs := check.Check(d); len(vs) != 0 {
		for _, v := range vs {
			t.Errorf("invariant violation: %v", v)
		}
		t.FailNow()
	}
}

func TestServeBasicOps(t *testing.T) {
	idx := core.New(smallOpts())
	addr, _ := start(t, idx, server.Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 100; k++ {
		if err := c.Insert(ctx, k<<40, k); err != nil {
			t.Fatal(err)
		}
	}
	v, ok, err := c.Get(ctx, 7<<40)
	if err != nil || !ok || v != 7 {
		t.Fatalf("Get = %d,%v,%v want 7,true,nil", v, ok, err)
	}
	if _, ok, _ := c.Get(ctx, 12345); ok {
		t.Fatal("Get of absent key reported found")
	}
	found, err := c.Delete(ctx, 7<<40)
	if err != nil || !found {
		t.Fatalf("Delete = %v,%v want true,nil", found, err)
	}
	if n, _ := c.Len(ctx); n != 99 {
		t.Fatalf("Len = %d want 99", n)
	}
	keys, vals, err := drainScan(c.ScanStream(ctx, 0, 10))
	if err != nil || len(keys) != 10 {
		t.Fatalf("Scan returned %d keys, err %v", len(keys), err)
	}
	for i, k := range keys {
		if k != vals[i]<<40 {
			t.Fatalf("scan pair %d: key %d val %d", i, k, vals[i])
		}
	}

	// Batched opcodes.
	bk := []uint64{1 << 40, 2 << 40, 7 << 40}
	bv, bf, err := c.GetBatch(ctx, bk)
	if err != nil {
		t.Fatal(err)
	}
	if !bf[0] || !bf[1] || bf[2] {
		t.Fatalf("GetBatch founds = %v", bf)
	}
	if bv[0] != 1 || bv[1] != 2 {
		t.Fatalf("GetBatch vals = %v", bv)
	}
	if err := c.InsertBatch(ctx, []uint64{500, 501}, []uint64{5, 6}); err != nil {
		t.Fatal(err)
	}
	df, err := c.DeleteBatch(ctx, []uint64{500, 999})
	if err != nil || !df[0] || df[1] {
		t.Fatalf("DeleteBatch = %v, %v", df, err)
	}
}

// TestPipelinedResponses drives many goroutines over a single pooled
// connection; response-to-request matching by id is what keeps every caller
// seeing its own key's value.
func TestPipelinedResponses(t *testing.T) {
	idx := core.New(smallOpts())
	addr, _ := start(t, idx, server.Config{})
	c, err := client.Dial(addr, client.WithPoolSize(1), client.WithPipeline(64))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	const workers = 16
	const perWorker = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := uint64(w)<<32 | uint64(i)
				if err := c.Insert(ctx, k, k+1); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				v, ok, err := c.Get(ctx, k)
				if err != nil || !ok || v != k+1 {
					t.Errorf("get %d = %d,%v,%v", k, v, ok, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n, _ := c.Len(ctx); n != workers*perWorker {
		t.Fatalf("Len = %d want %d", n, workers*perWorker)
	}
}

// TestMalformedFrame sends a syntactically framed but semantically garbage
// request: the server must answer StatusBadRequest with the echoed id and
// close the connection, never crash or hang.
func TestMalformedFrame(t *testing.T) {
	idx := core.New(smallOpts())
	m := &server.Metrics{}
	addr, _ := start(t, idx, server.Config{Metrics: m})
	nc := rawDial(t, addr)

	// id=77, opcode=0xEE (unknown), sealed so only the body is wrong.
	body := binary.BigEndian.AppendUint64(nil, 77)
	body = append(body, 0xEE)
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	frame = proto.SealFrame(append(frame, body...), 0)
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	if resp := rawRecv(t, nc); resp.ID != 77 || resp.Status != proto.StatusBadRequest {
		t.Fatalf("resp = %+v, want id 77 status bad-request", resp)
	}
	requireClosed(t, nc, "a protocol error")
	if m.ProtoErrors() != 1 {
		t.Fatalf("ProtoErrors = %d want 1", m.ProtoErrors())
	}
}

// TestConnLimitBackpressure: with MaxConns=1 a second client connects (the
// kernel backlog accepts it) but is not served — its handshake waits — until
// the first leaves: backpressure, not rejection.
func TestConnLimitBackpressure(t *testing.T) {
	idx := core.New(smallOpts())
	addr, _ := start(t, idx, server.Config{MaxConns: 1})

	c1, err := client.Dial(addr, client.WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}

	// TCP-accepted by the kernel backlog, but not served.
	var c2 *client.Client
	dialed := make(chan error, 1)
	go func() {
		var err error
		c2, err = client.Dial(addr, client.WithPoolSize(1))
		dialed <- err
	}()
	select {
	case err := <-dialed:
		t.Fatalf("second dial finished while the only slot was taken: %v", err)
	case <-time.After(200 * time.Millisecond):
	}

	c1.Close() // frees the slot
	select {
	case err := <-dialed:
		if err != nil {
			t.Fatalf("dial after slot freed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second dial still waiting after the slot was freed")
	}
	defer c2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c2.Ping(ctx); err != nil {
		t.Fatalf("ping after slot freed: %v", err)
	}
}

// TestGracefulDrain: requests the server has already read are executed and
// their responses flushed before the connection closes, so a pipelining
// client gets an answer for everything it managed to send.
func TestGracefulDrain(t *testing.T) {
	idx := core.New(smallOpts())
	addr, srv := start(t, idx, server.Config{})
	nc := rawDial(t, addr)

	const n = 200
	reqs := make([]proto.Request, n)
	for i := range reqs {
		k := uint64(i + 1)
		reqs[i] = proto.Request{ID: k, Op: proto.OpInsert, Key: k, Val: k}
	}
	rawSend(t, nc, reqs...)
	// Give the server a moment to buffer the burst, then drain.
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	got := 0
	var buf []byte
	for {
		body, nbuf, err := proto.ReadFrameCRC(nc, buf)
		buf = nbuf
		if err != nil {
			break // EOF once the drained conn closes
		}
		var resp proto.Response
		if err := proto.DecodeResponseV(body, &resp, proto.Version2); err != nil {
			t.Fatal(err)
		}
		if resp.Status != proto.StatusOK {
			t.Fatalf("drained response %d: %+v", resp.ID, resp)
		}
		got++
	}
	if got != n {
		t.Fatalf("received %d responses before close, want %d", got, n)
	}
	if idx.Len() != n {
		t.Fatalf("index has %d keys, want %d", idx.Len(), n)
	}
}

// TestSlowReaderBackpressure: a client that writes a large pipelined burst
// and refuses to read must stall the server's bounded per-connection queue,
// not balloon its memory — and the server must keep serving other
// connections meanwhile. When the slow reader finally reads, every response
// arrives intact.
func TestSlowReaderBackpressure(t *testing.T) {
	idx := core.New(smallOpts())
	addr, _ := start(t, idx, server.Config{Pipeline: 8})
	nc := rawDial(t, addr)

	// A burst of batch lookups with fat responses (~4.6 KiB each, ~9 MiB in
	// all), written without reading anything: the server-side queue and
	// socket buffers fill long before the burst is consumed.
	const burst, batch = 2000, 512
	keys := make([]uint64, batch)
	for k := range keys {
		keys[k] = uint64(k)
		idx.Insert(uint64(k), uint64(k))
	}
	var out []byte
	for i := uint64(1); i <= burst; i++ {
		start := len(out)
		var err error
		if out, err = proto.AppendRequest(out, &proto.Request{ID: i, Op: proto.OpGetBatch, Keys: keys}); err != nil {
			t.Fatal(err)
		}
		out = proto.SealFrame(out, start)
	}
	wrote := make(chan error, 1)
	go func() {
		_, err := nc.Write(out)
		wrote <- err
	}()

	// While the slow reader is stalled, a second connection is served
	// promptly: per-connection backpressure does not become head-of-line
	// blocking across connections.
	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c2.Ping(ctx); err != nil {
		t.Fatalf("second conn starved during slow-reader stall: %v", err)
	}

	// Now read everything; all burst responses must arrive, in order and
	// well-formed.
	nc.SetReadDeadline(time.Now().Add(30 * time.Second))
	var buf []byte
	var resp proto.Response
	for want := uint64(1); want <= burst; want++ {
		body, nbuf, err := proto.ReadFrameCRC(nc, buf)
		buf = nbuf
		if err != nil {
			t.Fatalf("reading response %d: %v", want, err)
		}
		if err := proto.DecodeResponseV(body, &resp, proto.Version2); err != nil {
			t.Fatal(err)
		}
		if resp.ID != want || resp.Status != proto.StatusOK || len(resp.Vals) != batch || resp.Vals[batch-1] != batch-1 {
			t.Fatalf("response %d: id=%d status=%d vals=%d", want, resp.ID, resp.Status, len(resp.Vals))
		}
	}
	if err := <-wrote; err != nil {
		t.Fatalf("burst write: %v", err)
	}
}

func TestMetricsPrometheus(t *testing.T) {
	idx := core.New(smallOpts())
	m := &server.Metrics{}
	addr, _ := start(t, idx, server.Config{Metrics: m})
	c, err := client.Dial(addr, client.WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	c.Insert(ctx, 1, 2)
	c.Get(ctx, 1)
	c.GetBatch(ctx, []uint64{1, 2, 3})

	if got := m.OpCount(proto.OpGetBatch); got != 3 {
		t.Errorf("OpCount(get-batch) = %d want 3 (batch entries count individually)", got)
	}
	if m.ConnsActive() != 1 || m.ConnsTotal() != 1 {
		t.Errorf("conns active/total = %d/%d want 1/1", m.ConnsActive(), m.ConnsTotal())
	}
	var buf bytes.Buffer
	m.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`dytis_server_request_latency_nanoseconds{op="get",quantile="0.99"}`,
		`dytis_server_ops_total{op="insert"} 1`,
		`dytis_server_ops_total{op="get-batch"} 3`,
		"dytis_server_connections_active 1",
		"dytis_server_protocol_errors_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if strings.Contains(out, `op="delete"`) {
		t.Error("metrics output contains series for unused opcode")
	}
}

// TestShutdownIdempotent also covers shutting down with no connections.
func TestShutdownIdempotent(t *testing.T) {
	idx := core.New(smallOpts())
	_, srv := start(t, idx, server.Config{})
	ctx := context.Background()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}
