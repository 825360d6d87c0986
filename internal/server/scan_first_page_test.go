package server_test

// A stream's first page runs on the connection's read loop: a scan that fits
// it is answered with its chunk and end in one out item and registers
// nothing, and only a longer stream is handed to a goroutine. These tests
// pin what that path must cost (no allocation) and what it must keep from
// the goroutine path: exact pairs and totals across the hand-off, the credit
// window, stale grants dropped, panic containment, admission shedding and
// the cluster redirect.

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"dytis/client"
	"dytis/internal/cluster"
	"dytis/internal/core"
	"dytis/internal/kv"
	"dytis/internal/proto"
	"dytis/internal/server"
)

// TestScanFirstPageAllocFree: one-page scans over a raw sealed-frame
// connection allocate nothing in steady state. The client side reuses its
// request frame, read buffer and decoded Response, so every allocation
// AllocsPerRun counts would be the server's.
func TestScanFirstPageAllocFree(t *testing.T) {
	idx := core.New(smallOpts())
	for k := uint64(0); k < 1000; k++ {
		idx.Insert(k, k+1)
	}
	m := &server.Metrics{}
	addr, _ := start(t, idx, server.Config{Metrics: m})
	nc := rawDial(t, addr)
	br := bufio.NewReader(nc)

	const pairs = 100
	req, err := proto.AppendRequest(nil, &proto.Request{
		ID: 2, Op: proto.OpScanStart, Key: 10, ScanMax: pairs, Max: 1024, Credits: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	req = proto.SealFrame(req, 0)
	var (
		buf  []byte
		resp proto.Response
		id   uint64 = 2
	)
	recv := func(op proto.Opcode) {
		var body []byte
		if body, buf, err = proto.ReadFrameCRC(br, buf); err != nil {
			t.Fatal(err)
		}
		if err = proto.DecodeResponse(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.ID != id || resp.Op != op || resp.Status != proto.StatusOK {
			t.Fatalf("got %v id %d status %d, want %v id %d", resp.Op, resp.ID, resp.Status, op, id)
		}
	}
	scan := func() {
		// A fresh stream id per scan, resealed in place.
		id++
		binary.BigEndian.PutUint64(req[4:], id)
		req = proto.SealFrame(req[:len(req)-proto.TrailerLen], 0)
		if _, err := nc.Write(req); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		recv(proto.OpScanChunk)
		if len(resp.Keys) != pairs || resp.Keys[0] != 10 || resp.Vals[pairs-1] != 10+pairs {
			t.Fatalf("chunk of %d pairs from %d", len(resp.Keys), resp.Keys[0])
		}
		recv(proto.OpScanEnd)
		if resp.Val != pairs {
			t.Fatalf("end total %d, want %d", resp.Val, pairs)
		}
	}
	for i := 0; i < 100; i++ { // warm every scratch buffer on both sides
		scan()
	}
	if allocs := testing.AllocsPerRun(1000, scan); allocs != 0 {
		t.Fatalf("one-page scan round trip allocates %v times, want 0", allocs)
	}
	if got, want := m.ScanStreams(), m.ScanChunks(); got != want {
		t.Fatalf("%d streams but %d chunks: a one-page scan is one chunk", got, want)
	}
}

// TestScanFirstPageContinues: a stream that outlives its first page comes
// back exact and ascending across the hand-off, its end total counts the
// inline page, the stream and chunk counters stay exact, and the inline page
// spends one credit of the window.
func TestScanFirstPageContinues(t *testing.T) {
	idx := core.New(smallOpts())
	const n = 5000
	for k := uint64(0); k < n; k++ {
		idx.Insert(k, k*3)
	}
	m := &server.Metrics{}
	addr, _ := start(t, idx, server.Config{Metrics: m})

	t.Run("client", func(t *testing.T) {
		c, err := client.Dial(addr, client.WithPoolSize(1), client.WithScanStream(100, 2))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		streams, chunks := m.ScanStreams(), m.ScanChunks()
		s := c.ScanStream(context.Background(), 10, 0)
		defer s.Close()
		want := uint64(10)
		for s.Next() {
			if s.Key() != want || s.Value() != want*3 {
				t.Fatalf("pair %d: got %d/%d", want-10, s.Key(), s.Value())
			}
			want++
		}
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		if want != n || s.Total() != n-10 {
			t.Fatalf("stream ended at key %d with total %d, want %d pairs", want, s.Total(), n-10)
		}
		// 4990 pairs in 100-pair chunks: 49 full ones, then a short one.
		if got := m.ScanStreams() - streams; got != 1 {
			t.Fatalf("ScanStreams moved by %d, want 1", got)
		}
		if got := m.ScanChunks() - chunks; got != 50 {
			t.Fatalf("ScanChunks moved by %d, want 50", got)
		}
	})

	t.Run("window", func(t *testing.T) {
		// One credit: the inline page spends it, so the stream must park
		// until the grant. The ping sent in between is therefore answered
		// before the second chunk can exist.
		nc := rawDial(t, addr)
		rawSend(t, nc, proto.Request{ID: 5, Op: proto.OpScanStart, Key: 0, ScanMax: 150, Max: 100, Credits: 1})
		if r := rawRecv(t, nc); r.Op != proto.OpScanChunk || len(r.Keys) != 100 || r.Keys[99] != 99 {
			t.Fatalf("first frame %v with %d pairs, want the 100-pair chunk", r.Op, len(r.Keys))
		}
		rawSend(t, nc, proto.Request{ID: 6, Op: proto.OpPing})
		if r := rawRecv(t, nc); r.Op != proto.OpPing || r.ID != 6 {
			t.Fatalf("a stream with no credit left sent %v id %d before the ping's answer", r.Op, r.ID)
		}
		rawSend(t, nc, proto.Request{ID: 5, Op: proto.OpScanCredit, Credits: 1})
		if r := rawRecv(t, nc); r.Op != proto.OpScanChunk || len(r.Keys) != 50 || r.Keys[0] != 100 {
			t.Fatalf("after the grant: %v with %d pairs, want the 50-pair chunk from 100", r.Op, len(r.Keys))
		}
		if r := rawRecv(t, nc); r.Op != proto.OpScanEnd || r.Status != proto.StatusOK || r.Val != 150 {
			t.Fatalf("end = %v status %d total %d, want OK with 150", r.Op, r.Status, r.Val)
		}
	})
}

// TestScanFirstPageStaleGrant: a credit or cancel naming a stream that ended
// on its first page is dropped, and the connection answers the next request.
func TestScanFirstPageStaleGrant(t *testing.T) {
	idx := core.New(smallOpts())
	for k := uint64(0); k < 100; k++ {
		idx.Insert(k, k)
	}
	m := &server.Metrics{}
	addr, _ := start(t, idx, server.Config{Metrics: m})
	nc := rawDial(t, addr)
	rawSend(t, nc, proto.Request{ID: 3, Op: proto.OpScanStart, Key: 0, ScanMax: 10, Max: 64, Credits: 4})
	if r := rawRecv(t, nc); r.Op != proto.OpScanChunk || len(r.Keys) != 10 {
		t.Fatalf("first frame %v with %d pairs, want a 10-pair chunk", r.Op, len(r.Keys))
	}
	if r := rawRecv(t, nc); r.Op != proto.OpScanEnd || r.Val != 10 {
		t.Fatalf("second frame %v total %d, want the end with 10", r.Op, r.Val)
	}
	rawSend(t, nc,
		proto.Request{ID: 3, Op: proto.OpScanCredit, Credits: 1},
		proto.Request{ID: 3, Op: proto.OpScanCancel},
		proto.Request{ID: 4, Op: proto.OpGet, Key: 7})
	if r := rawRecv(t, nc); r.Op != proto.OpGet || r.ID != 4 || !r.Found || r.Val != 7 {
		t.Fatalf("after the stale grant and cancel: %+v, want Get(7) answered", r)
	}
	if m.ProtoErrors() != 0 {
		t.Fatalf("ProtoErrors = %d, want 0", m.ProtoErrors())
	}
}

// scanPanicIndex panics on a Scan that starts at magic.
type scanPanicIndex struct {
	writableIndex
	magic uint64
}

func (p *scanPanicIndex) Scan(start uint64, max int, dst []kv.KV) []kv.KV {
	if start == p.magic {
		panic("scanPanicIndex: boom")
	}
	return p.writableIndex.Scan(start, max, dst)
}

// TestScanFirstPagePanic: a panicking Index.Scan ends the stream with
// "internal error" and closes only that connection, after the frames queued
// ahead of the end. This holds on the first page, which the read loop runs,
// and on a later one, which the stream's goroutine runs.
func TestScanFirstPagePanic(t *testing.T) {
	const magic = 40
	for _, tc := range []struct {
		name  string
		start uint64
		pairs int // delivered before the panicking page
	}{
		{"first-page", magic, 0},
		{"later-page", magic - 20, 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := core.New(smallOpts())
			for k := uint64(0); k < 100; k++ {
				d.Insert(k, k)
			}
			m := &server.Metrics{}
			addr, _ := startIndex(t, &scanPanicIndex{writableIndex: d, magic: magic}, d, server.Config{Metrics: m, Logf: t.Logf})
			bystander, err := client.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer bystander.Close()

			nc := rawDial(t, addr)
			rawSend(t, nc, proto.Request{ID: 9, Op: proto.OpScanStart, Key: tc.start, Max: 20, Credits: 4})
			if tc.pairs > 0 {
				if r := rawRecv(t, nc); r.Op != proto.OpScanChunk || len(r.Keys) != tc.pairs {
					t.Fatalf("first frame %v with %d pairs, want a %d-pair chunk", r.Op, len(r.Keys), tc.pairs)
				}
			}
			r := rawRecv(t, nc)
			if r.Op != proto.OpScanEnd || r.ID != 9 || r.Status != proto.StatusErr || r.Msg != "internal error" {
				t.Fatalf("panicking page answered %+v, want an internal-error end", r)
			}
			requireClosed(t, nc, "a panic in a scan page")
			if m.Panics() != 1 {
				t.Fatalf("Panics = %d, want 1", m.Panics())
			}
			ctx := context.Background()
			if err := bystander.Ping(ctx); err != nil {
				t.Fatalf("bystander connection broken by another conn's panic: %v", err)
			}
			if keys, _, err := drainScan(bystander.ScanStream(ctx, 0, 10)); err != nil || len(keys) != 10 {
				t.Fatalf("bystander scan = %d pairs, %v", len(keys), err)
			}
		})
	}
}

// TestScanFirstPageOverload: with MaxInflight at its cap, the first page is
// shed after the retry-after window like any request, and the Scanner
// surfaces it as a typed *OverloadError with the hint.
func TestScanFirstPageOverload(t *testing.T) {
	const magic = ^uint64(0)
	d := core.New(smallOpts())
	for k := uint64(0); k < 100; k++ {
		d.Insert(k, k)
	}
	gi := &gateIndex{writableIndex: d, gate: make(chan struct{}), magic: magic}
	m := &server.Metrics{}
	addr, _ := startIndex(t, gi, d, server.Config{MaxInflight: 1, RetryAfter: 50 * time.Millisecond, Metrics: m})

	c1, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := client.Dial(addr, client.WithCircuitBreaker(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	blocked := make(chan error, 1)
	go func() {
		_, _, err := c1.Get(context.Background(), magic)
		blocked <- err
	}()
	release := sync.OnceFunc(func() { close(gi.gate) })
	defer release()
	gi.waitEntered(t, 1)

	// The shed comes after the 50 ms window; the context only bounds a
	// server that queues the page instead.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, _, err = drainScan(c2.ScanStream(ctx, 0, 10))
	var oe *client.OverloadError
	if !errors.As(err, &oe) || !errors.Is(err, client.ErrOverload) {
		t.Fatalf("scan under overload = %v, want a *OverloadError", err)
	}
	if oe.RetryAfter != 50*time.Millisecond {
		t.Fatalf("RetryAfter hint = %v, want 50ms", oe.RetryAfter)
	}
	if m.Overloads() == 0 || m.ScanStreams() != 0 {
		t.Fatalf("Overloads = %d, ScanStreams = %d: a shed start is an overload, not a stream", m.Overloads(), m.ScanStreams())
	}

	release()
	if err := <-blocked; err != nil {
		t.Fatalf("gated Get failed after release: %v", err)
	}
	if keys, _, err := drainScan(c2.ScanStream(context.Background(), 0, 10)); err != nil || len(keys) != 10 {
		t.Fatalf("scan after the slot freed = %d pairs, %v", len(keys), err)
	}
}

// TestScanFirstPageWrongShard: a first page pinned to a map epoch the node
// has since replaced (as a handover's cutover does) ends with ErrWrongShard
// and the node's current map attached, before any pair is read.
func TestScanFirstPageWrongShard(t *testing.T) {
	procs, ms := startMeteredCluster(t, 2)
	m2, err := cluster.Uniform(2, []string{procs[0].addr, procs[1].addr})
	if err != nil {
		t.Fatal(err)
	}
	start := m2.Shards[0].Hi / 2
	blob := m2.Encode()
	ctx := context.Background()
	for i, p := range procs {
		c, err := client.Dial(p.addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SetShardMap(ctx, m2.Shards[i].Lo, m2.Shards[i].Hi, blob); err != nil {
			t.Fatalf("installing the epoch-2 map on shard %d: %v", i, err)
		}
		c.Close()
	}

	c, err := client.Dial(procs[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, _, err = drainScan(c.ScanStreamAt(ctx, start, 10, 1))
	if !errors.Is(err, client.ErrWrongShard) {
		t.Fatalf("stale-epoch scan = %v, want ErrWrongShard", err)
	}
	var ws *client.WrongShardError
	if !errors.As(err, &ws) {
		t.Fatalf("error %v is not a *WrongShardError", err)
	}
	got, err := cluster.DecodeMap(ws.MapBlob)
	if err != nil || got.Epoch != 2 || got.Owner(start).Addr != procs[0].addr {
		t.Fatalf("redirect map = %+v, %v; want epoch 2 routing %#x to shard 0", got, err, start)
	}
	if ms[0].WrongShards() != 1 || ms[0].ScanChunks() != 0 {
		t.Fatalf("shard 0: WrongShards %d, ScanChunks %d; want 1 and 0", ms[0].WrongShards(), ms[0].ScanChunks())
	}
}
