package client

import (
	"context"
	"testing"

	"dytis/internal/proto"
)

// TestDialWireParity: a client from Dial routes by a map it made itself,
// so the routing costs nothing on the wire. Every op of a fixed sequence
// sends exactly one request frame, no map is ever fetched or asked for, and
// each pooled connection opens with exactly one HELLO.
func TestDialWireParity(t *testing.T) {
	d := &tapDialer{}
	c, err := Dial(serveIndex(t, 4096), WithDialer(d.dial)) // the default pool of 2
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	keys := []uint64{1, 2, 3}

	if _, _, err := c.Get(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(ctx, 1<<40, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete(ctx, 1<<40); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.GetBatch(ctx, keys); err != nil {
		t.Fatal(err)
	}
	if err := c.InsertBatch(ctx, keys, keys); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DeleteBatch(ctx, keys); err != nil {
		t.Fatal(err)
	}
	s := c.ScanStream(ctx, 10, 100) // one page: no credit owed
	for s.Next() {
	}
	if err := s.Err(); err != nil || s.Total() != 100 {
		t.Fatalf("scan: %d pairs, %v", s.Total(), err)
	}
	s.Close()
	if _, err := c.Len(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}

	want := map[proto.Opcode]int{
		proto.OpGet: 1, proto.OpInsert: 1, proto.OpDelete: 1,
		proto.OpGetBatch: 1, proto.OpInsertBatch: 1, proto.OpDeleteBatch: 1,
		proto.OpScanStart: 1, proto.OpLen: 1, proto.OpPing: 1,
	}
	got := map[proto.Opcode]int{}
	d.mu.Lock()
	conns := len(d.conns)
	d.mu.Unlock()
	if conns < 1 || conns > 2 {
		t.Fatalf("%d connections dialed for a pool of 2", conns)
	}
	for i := 0; i < conns; i++ {
		for j, req := range d.conn(i).requests(t) {
			if (req.Op == proto.OpHello) != (j == 0) {
				t.Fatalf("connection %d frame %d is %v: want exactly one HELLO, first", i, j, req.Op)
			}
			if j > 0 {
				got[req.Op]++
			}
		}
	}
	for op, n := range got {
		if want[op] != n {
			t.Errorf("%d request frames of opcode %v, want %d", n, op, want[op])
		}
	}
	for op, n := range want {
		if got[op] != n {
			t.Errorf("%d request frames of opcode %v, want %d", got[op], op, n)
		}
	}
}
