package server_test

import (
	"context"
	"strings"
	"testing"

	"dytis/client"
	"dytis/internal/cluster"
	"dytis/internal/core"
	"dytis/internal/proto"
	"dytis/internal/server"
)

// TestStandaloneRefusesClusterFamily: a standalone server (no
// Config.Cluster) serves through a node of its own, and that node must stay
// out of reach of the cluster opcode family. A HELLO asking for FeatCluster
// is granted without it, RequireCluster fails, and every cluster opcode
// sent anyway is refused by dispatch with StatusBadRequest, closing only
// the connection that sent it. A bystander connection keeps serving with
// Len unchanged, so no Mirror or import reached the index.
func TestStandaloneRefusesClusterFamily(t *testing.T) {
	idx := core.New(smallOpts())
	m := &server.Metrics{}
	addr, _ := start(t, idx, server.Config{Metrics: m})
	ctx := context.Background()

	bystander, err := client.Dial(addr, client.WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer bystander.Close()
	for k := uint64(1); k <= 10; k++ {
		if err := bystander.Insert(ctx, k, k*10); err != nil {
			t.Fatal(err)
		}
	}

	// The grant drops FeatCluster and keeps the rest of what was asked.
	nc := dialPlain(t, addr)
	r := hello(t, nc, v2Hello)
	if r.Status != proto.StatusOK {
		t.Fatalf("handshake answered %+v", r)
	}
	if r.Feats&proto.FeatCluster != 0 {
		t.Fatalf("standalone server granted FeatCluster (features %#x)", r.Feats)
	}
	if want := proto.AllFeatures &^ proto.FeatCluster; r.Feats != want {
		t.Fatalf("granted features %#x, want %#x", r.Feats, want)
	}
	if err := bystander.RequireCluster(ctx); err == nil {
		t.Fatal("RequireCluster succeeded against a standalone server")
	}

	one, err := cluster.Uniform(1, []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	// Every cluster opcode, each with fields its encoder accepts (it writes
	// only its own). The count pins the family, so an opcode that lost its
	// table's cluster mark fails here rather than drop out of the loop.
	family := 0
	for op := proto.Opcode(1); op < proto.NumOpcodes; op++ {
		if !op.Cluster() {
			continue
		}
		family++
		req := proto.Request{ID: 7, Op: op, Lo: 0, Hi: 1 << 40, Addr: "127.0.0.1:1",
			MapBlob: one.Encode(), Key: 12345, Val: 1}
		t.Run(req.Op.String(), func(t *testing.T) {
			nc := rawDial(t, addr)
			rawSend(t, nc, req)
			resp := rawRecv(t, nc)
			if resp.Status != proto.StatusBadRequest || resp.ID != req.ID || resp.Op != req.Op {
				t.Fatalf("%s answered %+v, want StatusBadRequest echoing id and op", req.Op, resp)
			}
			// The dispatch gate refused it, not the decoder.
			if !strings.Contains(resp.Msg, "feature not negotiated") {
				t.Fatalf("%s refused with %q, want the cluster feature gate", req.Op, resp.Msg)
			}
			requireClosed(t, nc, req.Op.String())
		})
	}
	if family != 11 {
		t.Fatalf("%d opcodes need FeatCluster, want 11", family)
	}

	if n, err := bystander.Len(ctx); err != nil || n != 10 {
		t.Fatalf("bystander Len = %d, %v; want 10", n, err)
	}
	if v, ok, err := bystander.Get(ctx, 7); err != nil || !ok || v != 70 {
		t.Fatalf("bystander Get(7) = %d,%v,%v", v, ok, err)
	}
	if _, ok, err := bystander.Get(ctx, 12345); err != nil || ok {
		t.Fatalf("Get(12345) = %v,%v: the refused mirror was applied", ok, err)
	}
	if p := m.Panics(); p != 0 {
		t.Fatalf("panics = %d", p)
	}
}
