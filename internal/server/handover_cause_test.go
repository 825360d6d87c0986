package server_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"dytis/client"
	"dytis/internal/cluster"
)

// copyFailPeer is a handover link whose bulk pages always fail, so the
// source suspends its handover once the retries run out.
type copyFailPeer struct{ cluster.Peer }

func (copyFailPeer) ImportBatch(keys, vals []uint64) (uint64, error) {
	return 0, errors.New("injected bulk-copy failure")
}

// TestHandoverStatusCarriesCause suspends a handover and checks that the
// wire status carries the node's suspension cause, word for word, and
// that the cause is gone once the handover is aborted.
func TestHandoverStatusCarriesCause(t *testing.T) {
	const mid = uint64(1) << 63
	dst := startShard(t, 1, 0)
	src := startShardDial(t, 0, ^uint64(0), func(addr string) (cluster.Peer, error) {
		p, err := testDialPeer(addr)
		if err != nil {
			return nil, err
		}
		return copyFailPeer{p}, nil
	})
	for i := uint64(0); i < 100; i++ {
		if err := src.node.Insert(mid+i, i); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	c, err := client.Dial(src.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.HandoverStart(ctx, mid, ^uint64(0), dst.addr); err != nil {
		t.Fatal(err)
	}
	var info cluster.HandoverInfo
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if info, err = c.HandoverStatus(ctx); err != nil {
			t.Fatal(err)
		}
		if info.State == cluster.HandoverFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("handover never suspended: state %s", cluster.HandoverStateName(info.State))
		}
	}
	want := src.node.HandoverStatus().Cause
	if want == nil {
		t.Fatal("suspended node reports no cause")
	}
	if info.Cause == nil || info.Cause.Error() != want.Error() {
		t.Fatalf("wire cause = %v, want %q", info.Cause, want)
	}
	if info.Target != dst.addr {
		t.Errorf("target = %q, want %q", info.Target, dst.addr)
	}
	if err := c.HandoverAbort(ctx); err != nil {
		t.Fatal(err)
	}
	if info, err = c.HandoverStatus(ctx); err != nil || info.Cause != nil {
		t.Fatalf("after abort: cause %v, err %v; want no cause", info.Cause, err)
	}
}
