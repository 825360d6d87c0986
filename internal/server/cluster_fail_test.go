package server_test

// Failure-path cluster tests that need no fault injector: a shard dying
// under a chained scan, and a tripped per-endpoint circuit breaker
// staying isolated from routing to healthy shards.

import (
	"context"
	"errors"
	"testing"
	"time"

	"dytis/client"
)

// TestClusterScanShardDeath kills one shard while a chained ScanStream is
// partway through the cluster: the scan must stop promptly with a typed
// ErrScanInterrupted, never run to completion as a silently truncated
// "success".
func TestClusterScanShardDeath(t *testing.T) {
	procs := startCluster(t, 3)
	// A small chunk and credit window keep most of each shard's data
	// server-side, so the kill lands while the stream genuinely depends on
	// the shard being alive (DialCluster plumbs the option to every
	// per-endpoint client).
	cl, err := client.DialCluster([]string{procs[0].addr}, client.WithScanStream(64, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	const total = 6000
	keys := make([]uint64, total)
	vals := make([]uint64, total)
	for i := range keys {
		keys[i] = spread(uint64(i)) // bijective spread: every shard holds a slice
		vals[i] = uint64(i)
	}
	if err := cl.InsertBatch(ctx, keys, vals); err != nil {
		t.Fatal(err)
	}

	s := cl.ScanStream(ctx, 0, 0)
	defer s.Close()
	// Pull a few pairs so the chain's stream on shard 0 is live, then kill
	// the middle shard ahead of it — one the router holds a pooled (now
	// dead) connection to, so the chain fails when it opens it.
	for i := 0; i < 10; i++ {
		if !s.Next() {
			t.Fatalf("merge died after %d pairs before the kill: %v", i, s.Err())
		}
	}
	procs[1].stop()

	start := time.Now()
	n := uint64(10)
	for s.Next() {
		n++
	}
	elapsed := time.Since(start)
	err = s.Err()
	if err == nil {
		t.Fatalf("merge completed with %d/%d pairs and nil Err after shard death", n, total)
	}
	if !errors.Is(err, client.ErrScanInterrupted) {
		t.Fatalf("merge Err = %v, want ErrScanInterrupted in the chain", err)
	}
	var se *client.ScanInterruptedError
	if !errors.As(err, &se) {
		t.Fatalf("merge Err %v is not a *ScanInterruptedError", err)
	}
	if n >= total {
		t.Fatalf("merge delivered all %d pairs despite a dead shard", n)
	}
	// "Promptly": a dead connection errors on the next pull, it does not
	// sit out a long timeout.
	if elapsed > 10*time.Second {
		t.Fatalf("merge took %v to surface the dead shard", elapsed)
	}
}

// TestClusterBreakerIsolation trips the circuit breaker of one endpoint's
// pooled client (by killing that shard) and requires routing to the
// surviving shard to keep working — DialCluster's options reach each
// per-endpoint Client, and a breaker is per-endpoint state, never
// cluster-wide.
func TestClusterBreakerIsolation(t *testing.T) {
	procs := startCluster(t, 2)
	cl, err := client.DialCluster([]string{procs[0].addr},
		client.WithCircuitBreaker(1, time.Hour)) // one failure opens it, and it stays open
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	half := ^uint64(0)/2 + 1
	lowKey, highKey := uint64(100), half+100
	if err := cl.Insert(ctx, lowKey, 1); err != nil {
		t.Fatal(err)
	}
	if err := cl.Insert(ctx, highKey, 2); err != nil {
		t.Fatal(err)
	}

	procs[0].stop()

	// First op on the dead endpoint fails on the wire and trips its
	// breaker; the next proves the breaker is open (fail-fast, typed).
	if err := cl.Insert(ctx, lowKey, 3); err == nil {
		t.Fatal("Insert on killed shard succeeded")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := cl.Insert(ctx, lowKey, 3)
		if errors.Is(err, client.ErrCircuitOpen) {
			break
		}
		if err == nil {
			t.Fatal("Insert on killed shard succeeded")
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never opened; last err: %v", err)
		}
	}

	// The healthy shard's endpoint must be untouched by the tripped one.
	for i := uint64(0); i < 20; i++ {
		if err := cl.Insert(ctx, highKey+i, i); err != nil {
			t.Fatalf("Insert on healthy shard with a tripped sibling breaker: %v", err)
		}
		v, found, err := cl.Get(ctx, highKey+i)
		if err != nil || !found || v != i {
			t.Fatalf("Get on healthy shard = (%d, %v, %v), want (%d, true, nil)", v, found, err, i)
		}
	}

	// The router's health view reflects the split.
	var deadFails, liveFails = -1, -1
	for _, h := range cl.Health() {
		switch h.Addr {
		case procs[0].addr:
			deadFails = h.Fails
		case procs[1].addr:
			liveFails = h.Fails
		}
	}
	if deadFails <= 0 {
		t.Fatalf("dead endpoint health Fails = %d, want > 0", deadFails)
	}
	if liveFails > 0 {
		t.Fatalf("healthy endpoint health Fails = %d, want 0", liveFails)
	}
}
