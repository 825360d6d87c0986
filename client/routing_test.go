package client

// Unit tests for the router's typed failure surface: RoutingError /
// ErrRouting, ScanInterruptedError / ErrScanInterrupted, and the
// per-endpoint health streaks behind Client.Health.

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dytis/internal/cluster"
)

func TestRoutingErrorTyped(t *testing.T) {
	cause := errors.New("map churning")
	err := error(&RoutingError{Op: "point op", Attempts: 8, Pending: 1, LastErr: cause})
	if !errors.Is(err, ErrRouting) {
		t.Fatal("RoutingError does not match ErrRouting")
	}
	if !errors.Is(err, cause) {
		t.Fatal("RoutingError does not unwrap to its cause")
	}
	var re *RoutingError
	if !errors.As(err, &re) || re.Attempts != 8 || re.Pending != 1 {
		t.Fatalf("errors.As recovered %+v", re)
	}
	if msg := err.Error(); !strings.Contains(msg, "8 attempts") {
		t.Fatalf("message %q does not name the attempt count", msg)
	}
	batch := error(&RoutingError{Op: "batch", Attempts: 8, Pending: 42, LastErr: cause})
	if msg := batch.Error(); !strings.Contains(msg, "42 keys") {
		t.Fatalf("batch message %q does not name the pending count", msg)
	}
	// A routing failure is not a data error and must not match other
	// sentinels.
	if errors.Is(err, ErrWrongShard) || errors.Is(err, ErrOverload) {
		t.Fatal("RoutingError matches an unrelated sentinel")
	}
}

func TestScanInterruptedErrorTyped(t *testing.T) {
	cause := errors.New("conn reset")
	err := error(&ScanInterruptedError{Source: 2, Err: cause})
	if !errors.Is(err, ErrScanInterrupted) {
		t.Fatal("ScanInterruptedError does not match ErrScanInterrupted")
	}
	if !errors.Is(err, cause) {
		t.Fatal("ScanInterruptedError does not unwrap to its cause")
	}
	var se *ScanInterruptedError
	if !errors.As(err, &se) || se.Source != 2 {
		t.Fatalf("errors.As recovered %+v", se)
	}
}

func TestEndpointHealthStreaks(t *testing.T) {
	cl := &Cluster{health: make(map[string]*EndpointHealth)}
	boom := errors.New("dial tcp: connection refused")

	// Transport failures accumulate; a success resets the streak.
	cl.noteResult("a", boom)
	cl.noteResult("a", boom)
	cl.noteResult("b", nil)
	h := healthByAddr(cl.Health())
	if h["a"].Fails != 2 || !errors.Is(h["a"].LastErr, boom) {
		t.Fatalf("a after two failures: %+v", h["a"])
	}
	if _, ok := h["b"]; ok {
		t.Fatal("an endpoint that only ever succeeded grew a health entry")
	}
	cl.noteResult("a", nil)
	if h = healthByAddr(cl.Health()); h["a"].Fails != 0 || h["a"].LastErr != nil {
		t.Fatalf("a after success: %+v", h["a"])
	}

	// Answered errors — redirects and overload sheds — prove the endpoint
	// is alive and reset the streak too.
	cl.noteResult("a", boom)
	cl.noteResult("a", &WrongShardError{Msg: "moved"})
	if h = healthByAddr(cl.Health()); h["a"].Fails != 0 {
		t.Fatalf("a after redirect: %+v", h["a"])
	}
	cl.noteResult("a", boom)
	cl.noteResult("a", &OverloadError{})
	if h = healthByAddr(cl.Health()); h["a"].Fails != 0 {
		t.Fatalf("a after overload shed: %+v", h["a"])
	}

	// A caller-canceled context says nothing about the endpoint.
	cl.noteResult("a", boom)
	cl.noteResult("a", context.Canceled)
	if h = healthByAddr(cl.Health()); h["a"].Fails != 1 {
		t.Fatalf("a after caller cancel: %+v", h["a"])
	}
}

// TestEndpointSickCountExact checks the count behind noteResult's lock-free
// fast path: it tracks the endpoints mid-streak exactly, so a streak ended
// by a success is seen (Health reports Fails == 0) and the count returns
// to 0 — serially and with every endpoint's results racing.
func TestEndpointSickCountExact(t *testing.T) {
	cl := &Cluster{health: make(map[string]*EndpointHealth)}
	boom := errors.New("dial tcp: connection refused")
	wantSick := func(n int32) {
		t.Helper()
		if got := cl.sick.Load(); got != n {
			t.Fatalf("sick = %d, want %d", got, n)
		}
	}

	cl.noteResult("a", boom)
	cl.noteResult("a", boom)
	cl.noteResult("a", boom)
	wantSick(1)
	cl.noteResult("b", boom)
	wantSick(2)
	cl.noteResult("b", nil) // the fast path must not swallow this reset
	cl.noteResult("b", nil)
	wantSick(1)
	cl.noteResult("a", &WrongShardError{Msg: "moved"})
	wantSick(0)
	for _, h := range cl.Health() {
		if h.Fails != 0 {
			t.Fatalf("%s after its streak ended: %+v", h.Addr, h)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		addr := string(rune('c' + g))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if i%3 == 0 {
					cl.noteResult(addr, boom)
				} else {
					cl.noteResult(addr, nil)
				}
			}
			cl.noteResult(addr, nil)
		}()
	}
	wg.Wait()
	wantSick(0)
	for _, h := range cl.Health() {
		if h.Fails != 0 {
			t.Fatalf("%s after its streak ended: %+v", h.Addr, h)
		}
	}
}

func healthByAddr(hs []EndpointHealth) map[string]EndpointHealth {
	m := make(map[string]EndpointHealth, len(hs))
	for _, h := range hs {
		m[h.Addr] = h
	}
	return m
}

// TestUnreachableEndpointFailsAtOnce: an endpoint dials when first used,
// and until one of its connections has succeeded, a failed dial fails the
// operation at once, as Dial does, rather than riding out the reconnect
// backoff.
func TestUnreachableEndpointFailsAtOnce(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	c := newClient([]Option{WithReconnect(4, 500*time.Millisecond, time.Second)})
	defer c.Close()
	m := &cluster.Map{Epoch: 1, Shards: []cluster.Shard{{Lo: 0, Hi: ^uint64(0), Addr: dead}}}
	if err := c.adopt(m.Encode()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, _, err := c.Get(context.Background(), 1); err == nil {
			t.Fatal("Get on an unreachable endpoint succeeded")
		}
		if d := time.Since(start); d > 250*time.Millisecond {
			t.Fatalf("op %d on an unreachable endpoint took %v; the first backoff is 500ms", i, d)
		}
	}
}
