package server_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dytis/client"
	"dytis/internal/core"
	"dytis/internal/fault"
	"dytis/internal/server"
)

// This file is the chaos/robustness end-to-end suite: oracle-checked
// workloads driven through a fault-injecting proxy under fixed seeds, plus
// directed regression tests for the individual defenses (slow-loris reaping,
// admission-control shedding, deadline sheds, panic recovery, forced drain).
//
// The contract under test is fail-closed: a fault may surface to the caller
// as an error — a timeout, a lost connection, an overload — but never as a
// wrong answer. The oracle tracks, per key, the set of states the server
// could legitimately be in (an acknowledged op collapses the set, a failed
// op widens it, because the server may or may not have applied it — and may
// still apply it later, when the request was buffered on a connection the
// client has already given up on), and every acknowledged read must be
// consistent with that set.

// startIndex is start() for a stub-wrapped index: the server serves idx,
// while soundness at teardown is checked against the underlying core index.
func startIndex(t *testing.T, idx server.Index, d *core.DyTIS, cfg server.Config) (string, *server.Server) {
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
		requireSound(t, d)
	})
	return ln.Addr().String(), srv
}

// --- uncertainty-tracking oracle ---------------------------------------------

// pstate is one possible state of a key: present with a value, or absent.
type pstate struct {
	present bool
	val     uint64
}

// keyState is the oracle's knowledge of one key: the set of states the
// server could be in. One entry and untainted means certainty; once an op
// on the key fails the key is tainted — the failed op may have applied, and
// because its request may still sit buffered on an abandoned connection it
// can even apply later, so from then on the set only grows and acknowledged
// reads are checked for membership, never used to collapse it.
type keyState struct {
	states  []pstate
	tainted bool
}

func (ks *keyState) add(s pstate) {
	for _, e := range ks.states {
		if e == s {
			return
		}
	}
	ks.states = append(ks.states, s)
}

func (ks *keyState) has(s pstate) bool {
	for _, e := range ks.states {
		if e == s {
			return true
		}
	}
	return false
}

func (ks *keyState) hasPresent(p bool) bool {
	for _, e := range ks.states {
		if e.present == p {
			return true
		}
	}
	return false
}

func (ks *keyState) String() string {
	var b strings.Builder
	for i, e := range ks.states {
		if i > 0 {
			b.WriteByte('|')
		}
		if e.present {
			fmt.Fprintf(&b, "=%d", e.val)
		} else {
			b.WriteString("absent")
		}
	}
	if ks.tainted {
		b.WriteString(" (tainted)")
	}
	return b.String()
}

// chaosOracle holds one worker's keys. Keys are owned single-writer (key %
// nclients == id), so the worker's own sequential view is authoritative.
type chaosOracle struct {
	keys map[uint64]*keyState
}

func newChaosOracle() *chaosOracle { return &chaosOracle{keys: make(map[uint64]*keyState)} }

func (o *chaosOracle) state(k uint64) *keyState {
	ks := o.keys[k]
	if ks == nil {
		ks = &keyState{states: []pstate{{present: false}}}
		o.keys[k] = ks
	}
	return ks
}

// mutate books an Insert or Delete outcome. ok means the server acknowledged
// the op; outcome is the state the op drives the key to.
func (o *chaosOracle) mutate(k uint64, outcome pstate, ok bool) {
	ks := o.state(k)
	if !ok {
		ks.tainted = true
		ks.add(outcome)
		return
	}
	if ks.tainted {
		// A zombie of an earlier failed op may still overwrite this later;
		// the acknowledged outcome joins the set instead of replacing it.
		ks.add(outcome)
		return
	}
	ks.states = ks.states[:0]
	ks.states = append(ks.states, outcome)
}

// observe checks an acknowledged read of k against the oracle and, when the
// key is untainted, uses it to confirm the singleton. Returns "" when
// consistent, a violation description otherwise.
func (o *chaosOracle) observe(k uint64, got pstate) string {
	ks := o.state(k)
	if !ks.has(got) {
		return fmt.Sprintf("key %#x: observed %v, oracle allows %v", k, got, ks)
	}
	return ""
}

// --- chaos workload ----------------------------------------------------------

// chaosPlan is the fault mix for the oracle-checked run: faults that
// delay, fragment, truncate, or kill the byte stream but never corrupt
// bytes in flight. FlipProb and DupProb stay zero here on purpose — not
// because corruption is undetectable (protocol v2's per-frame CRC32C
// catches it) but because the HELLO exchange travels before the checksum
// is negotiated, so a flip there surfaces as a failed dial rather than an
// oracle-checkable op outcome. Corrupting faults get their own run,
// TestChaosCorruption, which pins the client to v2 and asserts detection.
func chaosPlan() fault.Plan {
	return fault.Plan{
		DelayProb: 0.05, DelayMin: 100 * time.Microsecond, DelayMax: 2 * time.Millisecond,
		SplitProb: 0.15,
		DropProb:  0.01,
		CloseProb: 0.005,
	}
}

func chaosSeeds(t *testing.T) []int64 {
	if testing.Short() {
		return []int64{1}
	}
	return []int64{1, 2, 3, 5, 8}
}

func TestChaosOracle(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runChaosOracle(t, seed)
		})
	}
}

func runChaosOracle(t *testing.T, seed int64) {
	const (
		nclients = 4
		keySpace = 64 // owned keys per client
	)
	ops := 600
	if testing.Short() {
		ops = 150
	}

	idx := core.New(smallOpts())
	m := &server.Metrics{}
	addr, _ := start(t, idx, server.Config{
		Metrics:      m,
		IdleTimeout:  30 * time.Second,
		ReadTimeout:  2 * time.Second,
		WriteTimeout: 5 * time.Second,
		MaxInflight:  64,
	})

	inj := fault.New(seed, chaosPlan())
	px, err := fault.NewProxy(addr, inj)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()

	var (
		wg        sync.WaitGroup
		oracleMu  sync.Mutex
		oracles   = make([]*chaosOracle, nclients)
		completed atomic.Int64
		failed    atomic.Int64
	)
	violation := func(id int, format string, args ...any) {
		t.Errorf("client %d: %s", id, fmt.Sprintf(format, args...))
	}
	for id := 0; id < nclients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			o := chaosWorker(t, px.Addr(), id, nclients, keySpace, ops, seed, &completed, &failed, violation)
			oracleMu.Lock()
			oracles[id] = o
			oracleMu.Unlock()
		}(id)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiesce: close the proxy (kills every chaotic connection), then wait
	// for the server to finish the requests it had already buffered — only
	// then is the zombie window closed and the oracle's final sets stable.
	px.Close()
	quiesce := time.Now().Add(5 * time.Second)
	for m.ConnsActive() > 0 && time.Now().Before(quiesce) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := m.ConnsActive(); n > 0 {
		t.Fatalf("%d connection(s) still active after proxy close", n)
	}

	t.Logf("chaos seed=%d: %d ops acknowledged, %d failed; faults: %d delays, %d splits, %d dups, %d drops, %d closes",
		seed, completed.Load(), failed.Load(),
		inj.Stats().Delays(), inj.Stats().Splits(), inj.Stats().Dups(), inj.Stats().Drops(), inj.Stats().Closes())
	if completed.Load() == 0 {
		t.Fatal("no operation completed under chaos")
	}
	if inj.Stats().Total() == 0 {
		t.Fatal("no fault fired; the chaos run tested nothing")
	}

	verifyChaosReadback(t, addr, nclients, oracles)
}

// chaosWorker drives one client's share of the workload through the proxy
// and returns its oracle. Violations are reported through report; op errors
// are expected and only widen the oracle.
func chaosWorker(t *testing.T, addr string, id, nclients, keySpace, ops int, seed int64,
	completed, failed *atomic.Int64, report func(id int, format string, args ...any)) *chaosOracle {
	rng := rand.New(rand.NewSource(seed*7919 + int64(id)))
	o := newChaosOracle()
	c, err := client.Dial(addr,
		client.WithPoolSize(2),
		client.WithPipeline(16),
		client.WithReconnect(8, time.Millisecond, 20*time.Millisecond),
		client.WithCircuitBreaker(0, 0), // the breaker has its own tests; here it would only throttle coverage
		client.WithDialTimeout(2*time.Second),
	)
	if err != nil {
		report(id, "dial through proxy: %v", err)
		return o
	}
	defer c.Close()

	// Keys 1..keySpace*nclients, striped so each worker is the single
	// writer of its own stripe: worker id owns k iff (k-1)%nclients == id.
	ownedKey := func() uint64 { return uint64(rng.Intn(keySpace)*nclients + id + 1) }
	owned := func(k uint64) bool { return k >= 1 && (k-1)%uint64(nclients) == uint64(id) }
	for i := 0; i < ops; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		switch p := rng.Intn(100); {
		case p < 45: // insert
			k, v := ownedKey(), rng.Uint64()
			err := c.Insert(ctx, k, v)
			o.mutate(k, pstate{present: true, val: v}, err == nil)
			book(completed, failed, err)
		case p < 70: // get
			k := ownedKey()
			v, ok, err := c.Get(ctx, k)
			if err == nil {
				if msg := o.observe(k, obs(ok, v)); msg != "" {
					report(id, "get: %s", msg)
				}
			}
			book(completed, failed, err)
		case p < 85: // delete
			k := ownedKey()
			found, err := c.Delete(ctx, k)
			if err == nil && !o.state(k).hasPresent(found) {
				report(id, "delete: key %#x reported found=%v, oracle allows %v", k, found, o.state(k))
			}
			o.mutate(k, pstate{present: false}, err == nil)
			book(completed, failed, err)
		case p < 95: // scan: ordered page, owned pairs consistent
			start := uint64(rng.Intn(keySpace * nclients))
			keys, vals, err := drainScan(c.ScanStream(ctx, start, 32))
			if err == nil {
				for j, k := range keys {
					if k < start {
						report(id, "scan: key %#x below start %#x", k, start)
					}
					if j > 0 && keys[j-1] >= k {
						report(id, "scan: page out of order at %d: %#x then %#x", j, keys[j-1], k)
					}
					if owned(k) {
						if msg := o.observe(k, pstate{present: true, val: vals[j]}); msg != "" {
							report(id, "scan: %s", msg)
						}
					}
				}
			}
			book(completed, failed, err)
		default: // batched get over a handful of owned keys
			keys := make([]uint64, 1+rng.Intn(8))
			for j := range keys {
				keys[j] = ownedKey()
			}
			vals, found, err := c.GetBatch(ctx, keys)
			if err == nil {
				// Duplicate keys in the batch are fine: each answer is
				// checked independently against the same oracle set.
				for j, k := range keys {
					if msg := o.observe(k, obs(found[j], vals[j])); msg != "" {
						report(id, "getbatch: %s", msg)
					}
				}
			}
			book(completed, failed, err)
		}
		cancel()
	}
	return o
}

func book(completed, failed *atomic.Int64, err error) {
	if err == nil {
		completed.Add(1)
	} else {
		failed.Add(1)
	}
}

// obs normalizes a read result: the value only carries meaning when the key
// was found, and the oracle's absent state is canonically {false, 0}.
func obs(ok bool, v uint64) pstate {
	if !ok {
		return pstate{present: false}
	}
	return pstate{present: true, val: v}
}

// verifyChaosReadback reads the whole index back over a clean, fault-free
// connection and holds every key to its oracle: untainted keys must match
// exactly, tainted keys must land on one of their possible states.
func verifyChaosReadback(t *testing.T, addr string, nclients int, oracles []*chaosOracle) {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	// Merge the per-client oracles; ownership made their key sets disjoint.
	merged := make(map[uint64]*keyState)
	for _, o := range oracles {
		for k, ks := range o.keys {
			merged[k] = ks
		}
	}

	// Point reads: every key the workload ever touched.
	for k, ks := range merged {
		v, ok, err := c.Get(ctx, k)
		if err != nil {
			t.Fatalf("clean readback Get(%#x): %v", k, err)
		}
		got := obs(ok, v)
		if !ks.has(got) {
			t.Errorf("readback: key %#x is %v, oracle allows %v", k, got, ks)
		}
		if !ks.tainted && len(ks.states) == 1 && got != ks.states[0] {
			t.Errorf("readback: untainted key %#x is %v, want exactly %v", k, got, ks.states[0])
		}
	}
	if t.Failed() {
		return
	}

	// Full paginated scan: completeness (every key that must be present
	// appears, with a permitted value) and soundness (nothing the oracle
	// rules out appears).
	seen := make(map[uint64]uint64)
	var start uint64
	for {
		keys, vals, err := drainScan(c.ScanStream(ctx, start, 512))
		if err != nil {
			t.Fatalf("clean readback Scan(%#x): %v", start, err)
		}
		if len(keys) == 0 {
			break
		}
		for i, k := range keys {
			if i > 0 && keys[i-1] >= k {
				t.Fatalf("readback scan out of order: %#x then %#x", keys[i-1], k)
			}
			seen[k] = vals[i]
		}
		if keys[len(keys)-1] == ^uint64(0) {
			break
		}
		start = keys[len(keys)-1] + 1
	}
	sortedKeys := make([]uint64, 0, len(merged))
	for k := range merged {
		sortedKeys = append(sortedKeys, k)
	}
	sort.Slice(sortedKeys, func(i, j int) bool { return sortedKeys[i] < sortedKeys[j] })
	for _, k := range sortedKeys {
		ks := merged[k]
		v, inScan := seen[k]
		if inScan {
			if !ks.has(pstate{present: true, val: v}) {
				t.Errorf("readback scan: key %#x=%d, oracle allows %v", k, v, ks)
			}
		} else if !ks.hasPresent(false) {
			t.Errorf("readback scan: key %#x missing, oracle requires presence (%v)", k, ks)
		}
	}
}

// TestChaosCorruption runs a corrupting plan — bit flips and duplicated
// spans — against a client. With every frame after the handshake sealed by a
// CRC32C in both directions, the contract is stronger than structural
// survival: corruption must be *detected* — the server's checksum-error counter moves or the
// client reports ErrFrameCorrupt — the corrupt connection is quarantined,
// and no acknowledged op ever returns a wrong answer. Each key is written
// with exactly one value, so the clean readback can hold every present key
// to it: under a 2^-32 CRC collision this run would forge a value, and the
// fixed seed keeps that out of the test's luck budget.
func TestChaosCorruption(t *testing.T) {
	idx := core.New(smallOpts())
	m := &server.Metrics{}
	addr, _ := start(t, idx, server.Config{
		Metrics:     m,
		IdleTimeout: 30 * time.Second,
		ReadTimeout: 2 * time.Second,
	})
	inj := fault.New(42, fault.Plan{FlipProb: 0.15, DupProb: 0.05, SplitProb: 0.2})
	px, err := fault.NewProxy(addr, inj)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()

	// Dial's own handshake runs through the flip proxy too and may be the
	// corruption's first victim (a mangled HELLO fails the dial); retry
	// until a clean one lands.
	var c *client.Client
	for attempt := 0; ; attempt++ {
		c, err = client.Dial(px.Addr(),
			client.WithReconnect(8, time.Millisecond, 10*time.Millisecond),
			client.WithCircuitBreaker(0, 0),
			client.WithDialTimeout(time.Second))
		if err == nil {
			break
		}
		if attempt == 20 {
			t.Fatalf("handshake through the flip proxy never succeeded: %v", err)
		}
	}
	defer c.Close()
	ops := 120
	if testing.Short() {
		ops = 40
	}
	val := func(i int) uint64 { return uint64(i)*0x9E3779B97F4A7C15 + 1 }
	acked := make(map[uint64]uint64)
	var corrupt int
	for i := 0; i < ops; i++ {
		// The op timeout is deliberately tight: until a corrupt frame is
		// detected and the conn quarantined, every op on it burns its budget.
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		k := uint64(i)
		err := c.Insert(ctx, k, val(i))
		if err == nil {
			acked[k] = val(i)
		} else if errors.Is(err, client.ErrFrameCorrupt) {
			corrupt++
		}
		cancel()
	}
	t.Logf("bit-flip run: %d/%d inserts acknowledged; %d flips fired, %d server-side checksum errors, %d client-side corrupt frames",
		len(acked), ops, inj.Stats().Flips(), m.FrameChecksumErrors(), corrupt)
	if inj.Stats().Flips() == 0 {
		t.Fatal("no flip fired; the run tested nothing")
	}
	if m.FrameChecksumErrors() == 0 && corrupt == 0 {
		t.Fatal("corruption was injected but never detected on either side")
	}

	// Clean readback, bypassing the proxy: an acknowledged insert must be
	// present with its value (the sealed ack is trustworthy), and any other
	// key of ours that landed (a zombie of an unacknowledged insert) must
	// still carry the one value ever written for it — anything else means a
	// corrupt frame was executed as a real request.
	cv, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cv.Close()
	ctx := context.Background()
	for i := 0; i < ops; i++ {
		k := uint64(i)
		v, ok, err := cv.Get(ctx, k)
		if err != nil {
			t.Fatalf("clean readback Get(%d): %v", k, err)
		}
		if want, wasAcked := acked[k]; wasAcked {
			if !ok || v != want {
				t.Errorf("acked key %d reads back %d,%v, want %d,true", k, v, ok, want)
			}
		} else if ok && v != val(i) {
			t.Errorf("key %d present with forged value %d (only %d was ever written)", k, v, val(i))
		}
	}
}

// --- directed regression tests ----------------------------------------------

// TestSlowLorisReaped stalls a connection mid-frame (header sent, body
// trickling nothing) and requires the per-frame read deadline to reap it
// while a healthy connection keeps being served.
func TestSlowLorisReaped(t *testing.T) {
	idx := core.New(smallOpts())
	m := &server.Metrics{}
	addr, _ := start(t, idx, server.Config{
		ReadTimeout: 150 * time.Millisecond,
		Metrics:     m,
		Logf:        t.Logf,
	})

	// The attacker: a frame header promising a 100-byte body, 10 bytes of
	// it, then silence.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	if _, err := nc.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(make([]byte, 10)); err != nil {
		t.Fatal(err)
	}

	// The bystander: keeps pinging throughout; its service must not degrade
	// into errors while the stalled peer is reaped.
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for m.ConnTimeouts() == 0 && time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err := c.Ping(ctx)
		cancel()
		if err != nil {
			t.Fatalf("healthy connection failed while slow-loris conn pending: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := m.ConnTimeouts(); n != 1 {
		t.Fatalf("ConnTimeouts = %d, want 1 (stalled conn reaped)", n)
	}
	// The stalled socket observes the close.
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := nc.Read(hdr[:]); err == nil {
		t.Fatal("stalled connection still open after read deadline")
	}
}

// writableIndex is server.Index plus an in-memory index's synchronous
// mutators: the surface the test fakes below wrap, so that the server's node
// can still write through them.
type writableIndex interface {
	server.Index
	Insert(key, value uint64)
	Delete(key uint64) bool
	InsertBatch(keys, vals []uint64) error
	DeleteBatch(keys []uint64, found []bool) ([]bool, error)
}

// gateIndex blocks Get(magic) until the gate closes — the probe for
// admission control (holds an inflight slot) and drain behavior.
type gateIndex struct {
	writableIndex
	gate    chan struct{}
	magic   uint64
	entered atomic.Int64
}

func (g *gateIndex) Get(k uint64) (uint64, bool) {
	if k == g.magic {
		g.entered.Add(1)
		<-g.gate
	}
	return g.writableIndex.Get(k)
}

func (g *gateIndex) waitEntered(t *testing.T, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for g.entered.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("gate not entered %d times", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverloadShed fills the only inflight slot and requires the next
// request to be shed with a typed overload error carrying the retry-after
// hint — and, when the request carries a deadline budget shorter than the
// retry-after window, to be shed as a deadline exceed instead.
func TestOverloadShed(t *testing.T) {
	const magic = ^uint64(0)
	d := core.New(smallOpts())
	gi := &gateIndex{writableIndex: d, gate: make(chan struct{}), magic: magic}
	m := &server.Metrics{}
	addr, _ := startIndex(t, gi, d, server.Config{
		MaxInflight: 1,
		RetryAfter:  50 * time.Millisecond,
		Metrics:     m,
	})

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
	gi.waitEntered(t, 1)

	// No deadline budget: shed after the retry-after window, typed, with
	// the hint parsed back.
	_, _, err = c2.Get(context.Background(), 1)
	if !errors.Is(err, client.ErrOverload) {
		t.Fatalf("Get under overload = %v, want ErrOverload", err)
	}
	var oe *client.OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("overload error %v does not unwrap to *OverloadError", err)
	}
	if oe.RetryAfter != 50*time.Millisecond {
		t.Fatalf("RetryAfter hint = %v, want 50ms", oe.RetryAfter)
	}
	if m.Overloads() == 0 {
		t.Fatal("Overloads metric did not move")
	}

	// A budget shorter than the retry-after window: the server sheds it as
	// a deadline exceed (nobody is waiting), booked on its own counter. The
	// client-side error races between the server's answer and the local ctx
	// expiry; either is an error, and that is all fail-closed requires.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	_, _, err = c2.Get(ctx, 1)
	cancel()
	if err == nil {
		t.Fatal("Get with expired budget under overload succeeded")
	}
	deadline := time.Now().Add(2 * time.Second)
	for m.DeadlineSheds() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if m.DeadlineSheds() == 0 {
		t.Fatal("DeadlineSheds metric did not move")
	}

	close(gi.gate)
	if err := <-blocked; err != nil {
		t.Fatalf("gated Get failed after release: %v", err)
	}
}

// panicIndex panics on Get(magic) and Insert(magic, _) — the server must
// convert that into an ERR response plus one closed connection, nothing
// more.
type panicIndex struct {
	writableIndex
	magic uint64
}

func (p *panicIndex) Get(k uint64) (uint64, bool) {
	if k == p.magic {
		panic("panicIndex: boom")
	}
	return p.writableIndex.Get(k)
}

func (p *panicIndex) Insert(k, v uint64) {
	if k == p.magic {
		panic("panicIndex: boom")
	}
	p.writableIndex.Insert(k, v)
}

// closeSignalConn closes closed on the first Close of any connection that
// shares once.
type closeSignalConn struct {
	net.Conn
	closed chan struct{}
	once   *sync.Once
}

func (c *closeSignalConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(func() { close(c.closed) })
	return err
}

func TestPanicRecovery(t *testing.T) {
	const magic = ^uint64(0)
	d := core.New(smallOpts())
	m := &server.Metrics{}
	addr, _ := startIndex(t, &panicIndex{writableIndex: d, magic: magic}, d, server.Config{
		Metrics: m,
		Logf:    t.Logf,
	})

	bystander, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer bystander.Close()

	// The server closes the panicking connection right after its ERR
	// answer; the client marks that connection dead before it closes the
	// socket, so once the close is seen, the recovery traffic below is sure
	// to take a fresh connection instead of racing the EOF.
	closed := make(chan struct{})
	var closeOnce sync.Once
	dial := func(addr string, timeout time.Duration) (net.Conn, error) {
		nc, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return &closeSignalConn{Conn: nc, closed: closed, once: &closeOnce}, nil
	}
	c, err := client.Dial(addr, client.WithPoolSize(1), client.WithDialer(dial),
		client.WithReconnect(4, time.Millisecond, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	_, _, err = c.Get(ctx, magic)
	if err == nil {
		t.Fatal("Get of panicking key succeeded")
	}
	if !strings.Contains(err.Error(), "internal error") {
		t.Fatalf("Get of panicking key = %v, want the ERR response, not a bare connection error", err)
	}
	if m.Panics() != 1 {
		t.Fatalf("Panics = %d, want 1", m.Panics())
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("client never closed the connection the server dropped")
	}

	// The same client recovers over a fresh connection...
	if err := c.Insert(ctx, 7, 11); err != nil {
		t.Fatalf("Insert after panic: %v", err)
	}
	if v, ok, err := c.Get(ctx, 7); err != nil || !ok || v != 11 {
		t.Fatalf("Get after panic = %d,%v,%v want 11,true,nil", v, ok, err)
	}
	// ...and a connection that predates the panic was never disturbed.
	if err := bystander.Ping(ctx); err != nil {
		t.Fatalf("bystander connection broken by another conn's panic: %v", err)
	}
	if m.Panics() != 1 {
		t.Fatalf("Panics = %d after recovery traffic, want still 1", m.Panics())
	}
}

// TestPanicRecoveryMutation: an in-memory backend panicking inside a
// submitted Insert is contained like a panicking read — an ERR answer, one
// counted panic, only that connection closed — and the mutation's pending
// place is given back, so the drain does not wait for it.
func TestPanicRecoveryMutation(t *testing.T) {
	const magic = ^uint64(0)
	d := core.New(smallOpts())
	m := &server.Metrics{}
	addr, srv := startIndex(t, &panicIndex{writableIndex: d, magic: magic}, d, server.Config{
		Metrics: m,
		Logf:    t.Logf,
	})

	bystander, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer bystander.Close()
	closed := make(chan struct{})
	var closeOnce sync.Once
	dial := func(addr string, timeout time.Duration) (net.Conn, error) {
		nc, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return &closeSignalConn{Conn: nc, closed: closed, once: &closeOnce}, nil
	}
	c, err := client.Dial(addr, client.WithPoolSize(1), client.WithDialer(dial))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	if err := c.Insert(ctx, magic, 1); err == nil || !strings.Contains(err.Error(), "internal error") {
		t.Fatalf("Insert of panicking key = %v, want the ERR response", err)
	}
	if n := m.Panics(); n != 1 {
		t.Fatalf("Panics = %d, want 1", n)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("the server never closed the connection whose mutation panicked")
	}
	if err := bystander.Ping(ctx); err != nil {
		t.Fatalf("bystander connection broken by another conn's mutation panic: %v", err)
	}

	shut, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- srv.Shutdown(shut) }()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Shutdown = %v: the panicked mutation was left pending", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return: the panicked mutation was left pending")
	}
	if n := m.Panics(); n != 1 {
		t.Fatalf("Panics = %d after the drain, want still 1", n)
	}
}

// TestShutdownForceClose wedges a request inside the index and requires a
// bounded Shutdown to force-close the straggler, log it, and count it.
func TestShutdownForceClose(t *testing.T) {
	const magic = ^uint64(0)
	d := core.New(smallOpts())
	gi := &gateIndex{writableIndex: d, gate: make(chan struct{}), magic: magic}
	m := &server.Metrics{}

	var logMu sync.Mutex
	var logs []string
	cfg := server.Config{
		Index:   gi,
		Metrics: m,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	}
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	go c.Get(context.Background(), magic) // wedges in the gate, holding its conn
	gi.waitEntered(t, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown(ctx) }()

	// The drain deadline passes, the wedged conn is force-closed...
	deadline := time.Now().Add(5 * time.Second)
	for m.ForcedCloses() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if m.ForcedCloses() == 0 {
		t.Fatal("ForcedCloses metric did not move")
	}
	// ...but Shutdown still waits for the handler itself, which is wedged
	// in the index until the gate opens.
	close(gi.gate)
	if err := <-shutdownErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	if err := <-done; !errors.Is(err, server.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	logMu.Lock()
	joined := strings.Join(logs, "\n")
	logMu.Unlock()
	if !strings.Contains(joined, "force-closing connection") {
		t.Fatalf("force-close not logged; logs:\n%s", joined)
	}
	requireSound(t, d)
}

var _ server.Index = (*gateIndex)(nil)
var _ server.Index = (*panicIndex)(nil)
