package server_test

import (
	"context"
	"errors"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"dytis/client"
	"dytis/internal/cluster"
	"dytis/internal/core"
	"dytis/internal/server"
)

// The in-process cluster end-to-end suite: three (or four) real servers on
// loopback, each wrapping its own core index in a cluster.Node, driven
// through the routed client. The oracle is a plain map — the cluster's
// contract is that sharding is invisible: every routed answer must equal
// what one giant single-node index would have said.

// testPeer adapts client.Client to cluster.Peer for in-process handovers,
// the same shape cmd/dytis-server uses in production.
type testPeer struct{ c *client.Client }

func (p testPeer) ctx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 10*time.Second)
}

func (p testPeer) ImportBatch(keys, vals []uint64) (uint64, error) {
	ctx, cancel := p.ctx()
	defer cancel()
	return p.c.ImportBatch(ctx, keys, vals)
}

func (p testPeer) ImportEnd(commit bool) error {
	ctx, cancel := p.ctx()
	defer cancel()
	return p.c.ImportEnd(ctx, commit)
}

func (p testPeer) ImportResume(lo, hi uint64) (bool, uint64, error) {
	ctx, cancel := p.ctx()
	defer cancel()
	return p.c.ImportResume(ctx, lo, hi)
}

func (p testPeer) Mirror(del bool, key, val uint64) error {
	ctx, cancel := p.ctx()
	defer cancel()
	return p.c.Mirror(ctx, del, key, val)
}

func (p testPeer) Close() error { return p.c.Close() }

func testDialPeer(addr string) (cluster.Peer, error) {
	c, err := client.Dial(addr)
	if err != nil {
		return nil, err
	}
	return testPeer{c: c}, nil
}

// shardProc is one in-process shard server.
type shardProc struct {
	addr string
	srv  *server.Server
	node *cluster.Node
	idx  *core.DyTIS

	stopOnce sync.Once
	done     chan error
}

// stop force-closes the shard (canceled drain = every connection cut), the
// in-process stand-in for an abrupt shard death.
func (p *shardProc) stop() {
	p.stopOnce.Do(func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		p.srv.Shutdown(ctx)
		<-p.done
		p.node.Close()
	})
}

// startShard runs one shard server owning [lo, hi] (lo > hi = owns
// nothing) on a loopback listener.
func startShard(t *testing.T, lo, hi uint64) *shardProc {
	return startShardDial(t, lo, hi, testDialPeer)
}

// startShardDial is startShard with a custom peer dialer — the chaos suite
// routes the handover link through a fault proxy this way.
func startShardDial(t *testing.T, lo, hi uint64, dial func(string) (cluster.Peer, error)) *shardProc {
	t.Helper()
	idx := core.New(smallOpts())
	node, err := cluster.NewNode(cluster.NodeConfig{
		Index: idx, Lo: lo, Hi: hi, Dial: dial, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Index: idx, Cluster: node, MaxConns: 64})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &shardProc{addr: ln.Addr().String(), srv: srv, node: node, idx: idx, done: make(chan error, 1)}
	go func() { p.done <- srv.Serve(ln) }()
	t.Cleanup(p.stop)
	return p
}

// startCluster boots n uniform shards and installs the epoch-1 map on all.
func startCluster(t *testing.T, n int) []*shardProc {
	t.Helper()
	width := ^uint64(0)/uint64(n) + 1
	procs := make([]*shardProc, n)
	addrs := make([]string, n)
	for i := range procs {
		lo := uint64(i) * width
		hi := lo + width - 1
		if i == n-1 {
			hi = ^uint64(0)
		}
		procs[i] = startShard(t, lo, hi)
		addrs[i] = procs[i].addr
	}
	m, err := cluster.Uniform(1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	blob := m.Encode()
	ctx := context.Background()
	for i, p := range procs {
		c, err := client.Dial(p.addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SetShardMap(ctx, m.Shards[i].Lo, m.Shards[i].Hi, blob); err != nil {
			t.Fatalf("installing map on shard %d: %v", i, err)
		}
		c.Close()
	}
	return procs
}

// spread maps a small counter onto the whole key space (odd multiplier:
// bijective), so every shard sees traffic.
func spread(x uint64) uint64 { return x * 0x9E3779B97F4A7C15 }

// requireClusterOracle reads the whole cluster back through the routed
// client — full chained scan plus a point Get per key — and requires
// byte-for-byte agreement with the oracle.
func requireClusterOracle(t *testing.T, cl *client.Cluster, oracle map[uint64]uint64) {
	t.Helper()
	ctx := context.Background()

	wantKeys := make([]uint64, 0, len(oracle))
	for k := range oracle {
		wantKeys = append(wantKeys, k)
	}
	sort.Slice(wantKeys, func(i, j int) bool { return wantKeys[i] < wantKeys[j] })

	keys, vals, err := scanAll(ctx, cl, 0, 0)
	if err != nil {
		t.Fatalf("cluster scan: %v", err)
	}
	if len(keys) != len(wantKeys) {
		t.Fatalf("cluster scan returned %d pairs, oracle has %d", len(keys), len(wantKeys))
	}
	for i, k := range wantKeys {
		if keys[i] != k || vals[i] != oracle[k] {
			t.Fatalf("scan pair %d = (%#x, %d), oracle (%#x, %d)", i, keys[i], vals[i], k, oracle[k])
		}
	}

	if n, err := cl.Len(ctx); err != nil || n != len(oracle) {
		t.Fatalf("cluster Len = %d, %v; oracle has %d", n, err, len(oracle))
	}

	for k, want := range oracle {
		v, found, err := cl.Get(ctx, k)
		if err != nil || !found || v != want {
			t.Fatalf("Get(%#x) = (%d, %v, %v), oracle %d", k, v, found, err, want)
		}
	}
}

func TestClusterScatterGatherOracle(t *testing.T) {
	procs := startCluster(t, 3)

	cl, err := client.DialCluster([]string{procs[0].addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	oracle := make(map[uint64]uint64)

	// Point inserts spread over the whole space, with updates and deletes.
	for i := uint64(0); i < 2000; i++ {
		k := spread(i)
		if err := cl.Insert(ctx, k, i); err != nil {
			t.Fatalf("Insert(%#x): %v", k, err)
		}
		oracle[k] = i
	}
	for i := uint64(0); i < 2000; i += 5 { // updates
		k := spread(i)
		if err := cl.Insert(ctx, k, i*10); err != nil {
			t.Fatal(err)
		}
		oracle[k] = i * 10
	}
	for i := uint64(0); i < 2000; i += 7 { // deletes
		k := spread(i)
		found, err := cl.Delete(ctx, k)
		if err != nil || !found {
			t.Fatalf("Delete(%#x) = (%v, %v)", k, found, err)
		}
		delete(oracle, k)
	}
	if found, err := cl.Delete(ctx, 12345); err != nil || found {
		t.Fatalf("Delete(absent) = (%v, %v), want (false, nil)", found, err)
	}

	// Batches that straddle every shard boundary.
	var bk, bv []uint64
	for i := uint64(4000); i < 4600; i++ {
		bk = append(bk, spread(i))
		bv = append(bv, i)
	}
	if err := cl.InsertBatch(ctx, bk, bv); err != nil {
		t.Fatal(err)
	}
	for i, k := range bk {
		oracle[k] = bv[i]
	}

	// GetBatch across shards, hits and misses interleaved, input order out.
	probe := append([]uint64{}, bk[:100]...)
	probe = append(probe, 999, 777) // absent
	vals, found, err := cl.GetBatch(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range probe {
		want, ok := oracle[k]
		if found[i] != ok || (ok && vals[i] != want) {
			t.Fatalf("GetBatch[%d] key %#x = (%d, %v), oracle (%d, %v)", i, k, vals[i], found[i], want, ok)
		}
	}

	// DeleteBatch across shards.
	gone, err := cl.DeleteBatch(ctx, bk[:50])
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range bk[:50] {
		if !gone[i] {
			t.Fatalf("DeleteBatch[%d] key %#x not found", i, k)
		}
		delete(oracle, k)
	}

	requireClusterOracle(t, cl, oracle)

	// Bounded and offset scans must agree with the oracle too.
	wantKeys := make([]uint64, 0, len(oracle))
	for k := range oracle {
		wantKeys = append(wantKeys, k)
	}
	sort.Slice(wantKeys, func(i, j int) bool { return wantKeys[i] < wantKeys[j] })
	start := wantKeys[len(wantKeys)/3] + 1
	keys, vals2, err := scanAll(ctx, cl, start, 100)
	if err != nil {
		t.Fatal(err)
	}
	i := sort.Search(len(wantKeys), func(i int) bool { return wantKeys[i] >= start })
	want := wantKeys[i:]
	if len(want) > 100 {
		want = want[:100]
	}
	if len(keys) != len(want) {
		t.Fatalf("bounded scan returned %d pairs, want %d", len(keys), len(want))
	}
	for j, k := range want {
		if keys[j] != k || vals2[j] != oracle[k] {
			t.Fatalf("bounded scan pair %d = (%#x, %d), want (%#x, %d)", j, keys[j], vals2[j], k, oracle[k])
		}
	}
}

// TestClusterWrongShardRedirect drives a key at the wrong server directly:
// the typed redirect must surface with a decodable current map attached.
func TestClusterWrongShardRedirect(t *testing.T) {
	procs := startCluster(t, 3)
	ctx := context.Background()

	c, err := client.Dial(procs[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	wrong := ^uint64(0) // owned by the last shard, not shard 0
	err = c.Insert(ctx, wrong, 1)
	if !errors.Is(err, client.ErrWrongShard) {
		t.Fatalf("Insert at wrong shard = %v, want ErrWrongShard", err)
	}
	var ws *client.WrongShardError
	if !errors.As(err, &ws) {
		t.Fatalf("error %v is not a *WrongShardError", err)
	}
	m, err := cluster.DecodeMap(ws.MapBlob)
	if err != nil {
		t.Fatalf("redirect carried undecodable map: %v", err)
	}
	if got := m.Owner(wrong).Addr; got != procs[2].addr {
		t.Fatalf("redirect map routes %#x to %s, want %s", wrong, got, procs[2].addr)
	}

	// The key never landed anywhere.
	if _, found, err := c.Get(ctx, 5); err != nil || found {
		t.Fatalf("Get(owned absent key) = (found=%v, err=%v)", found, err)
	}
}

// TestClusterHandoverUnderTraffic is the live-handover drill: writers
// hammer the routed client while a range moves to a fresh server, and at
// the end every acknowledged write must be present with its final value —
// zero acked-write loss through copy, mirror, and cutover.
func TestClusterHandoverUnderTraffic(t *testing.T) {
	procs := startCluster(t, 3)
	fresh := startShard(t, 1, 0) // owns nothing, awaiting the handover
	ctx := context.Background()

	cl, err := client.DialCluster([]string{procs[0].addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// A stale handle dialed before the move: it must keep answering
	// correctly afterwards purely by following redirects.
	stale, err := client.DialCluster([]string{procs[1].addr})
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()

	// Preload so the bulk copy has real work.
	oracle := make(map[uint64]uint64)
	var mu sync.Mutex
	for i := uint64(0); i < 3000; i++ {
		k := spread(i)
		if err := cl.Insert(ctx, k, i); err != nil {
			t.Fatal(err)
		}
		oracle[k] = i
	}

	// Writers keep the cluster (and the moving range) under write load
	// through the whole handover. Keys are writer-unique so the oracle is
	// exact; values change on every round so a lost mirror would surface
	// as a stale read, not just a missing key.
	const writers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	writerErr := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := spread(1_000_000 + uint64(w)*100_000 + i%4000)
				v := uint64(w)<<32 | i
				if err := cl.Insert(ctx, k, v); err != nil {
					writerErr <- err
					return
				}
				// Acked: the oracle must reflect it from now on.
				mu.Lock()
				oracle[k] = v
				mu.Unlock()
			}
		}(w)
	}

	// Move the middle shard's whole range to the fresh server, live.
	mid := cl.Map().Shards[1]
	if err := cl.Rebalance(ctx, mid.Lo, mid.Hi, fresh.addr); err != nil {
		close(stop)
		wg.Wait()
		t.Fatalf("rebalance: %v", err)
	}
	// Let traffic run on the new layout before stopping.
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-writerErr:
		t.Fatalf("writer failed during handover: %v", err)
	default:
	}

	// The fresh server now owns the moved range; the old owner owns none.
	fc, err := client.Dial(fresh.addr)
	if err != nil {
		t.Fatal(err)
	}
	info, err := fc.ShardInfo(ctx)
	fc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if info.Lo != mid.Lo || info.Hi != mid.Hi || info.Epoch != 2 {
		t.Fatalf("fresh shard owns [%#x, %#x] at epoch %d, want [%#x, %#x] at 2",
			info.Lo, info.Hi, info.Epoch, mid.Lo, mid.Hi)
	}

	requireClusterOracle(t, cl, oracle)

	// The stale handle self-heals off redirects: same oracle, no refresh.
	for i := uint64(0); i < 3000; i += 97 {
		k := spread(i)
		v, found, err := stale.Get(ctx, k)
		mu.Lock()
		want, ok := oracle[k]
		mu.Unlock()
		if err != nil || found != ok || (ok && v != want) {
			t.Fatalf("stale handle Get(%#x) = (%d, %v, %v), oracle (%d, %v)", k, v, found, err, want, ok)
		}
	}
	// Deterministically touch the moved range so the stale handle has
	// certainly been redirected at least once, then it must be at epoch 2.
	var moved uint64
	for i := uint64(0); ; i++ {
		if k := spread(i); k >= mid.Lo && k <= mid.Hi {
			moved = k
			break
		}
	}
	if _, _, err := stale.Get(ctx, moved); err != nil {
		t.Fatalf("stale handle Get in moved range: %v", err)
	}
	if stale.Epoch() != 2 {
		t.Fatalf("stale handle still at epoch %d after redirects", stale.Epoch())
	}
}

// TestClusterShardDownFailClosed kills one shard abruptly mid-traffic: every
// operation touching the dead range must fail with an error — never hang,
// and never answer from a partial view (a cluster scan must error, not
// return the surviving shards' pairs as if complete).
func TestClusterShardDownFailClosed(t *testing.T) {
	procs := startCluster(t, 3)
	ctx := context.Background()

	cl, err := client.DialCluster([]string{procs[0].addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	oracle := make(map[uint64]uint64)
	for i := uint64(0); i < 1500; i++ {
		k := spread(i)
		if err := cl.Insert(ctx, k, i); err != nil {
			t.Fatal(err)
		}
		oracle[k] = i
	}

	dead := procs[1]
	deadLo, deadHi, _, _ := dead.node.Info()
	dead.stop()

	opCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()

	// Point ops on the dead range: errors, not hangs, not wrong answers.
	deadKey := deadLo + (deadHi-deadLo)/2
	if _, _, err := cl.Get(opCtx, deadKey); err == nil {
		t.Fatal("Get on dead shard succeeded")
	}
	if err := cl.Insert(opCtx, deadKey, 1); err == nil {
		t.Fatal("Insert on dead shard succeeded")
	}

	// A full scan must fail closed: error, never a silently truncated result.
	if _, _, err := scanAll(opCtx, cl, 0, 0); err == nil {
		t.Fatal("cluster scan with a dead shard returned success")
	}

	// Surviving shards answer exactly as before.
	for k, want := range oracle {
		if k >= deadLo && k <= deadHi {
			continue
		}
		v, found, err := cl.Get(ctx, k)
		if err != nil || !found || v != want {
			t.Fatalf("Get(%#x) on live shard = (%d, %v, %v), oracle %d", k, v, found, err, want)
		}
	}

	// Batches touching the dead range fail whole; live-only batches work.
	if _, _, err := cl.GetBatch(opCtx, []uint64{1, deadKey}); err == nil {
		t.Fatal("GetBatch spanning dead shard succeeded")
	}
	liveKeys := []uint64{1, 2, 3}
	if err := cl.InsertBatch(ctx, liveKeys, []uint64{10, 20, 30}); err != nil {
		t.Fatalf("live-only batch failed: %v", err)
	}
}
