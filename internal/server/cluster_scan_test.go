package server_test

// The routed scan as a chain: shards tile the key space in map order, so
// Client.ScanStream walks them in order with one epoch-pinned stream open
// at a time, each bounded by the budget still owed. These tests pin what
// that buys (exact per-shard stream and chunk counts), what it must keep
// (a dead shard still fails the scan, typed, when the chain reaches it
// late), and its answers against a sorted oracle.

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"sort"
	"testing"
	"time"

	"dytis/client"
	"dytis/internal/cluster"
	"dytis/internal/core"
	"dytis/internal/server"
)

// startMeteredCluster is startCluster with a server.Metrics on every shard,
// so a test can count the streams and chunks a scan costs each one.
func startMeteredCluster(t *testing.T, n int) ([]*shardProc, []*server.Metrics) {
	t.Helper()
	procs := make([]*shardProc, n)
	metrics := make([]*server.Metrics, n)
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	m, err := cluster.Uniform(1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	blob := m.Encode()
	for i, s := range m.Shards {
		idx := core.New(smallOpts())
		node, err := cluster.NewNode(cluster.NodeConfig{Index: idx, Lo: s.Lo, Hi: s.Hi, Dial: testDialPeer, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		metrics[i] = &server.Metrics{}
		srv := server.New(server.Config{Index: idx, Cluster: node, MaxConns: 64, Metrics: metrics[i]})
		p := &shardProc{addr: addrs[i], srv: srv, node: node, idx: idx, done: make(chan error, 1)}
		go func() { p.done <- srv.Serve(lns[i]) }()
		t.Cleanup(p.stop)
		procs[i] = p

		c, err := client.Dial(p.addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SetShardMap(context.Background(), s.Lo, s.Hi, blob); err != nil {
			t.Fatalf("installing map on shard %d: %v", i, err)
		}
		c.Close()
	}
	return procs, metrics
}

// keyRange returns the keys lo, lo+1, ..., lo+n-1.
func keyRange(lo uint64, n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = lo + uint64(i)
	}
	return keys
}

// insertKeys stores key -> ^key for every key through the routed client.
func insertKeys(t *testing.T, cl *client.Cluster, keys []uint64) {
	t.Helper()
	vals := make([]uint64, len(keys))
	for i, k := range keys {
		vals[i] = ^k
	}
	if err := cl.InsertBatch(context.Background(), keys, vals); err != nil {
		t.Fatal(err)
	}
}

// pullAll drains s, failing the test on a stream error or a value that is
// not ^key.
func pullAll(t *testing.T, s *client.Scanner) []uint64 {
	t.Helper()
	var keys []uint64
	for s.Next() {
		if s.Value() != ^s.Key() {
			t.Fatalf("key %#x came back with value %#x", s.Key(), s.Value())
		}
		keys = append(keys, s.Key())
	}
	if err := s.Err(); err != nil {
		t.Fatalf("scan failed after %d pairs: %v", len(keys), err)
	}
	s.Close()
	return keys
}

func wantKeys(t *testing.T, what string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d key %#x, want %#x", what, i, got[i], want[i])
		}
	}
}

// TestClusterScanStreamCounts pins the chain's cost per shard exactly: a
// shard is opened only when the budget outlives the shards before it, and
// each shard is opened at most once per scan.
func TestClusterScanStreamCounts(t *testing.T) {
	procs, ms := startMeteredCluster(t, 2)
	cl, err := client.DialCluster([]string{procs[0].addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	half := uint64(1) << 63 // shard 1's Lo
	interior := keyRange(1000, 500)
	top0 := keyRange(half-200, 200)
	bottom1 := keyRange(half, 200)
	var all []uint64
	for _, ks := range [][]uint64{interior, top0, bottom1} {
		all = append(all, ks...)
	}
	insertKeys(t, cl, all)

	// delta runs scan and returns the streams and chunks it added per shard.
	delta := func(scan func()) (streams, chunks [2]int64) {
		var s0, c0 [2]int64
		for i, m := range ms {
			s0[i], c0[i] = m.ScanStreams(), m.ScanChunks()
		}
		scan()
		for i, m := range ms {
			streams[i], chunks[i] = m.ScanStreams()-s0[i], m.ScanChunks()-c0[i]
		}
		return streams, chunks
	}

	// A 100-pair scan inside shard 0: one stream and one chunk there,
	// nothing on shard 1 — what the same scan costs on a single server.
	streams, chunks := delta(func() {
		wantKeys(t, "interior scan", pullAll(t, cl.ScanStream(ctx, 1000, 100)), interior[:100])
	})
	if streams != [2]int64{1, 0} || chunks[0] != 1 {
		t.Fatalf("interior 100-pair scan: streams %v chunks %v, want streams [1 0] and 1 chunk on shard 0", streams, chunks)
	}

	// Starting 40 keys below shard 0's top: 40 pairs there, the other 60
	// from shard 1, one stream on each.
	streams, _ = delta(func() {
		want := append(append([]uint64{}, top0[160:]...), bottom1[:60]...)
		wantKeys(t, "straddling scan", pullAll(t, cl.ScanStream(ctx, half-40, 100)), want)
	})
	if streams != [2]int64{1, 1} {
		t.Fatalf("straddling scan: streams %v, want [1 1]", streams)
	}

	// A budget that exactly exhausts shard 0 opens nothing on shard 1.
	streams, _ = delta(func() {
		wantKeys(t, "exhausting scan", pullAll(t, cl.ScanStream(ctx, half-50, 50)), top0[150:])
	})
	if streams != [2]int64{1, 0} {
		t.Fatalf("scan exhausting shard 0: streams %v, want [1 0]", streams)
	}

	// Unbounded from key 0: each shard exactly once, in map order — shard 1
	// is not opened while shard 0 still has pairs to give.
	streams, _ = delta(func() {
		shard1 := ms[1].ScanStreams()
		s := cl.ScanStream(ctx, 0, 0)
		defer s.Close()
		var got []uint64
		for s.Next() {
			got = append(got, s.Key())
			if len(got) <= len(interior)+len(top0) && ms[1].ScanStreams() != shard1 {
				t.Fatalf("shard 1 opened with %d of shard 0's pairs delivered", len(got))
			}
		}
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		wantKeys(t, "unbounded scan", got, all)
	})
	if streams != [2]int64{1, 1} {
		t.Fatalf("unbounded scan: streams %v, want [1 1]", streams)
	}
}

// TestClusterScanNextShardDead kills a shard the chain has not reached yet
// and the router has never talked to: the chain opens it lazily, the open
// fails (a dial to a dead address), and that failure must still come back
// as a typed interruption naming the shard — after exactly the pairs of
// the shards before it, never as a raw error or a short "success".
func TestClusterScanNextShardDead(t *testing.T) {
	procs := startCluster(t, 3)
	loader, err := client.DialCluster([]string{procs[0].addr})
	if err != nil {
		t.Fatal(err)
	}
	m := loader.Map()
	var perShard [3][]uint64
	for i, s := range m.Shards {
		perShard[i] = keyRange(s.Lo+1, 300)
		insertKeys(t, loader, perShard[i])
	}
	loader.Close()

	// A fresh router: it has talked to shard 0 only (its seed).
	cl, err := client.DialCluster([]string{procs[0].addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	s := cl.ScanStream(context.Background(), 0, 0)
	defer s.Close()
	if !s.Next() {
		t.Fatalf("scan died before the kill: %v", s.Err())
	}
	got := []uint64{s.Key()}
	procs[2].stop()

	start := time.Now()
	for s.Next() {
		got = append(got, s.Key())
	}
	elapsed := time.Since(start)
	err = s.Err()
	if !errors.Is(err, client.ErrScanInterrupted) {
		t.Fatalf("scan Err = %v after %d pairs, want ErrScanInterrupted", err, len(got))
	}
	var se *client.ScanInterruptedError
	if !errors.As(err, &se) || se.Source != 2 {
		t.Fatalf("scan Err = %v, want *ScanInterruptedError with Source 2", err)
	}
	wantKeys(t, "pairs before the dead shard", got, append(append([]uint64{}, perShard[0]...), perShard[1]...))
	if elapsed > 10*time.Second {
		t.Fatalf("scan took %v to surface the dead shard", elapsed)
	}
}

// TestClusterChainedScanOracle checks the chain against a sorted oracle
// over a 3-shard cluster from the starts and budgets where a chain can go
// wrong: key 0, either side of every shard boundary, the top of the key
// space and random starts; budgets of 1 and 100, ones that straddle into
// the next shard or exactly exhaust the start's shard, and unbounded.
func TestClusterChainedScanOracle(t *testing.T) {
	const seed = 25
	rng := rand.New(rand.NewSource(seed))
	procs := startCluster(t, 3)
	cl, err := client.DialCluster([]string{procs[0].addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	m := cl.Map()

	// Dense runs across every boundary, both ends of the key space, random
	// keys everywhere; then delete a random tenth.
	oracle := make(map[uint64]bool)
	add := func(k uint64) { oracle[k] = true }
	add(0)
	add(^uint64(0))
	for _, s := range m.Shards[1:] {
		for d := uint64(1); d <= 30; d++ {
			add(s.Lo - d)
			add(s.Lo + d - 1)
		}
	}
	for i := 0; i < 1500; i++ {
		add(rng.Uint64())
	}
	var keys []uint64
	for k := range oracle {
		keys = append(keys, k)
	}
	insertKeys(t, cl, keys)
	var gone []uint64
	for _, k := range keys {
		if rng.Intn(10) == 0 {
			gone = append(gone, k)
			delete(oracle, k)
		}
	}
	if _, err := cl.DeleteBatch(ctx, gone); err != nil {
		t.Fatal(err)
	}
	sorted := make([]uint64, 0, len(oracle))
	for k := range oracle {
		sorted = append(sorted, k)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	// from returns the oracle's keys >= start, and how many of them the
	// start's shard holds.
	from := func(start uint64) ([]uint64, int) {
		rest := sorted[sort.Search(len(sorted), func(i int) bool { return sorted[i] >= start }):]
		hi := m.Owner(start).Hi
		return rest, sort.Search(len(rest), func(i int) bool { return rest[i] > hi })
	}

	starts := []uint64{0, 1, ^uint64(0)}
	for _, s := range m.Shards[1:] {
		starts = append(starts, s.Lo-1, s.Lo, s.Lo+1)
	}
	for i := 0; i < 20; i++ {
		starts = append(starts, rng.Uint64())
	}
	for _, start := range starts {
		rest, inShard := from(start)
		budgets := []int{1, 100, inShard + 1 + rng.Intn(50), 0}
		if inShard > 0 { // 0 would mean unbounded, already in the list
			budgets = append(budgets, inShard)
		}
		for _, max := range budgets {
			want := rest
			if max > 0 && max < len(want) {
				want = want[:max]
			}
			s := cl.ScanStream(ctx, start, max)
			got := pullAll(t, s)
			if uint64(len(got)) != s.Total() {
				t.Fatalf("seed %d start %#x max %d: Total() = %d, delivered %d", seed, start, max, s.Total(), len(got))
			}
			wantKeys(t, "ScanStream", got, want)
			gk, gv, err := scanAll(ctx, cl, start, max)
			if err != nil {
				t.Fatalf("seed %d start %#x max %d: Scan: %v", seed, start, max, err)
			}
			wantKeys(t, "Scan", gk, want)
			for i, k := range gk {
				if gv[i] != ^k {
					t.Fatalf("seed %d start %#x max %d: Scan value for %#x = %#x", seed, start, max, k, gv[i])
				}
			}
		}
	}
}

// TestClusterScanAdoptsCutoverMap: a scan pinned to an epoch that a
// cutover has since passed fails typed, and its client adopts the map the
// shard's end frame carried, so the re-issued scan routes by the new
// layout and returns every key.
func TestClusterScanAdoptsCutoverMap(t *testing.T) {
	procs := startCluster(t, 2)
	fresh := startShard(t, 1, 0) // owns nothing, awaiting the handover
	ctx := context.Background()
	cl, err := client.DialCluster([]string{procs[0].addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	stale, err := client.DialCluster([]string{procs[0].addr}) // routes by epoch 1 until told otherwise
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()

	keys := make([]uint64, 2000)
	for i := range keys {
		keys[i] = spread(uint64(i))
	}
	insertKeys(t, cl, keys)
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	mid := cl.Map().Shards[1]
	if err := cl.Rebalance(ctx, mid.Lo, mid.Hi, fresh.addr); err != nil {
		t.Fatalf("rebalance: %v", err)
	}

	_, _, err = drainScan(stale.ScanStream(ctx, 0, 0))
	if !errors.Is(err, client.ErrScanInterrupted) || !errors.Is(err, client.ErrWrongShard) {
		t.Fatalf("scan at the passed epoch: Err = %v, want ErrScanInterrupted wrapping ErrWrongShard", err)
	}
	if got := stale.Epoch(); got != 2 {
		t.Fatalf("client at epoch %d after the scan's redirect, want 2", got)
	}
	wantKeys(t, "re-issued scan", pullAll(t, stale.ScanStream(ctx, 0, 0)), keys)
}
