//go:build dytisfault

package server_test

// The cluster-chaos suite: self-healing handover under injected peer-link
// faults and a target restart mid-copy. Where clusterproc_test.go proves
// fail-closed (a dead shard errors, never lies), this suite proves
// fail-and-recover: a handover interrupted mid-copy suspends, resumes from
// its bulk-copy watermark (or restarts from scratch against a wiped
// target), and completes at the next epoch with zero acked-write loss.
//
// Every fault source is seeded (fixed seeds below) so a failure replays
// identically. The client↔shard links and the peer handover link run
// through fault.Proxy instances whose plans delay and fragment traffic;
// the mid-copy interruptions themselves are deterministic (proxy kill,
// target stop) so each run exercises exactly one suspend/resume cycle and
// the watermark arithmetic stays assertable.

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"dytis/client"
	"dytis/internal/cluster"
	"dytis/internal/core"
	"dytis/internal/fault"
	"dytis/internal/server"
)

// clusterChaosSeeds are the committed replay seeds for the suite.
func clusterChaosSeeds(t *testing.T) []int64 {
	if testing.Short() {
		return []int64{1}
	}
	return []int64{1, 7, 42}
}

// chaosPage mirrors the handover engine's bulk-copy page size; the
// watermark assertions below count in pages.
const chaosPage = 4096

// chaosLinkPlan delays and fragments traffic without corrupting it: the
// framing survives, the timing does not — exactly the stress a congested
// link puts on a handover.
var chaosLinkPlan = fault.Plan{
	DelayProb: 0.25,
	DelayMin:  200 * time.Microsecond,
	DelayMax:  3 * time.Millisecond,
	SplitProb: 0.25,
}

// rerouteDialer is a cluster peer dialer with a swappable indirection: the
// handover target's advertised address can be mapped to a fault proxy, and
// remapped to a fresh one after the old link is severed.
type rerouteDialer struct {
	mu    sync.Mutex
	route map[string]string
}

func (d *rerouteDialer) set(addr, via string) {
	d.mu.Lock()
	if d.route == nil {
		d.route = make(map[string]string)
	}
	d.route[addr] = via
	d.mu.Unlock()
}

func (d *rerouteDialer) dial(addr string) (cluster.Peer, error) {
	d.mu.Lock()
	if via, ok := d.route[addr]; ok {
		addr = via
	}
	d.mu.Unlock()
	return testDialPeer(addr)
}

// newChaosProxy starts a fault.Proxy in front of upstream, closed with the
// test.
func newChaosProxy(t *testing.T, upstream string, inj *fault.Injector) *fault.Proxy {
	t.Helper()
	p, err := fault.NewProxy(upstream, inj)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// startShardAt is startShardDial pinned to a specific listen address — how
// the restart test brings a killed target back where its source expects it.
func startShardAt(t *testing.T, addr string, lo, hi uint64, dial func(string) (cluster.Peer, error)) *shardProc {
	t.Helper()
	idx := core.New(smallOpts())
	node, err := cluster.NewNode(cluster.NodeConfig{
		Index: idx, Lo: lo, Hi: hi, Dial: dial, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Index: idx, Cluster: node, MaxConns: 64})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	p := &shardProc{addr: ln.Addr().String(), srv: srv, node: node, idx: idx, done: make(chan error, 1)}
	go func() { p.done <- srv.Serve(ln) }()
	t.Cleanup(p.stop)
	return p
}

// installMapOn installs blob on each proc with the owned range its shard
// entry in m declares (matching by position: procs[i] serves m.Shards[i]).
func installMapOn(t *testing.T, m *cluster.Map, procs []*shardProc) {
	t.Helper()
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
}

// ackOracle is the acked-write ledger: a writer records a write only
// after the routed client acknowledged it, so any key disagreeing at the
// end is a lost acked write.
type ackOracle struct {
	mu sync.Mutex
	m  map[uint64]uint64
}

func (o *ackOracle) put(k, v uint64) {
	o.mu.Lock()
	o.m[k] = v
	o.mu.Unlock()
}

func (o *ackOracle) del(k uint64) {
	o.mu.Lock()
	delete(o.m, k)
	o.mu.Unlock()
}

// startUpdater keeps rewriting the given existing keys with fresh values
// until stop closes, recording each acked write. Updates never grow or
// shrink the keyset, keeping the bulk-copy pair counts exact.
func startUpdater(ctx context.Context, cl *client.Cluster, o *ackOracle, keys []uint64,
	stop chan struct{}, wg *sync.WaitGroup, errCh chan error) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := uint64(1); ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			k := keys[v%uint64(len(keys))]
			if err := cl.Insert(ctx, k, v); err != nil {
				select {
				case errCh <- fmt.Errorf("update %#x: %w", k, err):
				default:
				}
				return
			}
			o.put(k, v)
			time.Sleep(200 * time.Microsecond)
		}
	}()
}

// verifyAckOracle checks zero acked-write loss: the full chained scan must
// equal the oracle pair-for-pair (requireClusterOracle also
// cross-checks Len and every key by point Get).
func verifyAckOracle(t *testing.T, cl *client.Cluster, o *ackOracle) {
	t.Helper()
	o.mu.Lock()
	snapshot := make(map[uint64]uint64, len(o.m))
	for k, v := range o.m {
		snapshot[k] = v
	}
	o.mu.Unlock()
	requireClusterOracle(t, cl, snapshot)
}

// TestClusterChaosHandoverPeerLink severs the handover peer link mid-copy
// (under seeded delay/fragment chaos on every link) and requires the
// rebalance to suspend, resume from its watermark — never a full recopy —
// and complete at the next epoch with zero acked-write loss.
func TestClusterChaosHandoverPeerLink(t *testing.T) {
	for _, seed := range clusterChaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			half := ^uint64(0)/2 + 1

			rd := &rerouteDialer{}
			src := startShardDial(t, 0, half-1, rd.dial)
			rest := startShard(t, half, ^uint64(0))
			tgt := startShard(t, 1, 0) // owns nothing

			// Client↔shard links go through mild chaos proxies; the shard
			// map advertises the proxy addresses so the routed client dials
			// through them.
			linkInj := fault.New(seed, chaosLinkPlan)
			srcPx := newChaosProxy(t, src.addr, linkInj)
			restPx := newChaosProxy(t, rest.addr, linkInj)
			tgtPx := newChaosProxy(t, tgt.addr, linkInj)

			// The peer handover link gets its own chaos proxy; the source's
			// dialer maps the target's advertised address onto it.
			peerInj := fault.New(seed+1000, chaosLinkPlan)
			peerPx := newChaosProxy(t, tgt.addr, peerInj)
			rd.set(tgtPx.Addr(), peerPx.Addr())

			m, err := cluster.Uniform(1, []string{srcPx.Addr(), restPx.Addr()})
			if err != nil {
				t.Fatal(err)
			}
			installMapOn(t, m, []*shardProc{src, rest})

			cl, err := client.DialCluster([]string{srcPx.Addr()})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			// Preload: enough moving pairs that the bulk copy spans many
			// pages, plus a slice on the non-moving shard.
			const movingKeys = 8*chaosPage + 500
			oracle := &ackOracle{m: make(map[uint64]uint64, movingKeys+2000)}
			var keys, vals []uint64
			for i := uint64(0); i < movingKeys; i++ {
				keys, vals = append(keys, i), append(vals, i)
				oracle.m[i] = i
			}
			for i := uint64(0); i < 2000; i++ {
				keys, vals = append(keys, half+i), append(vals, i)
				oracle.m[half+i] = i
			}
			for off := 0; off < len(keys); off += 8192 {
				end := min(off+8192, len(keys))
				if err := cl.InsertBatch(ctx, keys[off:end], vals[off:end]); err != nil {
					t.Fatal(err)
				}
			}

			// Writers update existing keys (disjoint slices per writer)
			// through the whole drill: before, during, and after the fault.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			errCh := make(chan error, 4)
			var evens, odds, high []uint64
			for i := uint64(0); i < movingKeys; i++ {
				if i%2 == 0 {
					evens = append(evens, i)
				} else {
					odds = append(odds, i)
				}
			}
			for i := uint64(0); i < 2000; i++ {
				high = append(high, half+i)
			}
			startUpdater(ctx, cl, oracle, evens, stop, &wg, errCh)
			startUpdater(ctx, cl, oracle, odds, stop, &wg, errCh)
			startUpdater(ctx, cl, oracle, high, stop, &wg, errCh)

			rebalCh := make(chan error, 1)
			go func() { rebalCh <- cl.Rebalance(ctx, 0, half-1, tgtPx.Addr()) }()

			// Sever the peer link once at least two pages have landed —
			// the copy is mid-flight, and two pages of progress make a
			// later full recopy distinguishable from a watermark resume.
			adminSrc, err := client.Dial(src.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer adminSrc.Close()
			deadline := time.Now().Add(30 * time.Second)
			for {
				p, err := adminSrc.HandoverStatus(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if p.Copied >= 2*chaosPage {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("bulk copy never reached two pages (copied %d)", p.Copied)
				}
				time.Sleep(500 * time.Microsecond)
			}
			// Heal-by-replacement first, then kill: any resume attempt
			// after the cut immediately finds the fresh link.
			peerPx2 := newChaosProxy(t, tgt.addr, fault.New(seed+2000, chaosLinkPlan))
			rd.set(tgtPx.Addr(), peerPx2.Addr())
			peerPx.Close()

			select {
			case err := <-rebalCh:
				if err != nil {
					t.Fatalf("rebalance did not self-heal: %v", err)
				}
			case <-time.After(60 * time.Second):
				t.Fatal("rebalance never completed after peer-link fault")
			}
			close(stop)
			wg.Wait()
			select {
			case err := <-errCh:
				t.Fatalf("writer failed during the drill: %v", err)
			default:
			}

			st, err := adminSrc.HandoverStatus(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != cluster.HandoverDone {
				t.Fatalf("handover state %d after rebalance, want done", st.State)
			}
			if st.Resumes < 1 {
				t.Fatalf("handover completed with %d resumes, want the injected fault to force one", st.Resumes)
			}
			if st.Retries < 1 {
				t.Fatalf("handover completed with %d retries, want the injected fault to force some", st.Retries)
			}
			// Watermark honored: every pair is bulk-sent once, plus at most
			// one in-flight page per resume resent. A full recopy would
			// re-send at least the two pages that had landed pre-fault.
			maxCopied := uint64(movingKeys) + st.Resumes*chaosPage
			if st.Copied < movingKeys || st.Copied > maxCopied {
				t.Fatalf("bulk-copied %d pairs for %d keys with %d resumes (max %d): watermark not honored",
					st.Copied, movingKeys, st.Resumes, maxCopied)
			}
			if got := cl.Epoch(); got != 2 {
				t.Fatalf("cluster epoch %d after rebalance, want 2", got)
			}
			if peerInj.Stats().Total() == 0 {
				t.Fatal("peer-link injector fired no faults; the run was not hostile")
			}
			if linkInj.Stats().Total() == 0 {
				t.Fatal("client-link injector fired no faults; the run was not hostile")
			}

			verifyAckOracle(t, cl, oracle)
		})
	}
}

// TestClusterChaosHandoverTargetRestart stops the handover target mid-copy
// (the in-process kill -9) and restarts it empty on the same address: the
// source must suspend, journal the suspended-window writes, detect the
// fresh import session on resume, recopy from scratch, and complete at the
// next epoch with zero acked-write loss — including a delete and an insert
// issued while the handover sat suspended.
func TestClusterChaosHandoverTargetRestart(t *testing.T) {
	for _, seed := range clusterChaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			half := ^uint64(0)/2 + 1

			rd := &rerouteDialer{}
			src := startShardDial(t, 0, half-1, rd.dial)
			rest := startShard(t, half, ^uint64(0))
			tgt := startShard(t, 1, 0)
			tgtAddr := tgt.addr

			// The peer link still runs through a seeded chaos proxy; the
			// interruption here is the target dying under it.
			peerInj := fault.New(seed, chaosLinkPlan)
			peerPx := newChaosProxy(t, tgtAddr, peerInj)
			rd.set(tgtAddr, peerPx.Addr())

			m, err := cluster.Uniform(1, []string{src.addr, rest.addr})
			if err != nil {
				t.Fatal(err)
			}
			installMapOn(t, m, []*shardProc{src, rest})

			cl, err := client.DialCluster([]string{src.addr})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			const movingKeys = 8*chaosPage + 321
			oracle := &ackOracle{m: make(map[uint64]uint64, movingKeys+1500)}
			var keys, vals []uint64
			for i := uint64(0); i < movingKeys; i++ {
				keys, vals = append(keys, i), append(vals, i)
				oracle.m[i] = i
			}
			for i := uint64(0); i < 1500; i++ {
				keys, vals = append(keys, half+i), append(vals, i)
				oracle.m[half+i] = i
			}
			for off := 0; off < len(keys); off += 8192 {
				end := min(off+8192, len(keys))
				if err := cl.InsertBatch(ctx, keys[off:end], vals[off:end]); err != nil {
					t.Fatal(err)
				}
			}

			// Writers stay off the last few moving keys; those are reserved
			// for the suspended-window delete/insert below.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			errCh := make(chan error, 4)
			var evens, odds, high []uint64
			for i := uint64(0); i < movingKeys-10; i++ {
				if i%2 == 0 {
					evens = append(evens, i)
				} else {
					odds = append(odds, i)
				}
			}
			for i := uint64(0); i < 1500; i++ {
				high = append(high, half+i)
			}
			startUpdater(ctx, cl, oracle, evens, stop, &wg, errCh)
			startUpdater(ctx, cl, oracle, odds, stop, &wg, errCh)
			startUpdater(ctx, cl, oracle, high, stop, &wg, errCh)

			rebalCh := make(chan error, 1)
			go func() { rebalCh <- cl.Rebalance(ctx, 0, half-1, tgtAddr) }()

			adminSrc, err := client.Dial(src.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer adminSrc.Close()
			deadline := time.Now().Add(30 * time.Second)
			for {
				p, err := adminSrc.HandoverStatus(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if p.Copied >= chaosPage {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("bulk copy never reached one page (copied %d)", p.Copied)
				}
				time.Sleep(500 * time.Microsecond)
			}
			tgt.stop() // kill -9, in-process flavor

			// The source must suspend, not fail terminally.
			for {
				p, err := adminSrc.HandoverStatus(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if p.State == cluster.HandoverFailed {
					break
				}
				if p.State == cluster.HandoverNone || p.State == cluster.HandoverDone {
					t.Fatalf("handover state %d after target death, want suspended", p.State)
				}
				if time.Now().After(deadline) {
					t.Fatal("handover never suspended after target death")
				}
				time.Sleep(500 * time.Microsecond)
			}

			// Suspended-window writes: a delete and a brand-new insert in
			// the moving range. Both are acked now and must survive the
			// from-scratch recopy against the restarted, empty target.
			delKey, newKey := uint64(movingKeys-2), uint64(movingKeys+7)
			if _, err := cl.Delete(ctx, delKey); err != nil {
				t.Fatalf("delete during suspension: %v", err)
			}
			oracle.del(delKey)
			if err := cl.Insert(ctx, newKey, 4242); err != nil {
				t.Fatalf("insert during suspension: %v", err)
			}
			oracle.put(newKey, 4242)

			// Restart the target empty, on the same address.
			tgt2 := startShardAt(t, tgtAddr, 1, 0, testDialPeer)

			select {
			case err := <-rebalCh:
				if err != nil {
					t.Fatalf("rebalance did not survive the target restart: %v", err)
				}
			case <-time.After(60 * time.Second):
				t.Fatal("rebalance never completed after target restart")
			}
			close(stop)
			wg.Wait()
			select {
			case err := <-errCh:
				t.Fatalf("writer failed during the drill: %v", err)
			default:
			}

			st, err := adminSrc.HandoverStatus(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != cluster.HandoverDone {
				t.Fatalf("handover state %d after rebalance, want done", st.State)
			}
			if st.Resumes < 1 {
				t.Fatalf("handover completed with %d resumes, want the restart to force one", st.Resumes)
			}
			if got := cl.Epoch(); got != 2 {
				t.Fatalf("cluster epoch %d after rebalance, want 2", got)
			}
			if peerInj.Stats().Total() == 0 {
				t.Fatal("peer-link injector fired no faults; the run was not hostile")
			}

			// The restarted target now owns the range; the suspended-window
			// writes must be visible through it, exactly.
			tc, err := client.Dial(tgt2.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer tc.Close()
			if _, found, err := tc.Get(ctx, delKey); err != nil || found {
				t.Fatalf("deleted key %#x on restarted target: found=%v err=%v", delKey, found, err)
			}
			if v, found, err := tc.Get(ctx, newKey); err != nil || !found || v != 4242 {
				t.Fatalf("inserted key %#x on restarted target = (%d, %v, %v), want 4242", newKey, v, found, err)
			}

			verifyAckOracle(t, cl, oracle)
		})
	}
}
