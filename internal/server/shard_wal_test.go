package server_test

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dytis/client"
	"dytis/internal/check"
	"dytis/internal/cluster"
	"dytis/internal/proto"
	"dytis/internal/server"
	"dytis/internal/wal"
)

// walShard is a shard server over a durable store: the node submits every
// write to the store's commit queue, the path of every write on a -shard
// -wal-dir server.
type walShard struct {
	addr string
	srv  *server.Server
	node *cluster.Node
	m    *server.Metrics
	stop func() // drains the server and closes the node; idempotent
}

// startWALShard serves st through a node owning the whole key space and
// installs the one-shard map at epoch 1.
func startWALShard(t *testing.T, st *wal.Store) *walShard {
	t.Helper()
	node, err := cluster.NewNode(cluster.NodeConfig{Index: st.Serving(), Lo: 0, Hi: ^uint64(0), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	m := &server.Metrics{}
	srv := server.New(server.Config{Index: st.Serving(), Cluster: node, Metrics: m, MaxConns: 16})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	var once sync.Once
	p := &walShard{addr: ln.Addr().String(), srv: srv, node: node, m: m}
	p.stop = func() {
		once.Do(func() {
			if t.Failed() {
				// A wedged node (the failure the poisoned-store test
				// catches) would block the drain for good; the process
				// exit reaps the server instead.
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
			if err := <-done; !errors.Is(err, server.ErrServerClosed) {
				t.Errorf("Serve returned %v, want ErrServerClosed", err)
			}
			node.Close()
		})
	}
	t.Cleanup(p.stop)
	installMap(t, p.addr, 1)
	return p
}

// installMap installs a one-shard map at epoch on the server at addr, on a
// fresh connection, failing the test unless it completes within 5 s.
func installMap(t *testing.T, addr string, epoch uint64) {
	t.Helper()
	m, err := cluster.Uniform(epoch, []string{addr})
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(addr, client.WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.SetShardMap(ctx, 0, ^uint64(0), m.Encode()); err != nil {
		t.Fatalf("installing the epoch-%d map: %v", epoch, err)
	}
}

// TestShardWALServerOracle drives single, batch and delete traffic from
// concurrent clients at a shard server over a durable store, checks a full
// scan against the merged sorted-map oracle, then closes everything and
// reopens the directory: the recovered index must equal the oracle.
func TestShardWALServerOracle(t *testing.T) {
	dir := t.TempDir()
	st, err := wal.Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	p := startWALShard(t, st)

	const (
		numClients   = 4
		opsPerClient = 1000
		keySpace     = 1 << 12
	)
	ctx := context.Background()
	oracles := make([]map[uint64]uint64, numClients)
	var wg sync.WaitGroup
	for id := 0; id < numClients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := client.Dial(p.addr, client.WithPipeline(16))
			if err != nil {
				t.Errorf("client %d: dial: %v", id, err)
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(9100 + id)))
			oracle := make(map[uint64]uint64)
			// Keys spread over the whole key space, disjoint per client.
			own := func() uint64 {
				return spread(uint64(rng.Intn(keySpace/numClients))*numClients + uint64(id))
			}
			batch := func() []uint64 {
				keys := make([]uint64, 1+rng.Intn(16))
				for j := range keys {
					keys[j] = own()
				}
				return keys
			}
			for i := 0; i < opsPerClient; i++ {
				switch r := rng.Intn(100); {
				case r < 35:
					k, v := own(), rng.Uint64()
					if err := c.Insert(ctx, k, v); err != nil {
						t.Errorf("client %d: insert: %v", id, err)
						return
					}
					oracle[k] = v
				case r < 50:
					k := own()
					_, had := oracle[k]
					found, err := c.Delete(ctx, k)
					if err != nil || found != had {
						t.Errorf("client %d: delete %d = %v,%v; oracle had it: %v", id, k, found, err, had)
						return
					}
					delete(oracle, k)
				case r < 65:
					keys := batch()
					vals := make([]uint64, len(keys))
					for j := range vals {
						vals[j] = rng.Uint64()
					}
					if err := c.InsertBatch(ctx, keys, vals); err != nil {
						t.Errorf("client %d: insert batch: %v", id, err)
						return
					}
					for j, k := range keys {
						oracle[k] = vals[j]
					}
				case r < 75:
					keys := batch()
					founds, err := c.DeleteBatch(ctx, keys)
					if err != nil || len(founds) != len(keys) {
						t.Errorf("client %d: delete batch: %v, %d founds for %d keys", id, err, len(founds), len(keys))
						return
					}
					for j, k := range keys {
						_, had := oracle[k]
						if founds[j] != had {
							t.Errorf("client %d: delete batch key %d found=%v, oracle had it: %v", id, k, founds[j], had)
							return
						}
						delete(oracle, k)
					}
				case r < 90:
					k := own()
					v, ok, err := c.Get(ctx, k)
					want, has := oracle[k]
					if err != nil || ok != has || (ok && v != want) {
						t.Errorf("client %d: get %d = %d,%v,%v; oracle %d,%v", id, k, v, ok, err, want, has)
						return
					}
				default:
					keys := batch()
					vals, founds, err := c.GetBatch(ctx, keys)
					if err != nil {
						t.Errorf("client %d: get batch: %v", id, err)
						return
					}
					for j, k := range keys {
						want, has := oracle[k]
						if founds[j] != has || (has && vals[j] != want) {
							t.Errorf("client %d: get batch key %d = %d,%v; oracle %d,%v", id, k, vals[j], founds[j], want, has)
							return
						}
					}
				}
			}
			oracles[id] = oracle
		}(id)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	expect := make(map[uint64]uint64)
	for _, o := range oracles {
		for k, v := range o {
			expect[k] = v
		}
	}
	want := make([]uint64, 0, len(expect))
	for k := range expect {
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

	c, err := client.Dial(p.addr)
	if err != nil {
		t.Fatal(err)
	}
	keys, vals, err := drainScan(c.ScanStream(ctx, 0, 0))
	c.Close()
	if err != nil {
		t.Fatal(err)
	}
	wantKeys(t, "served scan", keys, want)
	for i, k := range keys {
		if vals[i] != expect[k] {
			t.Fatalf("served scan key %d = %d, oracle %d", k, vals[i], expect[k])
		}
	}
	if p.m.Panics() != 0 || p.m.WrongShards() != 0 {
		t.Fatalf("panics = %d, wrong-shard answers = %d", p.m.Panics(), p.m.WrongShards())
	}

	p.stop()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := wal.Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if vs := check.Check(st2.Index()); len(vs) != 0 {
		t.Fatalf("recovered index unsound: %v", vs)
	}
	pairs := st2.Scan(0, len(expect)+1, nil)
	got := make([]uint64, len(pairs))
	for i, kv := range pairs {
		got[i] = kv.Key
		if kv.Value != expect[kv.Key] {
			t.Fatalf("recovered key %d = %d, oracle %d", kv.Key, kv.Value, expect[kv.Key])
		}
	}
	wantKeys(t, "recovered index", got, want)
}

// TestShardWALServerReadOvertakesWriteAck: on a shard server over a
// durable store, an INSERT whose fsync is held open does not hold the
// connection's read loop: a GET sent after it on the same connection is
// answered while the fsync is held, and the INSERT acks once it returns.
func TestShardWALServerReadOvertakesWriteAck(t *testing.T) {
	stall := newFsyncStall()
	opts := durableOpts()
	opts.Fsync = wal.FsyncAlways
	opts.CheckpointBytes = -1
	opts.Hooks.Sync = stall.hook
	st, err := wal.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p := startWALShard(t, st)
	defer stall.release() // lifted before the deferred Close on a failed test
	if err := st.Insert(7, 70); err != nil {
		t.Fatal(err)
	}
	nc := rawDial(t, p.addr)
	defer nc.Close()

	stall.stall()
	rawSend(t, nc, proto.Request{ID: 1, Op: proto.OpInsert, Key: 5, Val: 50})
	stall.awaitParked(t)
	rawSend(t, nc, proto.Request{ID: 2, Op: proto.OpGet, Key: 7})
	if r := rawRecv(t, nc); r.ID != 2 || r.Op != proto.OpGet || !r.Found || r.Val != 70 {
		t.Fatalf("first response = %+v, want the GET's (id 2): a read waited behind a write's fsync", r)
	}
	stall.release()
	if r := rawRecv(t, nc); r.ID != 1 || r.Op != proto.OpInsert || r.Status != proto.StatusOK {
		t.Fatalf("response after the fsync returned = %+v, want the INSERT's ack (id 1)", r)
	}
	rawSend(t, nc, proto.Request{ID: 3, Op: proto.OpGet, Key: 5})
	if r := rawRecv(t, nc); r.ID != 3 || !r.Found || r.Val != 50 {
		t.Fatalf("GET sent after the INSERT's ack = %+v, want 50", r)
	}
}

// TestShardWALServerPoisonedStore: on a shard server the node submits to
// the durable store, whose commit fails once the store is poisoned. The
// Insert answers an error, nothing panics and the connection stays open, as
// on a standalone durable server; and the node comes out of it unlocked:
// installing a map on a fresh connection completes.
func TestShardWALServerPoisonedStore(t *testing.T) {
	opts := durableOpts()
	opts.Fsync = wal.FsyncAlways
	var failing atomic.Bool
	opts.Hooks.Sync = func() error {
		if failing.Load() {
			return errors.New("injected fsync failure")
		}
		return nil
	}
	st, err := wal.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p := startWALShard(t, st)
	ctx := context.Background()
	conns := p.m.ConnsTotal() // the epoch-1 map install's

	c, err := client.Dial(p.addr, client.WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Insert(ctx, 1, 10); err != nil {
		t.Fatal(err)
	}
	failing.Store(true)
	if err := c.Insert(ctx, 2, 20); err == nil {
		t.Fatal("insert on a poisoned store acked over the wire")
	}
	// A closed connection would show as a redial on this read.
	if v, ok, err := c.Get(ctx, 1); err != nil || !ok || v != 10 {
		t.Fatalf("Get(1) after the failed insert = %d,%v,%v", v, ok, err)
	}
	if p.m.Panics() != 0 || p.m.ConnsTotal()-conns != 1 {
		t.Fatalf("panics = %d, connections = %d", p.m.Panics(), p.m.ConnsTotal()-conns)
	}
	failing.Store(false)

	installMap(t, p.addr, 2)
	if _, _, epoch, _ := p.node.Info(); epoch != 2 {
		t.Fatalf("node at epoch %d after the install, want 2", epoch)
	}
	c2, err := client.Dial(p.addr, client.WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if v, ok, err := c2.Get(ctx, 1); err != nil || !ok || v != 10 {
		t.Fatalf("Get(1) after the install = %d,%v,%v", v, ok, err)
	}
}
