package server_test

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dytis/client"
	"dytis/internal/check"
	"dytis/internal/core"
	"dytis/internal/server"
	"dytis/internal/wal"
)

// Compile-time: the durable store's adapter satisfies the serving surface.
var _ server.Index = wal.ServingIndex{}

func durableOpts() wal.Options {
	return wal.Options{
		Index: core.Options{FirstLevelBits: 3, BucketEntries: 16, StartDepth: 2, Concurrent: true},
		// Interval sync keeps the wire-level test honest but fast: the
		// fsync path runs, without one fsync per op.
		Fsync:           wal.FsyncInterval,
		CheckpointBytes: 32 << 10, // churn background checkpoints under load
		SegmentBytes:    16 << 10,
	}
}

// TestE2EDurableServer drives concurrent clients against a server whose
// index is a WAL-backed store, then closes everything cleanly and recovers
// the directory: the recovered index must hold exactly the merged oracle
// state — the wire ack was a durability ack. Mutations are submitted and
// acked on completion, out of order with the reads around them; request ids
// sort that out.
func TestE2EDurableServer(t *testing.T) {
	t.Run("v2", e2eDurableServer)
}

func e2eDurableServer(t *testing.T) {
	dir := t.TempDir()
	st, err := wal.Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	addr, srv := startIndex(t, st.Serving(), st.Index(), server.Config{MaxConns: 16})

	const (
		numClients   = 4
		opsPerClient = 1500
		keySpace     = 1 << 12
	)
	ctx := context.Background()
	oracles := make([]map[uint64]uint64, numClients)
	var wg sync.WaitGroup
	for id := 0; id < numClients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := client.Dial(addr, client.WithPipeline(16))
			if err != nil {
				t.Errorf("client %d: dial: %v", id, err)
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(7000 + id)))
			oracle := make(map[uint64]uint64)
			own := func() uint64 {
				return uint64(rng.Intn(keySpace/numClients))*numClients + uint64(id)
			}
			for i := 0; i < opsPerClient; i++ {
				switch r := rng.Intn(100); {
				case r < 50:
					k, v := own(), rng.Uint64()
					if err := c.Insert(ctx, k, v); err != nil {
						t.Errorf("client %d: insert: %v", id, err)
						return
					}
					oracle[k] = v
				case r < 65:
					k := own()
					if _, err := c.Delete(ctx, k); err != nil {
						t.Errorf("client %d: delete: %v", id, err)
						return
					}
					delete(oracle, k)
				case r < 80:
					n := 1 + rng.Intn(16)
					keys := make([]uint64, n)
					vals := make([]uint64, n)
					for j := range keys {
						keys[j], vals[j] = own(), rng.Uint64()
					}
					if err := c.InsertBatch(ctx, keys, vals); err != nil {
						t.Errorf("client %d: insert batch: %v", id, err)
						return
					}
					for j := range keys {
						oracle[keys[j]] = vals[j]
					}
				default: // reads run against the mutex-free path while writers log
					k := own()
					v, ok, err := c.Get(ctx, k)
					if err != nil {
						t.Errorf("client %d: get: %v", id, err)
						return
					}
					if want, has := oracle[k]; has != ok || (ok && v != want) {
						t.Errorf("client %d: get %d = %d,%v; oracle %d,%v", id, k, v, ok, want, has)
						return
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

	// Graceful teardown, then recovery from the directory alone.
	shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		t.Fatal(err)
	}
	if n := st.Metrics().Appends(); n == 0 {
		t.Fatal("no WAL appends recorded: the server is not writing through the log")
	}
	t.Logf("wal after load: appends=%d rotations=%d checkpoints=%d",
		st.Metrics().Appends(), st.Metrics().Rotations(), st.Metrics().Checkpoints())
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
	if st2.Len() != len(expect) {
		t.Fatalf("recovered Len = %d, want %d", st2.Len(), len(expect))
	}
	for k, v := range expect {
		if got, ok := st2.Get(k); !ok || got != v {
			t.Fatalf("recovered Get(%d) = %d,%v want %d,true", k, got, ok, v)
		}
	}
}

// TestDurableServerBatchErrorSurfaces: once the store refuses mutations
// (closed here, poisoned below), a mutation over the wire — batch or single
// — comes back as a typed server error on that request, through its
// completion; no handler panics, the connection stays up, reads keep
// serving.
func TestDurableServerBatchErrorSurfaces(t *testing.T) {
	dir := t.TempDir()
	st, err := wal.Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	m := &server.Metrics{}
	addr, _ := startIndex(t, st.Serving(), st.Index(), server.Config{Metrics: m})
	ctx := context.Background()
	c, err := client.Dial(addr, client.WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.InsertBatch(ctx, []uint64{1, 2}, []uint64{10, 20}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	requireMutationsRefused(t, c, "store closed")
	if m.Panics() != 0 || m.ConnsTotal() != 1 {
		t.Fatalf("panics = %d, connections = %d: a refused mutation must fail its request, not its connection",
			m.Panics(), m.ConnsTotal())
	}
}

// requireMutationsRefused drives every mutation opcode at a store that must
// refuse them and requires a server error naming why, with reads unharmed.
func requireMutationsRefused(t *testing.T, c *client.Client, why string) {
	t.Helper()
	ctx := context.Background()
	refused := func(op string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s on a refusing store acked over the wire", op)
		}
		if !strings.Contains(err.Error(), why) {
			t.Fatalf("%s failed with %q, want the store's %q", op, err, why)
		}
	}
	refused("insert batch", c.InsertBatch(ctx, []uint64{3}, []uint64{30}))
	_, err := c.DeleteBatch(ctx, []uint64{1})
	refused("delete batch", err)
	refused("insert", c.Insert(ctx, 3, 30))
	_, err = c.Delete(ctx, 1)
	refused("delete", err)
	// The in-memory structure still answers reads.
	if v, ok, err := c.Get(ctx, 1); err != nil || !ok || v != 10 {
		t.Fatalf("Get on a refusing store = %d,%v,%v", v, ok, err)
	}
	if _, ok, err := c.Get(ctx, 3); err != nil || ok {
		t.Fatalf("Get(3) = %v,%v: a refused insert was applied", ok, err)
	}
}

// TestDurableServerPoisonedStore: a log failure under a single-op mutation
// answers StatusErr on that request and poisons the store; every later
// mutation keeps failing the same way.
func TestDurableServerPoisonedStore(t *testing.T) {
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
	m := &server.Metrics{}
	addr, _ := startIndex(t, st.Serving(), st.Index(), server.Config{Metrics: m})
	c, err := client.Dial(addr, client.WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Insert(context.Background(), 1, 10); err != nil {
		t.Fatal(err)
	}
	failing.Store(true)
	requireMutationsRefused(t, c, "store failed")
	failing.Store(false) // the disk recovers; the store must not
	requireMutationsRefused(t, c, "store failed")
	if m.Panics() != 0 || m.ConnsTotal() != 1 {
		t.Fatalf("panics = %d, connections = %d", m.Panics(), m.ConnsTotal())
	}
}
