package server_test

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"dytis/client"
	"dytis/internal/core"
	"dytis/internal/server"
)

// TestE2EMultiClientOracle is the end-to-end correctness proof for the
// serving path: several concurrent clients replay a mixed workload
// (inserts, updates, deletes, single ops and batches) over loopback while
// scanners page through the index, and the final contents — read back
// through the client — must equal an in-process sorted-map oracle.
//
// Each client owns the keys congruent to its id mod numClients, so every
// key is mutated by exactly one goroutine and the union of the per-client
// oracles is the deterministic expected state, with no cross-client
// ordering to reason about. The server still sees the full adversarial
// interleaving: all clients share one index, and structure changes
// (splits, remaps, directory doublings) run under concurrent scans.
func TestE2EMultiClientOracle(t *testing.T) {
	idx := core.New(smallOpts())
	addr, _ := start(t, idx, server.Config{MaxConns: 32})

	const (
		numClients   = 6
		opsPerClient = 4000
		keySpace     = 1 << 14
	)
	ctx := context.Background()

	oracles := make([]map[uint64]uint64, numClients)
	var wg sync.WaitGroup
	for id := 0; id < numClients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := client.Dial(addr, client.WithPipeline(32))
			if err != nil {
				t.Errorf("client %d: dial: %v", id, err)
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(1000 + id)))
			oracle := make(map[uint64]uint64)
			// own maps a draw to a key this client owns.
			own := func() uint64 {
				return uint64(rng.Intn(keySpace/numClients))*numClients + uint64(id)
			}
			for i := 0; i < opsPerClient; i++ {
				switch r := rng.Intn(100); {
				case r < 55: // insert / update
					k, v := own(), rng.Uint64()
					if err := c.Insert(ctx, k, v); err != nil {
						t.Errorf("client %d: insert: %v", id, err)
						return
					}
					oracle[k] = v
				case r < 70: // delete
					k := own()
					if _, err := c.Delete(ctx, k); err != nil {
						t.Errorf("client %d: delete: %v", id, err)
						return
					}
					delete(oracle, k)
				case r < 80: // insert batch
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
				case r < 90: // get / get batch: cross-checked against own oracle
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
				default: // scan: must observe a well-formed ordered page
					keys, _, err := drainScan(c.ScanStream(ctx, uint64(rng.Intn(keySpace)), 64))
					if err != nil {
						t.Errorf("client %d: scan: %v", id, err)
						return
					}
					if !sort.SliceIsSorted(keys, func(a, b int) bool { return keys[a] < keys[b] }) {
						t.Errorf("client %d: scan page out of order", id)
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

	// Merge the per-client oracles into the expected final contents.
	expect := make(map[uint64]uint64)
	for _, o := range oracles {
		for k, v := range o {
			expect[k] = v
		}
	}
	wantKeys := make([]uint64, 0, len(expect))
	for k := range expect {
		wantKeys = append(wantKeys, k)
	}
	sort.Slice(wantKeys, func(a, b int) bool { return wantKeys[a] < wantKeys[b] })

	// Read the whole index back through the client with paginated scans and
	// compare, pair by pair, against the oracle.
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if n, err := c.Len(ctx); err != nil || n != len(expect) {
		t.Fatalf("Len = %d,%v want %d", n, err, len(expect))
	}
	var got int
	start := uint64(0)
	for {
		keys, vals, err := drainScan(c.ScanStream(ctx, start, 512))
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) == 0 {
			break
		}
		for i, k := range keys {
			if got >= len(wantKeys) {
				t.Fatalf("scan returned more than the oracle's %d keys", len(wantKeys))
			}
			if k != wantKeys[got] {
				t.Fatalf("scan key %d = %d, oracle has %d", got, k, wantKeys[got])
			}
			if vals[i] != expect[k] {
				t.Fatalf("scan val for key %d = %d, oracle has %d", k, vals[i], expect[k])
			}
			got++
		}
		start = keys[len(keys)-1] + 1
	}
	if got != len(wantKeys) {
		t.Fatalf("scan returned %d keys, oracle has %d", got, len(wantKeys))
	}
	// check.Check runs in start's cleanup.
}
