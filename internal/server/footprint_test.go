package server_test

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"dytis/client"
	"dytis/internal/core"
	"dytis/internal/datasets"
	"dytis/internal/server"
)

// TestMetricsFootprint pins the size of an unrecorded server.Metrics: its
// per-opcode, per-shard histograms are one pointer each until a request
// records into them.
func TestMetricsFootprint(t *testing.T) {
	if got := unsafe.Sizeof(server.Metrics{}); got > 4<<10 {
		t.Fatalf("sizeof(server.Metrics) = %d B, want <= 4 KiB", got)
	}
}

// TestServingStackHeap pins what a metered server and its clients hold
// beyond the index they serve: two connections carry a few thousand mixed
// operations, and the live heap afterwards may exceed the loaded index's by
// less than 1 MiB. Histograms sized up front for every opcode and shard
// cost ~3.4 MiB here on their own.
func TestServingStackHeap(t *testing.T) {
	const n = 20000
	keys := datasets.Taxi.Gen(n, 1)
	idx := core.New(core.Options{Concurrent: true})
	for _, k := range keys {
		idx.Insert(k, k)
	}
	base := heapAfterGC()

	addr, _ := start(t, idx, server.Config{Metrics: &server.Metrics{}})
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for c := 0; c < 2; c++ {
		cl, err := client.Dial(addr, client.WithPoolSize(1))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs <- mixedOps(ctx, cl, keys[c*n/2:(c+1)*n/2])
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := int64(heapAfterGC()) - int64(base); got >= 1<<20 {
		t.Fatalf("serving stack holds %d B beyond the index, want < 1 MiB", got)
	} else {
		t.Logf("serving stack holds %d B beyond the index", got)
	}
}

// mixedOps runs 2,000 operations over keys, each one of the benchmark's
// kinds: point reads, overwrites, delete-and-reinsert pairs, batched reads
// and short scans. The key set is unchanged at the end.
func mixedOps(ctx context.Context, cl *client.Client, keys []uint64) error {
	for i := 0; i < 2000; i++ {
		k := keys[i%len(keys)]
		var err error
		switch i % 10 {
		case 0, 1, 2, 3, 4:
			_, _, err = cl.Get(ctx, k)
		case 5, 6:
			err = cl.Insert(ctx, k, k+1)
		case 7:
			if _, err = cl.Delete(ctx, k); err == nil {
				err = cl.Insert(ctx, k, k)
			}
		case 8:
			_, _, err = cl.GetBatch(ctx, keys[i%len(keys):][:8])
		case 9:
			_, _, err = drainScan(cl.ScanStream(ctx, k, 16))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
