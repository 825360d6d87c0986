package core

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// Micro-benchmarks for the core operations under the three key-distribution
// regimes the paper distinguishes (uniform, clustered/skewed, ascending
// time-like). The paper-level experiment benchmarks live in the repository
// root's bench_test.go.

func benchKeysUniform(n int) []uint64 {
	rng := rand.New(rand.NewSource(1))
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64()
	}
	return out
}

func benchKeysClustered(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i%40)<<40 | uint64(i)
	}
	return out
}

func benchKeysAscending(n int) []uint64 {
	rng := rand.New(rand.NewSource(7))
	out := make([]uint64, n)
	t := uint64(0)
	for i := range out {
		t += 1 + uint64(rng.Intn(64))
		out[i] = t<<18 | uint64(i)&(1<<18-1)
	}
	return out
}

func benchInsert(b *testing.B, keys []uint64) {
	d := New(Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		d.Insert(k, k)
	}
}

func BenchmarkInsertUniform(b *testing.B)   { benchInsert(b, benchKeysUniform(400000)) }
func BenchmarkInsertClustered(b *testing.B) { benchInsert(b, benchKeysClustered(400000)) }
func BenchmarkInsertAscending(b *testing.B) { benchInsert(b, benchKeysAscending(400000)) }

func benchGet(b *testing.B, keys []uint64) {
	d := New(Options{})
	for _, k := range keys {
		d.Insert(k, k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Get(keys[i%len(keys)])
	}
}

func BenchmarkGetUniform(b *testing.B)   { benchGet(b, benchKeysUniform(400000)) }
func BenchmarkGetClustered(b *testing.B) { benchGet(b, benchKeysClustered(400000)) }

// BenchmarkGetParallelOptimistic measures Concurrent-mode point-lookup
// throughput with all goroutines reading a quiescent index through the
// seqlock-validated lock-free probe (run with -cpu=8 for the recorded
// configuration).
func BenchmarkGetParallelOptimistic(b *testing.B) {
	keys := benchKeysUniform(400000)
	d := New(Options{Concurrent: true})
	for _, k := range keys {
		d.Insert(k, k)
	}
	var worker atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Stagger each goroutine's walk so workers don't march through the
		// key slice in lockstep.
		i := int(worker.Add(1)) * 50023
		for pb.Next() {
			d.Get(keys[i%len(keys)])
			i++
		}
	})
}

func BenchmarkScan100(b *testing.B) {
	keys := benchKeysUniform(400000)
	d := New(Options{})
	for _, k := range keys {
		d.Insert(k, k)
	}
	res := d.Scan(0, 100, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = d.Scan(keys[i%len(keys)], 100, res[:0])
	}
	_ = res
}

// Batched vs single-op entry points. The index work is identical; the
// difference the pair isolates is per-op dispatch (timing + observer
// booking), which the batch paths pay once per batch. Run with and without
// an observer attached to see both the floor and the amortized overhead.
const batchLen = 64

func benchGetBatchVsSingle(b *testing.B, batched bool, o Observer) {
	keys := benchKeysUniform(400000)
	d := New(Options{Observer: o})
	for _, k := range keys {
		d.Insert(k, k)
	}
	vals := make([]uint64, 0, batchLen)
	found := make([]bool, 0, batchLen)
	b.ResetTimer()
	for i := 0; i < b.N; i += batchLen {
		batch := keys[i%(len(keys)-batchLen):][:batchLen]
		if batched {
			vals, found = d.GetBatch(batch, vals[:0], found[:0])
		} else {
			for _, k := range batch {
				d.Get(k)
			}
		}
	}
	_, _ = vals, found
}

func BenchmarkGetSingle64(b *testing.B) { benchGetBatchVsSingle(b, false, nil) }
func BenchmarkGetBatch64(b *testing.B)  { benchGetBatchVsSingle(b, true, nil) }
func BenchmarkGetSingle64Obs(b *testing.B) {
	benchGetBatchVsSingle(b, false, nopObserver{})
}
func BenchmarkGetBatch64Obs(b *testing.B) { benchGetBatchVsSingle(b, true, nopObserver{}) }

func benchInsertBatchVsSingle(b *testing.B, batched bool) {
	keys := benchKeysUniform(400000)
	vals := benchKeysUniform(400000)
	d := New(Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i += batchLen {
		j := i % (len(keys) - batchLen)
		if batched {
			d.InsertBatch(keys[j:j+batchLen], vals[j:j+batchLen])
		} else {
			for l := j; l < j+batchLen; l++ {
				d.Insert(keys[l], vals[l])
			}
		}
	}
}

func BenchmarkInsertSingle64(b *testing.B) { benchInsertBatchVsSingle(b, false) }
func BenchmarkInsertBatch64(b *testing.B)  { benchInsertBatchVsSingle(b, true) }

// nopObserver is the cheapest possible Observer without RecordBatch, so the
// *Obs benchmarks measure pure dispatch overhead.
type nopObserver struct{}

func (nopObserver) RecordOp(op Op, shard int, d time.Duration) {}
func (nopObserver) StructureEvent(ev StructureEvent)           {}

func BenchmarkDelete(b *testing.B) {
	keys := benchKeysUniform(400000)
	d := New(Options{})
	for _, k := range keys {
		d.Insert(k, k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		if i%2 == 0 {
			d.Delete(k)
		} else {
			d.Insert(k, k)
		}
	}
}
