package core_test

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"dytis/internal/check"
	"dytis/internal/core"
)

func concOpts() core.Options {
	return core.Options{FirstLevelBits: 3, BucketEntries: 16, StartDepth: 2, Concurrent: true}
}

// requireSound fails the test when the structural checker finds violations;
// every concurrency test runs it at teardown, once the workers are quiescent.
func requireSound(t *testing.T, d *core.DyTIS) {
	t.Helper()
	if vs := check.Check(d); len(vs) != 0 {
		for _, v := range vs {
			t.Errorf("invariant violation: %v", v)
		}
		t.FailNow()
	}
}

func TestConcurrentInsertGet(t *testing.T) {
	d := core.New(concOpts())
	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				k := uint64(w)<<32 | uint64(i)
				d.Insert(k, k+1)
				if rng.Intn(4) == 0 {
					if v, ok := d.Get(k); !ok || v != k+1 {
						t.Errorf("worker %d: Get(%#x) = %d,%v", w, k, v, ok)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if d.Len() != workers*perWorker {
		t.Fatalf("Len=%d want %d", d.Len(), workers*perWorker)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i += 17 {
			k := uint64(w)<<32 | uint64(i)
			if v, ok := d.Get(k); !ok || v != k+1 {
				t.Fatalf("post: Get(%#x) = %d,%v", k, v, ok)
			}
		}
	}
	requireSound(t, d)
}

func TestConcurrentMixedWorkload(t *testing.T) {
	d := core.New(concOpts())
	// Pre-load a base population.
	for i := uint64(0); i < 20000; i++ {
		d.Insert(i*3, i)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 100))
			for i := 0; i < 4000; i++ {
				k := uint64(rng.Intn(30000)) * 3
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					d.Insert(k, uint64(w))
				case 4, 5, 6:
					d.Get(k)
				case 7:
					d.Delete(k)
				case 8, 9:
					got := d.Scan(k, 50, nil)
					for j := 1; j < len(got); j++ {
						if got[j].Key <= got[j-1].Key {
							t.Errorf("scan not ascending under concurrency")
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	requireSound(t, d)
}

// TestConcurrentDisjointRangesLinearizable: workers own disjoint key ranges,
// so each worker's final writes must all be visible exactly.
func TestConcurrentDisjointRangesLinearizable(t *testing.T) {
	d := core.New(concOpts())
	const workers = 6
	var wg sync.WaitGroup
	final := make([]map[uint64]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 7))
			mine := map[uint64]uint64{}
			base := uint64(w) << 40
			for i := 0; i < 8000; i++ {
				k := base + uint64(rng.Intn(4000))
				if rng.Intn(5) == 0 {
					d.Delete(k)
					delete(mine, k)
				} else {
					v := rng.Uint64()
					d.Insert(k, v)
					mine[k] = v
				}
			}
			final[w] = mine
		}(w)
	}
	wg.Wait()
	total := 0
	for w := 0; w < workers; w++ {
		total += len(final[w])
		for k, v := range final[w] {
			got, ok := d.Get(k)
			if !ok || got != v {
				t.Fatalf("worker %d key %#x: got %d,%v want %d", w, k, got, ok, v)
			}
		}
	}
	if d.Len() != total {
		t.Fatalf("Len=%d want %d", d.Len(), total)
	}
	requireSound(t, d)
}

// TestConcurrentGetDuringSplits hammers point lookups on a stable key
// population while writers force splits in the same segments: every Get of
// a pre-existing key must return its value, whether the lookup validated
// against the seqlock, retried around a retirement, or fell back to the
// locked path. Reads run optimistically; the locked path is reached only as
// that path's fallback.
func TestConcurrentGetDuringSplits(t *testing.T) {
	t.Run("optimistic", getDuringSplits)
}

func getDuringSplits(t *testing.T) {
	d := core.New(concOpts())
	const stable = 20000
	for i := uint64(0); i < stable; i++ {
		d.Insert(i*797, i)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 53))
			for i := 0; i < 20000; i++ {
				// Land between the stable keys so splits keep firing
				// without ever touching a stable key's value.
				k := uint64(rng.Intn(stable))*797 + uint64(1+rng.Intn(796))
				d.Insert(k, k)
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r) * 97))
			for i := 0; i < 30000; i++ {
				want := uint64(rng.Intn(stable))
				if v, ok := d.Get(want * 797); !ok || v != want {
					t.Errorf("Get(%#x) = %d,%v want %d", want*797, v, ok, want)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	requireSound(t, d)
}

// TestConcurrentScanAcrossEHSplits races scans that cross first-level EH
// boundaries against writers forcing splits in every shard. Scans are not
// point-in-time snapshots, but two properties must survive any interleaving
// with splits (including a scan holding a just-retired segment's frozen
// view): results stay strictly ascending, and no key that existed before the
// workload started may be lost from a scanned window.
func TestConcurrentScanAcrossEHSplits(t *testing.T) {
	d := core.New(concOpts()) // FirstLevelBits=3: 8 EH tables, suffixBits=61
	const shards = 8
	const perShard = 6000
	preload := make([]uint64, 0, shards*perShard)
	for s := uint64(0); s < shards; s++ {
		for i := uint64(0); i < perShard; i++ {
			k := (s << 61) | (i * 997)
			d.Insert(k, k)
			preload = append(preload, k)
		}
	}
	sort.Slice(preload, func(i, j int) bool { return preload[i] < preload[j] })

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 131))
			for i := 0; i < 12000; i++ {
				s := uint64(rng.Intn(shards))
				k := (s << 61) | (uint64(rng.Intn(perShard))*997 + uint64(1+rng.Intn(996)))
				d.Insert(k, k)
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r) * 173))
			for i := 0; i < 300; i++ {
				// Start 20 preloaded keys shy of a shard's populated tail and
				// ask for far more pairs than the tail can hold: the scan must
				// continue into the next EH table mid-flight.
				s := uint64(rng.Intn(shards - 1))
				start := (s << 61) | ((perShard - 20) * 997)
				got := d.Scan(start, 600, nil)
				if len(got) != 600 {
					t.Errorf("scan %d: %d pairs, want 600", i, len(got))
					return
				}
				seen := make(map[uint64]struct{}, len(got))
				for j, p := range got {
					if j > 0 && p.Key <= got[j-1].Key {
						t.Errorf("scan %d: not strictly ascending at %d", i, j)
						return
					}
					seen[p.Key] = struct{}{}
				}
				last := got[len(got)-1].Key
				lo := sort.Search(len(preload), func(i int) bool { return preload[i] >= start })
				for ; lo < len(preload) && preload[lo] <= last; lo++ {
					if _, ok := seen[preload[lo]]; !ok {
						t.Errorf("scan %d: lost pre-existing key %#x in [%#x,%#x]",
							i, preload[lo], start, last)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	requireSound(t, d)
}

// TestConcurrentStatsDuringWrites hammers the read-side accounting
// (Stats/MemoryFootprint/Len) while writers force splits, remaps, and
// expansions: the aggregation walks must take the per-segment locks, not
// just the EH lock, because remap/expand rewrite segment internals while
// holding only the segment lock.
func TestConcurrentStatsDuringWrites(t *testing.T) {
	d := core.New(concOpts())
	const writers = 4
	var writeWG, readWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			rng := rand.New(rand.NewSource(int64(w) * 31))
			for i := 0; i < 30000; i++ {
				k := uint64(rng.Intn(1 << 20))
				if rng.Intn(8) == 0 {
					d.Delete(k)
				} else {
					d.Insert(k, uint64(i))
				}
			}
		}(w)
	}
	readWG.Add(1)
	go func() {
		defer readWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := d.Stats()
			if st.Segments <= 0 || st.Buckets <= 0 {
				t.Error("non-positive stats")
				return
			}
			if d.MemoryFootprint() <= 0 {
				t.Error("non-positive footprint")
				return
			}
			d.Len()
		}
	}()
	writeWG.Wait()
	close(stop)
	readWG.Wait()
	if t.Failed() {
		return
	}
	requireSound(t, d)
}
