package core_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dytis/internal/check"
	"dytis/internal/core"
)

// TestBatchMatchesSingleOps drives identical mixed workloads through the
// batch entry points and the single-op methods on two indexes; every
// intermediate result and the final structures must agree.
func TestBatchMatchesSingleOps(t *testing.T) {
	opts := core.Options{FirstLevelBits: 3, BucketEntries: 16, StartDepth: 2}
	db := core.New(opts) // batched
	ds := core.New(opts) // single-op reference
	rng := rand.New(rand.NewSource(42))

	var vals []uint64
	var found []bool
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(64)
		keys := make([]uint64, n)
		vs := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(rng.Intn(1 << 12))
			vs[i] = rng.Uint64()
		}
		switch round % 3 {
		case 0:
			db.InsertBatch(keys, vs)
			for i, k := range keys {
				ds.Insert(k, vs[i])
			}
		case 1:
			vals, found = db.GetBatch(keys, vals[:0], found[:0])
			for i, k := range keys {
				v, ok := ds.Get(k)
				if found[i] != ok || (ok && vals[i] != v) {
					t.Fatalf("round %d: GetBatch[%d] key %d = %d,%v; single = %d,%v",
						round, i, k, vals[i], found[i], v, ok)
				}
			}
		case 2:
			var err error
			found, err = db.DeleteBatch(keys, found[:0])
			if err != nil {
				t.Fatalf("round %d: DeleteBatch: %v", round, err)
			}
			for i, k := range keys {
				if ok := ds.Delete(k); found[i] != ok {
					t.Fatalf("round %d: DeleteBatch[%d] key %d = %v; single = %v",
						round, i, k, found[i], ok)
				}
			}
		}
	}
	if db.Len() != ds.Len() {
		t.Fatalf("Len: batched %d, single %d", db.Len(), ds.Len())
	}
	bs, ss := db.Scan(0, db.Len()+1, nil), ds.Scan(0, ds.Len()+1, nil)
	if len(bs) != len(ss) {
		t.Fatalf("scan lengths differ: %d vs %d", len(bs), len(ss))
	}
	for i := range bs {
		if bs[i] != ss[i] {
			t.Fatalf("scan[%d]: batched %+v, single %+v", i, bs[i], ss[i])
		}
	}
	if vs := check.Check(db); len(vs) != 0 {
		t.Fatalf("batched index unsound: %v", vs)
	}
}

// eventCounter counts structure events by kind; in Concurrent mode they fire
// from many writers at once.
type eventCounter struct {
	byKind [core.EvShrink + 1]atomic.Int64
}

func (o *eventCounter) RecordOp(core.Op, int, time.Duration) {}
func (o *eventCounter) StructureEvent(ev core.StructureEvent) {
	if int(ev.Kind) < len(o.byKind) {
		o.byKind[ev.Kind].Add(1)
	}
}

// TestGetBatchDuringMaintenance runs 64-key GetBatches over keys whose
// presence never changes while two writers churn interleaved keys through
// splits, remaps, expansions and directory doublings. The writers' in-place
// inserts and deletes shift the readers' keys inside their buckets, so a
// probe that kept a slot across a shift without re-checking its segment
// version would return a neighbour's value. Every answer must match; under
// the race detector the same batches take the locked fallback.
func TestGetBatchDuringMaintenance(t *testing.T) {
	obs := &eventCounter{}
	d := core.New(core.Options{
		FirstLevelBits: 2, BucketEntries: 16, StartDepth: 2, BaseSegBuckets: 4,
		Concurrent: true, Observer: obs,
	})
	// Stable keys have bit 0 clear: present ones hold val(k), absent ones
	// are never inserted. Writers only touch keys with bit 0 set.
	val := func(k uint64) uint64 { return k*3 + 7 }
	rng := rand.New(rand.NewSource(27))
	var present, probes []uint64
	isPresent := map[uint64]bool{}
	for i := 0; i < 20000; i++ {
		k := rng.Uint64() &^ 1
		if i%4 == 3 {
			probes = append(probes, k) // absent
			continue
		}
		d.Insert(k, val(k))
		isPresent[k] = true
		present = append(present, k)
		probes = append(probes, k)
	}

	const writers, readers, perWriter = 2, 2, 60000
	var stop atomic.Bool
	var wg, rg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 100))
			var mine []uint64
			for i := 0; i < perWriter && !t.Failed(); i++ {
				var k uint64
				switch i % 3 {
				case 0: // uniform: expansions and splits
					k = rng.Uint64() | 1
				default: // dense run beside a stable key: skew, remaps, shifts
					k = present[rng.Intn(len(present))] + uint64(rng.Intn(64))<<1 | 1
				}
				d.Insert(k, k)
				mine = append(mine, k)
				if i%4 == 3 {
					j := rng.Intn(len(mine))
					d.Delete(mine[j])
					mine[j] = mine[len(mine)-1]
					mine = mine[:len(mine)-1]
				}
			}
		}(w)
	}
	var batches atomic.Int64
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			rng := rand.New(rand.NewSource(int64(r) + 200))
			batch := make([]uint64, 64)
			var vals []uint64
			var found []bool
			for !stop.Load() {
				for i := range batch {
					batch[i] = probes[rng.Intn(len(probes))]
				}
				vals, found = d.GetBatch(batch, vals[:0], found[:0])
				for i, k := range batch {
					if want := isPresent[k]; found[i] != want || (want && vals[i] != val(k)) {
						t.Errorf("reader %d: GetBatch[%d] (%#x) = %d,%v; want %d,%v", r, i, k, vals[i], found[i], val(k), want)
						return
					}
				}
				batches.Add(1)
			}
		}(r)
	}
	wg.Wait()
	stop.Store(true)
	rg.Wait()
	if t.Failed() {
		return
	}
	for kind := core.EvSplit; kind <= core.EvDouble; kind++ {
		if obs.byKind[kind].Load() == 0 {
			t.Errorf("no %v event: the writers did not exercise every maintenance path", kind)
		}
	}
	t.Logf("%d batches; events: split %d remap %d expand %d double %d", batches.Load(),
		obs.byKind[core.EvSplit].Load(), obs.byKind[core.EvRemap].Load(),
		obs.byKind[core.EvExpand].Load(), obs.byKind[core.EvDouble].Load())
	requireSound(t, d)
}

func TestBatchEdgeCases(t *testing.T) {
	d := core.New(core.Options{})
	// Empty batches are no-ops, not panics, and leave dst slices untouched.
	vals, found := d.GetBatch(nil, nil, nil)
	if vals != nil || found != nil {
		t.Fatal("empty GetBatch grew its slices")
	}
	if err := d.InsertBatch(nil, nil); err != nil {
		t.Fatalf("empty InsertBatch: %v", err)
	}
	if f, err := d.DeleteBatch(nil, nil); f != nil || err != nil {
		t.Fatalf("empty DeleteBatch = %v, %v; want nil, nil", f, err)
	}
	// Mismatched InsertBatch lengths panic loudly.
	defer func() {
		if recover() == nil {
			t.Fatal("InsertBatch with mismatched slices did not panic")
		}
	}()
	d.InsertBatch([]uint64{1, 2}, []uint64{1})
}

// batchSpyObserver counts per-op and batched bookings.
type batchSpyObserver struct {
	recordOps   int
	batchCalls  int
	batchedN    int
	lastShard   int
	structureEv int
}

func (o *batchSpyObserver) RecordOp(op core.Op, shard int, d time.Duration) { o.recordOps++ }
func (o *batchSpyObserver) StructureEvent(ev core.StructureEvent)           { o.structureEv++ }

type batchCapableObserver struct {
	batchSpyObserver
}

func (o *batchCapableObserver) RecordBatch(op core.Op, shard int, n int, total time.Duration) {
	o.batchCalls++
	o.batchedN += n
	o.lastShard = shard
}

// TestBatchObserverDispatch: an observer implementing BatchObserver gets one
// RecordBatch per batch; a plain Observer gets n RecordOp fallback calls —
// either way every operation is booked.
func TestBatchObserverDispatch(t *testing.T) {
	keys := []uint64{10, 20, 30, 40, 50}
	vals := []uint64{1, 2, 3, 4, 5}

	plain := &batchSpyObserver{}
	d1 := core.New(core.Options{Observer: plain})
	d1.InsertBatch(keys, vals)
	d1.GetBatch(keys, nil, nil)
	if plain.recordOps != 2*len(keys) {
		t.Errorf("plain observer got %d RecordOp calls, want %d", plain.recordOps, 2*len(keys))
	}

	capable := &batchCapableObserver{}
	d2 := core.New(core.Options{Observer: capable})
	d2.InsertBatch(keys, vals)
	d2.GetBatch(keys, nil, nil)
	d2.DeleteBatch(keys[:2], nil)
	if capable.recordOps != 0 {
		t.Errorf("batch-capable observer got %d per-op fallbacks, want 0", capable.recordOps)
	}
	if capable.batchCalls != 3 || capable.batchedN != 2*len(keys)+2 {
		t.Errorf("RecordBatch calls/ops = %d/%d, want 3/%d",
			capable.batchCalls, capable.batchedN, 2*len(keys)+2)
	}
}

// detachSpy records DetachIndex calls.
type detachSpy struct {
	batchSpyObserver
	detached []any
}

func (o *detachSpy) DetachIndex(src any) { o.detached = append(o.detached, src) }

func TestCloseDetachesAndStopsObserving(t *testing.T) {
	spy := &detachSpy{}
	d := core.New(core.Options{Observer: spy})
	d.Insert(1, 2)
	before := spy.recordOps
	if before == 0 {
		t.Fatal("observer not wired")
	}
	if d.Closed() {
		t.Fatal("Closed before Close")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if !d.Closed() {
		t.Fatal("Closed() false after Close")
	}
	if len(spy.detached) != 1 || spy.detached[0] != any(d) {
		t.Fatalf("DetachIndex calls = %v, want exactly the index once", spy.detached)
	}
	// Idempotent: no second detach.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if len(spy.detached) != 1 {
		t.Fatalf("second Close detached again: %v", spy.detached)
	}
	// The structure stays readable, but mutations now fail loudly instead
	// of silently applying unlogged (see TestClosedMutations for the full
	// post-Close contract).
	if v, ok := d.Get(1); !ok || v != 2 {
		t.Fatalf("Get after Close = %d,%v", v, ok)
	}
	if err := d.InsertBatch([]uint64{5}, []uint64{6}); err == nil {
		t.Fatal("InsertBatch after Close succeeded")
	}
	if spy.recordOps != before {
		t.Fatalf("observer recorded %d ops after Close (had %d)", spy.recordOps, before)
	}
}
