package core_test

import (
	"encoding/binary"
	"slices"
	"sort"
	"testing"
	"time"

	"dytis/internal/check"
	"dytis/internal/core"
)

// FuzzDifferential drives random operation sequences against a map oracle in
// both locking modes, with small geometry so a few dozen keys already force
// splits, remaps, expansions, and directory doublings. The structural
// validator runs after every structure event: in single-threaded mode
// directly from the Observer callback (the maintenance paths fire events only
// once the structure is consistent again), in Concurrent mode after each
// operation that fired events — the callback runs with the EH/segment locks
// held there, and check.Check needs to take them itself.
//
// Input format: a stream of 10-byte records — 1 op byte, 8 key bytes
// (big-endian), 1 value byte. op%6 selects insert / delete / get / scan /
// bulk-load / GetBatch; trailing partial records are ignored. A GetBatch op
// probes the keys around its key and, through the probe-stage hook, inserts
// or deletes that key between two of the batch's probe stages, inside every
// probed key's seqlock window. Every op that fired structure events is also
// followed by a GetBatch sweep over the whole oracle.

const (
	diffRecordLen = 10
	diffMaxOps    = 200
)

func diffOpts(conc bool) core.Options {
	return core.Options{
		FirstLevelBits: 2,
		BucketEntries:  4,
		StartDepth:     2,
		BaseSegBuckets: 4,
		Concurrent:     conc,
	}
}

// checkingObserver validates the whole index from inside the structure-event
// callback. Single-threaded mode only: in Concurrent mode events fire while
// the maintenance path holds the EH and/or segment locks, and check.Check
// must take those locks itself.
type checkingObserver struct {
	d          *core.DyTIS
	events     int64
	violations []check.Violation
}

func (o *checkingObserver) RecordOp(core.Op, int, time.Duration) {}

func (o *checkingObserver) StructureEvent(ev core.StructureEvent) {
	o.events++
	if len(o.violations) == 0 { // first failure is enough; keep the rest cheap
		o.violations = check.Check(o.d)
	}
}

// countingObserver only counts events; the fuzz driver checks the index
// between operations, when it is quiescent.
type countingObserver struct{ events int64 }

func (o *countingObserver) RecordOp(core.Op, int, time.Duration) {}
func (o *countingObserver) StructureEvent(core.StructureEvent)   { o.events++ }

// oracleScan returns up to max oracle pairs with key >= start, ascending.
func oracleScan(oracle map[uint64]uint64, start uint64, max int) ([]uint64, []uint64) {
	var ks []uint64
	for k := range oracle {
		if k >= start {
			ks = append(ks, k)
		}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	if len(ks) > max {
		ks = ks[:max]
	}
	vs := make([]uint64, len(ks))
	for i, k := range ks {
		vs[i] = oracle[k]
	}
	return ks, vs
}

// bulkPairs derives a strictly-ascending key/value load from (seed, n),
// clamped before uint64 wraparound.
func bulkPairs(seed uint64, n int) (ks, vs []uint64) {
	step := seed%1021 + 1
	k := seed
	for i := 0; i < n; i++ {
		ks = append(ks, k)
		vs = append(vs, k*2+1)
		if k > ^uint64(0)-step {
			break
		}
		k += step
	}
	return ks, vs
}

func runDifferential(t *testing.T, data []byte, conc bool) {
	mode := "single"
	if conc {
		mode = "concurrent"
	}
	o := diffOpts(conc)
	var checker *checkingObserver
	var counter *countingObserver
	if conc {
		counter = &countingObserver{}
		o.Observer = counter
	} else {
		checker = &checkingObserver{}
		o.Observer = checker
	}
	d := core.New(o)
	if checker != nil {
		checker.d = d
	}

	oracle := map[uint64]uint64{}
	var seenEvents int64
	for op := 0; len(data) >= diffRecordLen && op < diffMaxOps; op++ {
		kind := data[0] % 6
		key := binary.BigEndian.Uint64(data[1:9])
		val := uint64(data[9])
		data = data[diffRecordLen:]

		switch kind {
		case 0: // insert
			d.Insert(key, val)
			oracle[key] = val
		case 1: // delete
			got := d.Delete(key)
			_, want := oracle[key]
			if got != want {
				t.Fatalf("[%s] op %d: Delete(%#x) = %v, oracle %v", mode, op, key, got, want)
			}
			delete(oracle, key)
		case 2: // search
			v, ok := d.Get(key)
			wv, wok := oracle[key]
			if ok != wok || (ok && v != wv) {
				t.Fatalf("[%s] op %d: Get(%#x) = %d,%v, oracle %d,%v", mode, op, key, v, ok, wv, wok)
			}
		case 3: // scan
			max := int(val%16) + 1
			got := d.Scan(key, max, nil)
			wk, wv := oracleScan(oracle, key, max)
			if len(got) != len(wk) {
				t.Fatalf("[%s] op %d: Scan(%#x, %d) returned %d pairs, oracle %d", mode, op, key, max, len(got), len(wk))
			}
			for i := range got {
				if got[i].Key != wk[i] || got[i].Value != wv[i] {
					t.Fatalf("[%s] op %d: Scan(%#x, %d)[%d] = (%#x,%d), oracle (%#x,%d)",
						mode, op, key, max, i, got[i].Key, got[i].Value, wk[i], wv[i])
				}
			}
		case 4: // bulk load: replaces the index contents and the oracle
			ks, vs := bulkPairs(key, int(val%64)+1)
			d.LoadSorted(ks, vs)
			oracle = make(map[uint64]uint64, len(ks))
			for i, k := range ks {
				oracle[k] = vs[i]
			}
		case 5: // GetBatch with a mutation of key inside the probe
			batch := batchAround(oracle, key, 24)
			stage := int(val/2)%6 + 1
			mutated := false
			mutate := func() {
				mutated = true
				if val&1 == 0 {
					d.Insert(key, uint64(val))
					oracle[key] = uint64(val)
				} else {
					d.Delete(key)
					delete(oracle, key)
				}
			}
			core.SetProbeHook(d, func(st int) {
				if st == stage && !mutated {
					mutate()
				}
			})
			vals, found := d.GetBatch(batch, nil, nil)
			core.SetProbeHook(d, nil)
			if !mutated {
				mutate()
			}
			checkBatch(t, oracle, batch, vals, found, mode, op)
		}

		if checker != nil {
			if len(checker.violations) != 0 {
				for _, v := range checker.violations {
					t.Errorf("[%s] op %d: in-event violation: %v", mode, op, v)
				}
				t.FailNow()
			}
			if checker.events != seenEvents {
				seenEvents = checker.events
				sweepBatch(t, d, oracle, mode, op)
			}
		} else if counter.events != seenEvents {
			seenEvents = counter.events
			if vs := check.Check(d); len(vs) != 0 {
				for _, v := range vs {
					t.Errorf("[%s] op %d: post-event violation: %v", mode, op, v)
				}
				t.FailNow()
			}
			sweepBatch(t, d, oracle, mode, op)
		}
	}

	// Final differential sweep: size, full ordered contents, structure.
	if d.Len() != len(oracle) {
		t.Fatalf("[%s] final Len = %d, oracle %d", mode, d.Len(), len(oracle))
	}
	got := d.Scan(0, len(oracle)+1, nil)
	wk, wv := oracleScan(oracle, 0, len(oracle))
	if len(got) != len(wk) {
		t.Fatalf("[%s] final scan returned %d pairs, oracle %d", mode, len(got), len(wk))
	}
	for i := range got {
		if got[i].Key != wk[i] || got[i].Value != wv[i] {
			t.Fatalf("[%s] final scan[%d] = (%#x,%d), oracle (%#x,%d)",
				mode, i, got[i].Key, got[i].Value, wk[i], wv[i])
		}
	}
	if vs := check.Check(d); len(vs) != 0 {
		for _, v := range vs {
			t.Errorf("[%s] final violation: %v", mode, v)
		}
		t.FailNow()
	}
}

// batchAround returns up to w oracle keys above key, then up to w below it,
// each followed by its successor when that is absent, leaving key itself
// out: the caller mutates key during the batch, so every answer is fixed.
// The keys just above key come first, in the group the mutation lands in:
// they are the ones an insert or delete of key shifts inside their bucket.
func batchAround(oracle map[uint64]uint64, key uint64, w int) []uint64 {
	ks, _ := oracleScan(oracle, 0, len(oracle))
	at := sort.Search(len(ks), func(i int) bool { return ks[i] >= key })
	var batch []uint64
	near := slices.Concat(ks[at:min(at+w, len(ks))], ks[max(at-w, 0):at])
	for _, k := range near {
		if k == key {
			continue
		}
		batch = append(batch, k)
		if _, ok := oracle[k+1]; !ok && k+1 != key {
			batch = append(batch, k+1)
		}
	}
	return batch
}

// sweepBatch checks GetBatch over every oracle key and its absent successor.
func sweepBatch(t *testing.T, d *core.DyTIS, oracle map[uint64]uint64, mode string, op int) {
	t.Helper()
	var batch []uint64
	for k := range oracle {
		batch = append(batch, k)
		if _, ok := oracle[k+1]; !ok {
			batch = append(batch, k+1)
		}
	}
	vals, found := d.GetBatch(batch, nil, nil)
	checkBatch(t, oracle, batch, vals, found, mode, op)
}

func checkBatch(t *testing.T, oracle map[uint64]uint64, batch, vals []uint64, found []bool, mode string, op int) {
	t.Helper()
	if len(vals) != len(batch) || len(found) != len(batch) {
		t.Fatalf("[%s] op %d: GetBatch of %d keys returned %d values, %d flags", mode, op, len(batch), len(vals), len(found))
	}
	for i, k := range batch {
		wv, wok := oracle[k]
		if found[i] != wok || (wok && vals[i] != wv) {
			t.Fatalf("[%s] op %d: GetBatch[%d] (%#x) = %d,%v, oracle %d,%v", mode, op, i, k, vals[i], found[i], wv, wok)
		}
	}
}

func FuzzDifferential(f *testing.F) {
	rec := func(op byte, key uint64, val byte) []byte {
		b := make([]byte, diffRecordLen)
		b[0] = op
		binary.BigEndian.PutUint64(b[1:9], key)
		b[9] = val
		return b
	}
	var mixed []byte
	for i := uint64(0); i < 30; i++ {
		mixed = append(mixed, rec(0, i*257, byte(i))...)
	}
	mixed = append(mixed, rec(3, 0, 15)...)
	mixed = append(mixed, rec(1, 5*257, 0)...)
	mixed = append(mixed, rec(4, 1<<40, 63)...)
	f.Add(mixed)
	f.Add(append(append(rec(0, 0, 1), rec(0, ^uint64(0), 2)...), rec(3, 0, 9)...))
	// Even keys, then batches that insert or delete an odd key after each
	// probe stage: after stage 5 an insert shifts the probed slots.
	var staged []byte
	for i := uint64(0); i < 40; i++ {
		staged = append(staged, rec(0, 2*i, byte(i+1))...)
	}
	for st := byte(0); st < 6; st++ {
		staged = append(staged, rec(5, 21+4*uint64(st), 2*st)...)
		staged = append(staged, rec(5, 20+4*uint64(st), 2*st+1)...)
	}
	f.Add(staged)

	f.Fuzz(func(t *testing.T, data []byte) {
		runDifferential(t, data, false)
		runDifferential(t, data, true)
	})
}
