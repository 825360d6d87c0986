package lathist

import (
	"sync"
	"testing"
	"time"
	"unsafe"
)

// TestAtomicHistMatchesHist records the same stream into both histogram
// flavors and checks every exported statistic agrees.
func TestAtomicHistMatchesHist(t *testing.T) {
	var a AtomicHist
	var h Hist
	durs := []time.Duration{0, 1, 31, 32, 33, 100, 1000, 12345, 1 << 30, -5}
	for _, d := range durs {
		a.Record(d)
		h.Record(d)
	}
	var got Hist
	a.AddTo(&got)
	if got.Count() != h.Count() || got.Sum() != h.Sum() {
		t.Fatalf("count/sum mismatch: got n=%d sum=%d, want n=%d sum=%d",
			got.Count(), got.Sum(), h.Count(), h.Sum())
	}
	if got.Min() != h.Min() || got.Max() != h.Max() {
		t.Fatalf("min/max mismatch: got [%v,%v], want [%v,%v]", got.Min(), got.Max(), h.Min(), h.Max())
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		if got.Quantile(q) != h.Quantile(q) {
			t.Fatalf("quantile %g mismatch: %v vs %v", q, got.Quantile(q), h.Quantile(q))
		}
	}
}

// TestAtomicHistZeroMin checks the min+1 encoding represents a true zero.
func TestAtomicHistZeroMin(t *testing.T) {
	var a AtomicHist
	a.Record(5)
	a.Record(0)
	var got Hist
	a.AddTo(&got)
	if got.Min() != 0 {
		t.Fatalf("min = %v, want 0", got.Min())
	}
}

// TestAtomicHistEmptyAddTo checks an empty shard leaves the destination
// untouched (in particular its min).
func TestAtomicHistEmptyAddTo(t *testing.T) {
	var a AtomicHist
	var dst Hist
	dst.Record(7)
	a.AddTo(&dst)
	if dst.Count() != 1 || dst.Min() != 7 {
		t.Fatalf("empty AddTo changed dst: n=%d min=%v", dst.Count(), dst.Min())
	}
}

// TestAtomicHistConcurrent hammers one shard from many goroutines; run with
// -race this verifies Record is data-race free, and the final count must be
// exact because every path is atomic.
func TestAtomicHistConcurrent(t *testing.T) {
	var a AtomicHist
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				a.Record(time.Duration(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	var got Hist
	a.AddTo(&got)
	if got.Count() != workers*per {
		t.Fatalf("count = %d, want %d", got.Count(), workers*per)
	}
	if got.Min() != 0 || got.Max() != workers*per-1 {
		t.Fatalf("min/max = %v/%v, want 0/%d", got.Min(), got.Max(), workers*per-1)
	}
}

// TestAtomicHistIsOnePointer pins the unrecorded footprint: an AtomicHist
// is one word until its first Record allocates the buckets.
func TestAtomicHistIsOnePointer(t *testing.T) {
	if got, want := unsafe.Sizeof(AtomicHist{}), unsafe.Sizeof(uintptr(0)); got != want {
		t.Fatalf("sizeof(AtomicHist) = %d, want %d", got, want)
	}
}

// TestAtomicHistNeverRecorded checks the read side on a histogram that has
// no state yet, and after Reset released it.
func TestAtomicHistNeverRecorded(t *testing.T) {
	var a AtomicHist
	for _, phase := range []string{"zero", "reset"} {
		if a.Count() != 0 {
			t.Fatalf("%s: count = %d, want 0", phase, a.Count())
		}
		var dst Hist
		dst.Record(7)
		a.AddTo(&dst)
		if dst.Count() != 1 || dst.Min() != 7 || dst.Max() != 7 {
			t.Fatalf("%s: AddTo changed dst: n=%d min=%v max=%v", phase, dst.Count(), dst.Min(), dst.Max())
		}
		a.Reset()
		if a.p.Load() != nil {
			t.Fatalf("%s: Reset left a state behind", phase)
		}
		a.Record(3)
		a.Reset()
	}
	a.RecordN(5, 0)
	if a.p.Load() != nil {
		t.Fatal("RecordN of zero observations allocated")
	}
}

// TestAtomicHistRacingFirstRecord starts goroutines on a fresh histogram at
// once, so their first Records race to install the state: exactly one state
// must remain and no observation may land in a discarded one.
func TestAtomicHistRacingFirstRecord(t *testing.T) {
	const workers, per = 8, 100
	for round := 0; round < 50; round++ {
		var a AtomicHist
		var ready, wg sync.WaitGroup
		start := make(chan struct{})
		seen := make([]*atomicHist, workers)
		for w := 0; w < workers; w++ {
			ready.Add(1)
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ready.Done()
				<-start
				a.Record(time.Duration(w + 1))
				seen[w] = a.p.Load()
				a.RecordN(time.Duration(w+1), per-1)
			}(w)
		}
		ready.Wait()
		close(start)
		wg.Wait()
		final := a.p.Load()
		for w, s := range seen {
			if s != final {
				t.Fatalf("round %d: worker %d saw state %p after its first Record, final is %p", round, w, s, final)
			}
		}
		var got Hist
		a.AddTo(&got)
		if got.Count() != workers*per {
			t.Fatalf("round %d: count = %d, want %d", round, got.Count(), workers*per)
		}
		if got.Min() != 1 || got.Max() != workers {
			t.Fatalf("round %d: min/max = %v/%v, want 1/%d", round, got.Min(), got.Max(), workers)
		}
	}
}
