package core

import (
	"testing"
	"time"
)

// TestLockedFallbackWaitsForWriter pins the read path that remains after
// the optimistic retries: with one segment's write lock held (its seqlock
// version odd), Get and GetBatch of a key in it cannot validate, so they
// must fall back to the §3.4 locked read and block there, not answer from
// a torn or stale probe. Once the writer stores a new value and unlocks,
// both must return that value.
func TestLockedFallbackWaitsForWriter(t *testing.T) {
	d := New(Options{Concurrent: true})
	const k = 0x1234_5678_9abc_def0
	for i := uint64(0); i < 1000; i++ {
		d.Insert(k+i, i)
	}

	e := d.ehOf(k)
	e.mu.RLock()
	s := e.dir[e.dirIndex(k)]
	s.wlock()
	e.mu.RUnlock()

	type answer struct {
		v  uint64
		ok bool
	}
	get, batch := make(chan answer, 1), make(chan answer, 1)
	go func() {
		v, ok := d.Get(k)
		get <- answer{v, ok}
	}()
	go func() {
		vals, found := d.GetBatch([]uint64{k}, nil, nil)
		batch <- answer{vals[0], found[0]}
	}()

	// Far longer than optimisticRetries probes take: a read still out is
	// waiting on the segment lock.
	time.Sleep(100 * time.Millisecond)
	select {
	case a := <-get:
		t.Fatalf("Get returned %+v while the segment was write-locked", a)
	case a := <-batch:
		t.Fatalf("GetBatch returned %+v while the segment was write-locked", a)
	default:
	}

	bi, pos, exists, _ := s.findSlot(k)
	if !exists {
		t.Fatal("key missing from its segment")
	}
	s.vals[bi*s.bcap+pos] = 42
	s.wunlock()

	for name, ch := range map[string]chan answer{"Get": get, "GetBatch": batch} {
		select {
		case a := <-ch:
			if !a.ok || a.v != 42 {
				t.Errorf("%s = %+v after the write, want {v:42 ok:true}", name, a)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s still blocked after the writer unlocked", name)
		}
	}
}
