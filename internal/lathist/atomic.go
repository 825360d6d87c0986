package lathist

import (
	"sync/atomic"
	"time"
)

// AtomicHist is a latency histogram safe for concurrent Record calls, with
// the same bucket layout as Hist. It backs the always-on observability path
// (internal/obs), where one histogram shard is shared by all goroutines
// hitting the same first-level EH table: Record is a handful of uncontended
// atomic adds, and readers fold shards into a plain Hist with AddTo.
//
// An AtomicHist is one pointer until its first Record or RecordN, which
// allocates the buckets. Arrays of histograms that most traffic never
// touches (one per opcode and shard) thus cost a word each, not ~15 KiB, and
// each recorded histogram's counters sit in their own allocation, so shards
// recorded from different goroutines do not share cache lines.
//
// The zero value is ready to use.
type AtomicHist struct {
	p atomic.Pointer[atomicHist]
}

// atomicHist is the state behind a recorded AtomicHist.
type atomicHist struct {
	counts [nBuckets]atomic.Uint64
	total  atomic.Uint64
	sum    atomic.Uint64
	max    atomic.Uint64
	// min stores the observed minimum plus one, so zero means "no
	// observations yet" and a recorded latency of 0 is representable.
	min atomic.Uint64
}

// state returns h's state, allocating it on first use.
func (h *AtomicHist) state() *atomicHist {
	if s := h.p.Load(); s != nil {
		return s
	}
	return h.alloc()
}

// alloc installs a fresh state unless one is already there. When goroutines
// race the first record, one CAS wins and every caller uses its state. It
// stays out of line so that state, which every Record runs, inlines.
//
//go:noinline
func (h *AtomicHist) alloc() *atomicHist {
	h.p.CompareAndSwap(nil, new(atomicHist))
	return h.p.Load()
}

// Record adds one latency observation. It is safe to call concurrently.
func (h *AtomicHist) Record(d time.Duration) { h.state().record(d, 1) }

// RecordN adds n identical latency observations in one shot — the batched
// form of Record (same cost as a single Record regardless of n), used by the
// batch entry points to book a whole batch's mean per-op latency without
// paying one Record per operation.
func (h *AtomicHist) RecordN(d time.Duration, n int) {
	if n <= 0 {
		return
	}
	h.state().record(d, uint64(n))
}

// record books c observations of d.
func (s *atomicHist) record(d time.Duration, c uint64) {
	v := uint64(d)
	if int64(d) < 0 {
		v = 0
	}
	s.counts[bucketOf(v)].Add(c)
	s.total.Add(c)
	s.sum.Add(v * c)
	for {
		cur := s.max.Load()
		if v <= cur || s.max.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := s.min.Load()
		if (cur != 0 && cur <= v+1) || s.min.CompareAndSwap(cur, v+1) {
			break
		}
	}
}

// Count returns the number of recorded observations.
func (h *AtomicHist) Count() uint64 {
	if s := h.p.Load(); s != nil {
		return s.total.Load()
	}
	return 0
}

// AddTo folds a snapshot of h into dst. Concurrent Record calls may or may
// not be included; the snapshot is not atomic across buckets, but every
// completed Record is eventually visible to a later AddTo.
func (h *AtomicHist) AddTo(dst *Hist) {
	s := h.p.Load()
	if s == nil || s.total.Load() == 0 {
		return
	}
	var snap Hist
	for i := range s.counts {
		c := s.counts[i].Load()
		snap.counts[i] = c
		snap.total += c
	}
	if snap.total == 0 {
		return
	}
	snap.sum = s.sum.Load()
	snap.max = s.max.Load()
	if m := s.min.Load(); m != 0 {
		snap.min = m - 1
	}
	dst.Merge(&snap)
}

// Reset clears the histogram and releases its buckets. Not safe to call
// concurrently with Record.
func (h *AtomicHist) Reset() { h.p.Store(nil) }
