// Package lathist provides a log-linear latency histogram of fixed bucket
// layout used by the benchmark harness to report average and tail (p99,
// p99.99) latencies, the metrics Table 2 of the DyTIS paper reports. A Hist
// is ~15 KiB of buckets; an AtomicHist is one pointer until its first
// Record allocates them.
//
// Values are recorded in nanoseconds. Buckets are organized as 64 powers of
// two, each subdivided into 32 linear sub-buckets, giving a worst-case
// quantile error of ~3% — more than enough resolution to reproduce the
// paper's latency tables.
package lathist

import (
	"fmt"
	"math/bits"
	"time"
)

const (
	subBits  = 5
	subCount = 1 << subBits // linear sub-buckets per power of two
	// Exponents run 5..63; plus the 32 exact unit buckets for v < 32.
	nBuckets = (64 - subBits + 1) * subCount
)

// Hist is a latency histogram. The zero value is ready to use.
// Hist is not safe for concurrent use; give each worker its own Hist and
// Merge them.
type Hist struct {
	counts [nBuckets]uint64
	total  uint64
	sum    uint64
	max    uint64
	min    uint64
}

func bucketOf(v uint64) int {
	if v < subCount {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // >= subBits
	sub := (v >> (uint(exp) - subBits)) & (subCount - 1)
	return (exp-subBits+1)*subCount + int(sub)
}

// lowerBound returns the smallest value mapping into bucket b.
func lowerBound(b int) uint64 {
	if b < subCount {
		return uint64(b)
	}
	exp := b/subCount + subBits - 1
	sub := uint64(b % subCount)
	return (1 << uint(exp)) | (sub << (uint(exp) - subBits))
}

// Record adds one latency observation.
func (h *Hist) Record(d time.Duration) {
	v := uint64(d)
	if int64(d) < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	h.total++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	if h.total == 1 || v < h.min {
		h.min = v
	}
}

// RecordN adds n identical latency observations in one shot. It is the
// batched form of Record used when a caller times a whole batch and books
// the mean per-op latency for each of its n operations.
func (h *Hist) RecordN(d time.Duration, n int) {
	if n <= 0 {
		return
	}
	v := uint64(d)
	if int64(d) < 0 {
		v = 0
	}
	c := uint64(n)
	h.counts[bucketOf(v)] += c
	if h.total == 0 || v < h.min {
		h.min = v
	}
	h.total += c
	h.sum += v * c
	if v > h.max {
		h.max = v
	}
}

// Merge adds all observations of o into h.
func (h *Hist) Merge(o *Hist) {
	if o.total == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.total == 0 || o.min < h.min {
		h.min = o.min
	}
	h.total += o.total
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Count returns the number of recorded observations.
func (h *Hist) Count() uint64 { return h.total }

// Mean returns the average latency, or 0 if empty.
func (h *Hist) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.sum / h.total)
}

// Max returns the largest recorded latency.
func (h *Hist) Max() time.Duration { return time.Duration(h.max) }

// Min returns the smallest recorded latency.
func (h *Hist) Min() time.Duration { return time.Duration(h.min) }

// Quantile returns the latency at quantile q in [0,1]. It returns the lower
// bound of the bucket containing the q-th observation; for q>=1 it returns
// Max().
func (h *Hist) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q >= 1 {
		return time.Duration(h.max)
	}
	if q < 0 {
		q = 0
	}
	rank := uint64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var cum uint64
	for b, c := range h.counts {
		cum += c
		if cum > rank {
			return time.Duration(lowerBound(b))
		}
	}
	return time.Duration(h.max)
}

// Sum returns the total of all recorded latencies in nanoseconds.
func (h *Hist) Sum() uint64 { return h.sum }

// Reset clears the histogram.
func (h *Hist) Reset() { *h = Hist{} }

// String summarizes the histogram in the paper's avg/p99/p99.99 format.
func (h *Hist) String() string {
	return fmt.Sprintf("avg=%v p99=%v p99.99=%v max=%v n=%d",
		h.Mean(), h.Quantile(0.99), h.Quantile(0.9999), h.Max(), h.Count())
}
