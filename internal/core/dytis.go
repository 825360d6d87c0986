package core

import (
	"sync/atomic"
	"time"

	"dytis/internal/kv"
)

// DyTIS is the Dynamic dataset Targeted Index Structure: an ordered index
// over uint64 keys that supports search, insert (upsert), delete, and range
// scans, with no bulk-load/training phase. See the package comment for the
// design; options follow §4.1 of the paper.
//
// With Options.Concurrent, all operations are safe for concurrent use via
// the two-level locking scheme of §3.4; otherwise the index is the paper's
// single-threaded no-lock variant.
type DyTIS struct {
	opts       Options
	suffixBits uint8
	obs        Observer      // nil when observability is disabled
	obsBatch   BatchObserver // obs's batched hook, nil if not implemented
	ehs        []*eh
	closed     atomic.Bool // set by Close

	// probeHook, when set, runs after each of GetBatch's first six probe
	// stages. It is a test seam for mutating the index inside the probe's
	// seqlock window, and nil otherwise.
	probeHook func(stage int)
}

// New creates an empty DyTIS index.
func New(opts Options) *DyTIS {
	opts = opts.withDefaults()
	r := uint(opts.FirstLevelBits)
	d := &DyTIS{
		opts:       opts,
		suffixBits: uint8(64 - r),
		obs:        opts.Observer,
		ehs:        make([]*eh, 1<<r),
	}
	if ob, ok := opts.Observer.(BatchObserver); ok {
		d.obsBatch = ob
	}
	for i := range d.ehs {
		d.ehs[i] = newEH(uint64(i)<<d.suffixBits, d.suffixBits, &d.opts)
	}
	return d
}

func (d *DyTIS) ehOf(k uint64) *eh { return d.ehs[k>>d.suffixBits] }

// mustOpen panics when the index is closed: the legacy mutation paths have
// no error return, and silently applying (or dropping) a post-Close
// mutation would diverge the index from a write-ahead log in front of it.
// The panic message carries ErrClosed's text; batch paths return the error
// instead.
func (d *DyTIS) mustOpen(op string) {
	if d.closed.Load() {
		panic("dytis: " + op + ": " + ErrClosed.Error())
	}
}

// Insert stores or updates the value for key. It panics if the index has
// been closed (see Close; InsertBatch returns ErrClosed instead).
func (d *DyTIS) Insert(key, value uint64) {
	d.mustOpen("Insert")
	e := d.ehOf(key)
	if d.obs == nil {
		e.insert(key, value)
		return
	}
	t0 := time.Now()
	e.insert(key, value)
	d.obs.RecordOp(OpInsert, e.idx, time.Since(t0))
}

// Get returns the value for key and whether it exists.
func (d *DyTIS) Get(key uint64) (uint64, bool) {
	e := d.ehOf(key)
	if d.obs == nil {
		return e.get(key)
	}
	t0 := time.Now()
	v, ok := e.get(key)
	d.obs.RecordOp(OpGet, e.idx, time.Since(t0))
	return v, ok
}

// Delete removes key, reporting whether it was present. It panics if the
// index has been closed (see Close; DeleteBatch returns ErrClosed instead).
func (d *DyTIS) Delete(key uint64) bool {
	d.mustOpen("Delete")
	e := d.ehOf(key)
	if d.obs == nil {
		return e.delete(key)
	}
	t0 := time.Now()
	ok := e.delete(key)
	d.obs.RecordOp(OpDelete, e.idx, time.Since(t0))
	return ok
}

// Len returns the number of live keys.
func (d *DyTIS) Len() int {
	var n int64
	for _, e := range d.ehs {
		n += e.total.Load()
	}
	return int(n)
}

// Scan appends up to max pairs with key >= start, in ascending key order, to
// dst and returns the extended slice. It walks segment sibling chains within
// an EH and advances across first-level EH tables as ranges are exhausted.
// Under concurrency, the scan is not a point-in-time snapshot: each segment
// is read atomically (under its lock), but concurrent structural changes may
// hide keys inserted during the scan.
//
// Observability: a scan that crosses first-level EH tables records one
// per-shard OpScan span for each EH that contributed pairs (always including
// the starting EH, so empty scans are still counted), each with the time
// spent inside that EH — not the whole multi-EH latency against the starting
// key's shard.
func (d *DyTIS) Scan(start uint64, max int, dst []kv.KV) []kv.KV {
	if max <= 0 {
		return dst
	}
	first := int(start >> d.suffixBits)
	if d.obs == nil {
		for i := first; i < len(d.ehs); i++ {
			before := len(dst)
			dst = d.ehs[i].scan(start, max, dst)
			max -= len(dst) - before
			if max <= 0 {
				break
			}
		}
		return dst
	}
	for i := first; i < len(d.ehs); i++ {
		t0 := time.Now()
		before := len(dst)
		dst = d.ehs[i].scan(start, max, dst)
		took := len(dst) - before
		if took > 0 || i == first {
			d.obs.RecordOp(OpScan, i, time.Since(t0))
		}
		max -= took
		if max <= 0 {
			break
		}
	}
	return dst
}

// ScanFunc calls fn for every pair with key >= start, in ascending key
// order, until fn returns false. It is the zero-allocation visitor under
// Range and Cursor: pairs are passed straight out of the buckets with no
// intermediate []kv.KV buffer.
//
// In Concurrent mode fn runs while the current segment's read lock is held,
// so fn must return quickly and must not call back into the index (an
// Insert/Delete from inside fn can deadlock); the iteration observes each
// segment atomically but is not a point-in-time snapshot (same semantics as
// Scan, including the per-visited-EH OpScan attribution).
func (d *DyTIS) ScanFunc(start uint64, fn func(key, value uint64) bool) {
	first := int(start >> d.suffixBits)
	if d.obs == nil {
		for i := first; i < len(d.ehs); i++ {
			if !d.ehs[i].scanFunc(start, fn) {
				break
			}
		}
		return
	}
	visited := false
	wrapped := func(k, v uint64) bool {
		visited = true
		return fn(k, v)
	}
	for i := first; i < len(d.ehs); i++ {
		t0 := time.Now()
		visited = false
		more := d.ehs[i].scanFunc(start, wrapped)
		if visited || i == first {
			d.obs.RecordOp(OpScan, i, time.Since(t0))
		}
		if !more {
			break
		}
	}
}

// Range calls fn for every pair with key in [start, end], in ascending
// order, until fn returns false. It is ScanFunc with an end bound and shares
// its constraints: in Concurrent mode fn runs under the segment read lock
// and must not call back into the index.
func (d *DyTIS) Range(start, end uint64, fn func(key, value uint64) bool) {
	if end < start {
		return
	}
	d.ScanFunc(start, func(k, v uint64) bool {
		return k <= end && fn(k, v)
	})
}

// Stats aggregates the maintenance-operation counters of every EH table;
// Durations cover the same operations and feed the §4.3 insertion-breakdown
// experiment.
type Stats struct {
	Splits, Remaps, Expansions, Doublings, RemapFailures, Shrinks int64
	SplitNS, RemapNS, ExpandNS, DoubleNS, ShrinkNS                int64
	Segments, Buckets                                             int
	DirEntries                                                    int
	AdaptiveEHs                                                   int // EHs running with the raised Limit_seg
}

// Stats snapshots the maintenance counters. It is safe to call concurrently
// with operations, but the snapshot is not atomic across EHs.
func (d *DyTIS) Stats() Stats {
	var st Stats
	for _, e := range d.ehs {
		st.Splits += e.stats.splits.Load()
		st.Remaps += e.stats.remaps.Load()
		st.Expansions += e.stats.expansions.Load()
		st.Doublings += e.stats.doublings.Load()
		st.RemapFailures += e.stats.remapFails.Load()
		st.Shrinks += e.stats.shrinks.Load()
		st.SplitNS += e.stats.splitNS.Load()
		st.RemapNS += e.stats.remapNS.Load()
		st.ExpandNS += e.stats.expandNS.Load()
		st.DoubleNS += e.stats.doubleNS.Load()
		st.ShrinkNS += e.stats.shrinkNS.Load()
		if int(e.limitMult.Load()) != d.opts.SegLimitMult {
			st.AdaptiveEHs++
		}
		if e.conc {
			e.mu.RLock()
		}
		st.DirEntries += len(e.dir)
		e.forEachSegment(func(s *segment) {
			// e.mu excludes directory rewrites, but remap/expand rewrite a
			// segment's bucket geometry under only s.mu (insert drops the EH
			// lock before restructuring), so nb is only stable under s.mu.
			if e.conc {
				s.mu.RLock()
			}
			st.Segments++
			st.Buckets += s.nb
			if e.conc {
				s.mu.RUnlock()
			}
		})
		if e.conc {
			e.mu.RUnlock()
		}
	}
	return st
}

// MemoryFootprint estimates the index's heap usage in bytes: directory
// pointers plus per-segment key/value/occupancy arrays and metadata. It is
// used by the §4.3 memory-usage comparison.
func (d *DyTIS) MemoryFootprint() int64 {
	var b int64
	for _, e := range d.ehs {
		if e.conc {
			e.mu.RLock()
		}
		b += int64(len(e.dir)) * 8
		e.forEachSegment(func(s *segment) {
			// nb and cnt are rewritten by remap/expand under only s.mu; see
			// the matching lock in Stats.
			if e.conc {
				s.mu.RLock()
			}
			b += int64(s.nb*s.bcap)*16 + int64(s.nb)*2 + int64(len(s.cnt))*8 + 96
			if e.conc {
				s.mu.RUnlock()
			}
		})
		if e.conc {
			e.mu.RUnlock()
		}
	}
	return b
}

// checkInvariants validates directory run-tiling and every segment; used by
// tests. The run-tiling check (each segment owns exactly the aligned
// 2^(gd-ld) directory entries derived from its depth, and the runs tile the
// directory) is precisely the precondition of the stride walk that Stats,
// MemoryFootprint, and maxPair rely on to visit each segment once.
//
//dytis:nolockcheck
func (d *DyTIS) checkInvariants() error {
	for _, e := range d.ehs {
		for i := 0; i < len(e.dir); {
			s := e.dir[i]
			if s.ld > e.gd {
				return errf("segment ld=%d exceeds gd=%d", s.ld, e.gd)
			}
			span := 1 << (e.gd - s.ld)
			if i%span != 0 {
				return errf("segment run at dir[%d] not aligned to span %d", i, span)
			}
			for j := i; j < i+span; j++ {
				if e.dir[j] != s {
					return errf("segment run interrupted at dir[%d] (run started at %d, span %d)", j, i, span)
				}
			}
			if err := s.checkInvariants(); err != nil {
				return err
			}
			i += span
		}
	}
	return nil
}
