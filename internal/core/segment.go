package core

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// segment is the unit of remapping: it covers a contiguous key range of
// width 2^rangeBits starting at base, and owns nb buckets of bcap key/value
// pairs each. A piecewise-linear remapping function — 2^pbits equal-width
// sub-ranges, sub-range j owning cnt[j] buckets starting at start[j] — maps a
// key's offset in the range to a bucket index. The function is the segment's
// scaled approximate CDF: it is monotone and continuous, so iterating buckets
// in index order yields keys in sorted order.
//
// The segment object's identity is stable for the lifetime of its key range:
// remapping and expansion swap the arrays inside the object (under the
// segment lock), while splits create new segment objects (under the EH lock),
// mirroring §3.4 of the paper.
type segment struct {
	mu   sync.RWMutex
	next atomic.Pointer[segment] // sibling pointer for scans

	// seq is the seqlock version for optimistic readers: wlock/wunlock keep
	// it odd exactly while a writer holds mu (Concurrent mode), and split
	// retirement leaves it permanently odd (both modes, so "retired ⟺ odd"
	// is mode-independent). Single-threaded operation never takes locks and
	// never bumps it, keeping that mode zero-overhead.
	seq atomic.Uint64
	// pub is the last adopted bucket layout, republished by adoptLayout (and
	// construction) so an optimistic reader obtains mutually-consistent
	// array headers from a single load. In-place mutators write through the
	// same backing arrays, so a published layout tracks the live contents;
	// only a wholesale array swap (adoptLayout) makes it stale, and the
	// seqlock version rejects any probe that raced one.
	pub atomic.Pointer[layout]

	ld        uint8  // local depth
	rangeBits uint8  // log2 of covered key-range width
	base      uint64 // first key covered (full-key space, aligned)

	pbits uint8    // guarded-by: mu; log2 of the number of remapping sub-ranges
	cnt   []uint32 // guarded-by: mu; buckets owned by each sub-range
	start []uint32 // guarded-by: mu; prefix sums; len(cnt)+1, start[len(cnt)] == nb

	nb       int      // guarded-by: mu; total buckets
	bcap     int      // entries per bucket (immutable)
	expanded bool     // guarded-by: mu; whether this segment has undergone an expansion
	keys     []uint64 // guarded-by: mu
	vals     []uint64 // guarded-by: mu
	sz       []uint16 // guarded-by: mu; per-bucket occupancy
	total    int      // guarded-by: mu

	// fk caches each bucket's first key; empty buckets carry the first key
	// of the nearest non-empty bucket to their RIGHT (fkSentinel past the
	// last). fk is therefore globally non-decreasing, which turns the
	// which-bucket-holds-k question into a binary search instead of a walk
	// over (possibly long) spill runs.
	fk []uint64 // guarded-by: mu
}

const fkSentinel = ^uint64(0)

// layout is an immutable snapshot of a segment's swappable geometry: the
// remapping function and the bucket arrays, captured together so a lock-free
// probe indexes mutually-consistent lengths (keys/vals are nb*bcap long, sz
// and fk are nb long, start is len(cnt)+1) no matter how stale the snapshot
// is. Element values may lag behind the live segment; the seqlock version
// decides whether a probe's view was consistent.
type layout struct {
	pbits uint8
	cnt   []uint32
	start []uint32
	nb    int
	keys  []uint64
	vals  []uint64
	sz    []uint16
	fk    []uint64
}

// publish snapshots the current geometry for optimistic readers. Every site
// that swaps the arrays (adoptLayout, construction) must republish before
// releasing the write lock.
//
//dytis:locked s.mu w
func (s *segment) publish() {
	s.pub.Store(&layout{
		pbits: s.pbits, cnt: s.cnt, start: s.start, nb: s.nb,
		keys: s.keys, vals: s.vals, sz: s.sz, fk: s.fk,
	})
}

// wlock acquires the write lock and makes the seqlock version odd, telling
// optimistic readers that concurrently-probed state may be inconsistent.
// Writers in Concurrent mode must pair it with wunlock instead of touching
// mu directly; single-threaded mode takes no locks at all.
//
//dytis:locks s.mu w
func (s *segment) wlock() {
	s.mu.Lock()
	s.seq.Add(1)
}

// wunlock makes the seqlock version even again and releases the write lock.
//
//dytis:locked s.mu w
//dytis:unlocks s.mu
func (s *segment) wunlock() {
	s.seq.Add(1)
	s.mu.Unlock()
}

// retired reports whether the segment has been replaced by a split. The
// caller must hold mu (either mode): no writer can then be mid-critical-
// section, so an odd version can only mean the permanent retirement bump.
//
//dytis:locked s.mu r
func (s *segment) retired() bool { return s.seq.Load()&1 == 1 }

// newSegment allocates a segment with a uniform (identity-CDF) remapping
// function: every sub-range owns an equal share of the buckets.
func newSegment(ld, rangeBits uint8, base uint64, nb, bcap int, pbits uint8) *segment {
	if nb < 1 {
		nb = 1
	}
	if uint8(bits.Len(uint(nb))) <= pbits { // need 2^pbits <= nb for a sensible start
		pbits = uint8(bits.Len(uint(nb)) - 1)
	}
	if pbits > rangeBits {
		pbits = rangeBits
	}
	nsub := 1 << pbits
	cnt := make([]uint32, nsub)
	evenSplit(cnt, nb)
	s := &segment{
		ld: ld, rangeBits: rangeBits, base: base,
		pbits: pbits, cnt: cnt,
		nb: nb, bcap: bcap,
		keys: make([]uint64, nb*bcap),
		vals: make([]uint64, nb*bcap),
		sz:   make([]uint16, nb),
		fk:   make([]uint64, nb),
	}
	for j := range s.fk {
		s.fk[j] = fkSentinel
	}
	s.start = prefixSums(cnt)
	s.publish()
	return s
}

// evenSplit distributes total across dst as evenly as possible.
func evenSplit(dst []uint32, total int) {
	n := len(dst)
	q, r := total/n, total%n
	for i := range dst {
		dst[i] = uint32(q)
		if i < r {
			dst[i]++
		}
	}
}

func prefixSums(cnt []uint32) []uint32 {
	out := make([]uint32, len(cnt)+1)
	for i, c := range cnt {
		out[i+1] = out[i] + c
	}
	return out
}

// width returns the covered key-range width. rangeBits can be up to 55
// (64 - R - 0), so the width always fits in a uint64.
func (s *segment) width() uint64 { return 1 << s.rangeBits }

// predictWith evaluates a remapping function described by (pbits, cnt,
// start) over nb buckets for the key offset r in [0, 2^rangeBits).
func predictWith(r uint64, rangeBits, pbits uint8, cnt, start []uint32, nb int) int {
	shift := rangeBits - pbits
	j := int(r >> shift)
	within := r & (1<<shift - 1)
	c := uint64(cnt[j])
	// floor(within * c / 2^shift), exact via 128-bit intermediate.
	hi, lo := bits.Mul64(within, c)
	var q uint64
	if hi == 0 {
		q = lo >> shift
	} else {
		q = hi<<(64-shift) | lo>>shift
	}
	bi := int(start[j]) + int(q)
	if bi >= nb {
		bi = nb - 1
	}
	return bi
}

// predict returns the bucket index the remapping function assigns to key k.
//
//dytis:locked s.mu r
func (s *segment) predict(k uint64) int {
	return predictWith(k-s.base, s.rangeBits, s.pbits, s.cnt, s.start, s.nb)
}

// subRangeOf returns the sub-range index containing key k.
//
//dytis:locked s.mu r
func (s *segment) subRangeOf(k uint64) int {
	return int((k - s.base) >> (s.rangeBits - s.pbits))
}

//dytis:locked s.mu r
func (s *segment) bucketKeys(bi int) []uint64 {
	off := bi * s.bcap
	return s.keys[off : off+int(s.sz[bi])]
}

//dytis:locked s.mu r
func (s *segment) firstKey(bi int) uint64 { return s.keys[bi*s.bcap] }

//dytis:locked s.mu r
func (s *segment) nextNonEmpty(bi int) int {
	for j := bi + 1; j < s.nb; j++ {
		if s.sz[j] > 0 {
			return j
		}
	}
	return -1
}

//dytis:locked s.mu r
func (s *segment) firstNonEmpty() int {
	for j := 0; j < s.nb; j++ {
		if s.sz[j] > 0 {
			return j
		}
	}
	return -1
}

// util returns the segment's utilization U_s.
//
//dytis:locked s.mu r
func (s *segment) util() float64 {
	return float64(s.total) / float64(s.nb*s.bcap)
}

// findSlot locates key k. It returns the bucket and in-bucket position where
// k lives (exists=true) or should be inserted (exists=false). If the key is
// absent and every admissible bucket is full, full=true and bi names the
// overflowing bucket (pos is -1); the caller must run the Algorithm-1
// maintenance path and retry.
//
// The search is seeded by the remapping function's prediction and then
// corrected by walking over the (globally sorted) bucket sequence, the
// last-mile search step shared with learned indexes; inside the bucket,
// bucketLowerBound seeds again from the bucket's own key bounds.
//
//dytis:locked s.mu r
func (s *segment) findSlot(k uint64) (bi, pos int, exists, full bool) {
	p := s.predict(k)
	if s.total == 0 {
		return p, 0, false, false
	}
	c := s.candidate(k, p)
	if c < 0 {
		// k precedes every key in the segment.
		f := s.firstNonEmpty()
		switch {
		case p < f:
			return p, 0, false, false // empty bucket at the prediction
		case int(s.sz[f]) < s.bcap:
			return f, 0, false, false // prepend into the first bucket
		case f > 0:
			return f - 1, 0, false, false // empty bucket just before it
		default:
			return f, -1, false, true
		}
	}
	ks := s.bucketKeys(c)
	i := bucketLowerBound(ks, k, s.fk[c], nextFK(s.fk, c))
	if i < len(ks) && ks[i] == k {
		return c, i, true, false
	}
	if i < len(ks) {
		// k belongs strictly inside bucket c.
		return c, i, false, len(ks) == s.bcap
	}
	// k falls in the gap after bucket c. Any bucket in [c, next) preserves
	// order; prefer the predicted one, then space in c, then an adjacent
	// empty bucket, then the head of the next bucket.
	n := s.nextNonEmpty(c)
	hi := s.nb - 1
	if n >= 0 {
		hi = n - 1
	}
	if e := clampInt(p, c, hi); e > c {
		return e, 0, false, false
	}
	switch {
	case len(ks) < s.bcap:
		return c, len(ks), false, false
	case c+1 <= hi:
		return c + 1, 0, false, false
	case n >= 0 && int(s.sz[n]) < s.bcap:
		return n, 0, false, false
	default:
		return c, -1, false, true
	}
}

// candidate returns the last non-empty bucket whose first key is <= k (-1 if
// none), by exponential search over the non-decreasing fk cache seeded at
// the predicted bucket p.
//
//dytis:locked s.mu r
func (s *segment) candidate(k uint64, p int) int {
	return candidateIn(s.fk, s.sz, s.nb, k, p)
}

// candidateIn is candidate over explicit arrays, shared between the locked
// probe and the lock-free layout probe (lookupIn). fk and sz must have at
// least nb entries and p must be in [0, nb).
func candidateIn(fk []uint64, sz []uint16, nb int, k uint64, p int) int {
	// Find the first bucket j with fk[j] > k, galloping out from p.
	var lo, hi int
	if fk[p] > k {
		step := 1
		hi = p
		lo = p
		for lo > 0 && fk[lo] > k {
			hi = lo
			lo -= step
			step <<= 1
		}
		if lo < 0 {
			lo = 0
		}
		if fk[lo] > k && lo == 0 {
			hi = 0
		}
	} else {
		step := 1
		lo = p
		hi = p + 1
		for hi < nb && fk[hi] <= k {
			lo = hi
			hi += step
			step <<= 1
		}
		if hi > nb {
			hi = nb
		}
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if fk[mid] > k {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	c := hi - 1
	// c can only be empty when k equals the sentinel (trailing empties);
	// walk left to the real bucket.
	for c >= 0 && sz[c] == 0 {
		c--
	}
	return c
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// get returns the value for k.
//
//dytis:locked s.mu r
func (s *segment) get(k uint64) (uint64, bool) {
	bi, pos, exists, _ := s.findSlot(k)
	if !exists {
		return 0, false
	}
	return s.vals[bi*s.bcap+pos], true
}

// nextFK returns the exclusive upper bound of bucket c's keys: the next
// bucket's cached first key, or fkSentinel past the last bucket.
func nextFK(fk []uint64, c int) uint64 {
	if c+1 < len(fk) {
		return fk[c+1]
	}
	return fkSentinel
}

// bucketLowerBound returns the first index i in [0, len(ks)] with
// ks[i] >= k, the in-bucket search of every point probe. [lo, hi) are the
// bucket's key bounds (fk[c] and nextFK), and the remapping model spreads a
// bucket's keys near-uniformly across them, so linear interpolation seeds a
// position that is usually within a slot or two of the answer; a gallop out
// from the seed then brackets it and a binary search finishes, bounding the
// worst case at about 2·log2(len(ks)) probes.
//
// It is total on any input — the lock-free probe can hand it torn bounds
// (k >= hi, lo >= hi) and a mid-shift, unsorted ks — so k is clamped into
// [lo, hi) before the division (which then cannot overflow) and every index
// stays in [0, len(ks)]. On sorted ks the result is exact whatever lo and
// hi are: the bounds only choose where the search starts.
func bucketLowerBound(ks []uint64, k, lo, hi uint64) int {
	n := len(ks)
	if n == 0 {
		return 0
	}
	p := 0
	switch {
	case hi <= lo || k <= lo:
	case k >= hi:
		p = n - 1
	default:
		// (k-lo)*n/(hi-lo) < n because k-lo < hi-lo.
		h, l := bits.Mul64(k-lo, uint64(n))
		q, _ := bits.Div64(h, l, hi-lo)
		p = int(q)
	}
	var a, b int // the answer lies in [a, b]
	if ks[p] < k {
		a, b = p+1, n
		for step := 1; p+step < n; step <<= 1 {
			if ks[p+step] >= k {
				b = p + step
				break
			}
			a = p + step + 1
		}
	} else {
		a, b = 0, p
		for step := 1; p-step >= 0; step <<= 1 {
			if ks[p-step] < k {
				a = p - step + 1
				break
			}
			b = p - step
		}
	}
	for a < b {
		m := int(uint(a+b) >> 1)
		if ks[m] < k {
			a = m + 1
		} else {
			b = m
		}
	}
	return a
}

// slotIn returns the index into l.keys/l.vals of k within bucket c of the
// published layout l, or -1 when the bucket does not hold k. The racy
// occupancy read is clamped to bcap, so the slice stays in bounds whatever
// the probe raced.
//
//dytis:seqlocked
func (s *segment) slotIn(l *layout, c int, k uint64) int {
	n := int(l.sz[c])
	if n > s.bcap {
		n = s.bcap
	}
	off := c * s.bcap
	ks := l.keys[off : off+n]
	if i := bucketLowerBound(ks, k, l.fk[c], nextFK(l.fk, c)); i < n && ks[i] == k {
		return off + i
	}
	return -1
}

// lookupIn runs the predict→candidate→in-bucket point probe against one
// published layout without holding the segment lock. Buckets are globally
// sorted and fk is right-filled, so a key can only live in the candidate
// bucket; no gap handling is needed. Any interleaving with writers still
// yields bounded indexes — headers within one layout are mutually consistent
// and slotIn clamps the racy occupancy read — so the probe cannot fault; the
// caller validates the seqlock version afterward and discards the result on
// conflict. DyTIS.GetBatch runs the same stages over a group of keys.
//
//dytis:seqlocked
func (s *segment) lookupIn(l *layout, k uint64) (uint64, bool) {
	p := predictWith(k-s.base, s.rangeBits, l.pbits, l.cnt, l.start, l.nb)
	c := candidateIn(l.fk, l.sz, l.nb, k, p)
	if c < 0 {
		return 0, false
	}
	if j := s.slotIn(l, c, k); j >= 0 {
		return l.vals[j], true
	}
	return 0, false
}

// tryGet is one optimistic point-lookup attempt: version check, lock-free
// probe, version re-check. valid=false means the probe raced a writer or the
// segment is retired; the caller retries through a fresher directory
// snapshot or falls back to the locked path. Under the race detector the
// lock-free element reads would be reported (the seqlock protocol is
// formally racy by design), so race builds validate the snapshot/retirement
// half of the protocol under the segment read lock instead; see race_off.go.
//
//dytis:seqlocked
func (s *segment) tryGet(k uint64) (v uint64, ok, valid bool) {
	if raceEnabled {
		s.mu.RLock()
		if s.retired() {
			s.mu.RUnlock()
			return 0, false, false
		}
		v, ok = s.get(k)
		s.mu.RUnlock()
		return v, ok, true
	}
	v1 := s.seq.Load()
	if v1&1 != 0 {
		return 0, false, false // writer active, or segment retired
	}
	l := s.pub.Load()
	v, ok = s.lookupIn(l, k)
	if s.seq.Load() != v1 {
		return 0, false, false // raced a writer; discard
	}
	return v, ok, true
}

// insertAt places (k,v) at bucket bi, position pos, shifting larger entries.
// The bucket must have room.
//
//dytis:locked s.mu w
func (s *segment) insertAt(bi, pos int, k, v uint64) {
	off := bi * s.bcap
	n := int(s.sz[bi])
	copy(s.keys[off+pos+1:off+n+1], s.keys[off+pos:off+n])
	copy(s.vals[off+pos+1:off+n+1], s.vals[off+pos:off+n])
	s.keys[off+pos] = k
	s.vals[off+pos] = v
	s.sz[bi]++
	s.total++
	if pos == 0 {
		s.refreshFK(bi, k)
	}
}

// refreshFK records bucket bi's new first key and propagates it left across
// the empty-bucket run that mirrors it.
//
//dytis:locked s.mu w
func (s *segment) refreshFK(bi int, first uint64) {
	s.fk[bi] = first
	for m := bi - 1; m >= 0 && s.sz[m] == 0; m-- {
		s.fk[m] = first
	}
}

// removeAt deletes the entry at bucket bi, position pos.
//
//dytis:locked s.mu w
func (s *segment) removeAt(bi, pos int) {
	off := bi * s.bcap
	n := int(s.sz[bi])
	copy(s.keys[off+pos:off+n-1], s.keys[off+pos+1:off+n])
	copy(s.vals[off+pos:off+n-1], s.vals[off+pos+1:off+n])
	s.sz[bi]--
	s.total--
	if pos == 0 {
		nf := uint64(fkSentinel)
		if s.sz[bi] > 0 {
			nf = s.keys[off]
		} else if bi+1 < s.nb {
			nf = s.fk[bi+1]
		}
		s.refreshFK(bi, nf)
	}
}

// makeRoom frees one slot in full bucket bi by cascading a boundary element
// into the nearest bucket with space, at most `limit` buckets away. Global
// sorted order is preserved: only run-edge elements move to the adjacent
// bucket. Used in the degenerate-cluster regime (directory at the depth
// guard) where rebuilding the segment for every few boundary inserts would
// be quadratic.
//
//dytis:locked s.mu w
func (s *segment) makeRoom(bi, limit int) bool {
	r, l := -1, -1
	for j := bi + 1; j < s.nb && j <= bi+limit; j++ {
		if int(s.sz[j]) < s.bcap {
			r = j
			break
		}
	}
	for j := bi - 1; j >= 0 && j >= bi-limit; j-- {
		if int(s.sz[j]) < s.bcap {
			l = j
			break
		}
	}
	switch {
	case r >= 0 && (l < 0 || r-bi <= bi-l):
		for j := r; j > bi; j-- {
			s.moveLastToFront(j-1, j)
		}
		return true
	case l >= 0:
		for j := l; j < bi; j++ {
			s.moveFirstToEnd(j+1, j)
		}
		return true
	}
	return false
}

// moveLastToFront moves bucket a's largest pair to the front of bucket b
// (a < b, b has room).
//
//dytis:locked s.mu w
func (s *segment) moveLastToFront(a, b int) {
	n := int(s.sz[a])
	off := a*s.bcap + n - 1
	k, v := s.keys[off], s.vals[off]
	s.sz[a]--
	s.total--
	if s.sz[a] == 0 {
		nf := uint64(fkSentinel)
		if a+1 < s.nb {
			nf = s.fk[a+1]
		}
		s.refreshFK(a, nf)
	}
	// insertAt refreshes fk[b] and re-propagates over a if it emptied.
	s.insertAt(b, 0, k, v)
}

// moveFirstToEnd moves bucket a's smallest pair to the end of bucket b
// (b < a, b has room).
//
//dytis:locked s.mu w
func (s *segment) moveFirstToEnd(a, b int) {
	k, v := s.keys[a*s.bcap], s.vals[a*s.bcap]
	s.removeAt(a, 0)
	s.insertAt(b, int(s.sz[b]), k, v)
}

// visit calls fn for each pair from (bi, pos) to the end of the segment, in
// ascending order, returning false if fn stopped the iteration.
//
//dytis:locked s.mu r
func (s *segment) visit(bi, pos int, fn func(k, v uint64) bool) bool {
	for ; bi < s.nb; bi, pos = bi+1, 0 {
		off := bi * s.bcap
		n := int(s.sz[bi])
		for ; pos < n; pos++ {
			if !fn(s.keys[off+pos], s.vals[off+pos]) {
				return false
			}
		}
	}
	return true
}

// appendAll appends the segment's pairs in sorted order.
//
//dytis:locked s.mu r
func (s *segment) appendAll(dstK, dstV []uint64) ([]uint64, []uint64) {
	for bi := 0; bi < s.nb; bi++ {
		off := bi * s.bcap
		n := int(s.sz[bi])
		dstK = append(dstK, s.keys[off:off+n]...)
		dstV = append(dstV, s.vals[off:off+n]...)
	}
	return dstK, dstV
}

// adoptLayout swaps in a new remapping function and bucket array, replacing
// the segment's contents with the given ascending pairs. It implements the
// "create new layout, copy each key using the new remapping functions"
// data movement of remapping, expansion, and shrinking. nb*bcap must be
// >= len(ks).
//
//dytis:locked s.mu w
func (s *segment) adoptLayout(pbits uint8, cnt []uint32, nb int, ks, vs []uint64) {
	start := prefixSums(cnt)
	keys := make([]uint64, nb*s.bcap)
	vals := make([]uint64, nb*s.bcap)
	sz := make([]uint16, nb)
	placeSorted(keys, vals, sz, s.bcap, s.rangeBits, s.base, pbits, cnt, start, nb, ks, vs)
	s.pbits, s.cnt, s.start = pbits, cnt, start
	s.nb = nb
	s.keys, s.vals, s.sz = keys, vals, sz
	s.total = len(ks)
	// Rebuild the first-key cache right-to-left.
	s.fk = make([]uint64, nb)
	fill := uint64(fkSentinel)
	for j := nb - 1; j >= 0; j-- {
		if sz[j] > 0 {
			fill = keys[j*s.bcap]
		}
		s.fk[j] = fill
	}
	s.publish()
}

// placeSorted distributes ascending pairs into buckets following the
// remapping function, spilling right past full buckets.
//
// Two corrections keep placement robust when the piecewise model cannot
// resolve the distribution (e.g. a key cluster far narrower than a
// sub-range):
//
//   - an even-spread floor (bucket >= i/fill) prevents dense packing at the
//     left edge, so future inserts below the smallest keys still find room;
//   - a tail clamp (bucket <= nb - ceil(remaining/bcap)) guarantees the
//     suffix of untouched buckets can absorb the rest even when predictions
//     concentrate at the right edge.
//
// Keys can therefore sit on either side of their prediction; findSlot
// searches both directions.
func placeSorted(keys, vals []uint64, sz []uint16, bcap int, rangeBits uint8, base uint64,
	pbits uint8, cnt, start []uint32, nb int, ks, vs []uint64) {
	if len(ks) == 0 {
		return
	}
	fill := (len(ks) + nb - 1) / nb // even per-bucket load, >= 1
	// Spill threshold: leave ~25% headroom per bucket when capacity allows,
	// so keys that later land strictly inside a rebuilt bucket still find
	// room instead of immediately re-triggering maintenance.
	thresh := bcap * 3 / 4
	if thresh < fill {
		thresh = fill
	}
	if thresh < 1 {
		thresh = 1
	}
	w := 0
	for i, k := range ks {
		t := predictWith(k-base, rangeBits, pbits, cnt, start, nb)
		if even := i / fill; even > t {
			t = even
		}
		if t > w {
			w = t
		}
		rem := len(ks) - i
		if maxW := nb - (rem+bcap-1)/bcap; w > maxW {
			w = maxW
		}
		// Soft spill: skip buckets at the headroom threshold while the
		// fully-untouched suffix alone can still absorb the rest.
		for int(sz[w]) >= thresh && (nb-1-w)*bcap >= rem {
			w++
		}
		// Hard spill: a bucket at physical capacity must be skipped.
		for int(sz[w]) == bcap {
			w++
		}
		off := w*bcap + int(sz[w])
		keys[off] = k
		vals[off] = vs[i]
		sz[w]++
	}
}

// subRangeKeyCounts histograms the segment's keys into 2^pbits equal
// sub-ranges of its key range.
//
//dytis:locked s.mu r
func (s *segment) subRangeKeyCounts(pbits uint8) []int {
	out := make([]int, 1<<pbits)
	shift := s.rangeBits - pbits
	for bi := 0; bi < s.nb; bi++ {
		for _, k := range s.bucketKeys(bi) {
			out[(k-s.base)>>shift]++
		}
	}
	return out
}

// countBelow returns how many keys are smaller than pivot.
//
//dytis:locked s.mu r
func (s *segment) countBelow(pivot uint64) int {
	n := 0
	for bi := 0; bi < s.nb; bi++ {
		ks := s.bucketKeys(bi)
		if len(ks) == 0 {
			continue
		}
		if ks[len(ks)-1] < pivot {
			n += len(ks)
			continue
		}
		n += sort.Search(len(ks), func(i int) bool { return ks[i] >= pivot })
		break
	}
	return n
}

// checkInvariants verifies structural invariants; used by tests.
//
//dytis:nolockcheck
func (s *segment) checkInvariants() error {
	if got := int(s.start[len(s.cnt)]); got != s.nb {
		return errf("cnt sums to %d, nb=%d", got, s.nb)
	}
	total := 0
	var prev uint64
	seen := false
	for bi := 0; bi < s.nb; bi++ {
		ks := s.bucketKeys(bi)
		total += len(ks)
		for _, k := range ks {
			if seen && k <= prev {
				return errf("keys not globally ascending at bucket %d", bi)
			}
			if k < s.base || k-s.base >= s.width() {
				return errf("key %#x outside segment range base=%#x bits=%d", k, s.base, s.rangeBits)
			}
			prev, seen = k, true
		}
	}
	if total != s.total {
		return errf("total=%d, counted %d", s.total, total)
	}
	// The first-key cache must be the right-fill of bucket first keys.
	fill := uint64(fkSentinel)
	for j := s.nb - 1; j >= 0; j-- {
		if s.sz[j] > 0 {
			fill = s.firstKey(j)
		}
		if s.fk[j] != fill {
			return errf("fk[%d]=%#x, want %#x", j, s.fk[j], fill)
		}
	}
	return nil
}

func errf(format string, args ...any) error {
	return fmt.Errorf(format, args...)
}
