package core

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dytis/internal/kv"
)

// eh is one second-level Extendible-Hashing table. It owns the keys whose R
// most significant bits equal its index, and organizes them as a directory of
// 2^GD entries pointing at segments (local depth LD <= GD), each holding a
// contiguous sub-range of the EH's key range.
//
// Locking (§3.4, optimistic variant): writers follow the paper's two-level
// scheme — mu.RLock to resolve the directory, then the segment write lock;
// structure changes (split, directory doubling, sibling-pointer updates)
// take mu.Lock, which excludes all other writers on this EH. Readers are
// optimistic: they resolve the directory through the published snapshot
// (snap) without touching mu, and point lookups probe the segment's
// published layout under its seqlock version counter with no lock at all,
// falling back to the locked path on conflict. Remapping and expansion only
// mutate segment internals, so they run under the segment write lock alone.
type eh struct {
	mu   sync.RWMutex
	opts *Options
	conc bool

	suffixBits uint8  // 64 - R
	base       uint64 // first key of this EH's range
	idx        int    // first-level table index (base >> suffixBits)
	obs        Observer

	dir []*segment // guarded-by: mu
	gd  uint8      // guarded-by: mu

	// snap is the published directory snapshot optimistic readers resolve
	// through. Writers republish (under mu.Lock) before retiring any segment
	// the old snapshot routed to, so a reader that observes retirement and
	// reloads is guaranteed a directory that routes around it. Only
	// maintained in Concurrent mode past construction.
	snap atomic.Pointer[dirSnap]

	total     atomic.Int64
	limitMult atomic.Int32
	adaptDone bool // guarded-by: mu; adaptive-limit decision made (write paths)

	stats ehStats
}

// ehStats counts and times the Algorithm-1 maintenance operations, feeding
// the §4.3 insertion-breakdown experiment.
type ehStats struct {
	splits, remaps, expansions, doublings, remapFails, shrinks atomic.Int64
	splitNS, remapNS, expandNS, doubleNS, shrinkNS             atomic.Int64
}

// dirSnap is an immutable snapshot of an EH's directory: the slice is a
// private copy, so in-place directory rewrites never mutate a published
// snapshot.
type dirSnap struct {
	dir []*segment
	gd  uint8
}

// index resolves k's directory slot within the snapshot (the snapshot's gd,
// not the canonical one).
func (sn *dirSnap) index(k, base uint64, suffixBits uint8) int {
	if sn.gd == 0 {
		return 0
	}
	return int((k - base) >> (suffixBits - sn.gd))
}

// optimisticRetries bounds how many optimistic attempts a reader makes
// before falling back to the locked path.
const optimisticRetries = 4

func newEH(base uint64, suffixBits uint8, opts *Options) *eh {
	e := &eh{
		opts:       opts,
		conc:       opts.Concurrent,
		suffixBits: suffixBits,
		base:       base,
		idx:        int(base >> suffixBits),
		obs:        opts.Observer,
		gd:         0,
	}
	e.limitMult.Store(int32(opts.SegLimitMult))
	root := newSegment(0, suffixBits, base, 1, opts.BucketEntries, 0)
	e.dir = []*segment{root}
	e.publishDir()
	return e
}

// publishDir publishes a fresh snapshot of the directory for optimistic
// readers. Called whenever the directory or gd changes in Concurrent mode
// (and at construction/bulk-load in both modes).
//
//dytis:locked e.mu w
func (e *eh) publishDir() {
	d := make([]*segment, len(e.dir))
	copy(d, e.dir)
	e.snap.Store(&dirSnap{dir: d, gd: e.gd})
}

// fire emits a structure event for segment s; kept out of line so the
// disabled case costs one branch at each maintenance site.
func (e *eh) fire(kind EventKind, s *segment, d time.Duration) {
	if e.obs == nil {
		return
	}
	e.obs.StructureEvent(StructureEvent{
		Kind:        kind,
		EH:          e.idx,
		SegmentBase: s.base,
		LocalDepth:  s.ld,
		Duration:    d,
	})
}

// forEachSegment visits each distinct segment once by stepping over the
// aligned 2^(gd-ld) directory run each segment owns (the walk maxPair uses).
// The previous consecutive-dedup walk (`s != prev`) silently double-counted
// any segment whose run was interrupted; the stride walk visits by run, and
// checkInvariants verifies runs tile the directory exactly. Caller holds the
// EH read lock in Concurrent mode.
//
//dytis:locked e.mu r
func (e *eh) forEachSegment(fn func(*segment)) {
	for i := 0; i < len(e.dir); {
		s := e.dir[i]
		fn(s)
		i += 1 << (e.gd - s.ld)
	}
}

//dytis:locked e.mu r
func (e *eh) dirIndex(k uint64) int {
	if e.gd == 0 {
		return 0
	}
	return int((k - e.base) >> (e.suffixBits - e.gd))
}

// maxBuckets is the per-depth segment-size limit Limit_seg: it doubles with
// each local-depth increase past L_start, scaled by the (possibly adaptive)
// multiplier.
func (e *eh) maxBuckets(ld uint8) int {
	mult := int(e.limitMult.Load())
	extra := int(ld) - e.opts.StartDepth
	if extra < 0 {
		extra = 0
	}
	if extra > 14 {
		extra = 14
	}
	lim := e.opts.BaseSegBuckets * mult << extra
	if lim > 1<<20 {
		lim = 1 << 20
	}
	return lim
}

// get returns k's value and presence. Concurrent mode runs the optimistic
// protocol: resolve the segment through the published directory snapshot (no
// EH lock), probe it with tryGet (no segment lock, seqlock-validated), and
// fall back to the §3.4 locked path after bounded conflicts. A retired
// segment fails validation permanently, and the splitter republishes the
// snapshot before retiring, so the retry's reload routes around it.
func (e *eh) get(k uint64) (uint64, bool) {
	if !e.conc {
		return e.getSeq(k)
	}
	for attempt := 0; attempt < optimisticRetries; attempt++ {
		sn := e.snap.Load()
		s := sn.dir[sn.index(k, e.base, e.suffixBits)]
		if v, ok, valid := s.tryGet(k); valid {
			return v, ok
		}
	}
	return e.getLocked(k)
}

// getSeq is the single-threaded read path: the paper's no-lock variant, kept
// on the pre-optimistic probe so non-Concurrent mode pays nothing for the
// snapshot machinery.
//
//dytis:nolockcheck
func (e *eh) getSeq(k uint64) (uint64, bool) {
	return e.dir[e.dirIndex(k)].get(k)
}

// getLocked is the §3.4 two-level locked read: resolve the directory under
// the EH read lock, probe under the segment read lock. It is the fallback
// for optimistic conflicts. Concurrent mode only.
func (e *eh) getLocked(k uint64) (uint64, bool) {
	e.mu.RLock()
	s := e.dir[e.dirIndex(k)]
	s.mu.RLock()
	e.mu.RUnlock()
	v, ok := s.get(k)
	s.mu.RUnlock()
	return v, ok
}

// insert stores or updates k, returning whether a new key was added.
// It implements Algorithm 1 of the paper.
func (e *eh) insert(k, v uint64) bool {
	for attempt := 0; ; attempt++ {
		if e.conc {
			e.mu.RLock()
		}
		gdSnap := e.gd
		s := e.dir[e.dirIndex(k)]
		if e.conc {
			s.wlock()
			e.mu.RUnlock()
		}
		bi, pos, exists, full := s.findSlot(k)
		if exists {
			s.vals[bi*s.bcap+pos] = v
			if e.conc {
				s.wunlock()
			}
			return false
		}
		if !full {
			s.insertAt(bi, pos, k, v)
			if e.conc {
				s.wunlock()
			}
			e.total.Add(1)
			return true
		}

		// In the degenerate regime where the directory hit its depth guard
		// (key clusters far narrower than any sub-range), boundary inserts
		// would trigger a whole-segment rebuild every few keys; borrow a
		// slot from a nearby bucket instead.
		if int(gdSnap) >= maxDirDepth && s.makeRoom(bi, 64) {
			if bi2, pos2, _, full2 := s.findSlot(k); !full2 {
				s.insertAt(bi2, pos2, k, v)
				if e.conc {
					s.wunlock()
				}
				e.total.Add(1)
				return true
			}
		}

		// Bucket overflow: pick a maintenance operation. Below L_start only
		// the basic Extendible-Hashing schemes run; past it, low segment
		// utilization routes to remapping and high utilization to
		// split/expansion. A retry budget forces the structural path if
		// local adjustments fail to make room (e.g. adversarial key
		// clusters denser than a sub-range can express).
		handled := false
		if int(s.ld) >= e.opts.StartDepth && attempt < 8 {
			lowUtil := s.util() <= e.opts.UtilThreshold
			switch {
			case lowUtil && !e.opts.DisableRemap:
				handled = e.remap(s, k)
			case s.ld == gdSnap && !e.opts.DisableExpansion:
				handled = e.expand(s)
			}
		}
		if e.conc {
			s.wunlock()
		}
		if handled {
			continue
		}
		e.restructure(k)
	}
}

// restructure performs one structural change (directory doubling or segment
// split) for the segment currently owning k, under the EH write lock, after
// revalidating that the overflow still exists.
func (e *eh) restructure(k uint64) {
	if e.conc {
		e.mu.Lock()
		defer e.mu.Unlock()
	}
	s := e.dir[e.dirIndex(k)]
	if e.conc {
		s.wlock()
		defer s.wunlock()
	}
	_, _, exists, full := s.findSlot(k)
	if exists || !full {
		return // another thread already made room
	}
	if s.ld == e.gd {
		t0 := time.Now()
		if int(e.gd) >= maxDirDepth {
			// The directory cannot usefully resolve this key cluster;
			// rebalance (and if genuinely full, grow past Limit_seg)
			// instead of doubling forever.
			e.forceRebalance(s)
			return
		}
		e.doubleDirectory()
		e.stats.doublings.Add(1)
		d := time.Since(t0)
		e.stats.doubleNS.Add(int64(d))
		e.fire(EvDouble, s, d)
		return
	}
	e.splitSegment(s)
}

// forceRebalance is the escape hatch used when the directory-depth guard
// refuses further doubling: it redistributes the segment's keys with a
// bucket allocation refreshed from the observed per-sub-range counts,
// growing the segment (ignoring Limit_seg) only when it is genuinely full.
// Growing on every trip would balloon capacity unboundedly under
// insert-at-a-boundary patterns whose overflow is local, not global.
//
//dytis:locked s.mu w
func (e *eh) forceRebalance(s *segment) {
	t0 := time.Now()
	nb := s.nb
	kind := EvRemap
	if s.util() >= e.opts.UtilThreshold {
		nb *= 2
		s.expanded = true
		kind = EvExpand
		e.stats.expansions.Add(1)
	} else {
		e.stats.remaps.Add(1)
	}
	counts := s.subRangeKeyCounts(s.pbits)
	cnt := allocSmoothed(counts, nb)
	ks := make([]uint64, 0, s.total)
	vs := make([]uint64, 0, s.total)
	ks, vs = s.appendAll(ks, vs)
	s.adoptLayout(s.pbits, cnt, nb, ks, vs)
	d := time.Since(t0)
	// Book the duration to the counter matching the fired event kind, so the
	// §4.3 breakdown's remap and expansion rows stay comparable (durations
	// must have the same cardinality as their counters).
	if kind == EvExpand {
		e.stats.expandNS.Add(int64(d))
	} else {
		e.stats.remapNS.Add(int64(d))
	}
	e.fire(kind, s, d)
}

// allocSmoothed is allocProportional with additive smoothing: key-free
// sub-ranges keep ~20% of the buckets collectively, so predictions for keys
// that arrive there later (ascending appends at a frontier are the common
// case) land on real buckets instead of collapsing onto the segment's edge.
func allocSmoothed(weights []int, total int) []uint32 {
	sum := 0
	for _, w := range weights {
		sum += w
	}
	eps := (sum + 4*len(weights) - 1) / (4 * len(weights))
	if eps < 1 {
		eps = 1
	}
	smoothed := make([]int, len(weights))
	for j, w := range weights {
		smoothed[j] = w + eps
	}
	return allocProportional(smoothed, total)
}

// forceExpand doubles a segment in place, scaling the remapping function.
//
//dytis:locked s.mu w
func (e *eh) forceExpand(s *segment) {
	t0 := time.Now()
	cnt := make([]uint32, len(s.cnt))
	for j, c := range s.cnt {
		cnt[j] = c * 2
	}
	ks := make([]uint64, 0, s.total)
	vs := make([]uint64, 0, s.total)
	ks, vs = s.appendAll(ks, vs)
	s.adoptLayout(s.pbits, cnt, s.nb*2, ks, vs)
	s.expanded = true
	e.stats.expansions.Add(1)
	d := time.Since(t0)
	e.stats.expandNS.Add(int64(d))
	e.fire(EvExpand, s, d)
}

//dytis:locked e.mu w
func (e *eh) doubleDirectory() {
	nd := make([]*segment, len(e.dir)*2)
	for i, s := range e.dir {
		nd[2*i] = s
		nd[2*i+1] = s
	}
	e.dir = nd
	e.gd++
	if e.conc {
		e.publishDir()
	}
}

// splitSegment divides s into two children at the midpoint of its key range.
// Each child is sized to fit its keys and then doubled (capped by Limit_seg),
// and its bucket allocation follows the observed per-sub-range key counts so
// the remapping-function slopes carry over. Caller holds the EH write lock
// and the segment lock (in concurrent mode).
//
//dytis:locked e.mu w
//dytis:locked s.mu w
func (e *eh) splitSegment(s *segment) {
	t0 := time.Now()
	nld := s.ld + 1
	halfBits := s.rangeBits - 1
	mid := s.base + 1<<halfBits

	ks := make([]uint64, 0, s.total)
	vs := make([]uint64, 0, s.total)
	ks, vs = s.appendAll(ks, vs)
	cut := sort.Search(len(ks), func(i int) bool { return ks[i] >= mid })

	childPb := s.pbits
	if childPb > 0 {
		childPb--
	}
	left := e.buildChild(nld, halfBits, s.base, childPb, ks[:cut], vs[:cut])
	right := e.buildChild(nld, halfBits, mid, childPb, ks[cut:], vs[cut:])
	left.expanded, right.expanded = s.expanded, s.expanded

	right.next.Store(s.next.Load())
	left.next.Store(right)

	span := 1 << (e.gd - s.ld)
	first := int((s.base - e.base) >> (e.suffixBits - e.gd))
	if first > 0 {
		e.dir[first-1].next.Store(left)
	}
	half := span / 2
	for i := 0; i < half; i++ {
		e.dir[first+i] = left
	}
	for i := half; i < span; i++ {
		e.dir[first+i] = right
	}
	// Publish the rewired directory BEFORE retiring s: a reader that
	// observes retirement (odd seq) and retries is then guaranteed — the
	// atomics are seq-cst, so the stores are totally ordered — to load a
	// snapshot that routes around the retired segment. The retirement bump
	// leaves s permanently odd in both modes; the momentary even window at
	// wunlock is harmless because a split never mutates s's arrays, so an
	// optimistic probe of the frozen pre-split contents reads the children's
	// union.
	if e.conc {
		e.publishDir()
	}
	s.seq.Add(1)
	e.stats.splits.Add(1)
	d := time.Since(t0)
	e.stats.splitNS.Add(int64(d))
	e.fire(EvSplit, s, d)

	// Adaptive Limit_seg (§3.3 "Selecting a segment size"): the first time a
	// segment reaches L' = L_start + 2, inspect the portion of segments
	// that have undergone expansion; a large portion means a uniform-ish
	// distribution, so allow much larger segments.
	if !e.adaptDone && int(nld) >= e.opts.StartDepth+2 && !e.opts.DisableAdaptiveLimit {
		e.adaptDone = true
		var total, exp int
		e.forEachSegment(func(sg *segment) {
			// expanded is written by expand/forceExpand under only sg.mu
			// (insert drops the EH read lock before restructuring), so the EH
			// write lock we hold does not exclude those writers. Safe to take
			// here: s itself left the directory above, and no path acquires
			// e.mu while holding a segment lock.
			if e.conc {
				sg.mu.RLock()
			}
			total++
			if sg.expanded {
				exp++
			}
			if e.conc {
				sg.mu.RUnlock()
			}
		})
		if total > 0 && float64(exp)/float64(total) >= DefaultAdaptiveFrac {
			e.limitMult.Store(int32(e.opts.AdaptiveMult))
		}
	}
}

// buildChild creates a split child covering [base, base+2^rangeBits) holding
// the given ascending pairs.
func (e *eh) buildChild(ld, rangeBits uint8, base uint64, pbits uint8, ks, vs []uint64) *segment {
	bcap := e.opts.BucketEntries
	fit := (len(ks) + bcap - 1) / bcap
	if fit == 0 {
		fit = 1
	}
	nb := 2 * fit
	if lim := e.maxBuckets(ld); nb > lim {
		nb = lim
	}
	if nb < fit {
		nb = fit
	}
	if pbits > rangeBits {
		pbits = rangeBits
	}
	c := newSegment(ld, rangeBits, base, nb, bcap, pbits)
	if c.pbits > 0 && len(ks) > 0 {
		counts := histogram(ks, base, rangeBits, c.pbits)
		c.cnt = allocProportional(counts, nb)
		c.start = prefixSums(c.cnt)
	}
	c.adoptLayout(c.pbits, c.cnt, nb, ks, vs)
	return c
}

// histogram counts ascending keys per 2^pbits equal sub-range of
// [base, base+2^rangeBits).
func histogram(ks []uint64, base uint64, rangeBits, pbits uint8) []int {
	out := make([]int, 1<<pbits)
	shift := rangeBits - pbits
	for _, k := range ks {
		out[(k-base)>>shift]++
	}
	return out
}

// allocProportional distributes total buckets across sub-ranges in proportion
// to their key counts (even split when no keys), using cumulative rounding so
// the counts sum exactly to total.
func allocProportional(weights []int, total int) []uint32 {
	sum := 0
	for _, w := range weights {
		sum += w
	}
	out := make([]uint32, len(weights))
	if sum == 0 {
		evenSplit(out, total)
		return out
	}
	cum, prevAlloc := 0, 0
	for j, w := range weights {
		cum += w
		alloc := int(int64(total) * int64(cum) / int64(sum))
		out[j] = uint32(alloc - prevAlloc)
		prevAlloc = alloc
	}
	return out
}

// expand doubles the segment in place, scaling the remapping function
// (doubling every sub-range's bucket count). Caller holds the segment lock.
//
//dytis:locked s.mu w
func (e *eh) expand(s *segment) bool {
	if s.nb*2 > e.maxBuckets(s.ld) {
		return false
	}
	e.forceExpand(s)
	return true
}

// remap adjusts the segment's remapping function to relieve the skew around
// key k (§3.3 "Remapping"): it refines sub-ranges until the target sub-range
// is dense, then doubles the target's bucket share by stealing buckets from
// under-utilized sub-ranges, growing the segment only if stealing cannot
// cover the need. Caller holds the segment lock.
//
//dytis:locked s.mu w
func (e *eh) remap(s *segment, k uint64) bool {
	t0 := time.Now()
	ut := e.opts.UtilThreshold
	bcap := float64(s.bcap)

	pb := s.pbits
	cnt := append([]uint32(nil), s.cnt...)
	counts := s.subRangeKeyCounts(pb)

	maxPb := uint8(e.opts.MaxSubRangeBits)
	if maxPb > s.rangeBits {
		maxPb = s.rangeBits
	}
	if !e.opts.DisableRefinement {
		for pb < maxPb {
			t := int((k - s.base) >> (s.rangeBits - pb))
			if cnt[t] == 0 || float64(counts[t])/(float64(cnt[t])*bcap) > ut {
				break // target sub-range is dense enough to isolate the skew
			}
			// Refine: split every sub-range in two, dividing its buckets in
			// proportion to the key counts of its halves.
			fine := s.subRangeKeyCounts(pb + 1)
			ncnt := make([]uint32, 2<<pb)
			for j, c := range cnt {
				n0, n1 := fine[2*j], fine[2*j+1]
				var c0 uint32
				if n0+n1 == 0 {
					c0 = c / 2
				} else {
					c0 = uint32(int64(c) * int64(n0) / int64(n0+n1))
				}
				ncnt[2*j], ncnt[2*j+1] = c0, c-c0
			}
			pb++
			cnt, counts = ncnt, fine
		}
	}

	t := int((k - s.base) >> (s.rangeBits - pb))
	need := int(cnt[t])
	// Doubling a heavily-refined target can mean adding a bucket or two,
	// which a hot insertion point (e.g. an append frontier) exhausts within
	// a few dozen keys — and every remap costs a full segment rebuild. A
	// floor of nb/16 keeps the absorbed-inserts-per-rebuild proportional to
	// the rebuild cost, amortizing remapping to O(1) copies per insert.
	if m := s.nb / 16; need < m {
		need = m
	}
	if need == 0 {
		need = 1
	}

	// Compute how many buckets each low-utilization sub-range can donate
	// while still fitting its keys.
	avail := 0
	donate := make([]int, len(cnt))
	for j := range cnt {
		if j == t || cnt[j] == 0 {
			continue
		}
		if float64(counts[j])/(float64(cnt[j])*bcap) < ut {
			minNeed := (counts[j] + s.bcap - 1) / s.bcap
			if g := int(cnt[j]) - minNeed; g > 0 {
				donate[j] = g
				avail += g
			}
		}
	}

	nb := s.nb
	if avail >= need {
		rem := need
		for j, g := range donate {
			if rem == 0 {
				break
			}
			if g > rem {
				g = rem
			}
			cnt[j] -= uint32(g)
			rem -= g
		}
		cnt[t] += uint32(need)
	} else {
		// Stealing cannot cover the need: grow the segment so the target
		// sub-range's share doubles, if Limit_seg allows.
		nb += need
		if nb > e.maxBuckets(s.ld) {
			e.stats.remapFails.Add(1)
			e.fire(EvRemapFailure, s, 0)
			return false
		}
		cnt[t] += uint32(need)
	}

	ks := make([]uint64, 0, s.total)
	vs := make([]uint64, 0, s.total)
	ks, vs = s.appendAll(ks, vs)
	s.adoptLayout(pb, cnt, nb, ks, vs)
	e.stats.remaps.Add(1)
	d := time.Since(t0)
	e.stats.remapNS.Add(int64(d))
	e.fire(EvRemap, s, d)
	return true
}

// delete removes k if present. Deep under-utilization triggers a shrink, the
// inverse of remapping (§3.3 "Deletion").
func (e *eh) delete(k uint64) bool {
	if e.conc {
		e.mu.RLock()
	}
	s := e.dir[e.dirIndex(k)]
	if e.conc {
		s.wlock()
		e.mu.RUnlock()
		defer s.wunlock()
	}
	bi, pos, exists, _ := s.findSlot(k)
	if !exists {
		return false
	}
	s.removeAt(bi, pos)
	e.total.Add(-1)

	if s.nb > 1 && s.util() < 0.2 {
		target := int(float64(s.total)/(float64(s.bcap)*e.opts.UtilThreshold)) + 1
		if target <= s.nb/2 {
			t0 := time.Now()
			counts := s.subRangeKeyCounts(s.pbits)
			cnt := allocProportional(counts, target)
			ks := make([]uint64, 0, s.total)
			vs := make([]uint64, 0, s.total)
			ks, vs = s.appendAll(ks, vs)
			s.adoptLayout(s.pbits, cnt, target, ks, vs)
			e.stats.shrinks.Add(1)
			d := time.Since(t0)
			e.stats.shrinkNS.Add(int64(d))
			e.fire(EvShrink, s, d)
		}
	}
	return true
}

// seqSegment resolves k's directory entry with no locks; single-threaded
// mode only (Concurrent readers go through resolveRLocked or the snapshot).
//
//dytis:nolockcheck
func (e *eh) seqSegment(k uint64) *segment { return e.dir[e.dirIndex(k)] }

// resolveRLocked returns the segment owning k with its read lock held,
// resolving through the published directory snapshot so the common case
// never touches e.mu. A segment retired by a concurrent split is permanently
// odd-versioned, and no writer can be mid-critical-section while we hold the
// read lock, so an odd version under the read lock means retired: drop it
// and retry — the splitter publishes the new snapshot before retiring, so
// the reload observes a directory that routes around the retired segment.
// After bounded conflicts, fall back to the §3.4 locked resolution (under
// e.mu a directory entry cannot be retired before its lock is taken).
// Concurrent mode only.
//
//dytis:locksresult mu r
func (e *eh) resolveRLocked(k uint64) *segment {
	for attempt := 0; attempt < optimisticRetries; attempt++ {
		sn := e.snap.Load()
		s := sn.dir[sn.index(k, e.base, e.suffixBits)]
		s.mu.RLock()
		if !s.retired() {
			return s
		}
		s.mu.RUnlock()
	}
	e.mu.RLock()
	s := e.dir[e.dirIndex(k)]
	s.mu.RLock()
	e.mu.RUnlock()
	return s
}

// nextLocked advances hand-over-hand from the read-locked segment s to its
// chain successor nxt (= s.next at the call): it read-locks nxt before
// releasing s, so the chain cannot be rewired in the gap. If nxt turns out
// to be retired by a concurrent split, the splitter has already rewired
// s.next to the live left child — reload and retry. After bounded conflicts
// the retired segment is accepted: its frozen pre-split contents are a
// correct stale view of its key range (scans are documented not to be
// point-in-time snapshots), and its own next pointer continues the chain
// without overlap. Concurrent mode only.
//
//dytis:locked s.mu r
//dytis:locksresult mu r
func (e *eh) nextLocked(s, nxt *segment) *segment {
	for attempt := 0; ; attempt++ {
		nxt.mu.RLock()
		if attempt >= optimisticRetries || !nxt.retired() {
			s.mu.RUnlock()
			return nxt
		}
		nxt.mu.RUnlock()
		nxt = s.next.Load()
	}
}

// scan appends up to max pairs with key >= start from this EH, walking the
// segment sibling chain. It returns the extended slice.
func (e *eh) scan(start uint64, max int, dst []kv.KV) []kv.KV {
	if start < e.base {
		start = e.base
	}
	var s *segment
	if e.conc {
		s = e.resolveRLocked(start)
	} else {
		s = e.seqSegment(start)
	}
	bi, pos := s.lowerBound(start)
	taken := 0
	for {
		if bi >= 0 {
			for ; bi < s.nb && taken < max; bi, pos = bi+1, 0 {
				off := bi * s.bcap
				n := int(s.sz[bi])
				for ; pos < n && taken < max; pos++ {
					dst = append(dst, kv.KV{Key: s.keys[off+pos], Value: s.vals[off+pos]})
					taken++
				}
			}
		}
		if taken >= max {
			break
		}
		nxt := s.next.Load()
		if nxt == nil {
			break
		}
		if e.conc {
			nxt = e.nextLocked(s, nxt)
		}
		s = nxt
		bi, pos = 0, 0
	}
	if e.conc {
		s.mu.RUnlock()
	}
	return dst
}

// scanFunc calls fn for every pair with key >= start in this EH, in
// ascending order, walking the segment sibling chain. It returns false when
// fn stopped the iteration. In Concurrent mode fn runs under the current
// segment's read lock (see DyTIS.ScanFunc).
func (e *eh) scanFunc(start uint64, fn func(k, v uint64) bool) bool {
	if start < e.base {
		start = e.base
	}
	var s *segment
	if e.conc {
		s = e.resolveRLocked(start)
	} else {
		s = e.seqSegment(start)
	}
	bi, pos := s.lowerBound(start)
	for {
		if bi >= 0 && !s.visit(bi, pos, fn) {
			if e.conc {
				s.mu.RUnlock()
			}
			return false
		}
		nxt := s.next.Load()
		if nxt == nil {
			break
		}
		if e.conc {
			nxt = e.nextLocked(s, nxt)
		}
		s = nxt
		bi, pos = 0, 0
	}
	if e.conc {
		s.mu.RUnlock()
	}
	return true
}

// lowerBound returns the bucket/position of the first key >= k, or bi=-1 if
// none exists in the segment.
//
//dytis:locked s.mu r
func (s *segment) lowerBound(k uint64) (int, int) {
	if s.total == 0 {
		return -1, 0
	}
	c := s.candidate(k, s.predict(k))
	if c < 0 {
		return s.firstNonEmpty(), 0
	}
	ks := s.bucketKeys(c)
	i := bucketLowerBound(ks, k, s.fk[c], nextFK(s.fk, c))
	if i < len(ks) {
		return c, i
	}
	return s.nextNonEmpty(c), 0
}
