// Package check is the deep structural validator for DyTIS. Check walks
// every first-level EH table and verifies the paper's layout invariants
// mechanically — the properties Algorithm 1's maintenance operations (split,
// remap, expand, directory doubling) must preserve but that ordinary unit
// tests cannot see. It is the invariant wall behind the differential fuzzer
// and the concurrency tests: both run it after structure events and at
// teardown and require zero violations.
//
// The checked invariants, with their origin in the paper:
//
//   - Directory run tiling (§3.2, Extendible-Hashing skeleton): each segment
//     with local depth LD owns exactly one aligned run of 2^(GD−LD)
//     directory slots, the runs tile the directory exactly, and the
//     directory has 2^GD slots.
//   - Segment geometry (§3.2): a segment's covered range is the key span its
//     directory run addresses — rangeBits = suffixBits − LD and base aligned
//     to its run position.
//   - Bucket order (§3.1): bucket key arrays are sorted, globally ascending
//     across buckets, inside the segment's key span, within capacity, and
//     the first-key cache is the right-fill of bucket first keys.
//   - Remapping-function coherence and monotonicity (§3.3): the per-segment
//     piecewise-linear function has 2^pbits sub-ranges, its start array is
//     the prefix sums of cnt with start[last] = nb, and the predicted bucket
//     is non-decreasing over the segment's key range.
//   - Counter ground truth (§4.3 accounting): segment and EH live-key
//     counters, Len, Stats shape counters, and MemoryFootprint equal values
//     recounted from the structure itself.
//   - Sibling-chain agreement (§3.2, scans): the sibling-pointer chain
//     visits exactly the segments an in-order directory walk visits.
//   - Limit_seg discipline (§3.3): the adaptive multiplier is one of the two
//     configured values and, below the directory depth guard, no segment
//     exceeds its depth-derived bucket cap that the delete path would have
//     shrunk (a segment sized to fit its keys may stay past the cap).
//   - Optimistic-read publication (§3.4, optimistic variant): in Concurrent
//     mode each EH's published directory snapshot agrees with the canonical
//     directory, and — in both modes — every directory-reachable segment's
//     seqlock version counter is even (odd permanently marks a segment
//     retired by a split, or transiently a writer mid-critical-section,
//     neither of which a quiescent directory may reference).
//
// Check assumes a quiescent index: in Concurrent mode it takes the EH and
// segment locks itself, but the final comparison against Stats, Len, and
// MemoryFootprint is only meaningful with no operations in flight. It must
// not be called from an Observer callback in Concurrent mode (the
// maintenance paths fire events while holding the locks Check needs).
package check

import (
	"fmt"

	"dytis/internal/core"
)

// Kind identifies one invariant class a Violation belongs to.
type Kind uint8

const (
	// KindDirSize: directory length differs from 2^GD.
	KindDirSize Kind = iota
	// KindDirRunMisaligned: a segment's directory run does not start at a
	// multiple of its span 2^(GD-LD).
	KindDirRunMisaligned
	// KindDirRunBroken: a directory run is interrupted or has the wrong
	// length for the segment's local depth, or a segment owns multiple runs.
	KindDirRunBroken
	// KindDepthExceeded: a segment's local depth exceeds the global depth.
	KindDepthExceeded
	// KindGeometry: a segment's base/rangeBits disagree with its directory
	// position.
	KindGeometry
	// KindBucketOrder: bucket keys unsorted, not globally ascending, or a
	// bucket over capacity.
	KindBucketOrder
	// KindKeyRange: a key lies outside its segment's covered range.
	KindKeyRange
	// KindFirstKeyCache: the fk cache is not the right-fill of bucket first
	// keys.
	KindFirstKeyCache
	// KindRemapShape: the remapping function arrays are incoherent (bad
	// lengths, start not the prefix sums of cnt, start[last] != nb).
	KindRemapShape
	// KindRemapMonotone: the remapping function predicts a smaller bucket
	// for a larger key.
	KindRemapMonotone
	// KindSiblingChain: the sibling-pointer chain disagrees with the
	// in-order directory walk.
	KindSiblingChain
	// KindSegmentTotal: a segment's live-key counter differs from the
	// recounted occupancy.
	KindSegmentTotal
	// KindEHTotal: an EH's live-key counter differs from the sum of its
	// segments' recounts.
	KindEHTotal
	// KindLimitMult: the Limit_seg multiplier is not one of the configured
	// values.
	KindLimitMult
	// KindSegLimit: below the depth guard, a segment exceeds its
	// depth-derived bucket cap at a utilization the delete path shrinks.
	KindSegLimit
	// KindStats: Stats shape counters differ from the recounted ground
	// truth.
	KindStats
	// KindFootprint: MemoryFootprint differs from the recomputed value.
	KindFootprint
	// KindSnapshot: in Concurrent mode, the published directory snapshot
	// disagrees with the canonical directory.
	KindSnapshot
	// KindSeqParity: a directory-reachable segment has an odd seqlock
	// version (retired, or a writer mid-critical-section on a quiescent
	// index).
	KindSeqParity

	numKinds
)

var kindNames = [numKinds]string{
	"dir-size", "dir-run-misaligned", "dir-run-broken", "depth-exceeded",
	"geometry", "bucket-order", "key-range", "first-key-cache",
	"remap-shape", "remap-monotone", "sibling-chain", "segment-total",
	"eh-total", "limit-mult", "seg-limit", "stats", "footprint",
	"snapshot", "seq-parity",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Violation is one invariant breach. EH is the first-level table index, or
// -1 for index-wide violations (Stats/Footprint). SegmentBase identifies the
// offending segment where one is involved.
type Violation struct {
	Kind        Kind
	EH          int
	SegmentBase uint64
	Detail      string
}

func (v Violation) String() string {
	if v.EH < 0 {
		return fmt.Sprintf("[%s] %s", v.Kind, v.Detail)
	}
	return fmt.Sprintf("[%s] eh=%d seg=%#x: %s", v.Kind, v.EH, v.SegmentBase, v.Detail)
}

// Check validates every invariant over the whole index and returns all
// violations found (nil when the index is sound). See the package comment
// for the invariant list and the quiescence requirement.
func Check(d *core.DyTIS) []Violation {
	var vs []Violation
	opts := d.Opts()

	// Ground-truth accumulators recomputed independently of the stride walk
	// Stats and MemoryFootprint use.
	var wantSegments, wantBuckets, wantDir int
	var wantLen, wantBytes int64

	d.Introspect(func(e core.EHView) {
		c := &ehChecker{e: e, opts: opts}
		c.run()
		vs = append(vs, c.vs...)
		wantSegments += c.segments
		wantBuckets += c.buckets
		wantDir += e.DirLen()
		wantLen += c.keys
		wantBytes += c.bytes + int64(e.DirLen())*8
	})

	// Locks are released; compare the index's own accounting against the
	// recount. Only meaningful on a quiescent index.
	if n := int64(d.Len()); n != wantLen {
		vs = append(vs, Violation{Kind: KindEHTotal, EH: -1,
			Detail: fmt.Sprintf("Len()=%d, recounted %d", n, wantLen)})
	}
	st := d.Stats()
	if st.Segments != wantSegments || st.Buckets != wantBuckets || st.DirEntries != wantDir {
		vs = append(vs, Violation{Kind: KindStats, EH: -1,
			Detail: fmt.Sprintf("Stats segments=%d buckets=%d dir=%d, recounted %d/%d/%d",
				st.Segments, st.Buckets, st.DirEntries, wantSegments, wantBuckets, wantDir)})
	}
	if got := d.MemoryFootprint(); got != wantBytes {
		vs = append(vs, Violation{Kind: KindFootprint, EH: -1,
			Detail: fmt.Sprintf("MemoryFootprint=%d, recomputed %d", got, wantBytes)})
	}
	return vs
}

// ehChecker validates one EH table under the EH lock Introspect holds.
type ehChecker struct {
	e    core.EHView
	opts core.Options
	vs   []Violation

	segments, buckets int
	keys              int64 // recounted live keys
	bytes             int64 // recomputed segment heap bytes
}

func (c *ehChecker) violate(kind Kind, segBase uint64, format string, args ...any) {
	c.vs = append(c.vs, Violation{
		Kind: kind, EH: c.e.Index(), SegmentBase: segBase,
		Detail: fmt.Sprintf(format, args...),
	})
}

func (c *ehChecker) run() {
	e := c.e
	gd := e.GlobalDepth()
	dirLen := e.DirLen()
	if dirLen != 1<<gd {
		c.violate(KindDirSize, 0, "directory has %d slots, gd=%d wants %d", dirLen, gd, 1<<gd)
		// The run walk below still works on whatever is there.
	}

	// Optimistic readers resolve through the published snapshot, so in
	// Concurrent mode it must agree with the canonical directory (writers
	// republish before retiring the segments a stale snapshot would route
	// to). Single-threaded mode only publishes at construction/bulk-load and
	// legitimately diverges after maintenance.
	if e.Concurrent() {
		if sgd, sn := e.SnapshotGlobalDepth(), e.SnapshotDirLen(); sgd != gd || sn != dirLen {
			c.violate(KindSnapshot, 0, "snapshot gd=%d len=%d, canonical gd=%d len=%d",
				sgd, sn, gd, dirLen)
		} else {
			for i := 0; i < dirLen; i++ {
				if e.SnapshotSegment(i) != e.DirSegment(i) {
					c.violate(KindSnapshot, e.DirSegment(i).Base(),
						"snapshot dir[%d] disagrees with canonical directory", i)
					break
				}
			}
		}
	}

	// Walk the directory collecting maximal same-segment runs, verifying
	// tiling, alignment, and geometry, then validate each segment once.
	var inOrder []core.SegmentView
	seen := map[core.SegmentView]bool{}
	for i := 0; i < dirLen; {
		s := e.DirSegment(i)
		runLen := 1
		for i+runLen < dirLen && e.DirSegment(i+runLen) == s {
			runLen++
		}
		ld := s.LocalDepth()
		if ld > gd {
			c.violate(KindDepthExceeded, s.Base(), "segment ld=%d exceeds gd=%d", ld, gd)
		} else {
			span := 1 << (gd - ld)
			if runLen != span {
				c.violate(KindDirRunBroken, s.Base(),
					"run at dir[%d] has %d slots, ld=%d wants %d", i, runLen, ld, span)
			}
			if i%span != 0 {
				c.violate(KindDirRunMisaligned, s.Base(),
					"run at dir[%d] not aligned to span %d", i, span)
			}
			// Geometry: the run's position addresses exactly the segment's
			// covered key span.
			if wantBits := e.SuffixBits() - ld; s.RangeBits() != wantBits {
				c.violate(KindGeometry, s.Base(),
					"rangeBits=%d, suffixBits=%d ld=%d wants %d",
					s.RangeBits(), e.SuffixBits(), ld, wantBits)
			} else if runLen == span && i%span == 0 {
				wantBase := e.Base() + uint64(i)<<(e.SuffixBits()-gd)
				if s.Base() != wantBase {
					c.violate(KindGeometry, s.Base(),
						"base=%#x, dir position %d wants %#x", s.Base(), i, wantBase)
				}
			}
		}
		if seen[s] {
			c.violate(KindDirRunBroken, s.Base(), "segment owns multiple directory runs (second at dir[%d])", i)
		} else {
			seen[s] = true
			inOrder = append(inOrder, s)
			// Retirement marks a segment permanently odd in both modes; a
			// quiescent directory must never reference one, and no writer can
			// be mid-critical-section.
			if s.SeqOdd() {
				c.violate(KindSeqParity, s.Base(),
					"directory-reachable segment has odd seqlock version")
			}
			c.checkSegment(s)
		}
		i += runLen
	}

	c.checkSiblingChain(inOrder)

	if got := e.TotalCounter(); got != c.keys {
		c.violate(KindEHTotal, 0, "eh total=%d, recounted %d", got, c.keys)
	}
	if m := e.LimitMult(); m != c.opts.SegLimitMult && m != c.opts.AdaptiveMult {
		c.violate(KindLimitMult, 0, "limitMult=%d, want %d or %d",
			m, c.opts.SegLimitMult, c.opts.AdaptiveMult)
	}
}

// checkSegment validates one segment's buckets, remapping function,
// counters, and size cap, and accumulates the ground-truth totals.
func (c *ehChecker) checkSegment(s core.SegmentView) {
	s.RLock()
	defer s.RUnlock()

	nb, bcap := s.NumBuckets(), s.BucketCap()
	base := s.Base()
	var width uint64 // 0 means the full 2^64 range (rangeBits == 64 cannot occur: R >= 1)
	if s.RangeBits() < 64 {
		width = uint64(1) << s.RangeBits()
	}

	c.segments++
	c.buckets += nb
	cnt := s.SubRangeBuckets()
	c.bytes += int64(nb*bcap)*16 + int64(nb)*2 + int64(len(cnt))*8 + 96

	// Bucket order, key range, capacity, and the fk cache in one pass.
	counted := 0
	var prev uint64
	seenAny := false
	for bi := 0; bi < nb; bi++ {
		n := s.BucketLen(bi)
		if n > bcap {
			c.violate(KindBucketOrder, base, "bucket %d holds %d > cap %d", bi, n, bcap)
			continue
		}
		ks := s.BucketKeys(bi)
		counted += len(ks)
		for _, k := range ks {
			if seenAny && k <= prev {
				c.violate(KindBucketOrder, base,
					"keys not globally ascending at bucket %d (%#x after %#x)", bi, k, prev)
			}
			if k < base || (width != 0 && k-base >= width) {
				c.violate(KindKeyRange, base,
					"key %#x outside [%#x, %#x+2^%d)", k, base, base, s.RangeBits())
			}
			prev, seenAny = k, true
		}
	}
	c.keys += int64(counted)
	if got := s.TotalCounter(); got != counted {
		c.violate(KindSegmentTotal, base, "segment total=%d, recounted %d", got, counted)
	}

	// fk must be the right-fill of bucket first keys (sentinel ^0 past the
	// last non-empty bucket).
	fill := ^uint64(0)
	for bi := nb - 1; bi >= 0; bi-- {
		if s.BucketLen(bi) > 0 {
			fill = s.BucketKeys(bi)[0]
		}
		if got := s.FirstKeyCache(bi); got != fill {
			c.violate(KindFirstKeyCache, base, "fk[%d]=%#x, want %#x", bi, got, fill)
			break // one report per segment; the rest is usually the same corruption
		}
	}

	// Remapping function: shape, prefix-sum coherence, and monotonicity.
	pbits := s.SubRangeBits()
	start := s.StartOffsets()
	lengthsOK := true
	if pbits > s.RangeBits() {
		c.violate(KindRemapShape, base, "pbits=%d exceeds rangeBits=%d", pbits, s.RangeBits())
		lengthsOK = false
	}
	if len(cnt) != 1<<pbits || len(start) != len(cnt)+1 {
		c.violate(KindRemapShape, base,
			"len(cnt)=%d len(start)=%d, pbits=%d wants %d/%d",
			len(cnt), len(start), pbits, 1<<pbits, 1<<pbits+1)
		lengthsOK = false
	}
	if lengthsOK {
		sum := uint32(0)
		coherent := true
		for j, cj := range cnt {
			if start[j] != sum {
				c.violate(KindRemapShape, base,
					"start[%d]=%d, prefix sum of cnt wants %d", j, start[j], sum)
				coherent = false
				break
			}
			sum += cj
		}
		if coherent && int(start[len(cnt)]) != nb {
			c.violate(KindRemapShape, base, "start[last]=%d, nb=%d", start[len(cnt)], nb)
		}
	}
	// Monotonicity is checked against observed predictions, not re-derived
	// from prefix-sum coherence, so a corrupted start array that shifts
	// predictions backwards is caught even though each check alone could
	// miss it. Gated only on array lengths (prediction indexes safely).
	if lengthsOK && width != 0 {
		// Sample each sub-range's boundary and midpoint keys and require
		// non-decreasing bucket predictions.
		prevBi := -1
		sub := width >> pbits
		for j := range cnt {
			lo := base + uint64(j)*sub
			for _, k := range [...]uint64{lo, lo + sub/2, lo + sub - 1} {
				bi := s.Predict(k)
				if bi < prevBi {
					c.violate(KindRemapMonotone, base,
						"predict(%#x)=%d after %d: remapping not monotone", k, bi, prevBi)
					return
				}
				if bi < 0 || bi >= nb {
					c.violate(KindRemapShape, base, "predict(%#x)=%d outside [0,%d)", k, bi, nb)
					return
				}
				prevBi = bi
			}
		}
	}

	// Limit_seg: below the depth guard no segment may exceed its
	// depth-derived cap unless a structure path put it there on purpose. (At
	// the guard, forceRebalance grows past the cap by design.) A split child
	// that cannot fit its keys within the cap is sized to fit them. Deletes
	// then leave its bucket count alone until utilization falls under 20 %,
	// and the shrink that follows rebuilds onto keys/(bcap·U_t)+1 buckets,
	// which may still be over the cap. So the one over-cap segment no path
	// leaves behind is one the delete path would shrink.
	if !c.e.AtDepthGuard() {
		lim := c.e.MaxBuckets(s.LocalDepth())
		util := float64(counted) / float64(nb*bcap)
		shrinkTo := int(float64(counted)/(float64(bcap)*c.opts.UtilThreshold)) + 1
		if nb > lim && util < 0.2 && shrinkTo <= nb/2 {
			c.violate(KindSegLimit, base, "nb=%d exceeds Limit_seg=%d (ld=%d, %d keys)",
				nb, lim, s.LocalDepth(), counted)
		}
	}
}

// checkSiblingChain verifies the next-pointer chain visits exactly the
// segments of the in-order directory walk, in order, ending with no
// successor.
func (c *ehChecker) checkSiblingChain(inOrder []core.SegmentView) {
	if len(inOrder) == 0 {
		return
	}
	cur := inOrder[0]
	for i := 1; i < len(inOrder); i++ {
		nxt, ok := cur.Next()
		if !ok {
			c.violate(KindSiblingChain, cur.Base(),
				"chain ends after %d of %d segments", i, len(inOrder))
			return
		}
		if nxt != inOrder[i] {
			c.violate(KindSiblingChain, cur.Base(),
				"chain visits seg %#x, directory walk wants %#x", nxt.Base(), inOrder[i].Base())
			return
		}
		cur = nxt
	}
	if nxt, ok := cur.Next(); ok {
		c.violate(KindSiblingChain, cur.Base(),
			"chain continues past the last segment (to %#x)", nxt.Base())
	}
}
