package check_test

import (
	"strings"
	"testing"

	"dytis/internal/check"
	"dytis/internal/core"
)

func opts() core.Options {
	return core.Options{FirstLevelBits: 2, BucketEntries: 8, StartDepth: 2}
}

// build returns a quiescent index with a populated, multi-segment first EH.
func build(t *testing.T, concurrent bool) *core.DyTIS {
	t.Helper()
	o := opts()
	o.Concurrent = concurrent
	d := core.New(o)
	for i := uint64(0); i < 3000; i++ {
		d.Insert(i*7, i)
	}
	for i := uint64(0); i < 3000; i += 3 {
		d.Delete(i * 7)
	}
	return d
}

// eh0 returns the view of the first EH table. The tests run single-threaded
// on quiescent indexes, so holding the views beyond Introspect is safe.
func eh0(d *core.DyTIS) core.EHView {
	var out core.EHView
	first := true
	d.Introspect(func(e core.EHView) {
		if first {
			out, first = e, false
		}
	})
	return out
}

// segments returns EH e's distinct segments in directory order.
func segments(e core.EHView) []core.SegmentView {
	var out []core.SegmentView
	for i := 0; i < e.DirLen(); {
		s := e.DirSegment(i)
		out = append(out, s)
		run := 1
		for i+run < e.DirLen() && e.DirSegment(i+run) == s {
			run++
		}
		i += run
	}
	return out
}

func kindSet(vs []check.Violation) map[check.Kind]int {
	out := map[check.Kind]int{}
	for _, v := range vs {
		out[v.Kind]++
	}
	return out
}

// requireOnly asserts every violation has the single expected kind and at
// least one was reported.
func requireOnly(t *testing.T, vs []check.Violation, want check.Kind) {
	t.Helper()
	if len(vs) == 0 {
		t.Fatalf("no violations, want %v", want)
	}
	for _, v := range vs {
		if v.Kind != want {
			t.Fatalf("unexpected violation %v (want only %v); all: %v", v, want, vs)
		}
	}
}

func requireHas(t *testing.T, vs []check.Violation, want check.Kind) check.Violation {
	t.Helper()
	for _, v := range vs {
		if v.Kind == want {
			return v
		}
	}
	t.Fatalf("no %v violation in %v", want, vs)
	return check.Violation{}
}

func TestCheckCleanSingleThreaded(t *testing.T) {
	d := build(t, false)
	if vs := check.Check(d); len(vs) != 0 {
		t.Fatalf("clean index reported violations: %v", vs)
	}
}

func TestCheckCleanConcurrentMode(t *testing.T) {
	d := build(t, true)
	if vs := check.Check(d); len(vs) != 0 {
		t.Fatalf("clean concurrent-mode index reported violations: %v", vs)
	}
}

func TestCheckCleanEdgeKeys(t *testing.T) {
	d := core.New(opts())
	d.Insert(0, 1)
	d.Insert(^uint64(0), 2)
	d.Insert(^uint64(0)-1, 3)
	if vs := check.Check(d); len(vs) != 0 {
		t.Fatalf("edge-key index reported violations: %v", vs)
	}
}

func TestCheckCleanAfterLoadSorted(t *testing.T) {
	d := core.New(opts())
	keys := make([]uint64, 5000)
	vals := make([]uint64, 5000)
	for i := range keys {
		keys[i] = uint64(i) * 13
		vals[i] = uint64(i)
	}
	d.LoadSorted(keys, vals)
	if vs := check.Check(d); len(vs) != 0 {
		t.Fatalf("LoadSorted index reported violations: %v", vs)
	}
}

func TestCheckEmptyIndex(t *testing.T) {
	if vs := check.Check(core.New(opts())); len(vs) != 0 {
		t.Fatalf("empty index reported violations: %v", vs)
	}
}

// findBucket returns a segment of e and a bucket index holding at least two
// keys.
func findBucket(t *testing.T, e core.EHView) (core.SegmentView, int) {
	t.Helper()
	for _, s := range segments(e) {
		for bi := 0; bi < s.NumBuckets(); bi++ {
			if s.BucketLen(bi) >= 2 {
				return s, bi
			}
		}
	}
	t.Fatal("no bucket with >= 2 keys")
	return core.SegmentView{}, 0
}

func TestCheckUnsortedBucket(t *testing.T) {
	d := build(t, false)
	s, bi := findBucket(t, eh0(d))
	// Duplicate the bucket's first key into position 1: order breaks, but
	// the fk cache, counters, and ranges stay intact — exactly one
	// violation.
	s.SetKeyForTest(bi, 1, s.BucketKeys(bi)[0])
	requireOnly(t, check.Check(d), check.KindBucketOrder)
}

func TestCheckBrokenSiblingChain(t *testing.T) {
	d := build(t, false)
	segs := segments(eh0(d))
	if len(segs) < 2 {
		t.Fatal("need >= 2 segments")
	}
	segs[0].SetNextForTest(core.SegmentView{})
	vs := check.Check(d)
	requireOnly(t, vs, check.KindSiblingChain)
	if want := "chain ends after 1 of"; !strings.Contains(vs[0].Detail, want) {
		t.Fatalf("detail %q, want %q", vs[0].Detail, want)
	}
}

func TestCheckMisalignedDirRun(t *testing.T) {
	// Cluster every key at the bottom of EH 0's range so splits deepen only
	// the leftmost segment: the top-half segment keeps LD=1 while GD grows,
	// giving it a directory run with span > 1 that we can shift off its
	// alignment.
	d := core.New(opts())
	for i := uint64(0); i < 20000; i++ {
		d.Insert(i, i)
	}
	e := eh0(d)
	if e.GlobalDepth() < 2 {
		t.Fatalf("gd=%d, need >= 2", e.GlobalDepth())
	}
	dirLen := e.DirLen()
	top := e.DirSegment(dirLen - 1) // LD=1, owns the upper half of the directory
	if top.LocalDepth() != 1 {
		t.Fatalf("top segment ld=%d, want 1", top.LocalDepth())
	}
	// Shift the top run one slot left: it now starts at dirLen/2-1, which is
	// not a multiple of its span dirLen/2.
	e.SetDirForTest(dirLen/2-1, top)
	vs := check.Check(d)
	v := requireHas(t, vs, check.KindDirRunMisaligned)
	if !strings.Contains(v.Detail, "not aligned to span") {
		t.Fatalf("detail %q, want alignment complaint", v.Detail)
	}
	// The displaced neighbour's run necessarily breaks too; nothing
	// segment-local may be implicated.
	for _, v := range vs {
		switch v.Kind {
		case check.KindBucketOrder, check.KindKeyRange, check.KindFirstKeyCache,
			check.KindSegmentTotal, check.KindRemapShape, check.KindRemapMonotone:
			t.Fatalf("directory corruption implicated segment-local kind: %v", v)
		}
	}
}

func TestCheckStaleUtilizationCounter(t *testing.T) {
	d := build(t, false)
	segs := segments(eh0(d))
	s := segs[0]
	s.SetTotalForTest(s.TotalCounter() + 3)
	vs := check.Check(d)
	requireOnly(t, vs, check.KindSegmentTotal)
	if !strings.Contains(vs[0].Detail, "recounted") {
		t.Fatalf("detail %q, want recount complaint", vs[0].Detail)
	}
}

func TestCheckStaleEHTotal(t *testing.T) {
	d := build(t, false)
	e := eh0(d)
	e.SetTotalForTest(e.TotalCounter() + 5)
	// Both the per-EH recount and the index-wide Len comparison report it;
	// both carry the same kind.
	requireOnly(t, check.Check(d), check.KindEHTotal)
}

func TestCheckStaleFirstKeyCache(t *testing.T) {
	d := build(t, false)
	s, bi := findBucket(t, eh0(d))
	s.SetFirstKeyCacheForTest(bi, s.BucketKeys(bi)[0]+1)
	requireOnly(t, check.Check(d), check.KindFirstKeyCache)
}

func TestCheckRemapIncoherent(t *testing.T) {
	d := build(t, false)
	var target core.SegmentView
	found := false
	for _, s := range segments(eh0(d)) {
		if len(s.SubRangeBuckets()) >= 2 {
			target, found = s, true
			break
		}
	}
	if !found {
		t.Fatal("no segment with >= 2 sub-ranges")
	}
	target.SetSubRangeBucketsForTest(0, target.SubRangeBuckets()[0]+1)
	requireOnly(t, check.Check(d), check.KindRemapShape)
}

func TestCheckRemapNotMonotone(t *testing.T) {
	d := build(t, false)
	var target core.SegmentView
	found := false
	for _, s := range segments(eh0(d)) {
		if len(s.SubRangeBuckets()) >= 2 && s.StartOffsets()[1] > 0 && s.NumBuckets() >= 2 {
			target, found = s, true
			break
		}
	}
	if !found {
		t.Fatal("no suitable segment")
	}
	// Zero a later start offset: predictions step backwards across the
	// sub-range boundary. The prefix sums are now incoherent too, so a
	// shape violation accompanies the monotonicity one.
	target.SetStartOffsetForTest(1, 0)
	vs := check.Check(d)
	requireHas(t, vs, check.KindRemapMonotone)
}

func TestCheckInvalidLimitMult(t *testing.T) {
	d := build(t, false)
	eh0(d).SetLimitMultForTest(7)
	vs := check.Check(d)
	requireOnly(t, vs, check.KindLimitMult)
}

// TestCheckSegLimitOverCapEmpty plants an over-cap segment the delete path
// would have shrunk: keys packed into the bottom of the key space leave the
// split's upper children empty at two buckets, and dropping the multiplier to
// its other configured value puts the cap at one.
func TestCheckSegLimitOverCapEmpty(t *testing.T) {
	o := opts()
	o.BaseSegBuckets, o.SegLimitMult, o.AdaptiveMult = 1, 2, 1
	d := core.New(o)
	for i := uint64(0); i < 200; i++ {
		d.Insert(i, i)
	}
	if vs := check.Check(d); len(vs) != 0 {
		t.Fatalf("clean index reported violations: %v", vs)
	}
	eh0(d).SetLimitMultForTest(1)
	requireOnly(t, check.Check(d), check.KindSegLimit)
}

// TestCheckSegLimitSizedToFitAfterDelete: a bulk-loaded segment sized past
// its cap to fit its keys stays legal after a delete, which shrinks a segment
// only once its utilization falls under 20 %.
func TestCheckSegLimitSizedToFitAfterDelete(t *testing.T) {
	d := core.New(core.Options{FirstLevelBits: 2, BucketEntries: 4, StartDepth: 2, BaseSegBuckets: 4})
	ks := make([]uint64, 49)
	for i := range ks {
		ks[i] = 0x0089abcdef000000 + uint64(i)*1021
	}
	d.LoadSorted(ks, ks)
	d.Delete(ks[0])
	if vs := check.Check(d); len(vs) != 0 {
		t.Fatalf("sized-to-fit segment after a delete reported violations: %v", vs)
	}
}

func TestCheckStaleSnapshot(t *testing.T) {
	d := build(t, true)
	e := eh0(d)
	// Publish a snapshot with the wrong depth and length: every optimistic
	// reader would mis-route. The canonical directory is untouched, so this
	// is exactly one violation.
	e.SetSnapshotForTest(0, e.DirSegment(0))
	requireOnly(t, check.Check(d), check.KindSnapshot)
}

func TestCheckSnapshotEntryMismatch(t *testing.T) {
	d := build(t, true)
	e := eh0(d)
	distinct := segments(e)
	if len(distinct) < 2 {
		t.Fatal("need a multi-segment EH")
	}
	// Right depth and length, but slot 0 points at the wrong segment — the
	// shape comparison passes and only the per-slot walk catches it.
	segs := make([]core.SegmentView, e.DirLen())
	for i := range segs {
		segs[i] = e.DirSegment(i)
	}
	segs[0] = distinct[len(distinct)-1]
	e.SetSnapshotForTest(e.GlobalDepth(), segs...)
	requireOnly(t, check.Check(d), check.KindSnapshot)
}

func TestCheckSnapshotNotCheckedSingleThreaded(t *testing.T) {
	// Single-threaded maintenance legitimately leaves the construction-time
	// snapshot behind the canonical directory; the checker must not flag it.
	d := build(t, false)
	e := eh0(d)
	e.SetSnapshotForTest(0, e.DirSegment(0))
	if vs := check.Check(d); len(vs) != 0 {
		t.Fatalf("single-threaded snapshot drift reported: %v", vs)
	}
}

func TestCheckOddSeqVersion(t *testing.T) {
	for _, conc := range []bool{false, true} {
		d := build(t, conc)
		e := eh0(d)
		segments(e)[0].SetSeqForTest(1)
		if conc {
			// The corrupted segment is still referenced by the published
			// snapshot, so resolveRLocked/tryGet would spin on it; only the
			// parity check itself is under test here.
			requireHas(t, check.Check(d), check.KindSeqParity)
		} else {
			requireOnly(t, check.Check(d), check.KindSeqParity)
		}
	}
}

func TestViolationString(t *testing.T) {
	v := check.Violation{Kind: check.KindBucketOrder, EH: 3, SegmentBase: 0x40, Detail: "boom"}
	if got := v.String(); !strings.Contains(got, "bucket-order") || !strings.Contains(got, "eh=3") {
		t.Fatalf("String() = %q", got)
	}
	w := check.Violation{Kind: check.KindStats, EH: -1, Detail: "boom"}
	if got := w.String(); !strings.Contains(got, "[stats]") || strings.Contains(got, "eh=") {
		t.Fatalf("String() = %q", got)
	}
}
