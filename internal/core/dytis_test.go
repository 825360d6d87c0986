package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"dytis/internal/kv"
)

// smallOpts exercises every maintenance path with little data.
func smallOpts() Options {
	return Options{FirstLevelBits: 2, BucketEntries: 8, StartDepth: 2}
}

func TestInsertGetSequential(t *testing.T) {
	d := New(smallOpts())
	const n = 20000
	for i := uint64(0); i < n; i++ {
		d.Insert(i, i*7)
	}
	if d.Len() != n {
		t.Fatalf("Len=%d want %d", d.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		v, ok := d.Get(i)
		if !ok || v != i*7 {
			t.Fatalf("Get(%d) = %d,%v", i, v, ok)
		}
	}
	if _, ok := d.Get(n + 1); ok {
		t.Fatal("phantom key")
	}
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertGetWideKeySpace(t *testing.T) {
	d := New(smallOpts())
	rng := rand.New(rand.NewSource(3))
	keys := make([]uint64, 30000)
	for i := range keys {
		keys[i] = rng.Uint64()
		d.Insert(keys[i], uint64(i))
	}
	for i, k := range keys {
		v, ok := d.Get(k)
		if !ok {
			t.Fatalf("missing key %#x (i=%d)", k, i)
		}
		_ = v
	}
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateInPlace(t *testing.T) {
	d := New(smallOpts())
	d.Insert(100, 1)
	d.Insert(100, 2)
	if d.Len() != 1 {
		t.Fatalf("Len=%d", d.Len())
	}
	if v, _ := d.Get(100); v != 2 {
		t.Fatalf("v=%d", v)
	}
}

func TestHighlySkewedClusters(t *testing.T) {
	// Dense clusters at a few points of the key space: the remapping path
	// must absorb the skew (like RM/RL in the paper).
	d := New(smallOpts())
	centers := []uint64{1 << 20, 1 << 40, 1<<62 + 12345, 77}
	n := 0
	for _, c := range centers {
		for i := uint64(0); i < 6000; i++ {
			d.Insert(c+i, i)
			n++
		}
	}
	if d.Len() != n {
		t.Fatalf("Len=%d want %d", d.Len(), n)
	}
	for _, c := range centers {
		for i := uint64(0); i < 6000; i += 7 {
			if _, ok := d.Get(c + i); !ok {
				t.Fatalf("missing %#x", c+i)
			}
		}
	}
	st := d.Stats()
	if st.Remaps == 0 {
		t.Fatalf("skewed load performed no remapping: %+v", st)
	}
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUniformTriggersExpansion(t *testing.T) {
	d := New(Options{FirstLevelBits: 1, BucketEntries: 8, StartDepth: 1})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 30000; i++ {
		d.Insert(rng.Uint64(), 1)
	}
	st := d.Stats()
	if st.Expansions == 0 {
		t.Fatalf("uniform load performed no expansions: %+v", st)
	}
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveLimitRaisesOnUniform(t *testing.T) {
	opts := Options{FirstLevelBits: 1, BucketEntries: 8, StartDepth: 1}
	d := New(opts)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 60000; i++ {
		d.Insert(rng.Uint64(), 1)
	}
	if st := d.Stats(); st.AdaptiveEHs == 0 {
		t.Fatalf("adaptive Limit_seg never triggered on uniform data: %+v", st)
	}
	// With the ablation switch it must stay off.
	opts.DisableAdaptiveLimit = true
	d2 := New(opts)
	rng = rand.New(rand.NewSource(5))
	for i := 0; i < 60000; i++ {
		d2.Insert(rng.Uint64(), 1)
	}
	if st := d2.Stats(); st.AdaptiveEHs != 0 {
		t.Fatalf("DisableAdaptiveLimit ignored: %+v", st)
	}
}

func TestScanBasic(t *testing.T) {
	d := New(smallOpts())
	for i := uint64(0); i < 5000; i++ {
		d.Insert(i*10, i)
	}
	got := d.Scan(95, 50, nil)
	if len(got) != 50 {
		t.Fatalf("scan len=%d", len(got))
	}
	if got[0].Key != 100 {
		t.Fatalf("first=%d want 100", got[0].Key)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Key != got[i-1].Key+10 {
			t.Fatalf("scan out of order at %d: %d after %d", i, got[i].Key, got[i-1].Key)
		}
	}
}

func TestScanCrossesEHBoundaries(t *testing.T) {
	// FirstLevelBits=2 gives 4 EH tables; keys straddling the quarters of
	// the key space force the scan to hop EHs.
	d := New(smallOpts())
	var want []uint64
	for q := uint64(0); q < 4; q++ {
		base := q << 62
		for i := uint64(0); i < 500; i++ {
			k := base + i*3
			d.Insert(k, k)
			want = append(want, k)
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	got := d.Scan(0, len(want)+10, nil)
	if len(got) != len(want) {
		t.Fatalf("full scan %d want %d", len(got), len(want))
	}
	for i, k := range want {
		if got[i].Key != k {
			t.Fatalf("scan[%d]=%d want %d", i, got[i].Key, k)
		}
	}
	// Start mid-space.
	mid := uint64(2) << 62
	got = d.Scan(mid, 100, nil)
	if len(got) != 100 || got[0].Key != mid {
		t.Fatalf("mid scan start=%d len=%d", got[0].Key, len(got))
	}
}

func TestScanEmptyAndPastEnd(t *testing.T) {
	d := New(smallOpts())
	if r := d.Scan(0, 10, nil); len(r) != 0 {
		t.Fatal("scan of empty index returned results")
	}
	d.Insert(5, 5)
	if r := d.Scan(6, 10, nil); len(r) != 0 {
		t.Fatalf("scan past end returned %v", r)
	}
	if r := d.Scan(5, 0, nil); len(r) != 0 {
		t.Fatal("scan with max=0 returned results")
	}
}

func TestDelete(t *testing.T) {
	d := New(smallOpts())
	const n = 10000
	for i := uint64(0); i < n; i++ {
		d.Insert(i, i)
	}
	for i := uint64(0); i < n; i += 2 {
		if !d.Delete(i) {
			t.Fatalf("Delete(%d) missed", i)
		}
	}
	if d.Delete(0) {
		t.Fatal("double delete")
	}
	if d.Len() != n/2 {
		t.Fatalf("Len=%d", d.Len())
	}
	for i := uint64(0); i < n; i++ {
		_, ok := d.Get(i)
		if want := i%2 == 1; ok != want {
			t.Fatalf("Get(%d)=%v want %v", i, ok, want)
		}
	}
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteShrinksSegments(t *testing.T) {
	d := New(smallOpts())
	const n = 20000
	for i := uint64(0); i < n; i++ {
		d.Insert(i, i)
	}
	before := d.Stats().Buckets
	for i := uint64(0); i < n; i++ {
		if i%16 != 0 {
			d.Delete(i)
		}
	}
	st := d.Stats()
	after := st.Buckets
	if after >= before {
		t.Fatalf("buckets did not shrink after mass delete: %d -> %d", before, after)
	}
	if st.Shrinks == 0 {
		t.Fatalf("buckets shrank %d -> %d but Stats.Shrinks is zero: %+v", before, after, st)
	}
	if st.ShrinkNS == 0 {
		t.Fatalf("Shrinks=%d but ShrinkNS=0: shrink duration not booked", st.Shrinks)
	}
	// Everything remaining still reachable and ordered.
	got := d.Scan(0, n, nil)
	if len(got) != d.Len() {
		t.Fatalf("scan %d vs Len %d", len(got), d.Len())
	}
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRange(t *testing.T) {
	d := New(smallOpts())
	for i := uint64(0); i < 1000; i++ {
		d.Insert(i*2, i)
	}
	var keys []uint64
	d.Range(100, 200, func(k, v uint64) bool {
		keys = append(keys, k)
		return true
	})
	if len(keys) != 51 || keys[0] != 100 || keys[len(keys)-1] != 200 {
		t.Fatalf("range keys: n=%d first=%d last=%d", len(keys), keys[0], keys[len(keys)-1])
	}
	// Early stop.
	count := 0
	d.Range(0, ^uint64(0), func(k, v uint64) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("early stop count=%d", count)
	}
}

func TestExtremeKeys(t *testing.T) {
	d := New(smallOpts())
	edge := []uint64{0, 1, ^uint64(0), ^uint64(0) - 1, 1 << 63, 1<<63 - 1}
	for i, k := range edge {
		d.Insert(k, uint64(i))
	}
	for i, k := range edge {
		v, ok := d.Get(k)
		if !ok || v != uint64(i) {
			t.Fatalf("edge key %#x", k)
		}
	}
	got := d.Scan(0, 10, nil)
	if len(got) != len(edge) {
		t.Fatalf("scan found %d of %d edge keys", len(got), len(edge))
	}
	if got[0].Key != 0 || got[len(got)-1].Key != ^uint64(0) {
		t.Fatalf("edge order wrong: %v", got)
	}
}

func TestDescendingInsertion(t *testing.T) {
	d := New(smallOpts())
	for i := 30000; i > 0; i-- {
		d.Insert(uint64(i), uint64(i))
	}
	got := d.Scan(0, 5, nil)
	if len(got) != 5 || got[0].Key != 1 {
		t.Fatalf("scan after descending insert: %v", got)
	}
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAblationDisableRemap(t *testing.T) {
	opts := smallOpts()
	opts.DisableRemap = true
	d := New(opts)
	for i := uint64(0); i < 20000; i++ {
		d.Insert(i, i) // dense sequential: heavy skew per segment
	}
	st := d.Stats()
	if st.Remaps != 0 {
		t.Fatalf("remaps ran despite DisableRemap: %+v", st)
	}
	for i := uint64(0); i < 20000; i += 13 {
		if _, ok := d.Get(i); !ok {
			t.Fatalf("missing %d", i)
		}
	}
}

func TestStatsBreakdownTimesPopulated(t *testing.T) {
	d := New(smallOpts())
	for i := uint64(0); i < 30000; i++ {
		d.Insert((i*2654435761)%(1<<40), i)
	}
	st := d.Stats()
	if st.Splits == 0 || st.Segments == 0 || st.Buckets == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
	if st.Splits > 0 && st.SplitNS == 0 {
		t.Fatalf("split time not recorded: %+v", st)
	}
	if d.MemoryFootprint() <= 0 {
		t.Fatal("memory footprint not positive")
	}
}

// TestQuickMatchesReference drives random operation sequences against a map +
// sorted-slice reference model and compares point and range results.
func TestQuickMatchesReference(t *testing.T) {
	prop := func(seed int64, skew bool) bool {
		rng := rand.New(rand.NewSource(seed))
		d := New(smallOpts())
		ref := map[uint64]uint64{}
		keyGen := func() uint64 {
			if skew {
				// clustered keys
				return uint64(rng.Intn(8))<<61 + uint64(rng.Intn(300))
			}
			return rng.Uint64() % 100000
		}
		for op := 0; op < 4000; op++ {
			k := keyGen()
			switch rng.Intn(6) {
			case 0, 1, 2:
				v := rng.Uint64()
				d.Insert(k, v)
				ref[k] = v
			case 3:
				_, in := ref[k]
				if d.Delete(k) != in {
					return false
				}
				delete(ref, k)
			case 4:
				gv, gok := d.Get(k)
				rv, rok := ref[k]
				if gok != rok || (gok && gv != rv) {
					return false
				}
			case 5:
				got := d.Scan(k, 20, nil)
				// reference scan
				var want []kv.KV
				keys := make([]uint64, 0, len(ref))
				for rk := range ref {
					if rk >= k {
						keys = append(keys, rk)
					}
				}
				sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
				for i := 0; i < len(keys) && i < 20; i++ {
					want = append(want, kv.KV{Key: keys[i], Value: ref[keys[i]]})
				}
				if len(got) != len(want) {
					return false
				}
				for i := range want {
					if got[i] != want[i] {
						return false
					}
				}
			}
		}
		if d.Len() != len(ref) {
			return false
		}
		return d.checkInvariants() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentRemapInvariants checks the remapping-function invariants
// directly: prediction is monotone in the key and covers [0, nb).
func TestSegmentRemapInvariants(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rangeBits := uint8(8 + rng.Intn(20))
		pbits := uint8(rng.Intn(5))
		nb := 1 + rng.Intn(64)
		s := newSegment(0, rangeBits, 0, nb, 8, pbits)
		// random but valid allocation
		if len(s.cnt) > 1 {
			w := make([]int, len(s.cnt))
			for i := range w {
				w[i] = rng.Intn(10)
			}
			s.cnt = allocProportional(w, nb)
			s.start = prefixSums(s.cnt)
		}
		prev := 0
		step := s.width() / 997
		if step == 0 {
			step = 1
		}
		for r := uint64(0); r < s.width(); r += step {
			bi := s.predict(r)
			if bi < 0 || bi >= s.nb {
				return false
			}
			if bi < prev {
				return false // monotonicity violated
			}
			prev = bi
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPlaceSortedNeverOverflows feeds adversarial ascending key sets whose
// predictions concentrate at the right edge, checking the tail-clamp logic.
func TestPlaceSortedNeverOverflows(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bcap := 4
		nb := 2 + rng.Intn(10)
		rangeBits := uint8(16)
		n := rng.Intn(nb*bcap + 1)
		// keys clustered near the top of the range
		ks := make([]uint64, 0, n)
		base := uint64(1<<16 - 1)
		for len(ks) < n {
			k := base - uint64(rng.Intn(256))
			ks = append(ks, k)
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
		// dedupe
		uniq := ks[:0]
		for i, k := range ks {
			if i == 0 || k != ks[i-1] {
				uniq = append(uniq, k)
			}
		}
		ks = uniq
		vs := make([]uint64, len(ks))
		s := newSegment(0, rangeBits, 0, nb, bcap, 2)
		s.adoptLayout(s.pbits, s.cnt, nb, ks, vs)
		if err := s.checkInvariants(); err != nil {
			return false
		}
		for _, k := range ks {
			if _, ok := s.get(k); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultOptionsWork(t *testing.T) {
	d := New(Options{})
	for i := uint64(0); i < 100000; i++ {
		d.Insert(i<<30, i)
	}
	if d.Len() != 100000 {
		t.Fatalf("Len=%d", d.Len())
	}
	if _, ok := d.Get(5 << 30); !ok {
		t.Fatal("missing key under defaults")
	}
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}
