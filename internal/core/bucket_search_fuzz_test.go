package core

import (
	"math/bits"
	"sort"
	"testing"
)

// FuzzBucketLowerBound checks the in-bucket search two ways.
//
// On sorted keys it must equal sort.Search for every bucket size 0..bcap
// (each prefix of the built bucket), every probe near a stored key, and
// every pair of bounds: the realistic ones (lo = first key, hi = one past
// the last or fkSentinel) and the fuzzed ones, since the bounds only seed
// the search.
//
// On arbitrary input — unsorted keys, lo > hi, k >= hi, as a lock-free probe
// racing a writer can see — it must return an index in [0, n] and never
// panic.
//
// Input: the bytes are key gaps scaled by 2^(shift%57) (small shifts give
// clustered keys, large ones spread keys near the top of the key space);
// start, k, lo and hi are used as given.
func FuzzBucketLowerBound(f *testing.F) {
	f.Add([]byte{}, uint64(5), uint64(5), uint64(0), uint64(fkSentinel), uint8(0))
	f.Add([]byte{1, 1, 1, 1}, uint64(0), uint64(3), uint64(0), uint64(10), uint8(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 200, 0, 0}, uint64(100), uint64(300), uint64(100), uint64(fkSentinel), uint8(0))
	f.Add([]byte{255, 255, 255, 255}, ^uint64(0)-1<<40, ^uint64(0)-5, ^uint64(0)-1<<40, uint64(fkSentinel), uint8(38))
	f.Add(make([]byte, DefaultBucketEntries), uint64(1<<20), uint64(1<<20+77), uint64(1<<20), uint64(1<<20+200), uint8(0))
	f.Add([]byte{9, 3, 7, 1, 200, 4}, uint64(1000), uint64(999), uint64(2000), uint64(10), uint8(6))
	f.Add([]byte{1, 2, 3}, uint64(0), ^uint64(0), uint64(0), uint64(1), uint8(63))
	f.Fuzz(func(t *testing.T, gaps []byte, start, k, lo, hi uint64, shift uint8) {
		if len(gaps) > DefaultBucketEntries {
			gaps = gaps[:DefaultBucketEntries]
		}
		// Sorted: strictly ascending keys from start, stopping before wrap.
		ks := make([]uint64, 0, len(gaps))
		key := start
		for i, g := range gaps {
			if i > 0 {
				next, carry := bits.Add64(key, (uint64(g)+1)<<(shift%57), 0)
				if carry != 0 {
					break
				}
				key = next
			}
			ks = append(ks, key)
		}
		for n := 0; n <= len(ks); n++ {
			b := ks[:n]
			probes := []uint64{k, lo, hi, start}
			bounds := [][2]uint64{{lo, hi}, {start, fkSentinel}}
			if n > 0 {
				last := b[n-1]
				probes = append(probes, b[0]-1, b[n/2], b[n/2]+1, last, last+1)
				if last < fkSentinel {
					bounds = append(bounds, [2]uint64{b[0], last + 1})
				}
			}
			for _, bd := range bounds {
				for _, p := range probes {
					want := sort.Search(n, func(i int) bool { return b[i] >= p })
					if got := bucketLowerBound(b, p, bd[0], bd[1]); got != want {
						t.Fatalf("sorted n=%d k=%#x lo=%#x hi=%#x: got %d, sort.Search %d (keys %#x)",
							n, p, bd[0], bd[1], got, want, b)
					}
				}
			}
		}
		// Arbitrary: the gap bytes as unsorted keys.
		raw := make([]uint64, len(gaps))
		for i, g := range gaps {
			raw[i] = start + uint64(g)<<(shift%57)
		}
		for _, bd := range [][2]uint64{{lo, hi}, {hi, lo}, {k, k}, {0, k}} {
			if got := bucketLowerBound(raw, k, bd[0], bd[1]); got < 0 || got > len(raw) {
				t.Fatalf("unsorted n=%d k=%#x lo=%#x hi=%#x: index %d out of [0, %d]",
					len(raw), k, bd[0], bd[1], got, len(raw))
			}
		}
	})
}
