// Package core implements DyTIS (Dynamic dataset Targeted Index Structure),
// the primary contribution of the EuroSys '23 paper. DyTIS is an ordered
// index built on the skeleton of Extendible Hashing: a static first level of
// 2^R EH tables selected by the R most significant key bits, and inside each
// EH a CCEH-style directory → segments → buckets hierarchy. Unlike a hash
// index, DyTIS uses the raw key (not a hashed pseudo-key) for placement and
// keeps every bucket sorted, so range scans work; skewed key distributions
// are flattened by per-segment piecewise-linear remapping functions that
// approximate the CDF of the segment's keys and are adjusted incrementally as
// keys arrive — no bulk-load training phase.
package core

// Defaults mirror §4.1 of the paper.
const (
	DefaultFirstLevelBits  = 9   // R: 2^9 first-level EH tables
	DefaultBucketEntries   = 128 // 2 KB bucket: 128 key/value pairs
	DefaultUtilThreshold   = 0.6 // U_t
	DefaultStartDepth      = 6   // L_start: depth at which remap/expansion begin
	DefaultSegLimitMult    = 2   // Limit_seg default multiplier
	DefaultAdaptiveMult    = 128 // Limit_seg for expansion-heavy (uniform-ish) EHs
	DefaultMaxSubRangeBits = 8   // at most 2^8 remapping sub-ranges per segment
	DefaultAdaptiveFrac    = 0.5 // expansion share that triggers the 128x limit
	DefaultBaseSegBuckets  = 64  // base segment size in buckets at L_start

	// maxDirDepth hard-stops directory doubling: past this global depth an
	// EH grows segments past Limit_seg instead. Legitimate directories stay
	// around a dozen levels even at paper scale; the guard protects against
	// clusters far narrower than the directory can resolve, whose one-sided
	// splits would otherwise double the directory unboundedly.
	maxDirDepth = 18
)

// Options configure a DyTIS index. The zero value selects all defaults.
type Options struct {
	// FirstLevelBits is R, the number of key MSBs that select the
	// first-level EH table. The first level has 2^R entries.
	FirstLevelBits int
	// BucketEntries is the number of key/value pairs per bucket
	// (the paper's B_size; 128 pairs = 2 KB).
	BucketEntries int
	// UtilThreshold is U_t, the segment utilization separating the
	// split/expansion path from the remapping path on bucket overflow.
	UtilThreshold float64
	// StartDepth is L_start: segments below this local depth use only the
	// basic Extendible-Hashing schemes (split, directory doubling).
	StartDepth int
	// BaseSegBuckets is the base segment size in buckets; the per-depth
	// limit is BaseSegBuckets*SegLimitMult, doubling per local-depth level
	// past StartDepth.
	BaseSegBuckets int
	// SegLimitMult is the base multiplier of the per-depth segment-size
	// limit (the paper's Limit_seg, default 2x).
	SegLimitMult int
	// AdaptiveMult replaces SegLimitMult for an EH whose observed
	// maintenance mix is expansion-heavy (the paper raises it to 128x at
	// local depth L_start+2).
	AdaptiveMult int
	// MaxSubRangeBits caps the number of remapping sub-ranges per segment
	// at 2^MaxSubRangeBits.
	MaxSubRangeBits int
	// Concurrent enables the two-level (EH + segment) reader/writer
	// locking scheme of §3.4. When false, DyTIS is the paper's
	// single-threaded no-lock variant and must not be shared across
	// goroutines.
	Concurrent bool

	// Observer, when non-nil, receives per-operation latencies and
	// structure-maintenance events. nil (the default) compiles the
	// instrumentation down to one branch per operation.
	Observer Observer

	// Ablation switches (not in the paper's interface; used by the
	// ablation benchmarks to quantify each mechanism of §3.3).

	// DisableRemap forces the split/doubling path on every overflow.
	DisableRemap bool
	// DisableExpansion forces directory doubling where expansion would run.
	DisableExpansion bool
	// DisableAdaptiveLimit pins Limit_seg to SegLimitMult.
	DisableAdaptiveLimit bool
	// DisableRefinement stops remapping from subdividing sub-ranges.
	DisableRefinement bool
}

// withDefaults returns a copy of o with zero fields replaced by defaults.
func (o Options) withDefaults() Options {
	if o.FirstLevelBits <= 0 {
		o.FirstLevelBits = DefaultFirstLevelBits
	}
	if o.FirstLevelBits > 16 {
		o.FirstLevelBits = 16
	}
	if o.BucketEntries <= 0 {
		o.BucketEntries = DefaultBucketEntries
	}
	if o.BucketEntries > 1<<15 {
		o.BucketEntries = 1 << 15
	}
	if o.UtilThreshold <= 0 || o.UtilThreshold >= 1 {
		o.UtilThreshold = DefaultUtilThreshold
	}
	if o.StartDepth <= 0 {
		o.StartDepth = DefaultStartDepth
	}
	if o.BaseSegBuckets <= 0 {
		o.BaseSegBuckets = DefaultBaseSegBuckets
	}
	if o.SegLimitMult <= 0 {
		o.SegLimitMult = DefaultSegLimitMult
	}
	if o.AdaptiveMult <= 0 {
		o.AdaptiveMult = DefaultAdaptiveMult
	}
	if o.MaxSubRangeBits <= 0 {
		o.MaxSubRangeBits = DefaultMaxSubRangeBits
	}
	return o
}
