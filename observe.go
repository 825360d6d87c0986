package dytis

import (
	"dytis/internal/core"
	"dytis/internal/obs"
)

// Option configures an index at construction; pass Options to New.
// The With* constructors below cover the paper's knobs; unset parameters
// keep their §4.1 defaults.
type Option func(*core.Options)

// WithConcurrent makes all index methods safe for concurrent use: writers
// follow the two-level (EH + segment) reader/writer locking scheme of §3.4,
// while Get and Scan run an optimistic protocol (published directory
// snapshots plus a per-segment seqlock) that keeps point lookups lock-free;
// see DESIGN.md "Concurrency design".
func WithConcurrent() Option {
	return func(o *core.Options) { o.Concurrent = true }
}

// WithFirstLevelBits sets R, the number of key MSBs selecting the
// first-level EH table (2^R tables; default 9, capped at 16).
func WithFirstLevelBits(r int) Option {
	return func(o *core.Options) { o.FirstLevelBits = r }
}

// WithBucketEntries sets the number of key/value pairs per bucket (the
// paper's B_size; default 128 pairs = 2 KB).
func WithBucketEntries(n int) Option {
	return func(o *core.Options) { o.BucketEntries = n }
}

// WithUtilThreshold sets U_t in (0,1), the segment utilization separating
// the split/expansion path from the remapping path (default 0.6).
func WithUtilThreshold(u float64) Option {
	return func(o *core.Options) { o.UtilThreshold = u }
}

// WithStartDepth sets L_start, the local depth at which remapping and
// expansion begin (default 6).
func WithStartDepth(d int) Option {
	return func(o *core.Options) { o.StartDepth = d }
}

// WithSegLimitMult sets the base multiplier of the per-depth segment-size
// limit Limit_seg (default 2).
func WithSegLimitMult(m int) Option {
	return func(o *core.Options) { o.SegLimitMult = m }
}

// WithObserver attaches an observability layer to the index: every
// Get/Insert/Delete/Scan latency is recorded into ob's sharded histograms,
// every structure-maintenance operation fires a StructureEvent, and
// ob.Handler() serves it all (plus the index's Stats and MemoryFootprint)
// over HTTP. A nil ob leaves observability disabled.
//
// With no observer attached (the default), instrumentation costs one branch
// per operation; see the BenchmarkObservability* results in the README.
func WithObserver(ob *Observer) Option {
	return func(o *core.Options) {
		if ob != nil {
			o.Observer = ob
		}
	}
}

// Observer collects per-operation latency histograms and structure events
// from an index; create one with NewObserver, attach it with WithObserver,
// and serve its Handler. See internal/obs for the implementation.
type Observer = obs.Observer

// NewObserver returns an empty Observer.
func NewObserver() *Observer { return obs.New() }

// Op identifies a public index operation in observer histograms.
type Op = core.Op

// Observable operations.
const (
	OpGet    = core.OpGet
	OpInsert = core.OpInsert
	OpDelete = core.OpDelete
	OpScan   = core.OpScan
)

// EventKind identifies a structure-maintenance operation (Algorithm 1).
type EventKind = core.EventKind

// Structure-event kinds: segment split, remapping-function adjustment,
// in-place segment expansion, directory doubling, a remap attempt that
// exceeded Limit_seg and fell through to the structural path, and the
// deletion-path segment shrink (remapping in the opposite direction).
const (
	EvSplit        = core.EvSplit
	EvRemap        = core.EvRemap
	EvExpand       = core.EvExpand
	EvDouble       = core.EvDouble
	EvRemapFailure = core.EvRemapFailure
	EvShrink       = core.EvShrink
)

// StructureEvent describes one completed structure-maintenance operation;
// subscribe to a stream of them with Observer.Subscribe.
type StructureEvent = core.StructureEvent
