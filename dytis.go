// Package dytis is the public API of this repository's reproduction of
// "DyTIS: A Dynamic Dataset Targeted Index Structure Simultaneously
// Efficient for Search, Insert, and Scan" (Yang et al., EuroSys '23).
//
// DyTIS is an in-memory ordered index over uint64 keys that supports point
// search, insert (upsert), delete, and range scans, and — unlike learned
// indexes — needs no bulk-load training phase: it learns and adjusts a
// piecewise-linear approximation of the key distribution's CDF incrementally
// as keys arrive, which makes it effective for dynamic datasets whose key
// densities vary across the key space and drift over time.
//
// Quick start:
//
//	idx := dytis.New()
//	idx.Insert(42, 1)
//	v, ok := idx.Get(42)
//	pairs := idx.Scan(0, 100, nil) // first 100 pairs in key order
//
// New takes functional options; for multi-goroutine use, enable the
// two-level locking scheme of the paper's §3.4:
//
//	idx := dytis.New(dytis.WithConcurrent())
//
// Beyond the core operations the index offers ordered iteration (NewCursor,
// Range, ScanFunc), Min/Max/Successor, a LoadSorted bulk fast path, binary
// snapshots (WriteSnapshot/ReadSnapshot), and structure statistics (Stats,
// MemoryFootprint). String keys are supported via the dytis/strkey
// subpackage. For live observability — per-operation latency histograms,
// structure-event hooks, and a Prometheus/expvar HTTP endpoint — attach an
// Observer:
//
//	ob := dytis.NewObserver()
//	idx := dytis.New(dytis.WithConcurrent(), dytis.WithObserver(ob))
//	go http.ListenAndServe(":8080", ob.Handler())
//
// The internal packages also contain the paper's baselines (an ALEX-like
// adaptive learned index, an XIndex-like concurrent learned index, an STX
// style B+-tree, classic Extendible Hashing, and CCEH), the synthetic
// dynamic datasets, the YCSB-style workload generator, and the benchmark
// harness that regenerates every table and figure of the paper's evaluation;
// see DESIGN.md and EXPERIMENTS.md.
package dytis

import (
	"dytis/internal/core"
	"dytis/internal/kv"
	"dytis/internal/obs"
)

// Key is an 8-byte integer key, ordered by unsigned value.
type Key = kv.Key

// Value is an 8-byte value payload (a pointer/handle in a real system).
type Value = kv.Value

// KV is a key/value pair, the unit returned by scans.
type KV = kv.KV

// Options configure an Index; the zero value selects the paper's §4.1
// defaults (R=9, 2 KB buckets, U_t=0.6, L_start=6, adaptive Limit_seg).
// New's functional options set these fields.
type Options = core.Options

// Stats reports the index's structure-maintenance counters (splits,
// remappings, expansions, directory doublings) and shape.
type Stats = core.Stats

// Index is a DyTIS index. See the package documentation for usage; all
// methods are safe for concurrent use iff Options.Concurrent was set.
// Beyond the point operations, Index offers Scan/Range, Min/Max/Successor,
// NewCursor for ordered iteration, and LoadSorted as a bulk fast path.
type Index = core.DyTIS

// Cursor iterates an Index in ascending key order; see Index.NewCursor.
type Cursor = core.Cursor

// New creates an empty index. With no options it is single-threaded with
// the paper's §4.1 default parameters; see the With* functional options.
func New(opts ...Option) *Index {
	var o core.Options
	for _, apply := range opts {
		apply(&o)
	}
	idx := core.New(o)
	// Complete the observer wiring: the exporter serves Stats and
	// MemoryFootprint straight from the index.
	if ob, ok := o.Observer.(*obs.Observer); ok && ob != nil {
		ob.Attach(idx)
	}
	return idx
}
