// Package obs is the standard observability layer for a DyTIS index: it
// implements core.Observer with sharded per-operation latency histograms and
// a structure-event subscriber fan-out, plus an HTTP exporter (see
// exporter.go) that serves the merged histograms, the index's Stats, and its
// MemoryFootprint in Prometheus text format and expvar-style JSON.
//
// Design: the hot path (RecordOp) must stay cheap under heavy concurrent
// load, so latencies land in per-shard lathist.AtomicHist instances selected
// by the operation's first-level EH index — goroutines working different key
// regions never touch the same cache lines, and recording is a handful of
// uncontended atomic adds. Readers pay instead: OpHist folds all shards into
// one lathist.Hist per call.
package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"dytis/internal/core"
	"dytis/internal/lathist"
)

// Shards is the number of histogram shards per operation. EH indexes are
// folded onto shards by masking, so it must be a power of two; 64 shards
// keep same-shard collisions rare at realistic thread counts. A shard's
// ~15 KiB of buckets is allocated by its first record, so an Observer costs
// ~2 KiB of pointers plus 15 KiB per (op, shard) its traffic touched, at
// most 4 ops x 64 shards x 15 KiB ≈ 4 MiB.
const Shards = 64

// StatsSource is the index-side surface the exporter reads; *core.DyTIS
// (and therefore the public dytis.Index) implements it.
type StatsSource interface {
	Stats() core.Stats
	MemoryFootprint() int64
	Len() int
}

// Observer collects per-operation latency histograms and structure-event
// counters from one or more DyTIS indexes. All methods are safe for
// concurrent use. Create with New, pass to the index via
// core.Options.Observer (or dytis.WithObserver), and attach the index back
// with Attach so the exporter can serve Stats and MemoryFootprint.
type Observer struct {
	hists [core.NumOps][Shards]lathist.AtomicHist

	eventCount [core.NumEventKinds]atomic.Int64
	eventNS    [core.NumEventKinds]atomic.Int64

	mu   sync.RWMutex
	subs []func(core.StructureEvent)
	src  StatsSource

	start time.Time
}

// New returns an empty Observer.
func New() *Observer { return &Observer{start: time.Now()} }

// RecordOp implements core.Observer: it records one operation latency into
// the shard owned by the operation's first-level EH table.
func (o *Observer) RecordOp(op core.Op, shard int, d time.Duration) {
	o.hists[op][shard&(Shards-1)].Record(d)
}

// RecordBatch implements core.BatchObserver: a batch of n operations that
// took total altogether lands as n samples of the mean per-op latency in the
// given shard's histogram, at the cost of a single RecordOp regardless of n.
func (o *Observer) RecordBatch(op core.Op, shard int, n int, total time.Duration) {
	if n <= 0 {
		return
	}
	o.hists[op][shard&(Shards-1)].RecordN(total/time.Duration(n), n)
}

// StructureEvent implements core.Observer: it bumps the per-kind counters
// and fans the event out to every subscriber. It is called from inside the
// index's maintenance paths (under locks in Concurrent mode), so
// subscribers must return quickly and must not call back into the index.
func (o *Observer) StructureEvent(ev core.StructureEvent) {
	o.eventCount[ev.Kind].Add(1)
	o.eventNS[ev.Kind].Add(int64(ev.Duration))
	o.mu.RLock()
	subs := o.subs
	o.mu.RUnlock()
	for _, fn := range subs {
		fn(ev)
	}
}

// Subscribe registers fn to be called for every future structure event. See
// StructureEvent for the constraints on fn. Subscribers cannot be removed;
// register a closure that checks its own liveness if needed.
func (o *Observer) Subscribe(fn func(core.StructureEvent)) {
	o.mu.Lock()
	// Copy-on-write so StructureEvent can iterate without holding the lock.
	o.subs = append(append(make([]func(core.StructureEvent), 0, len(o.subs)+1), o.subs...), fn)
	o.mu.Unlock()
}

// Attach registers the index whose Stats, MemoryFootprint, and Len the
// exporter serves. dytis.New calls it automatically when the observer is
// passed via WithObserver.
func (o *Observer) Attach(src StatsSource) {
	o.mu.Lock()
	o.src = src
	o.mu.Unlock()
}

// DetachIndex implements core.Detacher: if src is the currently attached
// index, the exporter stops serving its Stats/MemoryFootprint/Len.
// DyTIS.Close calls it so a closed index is released; detaching does not
// clear the histograms or event counters already collected.
func (o *Observer) DetachIndex(src any) {
	s, ok := src.(StatsSource)
	if !ok {
		return
	}
	o.mu.Lock()
	if o.src == s {
		o.src = nil
	}
	o.mu.Unlock()
}

func (o *Observer) source() StatsSource {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.src
}

// OpHist returns a merged snapshot of the given operation's latency
// histogram across all shards.
func (o *Observer) OpHist(op core.Op) *lathist.Hist {
	h := &lathist.Hist{}
	for i := range o.hists[op] {
		o.hists[op][i].AddTo(h)
	}
	return h
}

// EventCount returns how many events of the given kind have fired.
func (o *Observer) EventCount(k core.EventKind) int64 { return o.eventCount[k].Load() }

// EventDuration returns the cumulative wall time spent in events of the
// given kind.
func (o *Observer) EventDuration(k core.EventKind) time.Duration {
	return time.Duration(o.eventNS[k].Load())
}
