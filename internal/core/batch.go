package core

import (
	"errors"
	"time"
)

// ErrClosed is returned (batch mutation paths) or carried by the panic
// (legacy single-op mutation paths) when an operation that would mutate the
// index arrives after Close. Reads of a closed index remain valid — the
// in-memory structure survives Close — but a mutation accepted after Close
// would silently diverge any write-ahead log attached in front of the index
// from the index itself, so mutations fail loudly instead.
var ErrClosed = errors.New("dytis: index is closed")

// Batch entry points. A networked or otherwise batching caller that already
// holds many operations amortizes two per-op costs by using these: the
// option/observer dispatch in the public methods (one time.Now pair and one
// observer call per batch instead of per op) and, for remote callers, the
// per-op request round trip. The index work itself is identical to calling
// the single-op methods in a loop — batches are not atomic: under
// concurrency, other writers may interleave between the batch's operations.
//
// Observability: a batch is booked as n samples of its mean per-op latency
// (via BatchObserver when the observer implements it), attributed to the
// first key's first-level EH shard — per-key shard attribution is the price
// of skipping per-op dispatch.

// GetBatch looks up every key of keys, appending each result to vals and
// found (position i of the appended region corresponds to keys[i]), and
// returns the extended slices. Passing recycled slices avoids allocation.
func (d *DyTIS) GetBatch(keys []uint64, vals []uint64, found []bool) ([]uint64, []bool) {
	if len(keys) == 0 {
		return vals, found
	}
	timed := d.obs != nil
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	for i := 0; i < len(keys); i += getGroupLen {
		vals, found = d.getGroup(keys[i:min(i+getGroupLen, len(keys))], vals, found)
	}
	if timed {
		d.recordBatch(OpGet, d.ehOf(keys[0]).idx, len(keys), time.Since(t0))
	}
	return vals, found
}

// getGroupLen is how many keys GetBatch probes together. A point lookup is
// a chain of dependent loads — directory snapshot, segment version and
// layout, remapping model, fk gallop, bucket, value — each likely a cache
// miss on an index larger than the LLC. Running one stage over the whole
// group before the next lets the group's misses overlap instead of queueing
// key after key. 16 measured best: 4 and 8 overlap too few misses, 32 and
// 64 spill the per-key state out of L1.
const getGroupLen = 16

// groupProbe is one key's state between the stages of getGroup.
type groupProbe struct {
	e   *eh
	s   *segment // nil: answer through e.get
	l   *layout
	ver uint64 // s.seq, read before any of the probe's loads
	at  int    // predicted bucket, then candidate bucket, then value slot; -1 = absent
	v   uint64
}

// getGroup answers up to getGroupLen keys with the optimistic probe of
// segment.tryGet, run stage by stage across the group. Every key keeps
// tryGet's seqlock window — its version is read before any of its probe
// loads and re-checked after all of them; the window is only longer. A key
// whose version was odd or moved, and every key the optimistic path does not
// serve (single-threaded mode, race builds), is answered by eh.get:
// optimistic retries, then the §3.4 locked path.
//
//dytis:seqlocked
func (d *DyTIS) getGroup(keys []uint64, vals []uint64, found []bool) ([]uint64, []bool) {
	var buf [getGroupLen]groupProbe
	g := buf[:len(keys)]
	// 1: directory snapshot → segment.
	for i, k := range keys {
		e := d.ehOf(k)
		g[i].e = e
		if e.conc && !raceEnabled {
			sn := e.snap.Load()
			g[i].s = sn.dir[sn.index(k, e.base, e.suffixBits)]
		}
	}
	d.afterStage(1)
	// 2: version, then the layout it guards. Odd means a writer is active or
	// the segment is retired.
	for i := range g {
		p := &g[i]
		if p.s == nil {
			continue
		}
		if p.ver = p.s.seq.Load(); p.ver&1 != 0 {
			p.s = nil
			continue
		}
		p.l = p.s.pub.Load()
	}
	d.afterStage(2)
	// 3: remapping model → predicted bucket.
	for i, k := range keys {
		if p := &g[i]; p.s != nil {
			p.at = predictWith(k-p.s.base, p.s.rangeBits, p.l.pbits, p.l.cnt, p.l.start, p.l.nb)
		}
	}
	d.afterStage(3)
	// 4: fk gallop → candidate bucket.
	for i, k := range keys {
		if p := &g[i]; p.s != nil {
			p.at = candidateIn(p.l.fk, p.l.sz, p.l.nb, k, p.at)
		}
	}
	d.afterStage(4)
	// 5: in-bucket search → value slot.
	for i, k := range keys {
		if p := &g[i]; p.s != nil && p.at >= 0 {
			p.at = p.s.slotIn(p.l, p.at, k)
		}
	}
	d.afterStage(5)
	// 6: the value, one more miss: vals is an array of its own.
	for i := range g {
		if p := &g[i]; p.s != nil && p.at >= 0 {
			p.v = p.l.vals[p.at]
		}
	}
	d.afterStage(6)
	// 7: re-check each version; fall back per key.
	for i, k := range keys {
		p := &g[i]
		v, ok := p.v, p.at >= 0
		if p.s == nil || p.s.seq.Load() != p.ver {
			v, ok = p.e.get(k)
		}
		vals = append(vals, v)
		found = append(found, ok)
	}
	return vals, found
}

// afterStage runs the test seam between getGroup's stages: a hook that
// mutates the index there lands inside every key's seqlock window.
func (d *DyTIS) afterStage(stage int) {
	if d.probeHook != nil {
		d.probeHook(stage)
	}
}

// InsertBatch stores or updates vals[i] under keys[i] for every i. It panics
// if the slices differ in length, and returns ErrClosed (applying nothing)
// once Close has been called.
func (d *DyTIS) InsertBatch(keys, vals []uint64) error {
	if len(keys) != len(vals) {
		panic("dytis: InsertBatch slice length mismatch")
	}
	if d.closed.Load() {
		return ErrClosed
	}
	if len(keys) == 0 {
		return nil
	}
	if d.obs == nil {
		for i, k := range keys {
			d.ehOf(k).insert(k, vals[i])
		}
		return nil
	}
	t0 := time.Now()
	for i, k := range keys {
		d.ehOf(k).insert(k, vals[i])
	}
	d.recordBatch(OpInsert, d.ehOf(keys[0]).idx, len(keys), time.Since(t0))
	return nil
}

// DeleteBatch removes every key of keys, appending to found whether each was
// present, and returns the extended slice. After Close it returns found
// unextended and ErrClosed, applying nothing.
func (d *DyTIS) DeleteBatch(keys []uint64, found []bool) ([]bool, error) {
	if d.closed.Load() {
		return found, ErrClosed
	}
	if len(keys) == 0 {
		return found, nil
	}
	if d.obs == nil {
		for _, k := range keys {
			found = append(found, d.ehOf(k).delete(k))
		}
		return found, nil
	}
	t0 := time.Now()
	for _, k := range keys {
		found = append(found, d.ehOf(k).delete(k))
	}
	d.recordBatch(OpDelete, d.ehOf(keys[0]).idx, len(keys), time.Since(t0))
	return found, nil
}

// recordBatch books n operations taking total altogether, through the
// observer's batched hook when it has one.
func (d *DyTIS) recordBatch(op Op, shard, n int, total time.Duration) {
	if d.obsBatch != nil {
		d.obsBatch.RecordBatch(op, shard, n, total)
		return
	}
	mean := total / time.Duration(n)
	for i := 0; i < n; i++ {
		d.obs.RecordOp(op, shard, mean)
	}
}

// Close shuts the index down as an observable entity: it detaches the index
// from its observer (so HTTP exporters stop serving its Stats and the index
// can be collected) and drops the observer reference so no further latencies
// or structure events are recorded. The in-memory structure itself needs no
// flushing and remains readable; Close is idempotent and always returns nil.
//
// After Close, mutations fail loudly instead of silently diverging the
// index from any write-ahead log in front of it: the batch entry points
// return ErrClosed, and the legacy error-less paths (Insert, Delete,
// LoadSorted) panic with a message wrapping the same condition.
//
// Close must not race with in-flight operations: quiesce callers first (a
// server drains its connections before closing the index it serves).
func (d *DyTIS) Close() error {
	if d.closed.Swap(true) {
		return nil
	}
	if det, ok := d.obs.(Detacher); ok {
		det.DetachIndex(d)
	}
	d.obs = nil
	d.obsBatch = nil
	return nil
}

// Closed reports whether Close has been called.
func (d *DyTIS) Closed() bool { return d.closed.Load() }
