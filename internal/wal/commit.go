package wal

import (
	"fmt"
	"sync"
)

// Group commit. A mutation never writes the log itself: it frames its record
// onto the open group under qmu — queue order is therefore log order — and
// whoever finds no committer running becomes (or starts) one. The committer
// takes the whole open group and, holding mu, does one write and one fsync
// (per policy), applies the group to the index in log order, then hands each
// waiter its own result. Whatever queued meanwhile is the next group, so
// groups size themselves to the fsync latency: no timer, no batch-size knob.
// A lone caller finds the queue empty and commits its own one-record group in
// place — the path a sequential writer has always had.

// doneFunc is a submitted op's completion, a cluster.Done: it runs on
// whichever goroutine committed the op's group.
type doneFunc = func(found bool, founds []bool, err error)

// op is one queued mutation: its arguments on the way in, its result on the
// way out. Ops are recycled through opPool; a synchronous caller's op carries
// no done and is woken through wake instead.
type op struct {
	kind       byte // record kind (kindInsert …)
	key, val   uint64
	keys, vals []uint64
	founds     []bool
	found      bool
	err        error
	done       doneFunc
	wake       chan struct{} // capacity 1: the committer's signal to a synchronous caller
}

// kindBarrier is an op that frames, logs and applies nothing: its completion
// says every op queued before it has committed or failed (ServingIndex.Barrier).
const kindBarrier byte = 0xff

var opPool = sync.Pool{New: func() any { return &op{wake: make(chan struct{}, 1)} }}

func newOp(kind byte) *op {
	o := opPool.Get().(*op)
	o.kind = kind
	return o
}

// release returns o to the pool, dropping every reference it held.
func (o *op) release() {
	*o = op{wake: o.wake}
	opPool.Put(o)
}

// group is the unit the committer writes, syncs and applies at once.
type group struct {
	ops  []*op
	buf  []byte // the ops' framed records, in ops order
	nrec int    // records in buf (a large batch splits into several)
}

// batchRecords is how many records a batch of n keys frames into.
func batchRecords(n int) int { return (n + maxBatchPairs - 1) / maxBatchPairs }

// enqueue frames o's record onto the open group and reports whether the
// caller must now provide the committer (none was running).
func (s *Store) enqueue(o *op) (lead bool) {
	s.qmu.Lock()
	g := &s.groups[s.open]
	switch o.kind {
	case kindInsert:
		g.buf = appendInsert(g.buf, o.key, o.val)
		g.nrec++
	case kindDelete:
		g.buf = appendDelete(g.buf, o.key)
		g.nrec++
	case kindInsertBatch:
		g.buf = appendInsertBatch(g.buf, o.keys, o.vals)
		g.nrec += batchRecords(len(o.keys))
	case kindDeleteBatch:
		g.buf = appendDeleteBatch(g.buf, o.keys)
		g.nrec += batchRecords(len(o.keys))
	}
	g.ops = append(g.ops, o)
	lead = !s.committing
	s.committing = true
	s.qmu.Unlock()
	return lead
}

// commit runs o through the queue for a synchronous caller and returns once
// its result is in o. A caller that finds no committer commits the first
// group — its own — on its own goroutine, so an uncontended mutation costs no
// hand-off.
func (s *Store) commit(o *op) {
	if s.enqueue(o) {
		s.runCommitter(true)
	}
	<-o.wake
}

// submit queues o for a caller that does not wait: o.done receives the
// result.
func (s *Store) submit(o *op) {
	if s.enqueue(o) {
		go s.runCommitter(false)
	}
}

// runCommitter commits groups until the queue is empty; at most one runs at
// a time (the committing flag is the baton). A synchronous leader passes
// once and commits only the first group, leaving a longer queue to a fresh
// goroutine rather than serving other callers indefinitely.
func (s *Store) runCommitter(once bool) {
	for first := true; ; first = false {
		s.qmu.Lock()
		g := &s.groups[s.open]
		if len(g.ops) == 0 {
			s.committing = false
			s.qmu.Unlock()
			return
		}
		if once && !first {
			s.qmu.Unlock()
			go s.runCommitter(false)
			return
		}
		s.open ^= 1 // the other group is empty: this committer reset it
		s.qmu.Unlock()
		s.commitGroup(g)
	}
}

// commitGroup logs, syncs and applies g as one unit under mu, then completes
// its waiters outside it. If the store is closed or failed, or the write or
// fsync fails, nothing of the group is applied and every waiter gets that
// error.
func (s *Store) commitGroup(g *group) {
	s.mu.Lock()
	err := s.readyLocked()
	if err == nil && g.nrec > 0 { // a group of barriers alone logs nothing
		err = s.logLocked(g)
	}
	if err == nil {
		err = s.applyLocked(g)
	}
	s.mu.Unlock()
	for i, o := range g.ops {
		if err != nil {
			o.err = err
		}
		g.ops[i] = nil
		if o.done == nil {
			o.wake <- struct{}{}
			continue
		}
		done, found, founds, oerr := o.done, o.found, o.founds, o.err
		o.release()
		done(found, founds, oerr)
	}
	g.ops, g.buf, g.nrec = g.ops[:0], g.buf[:0], 0
}

// logLocked appends g to the log — rotating first if the previous groups
// filled the segment — fsyncing under FsyncAlways, and nudges the
// size-triggered checkpoint.
//
//dytis:locked s.mu w
func (s *Store) logLocked(g *group) error {
	if s.opts.SegmentBytes > 0 && s.log.size >= s.opts.SegmentBytes {
		if err := s.log.rotate(); err != nil {
			return s.failLocked("rotate", err)
		}
	}
	if err := s.log.append(g.buf, g.nrec); err != nil {
		return s.failLocked("append", err)
	}
	s.sinceCkpt += int64(len(g.buf))
	if s.opts.CheckpointBytes > 0 && s.sinceCkpt >= s.opts.CheckpointBytes {
		select {
		case s.ckptKick <- struct{}{}:
		default:
		}
	}
	return nil
}

// applyLocked applies a logged group to the index in log order. A panic
// below (an index bug) must not strand the queue with the baton held: it
// poisons the store — the index may now trail the log, which a restart
// replays — and fails the group.
//
//dytis:locked s.mu w
func (s *Store) applyLocked(g *group) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = s.failLocked("apply", fmt.Errorf("panic: %v", r))
		}
	}()
	for _, o := range g.ops {
		switch o.kind {
		case kindInsert:
			s.idx.Insert(o.key, o.val)
		case kindDelete:
			o.found = s.idx.Delete(o.key)
		case kindInsertBatch:
			o.err = s.idx.InsertBatch(o.keys, o.vals)
		case kindDeleteBatch:
			o.founds, o.err = s.idx.DeleteBatch(o.keys, o.founds)
		}
	}
	return nil
}
