package server

// Submitted mutations. On a backend that commits in groups (Committer — the
// durable wal.Store adapter), executing a mutation inline would park the
// connection's read loop on an fsync, and every later request on the
// connection — reads included — behind it. Instead the read loop submits the
// mutation and moves on; the backend calls back once the mutation is logged
// and applied, and the write loop encodes and sends the response:
//
//	read loop ──submit──► backend queue ──commit──► mutation.complete ──► acks chan ──► write loop
//
// Three guards keep that safe. A completion only does a channel send that
// cannot block (acks has a place for every pending mutation), so one slow
// connection never stalls the committer. Pending mutations per connection
// are bounded by Pipeline (mutSlots) and a place is freed only when the
// write loop has taken the ack, so the backpressure chain of the package
// comment still ends at the client. And serve joins every pending mutation
// before it closes the out channel, so a drain still answers every request
// the server has read.

import (
	"sync"
	"time"

	"dytis/internal/proto"
)

// Committer is the optional extension of Index for a backend whose mutations
// commit in groups: a Submit method queues the mutation and returns at once,
// and done receives its outcome — found for a delete, founds (the submitted
// slice, extended) for a batch delete, a non-nil err when the mutation was
// neither logged nor applied. Mutations submitted from one goroutine apply
// in submission order. done runs on the backend's committer and must not
// block; slices passed in stay untouched until it runs.
type Committer interface {
	SubmitInsert(key, val uint64, done func(found bool, founds []bool, err error))
	SubmitDelete(key uint64, done func(found bool, founds []bool, err error))
	SubmitInsertBatch(keys, vals []uint64, done func(found bool, founds []bool, err error))
	SubmitDeleteBatch(keys []uint64, found []bool, done func(found bool, founds []bool, err error))
}

// submits reports whether op is one the committing path takes over.
func submits(op proto.Opcode) bool {
	switch op {
	case proto.OpInsert, proto.OpDelete, proto.OpInsertBatch, proto.OpDeleteBatch:
		return true
	}
	return false
}

// mutation is one submitted request between the read loop and its response:
// what the response must echo, what completion must release, the batch
// arguments (copied out of the read loop's scratch, which the next frame
// overwrites), and then the result. Recycled through mutPool.
type mutation struct {
	c    *conn
	id   uint64
	op   proto.Opcode
	n    int           // operation count, for metrics
	t0   time.Time     // submission, for the booked latency
	slot chan struct{} // admission slot held until completion; nil when none

	keys, vals []uint64
	founds     []bool

	found bool
	err   error

	done func(found bool, founds []bool, err error) // m.complete, bound once
}

var mutPool sync.Pool // of *mutation

func newMutation() *mutation {
	if m, ok := mutPool.Get().(*mutation); ok {
		return m
	}
	m := &mutation{}
	m.done = m.complete
	return m
}

// complete is the backend's callback. It runs on the committer, so it does
// only what cannot block: book the latency, release the admission slot, and
// pass the mutation to the connection's write loop.
func (m *mutation) complete(found bool, founds []bool, err error) {
	m.found, m.err = found, err
	if founds != nil {
		m.founds = founds
	}
	c := m.c
	if mt := c.srv.cfg.Metrics; mt != nil {
		mt.recordOp(m.op, c.shard, m.n, time.Since(m.t0))
	}
	if m.slot != nil {
		<-m.slot
	}
	c.acks <- m // never blocks: mutSlots keeps pending mutations within cap(acks)
}

// submit hands c.req to the committing backend and returns without waiting
// for it; slot is the admission slot the request holds, if any. It blocks
// only while Pipeline mutations are already pending on this connection.
func (c *conn) submit(t0 time.Time, slot chan struct{}) {
	c.mutSlots <- struct{}{}
	c.muts.Add(1)

	req := &c.req
	m := newMutation()
	m.c, m.id, m.op, m.n, m.t0, m.slot = c, req.ID, req.Op, batchSize(req), t0, slot
	be := c.srv.committer
	switch req.Op {
	case proto.OpInsert:
		be.SubmitInsert(req.Key, req.Val, m.done)
	case proto.OpDelete:
		be.SubmitDelete(req.Key, m.done)
	case proto.OpInsertBatch:
		m.keys = append(m.keys[:0], req.Keys...)
		m.vals = append(m.vals[:0], req.Vals...)
		be.SubmitInsertBatch(m.keys, m.vals, m.done)
	case proto.OpDeleteBatch:
		m.keys = append(m.keys[:0], req.Keys...)
		be.SubmitDeleteBatch(m.keys, m.founds[:0], m.done)
	}
}

// appendAck encodes a completed mutation's response onto dst. Called by the
// write loop.
func (c *conn) appendAck(dst []byte, m *mutation) []byte {
	resp := proto.Response{ID: m.id, Op: m.op, Found: m.found}
	if m.op == proto.OpDeleteBatch {
		resp.Founds = m.founds
	}
	if m.err != nil {
		resp.Status, resp.Msg = proto.StatusErr, m.err.Error()
	}
	dst, _ = c.appendFrame(dst, &resp) // an encode failure is logged and writes nothing, as in send
	return dst
}

// acked retires a mutation the write loop has taken: its place in the
// pending bound is free and the drain no longer waits for it.
func (c *conn) acked(m *mutation) {
	m.c, m.slot, m.err = nil, nil, nil
	mutPool.Put(m)
	<-c.mutSlots
	c.muts.Done()
}
