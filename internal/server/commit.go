package server

// Submitted mutations. The read loop submits every mutation to the node
// (cluster.Committer) and reads on. An in-memory backend completes it inside
// Submit, and the read loop answers it like a read; a backend that commits
// in groups (the durable wal.Store adapter) completes it later:
//
//	read loop ──submit──► node ──► backend queue ──commit──► mutation.complete ──► acks chan ──► write loop
//
// Whichever of the read loop leaving Submit and the completion moves the
// mutation's state out of mutPending second answers it. A completion never
// blocks (acks has a place for every pending mutation), pending mutations
// are bounded by Pipeline (mutSlots) so backpressure still ends at the
// client, and serve waits for all of them before it closes the out channel.

import (
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"dytis/internal/proto"
)

// A mutation's state: the handoff between the read loop and the completion.
const (
	mutPending uint32 = iota // inside Submit and not yet completed
	mutQueued                // Submit returned first: the completion answers it through acks
	mutDone                  // completed first (or Submit panicked): the read loop answers it
)

// mutation is one submitted request: what its response echoes, what its
// completion releases, its batch arguments (copied out of the read loop's
// scratch, which the next frame overwrites) and its result. The read loop
// reuses one it answered itself; acks' are recycled through mutPool.
type mutation struct {
	c     *conn
	id    uint64
	op    proto.Opcode
	n     int           // operation count, for metrics
	t0    time.Time     // submission, for the booked latency
	slot  chan struct{} // admission slot held until completion; nil when none
	state atomic.Uint32

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

// complete is the backend's callback. Inside Submit it only records the
// result; later, on the backend's committer, it does only what cannot
// block: book the latency, release the admission slot, pass m to acks.
func (m *mutation) complete(found bool, founds []bool, err error) {
	m.found, m.err = found, err
	if founds != nil {
		m.founds = founds
	}
	if m.state.CompareAndSwap(mutPending, mutDone) {
		return
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

// submit hands c.req to the node and reports whether the connection should
// go on; the mutation holds slot, the request's admission slot (nil when
// none), until answered. It blocks only while Pipeline mutations are pending.
func (c *conn) submit(t0 time.Time, slot chan struct{}) bool {
	c.mutSlots <- struct{}{}

	req := &c.req
	m := c.spare
	c.spare = nil // until the read loop answers m itself
	if m == nil {
		m = newMutation()
	}
	m.c, m.id, m.op, m.n, m.t0, m.slot = c, req.ID, req.Op, batchSize(req), t0, slot
	m.state.Store(mutPending)
	if c.nodeSubmit(m) {
		// A late completion may still write m, so m is dropped. Answer ERR
		// and close this one connection, as execute's panic does.
		c.release(slot)
		c.send(&proto.Response{ID: req.ID, Op: req.Op, Status: proto.StatusErr, Msg: "internal error"})
		return false
	}
	if m.state.CompareAndSwap(mutPending, mutQueued) {
		return true // the write loop recycles m once the ack is out
	}
	// Completed inside Submit: answer it here, as a read is answered.
	c.spare = m
	if mt := c.srv.cfg.Metrics; mt != nil {
		mt.recordOp(m.op, c.shard, m.n, time.Since(t0))
	}
	resp := c.ackResponse(m)
	ok := c.send(&resp)
	c.release(slot)
	return ok
}

// nodeSubmit runs c.req's Submit on the server's node, converting a panic
// below (an index bug) into panicked, as execute does.
func (c *conn) nodeSubmit(m *mutation) (panicked bool) {
	req := &c.req
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			if mt := c.srv.cfg.Metrics; mt != nil {
				mt.panicRecovered()
			}
			c.srv.logf("server: panic serving %s from %s: %v\n%s", req.Op, c.raddr, r, debug.Stack())
		}
	}()
	node := c.srv.node
	//dytis:opswitch requests group=serve
	switch req.Op {
	case proto.OpInsert:
		node.SubmitInsert(req.Key, req.Val, m.done)
	case proto.OpDelete:
		node.SubmitDelete(req.Key, m.done)
	case proto.OpInsertBatch:
		m.keys = append(m.keys[:0], req.Keys...)
		m.vals = append(m.vals[:0], req.Vals...)
		node.SubmitInsertBatch(m.keys, m.vals, m.done)
	case proto.OpDeleteBatch:
		m.keys = append(m.keys[:0], req.Keys...)
		node.SubmitDeleteBatch(m.keys, m.founds[:0], m.done)
	}
	return false
}

// ackResponse is a completed mutation's response; an error goes through
// clusterErr, so a wrong shard carries the node's map.
func (c *conn) ackResponse(m *mutation) proto.Response {
	resp := proto.Response{ID: m.id, Op: m.op, Found: m.found}
	if m.op == proto.OpDeleteBatch {
		resp.Founds = m.founds
	}
	if m.err != nil {
		c.clusterErr(&resp, m.err)
	}
	return resp
}

// release frees an answered mutation's admission slot (nil when none) and
// its place in the pending bound, so the drain no longer waits for it.
func (c *conn) release(slot chan struct{}) {
	if slot != nil {
		<-slot
	}
	<-c.mutSlots
}

// acked retires a mutation the write loop has taken; complete released its
// admission slot.
func (c *conn) acked(m *mutation) {
	m.c, m.slot, m.err = nil, nil, nil
	mutPool.Put(m)
	c.release(nil)
}
