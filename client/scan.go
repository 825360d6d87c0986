package client

import (
	"context"
	"fmt"

	"dytis/internal/proto"
)

// ScanStream begins a scan of up to max pairs with key >= start, in
// ascending key order, returned as a pull iterator:
//
//	s := c.ScanStream(ctx, 0, 0) // max <= 0: scan everything
//	defer s.Close()
//	for s.Next() {
//		use(s.Key(), s.Value())
//	}
//	if err := s.Err(); err != nil { ... }
//
// The pairs arrive as a credit-flow-controlled chunk stream: the server
// never materializes (or queues) more than the credit window, so an
// arbitrarily large scan runs in bounded memory on both sides and
// interleaves with the connection's other pipelined traffic. Tune the chunk
// size and window with WithScanStream.
//
// The Scanner is not safe for concurrent use (one goroutine pulls it), and
// a scan is pinned to one pooled connection: if that connection dies
// mid-stream, Err reports it and the pairs already pulled remain valid
// — re-issue from Key()+1 to resume. Close is idempotent and releases the
// stream early; it must be called (directly or via defer) unless Next has
// returned false.
func (c *Client) ScanStream(ctx context.Context, start uint64, max int) *Scanner {
	return c.ScanStreamAt(ctx, start, max, 0)
}

// ScanStreamAt is ScanStream pinned to a shard-map epoch: the stream's start
// request carries epoch on the wire, and a shard server whose map has
// moved past it fails the scan with ErrWrongShard instead of silently
// truncating at the new shard boundary. epoch 0 means unpinned (the
// single-server behavior). Cluster's chained scan opens each shard's leg
// with it; direct callers rarely need it.
func (c *Client) ScanStreamAt(ctx context.Context, start uint64, max int, epoch uint64) *Scanner {
	s := &Scanner{c: c, ctx: ctx, start: start, epoch: epoch}
	if max > 0 {
		s.max = uint64(max)
	}
	return s
}

// Scanner iterates one scan's results. See Client.ScanStream.
type Scanner struct {
	c   *Client
	ctx context.Context

	start uint64 // first key requested
	max   uint64 // total pair budget, 0 = unbounded
	epoch uint64 // shard-map epoch the scan is pinned to, 0 = unpinned

	started  bool
	closed   bool
	done     bool
	recorded bool // breaker outcome booked (allow/record must pair 1:1)
	err      error

	// Stream state.
	cc       *clientConn
	id       uint64
	ch       chan result
	consumed bool // previous chunk fully handed out; owe one credit

	// Cursor over the current chunk.
	keys, vals []uint64
	i          int
	key, val   uint64
	delivered  uint64
	total      uint64
}

// Next advances to the next pair, reporting whether one is available. It
// blocks while waiting on the network and returns false at the end of the
// scan or on error (check Err to tell the two apart).
func (s *Scanner) Next() bool {
	if s.err != nil || s.closed {
		return false
	}
	if !s.started {
		s.started = true
		s.begin()
		if s.err != nil {
			return false
		}
	}
	if s.i < len(s.keys) {
		s.key, s.val = s.keys[s.i], s.vals[s.i]
		s.i++
		s.delivered++
		return true
	}
	if s.done {
		return false
	}
	return s.nextChunk()
}

// Key returns the current pair's key. Valid after Next returned true.
func (s *Scanner) Key() uint64 { return s.key }

// Value returns the current pair's value. Valid after Next returned true.
func (s *Scanner) Value() uint64 { return s.val }

// Err returns the error that stopped the scan, nil after a complete one.
func (s *Scanner) Err() error { return s.err }

// Total returns how many pairs the scan delivered. After a complete stream
// it is the server's own count from the OpScanEnd frame.
func (s *Scanner) Total() uint64 {
	if s.done {
		return s.total
	}
	return s.delivered
}

// Close releases the scan: a running stream is cancelled server-side (best
// effort) and late chunks are dropped. Idempotent; safe after Next returned
// false.
func (s *Scanner) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.started && !s.done && s.err == nil {
		s.cancelStream()
	}
	if s.started {
		s.record(breakerNeutral)
	}
	return nil
}

// record books the scan's breaker outcome exactly once (the begin-time
// allow and this record must pair 1:1 or a half-open probe slot leaks).
func (s *Scanner) record(v breakerVerdict) {
	if s.recorded {
		return
	}
	s.recorded = true
	if s.c.br != nil {
		s.c.br.record(v)
	}
}

// begin opens the stream on a pooled connection.
func (s *Scanner) begin() {
	c := s.c
	if c.br != nil {
		if err := c.br.allow(); err != nil {
			s.err = err
			s.recorded = true // allow failed: nothing to release
			return
		}
	}
	cc, err := c.conn(s.ctx)
	if err != nil {
		s.err = err
		s.record(classify(err, false))
		return
	}
	s.cc = cc
	s.id = cc.nextID.Add(1)
	// Window chunks in flight + the end frame + one failure slot: the read
	// loop and fail() never block on this channel (see registerStream).
	s.ch = make(chan result, c.o.scanWindow+2)
	if err := cc.registerStream(s.id, s.ch); err != nil {
		s.err = err
		s.record(classify(err, false))
		return
	}
	err = cc.send(s.ctx, &proto.Request{
		ID: s.id, Op: proto.OpScanStart,
		Key: s.start, ScanMax: s.max, Epoch: s.epoch,
		Max: uint32(c.o.scanChunk), Credits: uint32(c.o.scanWindow),
	}, cc.alone())
	if err != nil {
		cc.dropStream(s.id)
		s.err = err
		s.record(classify(err, false))
	}
}

// nextChunk pulls the next chunk off the stream channel.
func (s *Scanner) nextChunk() bool {
	for {
		if s.consumed {
			// The previous chunk has been fully handed out: grant its
			// credit back so the server keeps the window full — unless the
			// scan's budget is already delivered, when the server sends the
			// end frame right behind the last chunk and would drop the
			// grant. Best effort: a write failure surfaces on the channel as
			// the conn fails.
			s.consumed = false
			if s.max == 0 || s.delivered < s.max {
				s.cc.send(s.ctx, &proto.Request{ID: s.id, Op: proto.OpScanCredit, Credits: 1}, s.cc.alone())
			}
		}
		select {
		case r := <-s.ch:
			if r.err != nil {
				s.fail(r.err, false)
				return false
			}
			resp := r.resp
			if resp.Op == proto.OpScanStart {
				// The server refused to start the stream (duplicate id or
				// its concurrent-scan cap).
				// That answer carries OpScanStart, so the read loop routes
				// it here — to the stream, not a waiter — and it is
				// terminal for the stream.
				serr, _ := statusErr(resp)
				if serr == nil {
					serr = fmt.Errorf("proto: server status %d: %s", resp.Status, resp.Msg)
				}
				s.fail(fmt.Errorf("client: scan refused by server: %w", serr), true)
				return false
			}
			if resp.Op == proto.OpScanEnd {
				if resp.Status != proto.StatusOK {
					// statusErr keeps the abort typed (a wrong-shard end must
					// stay matchable as ErrWrongShard for the cluster router).
					serr, _ := statusErr(resp)
					if serr == nil {
						serr = resp.Err()
					}
					s.fail(fmt.Errorf("client: scan aborted by server: %w", serr), true)
					return false
				}
				s.total = resp.Val
				s.done = true
				s.record(breakerOK)
				return false
			}
			s.consumed = true
			if len(resp.Keys) == 0 {
				continue
			}
			s.keys, s.vals = resp.Keys, resp.Vals
			s.key, s.val = s.keys[0], s.vals[0]
			s.i = 1
			s.delivered++
			return true
		case <-s.ctx.Done():
			s.cancelStream()
			s.fail(s.ctx.Err(), false)
			return false
		}
	}
}

// cancelStream deregisters the stream and tells the server to stop
// producing (best effort, no deadline: the caller's ctx may already be
// done, and the cancel frame is fire-and-forget).
func (s *Scanner) cancelStream() {
	alone := s.cc.alone()
	s.cc.dropStream(s.id)
	s.cc.send(context.Background(), &proto.Request{ID: s.id, Op: proto.OpScanCancel}, alone)
}

// fail records the scan's terminal error. gotResponse says the server
// answered (the link is healthy), which the breaker must not count as a
// connection failure.
func (s *Scanner) fail(err error, gotResponse bool) {
	s.cc.dropStream(s.id)
	s.err = err
	s.record(classify(err, gotResponse))
}
