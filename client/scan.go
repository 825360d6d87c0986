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
// With protocol v2 negotiated the pairs arrive as a credit-flow-controlled
// chunk stream: the server never materializes (or queues) more than the
// credit window, so an arbitrarily large scan runs in bounded memory on
// both sides and interleaves with the connection's other pipelined traffic.
// Against a v1 server (or with WithV1Protocol) the iterator transparently
// falls back to paginated OpScan requests with the same per-page bound —
// same results, one round trip per page. Tune the chunk size and window
// with WithScanStream.
//
// The Scanner is not safe for concurrent use (one goroutine pulls it), and
// a streamed scan is pinned to one pooled connection: if that connection
// dies mid-stream, Err reports it and the pairs already pulled remain valid
// — re-issue from Key()+1 to resume. Close is idempotent and releases the
// stream early; it must be called (directly or via defer) unless Next has
// returned false.
func (c *Client) ScanStream(ctx context.Context, start uint64, max int) *Scanner {
	return c.ScanStreamAt(ctx, start, max, 0)
}

// ScanStreamAt is ScanStream pinned to a shard-map epoch: every page or
// chunk request carries epoch on the wire, and a shard server whose map has
// moved past it fails the scan with ErrWrongShard instead of silently
// truncating at the new shard boundary. epoch 0 means unpinned (the
// single-server behavior). Cluster's chained scan opens each shard's leg
// with it; direct callers rarely need it.
func (c *Client) ScanStreamAt(ctx context.Context, start uint64, max int, epoch uint64) *Scanner {
	s := &Scanner{c: c, ctx: ctx, next: start, epoch: epoch}
	if max > 0 {
		s.max = uint64(max)
	}
	return s
}

// Scanner iterates one scan's results. See Client.ScanStream.
type Scanner struct {
	c   *Client
	ctx context.Context

	next  uint64 // stream: requested start; fallback: next page's start
	max   uint64 // total pair budget, 0 = unbounded
	epoch uint64 // shard-map epoch the scan is pinned to, 0 = unpinned

	started   bool
	stream    bool // streaming path (vs pagination fallback)
	closed    bool
	done      bool
	exhausted bool // fallback: the last page was short; no more to fetch
	recorded  bool // breaker outcome booked (allow/record must pair 1:1)
	err       error

	// Streaming state.
	cc       *clientConn
	id       uint64
	ch       chan result
	consumed bool // previous chunk fully handed out; owe one credit

	// Cursor over the current chunk/page.
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
	if s.stream {
		return s.nextStream()
	}
	return s.nextFallback()
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
	if s.stream && s.done {
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
	if s.started && s.stream && !s.done && s.err == nil {
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

// begin picks the path: a v2 stream when the connection negotiated
// FeatScanStream, paginated v1 scans otherwise.
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
	if cc.feats&proto.FeatScanStream == 0 {
		// Pagination fallback. Release the breaker slot now (neutral: the
		// link produced no outcome yet); each page runs through c.do and
		// books its own verdict.
		s.record(breakerNeutral)
		return
	}
	s.stream = true
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
		Key: s.next, ScanMax: s.max, Epoch: s.epoch,
		Max: uint32(c.o.scanChunk), Credits: uint32(c.o.scanWindow),
	}, cc.alone())
	if err != nil {
		cc.dropStream(s.id)
		s.err = err
		s.record(classify(err, false))
	}
}

// nextStream pulls the next chunk off the stream channel.
func (s *Scanner) nextStream() bool {
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
				// The server refused to start the stream (feature not
				// negotiated, duplicate id, or its concurrent-scan cap).
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

// nextFallback fetches the next page with a plain OpScan.
func (s *Scanner) nextFallback() bool {
	if s.exhausted {
		s.done = true
		return false
	}
	page := s.c.o.scanChunk
	if s.max > 0 {
		if rem := s.max - s.delivered; rem < uint64(page) {
			page = int(rem)
		}
	}
	if page == 0 {
		s.done = true
		return false
	}
	resp, err := s.c.do(s.ctx, &proto.Request{Op: proto.OpScan, Key: s.next, Max: uint32(page), Epoch: s.epoch})
	if err != nil {
		s.err = err // c.do booked the breaker verdict for this page
		return false
	}
	if len(resp.Keys) < page {
		s.exhausted = true // short page: nothing left after this one
	} else if last := resp.Keys[len(resp.Keys)-1]; last == ^uint64(0) {
		s.exhausted = true // top of the key space; last+1 would wrap to 0
	} else {
		s.next = last + 1
	}
	if len(resp.Keys) == 0 {
		s.done = true
		return false
	}
	s.keys, s.vals = resp.Keys, resp.Vals
	s.key, s.val = s.keys[0], s.vals[0]
	s.i = 1
	s.delivered++
	return true
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
	if s.stream && s.cc != nil {
		s.cc.dropStream(s.id)
	}
	s.err = err
	s.record(classify(err, gotResponse))
}
