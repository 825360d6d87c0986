package client

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"dytis/internal/proto"
)

// ErrScanInterrupted matches (via errors.Is) a scan that one of its
// per-shard streams killed partway — a shard died or could not be reached,
// its connection broke, the server refused or aborted the stream, or a
// cutover moved its range. The pairs delivered before the stop are valid;
// the result as a whole is incomplete and the scan must be re-issued.
// errors.As with *ScanInterruptedError recovers which shard failed and why.
var ErrScanInterrupted = errors.New("client: scan interrupted")

// ScanInterruptedError is the typed error of a scan stopped by one of its
// per-shard streams failing, at open or partway.
type ScanInterruptedError struct {
	// Source is the failed shard's index in the map the scan started under.
	Source int
	// Err is the underlying stream failure.
	Err error
}

func (e *ScanInterruptedError) Error() string {
	return fmt.Sprintf("client: scan interrupted by source %d: %v", e.Source, e.Err)
}

func (e *ScanInterruptedError) Unwrap() error { return e.Err }

// Is makes errors.Is(err, ErrScanInterrupted) match.
func (e *ScanInterruptedError) Is(target error) bool { return target == ErrScanInterrupted }

// ScanStream begins a scan of up to max pairs with key >= start (max <= 0:
// everything), in ascending key order, returned as a pull iterator:
//
//	s := c.ScanStream(ctx, start, 0)
//	defer s.Close()
//	for s.Next() {
//		use(s.Key(), s.Value())
//	}
//	if err := s.Err(); err != nil { ... }
//
// Shards tile the key space in map order, so the scan streams from start's
// owner and opens the next shard only when the current one ran out with
// budget left: a scan inside one shard costs that shard one stream and
// nothing elsewhere. Each stream is credit-flow-controlled (WithScanStream
// tunes chunk and window), so any scan runs in bounded memory on both sides
// and interleaves with the connection's other traffic. Each stream is also
// pinned to the epoch of the map the scan started under (0, unpinned, from
// Dial): a shard that a cutover moved past it fails with ErrWrongShard
// rather than serve a moved range, and the client adopts the map it sent.
// Any stream failure ends the scan with a *ScanInterruptedError; the pairs
// already pulled remain valid, so re-issue from Key()+1 to resume.
//
// The Scanner is not safe for concurrent use. Close is idempotent and
// releases the open stream early; it must be called unless Next has
// returned false.
func (c *Client) ScanStream(ctx context.Context, start uint64, max int) *Scanner {
	s := newScanner(ctx, c.rt.Load(), start, max)
	s.c = c
	return s
}

// ScanStreamAt is a scan of the home endpoint alone, pinned to a shard-map
// epoch: the stream's start request carries epoch on the wire, and a shard
// server whose map has moved past it fails the scan with ErrWrongShard
// instead of silently truncating at the new shard boundary. epoch 0 means
// unpinned.
func (e *endpoint) ScanStreamAt(ctx context.Context, start uint64, max int, epoch uint64) *Scanner {
	return newScanner(ctx, oneShard(e, epoch), start, max)
}

// leg is one shard's part of a scan, pulled a chunk at a time: the wire
// stream in production, scripted fakes in tests. chunk returns the next
// non-empty chunk, or no keys at the leg's end with the error that ended it
// early; close releases the leg, cancelling it if it is still running.
type leg interface {
	chunk() (keys, vals []uint64, err error)
	close()
}

// Scanner iterates one scan's results. See Client.ScanStream.
type Scanner struct {
	c     *Client // adopts a cutover's map; nil for ScanStreamAt
	ctx   context.Context
	rt    *route // the map the scan started under, and its endpoints
	start uint64
	// open opens shard i's leg for at most budget pairs (0 = unbounded);
	// it is (*Scanner).openShard outside tests.
	open      func(s *Scanner, i int, budget uint64) leg
	next, end int    // shards [next, end) are still unopened
	cur       leg    // the open leg (shard next-1), nil between shards
	max       uint64 // total pair budget, 0 = unbounded

	keys, vals []uint64 // the current chunk; i indexes its next pair
	i          int

	closed    bool
	done      bool
	err       error
	key, val  uint64
	delivered uint64

	wire stream // the wire leg behind cur, reused from shard to shard
}

func newScanner(ctx context.Context, rt *route, start uint64, max int) *Scanner {
	sh := rt.m.Shards
	first := sort.Search(len(sh), func(i int) bool { return sh[i].Hi >= start })
	s := &Scanner{ctx: ctx, rt: rt, start: start, open: (*Scanner).openShard, next: first, end: len(sh)}
	if max > 0 {
		s.max = uint64(max)
	}
	return s
}

// openShard points the scanner's wire leg at shard i: from start in the
// first shard, from the shard's low end in every later one.
func (s *Scanner) openShard(i int, budget uint64) leg {
	from := max(s.rt.m.Shards[i].Lo, s.start)
	s.wire = stream{e: s.rt.eps[i], ctx: s.ctx, start: from, max: budget, epoch: s.rt.m.Epoch}
	return &s.wire
}

// Next advances to the next pair, reporting whether one is available. It
// blocks while waiting on the network and returns false at the end of the
// scan or on error (check Err to tell the two apart).
func (s *Scanner) Next() bool {
	for s.err == nil && !s.closed && !s.done {
		if s.i < len(s.keys) {
			if s.max > 0 && s.delivered >= s.max {
				s.done = true // the leg overran its budget; Close cancels it
				return false
			}
			s.key, s.val = s.keys[s.i], s.vals[s.i]
			s.i++
			s.delivered++
			return true
		}
		if s.cur == nil {
			if s.next >= s.end || (s.max > 0 && s.delivered >= s.max) {
				s.done = true
				return false
			}
			var budget uint64
			if s.max > 0 {
				budget = s.max - s.delivered
			}
			s.cur = s.open(s, s.next, budget)
			s.next++
		}
		var err error
		if s.keys, s.vals, err = s.cur.chunk(); len(s.keys) > 0 {
			s.i = 0
			continue
		}
		// The leg ended: its end frame is read, so closing it costs
		// nothing on the wire.
		s.cur.close()
		s.cur = nil
		if err != nil {
			if s.c != nil {
				s.c.redirected(err) // a cutover: the re-issued scan routes by the map it sent
			}
			s.err = &ScanInterruptedError{Source: s.next - 1, Err: err}
		}
	}
	return false
}

// Key returns the current pair's key. Valid after Next returned true.
func (s *Scanner) Key() uint64 { return s.key }

// Value returns the current pair's value. Valid after Next returned true.
func (s *Scanner) Value() uint64 { return s.val }

// Err returns the error that stopped the scan, nil after a complete one.
func (s *Scanner) Err() error { return s.err }

// Total returns how many pairs the scan delivered so far.
func (s *Scanner) Total() uint64 { return s.delivered }

// Close releases the open leg, if any: a running stream is cancelled
// server-side (best effort) and late chunks are dropped. Idempotent; safe
// after Next returned false.
func (s *Scanner) Close() error {
	if !s.closed && s.cur != nil {
		s.cur.close()
		s.cur = nil
	}
	s.closed = true
	return nil
}

// stream is the wire leg: one shard's chunk stream on one pooled
// connection of the shard's endpoint.
type stream struct {
	e   *endpoint
	ctx context.Context

	start uint64 // first key requested
	max   uint64 // pair budget, 0 = unbounded
	epoch uint64 // shard-map epoch the stream is pinned to, 0 = unpinned

	cc        *clientConn
	id        uint64
	ch        chan result
	owe       bool   // a chunk was handed out: grant its credit back before waiting
	delivered uint64 // pairs handed out
	done      bool   // the end frame arrived, or the stream failed
	recorded  bool   // breaker outcome booked (allow/record must pair 1:1)
}

func (s *stream) chunk() (keys, vals []uint64, err error) {
	if s.cc == nil {
		if err := s.begin(); err != nil {
			return nil, nil, err
		}
	}
	for {
		if s.owe {
			// Grant the handed-out chunk's credit back so the server keeps
			// the window full — unless the budget is delivered, when the
			// server sends the end frame right behind the last chunk and
			// would drop the grant. Best effort: a write failure surfaces
			// on the channel as the conn fails.
			s.owe = false
			if s.max == 0 || s.delivered < s.max {
				s.cc.send(s.ctx, &proto.Request{ID: s.id, Op: proto.OpScanCredit, Credits: 1}, s.cc.alone())
			}
		}
		select {
		case r := <-s.ch:
			if r.err != nil {
				return nil, nil, s.fail(r.err, false)
			}
			resp := r.resp
			switch {
			case resp.Op == proto.OpScanStart:
				// The server refused to start the stream (duplicate id or
				// its concurrent-scan cap). That answer carries
				// OpScanStart, so the read loop routes it here — to the
				// stream, not a waiter — and it is terminal for the stream.
				serr, _ := statusErr(resp)
				if serr == nil {
					serr = fmt.Errorf("proto: server status %d: %s", resp.Status, resp.Msg)
				}
				return nil, nil, s.fail(fmt.Errorf("client: scan refused by server: %w", serr), true)
			case resp.Op == proto.OpScanEnd && resp.Status != proto.StatusOK:
				// statusErr keeps the abort typed (a wrong-shard end must
				// stay matchable as ErrWrongShard).
				serr, _ := statusErr(resp)
				if serr == nil {
					serr = resp.Err()
				}
				return nil, nil, s.fail(fmt.Errorf("client: scan aborted by server: %w", serr), true)
			case resp.Op == proto.OpScanEnd:
				s.done = true
				s.record(breakerOK)
				return nil, nil, nil
			}
			s.owe = true
			if len(resp.Keys) > 0 {
				s.delivered += uint64(len(resp.Keys))
				return resp.Keys, resp.Vals, nil
			}
		case <-s.ctx.Done():
			s.cancelStream()
			return nil, nil, s.fail(s.ctx.Err(), false)
		}
	}
}

func (s *stream) close() {
	if !s.done {
		s.cancelStream()
	}
	s.record(breakerNeutral)
}

// record books the stream's breaker outcome exactly once (the begin-time
// allow and this record must pair 1:1 or a half-open probe slot leaks).
func (s *stream) record(v breakerVerdict) {
	if s.recorded {
		return
	}
	s.recorded = true
	if s.e.br != nil {
		s.e.br.record(v)
	}
}

// begin opens the stream on a pooled connection.
func (s *stream) begin() error {
	e := s.e
	if e.br != nil {
		if err := e.br.allow(); err != nil {
			s.done, s.recorded = true, true // allow failed: nothing to release
			return err
		}
	}
	cc, err := e.conn(s.ctx)
	if err != nil {
		return s.fail(err, false)
	}
	s.cc = cc
	s.id = cc.nextID.Add(1)
	// Window chunks in flight + the end frame + one failure slot: the read
	// loop and fail() never block on this channel (see registerStream).
	s.ch = make(chan result, e.o.scanWindow+2)
	if err := cc.registerStream(s.id, s.ch); err != nil {
		return s.fail(err, false)
	}
	err = cc.send(s.ctx, &proto.Request{
		ID: s.id, Op: proto.OpScanStart,
		Key: s.start, ScanMax: s.max, Epoch: s.epoch,
		Max: uint32(e.o.scanChunk), Credits: uint32(e.o.scanWindow),
	}, cc.alone())
	if err != nil {
		return s.fail(err, false)
	}
	return nil
}

// cancelStream deregisters the stream and tells the server to stop
// producing (best effort, no deadline: the caller's ctx may already be
// done, and the cancel frame is fire-and-forget).
func (s *stream) cancelStream() {
	alone := s.cc.alone()
	s.cc.dropStream(s.id)
	s.cc.send(context.Background(), &proto.Request{ID: s.id, Op: proto.OpScanCancel}, alone)
}

// fail ends the stream with err and returns it. gotResponse says the
// server answered (the link is healthy), which the breaker must not count
// as a connection failure.
func (s *stream) fail(err error, gotResponse bool) error {
	if s.cc != nil {
		s.cc.dropStream(s.id)
	}
	s.done = true
	s.record(classify(err, gotResponse))
	return err
}
