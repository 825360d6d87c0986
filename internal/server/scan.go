package server

// Streaming scans, the protocol's one scan path. The read loop serves an
// OpScanStart's first page itself, as it serves a GetBatch: it scans into
// connection scratch and queues the page's OpScanChunk — followed, when that
// page ends the stream, by the OpScanEnd in the same out item. A scan that
// fits its first page therefore costs no goroutine, no stream-table entry
// and no allocation. Only a stream that outlives its first page is
// registered and handed to a goroutine (run), which pages on and pushes the
// remaining chunks into the connection's out channel, ending with
// OpScanEnd. Both run one page function, scanPage. Two mechanisms bound a
// stream's memory and its claim on the connection:
//
//   - Credits: the server sends at most `credits` chunks ahead of what the
//     client has consumed (the first page spends one); the client grants one
//     credit back per consumed chunk (OpScanCredit). A stalled consumer
//     therefore parks the stream with nothing buffered beyond its window,
//     while the connection's other pipelined traffic keeps flowing.
//   - The shared out channel: chunks interleave with ordinary responses and
//     inherit the same write-loop backpressure, so a scan can never queue
//     more than the channel bound even if the client grants a huge window.
//
// Each page of index work briefly takes an admission-control slot (when
// MaxInflight is configured), so N streams cannot out-compete point reads
// for the index. The first page waits for it as any request does and is shed
// the same way; later pages wait until the stream is cancelled or the
// connection stops.

import (
	"runtime/debug"
	"sync"
	"time"

	"dytis/internal/kv"
	"dytis/internal/proto"
)

// maxScansPerConn caps the registered streams (those that outlived their
// first page) per connection; an OpScanStart beyond it is answered
// StatusOverload (retryable) instead of growing the stream table
// unboundedly.
const maxScansPerConn = 16

// scanCursor is where a stream stands: what its next page asks for and what
// it has delivered so far.
type scanCursor struct {
	id        uint64 // the OpScanStart's request id, echoed on every frame
	next      uint64 // next page's start key
	max       uint64 // total pair budget, 0 = unbounded
	chunk     int    // per-chunk pair bound
	epoch     uint64 // shard-map epoch the stream is pinned to (cluster only)
	delivered uint64 // pairs sent so far
}

// scanStream is a stream that outlived its first page, paged on by run.
type scanStream struct {
	c   *conn
	cur scanCursor // owned by run

	mu      sync.Mutex
	credits uint32        // guarded-by: mu
	signal  chan struct{} // 1-buffered kick: a grant arrived

	cancelOnce sync.Once
	cancel     chan struct{} // closed by OpScanCancel
}

// handleScanStart serves a stream's first page on the read loop and
// registers the stream only if it goes on; it reports whether the
// connection should go on (a duplicate stream id quarantines it, as does a
// panic in the page).
func (c *conn) handleScanStart(arrival time.Time) bool {
	cfg := &c.srv.cfg
	req, resp := &c.req, &c.resp
	*resp = proto.Response{ID: req.ID, Op: proto.OpScanStart, Keys: resp.Keys[:0], Vals: resp.Vals[:0]}
	c.scanMu.Lock()
	_, dup := c.scans[req.ID]
	full := len(c.scans) >= maxScansPerConn
	c.scanMu.Unlock()
	if dup {
		return c.refuse("scan-stream: duplicate stream id")
	}
	if full {
		if m := cfg.Metrics; m != nil {
			m.overload()
		}
		resp.Status = proto.StatusOverload
		resp.Msg = "scan-stream: too many concurrent scans"
		resp.RetryAfterMS = uint32(cfg.RetryAfter.Milliseconds())
		return c.send(resp)
	}
	if st := c.admit(arrival); st != proto.StatusOK {
		return c.shed(st, resp)
	}
	cur := scanCursor{id: req.ID, next: req.Key, max: req.ScanMax, chunk: int(req.Max), epoch: req.Epoch}
	frame, done, ok := c.scanPage(&cur, &c.scanBuf, resp)
	// Scratch a big page grew is dropped, as the write loop drops big
	// frames, so one MaxScan page does not pin memory for the connection's
	// lifetime.
	if cap(c.scanBuf) > maxKeptFrame/16 {
		c.scanBuf = nil
	}
	if cap(resp.Keys) > maxKeptFrame/8 {
		resp.Keys = nil
	}
	if cap(resp.Vals) > maxKeptFrame/8 {
		resp.Vals = nil
	}
	if len(frame) > 0 {
		c.enqueue(frame)
	}
	if !ok || done {
		return ok
	}
	s := &scanStream{
		c: c, cur: cur,
		credits: req.Credits - 1, // the decoder refuses a zero window
		signal:  make(chan struct{}, 1),
		cancel:  make(chan struct{}),
	}
	c.scanMu.Lock()
	if c.scans == nil {
		c.scans = make(map[uint64]*scanStream)
	}
	c.scans[req.ID] = s
	c.scanMu.Unlock()
	c.scanWg.Add(1)
	go s.run()
	return true
}

// handleScanCredit grants chunk credits to the stream named by the request
// id. A grant for a stream that already ended — on its first page or later —
// is dropped silently: the race between a final chunk and an in-flight
// credit is inherent, and credit frames are never answered.
func (c *conn) handleScanCredit() {
	c.scanMu.Lock()
	s := c.scans[c.req.ID]
	c.scanMu.Unlock()
	if s != nil {
		s.grant(c.req.Credits)
	}
}

// handleScanCancel abandons the stream named by the request id. No frame
// answers it: the stream just stops producing (a chunk already queued may
// still arrive, which the client-side demux drops).
func (c *conn) handleScanCancel() {
	c.scanMu.Lock()
	s := c.scans[c.req.ID]
	c.scanMu.Unlock()
	if s != nil {
		s.abort()
	}
}

func (s *scanStream) grant(n uint32) {
	s.mu.Lock()
	s.credits += n
	if s.credits > proto.MaxScanCredits {
		s.credits = proto.MaxScanCredits
	}
	s.mu.Unlock()
	select {
	case s.signal <- struct{}{}:
	default:
	}
}

func (s *scanStream) abort() { s.cancelOnce.Do(func() { close(s.cancel) }) }

// takeResult says how acquiring a chunk credit ended.
type takeResult int

const (
	takeOK        takeResult = iota
	takeCancelled            // client sent OpScanCancel
	takeStopped              // the connection's read loop is gone
)

// take blocks until one credit is available, the stream is cancelled, or the
// connection is tearing down. Stop and cancel are checked before consuming a
// credit, so a drain is never delayed by a credit-rich stream.
func (s *scanStream) take() takeResult {
	for {
		select {
		case <-s.cancel:
			return takeCancelled
		case <-s.c.scanStop:
			return takeStopped
		default:
		}
		s.mu.Lock()
		if s.credits > 0 {
			s.credits--
			s.mu.Unlock()
			return takeOK
		}
		s.mu.Unlock()
		select {
		case <-s.signal:
		case <-s.cancel:
			return takeCancelled
		case <-s.c.scanStop:
			return takeStopped
		}
	}
}

// run pages on from where the first page stopped until the key space, the
// pair budget, the client, or the connection ends the stream. It owns its
// page and Response scratch, so it never races the read loop's.
func (s *scanStream) run() {
	c := s.c
	defer c.scanWg.Done()
	defer func() {
		c.scanMu.Lock()
		delete(c.scans, s.cur.id)
		c.scanMu.Unlock()
	}()

	var (
		buf  []kv.KV
		resp proto.Response
	)
	for {
		switch s.take() {
		case takeCancelled:
			return
		case takeStopped:
			s.end(proto.StatusShuttingDown, "server draining")
			return
		}
		// One admission slot per page (not per stream): a scan competes for
		// index time at page granularity, so point ops slot in between.
		if g := c.srv.inflight; g != nil {
			select {
			case g <- struct{}{}:
			case <-s.cancel:
				return
			case <-c.scanStop:
				s.end(proto.StatusShuttingDown, "server draining")
				return
			}
		}
		frame, done, ok := c.scanPage(&s.cur, &buf, &resp)
		if len(frame) > 0 {
			c.enqueue(frame)
		}
		if !ok {
			// A panic in the page or an encode bug: end this one connection
			// once everything queued so far, the end included, is written.
			c.out <- closeAfterFlush
			return
		}
		if done {
			return
		}
	}
}

// scanPage runs one page of the stream at cur: the one page function of the
// read loop (a stream's first page) and of run (every later one). It scans
// the node from cur.next into *buf, books the page's metrics, advances cur,
// and returns the page's out item: the sealed OpScanChunk, followed by the
// sealed OpScanEnd when the page ends the stream (done). resp is the
// caller's scratch for the chunk.
//
// The caller holds an admission slot when MaxInflight is configured;
// scanPage releases it once the node is done. A panic below (index bug) is
// contained as execute contains one: the item is then an OpScanEnd with
// StatusErr, and ok false tells the caller to close this one connection, as
// it does after an encode failure (no item).
func (c *conn) scanPage(cur *scanCursor, buf *[]kv.KV, resp *proto.Response) (frame []byte, done, ok bool) {
	m := c.srv.cfg.Metrics
	frame = c.takeFrame()
	defer func() {
		if r := recover(); r != nil {
			if m != nil {
				m.panicRecovered()
			}
			c.srv.logf("server: panic in scan stream %d from %s: %v\n%s", cur.id, c.raddr, r, debug.Stack())
			frame, done, ok = c.appendEnd(frame[:0], cur, proto.StatusErr, "internal error"), true, false
		}
	}()

	page := cur.chunk
	if cur.max > 0 {
		if rem := cur.max - cur.delivered; rem < uint64(page) {
			page = int(rem)
		}
	}
	// Only a first page starts with nothing delivered: a page that delivers
	// nothing ends the stream.
	if m != nil && cur.delivered == 0 {
		m.scanStream()
	}
	t0 := time.Now()
	pairs, rangeDone, err := c.scanIndex(cur, page, (*buf)[:0])
	*buf = pairs
	if err != nil {
		// The map moved under the stream (or it started on the wrong shard):
		// end it with the redirect rather than truncating silently, and let
		// the client restart against the new map.
		if m != nil {
			m.wrongShard()
		}
		return c.appendEnd(frame, cur, proto.StatusWrongShard, err.Error()), true, true
	}
	cur.delivered += uint64(len(pairs))
	if m != nil {
		m.scanChunk()
		m.recordOp(proto.OpScanStart, c.shard, len(pairs), time.Since(t0))
	}
	if len(pairs) > 0 {
		*resp = proto.Response{ID: cur.id, Op: proto.OpScanChunk, Keys: resp.Keys[:0], Vals: resp.Vals[:0]}
		for _, p := range pairs {
			resp.Keys = append(resp.Keys, p.Key)
			resp.Vals = append(resp.Vals, p.Value)
		}
		if frame, ok = c.appendFrame(frame, resp); !ok {
			return nil, true, false
		}
	}
	done = rangeDone || (cur.max > 0 && cur.delivered >= cur.max)
	if !done {
		cur.next = pairs[len(pairs)-1].Key + 1
	}
	if done {
		frame = c.appendEnd(frame, cur, proto.StatusOK, "")
	}
	return frame, done, true
}

// scanIndex reads one page of up to page pairs from cur.next into dst,
// releasing the caller's admission slot as soon as the node is done, panic
// or not. rangeDone is the node's "owned range exhausted" signal, which it
// also gives for a short page: a page that reaches the top of the key space
// ends the stream there, before cur.next could wrap.
func (c *conn) scanIndex(cur *scanCursor, page int, dst []kv.KV) (_ []kv.KV, rangeDone bool, _ error) {
	if g := c.srv.inflight; g != nil {
		defer func() { <-g }()
	}
	return c.srv.node.Scan(cur.epoch, cur.next, page, dst)
}

// appendEnd appends the stream's sealed OpScanEnd frame to dst. The total
// only travels on StatusOK (error responses carry just the message); a
// wrong-shard end attaches the node's current map so the client can re-route
// without an extra round trip.
func (c *conn) appendEnd(dst []byte, cur *scanCursor, st proto.Status, msg string) []byte {
	end := proto.Response{ID: cur.id, Op: proto.OpScanEnd, Status: st, Msg: msg, Val: cur.delivered}
	if st == proto.StatusWrongShard {
		end.MapBlob = c.srv.node.MapBlob()
	}
	dst, _ = c.appendFrame(dst, &end)
	return dst
}

// end queues the stream's OpScanEnd on its own, for an end no page produced.
func (s *scanStream) end(st proto.Status, msg string) {
	s.c.enqueue(s.c.appendEnd(s.c.takeFrame(), &s.cur, st, msg))
}
