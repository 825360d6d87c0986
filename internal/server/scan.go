package server

// Streaming scans, the protocol's one scan path. An OpScanStart spawns one
// goroutine per stream that pages through the index and pushes OpScanChunk
// frames into the connection's out channel, ending with OpScanEnd. Two
// mechanisms bound its memory and its claim on the connection:
//
//   - Credits: the server sends at most `credits` chunks ahead of what the
//     client has consumed; the client grants one credit back per consumed
//     chunk (OpScanCredit). A stalled consumer therefore parks the stream
//     with nothing buffered beyond its window, while the connection's other
//     pipelined traffic keeps flowing.
//   - The shared out channel: chunks interleave with ordinary responses and
//     inherit the same write-loop backpressure, so a scan can never queue
//     more than the channel bound even if the client grants a huge window.
//
// Each page of index work briefly takes an admission-control slot (when
// MaxInflight is configured), so N streams cannot out-compete point reads
// for the index.

import (
	"runtime/debug"
	"sync"
	"time"

	"dytis/internal/kv"
	"dytis/internal/proto"
)

// maxScansPerConn caps concurrently running streams per connection; an
// OpScanStart beyond it is answered StatusOverload (retryable) instead of
// growing the stream table unboundedly.
const maxScansPerConn = 16

// scanStream is one running streaming scan.
type scanStream struct {
	c     *conn
	id    uint64 // the OpScanStart's request id, echoed on every frame
	next  uint64 // next page's start key
	max   uint64 // total pair budget, 0 = unbounded
	chunk int    // per-chunk pair bound
	epoch uint64 // shard-map epoch the stream is pinned to (cluster only)

	mu      sync.Mutex
	credits uint32        // guarded-by: mu
	signal  chan struct{} // 1-buffered kick: a grant arrived

	cancelOnce sync.Once
	cancel     chan struct{} // closed by OpScanCancel
}

// handleScanStart validates and launches one stream; it reports whether the
// connection should go on (a duplicate stream id quarantines it).
func (c *conn) handleScanStart(arrival time.Time) bool {
	cfg := &c.srv.cfg
	req, resp := &c.req, &c.resp
	*resp = proto.Response{ID: req.ID, Op: proto.OpScanStart}
	c.scanMu.Lock()
	if c.scans == nil {
		c.scans = make(map[uint64]*scanStream)
	}
	if _, dup := c.scans[req.ID]; dup {
		c.scanMu.Unlock()
		return c.refuse("scan-stream: duplicate stream id")
	}
	if len(c.scans) >= maxScansPerConn {
		c.scanMu.Unlock()
		if m := cfg.Metrics; m != nil {
			m.overload()
		}
		resp.Status = proto.StatusOverload
		resp.Msg = "scan-stream: too many concurrent scans"
		resp.RetryAfterMS = uint32(cfg.RetryAfter.Milliseconds())
		return c.send(resp)
	}
	s := &scanStream{
		c: c, id: req.ID, next: req.Key, max: req.ScanMax, chunk: int(req.Max),
		epoch:   req.Epoch,
		credits: req.Credits,
		signal:  make(chan struct{}, 1),
		cancel:  make(chan struct{}),
	}
	c.scans[req.ID] = s
	c.scanMu.Unlock()
	if m := cfg.Metrics; m != nil {
		m.scanStream()
		m.recordOp(proto.OpScanStart, c.shard, 1, time.Since(arrival))
	}
	c.scanWg.Add(1)
	go s.run()
	return true
}

// handleScanCredit grants chunk credits to the stream named by the request
// id. A grant for a stream that already ended is dropped silently — the race
// between a final chunk and an in-flight credit is inherent, and credit
// frames are never answered.
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

// run pages through the index until the key space, the pair budget, the
// client, or the connection ends the stream. It owns its Response scratch,
// so it never races the read loop's.
func (s *scanStream) run() {
	c := s.c
	var delivered uint64
	defer c.scanWg.Done()
	defer func() {
		c.scanMu.Lock()
		delete(c.scans, s.id)
		c.scanMu.Unlock()
	}()
	defer func() {
		if r := recover(); r != nil {
			// Same contract as conn.execute: a panic below (index bug) ends
			// this one connection, never the process. The End frame is
			// best-effort; closing the socket unwedges the read loop.
			if m := c.srv.cfg.Metrics; m != nil {
				m.panicRecovered()
			}
			c.srv.logf("server: panic in scan stream %d from %s: %v\n%s", s.id, c.raddr, r, debug.Stack())
			s.end(proto.StatusErr, "internal error", delivered)
			c.nc.Close()
		}
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
			s.end(proto.StatusShuttingDown, "server draining", delivered)
			return
		}
		page := s.chunk
		if s.max > 0 {
			if rem := s.max - delivered; rem < uint64(page) {
				page = int(rem)
			}
		}
		// One admission slot per page (not per stream): a scan competes for
		// index time at page granularity, so point ops slot in between.
		if g := c.srv.inflight; g != nil {
			select {
			case g <- struct{}{}:
			case <-s.cancel:
				return
			case <-c.scanStop:
				s.end(proto.StatusShuttingDown, "server draining", delivered)
				return
			}
		}
		t0 := time.Now()
		// rangeDone is the cluster node's "owned range exhausted" signal; a
		// single-index scan learns the same thing from a short page only.
		var rangeDone bool
		if node := c.srv.cfg.Cluster; node != nil {
			var err error
			buf, rangeDone, err = node.Scan(s.epoch, s.next, page, buf[:0])
			if err != nil {
				// The map moved under the stream (or it started on the wrong
				// shard): end it with the redirect rather than truncating
				// silently, and let the client restart against the new map.
				if g := c.srv.inflight; g != nil {
					<-g
				}
				if m := c.srv.cfg.Metrics; m != nil {
					m.wrongShard()
				}
				s.end(proto.StatusWrongShard, err.Error(), delivered)
				return
			}
		} else {
			buf = c.srv.cfg.Index.Scan(s.next, page, buf[:0])
		}
		if g := c.srv.inflight; g != nil {
			<-g
		}
		delivered += uint64(len(buf))
		if m := c.srv.cfg.Metrics; m != nil {
			m.scanChunk()
			m.recordOp(proto.OpScanStart, c.shard, len(buf), time.Since(t0))
		}
		if len(buf) > 0 {
			resp = proto.Response{ID: s.id, Op: proto.OpScanChunk, Keys: resp.Keys[:0], Vals: resp.Vals[:0]}
			for _, p := range buf {
				resp.Keys = append(resp.Keys, p.Key)
				resp.Vals = append(resp.Vals, p.Value)
			}
			if !c.send(&resp) {
				return // encode bug; the connection is coming down
			}
		}
		done := rangeDone || len(buf) < page || (s.max > 0 && delivered >= s.max)
		if !done {
			if last := buf[len(buf)-1].Key; last == ^uint64(0) {
				done = true // key space exhausted; last+1 would wrap to 0
			} else {
				s.next = last + 1
			}
		}
		if done {
			s.end(proto.StatusOK, "", delivered)
			return
		}
	}
}

// end queues the stream's OpScanEnd frame. total only travels on StatusOK
// (error responses carry just the message); a wrong-shard end attaches the
// node's current map so the client can re-route without an extra round trip.
func (s *scanStream) end(st proto.Status, msg string, total uint64) {
	resp := proto.Response{ID: s.id, Op: proto.OpScanEnd, Status: st, Msg: msg, Val: total}
	if st == proto.StatusWrongShard {
		if node := s.c.srv.cfg.Cluster; node != nil {
			resp.MapBlob = node.MapBlob()
		}
	}
	s.c.send(&resp)
}
