package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"dytis/internal/cluster"
	"dytis/internal/kv"
	"dytis/internal/proto"
)

// conn is one client connection: a read loop (the serve goroutine itself,
// which also executes the reads and submits the mutations; see commit.go)
// feeding encoded responses to a write loop over the bounded out channel.
// See the package comment for the backpressure chain.
type conn struct {
	srv   *Server
	nc    netConn
	raddr string // remote address, for force-close logs
	out   chan []byte

	// Read-loop scratch, reused across requests; response frames cycle
	// through the free list below, so the steady state of a connection
	// allocates nothing per request.
	readBuf []byte
	req     proto.Request
	resp    proto.Response
	shard   int

	// feats are the features the handshake granted, fixed before the read
	// loop starts.
	feats uint32

	// Streaming-scan state (scan.go). The read loop serves every stream's
	// first page itself; only a stream that outlives it gets a goroutine and
	// an entry in scans. scanStop is closed when the read loop exits; every
	// scan goroutine joins through scanWg before the out channel closes, so a
	// stream can always complete its pending send.
	scanMu   sync.Mutex
	scans    map[uint64]*scanStream // guarded-by: scanMu
	scanWg   sync.WaitGroup
	scanStop chan struct{}

	// queued tracks the bytes sitting in the out channel (enqueue adds,
	// write loop subtracts), feeding the out-queue peak metric that bounds a
	// streamed scan's server-side buffering.
	queued atomic.Int64

	// Submitted-mutation state (commit.go); the channels are made before the
	// write loop starts. Kept last on purpose: the read and write loops both
	// work in this struct, and placing these fields ahead of queued cost
	// wire-pipelined ~10 % ops/s on 2 vCPUs (the existing fields changed
	// cache lines).
	acks     chan *mutation // mutations completed after Submit returned, to the write loop; capacity Pipeline
	mutSlots chan struct{}  // semaphore bounding pending mutations to Pipeline; serve refills it before closing out
	spare    *mutation      // read loop only: the mutation it answered last, reused for the next

	// free returns written frames from the write loop to send, which encodes
	// the next response into one instead of allocating. Capacity Pipeline,
	// like out: every frame that can be queued has a place to come back to.
	free chan []byte

	// scanBuf is the read loop's page scratch for first scan pages (its
	// chunk's Keys/Vals live in resp). Kept last for the layout reason above.
	scanBuf []kv.KV
}

// closeAfterFlush, queued on the out channel by a scan stream whose page
// failed, tells the write loop to flush what is queued ahead of it and close
// the connection.
var closeAfterFlush []byte

// maxKeptFrame caps the frames the free list keeps: a bigger one (a large
// scan chunk or batch reply) is left to the collector, so a connection's
// idle buffers stay within Pipeline × 32 KiB however large its replies were.
const maxKeptFrame = 32 << 10

// netConn is the subset of net.Conn the conn uses (test seam).
type netConn interface {
	io.ReadWriteCloser
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// armReadDeadline sets the next read deadline: now+d normally, cleared
// when d is zero (so a stale per-frame deadline cannot reap an idling
// connection), and "now" once the server is draining, so the loop cannot
// re-arm past Shutdown's pulled deadline.
func (c *conn) armReadDeadline(d time.Duration) {
	if c.srv.Draining() {
		c.nc.SetReadDeadline(time.Now())
		return
	}
	if d > 0 {
		c.nc.SetReadDeadline(time.Now().Add(d))
	} else {
		c.nc.SetReadDeadline(time.Time{})
	}
}

func (c *conn) serve() {
	c.shard = int(connSerial.Add(1))
	br := bufio.NewReaderSize(c.nc, 32<<10)
	if !c.handshake(br) {
		c.nc.Close()
		return
	}
	c.out = make(chan []byte, c.srv.cfg.Pipeline)
	c.free = make(chan []byte, c.srv.cfg.Pipeline)
	c.scanStop = make(chan struct{})
	// One place per pending mutation, so a completion never blocks.
	c.acks = make(chan *mutation, c.srv.cfg.Pipeline)
	c.mutSlots = make(chan struct{}, c.srv.cfg.Pipeline)
	writerDone := make(chan struct{})
	go c.writeLoop(writerDone)

	cfg := &c.srv.cfg
	for {
		n, body, ok := c.readFrame(br)
		if !ok {
			break
		}
		// Every frame after the handshake carries a CRC32C trailer over its
		// length prefix and body. A mismatch means the stream has carried
		// corruption — answer best-effort with the (possibly corrupt) id so a
		// pipelined caller fails fast rather than timing out, then quarantine
		// the connection: nothing after a corrupt frame can be trusted to be
		// aligned.
		if err := proto.ReadTrailer(br, n, body); err != nil {
			if !errors.Is(err, proto.ErrChecksum) {
				c.reportReadErr(err, "frame")
				break
			}
			if m := cfg.Metrics; m != nil {
				m.frameChecksum()
			}
			c.srv.logf("server: conn %s: %v; quarantining connection", c.raddr, err)
			c.send(&proto.Response{
				ID: binary.BigEndian.Uint64(body), Op: proto.OpPing,
				Status: proto.StatusChecksum, Msg: "frame checksum mismatch",
			})
			break
		}
		arrival := time.Now()
		if bad := c.decode(body); bad != nil {
			// The frame was well-delimited but its body is malformed. Answer
			// with the request id if one was present, then drop the
			// connection: a peer that emits garbage cannot be assumed to
			// agree on stream alignment from here on.
			c.send(bad)
			break
		}
		if !c.dispatch(arrival) {
			break
		}
	}
	// Exit order matters: stop the scan streams and join them, and wait for
	// every submitted mutation to be answered, before closing the out channel
	// (a sender blocked on a full channel is absorbed because the write loop
	// keeps draining until the channel closes), then join the writer so every
	// queued response flushes before the socket closes.
	close(c.scanStop)
	c.scanWg.Wait()
	for range cap(c.mutSlots) {
		c.mutSlots <- struct{}{} // every place back: no mutation is pending
	}
	close(c.out)
	<-writerDone
	c.nc.Close()
}

// readFrame reads one frame's length prefix and body into c.readBuf under
// two deadline regimes: a (long) idle deadline while waiting for the next
// request to start, then a (short) per-frame deadline once its header has
// arrived. A slow-loris peer that trickles a frame byte by byte trips the
// second one and is reaped without affecting any other connection. ok is
// false when the connection is done; the failure is already reported.
func (c *conn) readFrame(br *bufio.Reader) (n int, body []byte, ok bool) {
	cfg := &c.srv.cfg
	if cfg.IdleTimeout > 0 || cfg.ReadTimeout > 0 || c.srv.Draining() {
		c.armReadDeadline(cfg.IdleTimeout)
	}
	n, err := proto.ReadHeader(br)
	if err != nil {
		c.reportReadErr(err, "idle")
		return 0, nil, false
	}
	if cfg.ReadTimeout > 0 {
		c.armReadDeadline(cfg.ReadTimeout)
	}
	body, c.readBuf, err = proto.ReadBody(br, n, c.readBuf)
	if err != nil {
		c.reportReadErr(err, "frame")
		return 0, nil, false
	}
	return n, body, true
}

// decode decodes body into c.req. On a malformed body it counts the protocol
// error and returns the StatusBadRequest answer, carrying the request id if
// one was present.
func (c *conn) decode(body []byte) *proto.Response {
	err := proto.DecodeRequest(body, &c.req)
	if err == nil {
		return nil
	}
	if m := c.srv.cfg.Metrics; m != nil {
		m.protoError()
	}
	var id uint64
	if len(body) >= 8 {
		id = binary.BigEndian.Uint64(body)
	}
	return &proto.Response{ID: id, Op: proto.OpPing, Status: proto.StatusBadRequest, Msg: err.Error()}
}

// handshake runs the HELLO exchange every connection opens with, before the
// write loop exists. Both the first frame and its answer travel unsealed;
// every later frame, in both directions, is sealed. It reports whether the
// connection goes on.
func (c *conn) handshake(br *bufio.Reader) bool {
	_, body, ok := c.readFrame(br)
	if !ok {
		return false
	}
	arrival := time.Now()
	resp := c.decode(body)
	if resp == nil {
		resp = c.hello()
	}
	frame, err := proto.AppendResponse(nil, resp)
	if err != nil {
		c.srv.logf("server: encode hello response: %v", err)
		return false
	}
	if _, err := (writeDeadlineWriter{c.nc, c.srv.cfg.WriteTimeout}).Write(frame); err != nil || resp.Status != proto.StatusOK {
		return false
	}
	if m := c.srv.cfg.Metrics; m != nil {
		m.recordOp(proto.OpHello, c.shard, 1, time.Since(arrival))
	}
	return true
}

// hello answers a connection's decoded first request. A HELLO asking for
// protocol v2 with checksums and streamed scans is granted what the server
// implements of it; anything else is a protocol error, refused with
// StatusBadRequest.
func (c *conn) hello() *proto.Response {
	req := &c.req
	resp := &proto.Response{ID: req.ID, Op: req.Op, Status: proto.StatusBadRequest}
	const need = proto.FeatCRC | proto.FeatScanStream
	switch {
	case req.Op != proto.OpHello:
		resp.Msg = "hello: a connection must open with the protocol v2 handshake"
	case req.Ver < proto.Version2 || req.Feats&need != need:
		resp.Msg = fmt.Sprintf("hello: protocol v2 with checksums and streamed scans required (asked for version %d, features %#x)", req.Ver, req.Feats)
	default:
		c.feats = req.Feats & proto.AllFeatures
		if c.srv.cfg.Cluster == nil {
			// A standalone server must not advertise the cluster opcode
			// family: its own node owns the whole key space for good, and no
			// map, handover, import or mirror may ever reach it.
			c.feats &^= proto.FeatCluster
		}
		resp.Status, resp.Ver, resp.Feats = proto.StatusOK, proto.Version2, c.feats
		return resp
	}
	if m := c.srv.cfg.Metrics; m != nil {
		m.protoError()
	}
	return resp
}

// dispatch routes one decoded request: the stream opcodes to the scan-stream
// handlers, everything else to handle. It reports whether the connection
// should go on.
func (c *conn) dispatch(arrival time.Time) bool {
	req := &c.req
	switch req.Op {
	case proto.OpShardInfo, proto.OpMapGet, proto.OpMapSet,
		proto.OpHandoverStart, proto.OpHandoverStatus,
		proto.OpHandoverResume, proto.OpHandoverAbort, proto.OpImportResume,
		proto.OpImportStart, proto.OpImportBatch, proto.OpImportEnd, proto.OpMirror:
		// Cluster opcodes need the feature negotiated, which a standalone
		// server never grants; a peer using them anyway is broken, so the
		// connection quarantines like any other feature violation. Checking
		// Cluster, not only the grant, keeps a standalone server's own node
		// out of every cluster opcode's reach.
		if c.srv.cfg.Cluster == nil || c.feats&proto.FeatCluster == 0 {
			return c.refuse("cluster: feature not negotiated")
		}
	}
	//dytis:opswitch requests group=serve
	switch req.Op {
	case proto.OpHello:
		// Valid only as the handshake; a peer that flips framing mid-flight
		// under pipelined traffic is broken.
		return c.refuse("hello: must be the first request on a connection")
	case proto.OpScanStart:
		return c.handleScanStart(arrival)
	case proto.OpScanCredit:
		c.handleScanCredit()
		return true
	case proto.OpScanCancel:
		c.handleScanCancel()
		return true
	}
	return c.handle(arrival)
}

// refuse answers c.req with StatusBadRequest and reports false: the request
// breaks the protocol, so the connection closes after the answer.
func (c *conn) refuse(msg string) bool {
	c.send(&proto.Response{ID: c.req.ID, Op: c.req.Op, Status: proto.StatusBadRequest, Msg: msg})
	return false
}

// reportReadErr books and logs one read-loop failure. Timeouts outside a
// drain are reaped connections (idle or slow-loris), which are counted and
// logged; drain deadlines and a departing peer are normal ends.
func (c *conn) reportReadErr(err error, stage string) {
	if err == io.EOF {
		return
	}
	if isTimeout(err) {
		if c.srv.Draining() {
			return // Shutdown pulled the deadline; normal end
		}
		if m := c.srv.cfg.Metrics; m != nil {
			m.connTimeout()
		}
		c.srv.logf("server: conn %s: %s read timed out; reaping", c.raddr, stage)
		return
	}
	if !clientGone(err) {
		c.srv.logf("server: conn read: %v", err)
	}
}

// handle executes (or, for a mutation, submits) c.req against the server's
// node, books the server-side latency, and queues the response; it reports
// whether the connection should go on. arrival is when the request's frame
// finished arriving, the reference point for its propagated deadline budget.
func (c *conn) handle(arrival time.Time) bool {
	cfg := &c.srv.cfg
	req, resp := &c.req, &c.resp
	*resp = proto.Response{
		ID: req.ID, Op: req.Op,
		Keys: resp.Keys[:0], Vals: resp.Vals[:0], Founds: resp.Founds[:0],
	}

	if st := c.admit(arrival); st != proto.StatusOK {
		return c.shed(st, resp)
	}
	g := c.srv.inflight
	t0 := time.Now()
	switch req.Op {
	case proto.OpInsert, proto.OpDelete, proto.OpInsertBatch, proto.OpDeleteBatch:
		return c.submit(t0, g)
	}
	if g != nil {
		defer func() { <-g }()
	}
	panicked := c.execute(req, resp)
	if m := cfg.Metrics; m != nil && !panicked {
		m.recordOp(req.Op, c.shard, batchSize(req), time.Since(t0))
	}
	ok := c.send(resp)
	if panicked {
		// The response (ERR) is queued; close this one connection. The
		// process, the index, and every other connection keep going.
		return false
	}
	return ok
}

// admit takes an admission slot (MaxInflight) for c.req, waiting at most the
// retry-after window — or the request's own remaining deadline budget,
// whichever ends first — instead of queueing unboundedly. It returns
// StatusOK with the slot held (or with no MaxInflight configured), else the
// shed status: StatusOverload ("back off and retry") when the window ran
// out, StatusDeadlineExceeded when the caller's budget did (nobody is
// waiting for that answer anymore). A request whose budget expired before
// execution is shed too, not served: answering late with real data would
// only burn index work nobody can use.
func (c *conn) admit(arrival time.Time) proto.Status {
	// budget is the request's propagated deadline, zero when none.
	var budget time.Duration
	if c.req.TimeoutMS > 0 {
		budget = time.Duration(c.req.TimeoutMS) * time.Millisecond
	}
	g := c.srv.inflight
	if g != nil {
		select {
		case g <- struct{}{}:
		default:
			wait, st := c.srv.cfg.RetryAfter, proto.StatusOverload
			if budget > 0 {
				if rem := budget - time.Since(arrival); rem < wait {
					wait, st = rem, proto.StatusDeadlineExceeded
				}
			}
			if wait <= 0 {
				return st
			}
			t := time.NewTimer(wait)
			select {
			case g <- struct{}{}:
				t.Stop()
			case <-t.C:
				return st
			}
		}
	}
	if budget > 0 && time.Since(arrival) > budget {
		if g != nil {
			<-g
		}
		return proto.StatusDeadlineExceeded
	}
	return proto.StatusOK
}

// shed answers a request admit refused with its shed status st.
func (c *conn) shed(st proto.Status, resp *proto.Response) bool {
	m := c.srv.cfg.Metrics
	resp.Status = st
	if st == proto.StatusOverload {
		if m != nil {
			m.overload()
		}
		resp.Msg = c.srv.cfg.RetryAfter.String()
		resp.RetryAfterMS = uint32(c.srv.cfg.RetryAfter.Milliseconds())
	} else {
		if m != nil {
			m.deadlineShed()
		}
		resp.Msg = "deadline budget expired before execution"
	}
	return c.send(resp)
}

// execute runs one decoded request other than a mutation against the
// server's node, converting a panic anywhere below (index bug, corrupted
// state) into an ERR response for this request — the panic takes down one
// connection, never the process.
func (c *conn) execute(req *proto.Request, resp *proto.Response) (panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			if m := c.srv.cfg.Metrics; m != nil {
				m.panicRecovered()
			}
			c.srv.logf("server: panic serving %s from %s: %v\n%s", req.Op, c.raddr, r, debug.Stack())
			*resp = proto.Response{
				ID: req.ID, Op: req.Op, Status: proto.StatusErr, Msg: "internal error",
			}
		}
	}()
	node := c.srv.node
	var err error
	//dytis:opswitch requests group=serve
	switch req.Op {
	case proto.OpPing:
	case proto.OpGet:
		resp.Val, resp.Found, err = node.Get(req.Key)
	case proto.OpGetBatch:
		resp.Vals, resp.Founds, err = node.GetBatch(req.Keys, resp.Vals, resp.Founds)
	case proto.OpLen:
		resp.Val = uint64(node.Len())

	// Cluster opcode family; dispatch admits these only on a shard server
	// with FeatCluster negotiated, so node is Config.Cluster here.
	case proto.OpShardInfo:
		resp.Lo, resp.Hi, resp.Epoch, resp.State = node.Info()
	case proto.OpMapGet:
		blob := node.MapBlob()
		if len(blob) == 0 {
			resp.Status, resp.Msg = proto.StatusErr, "cluster: no shard map installed"
		} else {
			resp.MapBlob = blob
		}
	case proto.OpMapSet:
		err = node.SetMap(req.Lo, req.Hi, req.MapBlob)
	case proto.OpHandoverStart:
		err = node.StartHandover(req.Lo, req.Hi, req.Addr)
		if m := c.srv.cfg.Metrics; m != nil && err == nil {
			m.handoverStarted()
		}
	case proto.OpHandoverStatus:
		info := node.HandoverStatus()
		resp.State, resp.Copied, resp.Mirrored = info.State, info.Copied, info.Mirrored
		resp.Retries, resp.Resumes, resp.Watermark = info.Retries, info.Resumes, info.Watermark
		resp.Lo, resp.Hi, resp.Addr = info.Lo, info.Hi, info.Target
		if info.Cause != nil {
			resp.Cause = info.Cause.Error()
		}
	case proto.OpHandoverResume:
		err = node.HandoverResume()
	case proto.OpHandoverAbort:
		err = node.HandoverAbort()
	case proto.OpImportStart:
		err = node.ImportStart(req.Lo, req.Hi)
	case proto.OpImportResume:
		resp.Fresh, resp.Applied, err = node.ImportResume(req.Lo, req.Hi)
	case proto.OpImportBatch:
		resp.Applied, err = node.ImportBatch(req.Keys, req.Vals)
	case proto.OpImportEnd:
		err = node.ImportEnd(req.Commit)
	case proto.OpMirror:
		err = node.MirrorApply(req.Del, req.Key, req.Val)
	}
	if err != nil {
		// An error response carries only its status, message and map, so
		// whatever the node returned beside err is never encoded.
		c.clusterErr(resp, err)
	}
	return false
}

// clusterErr books a cluster-layer error into resp: an ownership (or epoch)
// miss becomes StatusWrongShard with the node's current map attached — the
// redirect a routing client refreshes from — and anything else is a plain
// StatusErr.
func (c *conn) clusterErr(resp *proto.Response, err error) {
	if errors.Is(err, cluster.ErrWrongShard) {
		if m := c.srv.cfg.Metrics; m != nil {
			m.wrongShard()
		}
		resp.Status, resp.Msg, resp.MapBlob = proto.StatusWrongShard, err.Error(), c.srv.node.MapBlob()
		return
	}
	resp.Status, resp.Msg = proto.StatusErr, err.Error()
}

// batchSize is the operation count a request represents, for metrics.
func batchSize(req *proto.Request) int {
	switch req.Op {
	case proto.OpGetBatch, proto.OpInsertBatch, proto.OpDeleteBatch:
		return len(req.Keys)
	}
	return 1
}

// send encodes and seals resp and queues it on the out channel (see
// enqueue). It is called by the read loop and by the goroutines of scan
// streams that outlive their first page; each caller passes its own
// Response.
func (c *conn) send(resp *proto.Response) bool {
	frame, ok := c.appendFrame(c.takeFrame(), resp)
	if !ok {
		return false
	}
	c.enqueue(frame)
	return true
}

// enqueue queues one or more sealed frames, as one item, on the out channel,
// blocking when the write loop is backed up (the read side of the
// backpressure chain).
func (c *conn) enqueue(frame []byte) {
	if n := c.queued.Add(int64(len(frame))); c.srv.cfg.Metrics != nil {
		c.srv.cfg.Metrics.noteOutQueue(n)
	}
	c.out <- frame
}

// takeFrame returns an empty frame the write loop is done with, nil when
// the free list has none.
func (c *conn) takeFrame() []byte {
	select {
	case frame := <-c.free:
		return frame
	default:
		return nil
	}
}

// appendFrame appends resp to dst as one protocol v2 frame sealed with its
// CRC32C trailer.
func (c *conn) appendFrame(dst []byte, resp *proto.Response) ([]byte, bool) {
	start := len(dst)
	dst, err := proto.AppendResponseV(dst, resp, proto.Version2)
	if err != nil {
		// Only reachable if the index returned an over-limit result, which
		// the request validation rules out; treat as a connection-fatal bug.
		c.srv.logf("server: encode response: %v", err)
		return dst[:start], false
	}
	return proto.SealFrame(dst, start), true
}

// writeLoop drains the out channel — and the mutations of commit.go that
// completed after their Submit returned — into the socket through one buffered
// writer, flushing whenever the queues momentarily empty, so pipelined
// responses coalesce into large writes but the last response of a burst is
// never withheld. With a WriteTimeout configured, every socket write is
// armed with it, so a peer that stops reading cannot pin this goroutine
// past the deadline.
func (c *conn) writeLoop(done chan<- struct{}) {
	defer close(done)
	wt := c.srv.cfg.WriteTimeout
	bw := bufio.NewWriterSize(writeDeadlineWriter{c.nc, wt}, 32<<10)
	for {
		frame, ok := c.nextFrame()
		if !ok {
			break
		}
		if frame == nil { // closeAfterFlush
			bw.Flush()
			c.nc.Close() // unwedge the read loop
			c.drainOut()
			return
		}
		if _, err := bw.Write(frame); err != nil {
			c.nc.Close() // unwedge the read loop too
			c.drainOut()
			return
		}
		if cap(frame) <= maxKeptFrame {
			select {
			case c.free <- frame[:0]:
			default:
			}
		}
		if len(c.out) == 0 && len(c.acks) == 0 {
			if err := bw.Flush(); err != nil {
				c.nc.Close()
				c.drainOut()
				return
			}
		}
	}
	bw.Flush()
}

// nextFrame waits for the next frame to write: a queued response or a late
// mutation's ack, encoded here. It reports false once the read loop has
// closed out.
func (c *conn) nextFrame() ([]byte, bool) {
	select {
	case frame, ok := <-c.out:
		c.queued.Add(-int64(len(frame)))
		return frame, ok
	case m := <-c.acks:
		resp := c.ackResponse(m)
		frame, _ := c.appendFrame(c.takeFrame(), &resp) // an encode failure is logged and writes nothing
		c.acked(m)
		return frame, true
	}
}

// writeDeadlineWriter arms the connection's write deadline before every
// underlying write (bufio flushes included).
type writeDeadlineWriter struct {
	nc netConn
	d  time.Duration
}

func (w writeDeadlineWriter) Write(p []byte) (int, error) {
	if w.d > 0 {
		w.nc.SetWriteDeadline(time.Now().Add(w.d))
	}
	return w.nc.Write(p)
}

// drainOut keeps a failed writer from wedging the read loop on a full
// channel, or a pending mutation on its slot: consume both queues until the
// read loop closes out (which it does only once every mutation is through).
func (c *conn) drainOut() {
	for {
		select {
		case _, ok := <-c.out:
			if !ok {
				return
			}
		case m := <-c.acks:
			c.acked(m)
		}
	}
}
