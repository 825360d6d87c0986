package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dytis/internal/proto"
)

// clientConn is one pooled connection. Requests from any number of
// goroutines interleave on it: each registers a waiter keyed by its request
// id, appends its frame to the connection's frame writer (see send), and
// blocks on its own channel; the single read loop routes responses by id, so
// pipelined completions can arrive in any order. Streaming scans register a
// stream channel instead of a waiter: every OpScanChunk/OpScanEnd carrying
// the stream's id routes there. When the connection dies every waiter and
// stream fails with the sticky error and the conn is left for the pool to
// replace.
type clientConn struct {
	nc     net.Conn
	br     *bufio.Reader // shared by handshake and read loop
	nextID atomic.Uint64

	// feats are the features the handshake granted, written before the read
	// loop starts.
	feats uint32

	// inflight bounds pipelining: a slot is taken before writing and
	// released when the response (or failure) arrives.
	inflight chan struct{}

	w      proto.Writer  // the outbound path (send)
	yields atomic.Uint64 // baton holders that yielded before their first write

	dead atomic.Bool // set by fail: the pool's lock-free liveness check

	mu      sync.Mutex
	waiters map[uint64]chan reply  // guarded-by: mu
	streams map[uint64]chan result // guarded-by: mu — scan streams, keyed by ScanStart id
	err     error                  // guarded-by: mu — sticky; non-nil once the conn is dead
}

// reply is what a waiter receives. The response travels by value, so a
// point operation's answer costs no allocation between the read loop and
// its caller.
type reply struct {
	resp proto.Response
	err  error
}

// result is one frame (or the failure) of a scan stream.
type result struct {
	resp *proto.Response
	err  error
}

// waiterPool recycles waiter channels (capacity 1). A channel goes back only
// from the caller that owned it, and only once nobody can send on it any
// more: after it received, or after it deregistered itself.
var waiterPool = sync.Pool{New: func() any { return make(chan reply, 1) }}

// dialConn opens one connection to the endpoint: dial, then the HELLO
// exchange, synchronously, before the read loop starts.
func (e *endpoint) dialConn() (*clientConn, error) {
	o := e.o
	dial := o.dialer
	if dial == nil {
		dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	nc, err := dial(e.addr, o.dialTimeout)
	if err != nil {
		return nil, err
	}
	cc := &clientConn{
		nc:       nc,
		br:       bufio.NewReaderSize(nc, 32<<10),
		inflight: make(chan struct{}, o.pipeline),
		waiters:  make(map[uint64]chan reply),
	}
	cc.w.Init(nc, 0, 0, nil)
	if err := cc.handshake(o.dialTimeout); err != nil {
		nc.Close()
		return nil, err
	}
	go cc.readLoop()
	return cc, nil
}

// handshake runs the HELLO exchange on the freshly dialed connection (the
// read loop is not running yet). Both frames travel unsealed; every later
// frame, in both directions, is sealed. A refusal, or a grant short of
// protocol v2 with checksums and streamed scans, fails the dial.
func (cc *clientConn) handshake(timeout time.Duration) error {
	cc.nextID.Store(1) // HELLO consumes id 1
	frame, err := proto.AppendRequest(nil, &proto.Request{
		ID: 1, Op: proto.OpHello, Ver: proto.MaxVersion, Feats: proto.AllFeatures,
	})
	if err != nil {
		return err
	}
	if timeout > 0 {
		cc.nc.SetDeadline(time.Now().Add(timeout))
		defer cc.nc.SetDeadline(time.Time{})
	}
	if _, err := cc.nc.Write(frame); err != nil {
		return fmt.Errorf("client: hello write: %w", err)
	}
	body, _, err := proto.ReadFrame(cc.br, nil)
	if err != nil {
		return fmt.Errorf("client: hello read: %w", err)
	}
	var resp proto.Response
	if err := proto.DecodeResponse(body, &resp); err != nil {
		return fmt.Errorf("client: hello decode: %w", err)
	}
	if resp.ID != 1 {
		return fmt.Errorf("client: hello answered with id %d", resp.ID)
	}
	if resp.Status != proto.StatusOK || resp.Op != proto.OpHello {
		return fmt.Errorf("client: hello refused: op %v status %d: %s", resp.Op, resp.Status, resp.Msg)
	}
	const need = proto.FeatCRC | proto.FeatScanStream
	if resp.Ver < proto.Version2 || resp.Feats&need != need {
		return fmt.Errorf("client: server did not grant protocol v2 with checksums and streamed scans (version %d, features %#x)", resp.Ver, resp.Feats)
	}
	cc.feats = resp.Feats & proto.AllFeatures
	return nil
}

// fail marks the connection dead, closes the socket, and delivers err to
// every waiter and stream. Idempotent; the first error wins.
func (cc *clientConn) fail(err error) {
	cc.mu.Lock()
	if cc.err != nil {
		cc.mu.Unlock()
		return
	}
	cc.err = err
	cc.dead.Store(true)
	waiters := cc.waiters
	streams := cc.streams
	cc.waiters = nil
	cc.streams = nil
	cc.mu.Unlock()
	cc.nc.Close()
	for _, ch := range waiters {
		ch <- reply{err: err}
	}
	for _, ch := range streams {
		// Stream channels reserve one slot beyond the flow-control window,
		// so this send can never block (see registerStream).
		ch <- result{err: err}
	}
}

// registerStream routes future chunk/end frames with the given id to ch.
// ch must have capacity for the stream's full credit window plus the end
// frame plus one failure slot, so the read loop and fail never block on it.
func (cc *clientConn) registerStream(id uint64, ch chan result) error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.err != nil {
		return cc.err
	}
	if cc.streams == nil {
		cc.streams = make(map[uint64]chan result)
	}
	cc.streams[id] = ch
	return nil
}

// alone reports whether at most one party — a request in flight or a scan
// stream — is using the connection, the caller being that one (see send).
func (cc *clientConn) alone() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return len(cc.waiters)+len(cc.streams) <= 1
}

// dropStream deregisters a stream; late frames for it are dropped.
func (cc *clientConn) dropStream(id uint64) {
	cc.mu.Lock()
	delete(cc.streams, id) // a no-op on a nil map: no stream yet, or after fail
	cc.mu.Unlock()
}

// readLoop routes response frames to waiters and streams until the
// connection dies, verifying every frame's CRC32C trailer.
func (cc *clientConn) readLoop() {
	var buf []byte
	var resp proto.Response
	for {
		body, nbuf, err := proto.ReadFrameCRC(cc.br, buf)
		buf = nbuf
		if err != nil {
			if errors.Is(err, proto.ErrChecksum) {
				// The server's frame arrived corrupt. The stream can no
				// longer be trusted to be aligned; surface the typed error
				// and retire the connection.
				cc.fail(fmt.Errorf("%w: %v", ErrFrameCorrupt, err))
				return
			}
			cc.fail(fmt.Errorf("client: connection lost: %w", err))
			return
		}
		// Decoded from zero every time: the previous response's slices
		// belong to whoever received it.
		resp = proto.Response{}
		if err := proto.DecodeResponse(body, &resp); err != nil {
			cc.fail(fmt.Errorf("client: protocol error: %w", err))
			return
		}
		// Routing is deliberately exhaustive over the response opcodes
		// (protocheck enforces it): an opcode added to the protocol must
		// decide here whether it belongs to a stream or a waiter.
		//dytis:opswitch responses
		switch resp.Op {
		case proto.OpScanChunk, proto.OpScanEnd, proto.OpScanStart:
			// Stream-routed: chunks and the end frame, but also an OpScanStart
			// error response (bad request, overload) — the scan registered in
			// streams, not waiters, so that answer must land there too or the
			// Scanner would block until its ctx expired. Chunks keep the
			// stream; end and start-refusal frames are terminal.
			cc.mu.Lock()
			ch := cc.streams[resp.ID]
			if resp.Op != proto.OpScanChunk && ch != nil {
				delete(cc.streams, resp.ID)
			}
			cc.mu.Unlock()
			if ch != nil {
				frame := new(proto.Response) // a stream queues frames; each needs its own
				*frame = resp
				select {
				case ch <- result{resp: frame}:
				default:
					// The server pushed past the credit window we granted:
					// a flow-control violation, not a transient condition.
					cc.fail(fmt.Errorf("client: scan stream %d overran its credit window", resp.ID))
					return
				}
			}
			// A chunk with no stream belongs to a cancelled scan; drop it.
		case proto.OpPing, proto.OpGet, proto.OpInsert, proto.OpDelete,
			proto.OpGetBatch, proto.OpInsertBatch,
			proto.OpDeleteBatch, proto.OpLen, proto.OpHello,
			proto.OpScanCredit, proto.OpScanCancel,
			proto.OpShardInfo, proto.OpMapGet, proto.OpMapSet,
			proto.OpHandoverStart, proto.OpHandoverStatus,
			proto.OpHandoverResume, proto.OpHandoverAbort,
			proto.OpImportBatch, proto.OpImportEnd,
			proto.OpImportResume, proto.OpMirror:
			cc.mu.Lock()
			ch := cc.waiters[resp.ID]
			delete(cc.waiters, resp.ID)
			cc.mu.Unlock()
			if ch != nil {
				ch <- reply{resp: resp}
			}
			// A response with no waiter is one whose caller timed out; drop it.
		}
	}
}

// send is the connection's one outbound path: it seals req into the frame
// writer, so a caller's frames reach the wire in the order it issued them.
// If a write is owed the frame rides it; otherwise the caller takes the
// baton and flushes on its own goroutine. A baton holder that is not alone
// on the connection yields once before its first write: on few CPUs the
// other callers are runnable rather than running, and only a yield lets
// their frames join this write (DESIGN.md §12).
//
// An error means nothing was buffered. Once buffered, a frame may reach the
// server; a failed or timed-out write fails the connection, and every
// caller whose frame was in or behind it gets the error from fail. A
// group's write deadline is the earliest among its callers' contexts.
func (cc *clientConn) send(ctx context.Context, req *proto.Request, alone bool) error {
	dl, _ := ctx.Deadline()
	if baton, err := cc.w.AppendRequest(req, dl); !baton {
		return err // nil when a write is owed: the frame rides it
	}
	if !alone {
		cc.yields.Add(1)
		runtime.Gosched()
	}
	if err := cc.w.Flush(); err != nil {
		// A partial frame desynchronizes the stream for every user.
		cc.fail(fmt.Errorf("client: write: %w", err))
	}
	return nil
}

// abandon deregisters the waiter of a caller that gave up. It reports
// whether the waiter was still registered — if not, the read loop or fail
// has taken it and will send on its channel.
func (cc *clientConn) abandon(id uint64) bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	_, registered := cc.waiters[id]
	delete(cc.waiters, id)
	return registered
}

// do sends req and waits for its response, stored into *resp, honoring ctx
// for the queueing, the write, and the wait.
func (cc *clientConn) do(ctx context.Context, req *proto.Request, resp *proto.Response) error {
	select {
	case cc.inflight <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	//dytis:blocking-ok releasing the slot acquired above from a buffered channel never blocks
	defer func() { <-cc.inflight }()

	req.ID = cc.nextID.Add(1)
	// Propagate the caller's remaining deadline budget on the wire so the
	// server can skip executing a request whose caller has already given
	// up (it answers StatusDeadlineExceeded, which nobody is waiting for).
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem > 0 {
			req.TimeoutMS = uint32(min(max(int64(rem/time.Millisecond), 1), int64(^uint32(0))))
		}
	}
	ch := waiterPool.Get().(chan reply)
	cc.mu.Lock()
	if cc.err != nil {
		err := cc.err
		cc.mu.Unlock()
		waiterPool.Put(ch)
		return err
	}
	cc.waiters[req.ID] = ch
	alone := len(cc.waiters)+len(cc.streams) == 1
	cc.mu.Unlock()

	if err := cc.send(ctx, req, alone); err != nil {
		if cc.abandon(req.ID) {
			waiterPool.Put(ch)
		}
		return err
	}

	select {
	case r := <-ch:
		waiterPool.Put(ch)
		*resp = r.resp
		return r.err
	case <-ctx.Done():
		// Deregister so the response, if it still comes, is dropped.
		if cc.abandon(req.ID) {
			waiterPool.Put(ch)
			return ctx.Err()
		}
		select {
		case r := <-ch: // response or failure raced the deregistration
			waiterPool.Put(ch)
			*resp = r.resp
			return r.err
		default:
			// The sender has claimed the waiter but not sent yet; the
			// channel is its to write, so it is not recycled.
		}
		return ctx.Err()
	}
}
