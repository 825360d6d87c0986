package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dytis/internal/proto"
)

// endpoint is the client's transport to one server address: a fixed pool
// of pipelined connections, the circuit breaker, and the admin opcodes.
// A Client holds one per address its route names; the routed data ops pick
// one per request.
type endpoint struct {
	addr string
	o    *options
	br   *breaker // nil when the breaker is disabled

	slots  []*slot // fixed at creation; slots have their own locks
	rr     atomic.Uint64
	closed atomic.Bool
	// up is set once a connection has succeeded. Until then a failed dial
	// fails its operation at once, without the reconnect backoff: an
	// address that never answered is reported as promptly as Dial reports
	// it.
	up atomic.Bool
}

// newEndpoint makes the endpoint for addr without dialing it: the first
// operation that needs a connection opens one.
func newEndpoint(addr string, o *options) *endpoint {
	e := &endpoint{addr: addr, o: o, slots: make([]*slot, o.poolSize)}
	if o.breakTrips > 0 {
		e.br = &breaker{trips: o.breakTrips, cooldown: o.breakCool}
	}
	for i := range e.slots {
		e.slots[i] = &slot{}
	}
	return e
}

// breaker is an endpoint's circuit breaker. States: closed (normal), open
// (fail fast until cooldown), half-open (one probe in flight). Connection
// failures and overloads count; responses received from the server — even
// error responses — and caller-side context expiries do not.
type breaker struct {
	trips    int
	cooldown time.Duration

	mu       sync.Mutex
	fails    int       // guarded-by: mu — consecutive trip-class failures
	openedAt time.Time // guarded-by: mu — zero when closed
	probing  bool      // guarded-by: mu — a half-open probe is in flight
}

// allow gates an operation: nil to proceed, ErrCircuitOpen to fail fast.
func (b *breaker) allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.openedAt.IsZero() {
		return nil
	}
	if time.Since(b.openedAt) < b.cooldown || b.probing {
		return ErrCircuitOpen
	}
	b.probing = true // half-open: exactly one probe
	return nil
}

// record books an operation's outcome. verdict trips the breaker on
// breakerTrip, closes it on breakerOK, and leaves it untouched otherwise.
func (b *breaker) record(v breakerVerdict) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch v {
	case breakerOK:
		b.fails = 0
		b.openedAt = time.Time{}
		b.probing = false
	case breakerTrip:
		b.fails++
		b.probing = false
		if b.fails >= b.trips {
			b.openedAt = time.Now()
		}
	default: // breakerNeutral: a probe slot must still be released
		b.probing = false
	}
}

type breakerVerdict int

const (
	breakerNeutral breakerVerdict = iota // ctx expiry, client closed
	breakerOK                            // a response arrived (even an error response)
	breakerTrip                          // connection failure or overload
)

// classify maps an operation error to its breaker verdict.
func classify(err error, gotResponse bool) breakerVerdict {
	switch {
	case err == nil:
		return breakerOK
	case errors.Is(err, ErrOverload):
		return breakerTrip
	case errors.Is(err, ErrClientClosed),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return breakerNeutral
	case gotResponse:
		// The server answered (e.g. StatusBadRequest): the link is healthy.
		return breakerOK
	default:
		return breakerTrip // dial, write, or read failure
	}
}

// slot is one pool position: a live connection, or a cooldown record from
// its last failure that the next user must respect before redialing.
type slot struct {
	// cc is stored under mu and loaded without it: the common case of
	// endpoint.conn is this load and the connection's dead flag.
	cc atomic.Pointer[clientConn]

	mu       sync.Mutex
	failures int       // guarded-by: mu — consecutive dial/IO failures
	lastFail time.Time // guarded-by: mu — when the last one happened
}

// Protocol returns the protocol version and the feature bits the server
// granted a live pooled connection of the client's home endpoint. The
// version is always proto.Version2, the only one the client speaks.
func (e *endpoint) Protocol(ctx context.Context) (version uint8, features uint32, err error) {
	cc, err := e.conn(ctx)
	if err != nil {
		return 0, 0, err
	}
	return proto.Version2, cc.feats, nil
}

// close fails every pooled connection and every later operation with
// ErrClientClosed. Idempotent.
func (e *endpoint) close() {
	if e.closed.Swap(true) {
		return
	}
	for _, s := range e.slots {
		s.mu.Lock()
		if cc := s.cc.Swap(nil); cc != nil {
			cc.fail(ErrClientClosed)
		}
		s.mu.Unlock()
	}
}

// conn returns a live connection from the pool, redialing its slot if the
// previous connection died — waiting out the slot's backoff first, bounded
// by both the reconnect budget and ctx.
func (e *endpoint) conn(ctx context.Context) (*clientConn, error) {
	s := e.slots[0]
	if len(e.slots) > 1 {
		s = e.slots[e.rr.Add(1)%uint64(len(e.slots))]
	}
	if cc := s.cc.Load(); cc != nil && !cc.dead.Load() {
		return cc, nil
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// Checked under the slot lock: close sets the flag before it visits the
	// slots, so a connection dialed past this point is one close will find.
	if e.closed.Load() {
		return nil, ErrClientClosed
	}
	if cc := s.cc.Load(); cc != nil && !cc.dead.Load() { // another goroutine redialed
		return cc, nil
	}
	s.cc.Store(nil)
	var lastErr error
	for try := 0; try < e.o.redials; try++ {
		if wait := e.backoff(s); wait > 0 {
			s.mu.Unlock()
			err := sleepCtx(ctx, wait)
			s.mu.Lock()
			if err != nil {
				return nil, err
			}
			if e.closed.Load() {
				return nil, ErrClientClosed
			}
			if cc := s.cc.Load(); cc != nil && !cc.dead.Load() { // another goroutine redialed
				return cc, nil
			}
		}
		cc, err := e.dialConn()
		if err != nil {
			if !e.up.Load() {
				return nil, err
			}
			lastErr = err
			s.failures++
			s.lastFail = time.Now()
			continue
		}
		s.cc.Store(cc)
		s.failures = 0
		e.up.Store(true)
		return cc, nil
	}
	return nil, fmt.Errorf("client: reconnect to %s failed after %d attempts: %w", e.addr, e.o.redials, lastErr)
}

// backoff returns how long the slot's cooldown still has to run. The
// exponential base is jittered ±25% so a client fleet whose server just
// restarted does not redial in lockstep (a thundering herd re-creates the
// overload that killed the server).
//
//dytis:locked s.mu
func (e *endpoint) backoff(s *slot) time.Duration {
	if s.failures == 0 {
		return 0
	}
	d := e.o.backoffMin << (s.failures - 1)
	if d > e.o.backoffMax || d <= 0 {
		d = e.o.backoffMax
	}
	d = time.Duration(float64(d) * (0.75 + 0.5*rand.Float64()))
	if elapsed := time.Since(s.lastFail); elapsed < d {
		return d - elapsed
	}
	return 0
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// do sends req on a pooled connection and waits for its response, stored
// into *resp, gated by the circuit breaker and with the ctx deadline budget
// propagated on the wire. The response travels by pointer from the read
// loop's reply to the caller: a point op's answer is copied once.
func (e *endpoint) do(ctx context.Context, req *proto.Request, resp *proto.Response) error {
	if e.br != nil {
		if err := e.br.allow(); err != nil {
			return err
		}
	}
	answered, err := e.doOnce(ctx, req, resp)
	if e.br != nil {
		e.br.record(classify(err, answered))
	}
	return err
}

// doOnce is one attempt: pick (or redial) a connection, send, wait, and
// map error statuses to typed errors. answered alongside a non-nil error
// means the server answered — the link itself is healthy.
func (e *endpoint) doOnce(ctx context.Context, req *proto.Request, resp *proto.Response) (answered bool, err error) {
	cc, err := e.conn(ctx)
	if err != nil {
		return false, err
	}
	if err = cc.do(ctx, req, resp); err != nil {
		return false, err
	}
	serr, retire := statusErr(resp)
	if retire {
		cc.fail(serr)
	}
	return true, serr
}

// statusErr maps a response's status to the client's typed error surface;
// retire reports that the connection can no longer be trusted and must be
// failed. Every status the protocol defines must be mapped here — a new one
// falling silently into the generic branch would lose its typed meaning —
// so the switch is exhaustive (protocheck enforces it).
func statusErr(resp *proto.Response) (err error, retire bool) {
	//dytis:opswitch statuses
	switch resp.Status {
	case proto.StatusOK:
		return nil, false
	case proto.StatusOverload:
		ra, _ := resp.RetryAfter()
		return &OverloadError{RetryAfter: ra}, false
	case proto.StatusChecksum:
		// The server detected corruption in a frame we sent and is about to
		// quarantine the connection; retire it on this side too.
		return fmt.Errorf("%w (detected server-side)", ErrFrameCorrupt), true
	case proto.StatusWrongShard:
		// The key (or scan epoch) does not belong to the server anymore; the
		// attached map, when present, is the one to re-route from.
		return &WrongShardError{MapBlob: resp.MapBlob, Msg: resp.Msg}, false
	case proto.StatusBadRequest, proto.StatusShuttingDown,
		proto.StatusErr, proto.StatusDeadlineExceeded:
		return resp.Err(), false
	}
	return resp.Err(), false
}
