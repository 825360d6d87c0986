// Package client is the Go client for dytis-server, speaking the
// length-prefixed binary protocol of internal/proto with request
// pipelining, connection pooling, batch helpers, context-based timeouts,
// and bounded reconnect with exponential backoff.
//
// A Client is safe for concurrent use and that is the intended way to use
// it: goroutines issuing requests on the same Client share its pooled
// connections, and because every request carries an id that the server
// echoes, many requests ride one connection concurrently — the write side
// gathers the frames of callers that arrive together into one write, the
// read loop routes each response to its waiter. A
// single goroutine gets pipelining for free the same way by issuing batch
// calls (GetBatch/InsertBatch/DeleteBatch), which amortize both framing and
// the server's per-op dispatch.
//
// Every connection opens with the protocol v2 handshake: a server that does
// not grant checksums and streamed scans fails the dial, and every frame
// after the handshake carries a CRC32C trailer in both directions.
//
// Error semantics: an operation fails with the server's error for rejected
// requests, with ctx.Err() on timeout/cancellation, and with a connection
// error when the link dies mid-flight (e.g. the server restarts). The
// client never silently retries an operation after its bytes may have
// reached the server — a failed Insert may or may not have applied, and
// only the caller knows whether re-issuing is safe — but the next operation
// on the client transparently redials (bounded attempts, jittered
// exponential backoff), so a restarted server resumes service without new
// Dial calls.
//
// Overload and failure handling: when the server sheds a request under
// admission control, the operation fails with an error matching
// ErrOverload, and errors.As against *OverloadError yields the server's
// retry-after hint. A circuit breaker (see WithCircuitBreaker) watches
// connection-level failures and overloads: after enough consecutive ones
// it opens, failing operations instantly with ErrCircuitOpen instead of
// hammering a struggling server, and after a cooldown it lets a single
// probe through (half-open) — one success closes it again. When the
// calling context carries a deadline, the remaining budget is propagated
// to the server on the wire, letting it skip requests whose caller has
// already given up.
//
// Close semantics: Close is idempotent and safe to call concurrently with
// operations. It closes every pooled connection; operations blocked on a
// response fail promptly, and every entry point called after Close —
// including ones racing with it — returns an error matching
// ErrClientClosed. A closed client never redials; create a new Client with
// Dial to reconnect.
//
//	c, err := client.Dial("127.0.0.1:7070")
//	defer c.Close()
//	err = c.Insert(ctx, 42, 1)
//	v, ok, err := c.Get(ctx, 42)
//	s := c.ScanStream(ctx, 0, 100) // first 100 pairs, streamed
//	defer s.Close()
//	for s.Next() { use(s.Key(), s.Value()) }
package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dytis/internal/proto"
)

// The client promises that every caller-facing wait respects the caller's
// context; ctxcheck (tools/analyzers) enforces it package-wide.
//
//dytis:ctxcheck

// ErrClientClosed is returned by every entry point invoked after Close
// (match with errors.Is).
var ErrClientClosed = errors.New("client: closed")

// ErrOverload matches (via errors.Is) the error of an operation the server
// shed under admission control; errors.As with *OverloadError recovers the
// retry-after hint.
var ErrOverload = errors.New("client: server overloaded")

// ErrCircuitOpen matches (via errors.Is) operations failed fast by the
// circuit breaker while it is open: the server has produced enough
// consecutive connection failures or overloads that the client backs off
// entirely until the breaker's cooldown lets a probe through.
var ErrCircuitOpen = errors.New("client: circuit breaker open")

// ErrFrameCorrupt matches (via errors.Is) operations that failed because a
// frame flunked CRC32C verification — either a server frame the client
// caught, or a client frame the server answered with StatusChecksum. The
// connection is retired in both cases: a stream that has carried corruption
// cannot be trusted to stay aligned.
var ErrFrameCorrupt = errors.New("client: frame failed checksum verification")

// OverloadError is the typed error of a request shed by the server.
type OverloadError struct {
	// RetryAfter is the server's hint for when to try again (zero when the
	// server sent none or it did not parse).
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("client: server overloaded; retry after %s", e.RetryAfter)
	}
	return "client: server overloaded"
}

// Is makes errors.Is(err, ErrOverload) match.
func (e *OverloadError) Is(target error) bool { return target == ErrOverload }

// ErrWrongShard matches (via errors.Is) operations a shard server answered
// with StatusWrongShard: the key (or scan epoch) no longer belongs to it.
// errors.As with *WrongShardError recovers the server's current shard map.
// Cluster handles these transparently; it surfaces only from Client used
// directly against a shard server.
var ErrWrongShard = errors.New("client: wrong shard")

// WrongShardError is the typed error of a request redirected by a shard
// server.
type WrongShardError struct {
	// MapBlob is the server's current encoded shard map (cluster.DecodeMap
	// parses it). Empty when the server has none installed.
	MapBlob []byte
	// Msg is the server's diagnostic.
	Msg string
}

func (e *WrongShardError) Error() string {
	return "client: wrong shard: " + e.Msg
}

// Is makes errors.Is(err, ErrWrongShard) match.
func (e *WrongShardError) Is(target error) bool { return target == ErrWrongShard }

// Option configures a Client at Dial time.
type Option func(*options)

// Dialer opens the client's transport connections; the default is a plain
// TCP dial. Replace it with WithDialer to route through a proxy or a
// fault-injected conn (internal/fault) in chaos tests.
type Dialer func(addr string, timeout time.Duration) (net.Conn, error)

type options struct {
	poolSize    int
	pipeline    int
	dialTimeout time.Duration
	redials     int
	backoffMin  time.Duration
	backoffMax  time.Duration
	breakTrips  int           // consecutive failures that open the breaker; 0 = disabled
	breakCool   time.Duration // open-state cooldown before a half-open probe
	dialer      Dialer
	scanChunk   int // streaming-scan per-chunk pair bound
	scanWindow  int // streaming-scan credit window
}

func defaultOptions() options {
	return options{
		poolSize:    2,
		pipeline:    128,
		dialTimeout: 5 * time.Second,
		redials:     4,
		backoffMin:  25 * time.Millisecond,
		backoffMax:  1 * time.Second,
		breakTrips:  16,
		breakCool:   500 * time.Millisecond,
		scanChunk:   1024,
		scanWindow:  8,
	}
}

// WithPoolSize sets how many connections the client keeps to the server
// (default 2). Requests are spread round-robin; more connections help many
// goroutines more than they help one.
func WithPoolSize(n int) Option {
	return func(o *options) {
		if n > 0 {
			o.poolSize = n
		}
	}
}

// WithPipeline caps the requests one connection keeps in flight (default
// 128); at the cap, callers block until a response frees a slot.
func WithPipeline(n int) Option {
	return func(o *options) {
		if n > 0 {
			o.pipeline = n
		}
	}
}

// WithDialTimeout bounds each connection attempt (default 5s).
func WithDialTimeout(d time.Duration) Option {
	return func(o *options) {
		if d > 0 {
			o.dialTimeout = d
		}
	}
}

// WithReconnect bounds transparent redialing of a broken pool slot:
// attempts tries per operation, with jittered exponential backoff from min
// to max between consecutive failures of that slot (defaults: 4 tries,
// 25ms–1s). Jitter (±25%) keeps a fleet of clients from re-dialing a
// recovering server in lockstep.
func WithReconnect(attempts int, min, max time.Duration) Option {
	return func(o *options) {
		if attempts > 0 {
			o.redials = attempts
		}
		if min > 0 {
			o.backoffMin = min
		}
		if max >= min && max > 0 {
			o.backoffMax = max
		}
	}
}

// WithCircuitBreaker tunes the client's circuit breaker: after trips
// consecutive connection failures or overloads the breaker opens and
// operations fail fast with ErrCircuitOpen; after cooldown one probe is
// let through (half-open) and its success closes the breaker. Defaults:
// 16 trips, 500ms cooldown. trips <= 0 disables the breaker.
func WithCircuitBreaker(trips int, cooldown time.Duration) Option {
	return func(o *options) {
		o.breakTrips = trips
		if cooldown > 0 {
			o.breakCool = cooldown
		}
	}
}

// WithDialer replaces the transport dialer (default: TCP). The chaos test
// suite routes connections through internal/fault with this.
func WithDialer(d Dialer) Option {
	return func(o *options) {
		if d != nil {
			o.dialer = d
		}
	}
}

// WithScanStream tunes streaming scans: chunk is the per-chunk pair bound
// (default 1024, capped at proto.MaxScan); window is the credit window —
// how many chunks the server may run ahead of consumption (default 8,
// capped at proto.MaxScanCredits). Bigger values trade client memory for
// throughput.
func WithScanStream(chunk, window int) Option {
	return func(o *options) {
		if chunk > 0 {
			o.scanChunk = min(chunk, proto.MaxScan)
		}
		if window > 0 {
			o.scanWindow = min(window, proto.MaxScanCredits)
		}
	}
}

// Client is a pooled, pipelining dytis-server client. Create with Dial; all
// methods are safe for concurrent use.
type Client struct {
	addr string
	o    options
	br   *breaker // nil when the breaker is disabled

	slots  []*slot // fixed at Dial; slots have their own locks
	rr     atomic.Uint64
	closed atomic.Bool
}

// breaker is the client's circuit breaker. States: closed (normal), open
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
	// Client.conn is this load and the connection's dead flag.
	cc atomic.Pointer[clientConn]

	mu       sync.Mutex
	failures int       // guarded-by: mu — consecutive dial/IO failures
	lastFail time.Time // guarded-by: mu — when the last one happened
}

// Dial connects to a dytis-server at addr. The first connection is
// established eagerly so an unreachable address fails here, not on the
// first operation.
func Dial(addr string, opts ...Option) (*Client, error) {
	o := defaultOptions()
	for _, apply := range opts {
		apply(&o)
	}
	c := &Client{addr: addr, o: o, slots: make([]*slot, o.poolSize)}
	if o.breakTrips > 0 {
		c.br = &breaker{trips: o.breakTrips, cooldown: o.breakCool}
	}
	for i := range c.slots {
		c.slots[i] = &slot{}
	}
	cc, err := c.dialConn()
	if err != nil {
		return nil, err
	}
	c.slots[0].cc.Store(cc)
	return c, nil
}

// Protocol returns the protocol version and the feature bits the server
// granted a live pooled connection. The version is always proto.Version2,
// the only one the client speaks.
func (c *Client) Protocol(ctx context.Context) (version uint8, features uint32, err error) {
	cc, err := c.conn(ctx)
	if err != nil {
		return 0, 0, err
	}
	return proto.Version2, cc.feats, nil
}

// Close shuts the client down: all pooled connections close, their
// in-flight requests fail, and every later operation returns an error
// matching ErrClientClosed. Close is idempotent and safe to call
// concurrently with operations.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	for _, s := range c.slots {
		s.mu.Lock()
		if cc := s.cc.Swap(nil); cc != nil {
			cc.fail(ErrClientClosed)
		}
		s.mu.Unlock()
	}
	return nil
}

// conn returns a live connection from the pool, redialing its slot if the
// previous connection died — waiting out the slot's backoff first, bounded
// by both the reconnect budget and ctx.
func (c *Client) conn(ctx context.Context) (*clientConn, error) {
	s := c.slots[0]
	if len(c.slots) > 1 {
		s = c.slots[c.rr.Add(1)%uint64(len(c.slots))]
	}
	if cc := s.cc.Load(); cc != nil && !cc.dead.Load() {
		return cc, nil
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// Checked under the slot lock: Close sets the flag before it visits the
	// slots, so a connection dialed past this point is one Close will find.
	if c.closed.Load() {
		return nil, ErrClientClosed
	}
	if cc := s.cc.Load(); cc != nil && !cc.dead.Load() { // another goroutine redialed
		return cc, nil
	}
	s.cc.Store(nil)
	var lastErr error
	for try := 0; try < c.o.redials; try++ {
		if wait := c.backoff(s); wait > 0 {
			s.mu.Unlock()
			err := sleepCtx(ctx, wait)
			s.mu.Lock()
			if err != nil {
				return nil, err
			}
			if c.closed.Load() {
				return nil, ErrClientClosed
			}
			if cc := s.cc.Load(); cc != nil && !cc.dead.Load() { // another goroutine redialed
				return cc, nil
			}
		}
		cc, err := c.dialConn()
		if err != nil {
			lastErr = err
			s.failures++
			s.lastFail = time.Now()
			continue
		}
		s.cc.Store(cc)
		s.failures = 0
		return cc, nil
	}
	return nil, fmt.Errorf("client: reconnect to %s failed after %d attempts: %w", c.addr, c.o.redials, lastErr)
}

// backoff returns how long the slot's cooldown still has to run. The
// exponential base is jittered ±25% so a client fleet whose server just
// restarted does not redial in lockstep (a thundering herd re-creates the
// overload that killed the server).
//
//dytis:locked s.mu
func (c *Client) backoff(s *slot) time.Duration {
	if s.failures == 0 {
		return 0
	}
	d := c.o.backoffMin << (s.failures - 1)
	if d > c.o.backoffMax || d <= 0 {
		d = c.o.backoffMax
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

// do sends req on a pooled connection and waits for its response, gated by
// the circuit breaker and with the ctx deadline budget propagated on the
// wire.
func (c *Client) do(ctx context.Context, req *proto.Request) (proto.Response, error) {
	if c.br != nil {
		if err := c.br.allow(); err != nil {
			return proto.Response{}, err
		}
	}
	resp, answered, err := c.doOnce(ctx, req)
	if c.br != nil {
		c.br.record(classify(err, answered))
	}
	return resp, err
}

// doOnce is one attempt: pick (or redial) a connection, send, wait, and
// map error statuses to typed errors. answered alongside a non-nil error
// means the server answered — the link itself is healthy.
func (c *Client) doOnce(ctx context.Context, req *proto.Request) (resp proto.Response, answered bool, err error) {
	cc, err := c.conn(ctx)
	if err != nil {
		return resp, false, err
	}
	if resp, err = cc.do(ctx, req); err != nil {
		return resp, false, err
	}
	serr, retire := statusErr(&resp)
	if retire {
		cc.fail(serr)
	}
	return resp, true, serr
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

// --- operations -------------------------------------------------------------

// Ping round-trips an empty request.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.do(ctx, &proto.Request{Op: proto.OpPing})
	return err
}

// Get returns the value stored under key and whether it exists.
func (c *Client) Get(ctx context.Context, key uint64) (uint64, bool, error) {
	resp, err := c.do(ctx, &proto.Request{Op: proto.OpGet, Key: key})
	if err != nil {
		return 0, false, err
	}
	return resp.Val, resp.Found, nil
}

// Insert stores or updates value under key.
func (c *Client) Insert(ctx context.Context, key, value uint64) error {
	_, err := c.do(ctx, &proto.Request{Op: proto.OpInsert, Key: key, Val: value})
	return err
}

// Delete removes key, reporting whether it was present.
func (c *Client) Delete(ctx context.Context, key uint64) (bool, error) {
	resp, err := c.do(ctx, &proto.Request{Op: proto.OpDelete, Key: key})
	if err != nil {
		return false, err
	}
	return resp.Found, nil
}

// GetBatch looks up every key of keys in one round trip, returning parallel
// result slices (vals[i], found[i] answer keys[i]). At most proto.MaxBatch
// (65536) keys per call.
func (c *Client) GetBatch(ctx context.Context, keys []uint64) (vals []uint64, found []bool, err error) {
	resp, err := c.do(ctx, &proto.Request{Op: proto.OpGetBatch, Keys: keys})
	if err != nil {
		return nil, nil, err
	}
	return resp.Vals, resp.Founds, nil
}

// InsertBatch stores vals[i] under keys[i] for every i in one round trip.
// At most proto.MaxBatch pairs per call; the batch is not atomic on the
// server, it is an amortization.
func (c *Client) InsertBatch(ctx context.Context, keys, vals []uint64) error {
	_, err := c.do(ctx, &proto.Request{Op: proto.OpInsertBatch, Keys: keys, Vals: vals})
	return err
}

// DeleteBatch removes every key of keys in one round trip, returning
// whether each was present.
func (c *Client) DeleteBatch(ctx context.Context, keys []uint64) ([]bool, error) {
	resp, err := c.do(ctx, &proto.Request{Op: proto.OpDeleteBatch, Keys: keys})
	if err != nil {
		return nil, err
	}
	return resp.Founds, nil
}

// Len returns the number of live keys in the served index.
func (c *Client) Len(ctx context.Context) (int, error) {
	resp, err := c.do(ctx, &proto.Request{Op: proto.OpLen})
	if err != nil {
		return 0, err
	}
	return int(resp.Val), nil
}
