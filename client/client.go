// Package client is the Go client for dytis-server, speaking the
// length-prefixed binary protocol of internal/proto with request
// pipelining, connection pooling, batch helpers, context-based timeouts,
// and bounded reconnect with exponential backoff.
//
// There is one client type, Client, and it always routes: every operation
// goes, by a shard map, to the endpoint (one server address's connection
// pool) that owns its key. Dial makes a one-shard map giving its address
// the whole key space; DialCluster fetches the cluster's map from a seed
// and adopts the newer maps the servers' redirects carry. Routing is a
// load, a binary search and an index, and a batch whose keys fall in one
// shard goes to it unsplit.
//
// A Client is safe for concurrent use and that is the intended way to use
// it: many requests ride one connection at once, each carrying an id the
// server echoes. The write side gathers the frames of callers that arrive
// together into one write and the read loop routes each response to its
// waiter; batch calls (GetBatch/InsertBatch/DeleteBatch) amortize framing
// and the server's per-op dispatch for a single goroutine.
//
// Every connection opens with the protocol v2 handshake: a server that does
// not grant checksums and streamed scans fails the dial, and every frame
// after the handshake carries a CRC32C trailer in both directions.
//
// Errors: an operation fails with the server's error for rejected requests,
// with ctx.Err() on timeout/cancellation, and with a connection error when
// the link dies mid-flight. The client never retries an operation whose
// bytes may have reached the server — a failed Insert may or may not have
// applied — except after a redirect (StatusWrongShard), which says the
// request was not applied. The next operation redials transparently
// (bounded attempts, jittered exponential backoff), so a restarted server
// resumes service without a new Dial. A shed request matches ErrOverload
// (*OverloadError carries the retry-after hint); each endpoint's circuit
// breaker (WithCircuitBreaker) fails operations fast with ErrCircuitOpen
// after enough consecutive connection failures or overloads, until a
// half-open probe succeeds. A context deadline travels on the wire, so the
// server can skip requests whose caller has given up.
//
// Close is idempotent and safe to call concurrently with operations: it
// closes every pooled connection, and every entry point called after it
// returns an error matching ErrClientClosed.
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
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dytis/internal/cluster"
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
// A client from DialCluster follows these redirects on its point ops and
// batches, so there it surfaces only inside a RoutingError or from a scan;
// a client from Dial has no map to follow them with and returns them as
// they come.
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

// Option configures a Client at Dial or DialCluster time; every endpoint
// the client opens shares the options.
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

// Client is a pooled, pipelining, routed dytis client. Create with Dial or
// DialCluster; all methods are safe for concurrent use.
//
// The embedded endpoint is the client's home: the address Dial was given,
// or the seed that answered DialCluster. The admin opcodes (ShardInfo,
// SetShardMap, the handover and import families), Protocol, RequireCluster
// and ScanStreamAt address it alone; the data ops go wherever the route
// sends them.
type Client struct {
	*endpoint

	o  *options
	rt atomic.Pointer[route] // the adopted map and its endpoints; never nil once dialed
	// local marks Dial's client: its route is the one-shard map it made
	// itself, never replaced, so a redirect is returned, not followed.
	local bool

	mu     sync.RWMutex
	eps    map[string]*endpoint       // guarded-by: mu — one per address the client has routed to
	health map[string]*EndpointHealth // guarded-by: mu — per-address failure streaks
	shut   bool                       // guarded-by: mu — Close ran

	// sick counts health entries with Fails > 0. It changes only while mu
	// is held, so it is exact; noteResult reads it lock-free to skip mu
	// entirely for a healthy result when no endpoint is mid-streak.
	sick atomic.Int32
}

// Cluster is Client under the name the routed client used to have.
type Cluster = Client

// route is one adopted shard map with its endpoints resolved: eps[i]
// serves m.Shards[i].
type route struct {
	m   *cluster.Map
	eps []*endpoint
}

// oneShard is the route of a single endpoint owning the whole key space.
func oneShard(e *endpoint, epoch uint64) *route {
	m := &cluster.Map{Epoch: epoch, Shards: []cluster.Shard{{Lo: 0, Hi: ^uint64(0), Addr: e.addr}}}
	return &route{m: m, eps: []*endpoint{e}}
}

// shard returns the index of the shard owning key. A malformed map that
// misses key routes to the last shard, whose server redirects.
func (r *route) shard(key uint64) int {
	sh := r.m.Shards
	return min(sort.Search(len(sh), func(i int) bool { return sh[i].Hi >= key }), len(sh)-1)
}

// owner returns the shard owning every key req carries, and false when
// its keys span shards.
func (r *route) owner(req *proto.Request) (int, bool) {
	if len(r.eps) == 1 || len(req.Keys) == 0 {
		return r.shard(req.Key), true
	}
	i := r.shard(req.Keys[0])
	s := r.m.Shards[i]
	for _, k := range req.Keys[1:] {
		if !s.Contains(k) {
			return i, false
		}
	}
	return i, true
}

func newClient(opts []Option) *Client {
	o := defaultOptions()
	for _, apply := range opts {
		apply(&o)
	}
	return &Client{
		o:      &o,
		eps:    make(map[string]*endpoint),
		health: make(map[string]*EndpointHealth),
	}
}

// Dial connects to the dytis-server at addr. The client routes by a local
// map that gives addr the whole key space: no map is fetched and the
// cluster feature is not needed. The first connection is established
// eagerly so an unreachable address fails here, not on the first
// operation.
func Dial(addr string, opts ...Option) (*Client, error) {
	c := newClient(opts)
	c.mu.Lock()
	e := c.endpointLocked(addr)
	c.mu.Unlock()
	cc, err := e.dialConn()
	if err != nil {
		return nil, err
	}
	e.slots[0].cc.Store(cc)
	e.up.Store(true)
	c.endpoint, c.local = e, true
	c.rt.Store(oneShard(e, 0))
	return c, nil
}

// DialCluster connects to a sharded deployment: it asks seeds in order
// until one provides a shard map, then routes by it. That seed is the
// client's home endpoint. Every other endpoint dials when it is first
// used.
func DialCluster(seeds []string, opts ...Option) (*Client, error) {
	if len(seeds) == 0 {
		return nil, errors.New("client: DialCluster needs at least one seed address")
	}
	c := newClient(opts)
	var lastErr error = ErrNoShardMap
	for _, addr := range seeds {
		e, err := c.endpointFor(addr)
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), c.o.dialTimeout)
		blob, err := e.ShardMap(ctx)
		cancel()
		if err == nil {
			err = c.adopt(blob)
		}
		if err != nil {
			lastErr = fmt.Errorf("client: shard map from seed %s: %w", addr, err)
			continue
		}
		c.endpoint = e
		return c, nil
	}
	c.Close()
	return nil, lastErr
}

// Close closes every endpoint's connections. Idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	eps := c.eps
	c.eps, c.shut = nil, true
	c.mu.Unlock()
	for _, e := range eps {
		e.close()
	}
	return nil
}

// Map returns the client's current shard map; for a client from Dial it is
// the local one-shard map at epoch 0.
func (c *Client) Map() *cluster.Map { return c.rt.Load().m }

// Epoch returns the epoch of the client's current shard map.
func (c *Client) Epoch() uint64 { return c.Map().Epoch }

// endpointFor returns (creating, undialed, if needed) the endpoint for addr.
func (c *Client) endpointFor(addr string) (*endpoint, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.shut {
		return nil, ErrClientClosed
	}
	return c.endpointLocked(addr), nil
}

//dytis:locked c.mu w
func (c *Client) endpointLocked(addr string) *endpoint {
	e := c.eps[addr]
	if e == nil {
		e = newEndpoint(addr, c.o)
		c.eps[addr] = e
	}
	return e
}

// adopt installs the map encoded in blob, with its endpoints resolved, if
// it is newer than the current one (or there is none yet). A redirect's
// caller ignores the error of an empty or unparseable blob: the redirect
// itself already says "re-route", and the retry loop's backoff covers the
// case where the server had nothing better to offer.
func (c *Client) adopt(blob []byte) error {
	m, err := cluster.DecodeMap(blob)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur := c.rt.Load(); !c.shut && (cur == nil || m.Epoch > cur.m.Epoch) {
		r := &route{m: m, eps: make([]*endpoint, len(m.Shards))}
		for i, s := range m.Shards {
			r.eps[i] = c.endpointLocked(s.Addr)
		}
		c.rt.Store(r)
	}
	return nil
}

// send runs req on e and books the outcome in e's health streak.
func (c *Client) send(ctx context.Context, e *endpoint, req *proto.Request, resp *proto.Response) error {
	err := e.do(ctx, req, resp)
	c.noteResult(e.addr, err)
	return err
}

// redirected reports whether err is a redirect this client follows, and
// adopts the map it carries.
func (c *Client) redirected(err error) bool {
	if err == nil || c.local {
		return false
	}
	var ws *WrongShardError
	if !errors.As(err, &ws) {
		return false
	}
	_ = c.adopt(ws.MapBlob) // unusable: the retry routes by the current map
	return true
}

// call sends req to the owner of its key, or of its keys, following
// redirects. A request one shard owns whole — every point op, and a batch
// whose keys all fall in one shard's range — goes to that shard as it is,
// with the caller's slices, on the caller's goroutine; a batch spanning
// shards is split (see split). A redirect's map is adopted when newer and
// what it bounced is re-routed after a backoff that rides out a cutover's
// fail-closed window, where for a moment no server owns the key.
//
// The answer is stored into *resp; a split batch's is its Vals and Founds.
func (c *Client) call(ctx context.Context, req *proto.Request, resp *proto.Response) error {
	var (
		pend    []int // a split batch's unapplied keys, by index; nil: the whole req
		vals    []uint64
		founds  []bool
		lastErr error
	)
	backoff := clusterBackoffMin
	for attempt := 0; attempt < clusterAttempts; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, backoff); err != nil {
				return err
			}
			backoff = min(2*backoff, clusterBackoffMax)
		}
		rt := c.rt.Load()
		if pend == nil {
			if i, whole := rt.owner(req); whole {
				err := c.send(ctx, rt.eps[i], req, resp)
				if !c.redirected(err) {
					return err
				}
				lastErr = err
				continue
			}
			n := len(req.Keys)
			pend = make([]int, n)
			for i := range pend {
				pend[i] = i
			}
			switch req.Op {
			case proto.OpGetBatch:
				vals, founds = make([]uint64, n), make([]bool, n)
			case proto.OpDeleteBatch:
				founds = make([]bool, n)
			}
		}
		var err error
		if pend, lastErr, err = c.split(ctx, rt, req.Op, req.Keys, req.Vals, pend, vals, founds); err != nil {
			return err
		}
		if len(pend) == 0 {
			resp.Vals, resp.Founds = vals, founds
			return nil
		}
	}
	rerr := &RoutingError{Op: "point op", Attempts: clusterAttempts, Pending: 1, LastErr: lastErr}
	if req.Keys != nil {
		rerr.Op, rerr.Pending = "batch", len(pend)
		if pend == nil {
			rerr.Pending = len(req.Keys)
		}
	}
	return rerr
}

// split runs the pending keys of one batch as one sub-batch per owning
// shard, issued concurrently — the last on the caller's goroutine, which
// would otherwise only wait — and scatters the answers into vals and
// founds (when non-nil) at the keys' input positions. It returns the keys
// a shard redirected, for the caller to re-split against the adopted map;
// any other failure fails the whole batch (sub-batches already applied
// stay applied: a batch is an amortization, not a transaction).
func (c *Client) split(ctx context.Context, rt *route, op proto.Opcode, keys, kvals []uint64, pend []int,
	vals []uint64, founds []bool) (redirected []int, lastErr, err error) {
	groups := make([][]int, len(rt.eps))
	last := 0
	for _, i := range pend {
		s := rt.shard(keys[i])
		groups[s] = append(groups[s], i)
		last = max(last, s)
	}
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	run := func(e *endpoint, idxs []int) {
		req := &proto.Request{Op: op, Keys: make([]uint64, len(idxs))}
		if kvals != nil {
			req.Vals = make([]uint64, len(idxs))
		}
		for j, i := range idxs {
			req.Keys[j] = keys[i]
			if kvals != nil {
				req.Vals[j] = kvals[i]
			}
		}
		var resp proto.Response
		rerr := c.send(ctx, e, req, &resp)
		if rerr == nil && (vals != nil && len(resp.Vals) != len(idxs) || founds != nil && len(resp.Founds) != len(idxs)) {
			rerr = fmt.Errorf("client: shard %s answered %d/%d results for %d keys", e.addr, len(resp.Vals), len(resp.Founds), len(idxs))
		}
		mu.Lock()
		defer mu.Unlock()
		switch {
		case rerr == nil:
			for j, i := range idxs {
				if vals != nil {
					vals[i] = resp.Vals[j]
				}
				if founds != nil {
					founds[i] = resp.Founds[j]
				}
			}
		case c.redirected(rerr):
			redirected = append(redirected, idxs...)
			lastErr = rerr
		case err == nil:
			err = rerr
		}
	}
	for s, idxs := range groups {
		switch {
		case len(idxs) == 0:
		case s == last:
			run(rt.eps[s], idxs)
		default:
			wg.Add(1)
			go func() {
				defer wg.Done()
				run(rt.eps[s], idxs)
			}()
		}
	}
	wg.Wait() //dytis:blocking-ok each group's op runs under the caller's ctx, so the join is bounded by it
	return redirected, lastErr, err
}

// each sends one request of opcode op to every endpoint of the route once,
// in shard order, and sums the answers' values; the first failure ends it.
func (c *Client) each(ctx context.Context, op proto.Opcode) (sum uint64, err error) {
	eps := c.rt.Load().eps
	for i, e := range eps {
		if slices.Contains(eps[:i], e) {
			continue
		}
		var resp proto.Response
		if err := c.send(ctx, e, &proto.Request{Op: op}, &resp); err != nil {
			return 0, err
		}
		sum += resp.Val
	}
	return sum, nil
}

// --- operations -------------------------------------------------------------

// Ping round-trips an empty request to every shard's server, failing on
// the first dead one.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.each(ctx, proto.OpPing)
	return err
}

// Get returns the value stored under key and whether it exists.
func (c *Client) Get(ctx context.Context, key uint64) (uint64, bool, error) {
	var resp proto.Response
	if err := c.call(ctx, &proto.Request{Op: proto.OpGet, Key: key}, &resp); err != nil {
		return 0, false, err
	}
	return resp.Val, resp.Found, nil
}

// Insert stores or updates value under key.
func (c *Client) Insert(ctx context.Context, key, value uint64) error {
	return c.call(ctx, &proto.Request{Op: proto.OpInsert, Key: key, Val: value}, new(proto.Response))
}

// Delete removes key, reporting whether it was present.
func (c *Client) Delete(ctx context.Context, key uint64) (bool, error) {
	var resp proto.Response
	if err := c.call(ctx, &proto.Request{Op: proto.OpDelete, Key: key}, &resp); err != nil {
		return false, err
	}
	return resp.Found, nil
}

// GetBatch looks up every key of keys, returning parallel result slices
// (vals[i], found[i] answer keys[i]): one round trip per shard the keys
// fall in. At most proto.MaxBatch (65536) keys per call.
func (c *Client) GetBatch(ctx context.Context, keys []uint64) (vals []uint64, found []bool, err error) {
	var resp proto.Response
	if err := c.call(ctx, &proto.Request{Op: proto.OpGetBatch, Keys: keys}, &resp); err != nil {
		return nil, nil, err
	}
	return resp.Vals, resp.Founds, nil
}

// InsertBatch stores vals[i] under keys[i] for every i, one round trip per
// shard the keys fall in. At most proto.MaxBatch pairs per call; the batch
// is not atomic on the server, it is an amortization.
func (c *Client) InsertBatch(ctx context.Context, keys, vals []uint64) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("client: InsertBatch keys/vals length mismatch (%d vs %d)", len(keys), len(vals))
	}
	return c.call(ctx, &proto.Request{Op: proto.OpInsertBatch, Keys: keys, Vals: vals}, new(proto.Response))
}

// DeleteBatch removes every key of keys, returning whether each was
// present, in the input's order.
func (c *Client) DeleteBatch(ctx context.Context, keys []uint64) ([]bool, error) {
	var resp proto.Response
	if err := c.call(ctx, &proto.Request{Op: proto.OpDeleteBatch, Keys: keys}, &resp); err != nil {
		return nil, err
	}
	return resp.Founds, nil
}

// Len returns the number of live keys across every shard. During a live
// handover the moving range exists on both source and target, so the sum
// can transiently over-count.
func (c *Client) Len(ctx context.Context) (int, error) {
	n, err := c.each(ctx, proto.OpLen)
	return int(n), err
}
