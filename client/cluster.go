package client

// Cluster is the routed client for a sharded dytis deployment: it holds the
// latest shard map it has seen, routes every operation to the owner of its
// key (splitting batches per shard), chains scans shard by shard in key
// order (shards tile the key space, so no merge is needed), and
// transparently follows StatusWrongShard redirects — including through the
// brief fail-closed window of a live handover cutover, which it retries
// with backoff instead of surfacing.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dytis/internal/cluster"
	"dytis/internal/proto"
)

const (
	// clusterAttempts bounds redirect-retry loops: a cutover re-routes in
	// one or two redirects, so running out means the map is churning faster
	// than this client can follow (or the cluster is misconfigured).
	clusterAttempts = 8
	// clusterBackoffMin/Max pace retries through a cutover's fail-closed
	// window (source de-owned, target not yet granted).
	clusterBackoffMin = 2 * time.Millisecond
	clusterBackoffMax = 100 * time.Millisecond
)

// ErrNoShardMap is returned by DialCluster when no seed server could
// provide a shard map.
var ErrNoShardMap = errors.New("client: no seed server has a shard map installed")

// ErrRouting matches (via errors.Is) operations the router gave up on after
// exhausting its redirect-retry budget: the shard map was churning faster
// than this client could follow, or the cluster is misconfigured. It is a
// routing outcome, not a data error — the operation may be retried whole.
// errors.As with *RoutingError recovers the attempt count and last cause.
var ErrRouting = errors.New("client: routing exhausted")

// RoutingError is the typed error of an operation that was still being
// redirected (or re-split) when the router ran out of attempts.
type RoutingError struct {
	// Op names the routed operation ("point op", "batch", "scan").
	Op string
	// Attempts is how many routing rounds were spent.
	Attempts int
	// Pending is how many keys were still unrouted when the budget ran out
	// (1 for point operations, 0 when the count is not per-key).
	Pending int
	// LastErr is the final redirect or refresh failure observed.
	LastErr error
}

func (e *RoutingError) Error() string {
	if e.Pending > 1 {
		return fmt.Sprintf("client: %s: %d keys still redirected after %d attempts: %v",
			e.Op, e.Pending, e.Attempts, e.LastErr)
	}
	return fmt.Sprintf("client: %s still redirected after %d attempts: %v", e.Op, e.Attempts, e.LastErr)
}

func (e *RoutingError) Unwrap() error { return e.LastErr }

// Is makes errors.Is(err, ErrRouting) match.
func (e *RoutingError) Is(target error) bool { return target == ErrRouting }

// EndpointHealth is the router's view of one endpoint, snapshotted by
// Health. An endpoint is healthy while its operations complete — any
// response counts, including redirects and overload sheds; only transport
// failures (dial errors, timeouts, dead connections) count against it.
type EndpointHealth struct {
	Addr string
	// Fails counts consecutive transport failures; 0 means healthy.
	Fails int
	// LastErr is the failure that set Fails, nil when healthy.
	LastErr error
}

// Cluster routes operations across a sharded dytis deployment. Create with
// DialCluster; all methods are safe for concurrent use. Close closes every
// per-shard client.
type Cluster struct {
	opts []Option

	mu      sync.RWMutex
	m       *cluster.Map               // guarded-by: mu — latest adopted map
	blob    []byte                     // guarded-by: mu — its encoded form
	clients map[string]*Client         // guarded-by: mu — per-address pooled clients
	health  map[string]*EndpointHealth // guarded-by: mu — per-address failure streaks
	closed  bool                       // guarded-by: mu

	// sick counts health entries with Fails > 0. It changes only while mu
	// is write-held, so it is exact; noteResult reads it lock-free to skip
	// mu entirely for a healthy result when no endpoint is mid-streak.
	sick atomic.Int32
}

// DialCluster connects to a sharded deployment: it dials seeds in order
// until one provides a shard map, then routes by it. opts configure every
// per-shard Client the router opens.
func DialCluster(seeds []string, opts ...Option) (*Cluster, error) {
	if len(seeds) == 0 {
		return nil, errors.New("client: DialCluster needs at least one seed address")
	}
	o := defaultOptions()
	for _, apply := range opts {
		apply(&o)
	}
	cl := &Cluster{
		opts:    opts,
		clients: make(map[string]*Client),
		health:  make(map[string]*EndpointHealth),
	}
	var lastErr error = ErrNoShardMap
	for _, addr := range seeds {
		c, err := cl.client(addr)
		if err != nil {
			lastErr = err
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), o.dialTimeout)
		blob, err := c.ShardMap(ctx)
		cancel()
		if err != nil {
			lastErr = fmt.Errorf("client: shard map from seed %s: %w", addr, err)
			continue
		}
		m, err := cluster.DecodeMap(blob)
		if err != nil {
			lastErr = fmt.Errorf("client: shard map from seed %s: %w", addr, err)
			continue
		}
		cl.m, cl.blob = m, blob
		return cl, nil
	}
	cl.Close()
	return nil, lastErr
}

// Close closes every per-shard client. Idempotent.
func (cl *Cluster) Close() error {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil
	}
	cl.closed = true
	clients := cl.clients
	cl.clients = nil
	cl.mu.Unlock()
	for _, c := range clients {
		c.Close()
	}
	return nil
}

// Map returns the router's current shard map.
func (cl *Cluster) Map() *cluster.Map {
	cl.mu.RLock()
	defer cl.mu.RUnlock()
	return cl.m
}

// Epoch returns the epoch of the router's current shard map.
func (cl *Cluster) Epoch() uint64 {
	cl.mu.RLock()
	defer cl.mu.RUnlock()
	if cl.m == nil {
		return 0
	}
	return cl.m.Epoch
}

// client returns (opening if needed) the pooled client for addr.
func (cl *Cluster) client(addr string) (*Client, error) {
	cl.mu.RLock()
	c, closed := cl.clients[addr], cl.closed
	cl.mu.RUnlock()
	if closed {
		return nil, ErrClientClosed
	}
	if c != nil {
		return c, nil
	}
	c, err := Dial(addr, cl.opts...)
	if err != nil {
		return nil, err
	}
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		c.Close()
		return nil, ErrClientClosed
	}
	if prev := cl.clients[addr]; prev != nil { // another goroutine won the race
		cl.mu.Unlock()
		c.Close()
		return prev, nil
	}
	cl.clients[addr] = c
	cl.mu.Unlock()
	return c, nil
}

// noteResult feeds one operation's outcome into the endpoint's health
// streak. A server that answered — even with a redirect or an overload
// shed — is alive; only transport-level failures count against it. A
// caller-canceled context says nothing about the endpoint and is neutral.
func (cl *Cluster) noteResult(addr string, err error) {
	healthy := err == nil || errors.Is(err, ErrWrongShard) || errors.Is(err, ErrOverload)
	if healthy && cl.sick.Load() == 0 {
		return // no streak anywhere to reset
	}
	if !healthy && errors.Is(err, context.Canceled) {
		return
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed {
		return
	}
	h := cl.health[addr]
	if h == nil {
		if healthy {
			return // nothing to reset
		}
		h = &EndpointHealth{Addr: addr}
		cl.health[addr] = h
	}
	if healthy {
		if h.Fails > 0 {
			cl.sick.Add(-1)
		}
		h.Fails, h.LastErr = 0, nil
	} else {
		if h.Fails == 0 {
			cl.sick.Add(1)
		}
		h.Fails++
		h.LastErr = err
	}
}

// Health snapshots the router's per-endpoint failure streaks, one entry per
// endpoint the router has talked to, in no particular order. Endpoints with
// Fails == 0 are considered healthy; the router itself uses the streaks to
// order endpoints when any of them can serve (Refresh), never to refuse the
// sole owner of a key.
func (cl *Cluster) Health() []EndpointHealth {
	cl.mu.RLock()
	defer cl.mu.RUnlock()
	out := make([]EndpointHealth, 0, len(cl.health))
	for _, h := range cl.health {
		out = append(out, *h)
	}
	return out
}

// healthyFirst orders addrs so endpoints with no active failure streak come
// before ones mid-streak, preserving relative order within each class.
func (cl *Cluster) healthyFirst(addrs []string) []string {
	cl.mu.RLock()
	defer cl.mu.RUnlock()
	out := make([]string, 0, len(addrs))
	var sick []string
	for _, a := range addrs {
		if h := cl.health[a]; h != nil && h.Fails > 0 {
			sick = append(sick, a)
			continue
		}
		out = append(out, a)
	}
	return append(out, sick...)
}

// snapshot returns the current map, failing when none is installed.
func (cl *Cluster) snapshot() (*cluster.Map, error) {
	cl.mu.RLock()
	defer cl.mu.RUnlock()
	if cl.closed {
		return nil, ErrClientClosed
	}
	if cl.m == nil {
		return nil, ErrNoShardMap
	}
	return cl.m, nil
}

// adopt installs the map encoded in blob if it is newer than the current
// one. A nil, unparseable, or stale blob is ignored — the redirect itself
// already says "refresh", and the retry loop's backoff covers the case
// where the server had nothing better to offer.
func (cl *Cluster) adopt(blob []byte) {
	if len(blob) == 0 {
		return
	}
	m, err := cluster.DecodeMap(blob)
	if err != nil {
		return
	}
	cl.mu.Lock()
	if !cl.closed && (cl.m == nil || m.Epoch > cl.m.Epoch) {
		cl.m, cl.blob = m, blob
	}
	cl.mu.Unlock()
}

// Refresh re-pulls the shard map from the current owners (any shard will
// do), adopting it if newer. Routing self-heals off redirects without it;
// Refresh exists for callers that want an up-to-date Map() view.
func (cl *Cluster) Refresh(ctx context.Context) error {
	m, err := cl.snapshot()
	if err != nil {
		return err
	}
	var lastErr error
	for _, addr := range cl.healthyFirst(shardAddrs(m)) {
		c, err := cl.client(addr)
		if err != nil {
			cl.noteResult(addr, err)
			lastErr = err
			continue
		}
		blob, err := c.ShardMap(ctx)
		cl.noteResult(addr, err)
		if err != nil {
			lastErr = err
			continue
		}
		cl.adopt(blob)
		return nil
	}
	return fmt.Errorf("client: refreshing shard map: %w", lastErr)
}

// withKey routes one point operation to key's owner, following redirects.
func (cl *Cluster) withKey(ctx context.Context, key uint64, op func(c *Client) error) error {
	backoff := clusterBackoffMin
	var lastErr error
	for attempt := 0; attempt < clusterAttempts; attempt++ {
		m, err := cl.snapshot()
		if err != nil {
			return err
		}
		addr := m.Owner(key).Addr
		c, err := cl.client(addr)
		if err != nil {
			cl.noteResult(addr, err)
			return err
		}
		err = op(c)
		cl.noteResult(addr, err)
		var ws *WrongShardError
		if !errors.As(err, &ws) {
			return err
		}
		// Redirected: adopt the attached map (when newer) and retry. The
		// backoff rides out a cutover's fail-closed window, where for a
		// moment no server owns the key.
		lastErr = err
		cl.adopt(ws.MapBlob)
		if serr := sleepCtx(ctx, backoff); serr != nil {
			return serr
		}
		if backoff *= 2; backoff > clusterBackoffMax {
			backoff = clusterBackoffMax
		}
	}
	return &RoutingError{Op: "point op", Attempts: clusterAttempts, Pending: 1, LastErr: lastErr}
}

// Ping round-trips on every shard's owner, failing on the first dead one.
func (cl *Cluster) Ping(ctx context.Context) error {
	m, err := cl.snapshot()
	if err != nil {
		return err
	}
	for _, addr := range shardAddrs(m) {
		c, err := cl.client(addr)
		if err != nil {
			return err
		}
		if err := c.Ping(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Get returns the value stored under key and whether it exists.
func (cl *Cluster) Get(ctx context.Context, key uint64) (val uint64, found bool, err error) {
	err = cl.withKey(ctx, key, func(c *Client) error {
		var err error
		val, found, err = c.Get(ctx, key)
		return err
	})
	return val, found, err
}

// Insert stores or updates value under key on its owning shard.
func (cl *Cluster) Insert(ctx context.Context, key, value uint64) error {
	return cl.withKey(ctx, key, func(c *Client) error {
		return c.Insert(ctx, key, value)
	})
}

// Delete removes key from its owning shard, reporting whether it was
// present.
func (cl *Cluster) Delete(ctx context.Context, key uint64) (found bool, err error) {
	err = cl.withKey(ctx, key, func(c *Client) error {
		var err error
		found, err = c.Delete(ctx, key)
		return err
	})
	return found, err
}

// Len returns the total number of live keys across all shards. During a
// live handover the moving range exists on both source and target, so the
// sum can transiently over-count.
func (cl *Cluster) Len(ctx context.Context) (int, error) {
	m, err := cl.snapshot()
	if err != nil {
		return 0, err
	}
	total := 0
	for _, addr := range shardAddrs(m) {
		c, err := cl.client(addr)
		if err != nil {
			return 0, err
		}
		n, err := c.Len(ctx)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// shardAddrs returns the map's addresses, deduplicated, in shard order.
func shardAddrs(m *cluster.Map) []string {
	seen := make(map[string]bool, len(m.Shards))
	addrs := make([]string, 0, len(m.Shards))
	for _, s := range m.Shards {
		if !seen[s.Addr] {
			seen[s.Addr] = true
			addrs = append(addrs, s.Addr)
		}
	}
	return addrs
}

// doSharded runs one batched operation over keys, split per owning shard
// and issued concurrently; op receives each group's client, the indexes of
// its keys in the original slice, and the keys themselves. Groups answered
// with StatusWrongShard are re-split against the refreshed map and retried;
// any other failure fails the whole call (sub-batches already applied stay
// applied — batches are amortization, not transactions, same as Client).
func (cl *Cluster) doSharded(ctx context.Context, keys []uint64, op func(c *Client, idxs []int, keys []uint64) error) error {
	pend := make([]int, len(keys))
	for i := range pend {
		pend[i] = i
	}
	backoff := clusterBackoffMin
	var lastErr error
	for attempt := 0; attempt < clusterAttempts && len(pend) > 0; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, backoff); err != nil {
				return err
			}
			if backoff *= 2; backoff > clusterBackoffMax {
				backoff = clusterBackoffMax
			}
		}
		m, err := cl.snapshot()
		if err != nil {
			return err
		}
		groups := make(map[string][]int)
		for _, i := range pend {
			addr := m.Owner(keys[i]).Addr
			groups[addr] = append(groups[addr], i)
		}
		var (
			wg         sync.WaitGroup
			mu         sync.Mutex
			redirected []int
			failErr    error
		)
		fail := func(err error) {
			mu.Lock()
			if failErr == nil {
				failErr = err
			}
			mu.Unlock()
		}
		run := func(c *Client, addr string, idxs []int) {
			gk := make([]uint64, len(idxs))
			for j, i := range idxs {
				gk[j] = keys[i]
			}
			err := op(c, idxs, gk)
			cl.noteResult(addr, err)
			var ws *WrongShardError
			switch {
			case err == nil:
			case errors.As(err, &ws):
				cl.adopt(ws.MapBlob)
				mu.Lock()
				redirected = append(redirected, idxs...)
				lastErr = err
				mu.Unlock()
			default:
				fail(err)
			}
		}
		// Every group but the last gets a goroutine; the last runs on the
		// caller's, which would otherwise only wait.
		left := len(groups)
		for addr, idxs := range groups {
			c, err := cl.client(addr)
			if err != nil {
				cl.noteResult(addr, err)
				fail(err)
				break
			}
			if left--; left == 0 {
				run(c, addr, idxs)
				break
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				run(c, addr, idxs)
			}()
		}
		wg.Wait() //dytis:blocking-ok each group's op runs under the caller's ctx, so the join is bounded by it
		if failErr != nil {
			return failErr
		}
		pend = redirected
	}
	if len(pend) > 0 {
		return &RoutingError{Op: "batch", Attempts: clusterAttempts, Pending: len(pend), LastErr: lastErr}
	}
	return nil
}

// GetBatch looks up every key of keys across the cluster in one round trip
// per shard, returning parallel result slices in the input's order.
func (cl *Cluster) GetBatch(ctx context.Context, keys []uint64) (vals []uint64, found []bool, err error) {
	vals = make([]uint64, len(keys))
	found = make([]bool, len(keys))
	err = cl.doSharded(ctx, keys, func(c *Client, idxs []int, gk []uint64) error {
		gv, gf, err := c.GetBatch(ctx, gk)
		if err != nil {
			return err
		}
		if len(gv) != len(idxs) || len(gf) != len(idxs) {
			return fmt.Errorf("client: shard answered %d/%d results for %d keys", len(gv), len(gf), len(idxs))
		}
		for j, i := range idxs {
			vals[i], found[i] = gv[j], gf[j]
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return vals, found, nil
}

// InsertBatch stores vals[i] under keys[i] across the cluster, one batch
// per owning shard, issued concurrently.
func (cl *Cluster) InsertBatch(ctx context.Context, keys, vals []uint64) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("client: InsertBatch keys/vals length mismatch (%d vs %d)", len(keys), len(vals))
	}
	return cl.doSharded(ctx, keys, func(c *Client, idxs []int, gk []uint64) error {
		gv := make([]uint64, len(idxs))
		for j, i := range idxs {
			gv[j] = vals[i]
		}
		return c.InsertBatch(ctx, gk, gv)
	})
}

// DeleteBatch removes every key of keys across the cluster, returning
// whether each was present, in the input's order.
func (cl *Cluster) DeleteBatch(ctx context.Context, keys []uint64) ([]bool, error) {
	found := make([]bool, len(keys))
	err := cl.doSharded(ctx, keys, func(c *Client, idxs []int, gk []uint64) error {
		gf, err := c.DeleteBatch(ctx, gk)
		if err != nil {
			return err
		}
		if len(gf) != len(idxs) {
			return fmt.Errorf("client: shard answered %d results for %d keys", len(gf), len(idxs))
		}
		for j, i := range idxs {
			found[i] = gf[j]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return found, nil
}

// ScanStream begins a chained scan of up to max pairs with key >= start in
// ascending key order (max <= 0 scans everything). Shards tile the key
// space in map order, so it streams from start's owner and opens the next
// shard only when the current one's range ran out with budget left: one
// Scanner open at a time, each bounded by the budget still owed, so a scan
// inside one shard costs that shard one stream and nothing elsewhere.
//
// Every per-shard stream is pinned to the map epoch the scan started
// under: a shard that has moved past it — a handover cut a range over
// before or during its stream — fails with ErrWrongShard instead of
// silently serving a moved range, and the chain stops with that error
// inside a *ScanInterruptedError; re-issue the scan to retry against the
// new map (Scan does this automatically). A shard that cannot be reached
// when the chain gets to it fails the same typed way.
func (cl *Cluster) ScanStream(ctx context.Context, start uint64, max int) *MergeScanner {
	m, err := cl.snapshot()
	if err != nil {
		return failedMergeScanner(err)
	}
	var budget uint64
	if max > 0 {
		budget = uint64(max)
	}
	first := sort.Search(len(m.Shards), func(i int) bool { return m.Shards[i].Hi >= start })
	return newMergeScanner(first, len(m.Shards), budget, func(i int, budget uint64) (kvStream, error) {
		s := m.Shards[i]
		c, err := cl.client(s.Addr)
		if err != nil {
			return nil, err
		}
		from := s.Lo
		if i == first {
			from = start
		}
		return c.ScanStreamAt(ctx, from, int(budget), m.Epoch), nil
	})
}

// Scan returns up to max pairs with key >= start across the whole cluster
// in ascending key order (max <= 0 scans everything), as parallel
// key/value slices. A scan interrupted by a shard-map change is retried
// from scratch against the new map.
func (cl *Cluster) Scan(ctx context.Context, start uint64, max int) (keys, vals []uint64, err error) {
	backoff := clusterBackoffMin
	var lastErr error
	for attempt := 0; attempt < clusterAttempts; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, backoff); err != nil {
				return nil, nil, err
			}
			if backoff *= 2; backoff > clusterBackoffMax {
				backoff = clusterBackoffMax
			}
			if err := cl.Refresh(ctx); err != nil {
				lastErr = err
				continue
			}
		}
		keys, vals = keys[:0], vals[:0]
		s := cl.ScanStream(ctx, start, max)
		for s.Next() {
			keys = append(keys, s.Key())
			vals = append(vals, s.Value())
		}
		err := s.Err()
		s.Close()
		if err == nil {
			return keys, vals, nil
		}
		if !errors.Is(err, ErrWrongShard) {
			return nil, nil, err
		}
		lastErr = err
	}
	return nil, nil, &RoutingError{Op: "scan", Attempts: clusterAttempts, LastErr: lastErr}
}

// Rebalance live-moves [lo, hi] (which must lie within one current shard)
// to the server at target, orchestrating the whole handover: start the
// copy on the source, poll it to completion, then install the successor
// map in cutover order — source first (de-own; fail closed), target next
// (grant), every other shard after (route). The moved range may extend a
// neighboring shard or populate a fresh, empty server.
func (cl *Cluster) Rebalance(ctx context.Context, lo, hi uint64, target string) error {
	m, err := cl.snapshot()
	if err != nil {
		return err
	}
	src := m.Owner(lo)
	if !src.Contains(hi) {
		return fmt.Errorf("client: rebalance range [%#x, %#x] spans shards (owner of lo is [%#x, %#x])", lo, hi, src.Lo, src.Hi)
	}
	if src.Addr == target {
		return fmt.Errorf("client: rebalance target %s already owns [%#x, %#x]", target, lo, hi)
	}
	next, err := m.Reassign(lo, hi, target)
	if err != nil {
		return err
	}

	srcClient, err := cl.client(src.Addr)
	if err != nil {
		return err
	}
	if err := srcClient.HandoverStart(ctx, lo, hi, target); err != nil {
		return fmt.Errorf("client: starting handover on %s: %w", src.Addr, err)
	}
	return cl.finishHandover(ctx, srcClient, src.Addr, target, next)
}

// ResumeRebalance picks up a rebalance whose handover suspended (or whose
// orchestrating client died before cutover): it reads the handover's range
// and target back from the source at src, resumes it if suspended, and
// carries it through cutover exactly as Rebalance would have. Safe to call
// while the handover is still live — it then just polls to cutover.
func (cl *Cluster) ResumeRebalance(ctx context.Context, src string) error {
	c, err := cl.client(src)
	if err != nil {
		return err
	}
	p, err := c.HandoverStatus(ctx)
	if err != nil {
		return fmt.Errorf("client: reading handover state on %s: %w", src, err)
	}
	if p.Target == "" || p.State == cluster.HandoverNone || p.State == cluster.HandoverDone {
		return fmt.Errorf("client: no resumable handover on %s (state %d)", src, p.State)
	}
	m, err := cl.snapshot()
	if err != nil {
		return err
	}
	next, err := m.Reassign(p.Lo, p.Hi, p.Target)
	if err != nil {
		return fmt.Errorf("client: rebuilding successor map for handover on %s: %w", src, err)
	}
	return cl.finishHandover(ctx, c, src, p.Target, next)
}

// AbortRebalance abandons the handover on src in whatever state it is,
// scrubbing the partial copy from its target. The shard map is untouched —
// src still owns the range.
func (cl *Cluster) AbortRebalance(ctx context.Context, src string) error {
	c, err := cl.client(src)
	if err != nil {
		return err
	}
	if err := c.HandoverAbort(ctx); err != nil {
		return fmt.Errorf("client: aborting handover on %s: %w", src, err)
	}
	return nil
}

// rebalanceResumes bounds how many times finishHandover will resume a
// suspending handover before giving up: transient faults heal in one or
// two, and a target that keeps killing the copy needs an operator, not an
// infinite loop. The resume backoff is its own, slower scale (up to
// resumeBackoffMax) — the fault being ridden out is a peer-link or target
// outage, not a cutover's millisecond fail-closed window.
const (
	rebalanceResumes = 8
	resumeBackoffMax = 500 * time.Millisecond
)

// finishHandover drives a started handover on srcAddr to completion:
// poll until the bulk copy lands, resuming (bounded) whenever the handover
// suspends, then install next in cutover order.
func (cl *Cluster) finishHandover(ctx context.Context, srcClient *Client, srcAddr, target string, next *cluster.Map) error {
	blob := next.Encode()
	resumes := 0
	backoff := clusterBackoffMin
cutover:
	for {
	poll:
		for {
			p, err := srcClient.HandoverStatus(ctx)
			if err != nil {
				return fmt.Errorf("client: polling handover on %s: %w", srcAddr, err)
			}
			switch p.State {
			case cluster.HandoverCopied:
				break poll
			case cluster.HandoverCopying:
				if err := sleepCtx(ctx, 5*time.Millisecond); err != nil {
					return err
				}
			case cluster.HandoverFailed:
				// Suspended: the source keeps its watermark and journals the
				// moving range's writes, so a resume continues rather than
				// recopies. Backoff gives the fault time to clear.
				if resumes >= rebalanceResumes {
					return fmt.Errorf("client: handover on %s still suspended after %d resumes (%d pairs copied)",
						srcAddr, resumes, p.Copied)
				}
				resumes++
				if err := sleepCtx(ctx, backoff); err != nil {
					return err
				}
				if backoff *= 2; backoff > resumeBackoffMax {
					backoff = resumeBackoffMax
				}
				if err := srcClient.HandoverResume(ctx); err != nil {
					// The target may still be down; the next round retries.
					continue
				}
			default:
				return fmt.Errorf("client: handover on %s entered state %d before cutover", srcAddr, p.State)
			}
		}

		// De-own the source. Its cutover probe re-verifies the target holds
		// the copy; a target lost since the copy finished suspends the
		// handover instead of de-owning, and the poll loop resumes it.
		err := cl.installMap(ctx, srcAddr, next, blob)
		if err == nil {
			break cutover
		}
		if p, serr := srcClient.HandoverStatus(ctx); serr == nil && p.State == cluster.HandoverFailed && resumes < rebalanceResumes {
			continue cutover
		}
		return err
	}

	// Rest of the cutover, in the lossless-by-construction order: the
	// source de-owned first above (its SetMap also commits the target's
	// import session and scrubs locally), so there is never a moment with
	// two owners — only a brief fail-closed window the routing retry rides
	// out. Then the target is granted, then the rest are informed.
	if err := cl.installMap(ctx, target, next, blob); err != nil {
		return err
	}
	for _, addr := range shardAddrs(next) {
		if addr == srcAddr || addr == target {
			continue
		}
		if err := cl.installMap(ctx, addr, next, blob); err != nil {
			return err
		}
	}
	cl.adopt(blob)
	return nil
}

// installMap pushes next onto the server at addr, declaring the range the
// map assigns that address (owns-nothing when the map leaves it out).
func (cl *Cluster) installMap(ctx context.Context, addr string, next *cluster.Map, blob []byte) error {
	selfLo, selfHi := uint64(1), uint64(0) // owns nothing unless the map says otherwise
	for _, s := range next.Shards {
		if s.Addr == addr {
			selfLo, selfHi = s.Lo, s.Hi
			break
		}
	}
	c, err := cl.client(addr)
	if err != nil {
		return err
	}
	if err := c.SetShardMap(ctx, selfLo, selfHi, blob); err != nil {
		return fmt.Errorf("client: installing map epoch %d on %s: %w", next.Epoch, addr, err)
	}
	return nil
}

// Protocol sanity: the router requires the v2 cluster feature on every
// connection it routes over; a shard server that stopped granting it would
// quarantine admin opcodes. This compile-time reference keeps the proto
// dependency explicit.
var _ = proto.FeatCluster
