package client

// The cluster side of Client: endpoint health and the rebalance
// orchestration dytis-ctl drives.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dytis/internal/cluster"
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
// provide a shard map, and by the cluster admin methods of a client from
// Dial, which has only its local one.
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
	// Op names the routed operation ("point op" or "batch").
	Op string
	// Attempts is how many routing rounds were spent.
	Attempts int
	// Pending is how many keys were still unrouted when the budget ran out.
	Pending int
	// LastErr is the final redirect observed.
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

// noteResult feeds one operation's outcome into the endpoint's health
// streak. A server that answered — even with a redirect or an overload
// shed — is alive; only transport-level failures count against it. A
// caller-canceled context says nothing about the endpoint and is neutral.
func (c *Client) noteResult(addr string, err error) {
	healthy := err == nil || errors.Is(err, ErrWrongShard) || errors.Is(err, ErrOverload)
	if healthy && c.sick.Load() == 0 {
		return // no streak anywhere to reset
	}
	if !healthy && errors.Is(err, context.Canceled) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.shut {
		return
	}
	h := c.health[addr]
	if h == nil {
		if healthy {
			return // nothing to reset
		}
		h = &EndpointHealth{Addr: addr}
		c.health[addr] = h
	}
	if healthy {
		if h.Fails > 0 {
			c.sick.Add(-1)
		}
		h.Fails, h.LastErr = 0, nil
	} else {
		if h.Fails == 0 {
			c.sick.Add(1)
		}
		h.Fails++
		h.LastErr = err
	}
}

// Health snapshots the router's per-endpoint failure streaks, one entry per
// endpoint that has failed, in no particular order. Endpoints with Fails ==
// 0 are considered healthy. The streaks are a report: the router never
// uses them to refuse the sole owner of a key.
func (c *Client) Health() []EndpointHealth {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]EndpointHealth, 0, len(c.health))
	for _, h := range c.health {
		out = append(out, *h)
	}
	return out
}

// clusterMap returns the map a cluster admin operation plans against. A
// client from Dial has only its local map, which no server shares.
func (c *Client) clusterMap() (*cluster.Map, error) {
	if c.local {
		return nil, ErrNoShardMap
	}
	return c.Map(), nil
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

// Rebalance live-moves [lo, hi] (which must lie within one current shard)
// to the server at target, orchestrating the whole handover: start the
// copy on the source, poll it to completion, then install the successor
// map in cutover order — source first (de-own; fail closed), target next
// (grant), every other shard after (route). The moved range may extend a
// neighboring shard or populate a fresh, empty server.
func (c *Client) Rebalance(ctx context.Context, lo, hi uint64, target string) error {
	m, err := c.clusterMap()
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

	e, err := c.endpointFor(src.Addr)
	if err != nil {
		return err
	}
	if err := e.HandoverStart(ctx, lo, hi, target); err != nil {
		return fmt.Errorf("client: starting handover on %s: %w", src.Addr, err)
	}
	return c.finishHandover(ctx, e, target, next)
}

// ResumeRebalance picks up a rebalance whose handover suspended (or whose
// orchestrating client died before cutover): it reads the handover's range
// and target back from the source at src, resumes it if suspended, and
// carries it through cutover exactly as Rebalance would have. Safe to call
// while the handover is still live — it then just polls to cutover.
func (c *Client) ResumeRebalance(ctx context.Context, src string) error {
	m, err := c.clusterMap()
	if err != nil {
		return err
	}
	e, err := c.endpointFor(src)
	if err != nil {
		return err
	}
	p, err := e.HandoverStatus(ctx)
	if err != nil {
		return fmt.Errorf("client: reading handover state on %s: %w", src, err)
	}
	if p.Target == "" || p.State == cluster.HandoverNone || p.State == cluster.HandoverDone {
		return fmt.Errorf("client: no resumable handover on %s (state %s)", src, cluster.HandoverStateName(p.State))
	}
	next, err := m.Reassign(p.Lo, p.Hi, p.Target)
	if err != nil {
		return fmt.Errorf("client: rebuilding successor map for handover on %s: %w", src, err)
	}
	return c.finishHandover(ctx, e, p.Target, next)
}

// AbortRebalance abandons the handover on src in whatever state it is,
// scrubbing the partial copy from its target. The shard map is untouched —
// src still owns the range.
func (c *Client) AbortRebalance(ctx context.Context, src string) error {
	e, err := c.endpointFor(src)
	if err != nil {
		return err
	}
	if err := e.HandoverAbort(ctx); err != nil {
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

// finishHandover drives a started handover on src to completion: poll
// until the bulk copy lands, resuming (bounded) whenever the handover
// suspends, then install next in cutover order.
func (c *Client) finishHandover(ctx context.Context, src *endpoint, target string, next *cluster.Map) error {
	blob := next.Encode()
	srcAddr := src.addr
	resumes := 0
	backoff := clusterBackoffMin
cutover:
	for {
	poll:
		for {
			p, err := src.HandoverStatus(ctx)
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
				backoff = min(2*backoff, resumeBackoffMax)
				if err := src.HandoverResume(ctx); err != nil {
					// The target may still be down; the next round retries.
					continue
				}
			default:
				return fmt.Errorf("client: handover on %s entered state %s before cutover", srcAddr, cluster.HandoverStateName(p.State))
			}
		}

		// De-own the source. Its cutover probe re-verifies the target holds
		// the copy; a target lost since the copy finished suspends the
		// handover instead of de-owning, and the poll loop resumes it.
		err := c.installMap(ctx, srcAddr, next, blob)
		if err == nil {
			break cutover
		}
		if p, serr := src.HandoverStatus(ctx); serr == nil && p.State == cluster.HandoverFailed && resumes < rebalanceResumes {
			continue cutover
		}
		return err
	}

	// Rest of the cutover, in the lossless-by-construction order: the
	// source de-owned first above (its SetMap also commits the target's
	// import session and scrubs locally), so there is never a moment with
	// two owners — only a brief fail-closed window the routing retry rides
	// out. Then the target is granted, then the rest are informed.
	if err := c.installMap(ctx, target, next, blob); err != nil {
		return err
	}
	for _, addr := range shardAddrs(next) {
		if addr == srcAddr || addr == target {
			continue
		}
		if err := c.installMap(ctx, addr, next, blob); err != nil {
			return err
		}
	}
	_ = c.adopt(blob) // encoded from a map Reassign validated, so it decodes
	return nil
}

// installMap pushes next onto the server at addr, declaring the range the
// map assigns that address (owns-nothing when the map leaves it out).
func (c *Client) installMap(ctx context.Context, addr string, next *cluster.Map, blob []byte) error {
	selfLo, selfHi := uint64(1), uint64(0) // owns nothing unless the map says otherwise
	for _, s := range next.Shards {
		if s.Addr == addr {
			selfLo, selfHi = s.Lo, s.Hi
			break
		}
	}
	e, err := c.endpointFor(addr)
	if err != nil {
		return err
	}
	if err := e.SetShardMap(ctx, selfLo, selfHi, blob); err != nil {
		return fmt.Errorf("client: installing map epoch %d on %s: %w", next.Epoch, addr, err)
	}
	return nil
}
