package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dytis/internal/kv"
)

// Index is the read surface a Node wraps, and the one the server serves:
// server.Index is an alias of it, since every server serves through a Node.
// Writes reach the index only through the node's Committer (see NewNode).
// It must be safe for concurrent use.
type Index interface {
	Get(key uint64) (uint64, bool)
	Scan(start uint64, max int, dst []kv.KV) []kv.KV
	GetBatch(keys []uint64, vals []uint64, found []bool) ([]uint64, []bool)
	Len() int
}

// Done receives a submitted mutation's outcome: found for a delete, founds
// (the submitted slice, extended) for a batch delete, a non-nil err if it was
// not applied. It may run inside Submit or later, and must not block.
type Done = func(found bool, founds []bool, err error)

// Committer is a backend's submission surface and the node's only write
// path. The durable wal.Store adapter implements it, queueing each mutation
// for a group commit; NewNode wraps an in-memory index's synchronous
// mutators in inline. Mutations submitted from one goroutine apply in order,
// and slices passed in stay untouched until done runs.
type Committer interface {
	SubmitInsert(key, val uint64, done Done)
	SubmitDelete(key uint64, done Done)
	SubmitInsertBatch(keys, vals []uint64, done Done)
	SubmitDeleteBatch(keys []uint64, found []bool, done Done)
	// Barrier returns once every mutation submitted before it has been
	// applied or has failed.
	Barrier()
}

// writer is the synchronous mutation surface of an in-memory index.
type writer interface {
	Insert(key, value uint64)
	Delete(key uint64) bool
	InsertBatch(keys, vals []uint64) error
	DeleteBatch(keys []uint64, found []bool) ([]bool, error)
}

// inline is the Committer of an index without one: a mutation applies and
// completes before its Submit returns.
type inline struct{ w writer }

func (x inline) SubmitInsert(key, val uint64, done Done) {
	x.w.Insert(key, val)
	done(false, nil, nil)
}
func (x inline) SubmitDelete(key uint64, done Done) { done(x.w.Delete(key), nil, nil) }
func (x inline) SubmitInsertBatch(keys, vals []uint64, done Done) {
	done(false, nil, x.w.InsertBatch(keys, vals))
}
func (x inline) SubmitDeleteBatch(keys []uint64, found []bool, done Done) {
	found, err := x.w.DeleteBatch(keys, found)
	done(false, found, err)
}
func (inline) Barrier() {}

// waiter carries one synchronous node write through the Committer. Its done
// is bound once, so a recycled waiter makes a submit-and-wait allocation-free.
type waiter struct {
	wg     sync.WaitGroup
	done   Done
	found  bool
	founds []bool
	err    error
}

// waiters recycles waiters: a channel, not a sync.Pool, whose puts the race
// detector drops at random.
var waiters = make(chan *waiter, 64)

func newWaiter() *waiter {
	w := &waiter{}
	w.done = func(found bool, founds []bool, err error) {
		w.found, w.founds, w.err = found, founds, err
		w.wg.Done()
	}
	return w
}

// await runs submit with a recycled waiter's done and returns the outcome
// once done has run: every synchronous node write is one submission waited
// for here. A submit that panics abandons its waiter to the collector.
func await(submit func(done Done)) (found bool, founds []bool, err error) {
	var w *waiter
	select {
	case w = <-waiters:
	default:
		w = newWaiter()
	}
	w.wg.Add(1)
	submit(w.done)
	w.wg.Wait()
	found, founds, err = w.found, w.founds, w.err
	w.founds, w.err = nil, nil
	select {
	case waiters <- w:
	default:
	}
	return found, founds, err
}

// Peer is the slice of a remote shard server a handover drives: the
// import session on the new owner plus the double-write mirror. The
// production implementation adapts client.Client (cmd/dytis-server); tests
// substitute fakes. Implementations must be safe for concurrent use — the
// bulk-copy goroutine and mirroring writers overlap.
type Peer interface {
	ImportStart(lo, hi uint64) error
	// ImportResume reattaches to an existing import session for exactly
	// [lo, hi] (fresh=false, applied echoes its progress) or, when the
	// target lost it (restart), opens a new one (fresh=true).
	ImportResume(lo, hi uint64) (fresh bool, applied uint64, err error)
	ImportBatch(keys, vals []uint64) (applied uint64, err error)
	ImportEnd(commit bool) error
	Mirror(del bool, key, val uint64) error
	Close() error
}

// PeerDialer opens a Peer to the shard server at addr.
type PeerDialer func(addr string) (Peer, error)

// ErrWrongShard marks an operation on a key (or epoch) this node does not
// own; the server answers it as StatusWrongShard with the current map
// attached. Match with errors.Is.
var ErrWrongShard = errors.New("cluster: wrong shard")

// ErrHandoverSuspended marks an operation refused because the node's
// handover sits in HandoverFailed: it must be resumed (HandoverResume) or
// abandoned (HandoverAbort) before a new one can start. Match with
// errors.Is.
var ErrHandoverSuspended = errors.New("cluster: handover suspended")

// Handover states, as carried in HandoverStatus/ShardInfo responses.
const (
	HandoverNone    uint8 = iota // no handover has run
	HandoverCopying              // bulk copy in progress, mirroring on
	HandoverCopied               // bulk copy complete, mirroring on, safe to cut over
	HandoverFailed               // copy or mirror exhausted retries; suspended, resumable
	HandoverDone                 // cutover complete, range de-owned
)

func handoverStateName(s uint8) string {
	switch s {
	case HandoverNone:
		return "none"
	case HandoverCopying:
		return "copying"
	case HandoverCopied:
		return "copied"
	case HandoverFailed:
		return "failed"
	case HandoverDone:
		return "done"
	}
	return fmt.Sprintf("state(%d)", s)
}

// copyPage is the bulk-copy and scrub page size: big enough to amortize
// framing, small enough that one page never approaches frame limits.
const copyPage = 4096

// RetryPolicy bounds how hard a handover fights transient peer failures
// before suspending: each peer call (mirror, bulk page) is attempted up
// to Attempts times with jittered exponential backoff between tries.
type RetryPolicy struct {
	Attempts   int           // total tries per peer call; <=0 means the default (4)
	BackoffMin time.Duration // first backoff; <=0 means the default (2ms)
	BackoffMax time.Duration // backoff cap; <=0 means the default (250ms)
}

func (r RetryPolicy) normalized() RetryPolicy {
	if r.Attempts <= 0 {
		r.Attempts = 4
	}
	if r.BackoffMin <= 0 {
		r.BackoffMin = 2 * time.Millisecond
	}
	if r.BackoffMax <= 0 {
		r.BackoffMax = 250 * time.Millisecond
	}
	if r.BackoffMax < r.BackoffMin {
		r.BackoffMax = r.BackoffMin
	}
	return r
}

// HandoverEvents are optional hooks fired on handover robustness events;
// the server wires them to its metrics. Nil fields are skipped. Hooks may
// be called under node locks and must not block or call back into the
// Node.
type HandoverEvents struct {
	MirrorRetry func() // one mirror send is being retried
	Failed      func() // handover entered HandoverFailed (suspended)
	Resumed     func() // a suspended handover was resumed
}

// NodeConfig configures a Node.
type NodeConfig struct {
	Index Index
	// Lo, Hi is the initially owned range (inclusive). Lo > Hi means the
	// node starts owning nothing (a fresh node awaiting a handover).
	Lo, Hi uint64
	// Dial opens connections to handover targets. Required only on nodes
	// that originate handovers.
	Dial PeerDialer
	// Logf, when non-nil, receives one line per abnormal handover event.
	Logf func(format string, args ...any)
	// Retry bounds per-peer-call retries during a handover; zero fields
	// take defaults.
	Retry RetryPolicy
	// Events, when set, observes handover robustness transitions.
	Events HandoverEvents
}

// Node is the per-server cluster brain: it wraps the local index with
// ownership enforcement, holds the node's view of the shard map, and runs
// both sides of live shard handover.
//
// Locking: mu guards the routing state (range, epoch, map, handover and
// import-session pointers). hmu serializes everything that must see a
// frozen handover/import state end to end: moving-range writes (apply +
// synchronous mirror), import-session operations, handover transitions,
// and map installs. Lock order is hmu before mu; mu is never held across
// a network call, hmu is (that synchronous mirror under hmu is exactly
// what makes double-writes ordered and cutover lossless).
type Node struct {
	idx    Index     // read only: every write goes through be
	be     Committer // cfg.Index itself, or inline over its mutators
	dial   PeerDialer
	logf   func(format string, args ...any)
	retry  RetryPolicy
	events HandoverEvents

	hmu sync.Mutex // see above; acquired before mu

	scrubs sync.WaitGroup // background de-own scrubs spawned by SetMap

	mu     sync.RWMutex
	lo, hi uint64 // owned range; lo > hi = owns nothing
	epoch  uint64 // current map epoch; 0 until a map is installed
	blob   []byte // current encoded map; replaced wholesale, never mutated
	ho     *handover
	imp    *importSession
}

// handover is the source-side state machine of one range migration. It
// survives suspension: a failed run keeps the struct (watermark, counters,
// pending journal) so HandoverResume can continue instead of recopying.
type handover struct {
	lo, hi uint64
	addr   string

	// peer and stop are per-run: replaced together on resume. Both are
	// guarded by the node's mu; a copy goroutine holds the pair it was
	// started with and checks identity (ho.stop == stop) before recording
	// progress, so a superseded run can never corrupt the live one.
	peer Peer
	stop chan struct{} // closed on suspend/abort to end the run

	state     uint8 // guarded by the node's mu
	failCause error // guarded by the node's mu; last suspension cause

	copied    atomic.Uint64 // pairs accepted by the target's bulk import
	mirrored  atomic.Uint64 // double-writes acked by the target
	retries   atomic.Uint64 // peer-call retries (mirror + bulk) across runs
	resumes   atomic.Uint64 // successful HandoverResume calls
	watermark atomic.Uint64 // next bulk-copy key; resume restarts here
	copyDone  atomic.Bool   // bulk copy finished (mirroring may continue)

	// pending journals moving-range writes applied locally while the
	// handover is suspended (plus the write whose mirror exhausted
	// retries). Last-write-wins per key; replayed as mirrors — which
	// overwrite and maintain tombstones — before a resume goes live.
	// Guarded by the node's hmu.
	pending map[uint64]mirrorOp
}

type mirrorOp struct {
	del bool
	val uint64
}

func (h *handover) covers(key uint64) bool { return key >= h.lo && key <= h.hi }

// addPending journals one suspended-window write. Callers hold hmu.
func (h *handover) addPending(del bool, key, val uint64) {
	if h.pending == nil {
		h.pending = make(map[uint64]mirrorOp)
	}
	h.pending[key] = mirrorOp{del: del, val: val}
}

// importSession is the target side of a handover: bulk pages apply
// insert-if-absent, and tombstones remember mirrored deletes so a late
// bulk page cannot resurrect a key deleted during the copy.
type importSession struct {
	lo, hi  uint64
	applied uint64
	tombs   map[uint64]struct{}
}

// NewNode builds a node owning [cfg.Lo, cfg.Hi]. The node writes through
// cfg.Index's Committer, or else through inline over its synchronous
// Insert/Delete/InsertBatch/DeleteBatch; an index with neither is refused.
func NewNode(cfg NodeConfig) (*Node, error) {
	n := &Node{
		idx: cfg.Index, dial: cfg.Dial, logf: cfg.Logf,
		retry: cfg.Retry.normalized(), events: cfg.Events,
		lo: cfg.Lo, hi: cfg.Hi,
	}
	switch x := cfg.Index.(type) {
	case Committer:
		n.be = x
	case writer:
		n.be = inline{x}
	default: // nil included
		return nil, fmt.Errorf("cluster: NodeConfig.Index (%T) can neither submit nor apply writes", x)
	}
	return n, nil
}

// retryPeer runs op up to the retry budget with jittered exponential
// backoff, aborting early (with the last error) once stop closes. mirror
// marks the retries that feed the mirror-retry event hook.
func (n *Node) retryPeer(ho *handover, stop chan struct{}, mirror bool, op func() error) error {
	backoff := n.retry.BackoffMin
	var err error
	for attempt := 0; attempt < n.retry.Attempts; attempt++ {
		if attempt > 0 {
			ho.retries.Add(1)
			if mirror && n.events.MirrorRetry != nil {
				n.events.MirrorRetry()
			}
			d := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
			select {
			case <-stop:
				return err
			case <-time.After(d):
			}
			if backoff *= 2; backoff > n.retry.BackoffMax {
				backoff = n.retry.BackoffMax
			}
		}
		if err = op(); err == nil {
			return nil
		}
	}
	return err
}

func (n *Node) logErr(format string, args ...any) {
	if n.logf != nil {
		n.logf(format, args...)
	}
}

// ownsLocked reports whether key is in the owned range. Callers hold mu.
func (n *Node) ownsLocked(key uint64) bool { return key >= n.lo && key <= n.hi }

func (n *Node) wrongShardLocked(key uint64) error {
	return fmt.Errorf("%w: key %#x outside owned [%#x, %#x] at epoch %d", ErrWrongShard, key, n.lo, n.hi, n.epoch)
}

// --- data path --------------------------------------------------------------

// Get serves a point read, held under mu so a concurrent cutover's scrub
// cannot interleave and serve a half-removed key.
func (n *Node) Get(key uint64) (uint64, bool, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if !n.ownsLocked(key) {
		return 0, false, n.wrongShardLocked(key)
	}
	v, ok := n.idx.Get(key)
	return v, ok, nil
}

// Insert is SubmitInsert waited for: it returns once the write has applied
// (and, in a live handover's moving range, has been mirrored) or has failed.
func (n *Node) Insert(key, val uint64) error {
	_, _, err := await(func(done Done) { n.SubmitInsert(key, val, done) })
	return err
}

// Delete is SubmitDelete waited for.
func (n *Node) Delete(key uint64) (bool, error) {
	found, _, err := await(func(done Done) { n.SubmitDelete(key, done) })
	return found, err
}

// applyOwned is the write fast path: it checks keys under mu and, when every
// one is owned and none is inside a live handover's moving range, runs apply
// still holding mu. Holding mu across the apply pins the ownership check:
// SetMap (which takes mu exclusively) cannot de-own and scrub between check
// and write, so an acked write can never land in a range another node now
// owns. mirror reports that some key is moving; nothing was applied and the
// caller takes mirroredWrite. The unlock is deferred because apply may
// panic (an in-memory index's mutator can): a read lock left held would
// wedge the next SetMap, and every reader queued behind it.
func (n *Node) applyOwned(apply func(), keys ...uint64) (mirror bool, err error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	for _, k := range keys {
		if !n.ownsLocked(k) {
			return false, n.wrongShardLocked(k)
		}
		if ho := n.ho; ho != nil && ho.covers(k) && ho.state != HandoverDone {
			mirror = true
		}
	}
	if !mirror {
		apply()
	}
	return mirror, nil
}

// mirroredWrite is the moving-range slow path: a write applied locally as
// one submission, waited for, then mirrored to the handover target key by
// key in apply order before it is acknowledged. hmu serializes these end to
// end, so mirrors arrive at the target in apply order — concurrent same-key
// writes cannot invert on the wire. While the handover is suspended a key is
// journaled instead of mirrored; the journal replays (as mirrors, which
// overwrite and maintain tombstones) before a resume goes live, so acked
// suspended-window writes still reach the target before any cutover. A
// failed local apply returns its error and is neither mirrored nor
// journaled. A delete passes nil vals and gets found extended.
func (n *Node) mirroredWrite(del bool, keys, vals []uint64, found []bool) ([]bool, error) {
	n.hmu.Lock()
	defer n.hmu.Unlock()
	n.mu.RLock()
	for _, k := range keys {
		if !n.ownsLocked(k) {
			err := n.wrongShardLocked(k)
			n.mu.RUnlock()
			return found, err
		}
	}
	ho, state := n.ho, hoState(n.ho)
	var peer Peer
	var stop chan struct{}
	if ho != nil {
		peer, stop = ho.peer, ho.stop
	}
	n.mu.RUnlock()
	_, founds, err := await(func(done Done) {
		if del {
			n.be.SubmitDeleteBatch(keys, found, done)
		} else {
			n.be.SubmitInsertBatch(keys, vals, done)
		}
	})
	if err != nil {
		return founds, err
	}
	for i, key := range keys {
		if ho == nil || !ho.covers(key) {
			continue
		}
		var val uint64
		if !del {
			val = vals[i]
		}
		if state == HandoverCopying || state == HandoverCopied {
			err := n.retryPeer(ho, stop, true, func() error { return peer.Mirror(del, key, val) })
			if err == nil {
				ho.mirrored.Add(1)
				continue
			}
			// The local apply stands and the write is still acknowledged:
			// suspending the handover here guarantees this map can never cut
			// the range over (SetMap refuses to de-own anything not covered by
			// a Copied handover), and the journal carries this key and the
			// rest of the batch into the eventual resume — either way none
			// can be lost.
			n.suspendHandoverLocked(ho, fmt.Errorf("mirror to %s: %w", ho.addr, err))
			state = HandoverFailed
		}
		if state == HandoverFailed {
			ho.addPending(del, key, val)
		}
	}
	return founds, nil
}

// Scan serves one clipped page of the owned range starting at start. done
// reports that the owned range is exhausted. epoch, when nonzero, must
// match the node's current map epoch — a streaming scan spans many pages,
// and a cutover between pages would otherwise silently truncate it.
func (n *Node) Scan(epoch, start uint64, max int, dst []kv.KV) (_ []kv.KV, done bool, _ error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if epoch != 0 && n.epoch != 0 && epoch != n.epoch {
		return dst[:0], false, fmt.Errorf("%w: scan epoch %d, node at %d", ErrWrongShard, epoch, n.epoch)
	}
	if n.lo > n.hi || start > n.hi {
		return dst[:0], true, nil
	}
	if start < n.lo {
		start = n.lo
	}
	dst = n.idx.Scan(start, max, dst[:0])
	for i, p := range dst {
		if p.Key > n.hi {
			dst = dst[:i]
			break
		}
	}
	done = len(dst) < max || (len(dst) > 0 && dst[len(dst)-1].Key >= n.hi)
	return dst, done, nil
}

// GetBatch serves a batched read; every key must be owned (the routing
// client splits batches per shard, so a stray key means a stale map and
// the whole batch redirects).
func (n *Node) GetBatch(keys []uint64, vals []uint64, found []bool) ([]uint64, []bool, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	for _, k := range keys {
		if !n.ownsLocked(k) {
			return vals, found, n.wrongShardLocked(k)
		}
	}
	vals, found = n.idx.GetBatch(keys, vals, found)
	return vals, found, nil
}

// SubmitInsert submits one insert to the backend behind the ownership check
// (applyOwned; StartHandover's barrier keeps it pinned until the insert
// applies). A moving key takes mirroredWrite and an unowned one completes
// with ErrWrongShard, both before SubmitInsert returns.
func (n *Node) SubmitInsert(key, val uint64, done Done) {
	mirror, err := n.applyOwned(func() { n.be.SubmitInsert(key, val, done) }, key)
	if mirror {
		_, err = n.mirroredWrite(false, []uint64{key}, []uint64{val}, nil)
	}
	if mirror || err != nil {
		done(false, nil, err)
	}
}

// SubmitDelete is SubmitInsert for a delete.
func (n *Node) SubmitDelete(key uint64, done Done) {
	mirror, err := n.applyOwned(func() { n.be.SubmitDelete(key, done) }, key)
	var founds []bool
	if mirror {
		founds, err = n.mirroredWrite(true, []uint64{key}, nil, nil)
	}
	if mirror || err != nil {
		done(len(founds) > 0 && founds[0], nil, err)
	}
}

// SubmitInsertBatch is SubmitInsert for a batch: one stray key redirects it
// all, and one that touches a moving range sends it all to mirroredWrite.
func (n *Node) SubmitInsertBatch(keys, vals []uint64, done Done) {
	mirror, err := n.applyOwned(func() { n.be.SubmitInsertBatch(keys, vals, done) }, keys...)
	if mirror {
		_, err = n.mirroredWrite(false, keys, vals, nil)
	}
	if mirror || err != nil {
		done(false, nil, err)
	}
}

// SubmitDeleteBatch is SubmitInsertBatch for a batch delete.
func (n *Node) SubmitDeleteBatch(keys []uint64, found []bool, done Done) {
	mirror, err := n.applyOwned(func() { n.be.SubmitDeleteBatch(keys, found, done) }, keys...)
	if mirror {
		found, err = n.mirroredWrite(true, keys, nil, found)
	}
	if mirror || err != nil {
		done(false, found, err)
	}
}

// --- map management ---------------------------------------------------------

// Info returns the owned range, map epoch, and handover state.
func (n *Node) Info() (lo, hi, epoch uint64, state uint8) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	state = HandoverNone
	if n.ho != nil {
		state = n.ho.state
	}
	return n.lo, n.hi, n.epoch, state
}

// MapBlob returns the node's current encoded map (nil before any map is
// installed). The slice is never mutated after install, so callers may
// retain it.
func (n *Node) MapBlob() []byte {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.blob
}

// SetMap installs an encoded shard map and adjusts the owned range to
// [selfLo, selfHi] (selfLo > selfHi = owns nothing). The epoch must move
// strictly forward (re-installing the identical blob is an idempotent
// no-op). De-owning any key is only permitted when a handover in state
// HandoverCopied covers the de-owned region — that is the cutover, which
// this call finalizes: the import session commits on the target, the
// peer closes, and the de-owned region is scrubbed from the local index.
func (n *Node) SetMap(selfLo, selfHi uint64, blob []byte) error {
	m, err := DecodeMap(blob)
	if err != nil {
		return err
	}
	if selfLo <= selfHi {
		// The declared self range must be exactly one shard of the map:
		// ownership and routing must agree or every client would loop.
		ok := false
		for _, s := range m.Shards {
			if s.Lo == selfLo && s.Hi == selfHi {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("cluster: self range [%#x, %#x] is not a shard of the map", selfLo, selfHi)
		}
	}
	n.hmu.Lock()
	defer n.hmu.Unlock()
	n.mu.Lock()
	if m.Epoch < n.epoch {
		cur := n.epoch
		n.mu.Unlock()
		return fmt.Errorf("cluster: map epoch %d older than current %d", m.Epoch, cur)
	}
	if m.Epoch == n.epoch && n.epoch != 0 {
		same := string(blob) == string(n.blob) && selfLo == n.lo && selfHi == n.hi
		n.mu.Unlock()
		if same {
			return nil
		}
		return fmt.Errorf("cluster: conflicting map at same epoch %d", m.Epoch)
	}
	deowned := subtractRange(n.lo, n.hi, selfLo, selfHi)
	var finalize *handover
	if len(deowned) > 0 {
		ho := n.ho
		for _, r := range deowned {
			if ho == nil || ho.state != HandoverCopied || r.lo < ho.lo || r.hi > ho.hi {
				n.mu.Unlock()
				return fmt.Errorf("cluster: map de-owns [%#x, %#x] with no completed handover covering it (state %s)",
					r.lo, r.hi, handoverStateName(hoState(ho)))
			}
		}
		n.mu.Unlock()
		// Probe the target before surrendering ownership: a target that
		// crashed after the copy finished holds none of the moved data, and
		// de-owning against it would scrub the only live copy. ImportResume
		// is read-only when the session is intact; a fresh answer (or no
		// answer) suspends the handover instead — resumable, never lossy.
		// hmu is held throughout, so the handover cannot change underneath
		// the probe.
		fresh, _, perr := ho.peer.ImportResume(ho.lo, ho.hi)
		if perr != nil {
			n.suspendHandoverLocked(ho, fmt.Errorf("cutover probe to %s: %w", ho.addr, perr))
			return fmt.Errorf("cluster: refusing de-own of [%#x, %#x]: target %s unreachable at cutover (handover suspended): %w",
				ho.lo, ho.hi, ho.addr, perr)
		}
		if fresh {
			// The target restarted between copy and cutover: its data and
			// session are gone (the probe opened an empty one). Reset the
			// copy progress so the resume recopies everything.
			ho.watermark.Store(ho.lo)
			ho.copied.Store(0)
			ho.copyDone.Store(false)
			n.mu.Lock()
			ho.pending = nil
			n.mu.Unlock()
			n.suspendHandoverLocked(ho, fmt.Errorf("target %s restarted before cutover; import session lost", ho.addr))
			return fmt.Errorf("cluster: refusing de-own of [%#x, %#x]: target %s restarted before cutover (handover suspended for recopy)",
				ho.lo, ho.hi, ho.addr)
		}
		n.mu.Lock()
		if n.ho != ho || ho.state != HandoverCopied {
			st := hoState(n.ho)
			n.mu.Unlock()
			return fmt.Errorf("cluster: handover changed during cutover probe (state %s)", handoverStateName(st))
		}
		ho.state = HandoverDone
		finalize = ho
	}
	// A session for a range the new map gives us commits implicitly: the
	// source finalizes with an explicit ImportEnd too, but adopting here
	// makes the cutover robust to the source dying right after our install.
	if imp := n.imp; imp != nil && selfLo <= selfHi && imp.lo >= selfLo && imp.hi <= selfHi {
		n.imp = nil
	}
	n.lo, n.hi, n.epoch, n.blob = selfLo, selfHi, m.Epoch, blob
	n.mu.Unlock()

	if finalize != nil {
		n.endImport(finalize.peer, finalize.addr, true)
	}
	// Scrub de-owned keys off the response path: the region already answers
	// WrongShard, and the caller is mid-cutover — it cannot install the map
	// on the new owner until we respond, so the fail-closed routing window
	// must not scale with the number of moved keys. The goroutine re-takes
	// hmu (serializing against handover machinery) and skips anything this
	// node has re-owned or started re-importing in the meantime. A failed
	// page delete (a poisoned durable store) is logged and ends the scrub.
	if len(deowned) > 0 {
		n.scrubs.Add(1)
		go func() {
			defer n.scrubs.Done()
			n.hmu.Lock()
			defer n.hmu.Unlock()
			for _, r := range deowned {
				n.mu.RLock()
				stale := subtractRange(r.lo, r.hi, n.lo, n.hi)
				if imp := n.imp; imp != nil {
					var kept []keyRange
					for _, s := range stale {
						kept = append(kept, subtractRange(s.lo, s.hi, imp.lo, imp.hi)...)
					}
					stale = kept
				}
				n.mu.RUnlock()
				for _, s := range stale {
					if err := n.scrub(s.lo, s.hi); err != nil {
						n.logErr("cluster: scrubbing de-owned [%#x, %#x]: %v", s.lo, s.hi, err)
						return
					}
				}
			}
		}()
	}
	return nil
}

func hoState(ho *handover) uint8 {
	if ho == nil {
		return HandoverNone
	}
	return ho.state
}

type keyRange struct{ lo, hi uint64 }

// subtractRange returns old minus new as up to two inclusive ranges.
// An empty old (lo > hi) yields nothing; an empty new de-owns all of old.
func subtractRange(oldLo, oldHi, newLo, newHi uint64) []keyRange {
	if oldLo > oldHi {
		return nil
	}
	if newLo > newHi {
		return []keyRange{{oldLo, oldHi}}
	}
	var out []keyRange
	if newLo > oldLo {
		hi := oldHi
		if newLo-1 < hi {
			hi = newLo - 1
		}
		out = append(out, keyRange{oldLo, hi})
	}
	if newHi < oldHi {
		lo := oldLo
		if newHi+1 > lo {
			lo = newHi + 1
		}
		out = append(out, keyRange{lo, oldHi})
	}
	return out
}

// scrub deletes every key in [lo, hi] from the local index, one batch
// delete per Scan page, and stops at the first that fails. Called under hmu
// with the region not owned.
func (n *Node) scrub(lo, hi uint64) error {
	buf := make([]kv.KV, 0, copyPage)
	keys := make([]uint64, 0, copyPage)
	for next := lo; ; next = buf[len(buf)-1].Key + 1 {
		buf = n.idx.Scan(next, copyPage, buf[:0])
		keys = keys[:0]
		for _, p := range buf {
			if p.Key > hi {
				break
			}
			keys = append(keys, p.Key)
		}
		if len(keys) > 0 {
			if _, _, err := await(func(done Done) { n.be.SubmitDeleteBatch(keys, nil, done) }); err != nil {
				return err
			}
		}
		if len(keys) < copyPage || keys[len(keys)-1] >= hi {
			return nil
		}
	}
}

// --- handover: source side --------------------------------------------------

// StartHandover begins migrating the owned subrange [lo, hi] to the shard
// server at addr: it opens an import session there, starts mirroring
// moving-range writes, and kicks off the bulk copy. Progress is polled
// with HandoverStatus; cutover happens when a new map de-owns the range
// (SetMap).
func (n *Node) StartHandover(lo, hi uint64, addr string) error {
	if lo > hi {
		return fmt.Errorf("cluster: handover range inverted [%#x, %#x]", lo, hi)
	}
	if n.dial == nil {
		return errors.New("cluster: node has no peer dialer")
	}
	n.mu.RLock()
	err := n.checkHandoverLocked(lo, hi)
	n.mu.RUnlock()
	if err != nil {
		return err
	}
	peer, err := n.dial(addr)
	if err != nil {
		return fmt.Errorf("cluster: dialing handover target %s: %w", addr, err)
	}
	if err := peer.ImportStart(lo, hi); err != nil {
		peer.Close()
		return fmt.Errorf("cluster: opening import session on %s: %w", addr, err)
	}
	ho := &handover{lo: lo, hi: hi, addr: addr, peer: peer, state: HandoverCopying, stop: make(chan struct{})}
	ho.watermark.Store(lo)
	n.hmu.Lock()
	n.mu.Lock()
	// Re-check under the lock: a map install may have raced the dial.
	if err := n.checkHandoverLocked(lo, hi); err != nil {
		n.mu.Unlock()
		n.hmu.Unlock()
		peer.ImportEnd(false)
		peer.Close()
		return err
	}
	n.ho = ho
	n.mu.Unlock()
	n.hmu.Unlock()
	// Every later write to [lo, hi] is mirrored, but one submitted before
	// n.ho was set may still be queued in the backend: wait it out so the
	// bulk copy reads it (DESIGN §11).
	n.be.Barrier()
	go n.runCopy(ho, peer, ho.stop)
	return nil
}

// checkHandoverLocked validates that [lo, hi] is fully owned and no
// handover is live or suspended. Callers hold mu.
func (n *Node) checkHandoverLocked(lo, hi uint64) error {
	if !n.ownsLocked(lo) || !n.ownsLocked(hi) {
		return fmt.Errorf("cluster: handover range [%#x, %#x] not fully owned ([%#x, %#x])", lo, hi, n.lo, n.hi)
	}
	switch ho := n.ho; {
	case ho == nil:
	case ho.state == HandoverCopying || ho.state == HandoverCopied:
		return fmt.Errorf("cluster: handover of [%#x, %#x] already %s", ho.lo, ho.hi, handoverStateName(ho.state))
	case ho.state == HandoverFailed:
		return fmt.Errorf("%w: [%#x, %#x] to %s — resume or abort it first", ErrHandoverSuspended, ho.lo, ho.hi, ho.addr)
	}
	return nil
}

// HandoverInfo is a snapshot of the live (or last) handover's progress.
type HandoverInfo struct {
	State     uint8
	Lo, Hi    uint64 // moving range; zero unless a handover exists
	Target    string // target server address
	Copied    uint64 // pairs accepted by the target's bulk import
	Mirrored  uint64 // double-writes acked by the target
	Retries   uint64 // peer-call retries across all runs
	Resumes   uint64 // successful resumes
	Watermark uint64 // next bulk-copy key (resume restarts here)
	Cause     error  // last suspension cause; nil unless State is HandoverFailed
}

// HandoverStatus reports the live (or last) handover's progress.
func (n *Node) HandoverStatus() HandoverInfo {
	n.mu.RLock()
	defer n.mu.RUnlock()
	ho := n.ho
	if ho == nil {
		return HandoverInfo{State: HandoverNone}
	}
	return HandoverInfo{
		State:     ho.state,
		Lo:        ho.lo,
		Hi:        ho.hi,
		Target:    ho.addr,
		Copied:    ho.copied.Load(),
		Mirrored:  ho.mirrored.Load(),
		Retries:   ho.retries.Load(),
		Resumes:   ho.resumes.Load(),
		Watermark: ho.watermark.Load(),
		Cause:     ho.failCause,
	}
}

// currentRun reports whether stop is still ho's live run. Callers hold mu
// (any mode); resume swaps ho.stop under mu exclusively, so a positive
// answer pins the run for the duration of the lock.
func (h *handover) currentRun(stop chan struct{}) bool { return h.stop == stop }

// runCopy is the bulk-copy goroutine: it pages the moving range out of the
// local index and streams it to the target's import session, advancing the
// watermark after every accepted page so a later resume can continue
// instead of recopying. Writes that land mid-copy are covered by the
// mirror, and the target's insert-if-absent + tombstones make copy/mirror
// interleavings converge (see importSession). peer and stop are the run's
// own pair: after a resume supersedes this run, progress recording is
// skipped (currentRun) and the next stop check exits.
func (n *Node) runCopy(ho *handover, peer Peer, stop chan struct{}) {
	buf := make([]kv.KV, 0, copyPage)
	keys := make([]uint64, 0, copyPage)
	vals := make([]uint64, 0, copyPage)
	next := ho.watermark.Load()
	for {
		select {
		case <-stop:
			return
		default:
		}
		buf = n.idx.Scan(next, copyPage, buf[:0])
		keys, vals = keys[:0], vals[:0]
		for _, p := range buf {
			if p.Key > ho.hi {
				break
			}
			keys = append(keys, p.Key)
			vals = append(vals, p.Value)
		}
		if len(keys) > 0 {
			err := n.retryPeer(ho, stop, false, func() error {
				_, e := peer.ImportBatch(keys, vals)
				return e
			})
			if err != nil {
				n.hmu.Lock()
				n.suspendHandoverLocked(ho, fmt.Errorf("bulk copy to %s: %w", ho.addr, err))
				n.hmu.Unlock()
				return
			}
		}
		done := len(buf) < copyPage
		last := next
		if len(buf) > 0 {
			last = buf[len(buf)-1].Key
		}
		if !done && (last >= ho.hi || last == ^uint64(0)) {
			done = true
		}
		// Record progress only while this run is current: a stale run's page
		// may still land (idempotently) on the target, but it must not move
		// the watermark of a fresh-restarted copy.
		n.mu.RLock()
		if ho.currentRun(stop) {
			ho.copied.Add(uint64(len(keys)))
			if !done {
				ho.watermark.Store(last + 1)
			} else {
				ho.watermark.Store(last)
				ho.copyDone.Store(true)
			}
		}
		n.mu.RUnlock()
		if done {
			break
		}
		next = last + 1
	}
	n.hmu.Lock()
	n.mu.Lock()
	if n.ho == ho && ho.currentRun(stop) && ho.state == HandoverCopying {
		ho.state = HandoverCopied
	}
	n.mu.Unlock()
	n.hmu.Unlock()
}

// suspendHandoverLocked marks ho failed-but-resumable: the run stops and
// the peer connection closes, but — unlike an abort — the target's import
// session is left alive so HandoverResume can reattach and continue from
// the watermark. Callers hold hmu.
func (n *Node) suspendHandoverLocked(ho *handover, cause error) {
	n.mu.Lock()
	if ho.state != HandoverCopying && ho.state != HandoverCopied {
		n.mu.Unlock()
		return
	}
	ho.state = HandoverFailed
	ho.failCause = cause
	close(ho.stop)
	peer := ho.peer
	n.mu.Unlock()
	n.logErr("cluster: handover of [%#x, %#x] suspended: %v", ho.lo, ho.hi, cause)
	if n.events.Failed != nil {
		n.events.Failed()
	}
	if err := peer.Close(); err != nil {
		n.logErr("cluster: closing peer %s: %v", ho.addr, err)
	}
}

// HandoverResume restarts a suspended handover: it redials the target,
// reattaches to (or, after a target restart, recreates) the import
// session, replays the journal of suspended-window writes, and continues
// the bulk copy from the watermark — or goes straight back to
// HandoverCopied when the copy had already finished.
func (n *Node) HandoverResume() error {
	if n.dial == nil {
		return errors.New("cluster: node has no peer dialer")
	}
	n.mu.RLock()
	ho := n.ho
	var state uint8
	if ho != nil {
		state = ho.state
	}
	n.mu.RUnlock()
	if ho == nil {
		return errors.New("cluster: no handover to resume")
	}
	if state != HandoverFailed {
		return fmt.Errorf("cluster: handover is %s; only a suspended handover resumes", handoverStateName(state))
	}
	peer, err := n.dial(ho.addr)
	if err != nil {
		return fmt.Errorf("cluster: redialing handover target %s: %w", ho.addr, err)
	}
	fresh, _, err := peer.ImportResume(ho.lo, ho.hi)
	if err != nil {
		peer.Close()
		return fmt.Errorf("cluster: reattaching import session on %s: %w", ho.addr, err)
	}
	stop := make(chan struct{})
	n.hmu.Lock()
	n.mu.Lock()
	if n.ho != ho || ho.state != HandoverFailed {
		n.mu.Unlock()
		n.hmu.Unlock()
		peer.Close()
		return errors.New("cluster: handover changed during resume")
	}
	ho.peer, ho.stop, ho.failCause = peer, stop, nil
	if fresh {
		// The target lost the session (restart): it starts empty, so the
		// journal is subsumed by a full recopy of current local state.
		ho.watermark.Store(ho.lo)
		ho.copied.Store(0)
		ho.copyDone.Store(false)
		ho.pending = nil
	}
	n.mu.Unlock()
	// Replay the suspended-window journal under hmu (writers queue behind
	// it): mirrors overwrite and maintain tombstones, so replay before the
	// bulk copy resumes makes the target converge to every acked write.
	for k, op := range ho.pending {
		err := n.retryPeer(ho, stop, true, func() error { return peer.Mirror(op.del, k, op.val) })
		if err != nil {
			n.mu.Lock()
			ho.state = HandoverCopying // let suspend see a live run
			n.mu.Unlock()
			n.suspendHandoverLocked(ho, fmt.Errorf("replaying journal to %s: %w", ho.addr, err))
			n.hmu.Unlock()
			return fmt.Errorf("cluster: resume of [%#x, %#x] failed replaying journal: %w", ho.lo, ho.hi, err)
		}
		delete(ho.pending, k)
		ho.mirrored.Add(1)
	}
	copyDone := ho.copyDone.Load()
	n.mu.Lock()
	if copyDone {
		ho.state = HandoverCopied
	} else {
		ho.state = HandoverCopying
	}
	ho.resumes.Add(1)
	n.mu.Unlock()
	n.hmu.Unlock()
	if n.events.Resumed != nil {
		n.events.Resumed()
	}
	if !copyDone {
		go n.runCopy(ho, peer, stop)
	}
	n.logErr("cluster: handover of [%#x, %#x] resumed (fresh=%v, watermark %#x)", ho.lo, ho.hi, fresh, ho.watermark.Load())
	return nil
}

// HandoverAbort abandons the node's handover entirely: the run stops, the
// target is told (best effort) to scrub its partial import, and the
// node's handover slot clears so a new StartHandover can begin.
func (n *Node) HandoverAbort() error {
	n.hmu.Lock()
	defer n.hmu.Unlock()
	n.mu.Lock()
	ho := n.ho
	if ho == nil {
		n.mu.Unlock()
		return errors.New("cluster: no handover to abort")
	}
	if ho.state == HandoverDone {
		n.mu.Unlock()
		return errors.New("cluster: handover already completed; nothing to abort")
	}
	live := ho.state == HandoverCopying || ho.state == HandoverCopied
	if live {
		close(ho.stop)
	}
	ho.state = HandoverFailed
	peer := ho.peer
	n.ho = nil
	n.mu.Unlock()
	n.logErr("cluster: handover of [%#x, %#x] aborted", ho.lo, ho.hi)
	if live {
		n.endImport(peer, ho.addr, false)
		return nil
	}
	// Suspended: the old peer is already closed. Redial (best effort) so
	// the target scrubs the orphaned session instead of blocking future
	// imports.
	if n.dial != nil {
		if p, err := n.dial(ho.addr); err == nil {
			n.endImport(p, ho.addr, false)
		} else {
			n.logErr("cluster: abort could not reach %s to scrub its import: %v", ho.addr, err)
		}
	}
	return nil
}

// Close stops any running copy and tears down the handover peer,
// aborting the target's import session — a closing node cannot resume.
func (n *Node) Close() error {
	// Drain background de-own scrubs first (they take hmu themselves), so
	// nothing touches the index after Close returns.
	n.scrubs.Wait()
	n.hmu.Lock()
	defer n.hmu.Unlock()
	n.mu.Lock()
	ho := n.ho
	live := ho != nil && (ho.state == HandoverCopying || ho.state == HandoverCopied)
	if live {
		ho.state = HandoverFailed
		ho.failCause = errors.New("node closing")
		close(ho.stop)
	}
	n.mu.Unlock()
	if live {
		n.logErr("cluster: handover of [%#x, %#x] failed: node closing", ho.lo, ho.hi)
		n.endImport(ho.peer, ho.addr, false)
	}
	return nil
}

// endImport ends the target's import session at addr — commit keeps the
// imported range, abort scrubs it — and closes the peer, logging failures.
func (n *Node) endImport(peer Peer, addr string, commit bool) {
	if err := peer.ImportEnd(commit); err != nil {
		n.logErr("cluster: import-end (commit=%v) to %s: %v", commit, addr, err)
	}
	if err := peer.Close(); err != nil {
		n.logErr("cluster: closing peer %s: %v", addr, err)
	}
}

// --- handover: target side --------------------------------------------------

// ImportStart opens an import session for [lo, hi], which must be disjoint
// from the owned range (a handover moves keys this node does not have).
func (n *Node) ImportStart(lo, hi uint64) error {
	fresh, _, err := n.ImportResume(lo, hi)
	if err == nil && !fresh {
		err = fmt.Errorf("cluster: import of [%#x, %#x] already in progress", lo, hi)
	}
	return err
}

// ImportResume reattaches a handover source to this node's import
// session after the peer link dropped. A session for exactly [lo, hi]
// answers fresh=false with its progress; no session at all (this node
// restarted and lost it) opens a new one and answers fresh=true, telling
// the source to recopy from the start. A session for a different range is
// an error.
//
// A fresh session opens over a clean range: [lo, hi] is scrubbed from the
// local index first, and a failed scrub fails the open. Keys left there —
// by a de-own scrub cut short, or kept across a restart mid-import — are
// unowned and stale, and under ImportBatch's insert-if-absent they would
// win over the copied values.
func (n *Node) ImportResume(lo, hi uint64) (fresh bool, applied uint64, err error) {
	if lo > hi {
		return false, 0, fmt.Errorf("cluster: import range inverted [%#x, %#x]", lo, hi)
	}
	// hmu is held throughout: every writer of the session and of the owned
	// range holds it, so the checks below still hold after the scrub.
	n.hmu.Lock()
	defer n.hmu.Unlock()
	n.mu.RLock()
	imp, owned := n.imp, n.lo <= n.hi && lo <= n.hi && hi >= n.lo
	n.mu.RUnlock()
	if imp != nil {
		if imp.lo == lo && imp.hi == hi {
			return false, imp.applied, nil
		}
		return false, 0, fmt.Errorf("cluster: import of [%#x, %#x] already in progress", imp.lo, imp.hi)
	}
	if owned {
		return false, 0, fmt.Errorf("cluster: import range [%#x, %#x] overlaps owned [%#x, %#x]", lo, hi, n.lo, n.hi)
	}
	if err := n.scrub(lo, hi); err != nil {
		return false, 0, fmt.Errorf("cluster: clearing import range [%#x, %#x]: %w", lo, hi, err)
	}
	n.mu.Lock()
	n.imp = &importSession{lo: lo, hi: hi, tombs: make(map[uint64]struct{})}
	n.mu.Unlock()
	return true, 0, nil
}

// ImportBatch applies one bulk page: insert-if-absent, skipping
// tombstoned keys, so pages racing mirrored writes can never clobber a
// newer value or resurrect a deleted key. The page is checked whole before
// any index work, and the keys that pass the filters apply as one batch.
func (n *Node) ImportBatch(keys, vals []uint64) (uint64, error) {
	if len(keys) != len(vals) {
		return 0, fmt.Errorf("cluster: import batch keys/vals length mismatch (%d vs %d)", len(keys), len(vals))
	}
	n.hmu.Lock()
	defer n.hmu.Unlock()
	n.mu.RLock()
	imp := n.imp
	n.mu.RUnlock()
	if imp == nil {
		return 0, errors.New("cluster: no import session")
	}
	ks, vs := make([]uint64, 0, len(keys)), make([]uint64, 0, len(keys))
	for i, k := range keys {
		if k < imp.lo || k > imp.hi {
			return 0, fmt.Errorf("cluster: import key %#x outside session [%#x, %#x]", k, imp.lo, imp.hi)
		}
		_, dead := imp.tombs[k]
		if _, ok := n.idx.Get(k); !dead && !ok {
			ks, vs = append(ks, k), append(vs, vals[i])
		}
	}
	if _, _, err := await(func(done Done) { n.be.SubmitInsertBatch(ks, vs, done) }); err != nil {
		return 0, err
	}
	imp.applied += uint64(len(ks))
	return uint64(len(ks)), nil
}

// ImportEnd closes the import session. commit keeps the imported data
// (the range is about to be owned via SetMap); abort scrubs it. A missing
// session is a no-op: SetMap may already have adopted it.
func (n *Node) ImportEnd(commit bool) error {
	n.hmu.Lock()
	defer n.hmu.Unlock()
	n.mu.Lock()
	imp := n.imp
	n.imp = nil
	n.mu.Unlock()
	if imp == nil || commit {
		return nil
	}
	return n.scrub(imp.lo, imp.hi)
}

// MirrorApply applies one double-written op from a handover source: into
// the import session when one covers the key (maintaining tombstones), or
// directly when this node already owns the key (a mirror that raced the
// cutover). Anything else is a protocol error.
func (n *Node) MirrorApply(del bool, key, val uint64) error {
	n.hmu.Lock()
	defer n.hmu.Unlock()
	n.mu.RLock()
	imp := n.imp
	owned := n.ownsLocked(key)
	n.mu.RUnlock()
	importing := imp != nil && key >= imp.lo && key <= imp.hi
	if !importing && !owned {
		return fmt.Errorf("%w: mirrored key %#x has no import session and is not owned", ErrWrongShard, key)
	}
	_, _, err := await(func(done Done) {
		if del {
			n.be.SubmitDelete(key, done)
		} else {
			n.be.SubmitInsert(key, val, done)
		}
	})
	if err != nil || !importing {
		return err
	}
	if del {
		imp.tombs[key] = struct{}{}
	} else {
		delete(imp.tombs, key)
	}
	return nil
}

// Len is the local index size. During a handover it double-counts the
// moving range (present on source and target); client.Client.Len documents the
// approximation.
func (n *Node) Len() int { return n.idx.Len() }
