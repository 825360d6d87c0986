package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sync"

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
	// ImportResume reattaches to the import session for exactly [lo, hi]
	// (fresh=false, applied echoes its progress) or opens one (fresh=true).
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
// Locking: mu guards the routing state (range, epoch, map, handover state
// and pointers). hmu serializes everything that must see a frozen
// handover/import state end to end: moving-range writes (apply + synchronous
// mirror), import-session operations, handover transitions (stepLocked, so
// either lock reads hstate and ho), and map installs. Lock order is hmu
// before mu; mu is never held across a network call, hmu is (that
// synchronous mirror under hmu is what makes double-writes ordered and
// cutover lossless).
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
	lo, hi uint64    // owned range; lo > hi = owns nothing
	epoch  uint64    // current map epoch; 0 until a map is installed
	blob   []byte    // current encoded map; replaced wholesale, never mutated
	hstate uint8     // the handover's state; only stepLocked moves it
	ho     *handover // the live or last handover; nil in HandoverNone
	imp    *importSession
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

// ownsAllLocked returns the wrong-shard error of the first key not owned.
// Callers hold mu.
func (n *Node) ownsAllLocked(keys []uint64) error {
	for _, k := range keys {
		if !n.ownsLocked(k) {
			return n.wrongShardLocked(k)
		}
	}
	return nil
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
	if err := n.ownsAllLocked(keys); err != nil {
		return false, err
	}
	if ho := n.ho; ho != nil {
		// A write the handover acts on (mirror, journal) goes slow.
		if _, acts, _ := step(n.hstate, evWrite); len(acts) > 0 {
			mirror = slices.ContainsFunc(keys, ho.covers)
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
	ho, err := n.ho, n.ownsAllLocked(keys)
	n.mu.RUnlock()
	if err != nil {
		return found, err
	}
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
		_, acts, _ := step(n.hstate, evWrite)
		if slices.Contains(acts, acMirror) {
			err := n.retryPeer(ho, ho.stop, true, func() error { return ho.peer.Mirror(del, key, val) })
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
			n.fire(ho, evExhausted, fmt.Errorf("mirror to %s: %w", ho.addr, err))
			_, acts, _ = step(n.hstate, evWrite)
		}
		if slices.Contains(acts, acJournal) {
			ho.pending[key] = mirrorOp{del: del, val: val}
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
	if err := n.ownsAllLocked(keys); err != nil {
		return vals, found, err
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
	return n.lo, n.hi, n.epoch, n.hstate
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
// no-op). De-owning any key is only permitted when the handover's state
// takes the cutover probe (step: HandoverCopied) and its range covers the
// de-owned region — that is the cutover, which this call finalizes: the
// import session commits on the target, the peer closes, and the de-owned
// region is scrubbed from the local index.
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
	ho := n.ho
	var acts []action
	if len(deowned) > 0 {
		_, _, err := step(n.hstate, evProbeOK)
		if err == nil && slices.ContainsFunc(deowned, func(r keyRange) bool { return r.lo < ho.lo || r.hi > ho.hi }) {
			err = fmt.Errorf("outside the moving range [%#x, %#x]", ho.lo, ho.hi)
		}
		if err != nil {
			n.mu.Unlock()
			return fmt.Errorf("cluster: map de-owns %#x with no completed handover covering it: %w", deowned, err)
		}
		n.mu.Unlock()
		// Probe the target before surrendering ownership: a target that
		// crashed after the copy finished holds none of the moved data, and
		// de-owning against it would scrub the only live copy. ImportResume
		// is read-only when the session is intact; a fresh answer (or no
		// answer) suspends the handover instead — resumable, never lossy.
		// hmu is held throughout, so the handover cannot change underneath
		// the probe.
		if fresh, _, perr := ho.peer.ImportResume(ho.lo, ho.hi); perr != nil || fresh {
			ev, cause := evProbeFresh, fmt.Errorf("target %s restarted before cutover; import session lost, recopying", ho.addr)
			if perr != nil {
				ev, cause = evExhausted, fmt.Errorf("target %s unreachable at cutover: %w", ho.addr, perr)
			}
			n.fire(ho, ev, cause)
			return fmt.Errorf("cluster: refusing de-own of [%#x, %#x] (handover suspended): %w", ho.lo, ho.hi, cause)
		}
		// The state moves to Done under the same mu hold that de-owns the
		// range: no write can see Done while the range is still owned.
		n.mu.Lock()
		if acts, err = n.stepLocked(ho, evProbeOK, nil); err != nil {
			n.mu.Unlock()
			return err
		}
	}
	// A session for a range the new map gives us commits implicitly: the
	// source finalizes with an explicit ImportEnd too, but adopting here
	// makes the cutover robust to the source dying right after our install.
	if imp := n.imp; imp != nil && selfLo <= selfHi && imp.lo >= selfLo && imp.hi <= selfHi {
		n.imp = nil
	}
	n.lo, n.hi, n.epoch, n.blob = selfLo, selfHi, m.Epoch, blob
	n.mu.Unlock()

	n.run(ho, evProbeOK, acts, nil) // commits the target's import
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

// --- handover: target side --------------------------------------------------

// ImportResume opens this node's import session for a handover source,
// or reattaches the source to it after the peer link dropped. A session
// for exactly [lo, hi] answers fresh=false with its progress; no session
// at all (none yet, or this node restarted and lost it) opens a new one
// and answers fresh=true, telling a resuming source to recopy from the
// start. A session for a different range is an error.
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

// Close stops any running copy and ends the handover as an abort does —
// a closing node cannot resume, so even a suspended handover's import
// session is ended on its target (redialled, best effort).
func (n *Node) Close() error {
	// Drain background de-own scrubs first (they take hmu themselves), so
	// nothing touches the index after Close returns.
	n.scrubs.Wait()
	n.hmu.Lock()
	defer n.hmu.Unlock()
	return n.fire(n.ho, evClose, errors.New("node closing"))
}

// Len is the local index size. During a handover it double-counts the
// moving range (present on source and target); client.Client.Len documents the
// approximation.
func (n *Node) Len() int { return n.idx.Len() }
