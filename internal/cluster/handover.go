package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"time"

	"dytis/internal/kv"
)

// ErrHandoverSuspended marks an operation refused because the node's
// handover sits in HandoverFailed: it must be resumed (HandoverResume) or
// abandoned (HandoverAbort) before a new one can start. Match with
// errors.Is.
var ErrHandoverSuspended = errors.New("cluster: handover suspended")

// errTransition marks an event the handover's current state has no
// transition for (step's illegal pairs). Nothing changes on it.
var errTransition = errors.New("cluster: no handover transition")

// Handover states, as carried in HandoverStatus/ShardInfo responses.
const (
	HandoverNone    uint8 = iota // no handover has run
	HandoverCopying              // bulk copy in progress, mirroring on
	HandoverCopied               // bulk copy complete, mirroring on, safe to cut over
	HandoverFailed               // copy or mirror exhausted retries; suspended, resumable
	HandoverDone                 // cutover complete, range de-owned
	numStates
)

var stateNames = [numStates]string{"none", "copying", "copied", "failed", "done"}

// HandoverStateName names a handover state as dytis-ctl and errors print it.
func HandoverStateName(s uint8) string {
	if s < numStates {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", s)
}

// event is what happens to a handover; step decides what each one does.
type event uint8

const (
	evStart        event = iota // StartHandover
	evWrite                     // a write lands in the moving range
	evPageOK                    // the target accepted a bulk-copy page
	evCopyDone                  // the bulk copy has read the whole range
	evExhausted                 // a peer call ran out of retries: bulk page, mirror, journal replay, cutover probe
	evProbeOK                   // the cutover probe found the import session intact
	evProbeFresh                // the cutover probe found the target restarted, its session lost
	evResumeIntact              // HandoverResume reattached to the import session
	evResumeFresh               // HandoverResume found the session lost and opened a new one
	evAbort                     // HandoverAbort
	evClose                     // Node.Close
	numEvents
)

var eventNames = [numEvents]string{"start", "write", "page ok", "copy done", "peer exhausted",
	"probe ok", "probe fresh", "resume intact", "resume fresh", "abort", "close"}

func (e event) String() string { return eventNames[e] }

// action is one thing the node does for a transition, in step's order. The
// first three carry the event's own data (the write, the page), so whoever
// posted the event runs them; run executes the rest.
type action uint8

const (
	acMirror      action = iota // send the write to the target before it is acked
	acJournal                   // journal the write for the resume to replay
	acAdvance                   // count the page and move the watermark past it
	acStopRun                   // close the run's stop channel: its copy and retries end
	acClosePeer                 // close the run's peer; the target keeps its import session
	acReset                     // reset copy progress: watermark, copied, copy done, journal
	acReplay                    // replay the journal to the target; exhaustion fires evExhausted
	acStartCopy                 // start the bulk-copy goroutine from the watermark
	acCommit                    // end the import, keeping it, and close the peer
	acAbortImport               // end the import, scrubbing it; redial if the run's peer is closed
	acForget                    // clear the node's handover slot (applied with the state, under mu)
	acFailed                    // fire HandoverEvents.Failed
	acResumed                   // count the resume, fire HandoverEvents.Resumed
	acLog                       // log the transition through NodeConfig.Logf
)

// transition is one cell of the table: legal ones name the next state and
// the actions; an illegal one may name the error to refuse with.
type transition struct {
	legal bool
	next  uint8
	acts  []action
	err   error
}

func to(next uint8, acts ...action) transition {
	return transition{legal: true, next: next, acts: acts}
}

var (
	suspend  = []action{acStopRun, acClosePeer, acFailed, acLog}
	teardown = []action{acStopRun, acForget, acAbortImport, acLog}
)

// table is the handover state machine; a missing cell is an illegal pair.
var table = [numStates][numEvents]transition{
	HandoverNone: {
		evStart: to(HandoverCopying, acStartCopy),
		evClose: to(HandoverNone),
	},
	HandoverCopying: {
		evWrite:     to(HandoverCopying, acMirror),
		evPageOK:    to(HandoverCopying, acAdvance),
		evCopyDone:  to(HandoverCopied),
		evExhausted: to(HandoverFailed, suspend...),
		evAbort:     to(HandoverNone, teardown...),
		evClose:     to(HandoverNone, teardown...),
	},
	HandoverCopied: {
		evWrite:      to(HandoverCopied, acMirror),
		evExhausted:  to(HandoverFailed, suspend...),
		evProbeOK:    to(HandoverDone, acCommit),
		evProbeFresh: to(HandoverFailed, acStopRun, acClosePeer, acReset, acFailed, acLog),
		evAbort:      to(HandoverNone, teardown...),
		evClose:      to(HandoverNone, teardown...),
	},
	HandoverFailed: {
		evStart: {err: ErrHandoverSuspended},
		evWrite: to(HandoverFailed, acJournal),
		// A run stopped by the suspension may still land its page, finish,
		// or see its retries cut short.
		evPageOK:    to(HandoverFailed, acAdvance),
		evCopyDone:  to(HandoverFailed),
		evExhausted: to(HandoverFailed),
		// A fresh target starts empty: the recopy reads current local
		// state, which subsumes the journal.
		evResumeIntact: to(HandoverCopying, acReplay, acStartCopy, acResumed, acLog),
		evResumeFresh:  to(HandoverCopying, acReset, acStartCopy, acResumed, acLog),
		evAbort:        to(HandoverNone, acForget, acAbortImport, acLog),
		evClose:        to(HandoverNone, acForget, acAbortImport, acLog),
	},
	HandoverDone: {
		evStart: to(HandoverCopying, acStartCopy),
		evWrite: to(HandoverDone),
		evClose: to(HandoverDone),
	},
}

// step decides every handover transition: the state after ev in state s
// and the actions that carry it out, or an errTransition error for an
// illegal pair.
func step(s uint8, ev event) (uint8, []action, error) {
	t := table[s][ev]
	if !t.legal {
		if t.err != nil {
			return s, nil, fmt.Errorf("%w: resume or abort it first (%w: %s in state %s)", t.err, errTransition, ev, HandoverStateName(s))
		}
		return s, nil, fmt.Errorf("%w: %s in state %s", errTransition, ev, HandoverStateName(s))
	}
	return t.next, t.acts, nil
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

// handover is the source side of one range migration; its state is the
// node's hstate. It survives suspension: a failed run keeps the struct
// (watermark, counters, pending journal) so HandoverResume can continue
// instead of recopying.
type handover struct {
	lo, hi uint64
	addr   string

	// peer and stop are per-run, replaced together on resume and guarded
	// by the node's hmu (resume swaps them under mu too). peer is nil once
	// closed. A copy goroutine holds the pair it was started with and
	// checks identity (ho.stop == stop) before recording progress, so a
	// superseded run can never corrupt the live one.
	peer Peer
	stop chan struct{} // closed to end the run

	failCause error // guarded by the node's mu; nil unless suspended

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

// stepLocked applies ev to ho, which must still be the node's handover:
// it moves the state, records the cause of a transition that acts (so a
// suspension's stays until a resume clears it), clears the slot when the
// transition forgets the handover, and returns the actions for run.
// An illegal pair changes nothing. Callers hold hmu and mu.
func (n *Node) stepLocked(ho *handover, ev event, cause error) ([]action, error) {
	if n.ho != ho {
		return nil, fmt.Errorf("%w: %s for a handover the node no longer runs", errTransition, ev)
	}
	next, acts, err := step(n.hstate, ev)
	if err != nil {
		return nil, err
	}
	n.hstate = next
	if ho != nil && len(acts) > 0 {
		ho.failCause = cause
	}
	if slices.Contains(acts, acForget) {
		n.ho = nil
	}
	return acts, nil
}

// fire runs one transition of ho end to end. Callers hold hmu, not mu.
func (n *Node) fire(ho *handover, ev event, cause error) error {
	n.mu.Lock()
	acts, err := n.stepLocked(ho, ev, cause)
	n.mu.Unlock()
	if err == nil {
		err = n.run(ho, ev, acts, cause)
	}
	return err
}

// run executes a transition's actions in order. Callers hold hmu, not mu.
// A journal replay that exhausts its retries fires evExhausted, ends the
// list there and returns the cause.
func (n *Node) run(ho *handover, ev event, acts []action, cause error) error {
	for _, a := range acts {
		switch a {
		case acStopRun:
			close(ho.stop)
		case acClosePeer:
			if err := ho.peer.Close(); err != nil {
				n.logErr("cluster: closing peer %s: %v", ho.addr, err)
			}
			ho.peer = nil
		case acReset:
			ho.watermark.Store(ho.lo)
			ho.copied.Store(0)
			ho.copyDone.Store(false)
			clear(ho.pending)
		case acReplay:
			// Writers queue behind hmu, so the target converges to every
			// acked write before the run goes live.
			for k, op := range ho.pending {
				err := n.retryPeer(ho, ho.stop, true, func() error { return ho.peer.Mirror(op.del, k, op.val) })
				if err != nil {
					err = fmt.Errorf("cluster: replaying the journal to %s: %w", ho.addr, err)
					n.fire(ho, evExhausted, err)
					return err
				}
				delete(ho.pending, k)
				ho.mirrored.Add(1)
			}
		case acStartCopy:
			go n.runCopy(ho, ho.peer, ho.stop)
		case acCommit, acAbortImport:
			peer := ho.peer
			ho.peer = nil
			if peer == nil {
				// Suspended: the run's peer is closed. Redial (best effort) so
				// the target ends the session instead of blocking imports.
				var err error
				if peer, err = n.dial(ho.addr); err != nil {
					n.logErr("cluster: could not reach %s to end its import: %v", ho.addr, err)
					continue
				}
			}
			n.endImport(peer, ho.addr, a == acCommit)
		case acFailed:
			if n.events.Failed != nil {
				n.events.Failed()
			}
		case acResumed:
			ho.resumes.Add(1)
			if n.events.Resumed != nil {
				n.events.Resumed()
			}
		case acLog:
			msg := fmt.Sprintf("cluster: handover of [%#x, %#x] to %s: %s, now %s at watermark %#x",
				ho.lo, ho.hi, ho.addr, ev, HandoverStateName(n.hstate), ho.watermark.Load())
			if cause != nil {
				msg += ": " + cause.Error()
			}
			n.logErr("%s", msg)
		}
	}
	return nil
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
	startable := func() error {
		if !n.ownsLocked(lo) || !n.ownsLocked(hi) {
			return fmt.Errorf("cluster: handover range [%#x, %#x] not fully owned ([%#x, %#x])", lo, hi, n.lo, n.hi)
		}
		_, _, err := step(n.hstate, evStart)
		return err
	}
	n.mu.RLock()
	err := startable()
	n.mu.RUnlock()
	if err != nil {
		return err
	}
	peer, fresh, err := n.attach(addr, lo, hi)
	if err != nil {
		return err
	}
	if !fresh {
		peer.Close()
		return fmt.Errorf("cluster: import of [%#x, %#x] on %s already in progress", lo, hi, addr)
	}
	ho := &handover{lo: lo, hi: hi, addr: addr, peer: peer, stop: make(chan struct{}), pending: map[uint64]mirrorOp{}}
	ho.watermark.Store(lo)
	n.hmu.Lock()
	defer n.hmu.Unlock()
	n.mu.Lock()
	// Re-check under the lock: a map install may have raced the dial.
	var acts []action
	if err = startable(); err == nil {
		acts, err = n.stepLocked(n.ho, evStart, nil)
	}
	if err == nil {
		n.ho = ho
	}
	n.mu.Unlock()
	if err != nil {
		n.endImport(peer, addr, false)
		return err
	}
	// Every later write to [lo, hi] is mirrored, but one submitted before
	// n.ho was set may still be queued in the backend: wait it out so the
	// bulk copy reads it (DESIGN §11).
	n.be.Barrier()
	return n.run(ho, evStart, acts, nil)
}

// attach dials the target at addr and opens, or reattaches to, its import
// session for [lo, hi]; fresh reports a new, empty session.
func (n *Node) attach(addr string, lo, hi uint64) (_ Peer, fresh bool, _ error) {
	peer, err := n.dial(addr)
	if err != nil {
		return nil, false, fmt.Errorf("cluster: dialing handover target %s: %w", addr, err)
	}
	if fresh, _, err = peer.ImportResume(lo, hi); err != nil {
		peer.Close()
		return nil, false, fmt.Errorf("cluster: opening import session on %s: %w", addr, err)
	}
	return peer, fresh, nil
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
		return HandoverInfo{State: n.hstate}
	}
	return HandoverInfo{
		State:     n.hstate,
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

// runCopy is the bulk-copy goroutine: it pages the moving range out of the
// local index and streams it to the target's import session, advancing the
// watermark after every accepted page so a later resume can continue
// instead of recopying. Writes that land mid-copy are covered by the
// mirror, and the target's insert-if-absent + tombstones make copy/mirror
// interleavings converge (see importSession). peer and stop are the run's
// own pair: after a resume supersedes this run, its events are dropped and
// the next stop check exits. A run resumed after the copy finished posts
// evCopyDone at once.
func (n *Node) runCopy(ho *handover, peer Peer, stop chan struct{}) {
	post := func(ev event, cause error) {
		n.hmu.Lock()
		defer n.hmu.Unlock()
		if ho.stop == stop {
			n.fire(ho, ev, cause)
		}
	}
	buf := make([]kv.KV, 0, copyPage)
	keys := make([]uint64, 0, copyPage)
	vals := make([]uint64, 0, copyPage)
	for next, done := ho.watermark.Load(), ho.copyDone.Load(); !done; next++ {
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
				post(evExhausted, fmt.Errorf("bulk copy to %s: %w", ho.addr, err))
				return
			}
		}
		if len(buf) > 0 {
			next = buf[len(buf)-1].Key
		}
		done = len(buf) < copyPage || next >= ho.hi || next == ^uint64(0)
		// A stale run's page may still land (idempotently) on the target,
		// but only the current run moves the watermark.
		n.mu.RLock()
		if _, acts, _ := step(n.hstate, evPageOK); n.ho == ho && ho.stop == stop && slices.Contains(acts, acAdvance) {
			ho.copied.Add(uint64(len(keys)))
			if !done {
				ho.watermark.Store(next + 1)
			} else {
				// The last page may have scanned past hi into keys
				// this node keeps; the watermark stays in the range.
				ho.watermark.Store(min(next, ho.hi))
				ho.copyDone.Store(true)
			}
		}
		n.mu.RUnlock()
	}
	post(evCopyDone, nil)
}

// HandoverResume restarts a suspended handover: it redials the target,
// reattaches to (or, after a target restart, recreates) the import
// session, replays the journal of suspended-window writes (or, against a
// fresh session, drops it and recopies from the start), and continues the
// bulk copy from the watermark — which ends at once in HandoverCopied when
// the copy had already finished.
func (n *Node) HandoverResume() error {
	n.mu.RLock()
	ho := n.ho
	_, _, err := step(n.hstate, evResumeIntact)
	n.mu.RUnlock()
	if err != nil {
		return err
	}
	peer, fresh, err := n.attach(ho.addr, ho.lo, ho.hi)
	if err != nil {
		return err
	}
	ev := evResumeIntact
	if fresh {
		ev = evResumeFresh
	}
	n.hmu.Lock()
	defer n.hmu.Unlock()
	n.mu.Lock()
	acts, err := n.stepLocked(ho, ev, nil)
	if err == nil {
		ho.peer, ho.stop = peer, make(chan struct{})
	}
	n.mu.Unlock()
	if err != nil {
		peer.Close()
		return err
	}
	return n.run(ho, ev, acts, nil)
}

// HandoverAbort abandons the node's handover entirely: the run stops, the
// target is told (best effort) to scrub its partial import, and the
// node's handover slot clears so a new StartHandover can begin.
func (n *Node) HandoverAbort() error {
	n.hmu.Lock()
	defer n.hmu.Unlock()
	return n.fire(n.ho, evAbort, nil)
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
