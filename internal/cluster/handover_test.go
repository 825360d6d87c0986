package cluster

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// gatePeer is a loopPeer whose bulk pages wait at a gate: pass lets k more
// pages through, pass(-1) opens it for good. A page held at the gate is a
// page in flight, so a test can suspend a handover around it; one still in
// flight when the target restarts fails, as its connection died.
type gatePeer struct {
	*loopPeer
	mu       sync.Mutex
	cond     *sync.Cond
	tokens   int // pages that may still pass; -1 = open
	waiting  int // pages held at the gate
	returned int // ImportBatch calls that have returned
	restarts int // target restarts so far
}

func newGatePeer(n *Node) *gatePeer {
	p := &gatePeer{loopPeer: newLoopPeer(n)}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *gatePeer) ImportBatch(keys, vals []uint64) (uint64, error) {
	p.mu.Lock()
	p.waiting++
	restarts := p.restarts
	for p.tokens == 0 {
		p.cond.Wait()
	}
	if p.tokens > 0 {
		p.tokens--
	}
	p.waiting--
	lost := p.restarts != restarts
	p.mu.Unlock()
	applied, err := uint64(0), errors.New("connection to the restarted target lost")
	if !lost {
		applied, err = p.loopPeer.ImportBatch(keys, vals)
	}
	p.mu.Lock()
	p.returned++
	p.mu.Unlock()
	return applied, err
}

func (p *gatePeer) pass(k int) {
	p.mu.Lock()
	if k < 0 || p.tokens < 0 {
		p.tokens = -1
	} else {
		p.tokens += k
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *gatePeer) counts() (waiting, returned int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.waiting, p.returned
}

// machine is one handover under test: a source over a committing
// queueIndex, a target behind a gatePeer, and an oracle of every acked
// write. Every map install is recorded, so the checks can see each node's
// ownership at every epoch it held.
type machine struct {
	t      *testing.T
	srcIdx *queueIndex
	src    *Node
	dst    *Node
	dstIdx *fakeIndex
	peer   *gatePeer
	maps   []*Map

	acked   map[uint64]uint64   // key → last acked value
	deleted map[uint64]struct{} // keys whose last acked write was a delete
	claims  map[uint64][]claim  // epoch → every range a node owned at it
	epochs  map[*Node]uint64    // last epoch seen per node
}

type claim struct {
	n      *Node
	lo, hi uint64
}

const (
	enumMid   = uint64(1) << 63
	enumPages = 3 // the moving range fills this many copy pages
	enumPin   = enumMid + 1
)

func newMachine(t *testing.T) *machine {
	m := &machine{t: t, srcIdx: newQueueIndex(),
		acked: map[uint64]uint64{}, deleted: map[uint64]struct{}{},
		claims: map[uint64][]claim{}, epochs: map[*Node]uint64{}}
	m.restartTarget()
	m.src = mustNode(t, m.srcIdx, 0, ^uint64(0), func(string) (Peer, error) { return m.peer, nil })
	m1, _ := Uniform(1, []string{"src"})
	m.install(m1, m.src, 0, ^uint64(0))
	// The preload stands in for writes acked before the test: a few keys
	// below the moving range, and enumPages pages (the last one partial) in it.
	for i := uint64(0); i < 10; i++ {
		m.srcIdx.fakeIndex.Insert(i*1000, i)
		m.acked[i*1000] = i
	}
	for i := uint64(0); i < (enumPages-1)*copyPage+copyPage/2; i++ {
		k := enumMid + 2 + i*4
		m.srcIdx.fakeIndex.Insert(k, i)
		m.acked[k] = i
	}
	// Opening the gate at the end lets every held page go, so no copy
	// goroutine outlives the test.
	t.Cleanup(func() { m.peer.pass(-1) })
	return m
}

// restartTarget replaces the target with a fresh node owning nothing, as a
// crash-restart looks from the source's open connection.
func (m *machine) restartTarget() {
	m.dstIdx = newFakeIndex()
	m.dst = mustNode(m.t, m.dstIdx, 1, 0, nil)
	if m.peer == nil {
		m.peer = newGatePeer(m.dst)
	} else {
		m.peer.mu.Lock()
		m.peer.restarts++
		m.peer.setNode(m.dst)
		m.peer.mu.Unlock()
	}
	if len(m.maps) > 0 {
		m.install(m.maps[len(m.maps)-1], m.dst, 1, 0)
	}
}

// install sets mp on n as [lo, hi] and records the map once one node took it.
func (m *machine) install(mp *Map, n *Node, lo, hi uint64) error {
	err := n.SetMap(lo, hi, mp.Encode())
	if err == nil && (len(m.maps) == 0 || m.maps[len(m.maps)-1] != mp) {
		m.maps = append(m.maps, mp)
	}
	return err
}

func (m *machine) waitFor(what string, cond func() bool) {
	m.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			m.t.Fatalf("timed out waiting for %s (handover %s)", what, HandoverStateName(m.src.HandoverStatus().State))
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (m *machine) state() uint8 { return m.src.HandoverStatus().State }

// start begins moving [enumMid, max] with a write into it still queued in
// the source's backend: the bulk copy must read it (StartHandover's
// barrier), or a cutover loses it. The queue is released once the handover
// waits in its barrier, or, without one, once the copy has reached the
// gate or finished.
func (m *machine) start() error {
	pinned := make(chan error, 1)
	m.src.SubmitInsert(enumPin, 4242, func(_ bool, _ []bool, err error) { pinned <- err })
	started := make(chan error, 1)
	go func() { started <- m.src.StartHandover(enumMid, ^uint64(0), "dst") }()
	m.waitFor("the barrier or the copy", func() bool {
		waiting, _ := m.peer.counts()
		return m.srcIdx.barriers.Load() > 0 || waiting > 0 || m.state() == HandoverCopied
	})
	m.srcIdx.release()
	if err := <-pinned; err != nil {
		m.t.Fatalf("queued write: %v", err)
	}
	m.acked[enumPin] = 4242
	return <-started
}

// write inserts (or, for an odd i, deletes) a key of the moving range on
// the source and records it when acked.
func (m *machine) write(i uint64) {
	k := enumMid + 2 + i*4
	if i%2 == 0 {
		if err := m.src.Insert(k, 1e6+i); err == nil {
			m.acked[k] = 1e6 + i
			delete(m.deleted, k)
		}
		return
	}
	if _, err := m.src.Delete(k); err == nil {
		delete(m.acked, k)
		m.deleted[k] = struct{}{}
	}
}

// cutover installs the successor map source first, then on the target.
func (m *machine) cutover() error {
	mp := &Map{Epoch: m.maps[len(m.maps)-1].Epoch + 1, Shards: []Shard{{0, enumMid - 1, "src"}, {enumMid, ^uint64(0), "dst"}}}
	if err := m.install(mp, m.src, 0, enumMid-1); err != nil {
		return err
	}
	if err := m.install(mp, m.dst, enumMid, ^uint64(0)); err != nil {
		m.t.Fatalf("target refused the cutover map: %v", err)
	}
	m.src.scrubs.Wait()
	return nil
}

func (m *machine) heal() {
	m.peer.setFailMirrors(0)
	m.peer.setFailBatchesAfter(-1)
}

// reach drives the source's handover into state s. A suspended handover
// is left with a bulk page in flight at the gate — the last page when
// lastHeld — so the events of a run the suspension stopped can be posted.
func (m *machine) reach(s uint8, lastHeld bool) {
	switch s {
	case HandoverNone:
		m.srcIdx.release()
		return
	case HandoverCopied, HandoverDone:
		m.peer.pass(-1)
	case HandoverFailed:
		if lastHeld {
			m.peer.pass(enumPages - 1)
		}
	}
	if err := m.start(); err != nil {
		m.t.Fatal(err)
	}
	switch s {
	case HandoverCopied:
		waitState(m.t, m.src, HandoverCopied)
	case HandoverDone:
		waitState(m.t, m.src, HandoverCopied)
		if err := m.cutover(); err != nil {
			m.t.Fatal(err)
		}
	case HandoverFailed:
		want := 1
		if lastHeld {
			want = enumPages
		}
		m.waitFor("a page in flight", func() bool {
			waiting, returned := m.peer.counts()
			return waiting > 0 && returned == want-1
		})
		m.peer.setFailMirrors(1 << 30)
		m.write(0)
		m.peer.setFailMirrors(0)
	}
	if got := m.state(); got != s {
		m.t.Fatalf("reached %s, want %s", HandoverStateName(got), HandoverStateName(s))
	}
}

// post causes ev on the source the way the node meets it in service.
func (m *machine) post(s uint8, ev event) error {
	switch ev {
	case evStart:
		if s == HandoverDone {
			m.giveBack()
		}
		return m.start()
	case evWrite:
		if s == HandoverDone {
			m.giveBack()
		}
		m.write(2)
		m.write(3)
	case evPageOK:
		_, before := m.peer.counts()
		m.peer.pass(1)
		m.waitFor("the page to land", func() bool { _, r := m.peer.counts(); return r > before })
	case evCopyDone:
		m.peer.pass(-1)
		m.waitFor("the copy to finish", func() bool {
			m.src.mu.RLock()
			defer m.src.mu.RUnlock()
			return m.src.ho.copyDone.Load()
		})
	case evExhausted:
		// Whatever the handover is doing meets a dead peer: the held page
		// fails and so does the write's mirror.
		retries := m.src.HandoverStatus().Retries
		m.peer.setFailMirrors(1 << 30)
		m.peer.setFailBatchesAfter(0)
		m.peer.pass(-1)
		m.write(4)
		m.waitFor("a peer call to be retried", func() bool { return m.src.HandoverStatus().Retries > retries })
		m.waitFor("the suspension", func() bool { return m.state() == HandoverFailed })
		m.heal()
	case evProbeOK:
		return m.cutover()
	case evProbeFresh:
		m.restartTarget()
		return m.cutover()
	case evResumeIntact, evResumeFresh:
		if ev == evResumeFresh {
			m.restartTarget()
		}
		m.heal()
		m.peer.pass(-1)
		return m.src.HandoverResume()
	case evAbort:
		return m.src.HandoverAbort()
	case evClose:
		return m.src.Close()
	}
	return nil
}

// giveBack hands the range a Done handover moved back to the source, so
// the source owns it again while its own handover stays Done.
func (m *machine) giveBack() {
	back := newLoopPeer(m.src)
	dst, last := m.dst, m.maps[len(m.maps)-1]
	dst.dial = func(string) (Peer, error) { return back, nil }
	if err := dst.StartHandover(enumMid, ^uint64(0), "src"); err != nil {
		m.t.Fatal(err)
	}
	waitState(m.t, dst, HandoverCopied)
	mp, _ := Uniform(last.Epoch+1, []string{"src"})
	if err := m.install(mp, dst, 1, 0); err != nil {
		m.t.Fatal(err)
	}
	if err := m.install(mp, m.src, 0, ^uint64(0)); err != nil {
		m.t.Fatal(err)
	}
}

// finish drives the handover to a terminal state: resumed while
// suspended, copied to the end, cut over.
func (m *machine) finish() {
	m.heal()
	m.peer.pass(-1)
	for range 8 {
		switch m.state() {
		case HandoverNone, HandoverDone:
			return
		case HandoverFailed:
			if err := m.src.HandoverResume(); err != nil {
				m.t.Fatalf("finishing: resume: %v", err)
			}
		case HandoverCopying:
			m.waitFor("the copy to end", func() bool { return m.state() != HandoverCopying })
		case HandoverCopied:
			if err := m.cutover(); err != nil {
				m.t.Fatalf("finishing: cutover: %v", err)
			}
		}
	}
	m.t.Fatalf("handover did not finish (%s)", HandoverStateName(m.state()))
}

// check asserts the contract after a step: every acked write is on the
// key's owner at the newest epoch, no key has two owners at one epoch, and
// no node's epoch went backward.
func (m *machine) check(when string) {
	m.t.Helper()
	nodes := []*Node{m.src, m.dst}
	for _, n := range nodes {
		lo, hi, epoch, _ := n.Info()
		if epoch < m.epochs[n] {
			m.t.Fatalf("%s: a node's epoch went back from %d to %d", when, m.epochs[n], epoch)
		}
		m.epochs[n] = epoch
		if lo > hi {
			continue
		}
		for _, c := range m.claims[epoch] {
			if c.n != n && lo <= c.hi && c.lo <= hi {
				m.t.Fatalf("%s: [%#x, %#x] and [%#x, %#x] both owned at epoch %d", when, lo, hi, c.lo, c.hi, epoch)
			}
		}
		m.claims[epoch] = append(m.claims[epoch], claim{n, lo, hi})
	}
	owner := func(k uint64) *Node {
		var best *Node
		var bestEpoch uint64
		for _, n := range nodes {
			lo, hi, epoch, _ := n.Info()
			if k >= lo && k <= hi && (best == nil || epoch > bestEpoch) {
				best, bestEpoch = n, epoch
			}
		}
		if best == nil {
			m.t.Fatalf("%s: key %#x has no owner", when, k)
		}
		return best
	}
	for k, v := range m.acked {
		if got, ok, err := owner(k).Get(k); err != nil || !ok || got != v {
			m.t.Fatalf("%s: acked key %#x = %d on its owner (found %v, %v), want %d", when, k, got, ok, err, v)
		}
	}
	for k := range m.deleted {
		if _, ok, err := owner(k).Get(k); err != nil || ok {
			m.t.Fatalf("%s: deleted key %#x present on its owner (%v)", when, k, err)
		}
	}
}

// TestHandoverEnumeration walks every (state, event) pair of step's table
// over a real source and target. An illegal pair must return errTransition
// and change neither the handover's status nor ownership; after a legal
// one, and again once the handover is driven to its end, no acked write
// may be missing on its owner, no key may have two owners at one epoch,
// and no epoch may go backward.
func TestHandoverEnumeration(t *testing.T) {
	for s := range numStates {
		for ev := range numEvents {
			_, _, illegal := step(s, ev)
			t.Run(fmt.Sprintf("%s/%s", HandoverStateName(s), ev), func(t *testing.T) {
				m := newMachine(t)
				m.reach(s, ev == evCopyDone)
				m.check("reached " + HandoverStateName(s))
				if illegal != nil {
					status := m.src.HandoverStatus()
					lo, hi, epoch, _ := m.src.Info()
					m.src.hmu.Lock()
					err := m.src.fire(m.src.ho, ev, errors.New("enumerated"))
					m.src.hmu.Unlock()
					if !errors.Is(err, errTransition) {
						t.Fatalf("illegal pair: %v, want errTransition", err)
					}
					if got := m.src.HandoverStatus(); got != status {
						t.Fatalf("illegal pair changed the status: %+v, was %+v", got, status)
					}
					if l, h, e, _ := m.src.Info(); l != lo || h != hi || e != epoch {
						t.Fatalf("illegal pair changed ownership: [%#x, %#x]@%d, was [%#x, %#x]@%d", l, h, e, lo, hi, epoch)
					}
				} else {
					if err := m.post(s, ev); err != nil && ev != evProbeFresh {
						t.Fatalf("legal pair: %v", err)
					}
					m.check("after " + ev.String())
				}
				m.finish()
				m.check("at the end")
			})
		}
	}
}

// TestHandoverPublicRefusals: the node's entry points refuse what step
// refuses, with the typed error, and a start over a suspended handover
// still matches ErrHandoverSuspended.
func TestHandoverPublicRefusals(t *testing.T) {
	m := newMachine(t)
	m.reach(HandoverNone, false)
	for name, err := range map[string]error{
		"resume": m.src.HandoverResume(),
		"abort":  m.src.HandoverAbort(),
	} {
		if !errors.Is(err, errTransition) {
			t.Errorf("%s with no handover: %v, want errTransition", name, err)
		}
	}
	m = newMachine(t)
	m.reach(HandoverFailed, false)
	if err := m.src.StartHandover(enumMid, ^uint64(0), "dst"); !errors.Is(err, ErrHandoverSuspended) || !errors.Is(err, errTransition) {
		t.Errorf("start over a suspended handover: %v, want ErrHandoverSuspended and errTransition", err)
	}
	if err := m.cutover(); !errors.Is(err, errTransition) {
		t.Errorf("cutover of a suspended handover: %v, want errTransition", err)
	}
}

var actionNames = [...]string{"mirror", "journal", "advance", "stop run", "close peer",
	"reset progress", "replay journal", "start copy", "commit import", "abort import",
	"forget", "fire failed", "fire resumed", "log"}

func (a action) String() string { return actionNames[a] }

// renderTable is step's table as DESIGN §11 prints it.
func renderTable() string {
	var b strings.Builder
	b.WriteString("| State | Event | Next state | Actions |\n|---|---|---|---|\n")
	for s := range numStates {
		for ev := range numEvents {
			t := table[s][ev]
			switch {
			case t.legal:
				acts := "—"
				for i, a := range t.acts {
					if i == 0 {
						acts = a.String()
					} else {
						acts += ", " + a.String()
					}
				}
				fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", HandoverStateName(s), ev, HandoverStateName(t.next), acts)
			case t.err != nil:
				fmt.Fprintf(&b, "| %s | %s | — | refused: %v |\n", HandoverStateName(s), ev, t.err)
			}
		}
	}
	return b.String()
}

// TestHandoverTableInDesign fails when DESIGN §11's transition table
// differs from step's.
func TestHandoverTableInDesign(t *testing.T) {
	const begin, end = "<!-- handover table: rendered by TestHandoverTableInDesign -->\n", "<!-- end handover table -->"
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(doc), begin)
	got, _, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatalf("DESIGN.md has no %q ... %q block", begin, end)
	}
	if want := renderTable(); got != want {
		t.Fatalf("DESIGN.md's handover table differs from step's; replace it with:\n%s", want)
	}
}
