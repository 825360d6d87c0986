package cluster

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dytis/internal/core"
	"dytis/internal/wal"
)

// walSide is one node over a real wal.Store under FsyncAlways. Once poison
// is set, every fsync fails, so the next commit group poisons the store.
type walSide struct {
	dir    string
	st     *wal.Store
	m      *wal.Metrics
	node   *Node
	poison atomic.Bool

	mu   sync.Mutex
	logs []string
}

func walOpts(m *wal.Metrics, poison *atomic.Bool) wal.Options {
	opts := wal.Options{
		Index:   core.Options{FirstLevelBits: 3, BucketEntries: 16, StartDepth: 2, Concurrent: true},
		Fsync:   wal.FsyncAlways,
		Metrics: m,
	}
	if poison != nil {
		opts.Hooks.Sync = func() error {
			if poison.Load() {
				return errors.New("injected fsync failure")
			}
			return nil
		}
	}
	return opts
}

// newWALSide opens a store in a fresh directory and a node over it owning
// [lo, hi]; dial, when set, lets it originate handovers.
func newWALSide(t *testing.T, lo, hi uint64, dial PeerDialer) *walSide {
	t.Helper()
	w := &walSide{dir: t.TempDir(), m: &wal.Metrics{}}
	st, err := wal.Open(w.dir, walOpts(w.m, &w.poison))
	if err != nil {
		t.Fatal(err)
	}
	w.st = st
	w.node, err = NewNode(NodeConfig{Index: st.Serving(), Lo: lo, Hi: hi, Dial: dial, Logf: w.logf, Retry: testRetry})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		w.node.Close()
		w.st.Close()
	})
	return w
}

func (w *walSide) logf(format string, args ...any) {
	w.mu.Lock()
	w.logs = append(w.logs, fmt.Sprintf(format, args...))
	w.mu.Unlock()
}

func (w *walSide) logged(sub string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, l := range w.logs {
		if strings.Contains(l, sub) {
			return true
		}
	}
	return false
}

// groupPeer is a loopPeer that records how many commit groups the target's
// store appended for each bulk page.
type groupPeer struct {
	*loopPeer
	m     *wal.Metrics
	pages []int64
}

func (p *groupPeer) ImportBatch(keys, vals []uint64) (uint64, error) {
	before := p.m.CommitGroups()
	applied, err := p.loopPeer.ImportBatch(keys, vals)
	p.pages = append(p.pages, p.m.CommitGroups()-before)
	return applied, err
}

// movingKeys are n keys spread over [mid, 2^64).
func movingKeys(mid uint64, n int) (keys, vals []uint64) {
	for i := 0; i < n; i++ {
		keys = append(keys, mid+uint64(i)*1000)
		vals = append(vals, uint64(i)+1)
	}
	return keys, vals
}

// TestNodeWALBatchesStayBatches: with durable stores on both sides, every
// bulk page the target imports is exactly one commit group, a moving-range
// batch is one group on the source, and the de-own scrub is one group per
// page at most. Reopening both directories shows the range moved: all of
// it on the target, none of it on the source.
func TestNodeWALBatchesStayBatches(t *testing.T) {
	const mid = uint64(1) << 63
	const n = 2*copyPage + 500
	dst := newWALSide(t, 1, 0, nil)
	peer := &groupPeer{loopPeer: newLoopPeer(dst.node), m: dst.m}
	src := newWALSide(t, 0, ^uint64(0), func(string) (Peer, error) { return peer, nil })

	keys, vals := movingKeys(mid, n)
	if err := src.st.InsertBatch(keys, vals); err != nil {
		t.Fatal(err)
	}
	if err := src.st.InsertBatch([]uint64{1, 2, 3}, []uint64{1, 2, 3}); err != nil { // the kept half
		t.Fatal(err)
	}
	m1, _ := Uniform(1, []string{"src"})
	if err := src.node.SetMap(0, ^uint64(0), m1.Encode()); err != nil {
		t.Fatal(err)
	}
	if err := src.node.StartHandover(mid, ^uint64(0), "dst"); err != nil {
		t.Fatal(err)
	}
	waitState(t, src.node, HandoverCopied)
	if len(peer.pages) != 3 {
		t.Fatalf("%d bulk pages for %d keys, want 3", len(peer.pages), n)
	}
	for i, g := range peer.pages {
		if g != 1 {
			t.Errorf("bulk page %d cost %d commit groups on the target, want 1", i, g)
		}
	}

	const k = 16
	bk, bv := movingKeys(mid+1, k)
	before := src.m.CommitGroups()
	if err := submitted(src.node.SubmitInsertBatch, bk, bv); err != nil {
		t.Fatal(err)
	}
	if got := src.m.CommitGroups() - before; got != 1 {
		t.Errorf("moving-range batch of %d keys cost %d commit groups on the source, want 1", k, got)
	}

	m2 := &Map{Epoch: 2, Shards: []Shard{{0, mid - 1, "src"}, {mid, ^uint64(0), "dst"}}}
	before = src.m.CommitGroups()
	if err := src.node.SetMap(0, mid-1, m2.Encode()); err != nil {
		t.Fatalf("source cutover: %v", err)
	}
	if err := dst.node.SetMap(mid, ^uint64(0), m2.Encode()); err != nil {
		t.Fatalf("target cutover: %v", err)
	}
	src.node.Close()
	moved := n + k
	if got, most := src.m.CommitGroups()-before, int64((moved+copyPage-1)/copyPage); got < 1 || got > most {
		t.Errorf("de-own scrub of %d keys cost %d commit groups, want 1..%d", moved, got, most)
	}

	dst.node.Close()
	for _, w := range []*walSide{src, dst} {
		if err := w.st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	reopen := func(dir string) *wal.Store {
		st, err := wal.Open(dir, walOpts(&wal.Metrics{}, nil))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	srcSt, dstSt := reopen(src.dir), reopen(dst.dir)
	want := map[uint64]uint64{}
	for i, key := range keys {
		want[key] = vals[i]
	}
	for i, key := range bk {
		want[key] = bv[i]
	}
	if got := dstSt.Len(); got != len(want) {
		t.Errorf("reopened target holds %d keys, want %d", got, len(want))
	}
	for key, v := range want {
		if got, ok := dstSt.Get(key); !ok || got != v {
			t.Fatalf("reopened target key %#x = %d,%v, want %d", key, got, ok, v)
		}
	}
	if left := srcSt.Scan(mid, 1, nil); len(left) != 0 {
		t.Fatalf("reopened source still holds moved key %#x", left[0].Key)
	}
	if got := srcSt.Len(); got != 3 {
		t.Fatalf("reopened source holds %d keys, want the 3 it kept", got)
	}
}

// TestNodeWALPoisonedStore: once its store is poisoned, every node write
// site answers an error — none panics, and a background scrub logs and
// stops — and a failed moving-range write is neither mirrored nor
// journaled.
func TestNodeWALPoisonedStore(t *testing.T) {
	const mid = uint64(1) << 63
	failed := func(t *testing.T, what string, err error) {
		t.Helper()
		if !errors.Is(err, wal.ErrFailed) {
			t.Fatalf("%s on a poisoned store = %v, want wal.ErrFailed", what, err)
		}
	}
	// copied hands [mid, 2^64) from a fresh durable source holding keys
	// there to a durable target, and waits for the copy to finish.
	copied := func(t *testing.T) (src, dst *walSide, peer *loopPeer) {
		dst = newWALSide(t, 1, 0, nil)
		peer = newLoopPeer(dst.node)
		src = newWALSide(t, 0, ^uint64(0), func(string) (Peer, error) { return peer, nil })
		keys, vals := movingKeys(mid, 100)
		if err := src.st.InsertBatch(keys, vals); err != nil {
			t.Fatal(err)
		}
		if err := src.node.StartHandover(mid, ^uint64(0), "dst"); err != nil {
			t.Fatal(err)
		}
		waitState(t, src.node, HandoverCopied)
		return src, dst, peer
	}

	t.Run("CutoverScrub", func(t *testing.T) {
		src, dst, _ := copied(t)
		src.poison.Store(true)
		m2 := &Map{Epoch: 2, Shards: []Shard{{0, mid - 1, "src"}, {mid, ^uint64(0), "dst"}}}
		if err := src.node.SetMap(0, mid-1, m2.Encode()); err != nil {
			t.Fatalf("source cutover: %v", err)
		}
		if err := dst.node.SetMap(mid, ^uint64(0), m2.Encode()); err != nil {
			t.Fatalf("target cutover: %v", err)
		}
		if err := src.node.Close(); err != nil {
			t.Fatal(err)
		}
		if !src.logged("scrubbing de-owned") {
			t.Fatalf("the failed scrub was not logged; logs: %q", src.logs)
		}
		if got := dst.st.Len(); got != 100 {
			t.Fatalf("target holds %d keys after the cutover, want 100", got)
		}
	})

	t.Run("ImportBatch", func(t *testing.T) {
		w := newWALSide(t, 1, 0, nil)
		openImport(t, w.node, 100, 199)
		w.poison.Store(true)
		applied, err := w.node.ImportBatch([]uint64{100, 101}, []uint64{1, 2})
		failed(t, "ImportBatch", err)
		if applied != 0 {
			t.Fatalf("failed import page reports %d applied", applied)
		}
	})

	t.Run("ImportEndAbort", func(t *testing.T) {
		w := newWALSide(t, 1, 0, nil)
		openImport(t, w.node, 100, 199)
		if _, err := w.node.ImportBatch([]uint64{100, 101}, []uint64{1, 2}); err != nil {
			t.Fatal(err)
		}
		w.poison.Store(true)
		failed(t, "ImportEnd(false)", w.node.ImportEnd(false))
	})

	t.Run("MirrorApply", func(t *testing.T) {
		w := newWALSide(t, 0, 99, nil)
		openImport(t, w.node, 100, 199)
		w.poison.Store(true)
		failed(t, "MirrorApply into the import", w.node.MirrorApply(false, 150, 1))
		failed(t, "MirrorApply on an owned key", w.node.MirrorApply(true, 50, 0))
	})

	t.Run("NodeInsert", func(t *testing.T) {
		w := newWALSide(t, 0, ^uint64(0), nil)
		w.poison.Store(true)
		failed(t, "Insert", w.node.Insert(1, 1))
		_, err := w.node.Delete(1)
		failed(t, "Delete", err)
	})

	t.Run("MovingRangeSubmitInsert", func(t *testing.T) {
		src, dst, peer := copied(t)
		peer.mu.Lock()
		mirrors := peer.mirrors
		peer.mu.Unlock()
		src.poison.Store(true)
		err := submitted(func(_, _ []uint64, d Done) { src.node.SubmitInsert(mid+1, 7, d) }, nil, nil)
		failed(t, "moving-range SubmitInsert", err)
		peer.mu.Lock()
		sent := peer.mirrors - mirrors
		peer.mu.Unlock()
		if sent != 0 {
			t.Fatalf("the failed write sent %d mirrors", sent)
		}
		if _, ok := dst.st.Get(mid + 1); ok {
			t.Fatal("the failed write reached the target")
		}
		src.node.hmu.Lock()
		journaled := len(src.node.ho.pending)
		src.node.hmu.Unlock()
		if journaled != 0 {
			t.Fatalf("the failed write left %d journal entries", journaled)
		}
		if st := src.node.HandoverStatus().State; st != HandoverCopied {
			t.Fatalf("handover %s after a failed local write, want copied", HandoverStateName(st))
		}
	})
}

// cutOver installs the epoch-2 map that moves [mid, 2^64) from src to dst,
// source first.
func cutOver(t *testing.T, src, dst *Node, mid uint64) {
	t.Helper()
	m2 := &Map{Epoch: 2, Shards: []Shard{{0, mid - 1, "src"}, {mid, ^uint64(0), "dst"}}}
	if err := src.SetMap(0, mid-1, m2.Encode()); err != nil {
		t.Fatalf("source cutover: %v", err)
	}
	if err := dst.SetMap(mid, ^uint64(0), m2.Encode()); err != nil {
		t.Fatalf("target cutover: %v", err)
	}
}

// wantRange requires st to hold exactly want in [mid, 2^64).
func wantRange(t *testing.T, st *wal.Store, mid uint64, want map[uint64]uint64) {
	t.Helper()
	got := st.Scan(mid, len(want)+1, nil)
	if len(got) != len(want) {
		t.Fatalf("target holds %d keys in the moved range, want %d", len(got), len(want))
	}
	for _, p := range got {
		if v, ok := want[p.Key]; !ok || v != p.Value {
			t.Fatalf("target key %#x = %d, want %d (present in the source: %v)", p.Key, p.Value, v, ok)
		}
	}
}

// TestNodeWALImportOverStaleKeys: a node whose de-own scrub was cut short
// (it crashed mid-scrub and restarted owning nothing) still holds keys of
// the range it gave away. When that range is handed back, the copied
// values win and a key the owner deleted meanwhile stays deleted.
func TestNodeWALImportOverStaleKeys(t *testing.T) {
	const mid = uint64(1) << 63
	keys, vals := movingKeys(mid, 100)
	back := newWALSide(t, 1, 0, nil)
	stale := make([]uint64, len(vals))
	for i, v := range vals {
		stale[i] = v + 1000
	}
	if err := back.st.InsertBatch(keys, stale); err != nil {
		t.Fatal(err)
	}
	peer := newLoopPeer(back.node)
	owner := newWALSide(t, 0, ^uint64(0), func(string) (Peer, error) { return peer, nil })
	if err := owner.st.InsertBatch(keys[1:], vals[1:]); err != nil { // keys[0] was deleted since
		t.Fatal(err)
	}
	m1, _ := Uniform(1, []string{"src"})
	if err := owner.node.SetMap(0, ^uint64(0), m1.Encode()); err != nil {
		t.Fatal(err)
	}
	if err := owner.node.StartHandover(mid, ^uint64(0), "dst"); err != nil {
		t.Fatal(err)
	}
	waitState(t, owner.node, HandoverCopied)
	cutOver(t, owner.node, back.node, mid)

	want := map[uint64]uint64{}
	for i := 1; i < len(keys); i++ {
		want[keys[i]] = vals[i]
	}
	wantRange(t, back.st, mid, want)
}

// TestNodeWALImportAfterTargetRestart: a WAL-backed target restarts
// mid-handover and keeps the pages it applied. The source's resume finds
// the import session gone, drops its journal of suspended-window writes
// and recopies; the write and the delete acked in that window must still
// hold on the target after the cutover.
func TestNodeWALImportAfterTargetRestart(t *testing.T) {
	const mid = uint64(1) << 63
	keys, vals := movingKeys(mid, 100)
	dst := newWALSide(t, 1, 0, nil)
	peer := newLoopPeer(dst.node)
	src := newWALSide(t, 0, ^uint64(0), func(string) (Peer, error) { return peer, nil })
	if err := src.st.InsertBatch(keys, vals); err != nil {
		t.Fatal(err)
	}
	m1, _ := Uniform(1, []string{"src"})
	if err := src.node.SetMap(0, ^uint64(0), m1.Encode()); err != nil {
		t.Fatal(err)
	}
	if err := src.node.StartHandover(mid, ^uint64(0), "dst"); err != nil {
		t.Fatal(err)
	}
	waitState(t, src.node, HandoverCopied)

	// The target goes away: the first write's mirror fails past its
	// retries, the handover suspends, and both writes are acked and
	// journaled.
	peer.setFailMirrors(1 << 30)
	if err := src.node.Insert(keys[1], 4242); err != nil {
		t.Fatal(err)
	}
	if _, err := src.node.Delete(keys[2]); err != nil {
		t.Fatal(err)
	}
	if st := src.node.HandoverStatus().State; st != HandoverFailed {
		t.Fatalf("handover %s after the failed mirror, want failed", HandoverStateName(st))
	}

	// It restarts from its log, with the copied pages and no session.
	dst.node.Close()
	if err := dst.st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := wal.Open(dst.dir, walOpts(&wal.Metrics{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	if got := st2.Len(); got != len(keys) {
		t.Fatalf("restarted target recovered %d keys, want the %d copied", got, len(keys))
	}
	dst2 := mustNode(t, st2.Serving(), 1, 0, nil)
	t.Cleanup(func() { dst2.Close() })
	peer.setNode(dst2)
	peer.setFailMirrors(0)

	if err := src.node.HandoverResume(); err != nil {
		t.Fatal(err)
	}
	waitState(t, src.node, HandoverCopied)
	cutOver(t, src.node, dst2, mid)

	want := map[uint64]uint64{}
	for i, k := range keys {
		want[k] = vals[i]
	}
	want[keys[1]] = 4242
	delete(want, keys[2])
	wantRange(t, st2, mid, want)
}
