package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dytis/internal/kv"
)

// fakeIndex is a mutex-guarded sorted-map Index — the oracle shape the
// differential fuzzer uses, here standing in for the real core.
type fakeIndex struct {
	mu sync.Mutex
	m  map[uint64]uint64
}

func newFakeIndex() *fakeIndex { return &fakeIndex{m: make(map[uint64]uint64)} }

func (f *fakeIndex) Get(key uint64) (uint64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.m[key]
	return v, ok
}

func (f *fakeIndex) Insert(key, value uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.m[key] = value
}

func (f *fakeIndex) Delete(key uint64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.m[key]
	delete(f.m, key)
	return ok
}

func (f *fakeIndex) Scan(start uint64, max int, dst []kv.KV) []kv.KV {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys := make([]uint64, 0, len(f.m))
	for k := range f.m {
		if k >= start {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		if max >= 0 && len(dst) >= max {
			break
		}
		dst = append(dst, kv.KV{Key: k, Value: f.m[k]})
	}
	return dst
}

func (f *fakeIndex) GetBatch(keys []uint64, vals []uint64, found []bool) ([]uint64, []bool) {
	for _, k := range keys {
		v, ok := f.Get(k)
		vals = append(vals, v)
		found = append(found, ok)
	}
	return vals, found
}

func (f *fakeIndex) InsertBatch(keys, vals []uint64) error {
	for i, k := range keys {
		f.Insert(k, vals[i])
	}
	return nil
}

func (f *fakeIndex) DeleteBatch(keys []uint64, found []bool) ([]bool, error) {
	for _, k := range keys {
		found = append(found, f.Delete(k))
	}
	return found, nil
}

func (f *fakeIndex) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.m)
}

func (f *fakeIndex) snapshot() map[uint64]uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[uint64]uint64, len(f.m))
	for k, v := range f.m {
		out[k] = v
	}
	return out
}

// loopPeer adapts a target *Node into a Peer — the in-process equivalent
// of the client adapter cmd/dytis-server wires up. Failure injection:
// failMirrors fails that many upcoming Mirror calls; failResumes fails
// that many upcoming ImportResume calls; failBatchesAfter >= 0 fails
// every ImportBatch once that many batches have been accepted (set it
// back to -1 to heal the link). setNode swaps the target node underneath
// the same peer — a crash-restart as seen from an open connection.
type loopPeer struct {
	n  *Node
	mu sync.Mutex

	mirrors          int
	failMirrors      int
	failResumes      int
	batches          [][]uint64 // keys of each accepted batch
	failBatchesAfter int        // -1 = never fail
}

func newLoopPeer(n *Node) *loopPeer { return &loopPeer{n: n, failBatchesAfter: -1} }

func (p *loopPeer) node() *Node {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

func (p *loopPeer) ImportResume(lo, hi uint64) (bool, uint64, error) {
	p.mu.Lock()
	if p.failResumes > 0 {
		p.failResumes--
		p.mu.Unlock()
		return false, 0, fmt.Errorf("injected resume failure")
	}
	p.mu.Unlock()
	return p.node().ImportResume(lo, hi)
}
func (p *loopPeer) ImportBatch(keys, vals []uint64) (uint64, error) {
	p.mu.Lock()
	if p.failBatchesAfter >= 0 && len(p.batches) >= p.failBatchesAfter {
		p.mu.Unlock()
		return 0, fmt.Errorf("injected bulk-copy failure")
	}
	p.batches = append(p.batches, append([]uint64(nil), keys...))
	p.mu.Unlock()
	return p.node().ImportBatch(keys, vals)
}
func (p *loopPeer) ImportEnd(commit bool) error { return p.node().ImportEnd(commit) }
func (p *loopPeer) Mirror(del bool, key, val uint64) error {
	p.mu.Lock()
	if p.failMirrors > 0 {
		p.failMirrors--
		p.mu.Unlock()
		return fmt.Errorf("injected mirror failure")
	}
	p.mirrors++
	p.mu.Unlock()
	return p.node().MirrorApply(del, key, val)
}
func (p *loopPeer) Close() error { return nil }

func (p *loopPeer) setNode(n *Node) {
	p.mu.Lock()
	p.n = n
	p.mu.Unlock()
}

func (p *loopPeer) setFailMirrors(k int) {
	p.mu.Lock()
	p.failMirrors = k
	p.mu.Unlock()
}

func (p *loopPeer) setFailResumes(k int) {
	p.mu.Lock()
	p.failResumes = k
	p.mu.Unlock()
}

func (p *loopPeer) setFailBatchesAfter(k int) {
	p.mu.Lock()
	p.failBatchesAfter = k
	p.mu.Unlock()
}

func (p *loopPeer) batchKeys() [][]uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([][]uint64, len(p.batches))
	copy(out, p.batches)
	return out
}

// testRetry keeps handover retry backoff negligible in tests.
var testRetry = RetryPolicy{Attempts: 3, BackoffMin: time.Millisecond, BackoffMax: 2 * time.Millisecond}

func mustNode(t *testing.T, idx Index, lo, hi uint64, dial PeerDialer) *Node {
	t.Helper()
	n, err := NewNode(NodeConfig{Index: idx, Lo: lo, Hi: hi, Dial: dial, Logf: t.Logf, Retry: testRetry})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func waitState(t *testing.T, n *Node, want uint8) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := n.HandoverStatus().State
		if st == want {
			return
		}
		if st == HandoverFailed && want != HandoverFailed {
			t.Fatalf("handover failed while waiting for %s", HandoverStateName(want))
		}
		if time.Now().After(deadline) {
			t.Fatalf("handover stuck in %s waiting for %s", HandoverStateName(st), HandoverStateName(want))
		}
		time.Sleep(time.Millisecond)
	}
}

func TestNodeOwnershipEnforced(t *testing.T) {
	idx := newFakeIndex()
	n := mustNode(t, idx, 100, 199, nil)
	if err := n.Insert(150, 1); err != nil {
		t.Fatalf("owned insert: %v", err)
	}
	if _, _, err := n.Get(150); err != nil {
		t.Fatalf("owned get: %v", err)
	}
	if err := n.Insert(99, 1); !errors.Is(err, ErrWrongShard) {
		t.Errorf("insert below range: %v", err)
	}
	if _, _, err := n.Get(200); !errors.Is(err, ErrWrongShard) {
		t.Errorf("get above range: %v", err)
	}
	if _, err := n.Delete(0); !errors.Is(err, ErrWrongShard) {
		t.Errorf("delete outside range: %v", err)
	}
	if _, _, err := n.GetBatch([]uint64{150, 500}, nil, nil); !errors.Is(err, ErrWrongShard) {
		t.Errorf("batch with stray key: %v", err)
	}
	if err := submitted(n.SubmitInsertBatch, []uint64{150, 500}, []uint64{1, 2}); !errors.Is(err, ErrWrongShard) {
		t.Errorf("insert batch with stray key: %v", err)
	}
	if err := submitted(func(keys, _ []uint64, done Done) { n.SubmitDeleteBatch(keys, nil, done) }, []uint64{500}, nil); !errors.Is(err, ErrWrongShard) {
		t.Errorf("delete batch with stray key: %v", err)
	}
	// The stray batch must not have been half-applied.
	if _, ok := idx.Get(500); ok {
		t.Error("stray key applied despite redirect")
	}
}

// submitted runs one batch Submit and returns the error its done received,
// failing the test unless done ran exactly once before Submit returned (as
// it must on an inline backend and on every ownership miss).
func submitted(submit func(keys, vals []uint64, done Done), keys, vals []uint64) error {
	var (
		calls int
		err   error
	)
	submit(keys, vals, func(_ bool, _ []bool, e error) { calls, err = calls+1, e })
	if calls != 1 {
		return fmt.Errorf("done ran %d times before Submit returned, want 1", calls)
	}
	return err
}

// panicIndex fails every mutation by panicking, as a poisoned durable store
// fails its synchronous writes.
type panicIndex struct{ *fakeIndex }

func (panicIndex) Insert(uint64, uint64) { panic("poisoned") }
func (panicIndex) Delete(uint64) bool    { panic("poisoned") }
func (panicIndex) InsertBatch([]uint64, []uint64) error {
	panic("poisoned")
}
func (panicIndex) DeleteBatch([]uint64, []bool) ([]bool, error) {
	panic("poisoned")
}

// TestNodeMutationPanicReleasesLock: a mutation whose index panics, with
// the panic recovered by the caller (as the server recovers it per
// connection), must not leave the node's read lock held. A leaked read lock
// blocks the next SetMap forever, and every reader queued behind it.
func TestNodeMutationPanicReleasesLock(t *testing.T) {
	n := mustNode(t, panicIndex{newFakeIndex()}, 0, ^uint64(0), nil)
	for name, op := range map[string]func(){
		"Insert":       func() { n.Insert(1, 1) },
		"Delete":       func() { n.Delete(1) },
		"SubmitInsert": func() { n.SubmitInsert(1, 1, func(bool, []bool, error) {}) },
		"SubmitDelete": func() { n.SubmitDelete(1, func(bool, []bool, error) {}) },
		"SubmitInsertBatch": func() {
			n.SubmitInsertBatch([]uint64{1, 2}, []uint64{1, 2}, func(bool, []bool, error) {})
		},
		"SubmitDeleteBatch": func() { n.SubmitDeleteBatch([]uint64{1, 2}, nil, func(bool, []bool, error) {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: index panic did not propagate", name)
				}
			}()
			op()
		}()
	}
	m, _ := Uniform(2, []string{"self"})
	done := make(chan error, 1)
	go func() { done <- n.SetMap(0, ^uint64(0), m.Encode()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("SetMap after recovered panics: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("SetMap blocked 2s after recovered mutation panics: the read lock leaked")
	}
	if _, _, err := n.Get(1); err != nil {
		t.Fatalf("Get after SetMap: %v", err)
	}
}

func TestNodeScanClipsToRange(t *testing.T) {
	idx := newFakeIndex()
	for k := uint64(0); k < 300; k += 10 {
		idx.Insert(k, k)
	}
	n := mustNode(t, idx, 100, 199, nil)
	pairs, done, err := n.Scan(0, 0, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Error("full-range page not done")
	}
	if len(pairs) != 10 || pairs[0].Key != 100 || pairs[len(pairs)-1].Key != 190 {
		t.Fatalf("clipped scan got %d pairs [%v..%v]", len(pairs), pairs[0], pairs[len(pairs)-1])
	}
	// Paged: small max walks the range and reports done at the boundary.
	var all []kv.KV
	next, done := uint64(0), false
	for !done {
		var page []kv.KV
		page, done, err = n.Scan(0, next, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, page...)
		if len(page) > 0 {
			next = page[len(page)-1].Key + 1
		}
	}
	if len(all) != 10 {
		t.Fatalf("paged scan got %d pairs, want 10", len(all))
	}
	// Start beyond the range is immediately done and empty.
	if pairs, done, err = n.Scan(0, 200, 10, nil); err != nil || !done || len(pairs) != 0 {
		t.Errorf("past-range scan: pairs=%d done=%v err=%v", len(pairs), done, err)
	}
}

func TestNodeScanEpochMismatch(t *testing.T) {
	idx := newFakeIndex()
	n := mustNode(t, idx, 0, ^uint64(0), nil)
	m, _ := Uniform(3, []string{"self"})
	if err := n.SetMap(0, ^uint64(0), m.Encode()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.Scan(2, 0, 10, nil); !errors.Is(err, ErrWrongShard) {
		t.Errorf("stale scan epoch: %v", err)
	}
	if _, _, err := n.Scan(3, 0, 10, nil); err != nil {
		t.Errorf("current scan epoch: %v", err)
	}
	if _, _, err := n.Scan(0, 0, 10, nil); err != nil {
		t.Errorf("epochless scan: %v", err)
	}
}

func TestSetMapEpochRules(t *testing.T) {
	n := mustNode(t, newFakeIndex(), 0, ^uint64(0), nil)
	m3, _ := Uniform(3, []string{"self"})
	if err := n.SetMap(0, ^uint64(0), m3.Encode()); err != nil {
		t.Fatal(err)
	}
	// Idempotent re-install of the identical map.
	if err := n.SetMap(0, ^uint64(0), m3.Encode()); err != nil {
		t.Errorf("idempotent re-install: %v", err)
	}
	// Stale epoch refused.
	m2, _ := Uniform(2, []string{"self"})
	if err := n.SetMap(0, ^uint64(0), m2.Encode()); err == nil {
		t.Error("stale epoch accepted")
	}
	// Conflicting map at the same epoch refused.
	c3, _ := Uniform(3, []string{"other"})
	if err := n.SetMap(0, ^uint64(0), c3.Encode()); err == nil {
		t.Error("conflicting same-epoch map accepted")
	}
	// Self range must be a shard of the map.
	m4, _ := Uniform(4, []string{"a", "b"})
	if err := n.SetMap(0, 1234, m4.Encode()); err == nil {
		t.Error("self range not a shard accepted")
	}
	// De-owning with no handover refused.
	if err := n.SetMap(m4.Shards[0].Lo, m4.Shards[0].Hi, m4.Encode()); err == nil {
		t.Error("de-own without handover accepted")
	}
	lo, hi, epoch, _ := n.Info()
	if lo != 0 || hi != ^uint64(0) || epoch != 3 {
		t.Errorf("state mutated by refused installs: [%#x, %#x] epoch %d", lo, hi, epoch)
	}
}

// TestHandoverFullCutover drives the whole state machine in-process: bulk
// copy + mirrored writes + cutover via two SetMaps, asserting the moved
// range lands complete on the target and is scrubbed from the source.
func TestHandoverFullCutover(t *testing.T) {
	const mid = uint64(1) << 63
	srcIdx, dstIdx := newFakeIndex(), newFakeIndex()
	dst := mustNode(t, dstIdx, 1, 0, nil) // owns nothing yet
	peer := newLoopPeer(dst)
	src := mustNode(t, srcIdx, 0, ^uint64(0), func(addr string) (Peer, error) { return peer, nil })

	m1, _ := Uniform(1, []string{"src"})
	if err := src.SetMap(0, ^uint64(0), m1.Encode()); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 2000; i++ {
		k := i * (1 << 53) // spread across both halves
		if err := src.Insert(k, i); err != nil {
			t.Fatal(err)
		}
	}

	if err := src.StartHandover(mid, ^uint64(0), "dst"); err != nil {
		t.Fatal(err)
	}
	// Writes racing the copy: into the moving range (mirrored) and the
	// keeper range (untouched path).
	if err := src.Insert(mid+7, 777); err != nil {
		t.Fatal(err)
	}
	if err := src.Insert(42, 888); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Delete(1 << 53); err != nil { // keeper half
		t.Fatal(err)
	}
	waitState(t, src, HandoverCopied)
	// Post-copy, pre-cutover: moving-range writes still mirror.
	if err := src.Insert(mid+9, 999); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Delete(1024 * (1 << 53)); err != nil { // moving half
		t.Fatal(err)
	}

	// Cutover: source de-owns first (fail-closed gap), then target owns.
	m2 := &Map{Epoch: 2, Shards: []Shard{{0, mid - 1, "src"}, {mid, ^uint64(0), "dst"}}}
	if err := m2.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := src.SetMap(0, mid-1, m2.Encode()); err != nil {
		t.Fatalf("source cutover: %v", err)
	}
	if err := dst.SetMap(mid, ^uint64(0), m2.Encode()); err != nil {
		t.Fatalf("target cutover: %v", err)
	}

	// The moved half must be byte-identical to what the source acked,
	// including the mid-copy mirrored writes and deletes.
	want := make(map[uint64]uint64)
	for i := uint64(0); i < 2000; i++ {
		k := i * (1 << 53)
		if k >= mid {
			want[k] = i
		}
	}
	want[mid+7], want[mid+9] = 777, 999
	delete(want, 1024*(1<<53))
	got := dstIdx.snapshot()
	if len(got) != len(want) {
		t.Fatalf("target has %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if gv, ok := got[k]; !ok || gv != v {
			t.Fatalf("target key %#x = %d,%v want %d", k, gv, ok, v)
		}
	}
	// Source scrubbed the moved range and redirects for it (the scrub runs
	// off the SetMap response path; wait for it).
	src.scrubs.Wait()
	for k := range srcIdx.snapshot() {
		if k >= mid {
			t.Fatalf("source still holds moved key %#x", k)
		}
	}
	if _, _, err := src.Get(mid + 7); !errors.Is(err, ErrWrongShard) {
		t.Errorf("source serves moved key: %v", err)
	}
	if v, ok, err := dst.Get(mid + 7); err != nil || !ok || v != 777 {
		t.Errorf("target Get(mid+7) = %d,%v,%v", v, ok, err)
	}
	if st := src.HandoverStatus().State; st != HandoverDone {
		t.Errorf("source handover state %s, want done", HandoverStateName(st))
	}
}

// TestHandoverConcurrentTraffic hammers the moving range from many
// goroutines through the whole copy window; every acked write must be on
// the target after cutover.
func TestHandoverConcurrentTraffic(t *testing.T) {
	const mid = uint64(1) << 63
	srcIdx, dstIdx := newFakeIndex(), newFakeIndex()
	dst := mustNode(t, dstIdx, 1, 0, nil)
	peer := newLoopPeer(dst)
	src := mustNode(t, srcIdx, 0, ^uint64(0), func(addr string) (Peer, error) { return peer, nil })
	m1, _ := Uniform(1, []string{"src"})
	if err := src.SetMap(0, ^uint64(0), m1.Encode()); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 5000; i++ {
		if err := src.Insert(mid+i*3, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.StartHandover(mid, ^uint64(0), "dst"); err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := mid + uint64(w*perWriter+i)*7 + 1
				if err := src.Insert(k, uint64(w)); err != nil {
					t.Errorf("concurrent insert: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	waitState(t, src, HandoverCopied)
	m2 := &Map{Epoch: 2, Shards: []Shard{{0, mid - 1, "src"}, {mid, ^uint64(0), "dst"}}}
	if err := src.SetMap(0, mid-1, m2.Encode()); err != nil {
		t.Fatal(err)
	}
	if err := dst.SetMap(mid, ^uint64(0), m2.Encode()); err != nil {
		t.Fatal(err)
	}
	// Every key the source ever acked in the moving range is on the target.
	got := dstIdx.snapshot()
	for i := uint64(0); i < 5000; i++ {
		if _, ok := got[mid+i*3]; !ok {
			t.Fatalf("preloaded key %#x lost", mid+i*3)
		}
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			k := mid + uint64(w*perWriter+i)*7 + 1
			if v, ok := got[k]; !ok || v != uint64(w) {
				t.Fatalf("acked concurrent write %#x lost (got %d,%v)", k, v, ok)
			}
		}
	}
}

// TestImportTombstones pins the resurrection hazard: a mirrored delete
// must survive a late bulk page carrying the key's old value.
func TestImportTombstones(t *testing.T) {
	idx := newFakeIndex()
	n := mustNode(t, idx, 1, 0, nil)
	if err := n.ImportStart(100, 199); err != nil {
		t.Fatal(err)
	}
	// Mirror order: insert 150=5, delete 150, then the stale bulk page.
	if err := n.MirrorApply(false, 150, 5); err != nil {
		t.Fatal(err)
	}
	if err := n.MirrorApply(true, 150, 0); err != nil {
		t.Fatal(err)
	}
	applied, err := n.ImportBatch([]uint64{150, 160}, []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if applied != 1 {
		t.Fatalf("applied %d, want 1 (tombstoned key skipped)", applied)
	}
	if _, ok := idx.Get(150); ok {
		t.Fatal("tombstoned key resurrected by bulk page")
	}
	// A fresh mirror insert clears the tombstone.
	if err := n.MirrorApply(false, 150, 9); err != nil {
		t.Fatal(err)
	}
	if err := n.ImportEnd(true); err != nil {
		t.Fatal(err)
	}
	if v, ok := idx.Get(150); !ok || v != 9 {
		t.Fatalf("post-commit key 150 = %d,%v want 9", v, ok)
	}
	if v, ok := idx.Get(160); !ok || v != 2 {
		t.Fatalf("post-commit key 160 = %d,%v want 2", v, ok)
	}
}

func TestImportAbortScrubs(t *testing.T) {
	idx := newFakeIndex()
	n := mustNode(t, idx, 1, 0, nil)
	if err := n.ImportStart(0, 99); err != nil {
		t.Fatal(err)
	}
	if _, err := n.ImportBatch([]uint64{1, 2, 3}, []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := n.ImportEnd(false); err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 0 {
		t.Fatalf("aborted import left %d keys", idx.Len())
	}
	// ImportEnd with no session is a no-op (cutover may have adopted it).
	if err := n.ImportEnd(true); err != nil {
		t.Fatal(err)
	}
}

func TestImportValidation(t *testing.T) {
	n := mustNode(t, newFakeIndex(), 0, 999, nil)
	if err := n.ImportStart(500, 1500); err == nil {
		t.Error("import overlapping owned range accepted")
	}
	if err := n.ImportStart(9, 5); err == nil {
		t.Error("inverted import range accepted")
	}
	if _, err := n.ImportBatch([]uint64{1}, []uint64{1}); err == nil {
		t.Error("import batch with no session accepted")
	}
	if err := n.ImportStart(2000, 2999); err != nil {
		t.Fatal(err)
	}
	if err := n.ImportStart(3000, 3999); err == nil {
		t.Error("second concurrent import session accepted")
	}
	if _, err := n.ImportBatch([]uint64{1}, []uint64{1}); err == nil {
		t.Error("import key outside session range accepted")
	}
	if err := n.MirrorApply(false, 5000, 1); err == nil {
		t.Error("mirror with no session and unowned key accepted")
	}
}

// TestMirrorFailureFailsClosed: a persistent mirror error mid-handover
// acks the local write but suspends the handover after exhausting its
// retries, and the suspended handover refuses both cutover and a new
// StartHandover — the un-mirrored write can never be silently lost.
func TestMirrorFailureFailsClosed(t *testing.T) {
	const mid = uint64(1) << 63
	srcIdx := newFakeIndex()
	dst := mustNode(t, newFakeIndex(), 1, 0, nil)
	peer := newLoopPeer(dst)
	peer.setFailMirrors(1 << 30) // persistent: outlasts every retry
	src := mustNode(t, srcIdx, 0, ^uint64(0), func(addr string) (Peer, error) { return peer, nil })
	m1, _ := Uniform(1, []string{"src"})
	if err := src.SetMap(0, ^uint64(0), m1.Encode()); err != nil {
		t.Fatal(err)
	}
	if err := src.StartHandover(mid, ^uint64(0), "dst"); err != nil {
		t.Fatal(err)
	}
	// The write is acked despite the mirror failure...
	if err := src.Insert(mid+1, 7); err != nil {
		t.Fatalf("write not acked on mirror failure: %v", err)
	}
	if v, ok, err := src.Get(mid + 1); err != nil || !ok || v != 7 {
		t.Fatalf("acked write not readable: %d,%v,%v", v, ok, err)
	}
	// ...the handover is suspended, with the retries it burned visible...
	info := src.HandoverStatus()
	if info.State != HandoverFailed {
		t.Fatalf("handover state %s, want failed", HandoverStateName(info.State))
	}
	if info.Retries < 2 {
		t.Errorf("retries = %d, want >= 2 (attempts exhausted)", info.Retries)
	}
	if info.Cause == nil {
		t.Error("suspended handover reports no cause")
	}
	// ...cutover is refused, so the map cannot orphan the write...
	m2 := &Map{Epoch: 2, Shards: []Shard{{0, mid - 1, "src"}, {mid, ^uint64(0), "dst"}}}
	if err := src.SetMap(0, mid-1, m2.Encode()); err == nil {
		t.Fatal("cutover accepted after failed handover")
	}
	// ...and a fresh handover is refused with the typed suspension error.
	if err := src.StartHandover(mid, ^uint64(0), "dst"); !errors.Is(err, ErrHandoverSuspended) {
		t.Fatalf("StartHandover over a suspended handover: %v, want ErrHandoverSuspended", err)
	}
}

// TestMirrorRetryRidesOutBlip: a transient mirror failure is absorbed by
// the retry budget — the handover completes without ever suspending.
func TestMirrorRetryRidesOutBlip(t *testing.T) {
	const mid = uint64(1) << 63
	srcIdx, dstIdx := newFakeIndex(), newFakeIndex()
	dst := mustNode(t, dstIdx, 1, 0, nil)
	peer := newLoopPeer(dst)
	src := mustNode(t, srcIdx, 0, ^uint64(0), func(addr string) (Peer, error) { return peer, nil })
	m1, _ := Uniform(1, []string{"src"})
	if err := src.SetMap(0, ^uint64(0), m1.Encode()); err != nil {
		t.Fatal(err)
	}
	if err := src.StartHandover(mid, ^uint64(0), "dst"); err != nil {
		t.Fatal(err)
	}
	peer.setFailMirrors(2) // fails attempts 1 and 2; attempt 3 succeeds
	if err := src.Insert(mid+1, 7); err != nil {
		t.Fatal(err)
	}
	waitState(t, src, HandoverCopied)
	info := src.HandoverStatus()
	if info.Retries < 2 {
		t.Errorf("retries = %d, want >= 2", info.Retries)
	}
	if info.Mirrored != 1 {
		t.Errorf("mirrored = %d, want 1", info.Mirrored)
	}
	if v, ok := dstIdx.Get(mid + 1); !ok || v != 7 {
		t.Errorf("retried mirror did not land: %d,%v", v, ok)
	}
}

// TestHandoverWatermarkWithinRange: the copy's last page scans past the
// moving range's hi into keys the source keeps; the finished watermark
// stays at most hi, and only the range's keys were sent.
func TestHandoverWatermarkWithinRange(t *testing.T) {
	const mid = uint64(1) << 63
	srcIdx, dstIdx := newFakeIndex(), newFakeIndex()
	dst := mustNode(t, dstIdx, 1, 0, nil)
	peer := newLoopPeer(dst)
	src := mustNode(t, srcIdx, 0, ^uint64(0), func(addr string) (Peer, error) { return peer, nil })
	// A full page and 100 keys in the range, then 50 keys past hi.
	const moving, past = copyPage + 100, 50
	for i := uint64(0); i < moving+past; i++ {
		if err := src.Insert(mid+i*3, i); err != nil {
			t.Fatal(err)
		}
	}
	hi := mid + (moving-1)*3 + 1
	if err := src.StartHandover(mid, hi, "dst"); err != nil {
		t.Fatal(err)
	}
	waitState(t, src, HandoverCopied)
	info := src.HandoverStatus()
	if info.Copied != moving {
		t.Errorf("copied = %d, want %d", info.Copied, moving)
	}
	if info.Watermark > info.Hi {
		t.Errorf("watermark %#x lies past hi %#x", info.Watermark, info.Hi)
	}
	for _, page := range peer.batchKeys() {
		if page[len(page)-1] > hi {
			t.Fatalf("copy sent key %#x past hi %#x", page[len(page)-1], hi)
		}
	}
}

// TestHandoverWatermarkResume: a bulk-copy failure suspends the handover
// at a page boundary; resume reattaches to the same import session and
// continues from the watermark — already-copied pages are not re-sent.
func TestHandoverWatermarkResume(t *testing.T) {
	const mid = uint64(1) << 63
	srcIdx, dstIdx := newFakeIndex(), newFakeIndex()
	dst := mustNode(t, dstIdx, 1, 0, nil)
	peer := newLoopPeer(dst)
	src := mustNode(t, srcIdx, 0, ^uint64(0), func(addr string) (Peer, error) { return peer, nil })
	m1, _ := Uniform(1, []string{"src"})
	if err := src.SetMap(0, ^uint64(0), m1.Encode()); err != nil {
		t.Fatal(err)
	}
	// Three full pages plus change in the moving range.
	const total = 3*copyPage + 100
	for i := uint64(0); i < total; i++ {
		if err := src.Insert(mid+i*3, i); err != nil {
			t.Fatal(err)
		}
	}
	peer.setFailBatchesAfter(2) // accept two pages, then fail persistently
	if err := src.StartHandover(mid, ^uint64(0), "dst"); err != nil {
		t.Fatal(err)
	}
	waitState(t, src, HandoverFailed)
	info := src.HandoverStatus()
	if info.Copied != 2*copyPage {
		t.Fatalf("copied = %d at suspension, want %d", info.Copied, 2*copyPage)
	}
	wantMark := mid + (2*copyPage-1)*3 + 1 // one past the last accepted key
	if info.Watermark != wantMark {
		t.Fatalf("watermark = %#x, want %#x", info.Watermark, wantMark)
	}
	// A write during suspension is acked and journaled for the resume.
	if err := src.Insert(mid+1, 42); err != nil {
		t.Fatalf("suspended-window write not acked: %v", err)
	}
	preResume := len(peer.batchKeys())
	peer.setFailBatchesAfter(-1) // heal the link
	if err := src.HandoverResume(); err != nil {
		t.Fatal(err)
	}
	waitState(t, src, HandoverCopied)
	info = src.HandoverStatus()
	if info.Resumes != 1 {
		t.Errorf("resumes = %d, want 1", info.Resumes)
	}
	if info.Copied != total {
		t.Errorf("copied = %d after resume, want %d", info.Copied, total)
	}
	// The resumed copy started at the watermark: no page re-sent a key
	// below it.
	for _, page := range peer.batchKeys()[preResume:] {
		if len(page) > 0 && page[0] < wantMark {
			t.Fatalf("resumed copy re-sent key %#x below watermark %#x", page[0], wantMark)
		}
	}
	// Cutover: everything — including the suspended-window write — lands.
	m2 := &Map{Epoch: 2, Shards: []Shard{{0, mid - 1, "src"}, {mid, ^uint64(0), "dst"}}}
	if err := src.SetMap(0, mid-1, m2.Encode()); err != nil {
		t.Fatal(err)
	}
	if err := dst.SetMap(mid, ^uint64(0), m2.Encode()); err != nil {
		t.Fatal(err)
	}
	got := dstIdx.snapshot()
	if len(got) != total+1 { // the preload plus the suspended-window write
		t.Fatalf("target has %d keys, want %d", len(got), total+1)
	}
	if v := got[mid+1]; v != 42 {
		t.Fatalf("suspended-window write = %d on target, want 42", v)
	}
}

// TestHandoverResumeAfterTargetRestart: the target loses the import
// session (restart); resume detects the fresh session and recopies from
// the start — with suspended-window deletes still honored.
func TestHandoverResumeAfterTargetRestart(t *testing.T) {
	const mid = uint64(1) << 63
	srcIdx := newFakeIndex()
	dst := mustNode(t, newFakeIndex(), 1, 0, nil)
	peer := newLoopPeer(dst)
	var pmu sync.Mutex
	cur := peer
	src := mustNode(t, srcIdx, 0, ^uint64(0), func(addr string) (Peer, error) {
		pmu.Lock()
		defer pmu.Unlock()
		return cur, nil
	})
	m1, _ := Uniform(1, []string{"src"})
	if err := src.SetMap(0, ^uint64(0), m1.Encode()); err != nil {
		t.Fatal(err)
	}
	const total = copyPage + 100
	for i := uint64(0); i < total; i++ {
		if err := src.Insert(mid+i*3, i); err != nil {
			t.Fatal(err)
		}
	}
	peer.setFailBatchesAfter(1) // one page lands, then the target "dies"
	if err := src.StartHandover(mid, ^uint64(0), "dst"); err != nil {
		t.Fatal(err)
	}
	waitState(t, src, HandoverFailed)
	// Suspended-window churn: a delete and an overwrite, both acked.
	if _, err := src.Delete(mid); err != nil {
		t.Fatal(err)
	}
	if err := src.Insert(mid+3, 999); err != nil {
		t.Fatal(err)
	}
	// "Restart" the target: fresh node, fresh index, no session.
	dst2Idx := newFakeIndex()
	dst2 := mustNode(t, dst2Idx, 1, 0, nil)
	pmu.Lock()
	cur = newLoopPeer(dst2)
	pmu.Unlock()
	if err := src.HandoverResume(); err != nil {
		t.Fatal(err)
	}
	waitState(t, src, HandoverCopied)
	info := src.HandoverStatus()
	if info.Copied != total-1 { // one key deleted during suspension
		t.Errorf("copied = %d after fresh resume, want %d", info.Copied, total-1)
	}
	m2 := &Map{Epoch: 2, Shards: []Shard{{0, mid - 1, "src"}, {mid, ^uint64(0), "dst"}}}
	if err := src.SetMap(0, mid-1, m2.Encode()); err != nil {
		t.Fatal(err)
	}
	if err := dst2.SetMap(mid, ^uint64(0), m2.Encode()); err != nil {
		t.Fatal(err)
	}
	got := dst2Idx.snapshot()
	if _, ok := got[mid]; ok {
		t.Error("suspended-window delete resurrected on restarted target")
	}
	if v := got[mid+3]; v != 999 {
		t.Errorf("suspended-window overwrite = %d on target, want 999", v)
	}
	if len(got) != total-1 {
		t.Errorf("target has %d keys, want %d", len(got), total-1)
	}
}

// TestCutoverProbeTargetRestart: the target crashes after the copy
// finishes but before the admin pushes the cutover map. The de-own probe
// sees a fresh import session, refuses to surrender the range (de-owning
// would scrub the only live copy), and suspends for a full recopy; a
// resume then completes the handover against the restarted target.
func TestCutoverProbeTargetRestart(t *testing.T) {
	const mid = uint64(1) << 63
	srcIdx := newFakeIndex()
	dst := mustNode(t, newFakeIndex(), 1, 0, nil)
	peer := newLoopPeer(dst)
	src := mustNode(t, srcIdx, 0, ^uint64(0), func(addr string) (Peer, error) { return peer, nil })
	m1, _ := Uniform(1, []string{"src"})
	if err := src.SetMap(0, ^uint64(0), m1.Encode()); err != nil {
		t.Fatal(err)
	}
	const total = copyPage + 75
	for i := uint64(0); i < total; i++ {
		if err := src.Insert(mid+i*3, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.StartHandover(mid, ^uint64(0), "dst"); err != nil {
		t.Fatal(err)
	}
	waitState(t, src, HandoverCopied)
	// Crash-restart the target behind the source's open connection:
	// fresh node, fresh index, no import session.
	dst2Idx := newFakeIndex()
	dst2 := mustNode(t, dst2Idx, 1, 0, nil)
	peer.setNode(dst2)
	m2 := &Map{Epoch: 2, Shards: []Shard{{0, mid - 1, "src"}, {mid, ^uint64(0), "dst"}}}
	if err := m2.Validate(); err != nil {
		t.Fatal(err)
	}
	err := src.SetMap(0, mid-1, m2.Encode())
	if err == nil {
		t.Fatal("SetMap de-owned the moving range against a restarted, empty target")
	}
	if !strings.Contains(err.Error(), "restarted before cutover") {
		t.Fatalf("unexpected refusal: %v", err)
	}
	info := src.HandoverStatus()
	if info.State != HandoverFailed {
		t.Fatalf("state = %s after refused cutover, want %s",
			HandoverStateName(info.State), HandoverStateName(HandoverFailed))
	}
	if info.Watermark != mid || info.Copied != 0 {
		t.Errorf("progress not reset for recopy: watermark %#x copied %d", info.Watermark, info.Copied)
	}
	// The refused install must leave the source owning and serving the range.
	if _, ok, err := src.Get(mid); err != nil || !ok {
		t.Fatalf("source lost the moving range after refused cutover: ok=%v err=%v", ok, err)
	}
	// Suspended-window churn lands in the journal (and is acked locally).
	if _, err := src.Delete(mid + 6); err != nil {
		t.Fatal(err)
	}
	if err := src.Insert(mid+3, 4242); err != nil {
		t.Fatal(err)
	}
	if err := src.HandoverResume(); err != nil {
		t.Fatal(err)
	}
	waitState(t, src, HandoverCopied)
	info = src.HandoverStatus()
	if info.Copied != total-1 { // one key deleted during suspension
		t.Errorf("copied = %d after recopy, want %d", info.Copied, total-1)
	}
	if err := src.SetMap(0, mid-1, m2.Encode()); err != nil {
		t.Fatal(err)
	}
	if err := dst2.SetMap(mid, ^uint64(0), m2.Encode()); err != nil {
		t.Fatal(err)
	}
	got := dst2Idx.snapshot()
	if len(got) != total-1 {
		t.Errorf("restarted target has %d keys, want %d", len(got), total-1)
	}
	if v := got[mid+3]; v != 4242 {
		t.Errorf("suspended-window overwrite = %d on target, want 4242", v)
	}
	if _, ok := got[mid+6]; ok {
		t.Error("suspended-window delete resurrected on restarted target")
	}
}

// TestCutoverProbeUnreachable: the target stops answering between copy
// completion and the map push. The probe failure suspends the handover
// with all progress intact — no de-own, no scrub, no recopy — and a
// resume reattaches to the live session and cuts straight over.
func TestCutoverProbeUnreachable(t *testing.T) {
	const mid = uint64(1) << 63
	srcIdx, dstIdx := newFakeIndex(), newFakeIndex()
	dst := mustNode(t, dstIdx, 1, 0, nil)
	peer := newLoopPeer(dst)
	src := mustNode(t, srcIdx, 0, ^uint64(0), func(addr string) (Peer, error) { return peer, nil })
	m1, _ := Uniform(1, []string{"src"})
	if err := src.SetMap(0, ^uint64(0), m1.Encode()); err != nil {
		t.Fatal(err)
	}
	const total = copyPage + 50
	for i := uint64(0); i < total; i++ {
		if err := src.Insert(mid+i*3, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.StartHandover(mid, ^uint64(0), "dst"); err != nil {
		t.Fatal(err)
	}
	waitState(t, src, HandoverCopied)
	preBatches := len(peer.batchKeys())
	peer.setFailResumes(1)
	m2 := &Map{Epoch: 2, Shards: []Shard{{0, mid - 1, "src"}, {mid, ^uint64(0), "dst"}}}
	if err := m2.Validate(); err != nil {
		t.Fatal(err)
	}
	err := src.SetMap(0, mid-1, m2.Encode())
	if err == nil {
		t.Fatal("SetMap de-owned the moving range with the target unreachable")
	}
	if !strings.Contains(err.Error(), "unreachable at cutover") {
		t.Fatalf("unexpected refusal: %v", err)
	}
	info := src.HandoverStatus()
	if info.State != HandoverFailed {
		t.Fatalf("state = %s after refused cutover, want %s",
			HandoverStateName(info.State), HandoverStateName(HandoverFailed))
	}
	if info.Copied != total {
		t.Errorf("copy progress lost on unreachable probe: copied %d, want %d", info.Copied, total)
	}
	// The session survived on the target, so resume must not recopy.
	if err := src.HandoverResume(); err != nil {
		t.Fatal(err)
	}
	waitState(t, src, HandoverCopied)
	if got := len(peer.batchKeys()); got != preBatches {
		t.Errorf("resume recopied an intact target: %d batches, was %d", got, preBatches)
	}
	if err := src.SetMap(0, mid-1, m2.Encode()); err != nil {
		t.Fatal(err)
	}
	if err := dst.SetMap(mid, ^uint64(0), m2.Encode()); err != nil {
		t.Fatal(err)
	}
	if got := dstIdx.snapshot(); len(got) != total {
		t.Errorf("target has %d keys after cutover, want %d", len(got), total)
	}
}

// TestHandoverAbortClears: aborting a suspended handover frees the slot
// (and the target's session) so a fresh StartHandover can begin.
func TestHandoverAbortClears(t *testing.T) {
	const mid = uint64(1) << 63
	srcIdx, dstIdx := newFakeIndex(), newFakeIndex()
	dst := mustNode(t, dstIdx, 1, 0, nil)
	peer := newLoopPeer(dst)
	src := mustNode(t, srcIdx, 0, ^uint64(0), func(addr string) (Peer, error) { return peer, nil })
	m1, _ := Uniform(1, []string{"src"})
	if err := src.SetMap(0, ^uint64(0), m1.Encode()); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 500; i++ {
		if err := src.Insert(mid+i, i); err != nil {
			t.Fatal(err)
		}
	}
	peer.setFailBatchesAfter(0) // first page already fails
	if err := src.StartHandover(mid, ^uint64(0), "dst"); err != nil {
		t.Fatal(err)
	}
	waitState(t, src, HandoverFailed)
	if err := src.HandoverAbort(); err != nil {
		t.Fatal(err)
	}
	if st := src.HandoverStatus().State; st != HandoverNone {
		t.Fatalf("post-abort state %s, want none", HandoverStateName(st))
	}
	if dstIdx.Len() != 0 {
		t.Fatalf("abort left %d keys on the target", dstIdx.Len())
	}
	// The slot is free again.
	peer.setFailBatchesAfter(-1)
	if err := src.StartHandover(mid, ^uint64(0), "dst"); err != nil {
		t.Fatal(err)
	}
	waitState(t, src, HandoverCopied)
}

func TestStartHandoverValidation(t *testing.T) {
	peerless := mustNode(t, newFakeIndex(), 0, 999, nil)
	if err := peerless.StartHandover(0, 10, "x"); err == nil {
		t.Error("handover without dialer accepted")
	}
	dst := mustNode(t, newFakeIndex(), 1, 0, nil)
	peer := &loopPeer{n: dst}
	n := mustNode(t, newFakeIndex(), 0, 999, func(string) (Peer, error) { return peer, nil })
	if err := n.StartHandover(500, 1500, "dst"); err == nil {
		t.Error("handover of unowned range accepted")
	}
	if err := n.StartHandover(9, 5, "dst"); err == nil {
		t.Error("inverted handover range accepted")
	}
	if err := n.StartHandover(500, 999, "dst"); err != nil {
		t.Fatal(err)
	}
	if err := n.StartHandover(0, 10, "dst"); err == nil {
		t.Error("second concurrent handover accepted")
	}
}

// TestNodeCloseEndsSuspendedImport: closing a node whose handover is
// suspended ends the target's import session (redialled, since the run's
// peer is closed), so the restarted source can start the same handover
// again instead of finding the target's session still in progress.
func TestNodeCloseEndsSuspendedImport(t *testing.T) {
	const mid = uint64(1) << 63
	dstIdx := newFakeIndex()
	dst := mustNode(t, dstIdx, 1, 0, nil)
	peer := newLoopPeer(dst)
	dial := func(string) (Peer, error) { return peer, nil }
	src := mustNode(t, newFakeIndex(), 0, ^uint64(0), dial)
	for i := uint64(0); i < 100; i++ {
		if err := src.Insert(mid+i, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.StartHandover(mid, ^uint64(0), "dst"); err != nil {
		t.Fatal(err)
	}
	peer.setFailMirrors(1 << 30)
	if err := src.Insert(mid+1000, 7); err != nil {
		t.Fatal(err)
	}
	waitState(t, src, HandoverFailed)
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if n := dstIdx.Len(); n != 0 {
		t.Errorf("closed source left %d imported keys on the target", n)
	}
	peer.setFailMirrors(0)
	restarted := mustNode(t, newFakeIndex(), 0, ^uint64(0), dial)
	if err := restarted.StartHandover(mid, ^uint64(0), "dst"); err != nil {
		t.Fatalf("StartHandover after the old source closed suspended: %v", err)
	}
	waitState(t, restarted, HandoverCopied)
}
