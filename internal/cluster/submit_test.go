package cluster

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// queueIndex is a fakeIndex behind a commit queue the test holds: while
// held, its Submit methods only queue; release applies the queue in order,
// and from then on every submission applies on arrival. It implements
// Committer, so a node submits to it instead of wrapping it inline.
type queueIndex struct {
	*fakeIndex
	mu       sync.Mutex
	held     bool
	q        []func()
	barriers atomic.Int32 // Barrier calls entered
}

func newQueueIndex() *queueIndex { return &queueIndex{fakeIndex: newFakeIndex(), held: true} }

// push queues op while held, else runs it. Holding mu while running keeps
// submission order across a concurrent release.
func (x *queueIndex) push(op func()) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.held {
		x.q = append(x.q, op)
		return
	}
	op()
}

func (x *queueIndex) release() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.held = false
	for _, op := range x.q {
		op()
	}
	x.q = nil
}

func (x *queueIndex) SubmitInsert(key, val uint64, done Done) {
	x.push(func() { x.fakeIndex.Insert(key, val); done(false, nil, nil) })
}

func (x *queueIndex) SubmitDelete(key uint64, done Done) {
	x.push(func() { done(x.fakeIndex.Delete(key), nil, nil) })
}

func (x *queueIndex) SubmitInsertBatch(keys, vals []uint64, done Done) {
	x.push(func() { done(false, nil, x.fakeIndex.InsertBatch(keys, vals)) })
}

func (x *queueIndex) SubmitDeleteBatch(keys []uint64, found []bool, done Done) {
	x.push(func() {
		found, err := x.fakeIndex.DeleteBatch(keys, found)
		done(false, found, err)
	})
}

func (x *queueIndex) Barrier() {
	x.barriers.Add(1)
	applied := make(chan struct{})
	x.push(func() { close(applied) })
	<-applied
}

// TestNodeSubmitPinnedAcrossQueuedCommit: an insert submitted into range R
// before R starts moving, and still queued in the backend when the
// handover starts, must reach the target. StartHandover's barrier holds the
// bulk copy back until the queued commit has applied, so the copy reads
// it; without the barrier the copy could finish first, reach Copied
// without the key, and a cutover would lose an acked write.
func TestNodeSubmitPinnedAcrossQueuedCommit(t *testing.T) {
	const lo, hi, key = 1000, 1999, 1500
	srcIdx, dstIdx := newQueueIndex(), newFakeIndex()
	dst := mustNode(t, dstIdx, 1, 0, nil)
	peer := newLoopPeer(dst)
	src := mustNode(t, srcIdx, 0, ^uint64(0), func(string) (Peer, error) { return peer, nil })

	acked := make(chan error, 1)
	src.SubmitInsert(key, 15, func(_ bool, _ []bool, err error) { acked <- err })
	select {
	case err := <-acked:
		t.Fatalf("insert completed (%v) while the backend queue was held", err)
	default:
	}

	started := make(chan error, 1)
	go func() { started <- src.StartHandover(lo, hi, "dst") }()
	// Release the queue once the handover is either waiting in its barrier
	// or (with no barrier) already done copying.
	deadline := time.Now().Add(5 * time.Second)
	for srcIdx.barriers.Load() == 0 && src.HandoverStatus().State != HandoverCopied {
		if time.Now().After(deadline) {
			t.Fatal("StartHandover neither reached its barrier nor finished the copy")
		}
		time.Sleep(time.Millisecond)
	}
	srcIdx.release()
	if err := <-acked; err != nil {
		t.Fatalf("queued insert completed with %v", err)
	}
	if err := <-started; err != nil {
		t.Fatal(err)
	}
	waitState(t, src, HandoverCopied)
	if v, ok := dstIdx.Get(key); !ok || v != 15 {
		t.Fatalf("target import after the copy: key %d = %d,%v, want 15 — a write queued before the handover missed the bulk copy", key, v, ok)
	}
}

// TestNodeSubmitWrongShard: a submission with a key the node does not own
// completes through done with ErrWrongShard before Submit returns, and the
// backend never sees it.
func TestNodeSubmitWrongShard(t *testing.T) {
	idx := newQueueIndex()
	n := mustNode(t, idx, 100, 199, nil)
	for name, submit := range map[string]func(Done){
		"SubmitInsert":      func(d Done) { n.SubmitInsert(500, 1, d) },
		"SubmitDelete":      func(d Done) { n.SubmitDelete(99, d) },
		"SubmitInsertBatch": func(d Done) { n.SubmitInsertBatch([]uint64{150, 500}, []uint64{1, 2}, d) },
		"SubmitDeleteBatch": func(d Done) { n.SubmitDeleteBatch([]uint64{150, 200}, nil, d) },
	} {
		if err := submitted(func(_, _ []uint64, d Done) { submit(d) }, nil, nil); !errors.Is(err, ErrWrongShard) {
			t.Errorf("%s outside the owned range: done got %v, want ErrWrongShard", name, err)
		}
	}
	idx.mu.Lock()
	queued := len(idx.q)
	idx.mu.Unlock()
	if queued != 0 {
		t.Fatalf("%d wrong-shard submissions reached the backend", queued)
	}
}

// TestNodeSubmitMovingRangeMirrored: a submission into a live handover's
// moving range takes the synchronous mirrored path, so by the time done
// runs — before Submit returns — the write is on the target; a batch
// delete's founds are extended key by key.
func TestNodeSubmitMovingRangeMirrored(t *testing.T) {
	const lo, hi = 1000, 1999
	dstIdx := newFakeIndex()
	dst := mustNode(t, dstIdx, 1, 0, nil)
	peer := newLoopPeer(dst)
	srcIdx := newQueueIndex()
	srcIdx.release() // submissions outside the moving range apply on arrival
	src := mustNode(t, srcIdx, 0, ^uint64(0), func(string) (Peer, error) { return peer, nil })
	if err := src.StartHandover(lo, hi, "dst"); err != nil {
		t.Fatal(err)
	}
	waitState(t, src, HandoverCopied)

	var onTarget bool
	err := submitted(func(_, _ []uint64, d Done) {
		src.SubmitInsert(1500, 7, func(found bool, founds []bool, err error) {
			_, onTarget = dstIdx.Get(1500)
			d(found, founds, err)
		})
	}, nil, nil)
	if err != nil || !onTarget {
		t.Fatalf("moving-range insert: done got %v, key on the target when done ran: %v", err, onTarget)
	}
	if err := submitted(src.SubmitInsertBatch, []uint64{1501, 1502}, []uint64{1, 2}); err != nil {
		t.Fatal(err)
	}
	var founds []bool
	err = submitted(func(keys, _ []uint64, d Done) {
		src.SubmitDeleteBatch(keys, nil, func(found bool, f []bool, err error) { founds = f; d(found, f, err) })
	}, []uint64{1501, 1777}, nil)
	if err != nil || len(founds) != 2 || !founds[0] || founds[1] {
		t.Fatalf("moving-range delete batch: founds %v, err %v; want [true false]", founds, err)
	}
	want := map[uint64]uint64{1500: 7, 1502: 2}
	if got := dstIdx.snapshot(); len(got) != len(want) || got[1500] != 7 || got[1502] != 2 {
		t.Fatalf("target holds %v, want %v", got, want)
	}
	peer.mu.Lock()
	mirrors := peer.mirrors
	peer.mu.Unlock()
	if got := mirrors; got != 5 {
		t.Fatalf("%d mirrors sent, want 5 (one per key)", got)
	}
}

// TestImportBatchFailsClosed: an import page with any key outside the
// session applies nothing, not even the keys before the stray one.
func TestImportBatchFailsClosed(t *testing.T) {
	idx := newFakeIndex()
	n := mustNode(t, idx, 1, 0, nil)
	if err := n.ImportStart(100, 199); err != nil {
		t.Fatal(err)
	}
	applied, err := n.ImportBatch([]uint64{100, 101, 500}, []uint64{1, 2, 3})
	if err == nil || applied != 0 {
		t.Fatalf("page with a stray key: applied %d, err %v; want 0 and an error", applied, err)
	}
	if got := idx.Len(); got != 0 {
		t.Fatalf("page with a stray key applied %d keys", got)
	}
}

// TestNodeWriteAllocFree: Node.Insert and Node.Delete submit and wait
// without allocating on an inline backend.
func TestNodeWriteAllocFree(t *testing.T) {
	n := mustNode(t, newFakeIndex(), 0, ^uint64(0), nil)
	write := func() {
		if err := n.Insert(7, 1); err != nil {
			t.Fatal(err)
		}
		if found, err := n.Delete(7); err != nil || !found {
			t.Fatalf("Delete = %v, %v", found, err)
		}
	}
	if allocs := testing.AllocsPerRun(1000, write); allocs != 0 {
		t.Fatalf("Insert+Delete allocate %.2f times, want 0", allocs)
	}
}
