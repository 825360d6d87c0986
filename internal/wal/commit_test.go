package wal

import (
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dytis/internal/core"
)

func concurrentOpts(policy FsyncPolicy) Options {
	opts := testOpts()
	opts.Index.Concurrent = true
	opts.Fsync = policy
	return opts
}

// syncGate is a Hooks.Sync that parks the next fsync after arm until
// release, so a test can pile mutations up behind a group that is
// provably still open.
type syncGate struct {
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
	fail    atomic.Pointer[error] // when set, every later fsync fails with it
}

func newSyncGate() *syncGate {
	return &syncGate{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *syncGate) hook() error {
	if g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.release
		return nil
	}
	if err := g.fail.Load(); err != nil {
		return *err
	}
	return nil
}

// awaitQueued blocks until n mutations sit in the commit queue (taken by a
// committer or not).
func awaitQueued(t *testing.T, s *Store, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.qmu.Lock()
		got := len(s.groups[0].ops) + len(s.groups[1].ops)
		s.qmu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("commit queue holds %d mutations, want %d", got, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestGroupCommitSharesFsync is the deterministic group: with the first
// writer's fsync held open, sixteen more mutations — synchronous and
// submitted, single and batch — queue behind it and then commit as one
// group: 17 records, exactly 2 fsyncs, and every waiter its own answer.
func TestGroupCommitSharesFsync(t *testing.T) {
	gate := newSyncGate()
	opts := concurrentOpts(FsyncAlways)
	opts.Hooks.Sync = gate.hook
	s := mustOpen(t, t.TempDir(), opts)
	defer s.Close()
	// Keys 0..7 exist, 8..15 do not: a delete's found tells the waiters apart.
	if err := s.InsertBatch([]uint64{0, 1, 2, 3, 4, 5, 6, 7}, []uint64{1, 1, 1, 1, 1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	fsyncs, appends, groups := m.Fsyncs(), m.Appends(), m.CommitGroups()

	gate.armed.Store(true)
	leader := make(chan error, 1)
	go func() { leader <- s.Insert(100, 1) }()
	<-gate.entered

	const writers = 16
	type answer struct {
		found  bool
		founds []bool
		err    error
	}
	answers := make([]answer, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		i := i
		wg.Add(1)
		// One at a time, so queue order — hence log order — is 0..15.
		switch i % 4 {
		case 0, 1: // synchronous single
			go func() {
				defer wg.Done()
				answers[i].found, answers[i].err = s.Delete(uint64(i))
			}()
		case 2: // synchronous batch
			go func() {
				defer wg.Done()
				answers[i].founds, answers[i].err = s.DeleteBatch([]uint64{uint64(i), 1000}, nil)
			}()
		case 3: // submitted
			s.Serving().SubmitDelete(uint64(i), func(found bool, _ []bool, err error) {
				answers[i].found, answers[i].err = found, err
				wg.Done()
			})
		}
		awaitQueued(t, s, 1+i+1)
	}
	if got := m.Fsyncs() - fsyncs; got != 0 {
		t.Fatalf("%d fsyncs completed while the first was held open", got)
	}
	for k := uint64(0); k < 8; k++ {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("key %d gone before its delete's group was durable", k)
		}
	}
	close(gate.release)
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if got := m.Fsyncs() - fsyncs; got != 2 {
		t.Fatalf("%d fsyncs for 17 records in 2 groups, want 2", got)
	}
	if got := m.Appends() - appends; got != 17 {
		t.Fatalf("%d records appended, want 17", got)
	}
	if got := m.CommitGroups() - groups; got != 2 {
		t.Fatalf("%d commit groups, want 2", got)
	}
	for i, a := range answers {
		if a.err != nil {
			t.Fatalf("writer %d: %v", i, a.err)
		}
		want := i < 8
		if i%4 == 2 {
			if len(a.founds) != 2 || a.founds[0] != want || a.founds[1] {
				t.Fatalf("writer %d: DeleteBatch founds = %v, want [%v false]", i, a.founds, want)
			}
		} else if a.found != want {
			t.Fatalf("writer %d: found = %v, want %v", i, a.found, want)
		}
		if _, ok := s.Get(uint64(i)); ok {
			t.Fatalf("key %d survived its delete", i)
		}
	}
}

// TestFsyncFailureLeavesGroupUnapplied: a group whose fsync fails is not
// applied — a read can never observe a write the log does not hold — every
// one of its waiters gets ErrFailed, and the store stays poisoned.
func TestFsyncFailureLeavesGroupUnapplied(t *testing.T) {
	gate := newSyncGate()
	opts := concurrentOpts(FsyncAlways)
	opts.Hooks.Sync = gate.hook
	s := mustOpen(t, t.TempDir(), opts)
	defer s.Close()

	gate.armed.Store(true)
	leader := make(chan error, 1)
	go func() { leader <- s.Insert(1, 1) }()
	<-gate.entered

	errs := make([]error, 4)
	var wg sync.WaitGroup
	for i := range errs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = s.Insert(uint64(10+i), 1)
		}()
	}
	submitted := make(chan error, 1)
	s.Serving().SubmitInsertBatch([]uint64{20, 21}, []uint64{1, 1}, func(_ bool, _ []bool, err error) { submitted <- err })
	awaitQueued(t, s, 6)
	boom := errors.New("injected fsync failure")
	gate.fail.Store(&boom)
	close(gate.release)

	if err := <-leader; err != nil {
		t.Fatalf("the group before the failure: %v", err)
	}
	wg.Wait()
	for i, err := range append(errs, <-submitted) {
		if !errors.Is(err, ErrFailed) {
			t.Fatalf("waiter %d of the failed group got %v, want ErrFailed", i, err)
		}
	}
	for _, k := range []uint64{10, 11, 12, 13, 20, 21} {
		if _, ok := s.Get(k); ok {
			t.Fatalf("key %d applied although its group's fsync failed", k)
		}
	}
	if v, ok := s.Get(1); !ok || v != 1 {
		t.Fatalf("Get(1) = %d,%v: the durable group was lost", v, ok)
	}
	if err := s.Insert(30, 1); !errors.Is(err, ErrFailed) {
		t.Fatalf("Insert on a poisoned store = %v, want ErrFailed", err)
	}
	if err := s.Sync(); !errors.Is(err, ErrFailed) {
		t.Fatalf("Sync on a poisoned store = %v, want ErrFailed", err)
	}
}

// TestCloseFailsQueuedMutations: Close runs between groups, and whatever is
// still queued when it takes effect completes with ErrClosed — nothing
// hangs, nothing is applied without being logged.
func TestCloseFailsQueuedMutations(t *testing.T) {
	dir := t.TempDir()
	gate := newSyncGate()
	opts := concurrentOpts(FsyncOff)
	opts.Hooks.Sync = gate.hook
	s := mustOpen(t, dir, opts)
	if err := s.Insert(1, 1); err != nil { // leaves the log dirty: Close must fsync
		t.Fatal(err)
	}
	gate.armed.Store(true)
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	<-gate.entered // Close holds the store mutex, mid-seal

	errs := make([]error, 3)
	var wg sync.WaitGroup
	for i := range errs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = s.Insert(uint64(10+i), 1)
		}()
	}
	submitted := make(chan error, 1)
	s.Serving().SubmitDelete(1, func(_ bool, _ []bool, err error) { submitted <- err })
	awaitQueued(t, s, 4)
	close(gate.release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range append(errs, <-submitted) {
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("mutation %d queued at Close got %v, want ErrClosed", i, err)
		}
	}

	s2 := mustOpen(t, dir, testOpts())
	defer s2.Close()
	requireState(t, s2, map[uint64]uint64{1: 1})
}

// TestCheckpointUnderConcurrentWriters: a checkpoint taken while writers
// are committing in groups lands between two groups, so its snapshot is an
// exact prefix of the log — per writer a prefix of that writer's sequence,
// and in total exactly the records appended before it. Small segments keep
// rotation in the mix.
func TestCheckpointUnderConcurrentWriters(t *testing.T) {
	const (
		writers = 8
		each    = 400
	)
	dir := t.TempDir()
	opts := concurrentOpts(FsyncOff)
	opts.SegmentBytes = 4 << 10
	opts.CheckpointBytes = -1
	var (
		m        Metrics
		snap     *core.DyTIS
		snapRecs int64
		snapErr  error
	)
	opts.Metrics = &m
	opts.Hooks.Checkpoint = func(stage string) {
		if stage != "written" || snap != nil {
			return
		}
		// The store mutex is held: no group is in flight, and the snapshot
		// just committed is what a crash right now would recover from.
		snapRecs = m.Appends()
		snap = core.New(testOpts().Index)
		snapErr = snap.ReadSnapshotFile(filepath.Join(dir, checkpointName(uint64(m.ActiveSegment()))))
	}
	s := mustOpen(t, dir, opts)

	key := func(w, i int) uint64 { return uint64(w)<<32 | uint64(i) }
	half := make(chan struct{}, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := s.Insert(key(w, i), uint64(i)); err != nil {
					t.Errorf("writer %d op %d: %v", w, i, err)
					return
				}
				if i == each/2 {
					half <- struct{}{}
				}
			}
		}()
	}
	<-half
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if snapErr != nil {
		t.Fatalf("reading the checkpoint back: %v", snapErr)
	}
	if snap == nil {
		t.Fatal("checkpoint hook never fired")
	}

	// Every key is inserted once, so records before the checkpoint = keys in it.
	if int64(snap.Len()) != snapRecs {
		t.Fatalf("checkpoint holds %d keys, log held %d records before it", snap.Len(), snapRecs)
	}
	total := 0
	for w := 0; w < writers; w++ {
		n := 0
		for n < each {
			if _, ok := snap.Get(key(w, n)); !ok {
				break
			}
			n++
		}
		for i := n; i < each; i++ {
			if _, ok := snap.Get(key(w, i)); ok {
				t.Fatalf("checkpoint holds writer %d's op %d but not its op %d: not a log prefix", w, i, n)
			}
		}
		total += n
	}
	if total != snap.Len() {
		t.Fatalf("checkpoint holds %d keys, per-writer prefixes account for %d", snap.Len(), total)
	}
	if snapRecs == 0 || snapRecs == writers*each {
		t.Fatalf("checkpoint did not land among the writes (%d records before it)", snapRecs)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, testOpts())
	defer s2.Close()
	if info := s2.Recovery(); info.CheckpointSeq == 0 || info.Segments < 2 {
		t.Fatalf("recovery did not cross the checkpoint and a rotation: %+v", info)
	}
	if s2.Len() != writers*each {
		t.Fatalf("recovered Len = %d, want %d", s2.Len(), writers*each)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < each; i++ {
			if v, ok := s2.Get(key(w, i)); !ok || v != uint64(i) {
				t.Fatalf("recovered Get(writer %d op %d) = %d,%v", w, i, v, ok)
			}
		}
	}
}

// TestSubmitBatches covers the submitted batch paths' answers, including the
// empty batches that complete without touching the log.
func TestSubmitBatches(t *testing.T) {
	s := mustOpen(t, t.TempDir(), concurrentOpts(FsyncOff))
	defer s.Close()
	x := s.Serving()
	type answer struct {
		founds []bool
		err    error
	}
	done := make(chan answer, 1)
	report := func(_ bool, founds []bool, err error) { done <- answer{founds, err} }

	x.SubmitInsertBatch([]uint64{1, 2, 3}, []uint64{10, 20, 30}, report)
	if a := <-done; a.err != nil {
		t.Fatal(a.err)
	}
	x.SubmitDeleteBatch([]uint64{2, 9}, make([]bool, 0, 2), report)
	if a := <-done; a.err != nil || len(a.founds) != 2 || !a.founds[0] || a.founds[1] {
		t.Fatalf("SubmitDeleteBatch = %v, %v", a.founds, a.err)
	}
	requireState(t, s, map[uint64]uint64{1: 10, 3: 30})

	appends := s.Metrics().Appends()
	x.SubmitInsertBatch(nil, nil, report)
	if a := <-done; a.err != nil {
		t.Fatal(a.err)
	}
	x.SubmitDeleteBatch(nil, []bool{true}, report)
	if a := <-done; a.err != nil || len(a.founds) != 1 {
		t.Fatalf("empty SubmitDeleteBatch = %v, %v", a.founds, a.err)
	}
	if got := s.Metrics().Appends(); got != appends {
		t.Fatalf("empty batches appended %d records", got-appends)
	}
}

// TestInsertBatchLengthMismatch: an insert batch whose keys and values do
// not pair up is refused with an error on both the synchronous and the
// submitted path, logs nothing, and leaves the store healthy.
func TestInsertBatchLengthMismatch(t *testing.T) {
	s := mustOpen(t, t.TempDir(), concurrentOpts(FsyncOff))
	defer s.Close()
	if err := s.InsertBatch([]uint64{1, 2}, []uint64{1}); err == nil {
		t.Fatal("InsertBatch of 2 keys and 1 value succeeded")
	}
	submitted := make(chan error, 1)
	s.Serving().SubmitInsertBatch([]uint64{1}, nil, func(_ bool, _ []bool, err error) { submitted <- err })
	if err := <-submitted; err == nil {
		t.Fatal("SubmitInsertBatch of 1 key and no value succeeded")
	}
	if n := s.Metrics().Appends(); n != 0 {
		t.Fatalf("refused batches appended %d records", n)
	}
	if err := s.Insert(1, 1); err != nil {
		t.Fatalf("Insert after the refused batches: %v", err)
	}
}

// TestApplyPanicPoisonsStore: a panic out of the index while a logged group
// is applied (here: the index closed behind the store's back) fails that
// group and poisons the store; the committer's baton is released, so later
// mutations fail fast instead of queueing forever.
func TestApplyPanicPoisonsStore(t *testing.T) {
	s := mustOpen(t, t.TempDir(), concurrentOpts(FsyncOff))
	defer s.Close()
	if err := s.Index().Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(1, 1); !errors.Is(err, ErrFailed) {
		t.Fatalf("Insert into a panicking index = %v, want ErrFailed", err)
	}
	submitted := make(chan error, 1)
	s.Serving().SubmitDelete(1, func(_ bool, _ []bool, err error) { submitted <- err })
	if err := <-submitted; !errors.Is(err, ErrFailed) {
		t.Fatalf("SubmitDelete after the panic = %v, want ErrFailed", err)
	}
	if _, err := s.Delete(1); !errors.Is(err, ErrFailed) {
		t.Fatalf("Delete after the panic = %v, want ErrFailed", err)
	}
}
