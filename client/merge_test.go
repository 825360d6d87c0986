package client

import (
	"errors"
	"slices"
	"testing"
)

// fakeStream is a scripted leg: it yields pairs in order, one per chunk,
// then ends either cleanly or with failAfter pairs delivered and err set.
type fakeStream struct {
	keys, vals []uint64
	failAfter  int // -1 = never fail
	err        error

	i      int
	closed int
}

func newFakeStream(pairs ...uint64) *fakeStream {
	if len(pairs)%2 != 0 {
		panic("pairs must be key,val,key,val,...")
	}
	f := &fakeStream{failAfter: -1}
	for i := 0; i < len(pairs); i += 2 {
		f.keys = append(f.keys, pairs[i])
		f.vals = append(f.vals, pairs[i+1])
	}
	return f
}

func (f *fakeStream) chunk() (keys, vals []uint64, err error) {
	if f.failAfter >= 0 && f.i >= f.failAfter {
		return nil, nil, f.err
	}
	if f.i >= len(f.keys) {
		return nil, nil, nil
	}
	f.i++
	return f.keys[f.i-1 : f.i], f.vals[f.i-1 : f.i], nil
}

func (f *fakeStream) close() { f.closed++ }

// fakeOpener hands out scripted sources and records every open: which
// source, in what order, with what budget. A source that honours its
// budget stops after budget pairs, as a bounded Scanner does.
type fakeOpener struct {
	srcs    []*fakeStream
	openErr map[int]error // open of source i fails with this

	opened  []int
	budgets []uint64
}

func (o *fakeOpener) open(i int, budget uint64) leg {
	o.opened = append(o.opened, i)
	o.budgets = append(o.budgets, budget)
	if err := o.openErr[i]; err != nil {
		return &fakeStream{failAfter: 0, err: err} // a stream that cannot start fails its first pull
	}
	s := o.srcs[i]
	if budget > 0 && uint64(len(s.keys)) > budget {
		s.keys, s.vals = s.keys[:budget], s.vals[:budget]
	}
	return s
}

func (o *fakeOpener) chain(first int, max uint64) *Scanner {
	return chainOf(first, len(o.srcs), max, o.open)
}

// chainOf is a Scanner over sources [first, end) that open through open
// instead of the wire; max bounds the total pairs (0 = unbounded).
func chainOf(first, end int, max uint64, open func(i int, budget uint64) leg) *Scanner {
	return &Scanner{next: first, end: end, max: max,
		open: func(_ *Scanner, i int, budget uint64) leg { return open(i, budget) }}
}

// drain pulls the chain dry, returning the delivered pairs.
func drain(t *testing.T, m *Scanner) (keys, vals []uint64) {
	t.Helper()
	for m.Next() {
		keys = append(keys, m.Key())
		vals = append(vals, m.Value())
	}
	return keys, vals
}

func wantPairs(t *testing.T, keys, vals, wantK, wantV []uint64) {
	t.Helper()
	if len(keys) != len(wantK) {
		t.Fatalf("got %d pairs %v, want %d %v", len(keys), keys, len(wantK), wantK)
	}
	for i := range wantK {
		if keys[i] != wantK[i] || vals[i] != wantV[i] {
			t.Fatalf("pair %d = (%d, %d), want (%d, %d)", i, keys[i], vals[i], wantK[i], wantV[i])
		}
	}
}

func wantInts(t *testing.T, what string, got, want []int) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s = %v, want %v", what, got, want)
	}
}

func TestMergeOrdersAcrossSources(t *testing.T) {
	o := &fakeOpener{srcs: []*fakeStream{
		newFakeStream(1, 10, 2, 20, 3, 30),
		newFakeStream(4, 40, 5, 50, 6, 60),
		newFakeStream(7, 70, 8, 80, 9, 90),
	}}
	m := o.chain(0, 0)
	keys, vals := drain(t, m)
	if err := m.Err(); err != nil {
		t.Fatalf("chain failed: %v", err)
	}
	wantPairs(t, keys, vals,
		[]uint64{1, 2, 3, 4, 5, 6, 7, 8, 9},
		[]uint64{10, 20, 30, 40, 50, 60, 70, 80, 90})
	if got := m.Total(); got != 9 {
		t.Fatalf("Total() = %d, want 9", got)
	}
	wantInts(t, "opened", o.opened, []int{0, 1, 2})
	for i, s := range o.srcs {
		if s.closed != 1 {
			t.Fatalf("source %d closed %d times after draining, want 1", i, s.closed)
		}
	}
}

func TestMergeStartsAtFirstSource(t *testing.T) {
	// A scan starting in source 1 never opens source 0.
	o := &fakeOpener{srcs: []*fakeStream{
		newFakeStream(1, 10),
		newFakeStream(4, 40),
		newFakeStream(7, 70),
	}}
	m := o.chain(1, 0)
	keys, vals := drain(t, m)
	if err := m.Err(); err != nil {
		t.Fatalf("chain failed: %v", err)
	}
	wantPairs(t, keys, vals, []uint64{4, 7}, []uint64{40, 70})
	wantInts(t, "opened", o.opened, []int{1, 2})
}

func TestMergeRemainderBudget(t *testing.T) {
	// Each source is handed what the earlier ones left of the budget.
	o := &fakeOpener{srcs: []*fakeStream{
		newFakeStream(1, 10, 2, 20),
		newFakeStream(3, 30, 4, 40, 5, 50),
		newFakeStream(6, 60, 7, 70, 8, 80),
	}}
	m := o.chain(0, 6)
	keys, vals := drain(t, m)
	if err := m.Err(); err != nil {
		t.Fatalf("chain failed: %v", err)
	}
	wantPairs(t, keys, vals, []uint64{1, 2, 3, 4, 5, 6}, []uint64{10, 20, 30, 40, 50, 60})
	if want := []uint64{6, 4, 1}; !slices.Equal(o.budgets, want) {
		t.Fatalf("budgets handed out = %v, want %v", o.budgets, want)
	}
}

func TestMergeMaxBudget(t *testing.T) {
	// A budget the first source exhausts never opens the second, and an
	// unbounded chain hands every source budget 0 (unbounded).
	o := &fakeOpener{srcs: []*fakeStream{
		newFakeStream(1, 10, 2, 20, 3, 30, 4, 40),
		newFakeStream(5, 50),
	}}
	m := o.chain(0, 4)
	keys, vals := drain(t, m)
	if err := m.Err(); err != nil {
		t.Fatalf("chain failed: %v", err)
	}
	wantPairs(t, keys, vals, []uint64{1, 2, 3, 4}, []uint64{10, 20, 30, 40})
	if got := m.Total(); got != 4 {
		t.Fatalf("Total() = %d, want 4", got)
	}
	wantInts(t, "opened", o.opened, []int{0})

	u := &fakeOpener{srcs: []*fakeStream{newFakeStream(1, 10), newFakeStream(2, 20)}}
	drain(t, u.chain(0, 0))
	if want := []uint64{0, 0}; !slices.Equal(u.budgets, want) {
		t.Fatalf("unbounded chain handed budgets %v, want %v", u.budgets, want)
	}
}

func TestMergeSourceOverrunsBudget(t *testing.T) {
	// A source that ignores its budget (a lying server) is cut off at the
	// chain's own count and released by Close.
	over := newFakeStream(1, 10, 2, 20, 3, 30)
	m := chainOf(0, 1, 2, func(int, uint64) leg { return over })
	keys, vals := drain(t, m)
	wantPairs(t, keys, vals, []uint64{1, 2}, []uint64{10, 20})
	if err := m.Err(); err != nil {
		t.Fatalf("Err() = %v", err)
	}
	m.Close()
	if over.closed != 1 {
		t.Fatalf("overrunning source closed %d times, want 1", over.closed)
	}
}

func TestMergeEmptySource(t *testing.T) {
	o := &fakeOpener{srcs: []*fakeStream{
		newFakeStream(1, 10, 2, 20),
		newFakeStream(),
		newFakeStream(),
		newFakeStream(5, 50, 6, 60),
	}}
	m := o.chain(0, 3)
	keys, vals := drain(t, m)
	if err := m.Err(); err != nil {
		t.Fatalf("chain failed: %v", err)
	}
	wantPairs(t, keys, vals, []uint64{1, 2, 5}, []uint64{10, 20, 50})
	wantInts(t, "opened", o.opened, []int{0, 1, 2, 3})
	if want := []uint64{3, 1, 1, 1}; !slices.Equal(o.budgets, want) {
		t.Fatalf("budgets across empty sources = %v, want %v", o.budgets, want)
	}
}

func TestMergeAllSourcesEmpty(t *testing.T) {
	o := &fakeOpener{srcs: []*fakeStream{newFakeStream(), newFakeStream()}}
	m := o.chain(0, 0)
	if m.Next() {
		t.Fatal("Next() = true on all-empty chain")
	}
	if err := m.Err(); err != nil {
		t.Fatalf("Err() = %v on all-empty chain", err)
	}
	wantInts(t, "opened", o.opened, []int{0, 1})
}

func TestMergeNoSources(t *testing.T) {
	m := chainOf(0, 0, 0, func(int, uint64) leg {
		t.Fatal("open called with no sources")
		return nil
	})
	if m.Next() {
		t.Fatal("Next() = true with no sources")
	}
	if err := m.Err(); err != nil {
		t.Fatalf("Err() = %v with no sources", err)
	}
}

// wantInterrupted requires err to be a typed interruption by source.
func wantInterrupted(t *testing.T, err, cause error, source int) {
	t.Helper()
	if !errors.Is(err, ErrScanInterrupted) || !errors.Is(err, cause) {
		t.Fatalf("Err() = %v, want ErrScanInterrupted wrapping %v", err, cause)
	}
	var se *ScanInterruptedError
	if !errors.As(err, &se) || se.Source != source {
		t.Fatalf("Err() = %v, want *ScanInterruptedError with Source %d", err, source)
	}
}

func TestMergeSourceErrorSurfaces(t *testing.T) {
	// A source dies mid-stream: the chain stops with that error, typed,
	// and never goes on to deliver later sources as a complete result.
	boom := errors.New("shard died")
	o := &fakeOpener{srcs: []*fakeStream{
		newFakeStream(1, 10, 2, 20),
		newFakeStream(3, 30, 4, 40, 5, 50),
		newFakeStream(6, 60),
	}}
	o.srcs[1].failAfter, o.srcs[1].err = 1, boom
	m := o.chain(0, 0)
	keys, vals := drain(t, m)
	wantPairs(t, keys, vals, []uint64{1, 2, 3}, []uint64{10, 20, 30})
	wantInterrupted(t, m.Err(), boom, 1)
	wantInts(t, "opened", o.opened, []int{0, 1})
	if m.Next() {
		t.Fatal("Next() = true after source error")
	}
}

func TestMergeSourceErrorOnFirstPull(t *testing.T) {
	// A Scanner whose begin fails (dead pooled connection) reports it on
	// its first pull.
	boom := errors.New("dead on arrival")
	o := &fakeOpener{srcs: []*fakeStream{newFakeStream(1, 10), newFakeStream(2, 20)}}
	o.srcs[0].failAfter, o.srcs[0].err = 0, boom
	m := o.chain(0, 0)
	if m.Next() {
		t.Fatal("Next() = true when the first source fails priming")
	}
	wantInterrupted(t, m.Err(), boom, 0)
}

func TestMergeOpenErrorTyped(t *testing.T) {
	// Opening the next source fails (its shard cannot be dialed): the pairs
	// before stay delivered and the failure comes back typed, naming it.
	boom := errors.New("connection refused")
	o := &fakeOpener{
		srcs:    []*fakeStream{newFakeStream(1, 10), newFakeStream(2, 20), newFakeStream(3, 30)},
		openErr: map[int]error{2: boom},
	}
	m := o.chain(0, 0)
	keys, vals := drain(t, m)
	wantPairs(t, keys, vals, []uint64{1, 2}, []uint64{10, 20})
	wantInterrupted(t, m.Err(), boom, 2)
	if err := m.Close(); err != nil {
		t.Fatalf("Close() = %v", err)
	}
}

func TestMergeCloseClosesOpenSource(t *testing.T) {
	o := &fakeOpener{srcs: []*fakeStream{newFakeStream(1, 10, 2, 20), newFakeStream(3, 30)}}
	m := o.chain(0, 0)
	m.Next()
	if err := m.Close(); err != nil {
		t.Fatalf("Close() = %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close() = %v", err)
	}
	if o.srcs[0].closed != 1 {
		t.Fatalf("open source closed %d times, want exactly once", o.srcs[0].closed)
	}
	if o.srcs[1].closed != 0 {
		t.Fatalf("never-opened source closed %d times", o.srcs[1].closed)
	}
	wantInts(t, "opened", o.opened, []int{0})
	if m.Next() {
		t.Fatal("Next() = true after Close")
	}
	wantInts(t, "opened after Close", o.opened, []int{0})
}
