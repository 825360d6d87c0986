package proto

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// recConn records what a Writer writes. fail, when set, is consulted before
// every write with its 1-based number; a non-nil error fails that write.
type recConn struct {
	fail func(n int) error

	mu        sync.Mutex
	stream    []byte
	writes    int
	deadlines []time.Time
}

func (r *recConn) Write(p []byte) (int, error) {
	r.mu.Lock()
	r.writes++
	n := r.writes
	r.mu.Unlock()
	if r.fail != nil {
		if err := r.fail(n); err != nil {
			return 0, err
		}
	}
	r.mu.Lock()
	r.stream = append(r.stream, p...)
	r.mu.Unlock()
	return len(p), nil
}

func (r *recConn) SetWriteDeadline(t time.Time) error {
	r.mu.Lock()
	r.deadlines = append(r.deadlines, t)
	r.mu.Unlock()
	return nil
}

func (r *recConn) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.writes
}

// requestIDs decodes every sealed request frame written so far.
func (r *recConn) requestIDs(t *testing.T) []uint64 {
	t.Helper()
	r.mu.Lock()
	br := bytes.NewReader(append([]byte(nil), r.stream...))
	r.mu.Unlock()
	var ids []uint64
	for {
		body, _, err := ReadFrameCRC(br, nil)
		if err != nil {
			if br.Len() != 0 {
				t.Fatalf("frame %d: %v", len(ids), err)
			}
			return ids
		}
		var req Request
		if err := DecodeRequest(body, &req); err != nil {
			t.Fatalf("frame %d: %v", len(ids), err)
		}
		ids = append(ids, req.ID)
	}
}

func newWriter(nc Conn, limit int, timeout time.Duration) *Writer {
	w := new(Writer)
	w.Init(nc, limit, timeout, nil)
	return w
}

// send is the client's use of the writer: append, and flush on the
// caller's goroutine when the append took the baton.
func send(t *testing.T, w *Writer, id uint64) {
	baton, err := w.AppendRequest(&Request{ID: id, Op: OpGet, Key: id}, time.Time{})
	if err != nil {
		t.Errorf("append %d: %v", id, err)
		return
	}
	if baton {
		if rand.Intn(2) == 0 {
			runtime.Gosched() // let others join this write, as a yielding client does
		}
		if err := w.Flush(); err != nil {
			t.Errorf("flush: %v", err)
		}
	}
}

// checkIdle requires an idle, healthy writer: nothing pending and nobody
// holding the baton.
func checkIdle(t *testing.T, w *Writer) {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.pending) != 0 || w.frames != 0 || w.flushing || w.err != nil {
		t.Fatalf("writer not idle: %d bytes / %d frames pending, flushing %v, err %v", len(w.pending), w.frames, w.flushing, w.err)
	}
}

// TestFrameWriterOrder: each appender's frames reach the wire in the order
// it appended them, whoever wrote them, while others append alongside.
func TestFrameWriterOrder(t *testing.T) {
	rc := &recConn{}
	w := newWriter(rc, 0, 0)
	const appenders, each = 8, 300
	var wg sync.WaitGroup
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				send(t, w, uint64(g*each+i))
			}
		}(g)
	}
	wg.Wait()
	checkIdle(t, w)
	ids := rc.requestIDs(t)
	if len(ids) != appenders*each {
		t.Fatalf("%d frames on the wire, want %d", len(ids), appenders*each)
	}
	next := make([]int, appenders)
	for _, id := range ids {
		g, i := int(id)/each, int(id)%each
		if i != next[g] {
			t.Fatalf("appender %d: frame %d reached the wire where %d was due", g, i, next[g])
		}
		next[g]++
	}
	t.Logf("%d frames in %d writes", len(ids), rc.count())
}

// TestFrameWriterNoOrphanFrames: under random interleavings of appends and
// flushes — response appends with and without waiting for room, a flusher
// that is the only one to flush, as on a server, and writes that stall —
// pending is never non-empty without a baton holder, and every frame is
// written once the appenders are done.
func TestFrameWriterNoOrphanFrames(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			stall := rng.Intn(3)
			rc := &recConn{fail: func(n int) error {
				if stall > 0 && n%stall == 0 {
					time.Sleep(50 * time.Microsecond)
				}
				return nil
			}}
			w := newWriter(rc, 1+rng.Intn(8), 0)
			wake := make(chan struct{}, 1)
			flushed := make(chan struct{})
			go func() {
				defer close(flushed)
				for range wake {
					if err := w.Flush(); err != nil {
						t.Errorf("flush: %v", err)
					}
				}
			}()
			stop := make(chan struct{})
			watched := make(chan struct{})
			go func() {
				defer close(watched)
				for {
					select {
					case <-stop:
						return
					default:
					}
					w.mu.Lock()
					orphan := len(w.pending) > 0 && !w.flushing
					w.mu.Unlock()
					if orphan {
						t.Error("frames pending with no baton holder")
						w.Close() // let the appenders waiting for room go
						return
					}
					runtime.Gosched()
				}
			}()
			const appenders, each = 6, 400
			var wg sync.WaitGroup
			for g := 0; g < appenders; g++ {
				wg.Add(1)
				go func(g int, wait bool) {
					defer wg.Done()
					resp := Response{Op: OpGet, Found: true}
					for i := 0; i < each; i++ {
						resp.ID, resp.Val = uint64(g*each+i), uint64(i)
						baton, err := w.AppendResponses(wait, &resp)
						if err != nil {
							t.Errorf("append: %v", err)
							return
						}
						if baton {
							select {
							case wake <- struct{}{}:
							default:
							}
						}
					}
				}(g, g%3 != 0)
			}
			appended := make(chan struct{})
			go func() { wg.Wait(); close(appended) }()
			select {
			case <-appended:
			case <-time.After(10 * time.Second):
				w.Close()
				<-appended
				t.Fatal("appenders waited 10s for room: frames were left without a flush")
			}
			close(wake)
			<-flushed
			close(stop)
			<-watched
			checkIdle(t, w)
			r := bytes.NewReader(rc.stream)
			frames := 0
			for ; r.Len() > 0; frames++ {
				if _, _, err := ReadFrameCRC(r, nil); err != nil {
					t.Fatalf("frame %d: %v", frames, err)
				}
			}
			if frames != appenders*each {
				t.Fatalf("%d frames written, want %d", frames, appenders*each)
			}
		})
	}
}

// TestFrameWriterStickyFailure: after a failed write nothing more is
// written, every later append returns the write's error, and a Flush writes
// nothing.
func TestFrameWriterStickyFailure(t *testing.T) {
	errBoom := errors.New("boom")
	rc := &recConn{fail: func(n int) error {
		if n == 2 {
			return errBoom
		}
		return nil
	}}
	w := newWriter(rc, 4, 0)
	send(t, w, 1)
	baton, err := w.AppendRequest(&Request{ID: 2, Op: OpPing}, time.Time{})
	if err != nil || !baton {
		t.Fatalf("append = %v, %v; want the baton", baton, err)
	}
	if err := w.Flush(); !errors.Is(err, errBoom) {
		t.Fatalf("failed flush = %v, want boom", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.AppendRequest(&Request{ID: 3, Op: OpPing}, time.Time{}); !errors.Is(err, errBoom) || !errors.Is(err, ErrWriterClosed) {
			t.Fatalf("request append after the failure = %v", err)
		}
		for _, wait := range []bool{false, true} {
			if _, err := w.AppendResponses(wait, &Response{ID: 3, Op: OpPing}); !errors.Is(err, errBoom) {
				t.Fatalf("response append (wait %v) after the failure = %v", wait, err)
			}
		}
		if err := w.Flush(); !errors.Is(err, errBoom) {
			t.Fatalf("flush after the failure = %v", err)
		}
	}
	if n := rc.count(); n != 2 {
		t.Fatalf("%d writes, want 2: nothing after the failed one", n)
	}
	if ids := rc.requestIDs(t); len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("frames on the wire: %v, want [1]", ids)
	}
}

// TestFrameWriterRoomWait: an append that waits for room, and WaitRoom,
// block while the limit of frames is pending and wake when a flush takes
// pending, and also when the writer fails; an append that does not wait
// never blocks.
func TestFrameWriterRoomWait(t *testing.T) {
	const limit = 3
	fill := func(t *testing.T, w *Writer) {
		t.Helper()
		for i := 0; i < limit; i++ {
			if _, err := w.AppendResponses(true, &Response{ID: uint64(i), Op: OpPing}); err != nil {
				t.Fatal(err)
			}
		}
		// A completion's append goes past the limit without waiting.
		if _, err := w.AppendResponses(false, &Response{ID: 99, Op: OpPing}); err != nil {
			t.Fatal(err)
		}
	}
	// waiter starts the two kinds of wait: an append that waits for room,
	// and WaitRoom on its own.
	waiter := func(w *Writer) <-chan error {
		done := make(chan error, 2)
		go func() {
			_, err := w.AppendResponses(true, &Response{ID: 100, Op: OpPing})
			done <- err
		}()
		go func() { done <- w.WaitRoom() }()
		return done
	}
	blocked := func(t *testing.T, done <-chan error) {
		t.Helper()
		select {
		case err := <-done:
			t.Fatalf("append went ahead with the limit pending: %v", err)
		case <-time.After(20 * time.Millisecond):
		}
	}
	woke := func(t *testing.T, done <-chan error, ok func(error) bool) {
		t.Helper()
		for i := 0; i < 2; i++ {
			select {
			case err := <-done:
				if !ok(err) {
					t.Fatalf("woken wait = %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("a wait for room never woke")
			}
		}
	}

	t.Run("flush", func(t *testing.T) {
		rc := &recConn{}
		w := newWriter(rc, limit, 0)
		fill(t, w)
		done := waiter(w)
		blocked(t, done)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		woke(t, done, func(err error) bool { return err == nil })
	})
	t.Run("failed-write", func(t *testing.T) {
		errBoom := errors.New("boom")
		inWrite, hold := make(chan struct{}), make(chan struct{})
		rc := &recConn{fail: func(int) error { close(inWrite); <-hold; return errBoom }}
		w := newWriter(rc, limit, 0)
		fill(t, w)
		flushed := make(chan error, 1)
		go func() { flushed <- w.Flush() }()
		<-inWrite
		fill(t, w) // the limit pending again, behind the stalled write
		done := waiter(w)
		blocked(t, done)
		close(hold)
		woke(t, done, func(err error) bool { return errors.Is(err, errBoom) })
		if err := <-flushed; !errors.Is(err, errBoom) {
			t.Fatalf("flush = %v", err)
		}
	})
	t.Run("close", func(t *testing.T) {
		w := newWriter(&recConn{}, limit, 0)
		fill(t, w)
		done := waiter(w)
		blocked(t, done)
		w.Close()
		woke(t, done, func(err error) bool { return errors.Is(err, ErrWriterClosed) })
	})
}

// TestFrameWriterDropsBigBuffer: a buffer above MaxKeptBuf is dropped after
// its write; a small one is kept as the spare.
func TestFrameWriterDropsBigBuffer(t *testing.T) {
	w := newWriter(&recConn{}, 0, 0)
	spare := func() []byte {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.spare
	}
	keys := make([]uint64, MaxKeptBuf/8)
	if baton, err := w.AppendResponses(false, &Response{Op: OpGetBatch, Vals: keys, Founds: make([]bool, len(keys))}); err != nil || !baton {
		t.Fatalf("append = %v, %v", baton, err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if s := spare(); s != nil {
		t.Fatalf("kept a %d-byte buffer, cap %d", cap(s), MaxKeptBuf)
	}
	send(t, w, 1)
	if s := spare(); s == nil || cap(s) > MaxKeptBuf {
		t.Fatalf("small buffer not kept: cap %d", cap(s))
	}
}

// TestFrameWriterDeadline: each write is armed with the earliest deadline
// among its frames, an unchanged deadline is not re-armed, and a writer with
// a timeout arms now plus the timeout when that comes first.
func TestFrameWriterDeadline(t *testing.T) {
	rc := &recConn{}
	w := newWriter(rc, 0, 0)
	dl := time.Now().Add(time.Hour)
	for _, d := range []time.Time{dl.Add(time.Minute), dl, {}} {
		if _, err := w.AppendRequest(&Request{ID: 1, Op: OpPing}, d); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	send(t, w, 2) // no deadline: the armed one is cleared
	send(t, w, 3) // still none: nothing to re-arm
	if len(rc.deadlines) != 2 || !rc.deadlines[0].Equal(dl) || !rc.deadlines[1].IsZero() {
		t.Fatalf("armed deadlines %v, want [%v, zero]", rc.deadlines, dl)
	}

	rc = &recConn{}
	w = newWriter(rc, 0, time.Second)
	before := time.Now()
	if _, err := w.AppendRequest(&Request{ID: 1, Op: OpPing}, dl); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(rc.deadlines) != 1 || rc.deadlines[0].Before(before.Add(time.Second)) || !rc.deadlines[0].Before(dl) {
		t.Fatalf("armed deadlines %v, want now plus the timeout", rc.deadlines)
	}
}
