package proto

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// MaxKeptBuf caps the buffers a Writer keeps: a bigger one is dropped after
// its write, so an idle connection holds at most two of this size.
const MaxKeptBuf = 64 << 10

// ErrWriterClosed matches every append to a failed or closed Writer.
var ErrWriterClosed = errors.New("proto: frame writer closed")

// Conn is the write half of the connection a Writer writes to.
type Conn interface {
	Write(p []byte) (int, error)
	SetWriteDeadline(t time.Time) error
}

// Writer is the sealed-frame writer both ends of the wire send through.
// Appenders encode and seal frames into a pending buffer under one mutex.
// The appender that finds no flush owed takes the baton (its append reports
// true) and sees Flush called: a client caller flushes on its own goroutine,
// a server appender wakes the connection's one writer goroutine. Flush
// swaps pending with the idle second buffer and writes it outside the lock
// until it finds pending empty, so no frame is left pending without a baton
// holder, frames appended during a write ride the next one, and one
// appender's frames reach the wire in its order. A failed write is sticky:
// nothing is written after it and every later append fails. Each write is
// armed with one deadline: the earliest of its frames' deadlines and, with
// a timeout, now plus the timeout.
type Writer struct {
	nc      Conn
	limit   int             // response frames pending before a waiting append waits; 0 for no bound
	timeout time.Duration   // bound on each write; 0 for none
	onPeak  func(bytes int) // called with each write larger than any before; nil for none
	armed   time.Time       // baton holder only: the write deadline armed on nc
	peak    int             // baton holder only: most bytes one write took (pending only grows between writes)

	mu       sync.Mutex
	room     sync.Cond // on mu: broadcast when pending empties or the writer fails
	pending  []byte    // guarded-by: mu — sealed frames no write has taken yet
	spare    []byte    // guarded-by: mu — the idle one of the two buffers
	frames   int       // guarded-by: mu — response frames in pending, which the limit counts
	dl       time.Time // guarded-by: mu — earliest deadline among pending's frames, zero for none
	flushing bool      // guarded-by: mu — the baton is taken: a flush is owed or running
	err      error     // guarded-by: mu — sticky once a write failed or Close ran
}

// Init readies a zero Writer in place, so a connection can hold it by value.
// limit bounds the response frames pending for appends that wait for room
// (0: none waits); timeout bounds each write (0: none); onPeak, when
// non-nil, hears of every new peak of pending bytes.
func (w *Writer) Init(nc Conn, limit int, timeout time.Duration, onPeak func(bytes int)) {
	w.nc, w.limit, w.timeout, w.onPeak = nc, limit, timeout, onPeak
	w.room.L = &w.mu
}

// AppendRequest seals req into pending, to be written by dl (zero for
// none), without waiting for room. baton reports that the caller took the
// baton and owes the Flush. On an error nothing was buffered: req could not
// be encoded, or the writer has failed.
func (w *Writer) AppendRequest(req *Request, dl time.Time) (baton bool, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return false, w.err
	}
	buf, err := AppendRequest(w.pending, req)
	if err != nil {
		return false, err // pending keeps its length: the partial frame is dropped
	}
	w.pending = SealFrame(buf, len(w.pending))
	if !dl.IsZero() && (w.dl.IsZero() || dl.Before(w.dl)) {
		w.dl = dl
	}
	baton, w.flushing = !w.flushing, true
	return baton, nil
}

// AppendResponses seals resps into pending as protocol v2 frames, all or
// none, so frames appended together are written together. With wait it
// first waits for room (see WaitRoom). baton and the errors are
// AppendRequest's.
func (w *Writer) AppendResponses(wait bool, resps ...*Response) (baton bool, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for wait && w.limit > 0 && w.frames >= w.limit && w.err == nil {
		w.room.Wait()
	}
	if w.err != nil {
		return false, w.err
	}
	start := len(w.pending)
	for _, r := range resps {
		at := len(w.pending)
		if w.pending, err = AppendResponse(w.pending, r); err != nil {
			w.pending = w.pending[:start]
			return false, err
		}
		w.pending = SealFrame(w.pending, at)
	}
	w.frames += len(resps)
	baton, w.flushing = !w.flushing, true
	return baton, nil
}

// WaitRoom waits while the writer's limit of frames is pending, until a
// flush takes pending or the writer fails, and returns the writer's error.
func (w *Writer) WaitRoom() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.limit > 0 && w.frames >= w.limit && w.err == nil {
		w.room.Wait()
	}
	return w.err
}

// Flush is the baton holder's loop: swap the buffers, write the full one,
// repeat until pending is empty, give the baton back. A failed write keeps
// the baton, fails the writer and is returned. With nothing owed Flush
// writes nothing, so the one goroutine that flushes may call it on any wake.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.pending) > 0 && w.err == nil {
		buf, dl := w.pending, w.dl
		w.pending, w.spare, w.frames, w.dl = w.spare[:0], nil, 0, time.Time{}
		w.room.Broadcast()
		w.mu.Unlock()
		if len(buf) > w.peak && w.onPeak != nil {
			w.peak = len(buf)
			w.onPeak(w.peak)
		}
		if w.timeout > 0 {
			if t := time.Now().Add(w.timeout); dl.IsZero() || t.Before(dl) {
				dl = t
			}
		}
		if !dl.Equal(w.armed) { // an unchanged deadline is not re-armed
			w.nc.SetWriteDeadline(dl)
			w.armed = dl
		}
		if _, err := w.nc.Write(buf); err != nil {
			w.mu.Lock()
			w.fail(fmt.Errorf("%w: %w", ErrWriterClosed, err))
			return err
		}
		w.mu.Lock()
		if cap(buf) <= MaxKeptBuf {
			w.spare = buf
		}
	}
	w.flushing = false
	return w.err
}

// Close fails the writer unless a write did: later appends fail, waiting
// ones wake, and nothing pending is written.
func (w *Writer) Close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.fail(ErrWriterClosed)
}

// fail makes the first error sticky and wakes every wait for room.
//
//dytis:locked w.mu w
func (w *Writer) fail(err error) {
	if w.err == nil {
		w.err = err
	}
	w.room.Broadcast()
}

// Pending returns the bytes sealed into pending that no write has taken.
func (w *Writer) Pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.pending)
}
