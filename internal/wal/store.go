package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"dytis/internal/core"
	"dytis/internal/fsutil"
	"dytis/internal/kv"
)

// Store is a DyTIS index fronted by the write-ahead log: mutations are
// logged (and, under FsyncAlways, on stable storage) before they touch the
// index, reads go straight through. Open recovers one from its directory;
// Close seals the log.
//
// Concurrency: mutations queue and commit in groups (commit.go) — one
// committer at a time holds mu for a group's write, fsync and apply, so log
// order = apply order, the invariant recovery depends on and what lets the
// crash matrix assert exact prefixes. Concurrent callers of the synchronous
// mutation methods share fsyncs; Serving's Submit methods queue without
// waiting. Checkpoint, Sync, Close and the interval-sync ticker take the same
// mu and so run between groups, never inside one. Reads bypass both mutexes
// and run against the index concurrently with a group being applied, so
// Options.Index.Concurrent must be set when the Store is shared across
// goroutines (cmd/dytis-server does); under FsyncAlways they can never
// observe a record that is not yet durable. A checkpoint holds mu for its
// whole snapshot write: mutations queue up behind it, reads do not.
type Store struct {
	dir  string
	opts Options
	idx  *core.DyTIS
	m    *Metrics
	info RecoveryInfo

	// The commit queue. groups[open] takes enqueues under qmu; the other
	// group belongs to the running committer (or is empty).
	qmu        sync.Mutex
	groups     [2]group // guarded-by: qmu
	open       int      // guarded-by: qmu
	committing bool     // guarded-by: qmu; a committer is running (or about to)

	mu        sync.Mutex
	log       *walLog // guarded-by: mu
	sinceCkpt int64   // guarded-by: mu; bytes appended since the last checkpoint
	err       error   // guarded-by: mu; first log failure; poisons all later mutations
	closed    bool    // guarded-by: mu

	ckptKick chan struct{} // size-triggered checkpoint nudge, capacity 1
	stop     chan struct{} // closed by Close
	done     chan struct{} // closed when the background loop exits
}

// Options configures Open. The zero value is serviceable: an in-memory
// index with default geometry, interval fsync at the default cadence, and
// size-triggered checkpoints.
type Options struct {
	// Index configures the underlying in-memory index. Set Concurrent when
	// the Store will be used from more than one goroutine.
	Index core.Options
	// Fsync is the append-path durability policy (default FsyncOff is the
	// zero value — cmd/dytis-server defaults the flag to "interval").
	Fsync FsyncPolicy
	// FsyncInterval is the background sync cadence under FsyncInterval
	// (default 50ms).
	FsyncInterval time.Duration
	// CheckpointInterval, when positive, checkpoints on a timer regardless
	// of write volume.
	CheckpointInterval time.Duration
	// CheckpointBytes triggers a checkpoint once that many WAL bytes
	// accumulate past the last one (default 64 MiB; negative disables).
	CheckpointBytes int64
	// SegmentBytes rotates the active segment past this size even without a
	// checkpoint, bounding single-file size and recovery read granularity
	// (default 16 MiB; negative disables).
	SegmentBytes int64
	// Metrics, when non-nil, receives the dytis_wal_* series.
	Metrics *Metrics
	// Logf, when non-nil, receives one line per notable durability event
	// (torn tail discarded, corrupt checkpoint skipped, checkpoint failure).
	Logf func(format string, args ...any)
	// Hooks are test seams; see Hooks. Nil funcs cost nothing.
	Hooks Hooks
}

// Hooks expose the exact instants the crash matrix needs to kill -9 at: a
// hook that never returns (SIGKILL to self) lands the crash between two
// specific filesystem operations, deterministically.
type Hooks struct {
	// Rotate is called from inside segment rotation; stage "sealed" means
	// the old segment is durable and closed but the new one does not exist
	// yet.
	Rotate func(stage string)
	// Checkpoint is called at checkpoint stages: "begin" (mutex held,
	// nothing done), "rotated" (fresh segment open, snapshot not started),
	// "written" (snapshot renamed into place and durable, old segments not
	// yet deleted), "done".
	Checkpoint func(stage string)
	// Sync is called, with the store mutex held, immediately before every
	// fsync of a log segment. Blocking in it holds a commit group open at
	// its fsync; returning an error fails that fsync.
	Sync func() error
}

var (
	// ErrClosed is returned by mutations on a closed Store.
	ErrClosed = errors.New("wal: store closed")
	// ErrFailed wraps the first log failure; once a Store fails, every later
	// mutation returns it (the log can no longer be trusted to take a
	// record, so continuing to ack writes would promise durability it cannot
	// honor). The group whose write or fsync failed is not applied. Reads
	// keep working. Match with errors.Is.
	ErrFailed = errors.New("wal: store failed")
)

func (o *Options) withDefaults() Options {
	opts := *o
	if opts.FsyncInterval <= 0 {
		opts.FsyncInterval = 50 * time.Millisecond
	}
	if opts.CheckpointBytes == 0 {
		opts.CheckpointBytes = 64 << 20
	}
	if opts.SegmentBytes == 0 {
		opts.SegmentBytes = 16 << 20
	}
	if opts.Metrics == nil {
		opts.Metrics = &Metrics{}
	}
	return opts
}

func (s *Store) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// readyLocked gates every mutation: a closed store returns ErrClosed, a
// failed one its poisoned error.
//
//dytis:locked s.mu w
func (s *Store) readyLocked() error {
	if s.closed {
		return ErrClosed
	}
	return s.err
}

// failLocked poisons the store with a log failure and returns the wrapped
// error the caller (and every mutation after it) reports.
//
//dytis:locked s.mu w
func (s *Store) failLocked(op string, err error) error {
	s.err = fmt.Errorf("%w: %s: %v", ErrFailed, op, err)
	s.logf("wal: store failed: %s: %v", op, err)
	return s.err
}

// Insert durably logs then applies one insert. It returns once the record
// is appended (and on stable storage, under FsyncAlways): a nil return is
// the durability ack.
func (s *Store) Insert(key, val uint64) error {
	o := newOp(kindInsert)
	o.key, o.val = key, val
	s.commit(o)
	err := o.err
	o.release()
	return err
}

// Delete durably logs then applies one delete, reporting whether the key
// was present. Deletes of absent keys are logged too — replay makes them
// the same no-op.
func (s *Store) Delete(key uint64) (bool, error) {
	o := newOp(kindDelete)
	o.key = key
	s.commit(o)
	found, err := o.found, o.err
	o.release()
	return found, err
}

// InsertBatch durably logs then applies a batch of inserts as one append:
// the batch never spans two commit groups, so it costs at most one fsync.
func (s *Store) InsertBatch(keys, vals []uint64) error {
	if err := batchLengths(keys, vals); err != nil || len(keys) == 0 {
		return err
	}
	o := newOp(kindInsertBatch)
	o.keys, o.vals = keys, vals
	s.commit(o)
	err := o.err
	o.release()
	return err
}

// batchLengths refuses an insert batch whose keys and values do not pair up.
func batchLengths(keys, vals []uint64) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("wal: insert batch of %d keys and %d values", len(keys), len(vals))
	}
	return nil
}

// DeleteBatch durably logs then applies a batch of deletes, appending the
// per-key found results to found.
func (s *Store) DeleteBatch(keys []uint64, found []bool) ([]bool, error) {
	if len(keys) == 0 {
		return found, nil
	}
	o := newOp(kindDeleteBatch)
	o.keys, o.founds = keys, found
	s.commit(o)
	found, err := o.founds, o.err
	o.release()
	return found, err
}

// Get reads through to the index, bypassing the store mutex.
func (s *Store) Get(key uint64) (uint64, bool) { return s.idx.Get(key) }

// Scan reads through to the index, bypassing the store mutex.
func (s *Store) Scan(start uint64, max int, dst []kv.KV) []kv.KV {
	return s.idx.Scan(start, max, dst)
}

// GetBatch reads through to the index, bypassing the store mutex.
func (s *Store) GetBatch(keys []uint64, vals []uint64, found []bool) ([]uint64, []bool) {
	return s.idx.GetBatch(keys, vals, found)
}

// Len reads through to the index.
func (s *Store) Len() int { return s.idx.Len() }

// Index exposes the underlying in-memory index for inspection (check.Check,
// snapshot export). Mutating it directly bypasses the log and forfeits the
// durability guarantee.
func (s *Store) Index() *core.DyTIS { return s.idx }

// Recovery reports what Open had to do to bring this store up.
func (s *Store) Recovery() RecoveryInfo { return s.info }

// Metrics returns the store's metrics instance (the one passed in Options,
// or the internally created one).
func (s *Store) Metrics() *Metrics { return s.m }

// Sync forces buffered log records to stable storage, regardless of policy.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.readyLocked(); err != nil {
		return err
	}
	if err := s.log.sync(); err != nil {
		return s.failLocked("sync", err)
	}
	return nil
}

// Checkpoint snapshots the index and truncates the log it subsumes:
// rotate to a fresh segment n (reusing the current one when it is still
// empty, as after a failed attempt), write ckpt-n via the temp+rename
// snapshot path, then delete segments and checkpoints older than n.
// Mutations stall for the duration; reads do not. A snapshot-write failure
// leaves the store serving (the log is intact, the previous checkpoint
// still stands) and resets the size trigger so retries are paced by fresh
// write volume rather than storming; a rotation failure poisons the store
// like any log failure.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.readyLocked(); err != nil {
		return err
	}
	return s.checkpointLocked()
}

//dytis:locked s.mu w
func (s *Store) checkpointLocked() error {
	start := time.Now()
	hook := s.opts.Hooks.Checkpoint
	if hook != nil {
		hook("begin")
	}
	// Rotate so the snapshot's sequence names a segment boundary — unless
	// the active segment is still empty (typically because a previous
	// attempt rotated and then failed to write its snapshot), in which case
	// that boundary is reused: retrying must not mint a fresh near-empty
	// segment per attempt.
	if s.log.size > 0 {
		if err := s.log.rotate(); err != nil {
			s.m.checkpointFails.Add(1)
			return s.failLocked("checkpoint rotate", err)
		}
	}
	seq := s.log.seq
	if hook != nil {
		hook("rotated")
	}
	if err := s.idx.WriteSnapshotFile(filepath.Join(s.dir, checkpointName(seq))); err != nil {
		s.m.checkpointFails.Add(1)
		// Pace the retry: leaving sinceCkpt over the trigger would re-kick a
		// checkpoint on every subsequent append — a failure storm exactly
		// when the disk is already struggling (ENOSPC, typically). Another
		// CheckpointBytes of writes, or the interval timer, tries again.
		s.sinceCkpt = 0
		s.logf("wal: checkpoint %d failed (store keeps serving): %v", seq, err)
		return fmt.Errorf("wal: checkpoint %d: %w", seq, err)
	}
	if hook != nil {
		hook("written")
	}
	s.truncateLocked(seq)
	s.sinceCkpt = 0
	s.m.checkpoints.Add(1)
	s.m.checkpointNS.Add(time.Since(start).Nanoseconds())
	if hook != nil {
		hook("done")
	}
	return nil
}

// truncateLocked deletes segments and checkpoints subsumed by the durable
// checkpoint at seq. Failures are logged and left for the next checkpoint —
// stale files cost disk, never correctness (recovery picks the newest valid
// checkpoint and ignores segments before it).
func (s *Store) truncateLocked(seq uint64) {
	segs, ckpts, err := scanDir(s.dir, s.logf)
	if err != nil {
		s.logf("wal: truncate scan: %v", err)
		return
	}
	for _, sq := range segs {
		if sq < seq {
			if err := removeFile(s.dir, segmentName(sq)); err != nil {
				s.logf("wal: truncate: %v", err)
			}
		}
	}
	for _, cq := range ckpts {
		if cq < seq {
			if err := removeFile(s.dir, checkpointName(cq)); err != nil {
				s.logf("wal: truncate: %v", err)
			}
		}
	}
	if err := fsutil.SyncDir(s.dir); err != nil {
		s.logf("wal: truncate dir sync: %v", err)
	}
}

// run is the background loop: interval fsync, timed checkpoints, and
// size-triggered checkpoint kicks.
func (s *Store) run() {
	defer close(s.done)
	var syncC, ckptC <-chan time.Time
	if s.opts.Fsync == FsyncInterval {
		t := time.NewTicker(s.opts.FsyncInterval)
		defer t.Stop()
		syncC = t.C
	}
	if s.opts.CheckpointInterval > 0 {
		t := time.NewTicker(s.opts.CheckpointInterval)
		defer t.Stop()
		ckptC = t.C
	}
	for {
		select {
		case <-s.stop:
			return
		case <-syncC:
			s.mu.Lock()
			if s.closed || s.err != nil {
				s.mu.Unlock()
				continue
			}
			if err := s.log.sync(); err != nil {
				s.failLocked("interval sync", err)
			}
			s.mu.Unlock()
		case <-ckptC:
			s.backgroundCheckpoint()
		case <-s.ckptKick:
			s.backgroundCheckpoint()
		}
	}
}

func (s *Store) backgroundCheckpoint() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.err != nil {
		return
	}
	if err := s.checkpointLocked(); err != nil {
		s.logf("wal: background checkpoint: %v", err)
	}
}

// Close stops the background loop, seals the log (flush + fsync + close),
// and closes the index. The directory then reopens via Open with no replay
// work beyond the segments since the last checkpoint. Close is idempotent;
// mutations after it return ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	<-s.done

	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	if err := s.log.close(); err != nil && s.err == nil {
		first = err
	}
	if err := s.idx.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// Serving adapts the Store to server.Index — reads through — plus
// cluster.Committer, the one way a node writes to it: every Submit reports
// a log failure as its completion's error, and once the store is poisoned
// every later one fails the same way. It has no synchronous mutator.
func (s *Store) Serving() ServingIndex { return ServingIndex{s} }

// ServingIndex is the adapter returned by Store.Serving.
type ServingIndex struct {
	s *Store
}

// SubmitInsert queues one insert; done receives the commit's outcome.
func (x ServingIndex) SubmitInsert(key, val uint64, done doneFunc) {
	o := newOp(kindInsert)
	o.key, o.val, o.done = key, val, done
	x.s.submit(o)
}

// SubmitDelete queues one delete; done receives whether the key was present.
func (x ServingIndex) SubmitDelete(key uint64, done doneFunc) {
	o := newOp(kindDelete)
	o.key, o.done = key, done
	x.s.submit(o)
}

// SubmitInsertBatch queues a batch of inserts as one record group.
func (x ServingIndex) SubmitInsertBatch(keys, vals []uint64, done doneFunc) {
	if err := batchLengths(keys, vals); err != nil || len(keys) == 0 {
		done(false, nil, err)
		return
	}
	o := newOp(kindInsertBatch)
	o.keys, o.vals, o.done = keys, vals, done
	x.s.submit(o)
}

// SubmitDeleteBatch queues a batch of deletes; done receives found extended
// by the per-key results.
func (x ServingIndex) SubmitDeleteBatch(keys []uint64, found []bool, done doneFunc) {
	if len(keys) == 0 {
		done(false, found, nil)
		return
	}
	o := newOp(kindDeleteBatch)
	o.keys, o.founds, o.done = keys, found, done
	x.s.submit(o)
}

// Barrier returns once every mutation submitted before it has committed or
// failed: it is an empty op through the commit queue.
func (x ServingIndex) Barrier() {
	o := newOp(kindBarrier)
	x.s.commit(o)
	o.release()
}

// Get reads through.
func (x ServingIndex) Get(key uint64) (uint64, bool) { return x.s.Get(key) }

// Scan reads through.
func (x ServingIndex) Scan(start uint64, max int, dst []kv.KV) []kv.KV {
	return x.s.Scan(start, max, dst)
}

// GetBatch reads through.
func (x ServingIndex) GetBatch(keys []uint64, vals []uint64, found []bool) ([]uint64, []bool) {
	return x.s.GetBatch(keys, vals, found)
}

// Len reads through.
func (x ServingIndex) Len() int { return x.s.Len() }
