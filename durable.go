package dytis

import (
	"time"

	"dytis/internal/core"
	"dytis/internal/obs"
	"dytis/internal/wal"
)

// Durable persistence. OpenDurable wraps an index in the internal/wal
// durability subsystem: every mutation is appended to a checksummed
// write-ahead log before it is applied, the log is compacted by periodic
// snapshot checkpoints, and reopening the same directory recovers the index
// (newest valid checkpoint + log replay, tolerating the torn final record a
// kill -9 leaves behind):
//
//	store, err := dytis.OpenDurable("/var/lib/dytis", dytis.DurableConfig{
//		Fsync: dytis.FsyncAlways, // acked writes are on stable storage
//	}, dytis.WithConcurrent())
//	defer store.Close()
//	err = store.Insert(42, 1) // nil = durably logged
//
// Mutations on a DurableStore return errors (the durability ack can fail)
// and commit in groups — concurrent callers share one log write and one
// fsync; reads go straight to the in-memory index. See the internal/wal package
// documentation and DESIGN.md's durability section for the on-disk format
// and the exact crash-consistency guarantees per fsync policy.

// DurableStore is a DyTIS index fronted by a write-ahead log and
// checkpoints. Open with OpenDurable, mutate with the error-returning
// methods, stop with Close.
type DurableStore = wal.Store

// WALMetrics collects the dytis_wal_* durability series.
type WALMetrics = wal.Metrics

// RecoveryInfo reports what OpenDurable had to do (checkpoint used, records
// replayed, torn tail discarded); see DurableStore.Recovery.
type RecoveryInfo = wal.RecoveryInfo

// FsyncPolicy says when logged records are forced to stable storage.
type FsyncPolicy = wal.FsyncPolicy

// The fsync policies, from fastest to most durable. FsyncAlways makes every
// acked mutation crash-proof; FsyncInterval bounds loss to one sync
// interval; FsyncOff leaves flushing to the OS and checkpoints.
const (
	FsyncOff      = wal.FsyncOff
	FsyncInterval = wal.FsyncInterval
	FsyncAlways   = wal.FsyncAlways
)

// ParseFsyncPolicy maps the strings off, interval, always to their policies
// (the -fsync flag surface of cmd/dytis-server).
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return wal.ParseFsyncPolicy(s) }

// Typed failures of the durability and snapshot paths, for errors.Is.
var (
	// ErrWALCorrupt: recovery met corruption torn-tail tolerance cannot
	// excuse (a bad record before the newest segment's tail, a segment
	// gap). OpenDurable fails rather than serve wrong answers.
	ErrWALCorrupt = wal.ErrCorrupt
	// ErrStoreClosed: a mutation reached a DurableStore after Close.
	ErrStoreClosed = wal.ErrClosed
	// ErrStoreFailed: a log append or sync failed; the store refuses all
	// later mutations (reads keep working) so it cannot ack writes it
	// cannot make durable.
	ErrStoreFailed = wal.ErrFailed
	// ErrSnapshotCorrupt: ReadSnapshot rejected the input (bad magic,
	// lying pair count, unsorted keys, torn tail).
	ErrSnapshotCorrupt = core.ErrSnapshotCorrupt
	// ErrSnapshotRaced: WriteSnapshot observed concurrent mutation and
	// aborted rather than emit an inconsistent image.
	ErrSnapshotRaced = core.ErrSnapshotRaced
	// ErrIndexClosed: a batch mutation reached a plain Index after Close.
	ErrIndexClosed = core.ErrClosed
)

// DurableConfig tunes the durability subsystem; the zero value gives
// OS-flushed (FsyncOff) logging with default checkpoint thresholds. Index
// geometry and concurrency come from the functional options passed to
// OpenDurable, same as New.
type DurableConfig struct {
	// Fsync is the append-path durability policy.
	Fsync FsyncPolicy
	// FsyncInterval is the background sync cadence under FsyncInterval
	// (default 50ms).
	FsyncInterval time.Duration
	// CheckpointInterval, when positive, checkpoints on a timer in
	// addition to the size trigger.
	CheckpointInterval time.Duration
	// CheckpointBytes triggers a checkpoint once that many log bytes
	// accumulate past the last one (default 64 MiB; negative disables).
	CheckpointBytes int64
	// SegmentBytes bounds one log segment file (default 16 MiB; negative
	// disables size-based rotation).
	SegmentBytes int64
	// Metrics, when non-nil, receives the dytis_wal_* series.
	Metrics *WALMetrics
	// Logf, when non-nil, receives one line per notable durability event.
	Logf func(format string, args ...any)
}

// OpenDurable opens (creating or recovering) a durable store rooted at dir.
// The variadic options configure the in-memory index exactly as for New;
// pass WithConcurrent when the store is shared across goroutines.
func OpenDurable(dir string, cfg DurableConfig, opts ...Option) (*DurableStore, error) {
	var o core.Options
	for _, apply := range opts {
		apply(&o)
	}
	s, err := wal.Open(dir, wal.Options{
		Index:              o,
		Fsync:              cfg.Fsync,
		FsyncInterval:      cfg.FsyncInterval,
		CheckpointInterval: cfg.CheckpointInterval,
		CheckpointBytes:    cfg.CheckpointBytes,
		SegmentBytes:       cfg.SegmentBytes,
		Metrics:            cfg.Metrics,
		Logf:               cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	// Same observer completion as New: the exporter serves Stats and
	// MemoryFootprint from the recovered index.
	if ob, ok := o.Observer.(*obs.Observer); ok && ob != nil {
		ob.Attach(s.Index())
	}
	return s, nil
}
