// Package wal is the durability subsystem: a write-ahead log plus periodic
// checkpoints in one directory, wrapped around the in-memory index as a
// Store. Every mutation is framed, checksummed, and appended to the active
// log segment before it is applied (and, under FsyncAlways, fsynced before
// it is applied and before the call returns — the ack). Mutations commit in
// groups: whatever queued while the previous group was being written shares
// one write and one fsync (see commit.go). A checkpoint is a full snapshot
// on the WriteSnapshot/LoadSorted fast path, committed by atomic rename,
// after which the segments it subsumes are deleted. Recovery is Open: load the
// newest valid checkpoint, replay the segments after it in order, tolerate
// exactly one torn record at the tail of the newest segment (the expected
// signature of kill -9 mid-append), and refuse — with a typed error — any
// other corruption.
//
// Directory layout (all names zero-padded so lexical order = numeric order):
//
//	wal-0000000000000001.log    log segments, immutable once rotated
//	wal-0000000000000002.log    ← active segment (largest sequence)
//	ckpt-0000000000000002.snap  snapshot; replay resumes AT segment 2
//
// A checkpoint's sequence number names the first segment whose records are
// NOT contained in it: checkpointing rotates to a fresh segment n, then
// snapshots the index (which holds everything through segment n-1), so
// recovery = load ckpt-n + replay segments ≥ n. Snapshots land under a
// temporary name and are renamed into place only when fully written and
// fsynced — a crash mid-checkpoint leaves a *.tmp file (swept by Open),
// never a half checkpoint with a valid name.
package wal

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dytis/internal/fsutil"
)

// FsyncPolicy says when appended records are forced to stable storage.
type FsyncPolicy int

const (
	// FsyncOff never syncs on the append path; the OS flushes when it
	// pleases. Crash durability is bounded only by checkpoints. Fastest.
	FsyncOff FsyncPolicy = iota
	// FsyncInterval syncs the active segment on a background timer
	// (Options.FsyncInterval). A crash loses at most one interval of acked
	// writes. The default.
	FsyncInterval
	// FsyncAlways syncs every commit group before it is applied and before
	// any of its mutations returns: an acked write is on stable storage, and
	// the index never holds a record a crash could lose. The guarantee the
	// crash matrix proves, at the price of one fsync per group — a lone
	// writer pays it per mutation, concurrent writers share it.
	FsyncAlways
)

// ParseFsyncPolicy maps the -fsync flag values off|interval|always.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "off":
		return FsyncOff, nil
	case "interval":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want off, interval, or always)", s)
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncOff:
		return "off"
	case FsyncInterval:
		return "interval"
	case FsyncAlways:
		return "always"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

func segmentName(seq uint64) string    { return fmt.Sprintf("wal-%016d.log", seq) }
func checkpointName(seq uint64) string { return fmt.Sprintf("ckpt-%016d.snap", seq) }

func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if len(name) != len(prefix)+16+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	var seq uint64
	for _, c := range name[len(prefix) : len(prefix)+16] {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(c-'0')
	}
	return seq, true
}

// walLog is the segmented appender. It is not self-synchronizing: every
// method runs under the owning Store's mu (lockcheck's guarded-by marker
// only names sibling mutexes, so the discipline is stated here instead) —
// the committer holds it for one whole group, everything else runs between
// groups — which is what makes log order equal apply order.
type walLog struct {
	dir     string
	policy  FsyncPolicy
	metrics *Metrics

	f     *os.File      // active segment
	bw    *bufio.Writer // buffers f
	seq   uint64        // active segment sequence
	size  int64         // bytes appended to the active segment
	dirty bool          // appended bytes not yet fsynced

	// onRotate, when non-nil, is called at the named stages of a rotation
	// ("sealed": old segment durable and closed, new one not yet created).
	// The crash matrix lands kill -9 there.
	onRotate func(stage string)
	// onSync, when non-nil, runs immediately before every fsync of a
	// segment; an error it returns fails that fsync (Hooks.Sync).
	onSync func() error
}

// openLog creates and syncs a fresh active segment with the given sequence
// number. The directory entry is fsynced so the segment's existence survives
// a crash.
func openLog(dir string, seq uint64, policy FsyncPolicy, m *Metrics) (*walLog, error) {
	f, err := os.OpenFile(filepath.Join(dir, segmentName(seq)), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	if err := fsutil.SyncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	m.activeSegment.Store(int64(seq))
	return &walLog{dir: dir, policy: policy, metrics: m, f: f, bw: bufio.NewWriterSize(f, 1<<16), seq: seq}, nil
}

// append writes one commit group — one or more framed records, already
// encoded into rec — and, under FsyncAlways, forces it to stable storage
// before returning.
func (l *walLog) append(rec []byte, nrecords int) error {
	if _, err := l.bw.Write(rec); err != nil {
		return err
	}
	l.size += int64(len(rec))
	l.dirty = true
	l.metrics.groups.Add(1)
	l.metrics.appends.Add(int64(nrecords))
	l.metrics.bytes.Add(int64(len(rec)))
	if l.policy == FsyncAlways {
		return l.sync()
	}
	return nil
}

// sync flushes buffered bytes and fsyncs the active segment.
func (l *walLog) sync() error {
	if !l.dirty {
		return nil
	}
	if err := l.bw.Flush(); err != nil {
		return err
	}
	if err := l.fsync(); err != nil {
		return err
	}
	l.dirty = false
	return nil
}

// fsync forces the active segment's flushed bytes to stable storage.
func (l *walLog) fsync() error {
	if l.onSync != nil {
		if err := l.onSync(); err != nil {
			return err
		}
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.metrics.fsync(time.Since(start).Nanoseconds())
	return nil
}

// rotate seals the active segment (flush, fsync, close) and opens segment
// seq+1. After rotate returns, the old segment is immutable and fully on
// stable storage.
func (l *walLog) rotate() error {
	if err := l.bw.Flush(); err != nil {
		return err
	}
	if err := l.fsync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	if l.onRotate != nil {
		l.onRotate("sealed")
	}
	seq := l.seq + 1
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(seq)), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if err := fsutil.SyncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f, l.bw, l.seq, l.size, l.dirty = f, bufio.NewWriterSize(f, 1<<16), seq, 0, false
	l.metrics.rotations.Add(1)
	l.metrics.activeSegment.Store(int64(seq))
	return nil
}

// close seals the active segment and closes it.
func (l *walLog) close() error {
	if err := l.sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}
