package wal

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"dytis/internal/core"
)

// RecoveryInfo reports what Open had to do: which checkpoint it started
// from, how much log it replayed, and whether it discarded a torn tail.
type RecoveryInfo struct {
	// CheckpointSeq is the checkpoint recovery started from; 0 means the
	// directory never checkpointed (recovery was pure log replay).
	CheckpointSeq uint64
	// CheckpointKeys is how many keys that checkpoint loaded.
	CheckpointKeys int
	// CorruptCheckpoints counts newer checkpoints skipped as unreadable.
	CorruptCheckpoints int
	// Segments and Records count what replay processed after the checkpoint.
	Segments int
	Records  int64
	// TornTail reports that the newest segment ended in a partial record —
	// the expected signature of kill -9 mid-append — which was discarded
	// and physically truncated away.
	TornTail bool
	// Elapsed is the wall time of the whole recovery.
	Elapsed time.Duration
}

// Open recovers a Store from dir, creating it if needed.
//
// Recovery: load the newest checkpoint that reads back valid (falling back
// past corrupt ones — each costs a CorruptCheckpoints tick), then replay
// the segments at and after its sequence number in order. If checkpoints
// exist but none reads back, Open fails with ErrCorrupt: the log before the
// oldest checkpoint was truncated when it was taken, so a fresh index plus
// the surviving tail would be silent data loss, not recovery. A torn
// record at the tail of the newest segment is tolerated:
// everything after the last valid record is discarded and truncated away,
// so the invariant "torn tails only ever appear in the newest segment"
// survives repeated crashes. A bad record anywhere else — or a gap in the
// segment sequence — is real corruption and fails with ErrCorrupt: errors
// are acceptable, silently wrong answers are not.
//
// Appends then resume in a fresh segment after the newest existing one;
// recovered segments are never appended to again.
func Open(dir string, o Options) (*Store, error) {
	start := time.Now()
	opts := o.withDefaults()
	m := opts.Metrics
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:      dir,
		opts:     opts,
		m:        m,
		ckptKick: make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}

	segs, ckpts, err := scanDir(dir, s.logf)
	if err != nil {
		return nil, err
	}

	// Newest checkpoint that loads cleanly wins; corrupt ones are skipped
	// (they stay on disk for forensics until the next checkpoint truncation).
	slices.SortFunc(ckpts, func(a, b uint64) int { return cmp.Compare(b, a) }) // descending
	for _, cq := range ckpts {
		idx := core.New(opts.Index)
		if err := idx.ReadSnapshotFile(filepath.Join(dir, checkpointName(cq))); err != nil {
			s.logf("wal: skipping corrupt checkpoint %d: %v", cq, err)
			s.info.CorruptCheckpoints++
			continue
		}
		s.idx, s.info.CheckpointSeq, s.info.CheckpointKeys = idx, cq, idx.Len()
		break
	}
	if s.idx == nil {
		// No checkpoint loaded. If checkpoints existed but none read back,
		// the data they subsumed is gone — the segments before the oldest
		// checkpoint were truncated away when it was taken, so starting
		// fresh and replaying the surviving tail would silently drop every
		// acked write the checkpoints held. Errors are acceptable, silent
		// loss is not.
		if s.info.CorruptCheckpoints > 0 {
			return nil, fmt.Errorf("%w: all %d checkpoints unreadable, newest %d — refusing to recover from the log tail alone",
				ErrCorrupt, s.info.CorruptCheckpoints, ckpts[0])
		}
		s.idx = core.New(opts.Index)
	}

	// Replay segments >= the checkpoint, in order, contiguously.
	slices.Sort(segs)
	replay := segs[:0:0]
	for _, sq := range segs {
		if sq >= s.info.CheckpointSeq {
			replay = append(replay, sq)
		}
	}
	if c := s.info.CheckpointSeq; c != 0 && (len(replay) == 0 || replay[0] != c) {
		return nil, fmt.Errorf("%w: checkpoint %d present but segment %d missing", ErrCorrupt, c, c)
	}
	for i, sq := range replay {
		if i > 0 && sq != replay[i-1]+1 {
			return nil, fmt.Errorf("%w: segment gap: %d follows %d", ErrCorrupt, sq, replay[i-1])
		}
		if err := s.replaySegment(sq, i == len(replay)-1); err != nil {
			return nil, err
		}
		s.info.Segments++
	}

	// Appends go to a fresh segment: one past the newest, or — with a
	// checkpoint and no segments at all — the checkpoint's own number, so
	// the ckpt-n ⇒ replay-from-segment-n convention holds either way.
	next := uint64(1)
	if len(segs) > 0 {
		next = segs[len(segs)-1] + 1
	} else if s.info.CheckpointSeq > 0 {
		next = s.info.CheckpointSeq
	}
	log, err := openLog(dir, next, opts.Fsync, m)
	if err != nil {
		return nil, err
	}
	log.onRotate, log.onSync = opts.Hooks.Rotate, opts.Hooks.Sync
	s.log = log

	s.info.Elapsed = time.Since(start)
	m.replayedRecords.Store(s.info.Records)
	m.recoveryNS.Store(s.info.Elapsed.Nanoseconds())
	go s.run()
	return s, nil
}

// replaySegment applies one segment's records to the recovering index.
// newest tells it whether torn-tail tolerance applies.
func (s *Store) replaySegment(seq uint64, newest bool) error {
	path := filepath.Join(s.dir, segmentName(seq))
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("%w: segment %d: %v", ErrCorrupt, seq, err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	insert := func(k, v uint64) { s.idx.Insert(k, v) }
	del := func(k uint64) { s.idx.Delete(k) }

	var buf []byte
	var valid int64 // byte offset past the last fully applied record
	for {
		var payload []byte
		payload, buf, err = readRecord(br, buf)
		if err == io.EOF {
			return nil
		}
		if err == nil {
			err = replayPayload(payload, insert, del)
		}
		if err != nil {
			if !newest || !errors.Is(err, errTorn) {
				return fmt.Errorf("%w: segment %d at offset %d: %v", ErrCorrupt, seq, valid, err)
			}
			// Torn tail of the newest segment: the crash signature. Discard
			// it and truncate the file so the segment replays cleanly once
			// it is no longer the newest.
			s.logf("wal: discarding torn tail of segment %d at offset %d: %v", seq, valid, err)
			s.info.TornTail = true
			s.m.tornTails.Add(1)
			if err := truncateAt(path, valid); err != nil {
				return fmt.Errorf("wal: truncating torn tail of segment %d: %w", seq, err)
			}
			return nil
		}
		valid += recHeaderLen + int64(len(payload))
		s.info.Records++
	}
}

// truncateAt cuts a segment to length n and fsyncs the result.
func truncateAt(path string, n int64) error {
	if err := os.Truncate(path, n); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// scanDir inventories a WAL directory: segment and checkpoint sequence
// numbers, sweeping the temp files an interrupted checkpoint leaves behind.
// Unrecognized names are reported and left alone.
func scanDir(dir string, logf func(string, ...any)) (segs, ckpts []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir():
		case strings.Contains(name, ".tmp"):
			// An interrupted checkpoint's unrenamed snapshot: never valid,
			// safe to sweep.
			if err := os.Remove(filepath.Join(dir, name)); err != nil && logf != nil {
				logf("wal: sweeping %s: %v", name, err)
			}
		default:
			if seq, ok := parseSeq(name, "wal-", ".log"); ok {
				segs = append(segs, seq)
			} else if seq, ok := parseSeq(name, "ckpt-", ".snap"); ok {
				ckpts = append(ckpts, seq)
			} else if logf != nil {
				logf("wal: ignoring unrecognized file %s", name)
			}
		}
	}
	return segs, ckpts, nil
}

func removeFile(dir, name string) error {
	if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}
