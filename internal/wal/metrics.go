package wal

import (
	"fmt"
	"io"
	"sync/atomic"
)

// Metrics collects durability-side observability: append/fsync volume and
// latency, checkpoint cadence and cost, and what the last recovery had to do.
// All methods are safe for concurrent use; the zero value is ready. Pass one
// instance in Options and serve it next to the index observer and server
// metrics on the same /metrics endpoint (cmd/dytis-server does).
type Metrics struct {
	//dytis:series dytis_wal_appends_total
	appends atomic.Int64 // records appended (batch split counts each record)
	//dytis:series dytis_wal_commit_groups_total
	groups atomic.Int64 // commit groups appended: one write and, under FsyncAlways, one fsync each
	//dytis:series dytis_wal_bytes_total
	bytes atomic.Int64 // framed bytes appended
	//dytis:series dytis_wal_fsyncs_total
	fsyncs atomic.Int64 // fsync calls on the active segment
	//dytis:series dytis_wal_fsync_nanoseconds_total
	fsyncNS atomic.Int64 // time spent in those fsyncs
	//dytis:series dytis_wal_rotations_total
	rotations atomic.Int64 // segment rotations
	//dytis:series dytis_wal_active_segment
	activeSegment atomic.Int64 // sequence number of the segment taking appends

	//dytis:series dytis_wal_checkpoints_total
	checkpoints atomic.Int64 // checkpoints committed
	//dytis:series dytis_wal_checkpoint_nanoseconds_total
	checkpointNS atomic.Int64 // time spent writing committed checkpoints
	//dytis:series dytis_wal_checkpoint_failures_total
	checkpointFails atomic.Int64 // checkpoint attempts that failed (store keeps serving)

	// Recovery facts from the most recent Open on this Metrics instance.

	//dytis:series dytis_wal_recovery_replayed_records
	replayedRecords atomic.Int64 // records replayed by the last recovery
	//dytis:series dytis_wal_recovery_torn_tails_total
	tornTails atomic.Int64 // torn tails discarded across recoveries
	//dytis:series dytis_wal_recovery_nanoseconds
	recoveryNS atomic.Int64 // wall time of the last recovery
}

func (m *Metrics) fsync(ns int64) {
	m.fsyncs.Add(1)
	m.fsyncNS.Add(ns)
}

// Appends returns the number of records appended.
func (m *Metrics) Appends() int64 { return m.appends.Load() }

// CommitGroups returns the number of commit groups appended; Appends over
// CommitGroups is the mean group size.
func (m *Metrics) CommitGroups() int64 { return m.groups.Load() }

// Bytes returns the number of framed bytes appended.
func (m *Metrics) Bytes() int64 { return m.bytes.Load() }

// Fsyncs returns the number of fsync calls issued on the active segment.
func (m *Metrics) Fsyncs() int64 { return m.fsyncs.Load() }

// Rotations returns the number of segment rotations.
func (m *Metrics) Rotations() int64 { return m.rotations.Load() }

// ActiveSegment returns the sequence number of the segment taking appends.
func (m *Metrics) ActiveSegment() int64 { return m.activeSegment.Load() }

// Checkpoints returns the number of committed checkpoints.
func (m *Metrics) Checkpoints() int64 { return m.checkpoints.Load() }

// CheckpointFailures returns the number of failed checkpoint attempts.
func (m *Metrics) CheckpointFailures() int64 { return m.checkpointFails.Load() }

// ReplayedRecords returns how many records the last recovery replayed.
func (m *Metrics) ReplayedRecords() int64 { return m.replayedRecords.Load() }

// TornTails returns how many torn segment tails recoveries have discarded.
func (m *Metrics) TornTails() int64 { return m.tornTails.Load() }

// Every series this exporter registers must appear in the metric tables of
// the listed docs; metriccheck enforces it.
//
//dytis:metric-docs ../../README.md ../../DESIGN.md

// WritePrometheus writes the WAL metrics in the Prometheus text exposition
// format.
func (m *Metrics) WritePrometheus(w io.Writer) {
	series := []struct {
		name, typ, help string
		v               int64
	}{
		{"dytis_wal_appends_total", "counter", "WAL records appended (split batch records counted individually).", m.appends.Load()},
		{"dytis_wal_commit_groups_total", "counter", "Commit groups appended to the WAL (appends over groups is the mean group size).", m.groups.Load()},
		{"dytis_wal_bytes_total", "counter", "Framed bytes appended to the WAL.", m.bytes.Load()},
		{"dytis_wal_fsyncs_total", "counter", "fsync calls issued on the active WAL segment.", m.fsyncs.Load()},
		{"dytis_wal_fsync_nanoseconds_total", "counter", "Time spent in WAL segment fsyncs.", m.fsyncNS.Load()},
		{"dytis_wal_rotations_total", "counter", "WAL segment rotations.", m.rotations.Load()},
		{"dytis_wal_active_segment", "gauge", "Sequence number of the WAL segment taking appends.", m.activeSegment.Load()},
		{"dytis_wal_checkpoints_total", "counter", "Checkpoints committed.", m.checkpoints.Load()},
		{"dytis_wal_checkpoint_nanoseconds_total", "counter", "Time spent writing committed checkpoints.", m.checkpointNS.Load()},
		{"dytis_wal_checkpoint_failures_total", "counter", "Checkpoint attempts that failed (the store keeps serving on the old checkpoint).", m.checkpointFails.Load()},
		{"dytis_wal_recovery_replayed_records", "gauge", "Records the most recent recovery replayed.", m.replayedRecords.Load()},
		{"dytis_wal_recovery_torn_tails_total", "counter", "Torn segment tails discarded by recovery.", m.tornTails.Load()},
		{"dytis_wal_recovery_nanoseconds", "gauge", "Wall time of the most recent recovery.", m.recoveryNS.Load()},
	}
	for _, s := range series {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", s.name, s.help, s.name, s.typ, s.name, s.v)
	}
}
