package server

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"dytis/internal/cluster"
	"dytis/internal/lathist"
	"dytis/internal/proto"
)

// metricsShards spreads per-opcode latency recording over a few histogram
// shards keyed by connection serial, the same contention-avoidance scheme
// internal/obs uses with EH indexes. Power of two.
const metricsShards = 8

// Metrics collects server-side observability: per-opcode request latency
// histograms (measured from decode to response enqueue, i.e. including the
// index work but not the client's network time) and connection counters.
// All methods are safe for concurrent use; the zero value is ready. An
// unrecorded Metrics is ~2 KiB: each (opcode, shard) histogram allocates
// its ~15 KiB of buckets on its first request, so a server pays only for
// the opcodes and shards its traffic records.
//
// It deliberately mirrors internal/obs rather than replacing it: the obs
// Observer keeps reporting index-side op latency and structure events, and
// cmd/dytis-server serves both on one /metrics endpoint, so server-side
// latency sits next to the index's own numbers with distinct metric names
// (dytis_server_* vs dytis_*).
type Metrics struct {
	//dytis:series dytis_server_request_latency_nanoseconds
	ops [proto.NumOpcodes][metricsShards]lathist.AtomicHist
	// opCount counts index operations (batch entries count individually),
	// while the histograms count requests.
	//dytis:series dytis_server_ops_total
	opCount [proto.NumOpcodes]atomic.Int64

	//dytis:series dytis_server_connections_total
	connsTotal atomic.Int64
	//dytis:series dytis_server_connections_active
	connsActive atomic.Int64
	//dytis:series dytis_server_protocol_errors_total
	protoErrors atomic.Int64

	// Robustness counters (overload hardening + fault handling).

	//dytis:series dytis_server_overloads_total
	overloads atomic.Int64 // requests shed by admission control
	//dytis:series dytis_server_deadline_sheds_total
	deadlineSheds atomic.Int64 // requests skipped: propagated deadline expired
	//dytis:series dytis_server_panics_recovered_total
	panics atomic.Int64 // panics recovered (one connection closed each)
	//dytis:series dytis_server_connection_timeouts_total
	connTimeouts atomic.Int64 // connections reaped by idle/read deadline
	//dytis:series dytis_server_forced_closes_total
	forcedCloses atomic.Int64 // connections force-closed at drain timeout

	// Protocol v2 counters.

	//dytis:series dytis_server_frame_checksum_errors
	frameChecksums atomic.Int64 // frames failing CRC32C verification (conn quarantined each)
	//dytis:series dytis_server_scan_streams_total
	scanStreams atomic.Int64 // streaming scans started
	//dytis:series dytis_server_scan_chunks_total
	scanChunks atomic.Int64 // scan chunks produced (empty final pages included)
	//dytis:series dytis_server_out_queue_peak_bytes
	outQueuePeak atomic.Int64 // peak bytes queued on any one conn's out channel

	// Cluster counters (FeatCluster).

	//dytis:series dytis_server_wrong_shard_total
	wrongShards atomic.Int64 // requests redirected with StatusWrongShard
	//dytis:series dytis_server_handovers_started_total
	handovers atomic.Int64 // shard handovers this node originated

	// Handover robustness counters (self-healing rebalance).

	//dytis:series dytis_server_handover_failed_total
	handoverFails atomic.Int64 // handovers suspended (entered the failed state)
	//dytis:series dytis_server_handover_mirror_retries_total
	handoverMirrorRetries atomic.Int64 // double-write mirror sends retried
	//dytis:series dytis_server_handover_resumes_total
	handoverResumes atomic.Int64 // suspended handovers successfully resumed
}

func (m *Metrics) connAccepted() {
	m.connsTotal.Add(1)
	m.connsActive.Add(1)
}

func (m *Metrics) connClosed() { m.connsActive.Add(-1) }

func (m *Metrics) protoError() { m.protoErrors.Add(1) }

func (m *Metrics) overload() { m.overloads.Add(1) }

func (m *Metrics) deadlineShed() { m.deadlineSheds.Add(1) }

func (m *Metrics) panicRecovered() { m.panics.Add(1) }

func (m *Metrics) connTimeout() { m.connTimeouts.Add(1) }

func (m *Metrics) forceClosed() { m.forcedCloses.Add(1) }

func (m *Metrics) frameChecksum() { m.frameChecksums.Add(1) }

func (m *Metrics) scanStream() { m.scanStreams.Add(1) }

func (m *Metrics) scanChunk() { m.scanChunks.Add(1) }

func (m *Metrics) wrongShard() { m.wrongShards.Add(1) }

func (m *Metrics) handoverStarted() { m.handovers.Add(1) }

func (m *Metrics) handoverFailed() { m.handoverFails.Add(1) }

func (m *Metrics) handoverMirrorRetry() { m.handoverMirrorRetries.Add(1) }

func (m *Metrics) handoverResumed() { m.handoverResumes.Add(1) }

// HandoverEvents returns cluster event hooks that feed these metrics;
// cmd/dytis-server wires the result into cluster.NodeConfig.Events.
func (m *Metrics) HandoverEvents() cluster.HandoverEvents {
	return cluster.HandoverEvents{
		MirrorRetry: m.handoverMirrorRetry,
		Failed:      m.handoverFailed,
		Resumed:     m.handoverResumed,
	}
}

// noteOutQueue folds one observed out-channel byte depth into the peak.
func (m *Metrics) noteOutQueue(n int64) {
	for {
		cur := m.outQueuePeak.Load()
		if n <= cur || m.outQueuePeak.CompareAndSwap(cur, n) {
			return
		}
	}
}

// recordOp books one request of the given opcode covering n index
// operations, served in d.
func (m *Metrics) recordOp(op proto.Opcode, shard int, n int, d time.Duration) {
	if !op.Valid() {
		return
	}
	m.ops[op][shard&(metricsShards-1)].Record(d)
	m.opCount[op].Add(int64(n))
}

// OpHist returns a merged snapshot of one opcode's request latency
// histogram.
func (m *Metrics) OpHist(op proto.Opcode) *lathist.Hist {
	h := &lathist.Hist{}
	if !op.Valid() {
		return h
	}
	for i := range m.ops[op] {
		m.ops[op][i].AddTo(h)
	}
	return h
}

// OpCount returns the number of index operations served under the opcode
// (batch entries counted individually).
func (m *Metrics) OpCount(op proto.Opcode) int64 {
	if !op.Valid() {
		return 0
	}
	return m.opCount[op].Load()
}

// ConnsActive returns the number of currently served connections.
func (m *Metrics) ConnsActive() int64 { return m.connsActive.Load() }

// ConnsTotal returns the number of connections accepted since start.
func (m *Metrics) ConnsTotal() int64 { return m.connsTotal.Load() }

// ProtoErrors returns the number of malformed requests received.
func (m *Metrics) ProtoErrors() int64 { return m.protoErrors.Load() }

// Overloads returns the number of requests shed by admission control.
func (m *Metrics) Overloads() int64 { return m.overloads.Load() }

// DeadlineSheds returns the number of requests skipped because their
// propagated deadline budget had expired before execution.
func (m *Metrics) DeadlineSheds() int64 { return m.deadlineSheds.Load() }

// Panics returns the number of recovered per-connection panics.
func (m *Metrics) Panics() int64 { return m.panics.Load() }

// ConnTimeouts returns the number of connections reaped by the idle or
// per-frame read deadline (slow-loris defense).
func (m *Metrics) ConnTimeouts() int64 { return m.connTimeouts.Load() }

// ForcedCloses returns the number of connections force-closed because the
// drain timeout expired.
func (m *Metrics) ForcedCloses() int64 { return m.forcedCloses.Load() }

// FrameChecksumErrors returns the number of frames that failed CRC32C
// verification (each quarantines its connection).
func (m *Metrics) FrameChecksumErrors() int64 { return m.frameChecksums.Load() }

// ScanStreams returns the number of streaming scans started.
func (m *Metrics) ScanStreams() int64 { return m.scanStreams.Load() }

// ScanChunks returns the number of scan chunks produced.
func (m *Metrics) ScanChunks() int64 { return m.scanChunks.Load() }

// WrongShards returns the number of requests redirected with
// StatusWrongShard (key outside the owned range, or a stale scan epoch).
func (m *Metrics) WrongShards() int64 { return m.wrongShards.Load() }

// HandoversStarted returns the number of shard handovers this node
// originated.
func (m *Metrics) HandoversStarted() int64 { return m.handovers.Load() }

// HandoverFails returns the number of times a handover was suspended
// (entered the failed state) after exhausting its peer-call retries.
func (m *Metrics) HandoverFails() int64 { return m.handoverFails.Load() }

// HandoverMirrorRetries returns the number of double-write mirror sends
// that were retried against the handover target.
func (m *Metrics) HandoverMirrorRetries() int64 { return m.handoverMirrorRetries.Load() }

// HandoverResumes returns the number of suspended handovers successfully
// resumed.
func (m *Metrics) HandoverResumes() int64 { return m.handoverResumes.Load() }

// OutQueuePeakBytes returns the peak byte depth observed on any single
// connection's outbound response queue — the number that proves a streamed
// scan's server-side buffering stays bounded by the credit window instead of
// marshaling the whole result.
func (m *Metrics) OutQueuePeakBytes() int64 { return m.outQueuePeak.Load() }

var promQuantiles = []float64{0.5, 0.9, 0.99, 0.9999}

// Every series this exporter registers must appear in the metric tables of
// the listed docs; metriccheck enforces it.
//
//dytis:metric-docs ../../README.md ../../DESIGN.md

// WritePrometheus writes the server metrics in the Prometheus text
// exposition format. cmd/dytis-server appends it to the index observer's
// output on the same /metrics endpoint.
func (m *Metrics) WritePrometheus(w io.Writer) {
	fmt.Fprintln(w, "# HELP dytis_server_request_latency_nanoseconds Server-side request latency (decode to response enqueue) per opcode.")
	fmt.Fprintln(w, "# TYPE dytis_server_request_latency_nanoseconds summary")
	for op := proto.Opcode(1); op < proto.NumOpcodes; op++ {
		h := m.OpHist(op)
		if h.Count() == 0 {
			continue
		}
		for _, q := range promQuantiles {
			fmt.Fprintf(w, "dytis_server_request_latency_nanoseconds{op=%q,quantile=\"%g\"} %d\n",
				op.String(), q, int64(h.Quantile(q)))
		}
		fmt.Fprintf(w, "dytis_server_request_latency_nanoseconds_sum{op=%q} %d\n", op.String(), h.Sum())
		fmt.Fprintf(w, "dytis_server_request_latency_nanoseconds_count{op=%q} %d\n", op.String(), h.Count())
	}
	fmt.Fprintln(w, "# HELP dytis_server_ops_total Index operations served per opcode (batch entries counted individually).")
	fmt.Fprintln(w, "# TYPE dytis_server_ops_total counter")
	for op := proto.Opcode(1); op < proto.NumOpcodes; op++ {
		if n := m.OpCount(op); n != 0 {
			fmt.Fprintf(w, "dytis_server_ops_total{op=%q} %d\n", op.String(), n)
		}
	}
	gauges := []struct {
		name, help string
		v          int64
	}{
		{"dytis_server_connections_active", "Currently served connections.", m.ConnsActive()},
		{"dytis_server_connections_total", "Connections accepted since start.", m.ConnsTotal()},
		{"dytis_server_protocol_errors_total", "Malformed requests received.", m.ProtoErrors()},
		{"dytis_server_overloads_total", "Requests shed by admission control.", m.Overloads()},
		{"dytis_server_deadline_sheds_total", "Requests skipped because their propagated deadline expired.", m.DeadlineSheds()},
		{"dytis_server_panics_recovered_total", "Recovered per-connection panics.", m.Panics()},
		{"dytis_server_connection_timeouts_total", "Connections reaped by idle/read deadlines.", m.ConnTimeouts()},
		{"dytis_server_forced_closes_total", "Connections force-closed at drain timeout.", m.ForcedCloses()},
		{"dytis_server_frame_checksum_errors", "Frames failing CRC32C verification (connection quarantined each).", m.FrameChecksumErrors()},
		{"dytis_server_scan_streams_total", "Streaming scans started.", m.ScanStreams()},
		{"dytis_server_scan_chunks_total", "Scan chunks produced.", m.ScanChunks()},
		{"dytis_server_out_queue_peak_bytes", "Peak bytes queued on any one connection's outbound response queue.", m.OutQueuePeakBytes()},
		{"dytis_server_wrong_shard_total", "Requests redirected with StatusWrongShard.", m.WrongShards()},
		{"dytis_server_handovers_started_total", "Shard handovers this node originated.", m.HandoversStarted()},
		{"dytis_server_handover_failed_total", "Handovers suspended after exhausting peer-call retries.", m.HandoverFails()},
		{"dytis_server_handover_mirror_retries_total", "Double-write mirror sends retried against the handover target.", m.HandoverMirrorRetries()},
		{"dytis_server_handover_resumes_total", "Suspended handovers successfully resumed.", m.HandoverResumes()},
	}
	for _, g := range gauges {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", g.name, g.help, g.name, g.name, g.v)
	}
}
