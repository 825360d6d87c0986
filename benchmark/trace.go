package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"dytis"
	"dytis/internal/cluster"
	"dytis/internal/proto"
	"dytis/internal/server"
)

const (
	traceOpsPerSecond = 20_000  // ops replayed at each layer per second of -seconds
	traceMaxKeys      = 500_000 // the dataset is loaded once per layer, so it is capped
)

// span is one call into a layer. Its op_id is its index in the layer's
// spans: the same op is replayed at every layer under the same id.
type span struct {
	start, end int64 // ns since the traced run began
	class      uint8
}

// layer is one row of the stack table: every op's span at one boundary.
type layer struct {
	name, parent string
	spans        []span
	mean         float64       // mean span, ns
	wall         time.Duration // the whole replay loop, spans and checks included
	allocs       float64       // heap allocations per op, all goroutines
	bytes        float64       // heap bytes allocated per op
}

// spanner is a target that times its own calls (frameTarget).
type spanner interface{ span() (start, end int64) }

type tracer struct {
	in     *inputs
	clk    clock
	ops    int
	layers []*layer
	res    *result
}

// replay drives one fresh caller through the first ops slots of stream 0
// against t, recording a span per op. atMid, when set, is started as a
// goroutine at the middle op; the caller must join it.
func (tr *tracer) replay(name, parent string, t target, ops int, atMid func()) *layer {
	c := newCaller(t, tr.in.streams[0], tr.in.rings[0], 1, 0)
	self, _ := t.(spanner)
	l := &layer{name: name, parent: parent, spans: make([]span, 0, ops)}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	begin := time.Now()
	for i := 0; i < ops; i++ {
		if i == ops/2 && atMid != nil {
			go atMid()
		}
		o := c.next()
		t0 := tr.clk.now()
		c.do(o)
		t1 := tr.clk.now()
		if self != nil {
			t0, t1 = self.span()
		}
		c.check(o)
		l.spans = append(l.spans, span{t0, t1, uint8(o.kind.class())})
	}
	l.wall = time.Since(begin)
	runtime.ReadMemStats(&m1)
	for _, s := range l.spans {
		l.mean += float64(s.end-s.start) / float64(ops)
	}
	l.allocs = float64(m1.Mallocs-m0.Mallocs) / float64(ops)
	l.bytes = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops)
	tr.res.Attempted += c.attempted
	tr.res.Failed += c.failed
	if tr.res.FirstFailure == "" && c.firstFail != "" {
		tr.res.FirstFailure = name + ": " + c.firstFail
	}
	return l
}

// row replays the full op count and adds the layer to the stack table.
func (tr *tracer) row(name, parent string, t target) *layer {
	l := tr.replay(name, parent, t, tr.ops, nil)
	tr.layers = append(tr.layers, l)
	return l
}

func (tr *tracer) set(name string, v float64, unit string) {
	tr.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// count is how many of the layer's ops were of the class.
func (l *layer) count(class int) float64 {
	n := 0
	for _, s := range l.spans {
		if int(s.class) == class {
			n++
		}
	}
	return float64(n)
}

// runTraced replays the first ops ops of the workload's caller-0 stream at
// every layer boundary, one layer at a time with a single caller, and derives
// the per-layer metrics. A layer's self time is its span minus its parent's
// span for the same op.
func runTraced(sp spec, seed int64, ops int, dir string) (*result, error) {
	sp.keys = min(sp.keys, traceMaxKeys)
	sp.callers = 1
	res := &result{Workload: sp.name, Seed: seed, Seconds: float64(ops) / traceOpsPerSecond, Callers: 1, Keys: sp.keys,
		Metrics: map[string]metric{}}
	tr := &tracer{in: generate(sp, seed), clk: clock{time.Now()}, ops: ops, res: res}
	for _, step := range []func(*tracer, spec, string) error{
		traceCore, traceWAL, traceFsync, traceNode, traceCodec, traceServer, traceClient, traceCluster,
	} {
		if err := step(tr, sp, dir); err != nil {
			return nil, err
		}
	}
	tr.stackTable()
	if err := tr.writeJSON(filepath.Join(dir, "trace.json"), sp.name, seed); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && len(res.Violations) == 0
	return res, nil
}

func traceCore(tr *tracer, _ spec, _ string) error {
	idx := loadedIndex(tr.in)
	defer idx.Close()
	before := idx.Stats()
	l := tr.row("core", "", coreTarget{idx})
	after := idx.Stats()
	kwrites := l.count(clsWrite) / 1000
	tr.set("core.splits_per_kwrite", float64(after.Splits-before.Splits)/kwrites, "count")
	tr.set("core.remaps_per_kwrite", float64(after.Remaps-before.Remaps)/kwrites, "count")
	tr.set("core.expansions_per_kwrite", float64(after.Expansions-before.Expansions)/kwrites, "count")
	tr.set("core.dir_doublings", float64(after.Doublings), "count")
	tr.set("core.footprint_bytes_per_key", float64(idx.MemoryFootprint())/float64(idx.Len()), "B")
	return nil
}

// traceWAL is the stack table's wal row: the store with fsync off, so the
// row shows the cost of logging itself.
func traceWAL(tr *tracer, _ spec, dir string) error {
	dir = filepath.Join(dir, "trace-wal")
	defer os.RemoveAll(dir)
	store, err := loadedStore(tr.in, dir, dytis.FsyncOff)
	if err != nil {
		return err
	}
	m := store.Metrics()
	appends, logged := m.Appends(), m.Bytes()
	l := tr.row("wal", "core", walTarget{store})
	writes := l.count(clsWrite)
	tr.set("wal.appends_per_write", float64(m.Appends()-appends)/writes, "count")
	tr.set("wal.log_bytes_per_write", float64(m.Bytes()-logged)/writes, "B")
	return store.Close()
}

// traceFsync replays a tenth of the ops against an fsync-always store with a
// checkpoint forced halfway, then closes and reopens it: the counters of the
// durable workload's bottleneck, taken with one caller so they repeat.
func traceFsync(tr *tracer, _ spec, dir string) error {
	dir = filepath.Join(dir, "trace-fsync")
	defer os.RemoveAll(dir)
	store, err := loadedStore(tr.in, dir, dytis.FsyncAlways)
	if err != nil {
		return err
	}
	m := store.Metrics()
	fsyncs, fsyncNS := m.Fsyncs(), promValue(m, "dytis_wal_fsync_nanoseconds_total")
	var ckptStart, ckptEnd int64
	var ckptErr error
	ckptDone := make(chan struct{})
	l := tr.replay("wal.fsync", "core", walTarget{store}, tr.ops/10, func() {
		defer close(ckptDone)
		ckptStart = tr.clk.now()
		ckptErr = store.Checkpoint()
		ckptEnd = tr.clk.now()
	})
	<-ckptDone
	if ckptErr != nil {
		store.Close()
		return fmt.Errorf("forced checkpoint: %w", ckptErr)
	}
	fsyncs = m.Fsyncs() - fsyncs
	tr.set("wal.fsyncs_per_write", float64(fsyncs)/l.count(clsWrite), "count")
	tr.set("wal.fsync_mean_us", (promValue(m, "dytis_wal_fsync_nanoseconds_total")-fsyncNS)/float64(fsyncs)/1e3, "us")
	tr.set("wal.checkpoint_ms", float64(ckptEnd-ckptStart)/1e6, "ms")
	var stall int64
	for _, s := range l.spans {
		if s.class == clsWrite && s.end > ckptStart && s.start < ckptEnd {
			stall = max(stall, s.end-s.start)
		}
	}
	tr.set("wal.checkpoint_stall_max_ms", float64(stall)/1e6, "ms")

	live := store.Len()
	if err := store.Close(); err != nil {
		return err
	}
	var disk int64
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			var info fs.FileInfo
			if info, err = d.Info(); err == nil {
				disk += info.Size()
			}
		}
		return err
	})
	if err != nil {
		return err
	}
	tr.set("wal.disk_bytes_per_key", float64(disk)/float64(live), "B")
	t0 := time.Now()
	store, err = openStore(dir, dytis.FsyncAlways)
	if err != nil {
		return fmt.Errorf("reopening %s: %w", dir, err)
	}
	tr.set("wal.recover_ms", float64(time.Since(t0))/1e6, "ms")
	if n := store.Len(); n != live {
		tr.res.violate("recovered Len is %d, was %d before close", n, live)
	}
	return store.Close()
}

// promValue reads one series from a Prometheus text exposition; the WAL's
// fsync time has no other public accessor.
func promValue(m interface{ WritePrometheus(w io.Writer) }, series string) float64 {
	var buf bytes.Buffer
	m.WritePrometheus(&buf)
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, _ := strconv.ParseFloat(rest, 64)
			return v
		}
	}
	return 0
}

func traceNode(tr *tracer, _ spec, _ string) error {
	idx := loadedIndex(tr.in)
	defer idx.Close()
	node, err := cluster.NewNode(cluster.NodeConfig{Index: idx, Lo: 0, Hi: ^uint64(0)})
	if err != nil {
		return err
	}
	defer node.Close()
	tr.row("cluster", "core", nodeTarget{node})
	return nil
}

func traceCodec(tr *tracer, _ spec, _ string) error {
	tr.row("proto", "", &codecTarget{})
	return nil
}

// traceServer is the server row: frames over an in-memory pipe, no kernel.
func traceServer(tr *tracer, _ spec, _ string) error {
	idx := loadedIndex(tr.in)
	defer idx.Close()
	ln := newPipeListener()
	l := listen(ln, server.Config{Index: idx})
	defer l.stop()
	nc, err := ln.dial()
	if err != nil {
		return err
	}
	defer nc.Close()
	t, err := dialFrames(nc, tr.clk)
	if err != nil {
		return err
	}
	tr.row("server", "core", t)
	return nil
}

// traceClient is the client row, the wire workload with one caller. The
// same ops first run on an identical system without spans, to price the
// tracing.
func traceClient(tr *tracer, sp spec, _ string) error {
	sp.kind, sp.conns = "server", 1
	sys, err := build(sp, tr.in, "")
	if err != nil {
		return err
	}
	c := newCaller(sys.targets[0], tr.in.streams[0], tr.in.rings[0], 1, 0)
	begin := time.Now()
	for i := 0; i < tr.ops; i++ {
		o := c.next()
		c.do(o)
		c.check(o)
	}
	untraced := time.Since(begin)
	if err := sys.stop(); err != nil {
		return err
	}

	if sys, err = build(sp, tr.in, ""); err != nil {
		return err
	}
	l := tr.row("client", "server", sys.targets[0])
	tr.set("trace_overhead_frac", float64(l.wall-untraced)/float64(untraced), "ratio")
	m := sys.servers[0]
	tr.set("server.exec_get_ns", float64(m.OpHist(proto.OpGet).Mean()), "ns")
	tr.set("server.exec_insert_ns", float64(m.OpHist(proto.OpInsert).Mean()), "ns")
	tr.set("server.exec_getbatch_ns", float64(m.OpHist(proto.OpGetBatch).Mean()), "ns")
	// A streamed scan books its start and each chunk as separate samples.
	scans := float64(m.ScanStreams())
	tr.set("server.exec_scan_ns", float64(m.OpHist(proto.OpScanStart).Sum())/scans, "ns")
	tr.set("server.scan_chunks_per_scan", float64(m.ScanChunks())/scans, "count")
	tr.set("server.out_queue_peak_bytes", float64(m.OutQueuePeakBytes()), "B")
	tr.set("server.proto_errors", float64(m.ProtoErrors()), "count")
	var reads []int64
	for _, s := range l.spans {
		if s.class == clsRead {
			reads = append(reads, s.end-s.start)
		}
	}
	slices.Sort(reads)
	tr.set("client.read_p999_us", float64(percentile(reads, 0.999))/1e3, "us")
	return sys.stop()
}

func traceCluster(tr *tracer, sp spec, _ string) error {
	sp.kind, sp.conns = "cluster", 2
	sys, err := build(sp, tr.in, "")
	if err != nil {
		return err
	}
	l := tr.row("client.cluster", "client", sys.targets[0])
	var requests, wrong int64
	for _, m := range sys.servers {
		requests += int64(m.OpHist(proto.OpGetBatch).Count())
		wrong += m.WrongShards()
	}
	tr.set("client.cluster.fanout_per_batch", float64(requests)/l.count(clsBatch), "count")
	tr.set("cluster.wrong_shard_total", float64(wrong), "count")
	if wrong != 0 {
		tr.res.violate("%d requests were answered wrong-shard under a fixed map", wrong)
	}
	return sys.stop()
}

// stackTable derives every layer's row from its spans and prints the table.
func (tr *tracer) stackTable() {
	byName := map[string]*layer{}
	for _, l := range tr.layers {
		byName[l.name] = l
	}
	fmt.Printf("# %-15s %10s %10s %9s %9s %9s %9s %9s %9s\n", "layer", "ns/op", "self ns", "allocs/op", "B/op", "p50 ns", "p99 ns", "p999 ns", "parent")
	for _, l := range tr.layers {
		self := l.mean
		if p := byName[l.parent]; p != nil {
			self -= p.mean
		}
		tr.set(l.name+".ns_per_op", l.mean, "ns")
		tr.set(l.name+".self_ns_per_op", self, "ns")
		tr.set(l.name+".allocs_per_op", l.allocs, "count")
		tr.set(l.name+".bytes_per_op", l.bytes, "B")
		var sum, n [numClasses]int64
		all := make([]int64, len(l.spans))
		for i, s := range l.spans {
			all[i] = s.end - s.start
			sum[s.class] += all[i]
			n[s.class]++
		}
		for cls, name := range classNames {
			tr.set(l.name+"."+name+"_ns", float64(sum[cls])/float64(max(n[cls], 1)), "ns")
		}
		slices.Sort(all)
		p50, p99, p999 := percentile(all, 0.50), percentile(all, 0.99), percentile(all, 0.999)
		tr.set(l.name+".p50_ns", float64(p50), "ns")
		tr.set(l.name+".p99_ns", float64(p99), "ns")
		tr.set(l.name+".p999_ns", float64(p999), "ns")
		fmt.Printf("# %-15s %10.0f %10.0f %9.2f %9.0f %9d %9d %9d %9s\n", l.name, l.mean, self, l.allocs, l.bytes, p50, p99, p999, l.parent)
	}
}

// writeJSON writes every span. A span is [op_type, start_ns, end_ns]; its
// op_id is its position in the layer's array, and its parent span is the
// span with the same op_id in the layer named as parent.
func (tr *tracer) writeJSON(path, workload string, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, `{"workload":%q,"seed":%d,"ops":%d,"clock":"ns since the traced run began",`+
		`"span":["op_type","start_ns","end_ns"],"op_types":["read","write","scan","batch"],"layers":[`, workload, seed, tr.ops)
	var num []byte
	for i, l := range tr.layers {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"layer\":%q,\"parent\":%q,\"spans\":[", l.name, l.parent)
		for j, s := range l.spans {
			num = num[:0]
			if j > 0 {
				num = append(num, ',')
			}
			num = append(num, '[')
			num = strconv.AppendInt(num, int64(s.class), 10)
			num = append(num, ',')
			num = strconv.AppendInt(num, s.start, 10)
			num = append(num, ',')
			num = strconv.AppendInt(num, s.end, 10)
			num = append(num, ']')
			w.Write(num)
		}
		w.WriteString("]}")
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
