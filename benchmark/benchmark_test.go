package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"dytis"
)

// declared reads the metric names BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer, workloads []string) {
	t.Helper()
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	return
}

func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	_, _, workloads := declared(t)
	if !slices.Equal(workloads, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", workloads, workloadNames())
	}
	for _, sp := range specs {
		if sum := sp.mix.read + sp.mix.write + sp.mix.scan + sp.mix.batch; sum != 100 {
			t.Errorf("%s: mix sums to %d", sp.name, sum)
		}
		if sp.callers > sp.rings || (sp.conns > 0 && sp.callers%sp.conns != 0) {
			t.Errorf("%s: %d callers over %d connections with %d rings", sp.name, sp.callers, sp.conns, sp.rings)
		}
	}
}

func TestStreamsFollowTheSeed(t *testing.T) {
	wire, _ := specByName("wire")
	piped, _ := specByName("wire-pipelined")
	wire, piped = wire.shrunk(20), piped.shrunk(20)
	a, b, other := generate(wire, 1), generate(wire, 1), generate(wire, 2)
	if !slices.Equal(a.keys, b.keys) || len(a.streams) != wire.callers {
		t.Fatal("same seed, different dataset")
	}
	for c := range a.streams {
		if !slices.Equal(a.streams[c], b.streams[c]) {
			t.Errorf("same seed, caller %d's stream differs", c)
		}
		if slices.Equal(a.streams[c], other.streams[c]) {
			t.Errorf("seeds 1 and 2 give caller %d the same stream", c)
		}
	}
	if slices.Equal(a.streams[0], a.streams[1]) {
		t.Error("callers 0 and 1 share a stream")
	}
	// wire-pipelined runs against the same server state and extends wire's
	// streams with 30 more callers.
	p := generate(piped, 1)
	if !slices.Equal(a.keys, p.keys) || !slices.EqualFunc(a.rings, p.rings, slices.Equal[[]uint64]) {
		t.Error("wire and wire-pipelined preload different keys")
	}
	for c := range a.streams {
		if !slices.Equal(a.streams[c], p.streams[c]) {
			t.Errorf("wire and wire-pipelined differ on caller %d's stream", c)
		}
	}
	// The mix is honoured to within a percent over a stream.
	var n [numClasses]int
	for _, o := range a.streams[0] {
		n[o.kind.class()]++
	}
	for cls, want := range []int{wire.mix.read, wire.mix.write, wire.mix.scan, wire.mix.batch} {
		if got := 100 * float64(n[cls]) / float64(len(a.streams[0])); math.Abs(got-float64(want)) > 1.5 {
			t.Errorf("%s share is %.1f%%, mix says %d%%", classNames[cls], got, want)
		}
	}
}

// model is an in-memory target that can be told to lie.
type model struct {
	m    map[uint64]uint64
	lie  bool
	peak int
}

func (t *model) Get(key uint64) (uint64, bool, error) {
	v, ok := t.m[key]
	if t.lie {
		v ^= 1 << 40
	}
	return v, ok, nil
}
func (t *model) Insert(key, val uint64) error {
	t.m[key] = val
	t.peak = max(t.peak, len(t.m))
	return nil
}
func (t *model) Delete(key uint64) (bool, error) {
	_, ok := t.m[key]
	delete(t.m, key)
	return ok, nil
}
func (t *model) Scan(start uint64, dst []dytis.KV) ([]dytis.KV, error) {
	dst = dst[:0]
	for i := uint64(0); i < scanLen; i++ {
		dst = append(dst, dytis.KV{Key: start + i, Value: makeVal(start+i, 0)})
	}
	if t.lie {
		dst[scanLen/2].Key = start
	}
	return dst, nil
}
func (t *model) GetBatch(keys, vals []uint64, found []bool) ([]uint64, []bool, error) {
	vals, found = vals[:0], found[:0]
	for _, k := range keys {
		v, ok := t.m[k]
		vals, found = append(vals, v), append(found, ok && !t.lie)
	}
	return vals, found, nil
}

func TestChurnHoldsThePopulationSteady(t *testing.T) {
	ring := make([]uint64, ringSize)
	m := &model{m: map[uint64]uint64{}}
	for i := range ring {
		ring[i] = uint64(i) * 7919
		if i < ringSize/2 {
			m.m[ring[i]] = makeVal(ring[i], 0)
		}
	}
	c := newCaller(m, []op{{kind: opChurn}}, ring, 1, 0)
	for i := 0; i < 1_000_000; i++ {
		o := c.next()
		c.do(o)
		c.check(o)
		if live := c.head - c.tail; live != len(m.m) || live < ringSize/2 || live > ringSize/2+1 {
			t.Fatalf("after %d churn ops the ring window is %d and the target holds %d keys", i+1, live, len(m.m))
		}
	}
	if c.failed != 0 || m.peak > ringSize/2+1 {
		t.Errorf("%d failed ops (%s), peak population %d", c.failed, c.firstFail, m.peak)
	}
}

func TestOracleCatchesWrongAnswers(t *testing.T) {
	m := &model{m: map[uint64]uint64{}}
	keys := make([]uint64, 2*batchLen)
	for i := range keys {
		keys[i] = uint64(i+1) << 20
		m.m[keys[i]] = makeVal(keys[i], 0)
	}
	var stream []op
	for _, kind := range []opKind{opRead, opScan, opBatch} {
		stream = append(stream, op{keys[0], kind})
	}
	for i := range keys {
		stream = append(stream, op{keys[i], opRead})
	}
	c := newCaller(m, stream, make([]uint64, ringSize), 1, 0)
	for _, lie := range []bool{false, true} {
		m.lie = lie
		c.pos = 0
		for i := 0; i < 3; i++ {
			o := c.next()
			c.do(o)
			c.check(o)
		}
	}
	if c.attempted != 6 || c.failed != 3 {
		t.Errorf("honest then lying target: %d of %d ops failed, want 3 of 6 (%s)", c.failed, c.attempted, c.firstFail)
	}
}

// TestSmoke runs every workload briefly on a shrunken dataset and requires a
// clean run that emits every end-to-end metric.
func TestSmoke(t *testing.T) {
	endToEnd, _, _ := declared(t)
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			res, err := runWorkload(sp.shrunk(40), 3, 50*time.Millisecond, 300*time.Millisecond, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("attempted %d, failed %d, first %q, violations %q", res.Attempted, res.Failed, res.FirstFailure, res.Violations)
			}
			for _, name := range endToEnd {
				if m, ok := res.Metrics[name]; !ok || !(m.Value > 0) {
					t.Errorf("metric %s = %+v", name, m)
				}
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics emitted, BENCHMARK.json declares %d", len(res.Metrics), len(endToEnd))
			}
		})
	}
}

// TestTrace runs the traced replay twice and checks what it promises: every
// per-layer metric, a stack table whose self times add up, and counters that
// repeat exactly.
func TestTrace(t *testing.T) {
	_, perLayer, _ := declared(t)
	sp, _ := specByName("wire")
	var runs [2]*result
	for i := range runs {
		dir := t.TempDir()
		res, err := runTraced(sp.shrunk(20), 5, 4000, dir)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("failed %d, first %q, violations %q", res.Failed, res.FirstFailure, res.Violations)
		}
		var trace struct {
			Layers []struct {
				Layer string
				Spans [][3]int64
			}
		}
		if err := readJSON(filepath.Join(dir, "trace.json"), &trace); err != nil {
			t.Fatal(err)
		}
		if len(trace.Layers) != 7 || len(trace.Layers[0].Spans) != 4000 {
			t.Errorf("trace.json holds %d layers, the first with %d spans", len(trace.Layers), len(trace.Layers[0].Spans))
		}
		runs[i] = res
	}
	m := runs[0].Metrics
	for _, name := range perLayer {
		if _, ok := m[name]; !ok {
			t.Errorf("per-layer metric %s not emitted", name)
		}
	}
	if len(m) != len(perLayer) {
		t.Errorf("%d metrics emitted, BENCHMARK.json declares %d", len(m), len(perLayer))
	}
	sum := m["core.self_ns_per_op"].Value + m["server.self_ns_per_op"].Value + m["client.self_ns_per_op"].Value
	if total := m["client.ns_per_op"].Value; math.Abs(sum-total) > 1e-6*total {
		t.Errorf("core+server+client self time is %.1f ns, client.ns_per_op is %.1f", sum, total)
	}
	for _, name := range []string{"wal.appends_per_write", "wal.fsyncs_per_write", "wal.log_bytes_per_write",
		"client.cluster.fanout_per_batch", "cluster.wrong_shard_total", "server.scan_chunks_per_scan", "server.proto_errors"} {
		if a, b := m[name].Value, runs[1].Metrics[name].Value; a != b {
			t.Errorf("%s is %v in one traced run and %v in the next", name, a, b)
		}
	}
	// TX keys all fall in the first shard of a uniform 2-shard map.
	if m["wal.appends_per_write"].Value != 1 || m["client.cluster.fanout_per_batch"].Value != 1 {
		t.Errorf("appends per write %v, fan-out per batch %v", m["wal.appends_per_write"].Value, m["client.cluster.fanout_per_batch"].Value)
	}
}

func TestPercentilesAreOrderStatistics(t *testing.T) {
	v := make([]int64, 1000)
	for i := range v {
		v[i] = int64(i + 1)
	}
	for q, want := range map[float64]int64{0.5: 500, 0.99: 990, 0.999: 999, 1: 1000} {
		if got := percentile(v, q); got != want {
			t.Errorf("percentile(1..1000, %v) = %d, want %d", q, got, want)
		}
	}
	// statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25].
	if q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v", q1, q3)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale map[string]float64, noisy string) string {
		rep := report{Schema: schemaVersion}
		for run := 0; run < 4; run++ {
			res := &result{Workload: "wire", Metrics: map[string]metric{}}
			for name, base := range map[string]float64{"ops_per_s": 1000, "read_p50_us": 10, "read_p99_us": 40} {
				v := base * (1 + 0.001*float64(run))
				if s, ok := scale[name]; ok {
					v *= s
				}
				if name == noisy {
					v *= 1 + 0.2*(float64(run)-1.5)
				}
				res.Metrics[name] = metric{Value: v, Unit: "x"}
			}
			rep.Runs = append(rep.Runs, res)
		}
		data, _ := json.Marshal(rep)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", nil, "")
	for _, tc := range []struct {
		name  string
		scale map[string]float64
		noisy string
		worse bool
		rows  map[string]string
	}{
		{"same", nil, "", false, map[string]string{"ops_per_s": "ok", "read_p50_us": "ok"}},
		{"slower", map[string]float64{"ops_per_s": 0.5}, "", true, map[string]string{"ops_per_s": "worse", "read_p50_us": "ok"}},
		{"faster", map[string]float64{"ops_per_s": 2, "read_p50_us": 0.5}, "", false, map[string]string{"ops_per_s": "ok", "read_p50_us": "ok"}},
		{"noisy", nil, "read_p99_us", false, map[string]string{"read_p99_us": "unresolved", "ops_per_s": "ok"}},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, "../BENCHMARK.json", base, write(tc.name+".json", tc.scale, tc.noisy))
		if err != nil {
			t.Fatal(err)
		}
		if worse != tc.worse {
			t.Errorf("%s: worse = %v\n%s", tc.name, worse, &out)
		}
		for metric, want := range tc.rows {
			found := false
			for _, line := range strings.Split(out.String(), "\n") {
				if f := strings.Fields(line); len(f) > 2 && f[0] == "wire" && f[1] == metric {
					found = true
					if f[len(f)-1] != want {
						t.Errorf("%s: %s is %q, want %q", tc.name, metric, f[len(f)-1], want)
					}
				}
			}
			if !found {
				t.Errorf("%s: no row for %s\n%s", tc.name, metric, &out)
			}
		}
	}
}
