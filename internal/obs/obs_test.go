package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"dytis/internal/core"
	"dytis/internal/datasets"
)

func loadedIndex(t *testing.T, o *Observer, conc bool, n int) (*core.DyTIS, []uint64) {
	t.Helper()
	keys := datasets.Taxi.Gen(n, 1)
	d := core.New(core.Options{Concurrent: conc, Observer: o})
	o.Attach(d)
	for _, k := range keys {
		d.Insert(k, k)
	}
	return d, keys
}

// TestObserverRecordsOps checks each operation lands in its histogram with
// the exact cardinality of the operations performed.
func TestObserverRecordsOps(t *testing.T) {
	o := New()
	d, keys := loadedIndex(t, o, false, 50000)
	for _, k := range keys[:1000] {
		d.Get(k)
	}
	for _, k := range keys[:10] {
		d.Delete(k)
	}
	d.Scan(0, 100, nil)
	d.ScanFunc(0, func(k, v uint64) bool { return false })

	want := map[core.Op]uint64{
		core.OpInsert: uint64(len(keys)),
		core.OpGet:    1000,
		core.OpDelete: 10,
		core.OpScan:   2,
	}
	for op, n := range want {
		h := o.OpHist(op)
		if h.Count() != n {
			t.Errorf("%v histogram count = %d, want %d", op, h.Count(), n)
		}
		if n > 0 && h.Quantile(0.99) < h.Quantile(0.5) {
			t.Errorf("%v quantiles not monotone: p50=%v p99=%v", op, h.Quantile(0.5), h.Quantile(0.99))
		}
	}
}

// TestEventParityWithStats asserts the event stream has exactly the same
// cardinality as the index's own maintenance counters, kind by kind.
func TestEventParityWithStats(t *testing.T) {
	o := New()
	var fired [core.NumEventKinds]atomic.Int64
	o.Subscribe(func(ev core.StructureEvent) { fired[ev.Kind].Add(1) })
	d := core.New(core.Options{Observer: o})
	o.Attach(d)
	// A dense cluster in one EH drives local depth past L_start, so the
	// remap/expansion paths run in addition to splits and doublings.
	for i := uint64(0); i < 300000; i++ {
		d.Insert(i*1000, i)
	}
	// Deleting most keys collapses utilization and fires the shrink path.
	for i := uint64(0); i < 300000; i++ {
		if i%16 != 0 {
			d.Delete(i * 1000)
		}
	}

	st := d.Stats()
	want := map[core.EventKind]int64{
		core.EvSplit:        st.Splits,
		core.EvRemap:        st.Remaps,
		core.EvExpand:       st.Expansions,
		core.EvDouble:       st.Doublings,
		core.EvRemapFailure: st.RemapFailures,
		core.EvShrink:       st.Shrinks,
	}
	var total int64
	for k, n := range want {
		if got := o.EventCount(k); got != n {
			t.Errorf("EventCount(%v) = %d, want %d (stats parity)", k, got, n)
		}
		if got := fired[k].Load(); got != n {
			t.Errorf("subscriber saw %d %v events, want %d", got, k, n)
		}
		total += n
	}
	if total == 0 {
		t.Fatal("workload triggered no structure events; test is vacuous")
	}
	if st.Splits == 0 || st.Remaps+st.Expansions == 0 {
		t.Fatalf("expected splits and remap/expansion activity, got %+v", st)
	}
	if st.Shrinks == 0 {
		t.Fatalf("delete phase fired no shrinks; test is vacuous for EvShrink (stats %+v)", st)
	}
	if st.ShrinkNS == 0 {
		t.Errorf("Shrinks=%d but ShrinkNS=0: shrink duration not booked", st.Shrinks)
	}
}

// TestConcurrentHooks drives a Concurrent index from many goroutines with a
// subscriber attached; under -race this is the acceptance check that hooks
// fire safely under concurrent load.
func TestConcurrentHooks(t *testing.T) {
	o := New()
	var events atomic.Int64
	o.Subscribe(func(ev core.StructureEvent) { events.Add(1) })
	d := core.New(core.Options{Concurrent: true, Observer: o})
	o.Attach(d)

	keys := datasets.Taxi.Gen(80000, 2)
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(keys); i += workers {
				d.Insert(keys[i], keys[i])
				if i%3 == 0 {
					d.Get(keys[i])
				}
				if i%1024 == 0 {
					d.Scan(keys[i], 16, nil)
				}
			}
		}(w)
	}
	wg.Wait()

	if events.Load() == 0 {
		t.Fatal("no structure events under concurrent load")
	}
	ins := o.OpHist(core.OpInsert).Count()
	if ins != uint64(len(keys)) {
		t.Fatalf("insert histogram count = %d, want %d", ins, len(keys))
	}
	// Reading while writers are done but state is settled: snapshot works.
	if o.OpHist(core.OpGet).Count() == 0 {
		t.Fatal("no gets recorded")
	}
}

// TestExporterEndpoints spot-checks the Prometheus and JSON surfaces.
func TestExporterEndpoints(t *testing.T) {
	o := New()
	d, keys := loadedIndex(t, o, false, 60000)
	for _, k := range keys[:100] {
		d.Get(k)
	}
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	prom := fetch(t, srv.URL+"/metrics")
	for _, want := range []string{
		`dytis_op_latency_nanoseconds{op="get",quantile="0.99"}`,
		`dytis_op_latency_nanoseconds_count{op="insert"} 60000`,
		`dytis_structure_events_total{kind="split"}`,
		`dytis_structure_events_total{kind="remap-failure"}`,
		`dytis_structure_events_total{kind="shrink"}`,
		"dytis_keys ",
		"dytis_memory_bytes ",
		"dytis_segments ",
		`dytis_maintenance_total{kind="split"}`,
		`dytis_maintenance_total{kind="shrink"}`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	for _, path := range []string{"/debug/vars", "/vars"} {
		body := fetch(t, srv.URL+path)
		var vars map[string]json.RawMessage
		if err := json.Unmarshal([]byte(body), &vars); err != nil {
			t.Fatalf("%s is not valid JSON: %v\n%s", path, err, body)
		}
		for _, key := range []string{"dytis.ops", "dytis.events", "dytis.stats", "dytis.keys", "dytis.memory_bytes"} {
			if _, ok := vars[key]; !ok {
				t.Errorf("%s missing key %q", path, key)
			}
		}
		var ops map[string]OpSnapshot
		if err := json.Unmarshal(vars["dytis.ops"], &ops); err != nil {
			t.Fatalf("dytis.ops malformed: %v", err)
		}
		if ops["insert"].Count != 60000 {
			t.Errorf("insert count in %s = %d, want 60000", path, ops["insert"].Count)
		}
	}
}

func fetch(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(body)
}

// TestObserverFootprint pins the size of an unrecorded Observer: its
// per-op, per-shard histograms are one pointer each until an operation
// records into them.
func TestObserverFootprint(t *testing.T) {
	if got := unsafe.Sizeof(Observer{}); got > 4<<10 {
		t.Fatalf("sizeof(Observer) = %d B, want <= 4 KiB", got)
	}
}
