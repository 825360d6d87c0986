package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"dytis"
)

const (
	setupReps = 3      // set-up runs this many times; setup_s is the median
	sampleLen = 10_000 // keys whose values the durability check compares
)

// clock reads nanoseconds since a run's origin.
type clock struct{ origin time.Time }

func (c clock) now() int64 { return int64(time.Since(c.origin)) }

// caller is one closed-loop client: it issues its stream's next op only
// after the previous answer arrived and was checked.
type caller struct {
	t      target
	stream []op
	pos    int
	every  int
	ring   []uint64
	// The ring's live keys are ring[tail:head] (indexes taken mod ringSize).
	// Churn ops alternate insert-at-head and delete-at-tail, so the window
	// stays ringSize/2 or one more however many ops run.
	head, tail int
	churn      uint64
	seq        uint64

	// Scratch the loop reuses, so it allocates nothing once warm.
	bkeys  []uint64
	bvals  []uint64
	bfound []bool
	pairs  []dytis.KV

	// The last op's key and answer, checked after its span has closed.
	key   uint64
	val   uint64
	found bool
	err   error

	samples []int64 // latency_ns<<2 | class

	attempted, failed int64
	firstFail         string
}

func newCaller(t target, stream []op, ring []uint64, every, samples int) *caller {
	return &caller{
		t: t, stream: stream, ring: ring, every: every, head: ringSize / 2,
		bkeys: make([]uint64, batchLen), bvals: make([]uint64, 0, batchLen),
		bfound: make([]bool, 0, batchLen), pairs: make([]dytis.KV, 0, scanLen),
		samples: make([]int64, 0, samples),
	}
}

// next takes the stream's next op. A batch asks for the keys of the
// batchLen slots that follow it.
func (c *caller) next() op {
	o := c.stream[c.pos]
	if c.pos++; c.pos == len(c.stream) {
		c.pos = 0
	}
	if o.kind == opBatch {
		for i := range c.bkeys {
			c.bkeys[i] = c.stream[(c.pos+i)%len(c.stream)].key
		}
	}
	return o
}

// do issues one op and keeps the answer for check.
func (c *caller) do(o op) {
	c.key = o.key
	switch o.kind {
	case opRead:
		c.val, c.found, c.err = c.t.Get(c.key)
	case opUpdate:
		c.seq++
		c.err = c.t.Insert(c.key, makeVal(c.key, c.seq))
	case opChurn:
		if c.churn&1 == 0 {
			c.key = c.ring[c.head%ringSize]
			c.head++
			c.seq++
			c.err = c.t.Insert(c.key, makeVal(c.key, c.seq))
		} else {
			c.key = c.ring[c.tail%ringSize]
			c.tail++
			c.found, c.err = c.t.Delete(c.key)
		}
		c.churn++
	case opScan:
		c.pairs, c.err = c.t.Scan(c.key, c.pairs)
	case opBatch:
		c.bvals, c.bfound, c.err = c.t.GetBatch(c.bkeys, c.bvals, c.bfound)
	}
}

// check is the answer oracle: every result must be derivable from its key.
// A wrong, missing or refused answer is a failed op.
func (c *caller) check(o op) {
	c.attempted++
	bad := ""
	switch {
	case c.err != nil:
		bad = c.err.Error()
	case o.kind == opRead:
		if !c.found {
			bad = "preloaded key not found"
		} else if !valOK(c.key, c.val) {
			bad = fmt.Sprintf("value %#x does not carry the key's tag", c.val)
		}
	case o.kind == opChurn && c.churn&1 == 0: // the op just done was the delete
		if !c.found {
			bad = "delete of a live reserve key found nothing"
		}
	case o.kind == opScan:
		bad = checkScan(c.key, c.pairs)
	case o.kind == opBatch:
		if len(c.bvals) != batchLen || len(c.bfound) != batchLen {
			bad = fmt.Sprintf("batch answered %d values and %d flags for %d keys", len(c.bvals), len(c.bfound), batchLen)
			break
		}
		for i, k := range c.bkeys {
			if !c.bfound[i] || !valOK(k, c.bvals[i]) {
				bad = fmt.Sprintf("batch entry %d (key %#x): found=%v value %#x", i, k, c.bfound[i], c.bvals[i])
				break
			}
		}
	}
	if bad != "" {
		c.failed++
		if c.firstFail == "" {
			c.firstFail = fmt.Sprintf("%s %#x: %s", [...]string{"read", "update", "churn", "scan", "batch"}[o.kind], c.key, bad)
		}
	}
}

// checkScan requires exactly scanLen pairs, ascending, none below start, each
// value carrying its key's tag.
func checkScan(start uint64, pairs []dytis.KV) string {
	if len(pairs) != scanLen {
		return fmt.Sprintf("scan returned %d pairs, want %d", len(pairs), scanLen)
	}
	for i, p := range pairs {
		switch {
		case p.Key < start:
			return fmt.Sprintf("scan pair %d key %#x is below the start", i, p.Key)
		case i > 0 && p.Key <= pairs[i-1].Key:
			return fmt.Sprintf("scan pair %d key %#x is not above pair %d", i, p.Key, i-1)
		case !valOK(p.Key, p.Value):
			return fmt.Sprintf("scan pair %d (key %#x) value %#x does not carry the key's tag", i, p.Key, p.Value)
		}
	}
	return ""
}

// run drives the caller until an op completes at or after end. Latency is
// taken on every c.every-th op; with record false (warm-up) it is dropped.
func (c *caller) run(clk clock, end int64, record bool) {
	for skip := 0; ; skip-- {
		o := c.next()
		if skip > 0 {
			c.do(o)
			c.check(o)
			continue
		}
		skip = c.every
		t0 := clk.now()
		c.do(o)
		t1 := clk.now()
		c.check(o)
		if t1 >= end {
			return
		}
		if record {
			c.samples = append(c.samples, (t1-t0)<<2|int64(o.kind.class()))
		}
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // only a bad argument can fail it
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phase runs every caller for dur and returns the wall and CPU time it took
// and the ops completed. atMid, when set, runs halfway through.
func phase(callers []*caller, dur time.Duration, record bool, atMid func()) (wall, cpu time.Duration, ops int64) {
	for _, c := range callers {
		ops -= c.attempted
	}
	var wg sync.WaitGroup
	cpu0, clk := cpuTime(), clock{time.Now()}
	for _, c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(clk, int64(dur), record)
		}()
	}
	if atMid != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(dur / 2)
			atMid()
		}()
	}
	wg.Wait()
	wall, cpu = time.Since(clk.origin), cpuTime()-cpu0
	for _, c := range callers {
		ops += c.attempted
	}
	return wall, cpu, ops
}

func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// rig is one set-up: the inputs, the system built from them, and the callers
// about to drive it.
type rig struct {
	in       *inputs
	sys      *system
	callers  []*caller
	heapBase uint64        // HeapAlloc with the harness's arrays in place and no system yet
	took     time.Duration // generating the inputs plus building the system
}

// setUp generates the inputs and builds the system, timing both.
func setUp(sp spec, seed int64, dur time.Duration, dir string) (*rig, error) {
	t0 := time.Now()
	r := &rig{in: generate(sp, seed)}
	r.took = time.Since(t0)
	// The harness's own arrays are allocated before the heap baseline, so
	// mem_bytes_per_key counts only what the system holds.
	perCaller := int(dur.Seconds()+1) * sp.sampleRate() / sp.callers
	for c := 0; c < sp.callers; c++ {
		r.callers = append(r.callers, newCaller(nil, r.in.streams[c], r.in.rings[c], sp.every, perCaller))
	}
	r.heapBase = heapAfterGC()
	t0 = time.Now()
	var err error
	if r.sys, err = build(sp, r.in, dir); err != nil {
		return nil, err
	}
	r.took += time.Since(t0)
	for c, t := range r.sys.targets {
		r.callers[c].t = t
	}
	return r, nil
}

// runWorkload sets the workload up, warms it for warm, measures it for dur
// and checks everything it can: every answer during the run, the final key
// count, and for durable the state a reopen recovers. dir is the scratch
// directory.
func runWorkload(sp spec, seed int64, warm, dur time.Duration, dir string) (*result, error) {
	res := &result{Workload: sp.name, Seed: seed, Seconds: dur.Seconds(),
		Callers: sp.callers, Conns: sp.conns, Keys: sp.keys, Metrics: map[string]metric{}}
	var r *rig
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if r != nil {
			if err := r.sys.stop(); err != nil {
				return nil, fmt.Errorf("stopping set-up %d: %w", rep, err)
			}
		}
		repDir := filepath.Join(dir, fmt.Sprintf("%s-%d", sp.name, rep))
		if err := os.RemoveAll(repDir); err != nil {
			return nil, err
		}
		defer os.RemoveAll(repDir)
		var err error
		if r, err = setUp(sp, seed, dur, repDir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, r.took.Seconds())
	}
	in, sys, callers := r.in, r.sys, r.callers
	defer sys.stop()
	res.Metrics["setup_s"] = metric{Value: median(setups), Unit: "s", Samples: len(setups)}

	phase(callers, warm, false, nil)
	runtime.GC()
	var ckpt time.Duration
	var ckptErr error
	var atMid func()
	if sys.store != nil {
		atMid = func() {
			t0 := time.Now()
			ckptErr = sys.store.Checkpoint()
			ckpt = time.Since(t0)
		}
	}
	wall, cpu, ops := phase(callers, dur, true, atMid)
	if ckptErr != nil {
		return nil, fmt.Errorf("forced checkpoint: %w", ckptErr)
	}

	live := sys.length()
	heap := heapAfterGC()
	runtime.KeepAlive(in)
	res.measured(callers, wall, cpu, ops)
	res.Metrics["mem_bytes_per_key"] = metric{Value: float64(heap-min(heap, r.heapBase)) / float64(live), Unit: "B", Samples: live}
	for _, c := range callers {
		res.Attempted += c.attempted
		res.Failed += c.failed
		if res.FirstFailure == "" {
			res.FirstFailure = c.firstFail
		}
	}

	// The final count must be the preload plus every ring's live window.
	want := len(in.keys) + (len(in.rings)-len(callers))*ringSize/2
	for _, c := range callers {
		want += c.head - c.tail
	}
	if live != want {
		res.violate("final Len is %d, want %d (preload plus net churn)", live, want)
	}
	if sys.store != nil {
		res.Diag = map[string]float64{"checkpoint_ms": float64(ckpt) / 1e6}
		if err := res.checkRecovery(sys, in, callers, want); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0 && len(res.Violations) == 0
	return res, nil
}

// sampleRate bounds how many latency samples per second all callers together
// may produce; the sample arrays are sized from it so the timed loop never
// grows them. The bounds are several times what the seed commit reaches.
func (sp spec) sampleRate() int {
	if sp.kind == "embedded" {
		return 10_000_000 / sp.every
	}
	return 1_000_000
}

// checkRecovery is the durability check: it samples the store, stops the
// system (which closes the store), reopens the directory and requires the
// same count, the same sampled values, and every ring's live window present
// with the rest of the ring absent.
func (res *result) checkRecovery(sys *system, in *inputs, callers []*caller, wantLen int) error {
	type kv struct{ key, val uint64 }
	var sample []kv
	for i := 0; i < len(in.keys); i += max(1, len(in.keys)/sampleLen) {
		v, ok := sys.store.Get(in.keys[i])
		if !ok {
			res.violate("preloaded key %#x missing before close", in.keys[i])
		}
		sample = append(sample, kv{in.keys[i], v})
	}
	if err := sys.stop(); err != nil {
		return fmt.Errorf("stopping: %w", err)
	}
	t0 := time.Now()
	store, err := openStore(sys.dir, dytis.FsyncAlways)
	if err != nil {
		return fmt.Errorf("reopening %s: %w", sys.dir, err)
	}
	defer store.Close()
	res.Diag["recover_ms"] = float64(time.Since(t0)) / 1e6
	if n := store.Len(); n != wantLen {
		res.violate("recovered Len is %d, want %d", n, wantLen)
	}
	for _, s := range sample {
		if v, ok := store.Get(s.key); !ok || v != s.val {
			res.violate("recovered key %#x = (%#x, %v), was %#x before close", s.key, v, ok, s.val)
		}
	}
	for _, c := range callers {
		for i := c.head - ringSize; i < c.head; i++ {
			// A negative i is a slot the head has not reached yet: never inserted.
			k := c.ring[(i+ringSize)%ringSize]
			v, ok := store.Get(k)
			if live := i >= c.tail; ok != live || (ok && !valOK(k, v)) {
				res.violate("recovered reserve key %#x = (%#x, %v), live=%v", k, v, ok, live)
			}
		}
	}
	return nil
}
