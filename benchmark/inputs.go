package main

import (
	"math/rand"
	"slices"

	"dytis/internal/datasets"
	"dytis/internal/workload"
)

const (
	scanLen  = 100  // pairs one scan asks for
	batchLen = 64   // keys one GetBatch asks for
	ringSize = 2048 // reserve keys per churn ring; half of them are live at any time
)

// opKind is what a caller does with one stream slot.
type opKind uint8

const (
	opRead   opKind = iota // Get of a preloaded key
	opUpdate               // Insert over a preloaded key
	opChurn                // alternately insert the ring's next key and delete its oldest
	opScan                 // scanLen pairs from a preloaded key
	opBatch                // GetBatch of batchLen preloaded keys
)

// Latency classes: the op types the end-to-end metrics are named after.
const (
	clsRead = iota
	clsWrite
	clsScan
	clsBatch
	numClasses
)

var classNames = [numClasses]string{"read", "write", "scan", "batch"}

func (k opKind) class() int {
	switch k {
	case opRead:
		return clsRead
	case opScan:
		return clsScan
	case opBatch:
		return clsBatch
	}
	return clsWrite
}

// op is one slot of a caller's stream. The key is resolved at generation
// time so the timed loop never touches the dataset array.
type op struct {
	key  uint64
	kind opKind
}

// mix is an operation mix in percent; the four shares sum to 100.
type mix struct{ read, write, scan, batch int }

// spec describes one workload: what is loaded, who calls, and what they ask.
type spec struct {
	name    string
	why     string
	kind    string // which system build() stands up
	dataset datasets.Spec
	keys    int  // dataset keys preloaded
	uniform bool // uniform key choice; default is scrambled Zipf(0.99)
	mix     mix
	conns   int // connections to the server(s); 0 for in-process
	callers int // closed-loop callers, spread evenly over the connections
	// rings is how many churn rings the preload covers. It equals callers
	// except on wire, which preloads wire-pipelined's 32 so that both run
	// against a byte-identical server.
	rings     int
	streamLen int    // ops per caller stream; the stream wraps
	every     int    // per-op latency is taken on every n-th op
	scanBelow uint64 // scans start at or below this key (0: no extra limit)
}

const shardBoundary = 1<<63 - 1 // last key of shard 0 in a uniform 2-shard map

var specs = []spec{
	{
		name: "embedded", kind: "embedded",
		why:     "core alone: 2 goroutines on an in-process index, 4M TX keys (beyond LLC), 60/20/10/10; server, proto and WAL changes must not move it",
		dataset: datasets.Taxi, keys: 4_000_000, mix: mix{60, 20, 10, 10},
		callers: 2, rings: 2, streamLen: 1 << 21, every: 16,
	},
	{
		name: "wire", kind: "server",
		why:     "round-trip floor: 2 connections with one request in flight each over loopback TCP, 250k TX keys, 80/10/5/5; proto+server+client dominate, core is ~2%",
		dataset: datasets.Taxi, keys: 250_000, mix: mix{80, 10, 5, 5},
		conns: 2, callers: 2, rings: 32, streamLen: 1 << 16, every: 1,
	},
	{
		name: "wire-pipelined", kind: "server",
		why:     "same inputs and server as wire, 16 callers per connection: frame batching and flush coalescing show here and stay flat on wire",
		dataset: datasets.Taxi, keys: 250_000, mix: mix{80, 10, 5, 5},
		conns: 2, callers: 32, rings: 32, streamLen: 1 << 16, every: 1,
	},
	{
		name: "durable", kind: "durable",
		why:     "WAL-bound: fsync-always store behind the server, 2 connections x 8 callers, 45/45/5/5, one forced checkpoint mid-run, reopened and verified after",
		dataset: datasets.Taxi, keys: 250_000, mix: mix{45, 45, 5, 5},
		conns: 2, callers: 16, rings: 16, streamLen: 1 << 16, every: 1,
	},
	{
		name: "cluster", kind: "cluster",
		why:     "routed path: client.Cluster over 2 shard servers, 500k uniform keys, 50/10/10/30, every batch and scan spans both shards",
		dataset: datasets.Uniform, keys: 500_000, uniform: true, mix: mix{50, 10, 10, 30},
		conns: 2, callers: 2, rings: 2, streamLen: 1 << 17, every: 1,
		scanBelow: shardBoundary,
	},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// shrunk returns the spec with its dataset and streams divided by div, for
// smoke tests and for the traced run, which loads the dataset once per layer.
func (sp spec) shrunk(div int) spec {
	sp.keys = max(sp.keys/div, 4*scanLen)
	sp.streamLen = max(sp.streamLen/div, 1<<10)
	return sp
}

// inputs is everything a run feeds the system, all derived from the seed.
type inputs struct {
	keys    []uint64   // preloaded dataset keys, in insertion order
	rings   [][]uint64 // churn reserve: keys the dataset generated after the preload
	streams [][]op     // one per caller
}

// generate builds a workload's inputs. Stream c depends only on (spec minus
// callers, seed, c), so wire and wire-pipelined share streams 0 and 1.
func generate(sp spec, seed int64) *inputs {
	all := sp.dataset.Gen(sp.keys+sp.rings*ringSize, seed)
	in := &inputs{keys: all[:sp.keys]}
	for r := 0; r < sp.rings; r++ {
		in.rings = append(in.rings, all[sp.keys+r*ringSize:][:ringSize])
	}

	// Preloaded dataset keys are never deleted, so a scan that starts at
	// least scanLen of them below the top must return exactly scanLen pairs.
	sorted := slices.Clone(in.keys)
	slices.Sort(sorted)
	scanMax := sorted[len(sorted)-scanLen]
	if sp.scanBelow != 0 {
		scanMax = min(scanMax, sp.scanBelow)
	}

	// One chooser feeds every stream in turn: building a Zipf generator
	// costs a pass over the key count, too much to pay per caller.
	var choose func() uint64
	if sp.uniform {
		rng := rand.New(rand.NewSource(seed))
		choose = func() uint64 { return in.keys[rng.Intn(sp.keys)] }
	} else {
		zipf := workload.NewZipf(sp.keys, seed, true)
		choose = func() uint64 { return in.keys[zipf.Next()] }
	}
	for c := 0; c < sp.callers; c++ {
		rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
		s := make([]op, sp.streamLen)
		for i := range s {
			s[i] = op{key: choose(), kind: sp.mix.draw(rng)}
			for s[i].kind == opScan && s[i].key > scanMax {
				s[i].key = choose()
			}
		}
		in.streams = append(in.streams, s)
	}
	return in
}

// draw picks an op kind by the mix. Writes split evenly between updates of
// preloaded keys and churn of the caller's reserve ring.
func (m mix) draw(rng *rand.Rand) opKind {
	switch r := rng.Intn(100); {
	case r < m.read:
		return opRead
	case r < m.read+m.write:
		if rng.Intn(2) == 0 {
			return opUpdate
		}
		return opChurn
	case r < m.read+m.write+m.scan:
		return opScan
	}
	return opBatch
}

// Every stored value is tag(key)<<16 | seq, so any answer can be checked
// from the key alone, whoever wrote it last.

func tag(key uint64) uint64 {
	key ^= key >> 33
	key *= 0xff51afd7ed558ccd
	key ^= key >> 33
	key *= 0xc4ceb9fe1a85ec53
	key ^= key >> 33
	return key >> 16
}

func makeVal(key, seq uint64) uint64 { return tag(key)<<16 | seq&0xffff }

func valOK(key, val uint64) bool { return val>>16 == tag(key) }
