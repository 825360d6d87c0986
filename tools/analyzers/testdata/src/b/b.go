package b

import "sync/atomic"

type counters struct {
	hits atomic.Int64
	mix  int64
	ok   int64
}

type wrapper struct {
	c counters
}

func copies(c *counters, w *wrapper) {
	x := c.hits // want `copies a sync/atomic.Int64 value`
	_ = x.Load()
	y := *c // want `copies a b.counters value containing sync/atomic state`
	_ = y.ok
	z := w.c // want `copies a b.counters value containing sync/atomic state`
	_ = z.ok
}

func passesByValue(c counters) int64 { // parameters are the caller's copy site
	return c.hits.Load()
}

func callCopy(c *counters) {
	_ = passesByValue(*c) // want `copies a b.counters value containing sync/atomic state`
}

func rangeCopy(cs []counters) {
	for range cs { // want `range copies b.counters values containing sync/atomic fields`
		_ = cs
	}
}

func newIsFine() *counters {
	return new(counters) // a type operand copies nothing
}

func pointerUseIsFine(c *counters) int64 {
	p := c // pointer copy, no atomic state duplicated
	return p.hits.Add(1)
}

func mixed(c *counters) int64 {
	atomic.AddInt64(&c.mix, 1)
	c.mix++    // want `non-atomic access to mix`
	n := c.mix // want `non-atomic access to mix`
	return n + atomic.LoadInt64(&c.mix)
}

func unmixed(c *counters) int64 {
	c.ok++ // never touched via atomic.* functions; plain access is fine
	return c.ok
}
