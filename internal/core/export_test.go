package core

// SetProbeHook installs fn to run after each of GetBatch's first six probe
// stages (nil removes it), so a test can mutate the index inside the
// batch's seqlock window.
func SetProbeHook(d *DyTIS, fn func(stage int)) { d.probeHook = fn }
