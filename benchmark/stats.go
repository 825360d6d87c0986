package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many observations the value summarises.
	Samples int `json:"samples,omitempty"`
	// Thin marks a percentile with fewer than 10 samples beyond it; -compare
	// reports such a pair as unresolved.
	Thin bool `json:"thin,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Seconds      float64            `json:"seconds"`
	Callers      int                `json:"callers"`
	Conns        int                `json:"connections"`
	Keys         int                `json:"keys"`
	Attempted    int64              `json:"attempted"`
	Failed       int64              `json:"failed"`
	FirstFailure string             `json:"first_failure,omitempty"`
	Violations   []string           `json:"violations,omitempty"`
	Correct      bool               `json:"correct"`
	Metrics      map[string]metric  `json:"metrics"`
	Diag         map[string]float64 `json:"diagnostics,omitempty"`
}

// violate records a broken invariant of the whole run (as opposed to one
// failed op); the first few are kept.
func (res *result) violate(format string, args ...any) {
	if len(res.Violations) < 8 {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile is the exact order statistic of rank ceil(q*n) in sorted.
func percentile(sorted []int64, q float64) int64 {
	return sorted[max(int(math.Ceil(q*float64(len(sorted))))-1, 0)]
}

// measured turns the measured phase's totals and raw latency samples into
// the end-to-end metrics.
func (res *result) measured(callers []*caller, wall, cpu time.Duration, ops int64) {
	res.Metrics["ops_per_s"] = metric{Value: float64(ops) / wall.Seconds(), Unit: "1/s", Samples: int(ops)}
	res.Metrics["cpu_us_per_op"] = metric{Value: float64(cpu) / 1e3 / float64(ops), Unit: "us", Samples: int(ops)}
	var buf []int64
	for cls, name := range classNames {
		buf = buf[:0]
		for _, c := range callers {
			for _, s := range c.samples {
				if int(s&3) == cls {
					buf = append(buf, s>>2)
				}
			}
		}
		if len(buf) == 0 {
			continue
		}
		slices.Sort(buf)
		res.Metrics[name+"_p50_us"] = metric{Value: float64(percentile(buf, 0.50)) / 1e3, Unit: "us", Samples: len(buf)}
		res.Metrics[name+"_p99_us"] = metric{Value: float64(percentile(buf, 0.99)) / 1e3, Unit: "us", Samples: len(buf), Thin: len(buf) < 1000}
	}
}
