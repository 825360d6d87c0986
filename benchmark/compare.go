package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// benchmarkJSON is the part of BENCHMARK.json -compare needs.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// series is one (workload, metric) pair's values over a file's runs.
type series struct {
	values []float64
	thin   bool
}

func collect(rep *report) map[string]map[string]*series {
	by := map[string]map[string]*series{}
	for _, r := range rep.Runs {
		if by[r.Workload] == nil {
			by[r.Workload] = map[string]*series{}
		}
		for name, m := range r.Metrics {
			s := by[r.Workload][name]
			if s == nil {
				s = &series{}
				by[r.Workload][name] = s
			}
			s.values = append(s.values, m.Value)
			s.thin = s.thin || m.Thin
		}
	}
	return by
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) does, so spreads agree with the driver's.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	at := func(i int) float64 {
		m := len(s)
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the run-to-run spread of v as a share of its median: the
// interquartile range from four runs up, the full range for two or three,
// and unknown (0) for a single run.
func spread(v []float64) float64 {
	switch m := median(v); {
	case len(v) >= 4:
		q1, q3 := quartiles(v)
		return (q3 - q1) / m
	case len(v) >= 2:
		return (slices.Max(v) - slices.Min(v)) / m
	}
	return 0
}

// compareFiles prints, for every (workload, end-to-end metric) pair both
// files hold, how b's median differs from a's against the metric's bound:
// worse when it is worse by more than the bound, unresolved when it is not
// but the runs of either file spread wider than the bound (or a percentile
// is thin), ok otherwise. It reports whether any pair is worse.
func compareFiles(w io.Writer, boundsPath, aPath, bPath string) (worse bool, err error) {
	var bench benchmarkJSON
	var a, b report
	if err := readJSON(boundsPath, &bench); err != nil {
		return false, err
	}
	if err := readJSON(aPath, &a); err != nil {
		return false, err
	}
	if err := readJSON(bPath, &b); err != nil {
		return false, err
	}
	if a.Schema != b.Schema {
		return false, fmt.Errorf("schema %d in %s, %d in %s", a.Schema, aPath, b.Schema, bPath)
	}
	as, bs := collect(&a), collect(&b)
	fmt.Fprintf(w, "%-15s %-18s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "spread", "status")
	for _, sp := range specs {
		for _, m := range bench.EndToEnd {
			sa, sb := as[sp.name][m.Name], bs[sp.name][m.Name]
			if sa == nil || sb == nil {
				continue
			}
			ma, mb := median(sa.values), median(sb.values)
			change := (mb - ma) / ma // positive is worse
			if m.Better == "higher" {
				change = -change
			}
			sprd := max(spread(sa.values), spread(sb.values))
			status := "ok"
			switch {
			case change > m.Bound:
				status, worse = "worse", true
			case sprd > m.Bound || sa.thin || sb.thin:
				status = "unresolved"
			}
			fmt.Fprintf(w, "%-15s %-18s %14.4f %14.4f %+7.2f%% %6.1f%% %6.2f%%  %s\n",
				sp.name, m.Name, ma, mb, 100*change, 100*m.Bound, 100*sprd, status)
		}
	}
	return worse, nil
}
