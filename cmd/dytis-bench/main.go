// Command dytis-bench regenerates the tables and figures of the DyTIS
// paper's evaluation (§4) on the synthetic dataset suite. Each experiment
// prints the same rows/series the paper reports; see EXPERIMENTS.md for the
// experiment index and the paper-vs-measured record.
//
// Usage:
//
//	dytis-bench -exp fig8 [-scale 0.001] [-ops N] [-datasets MM,TX] [-seed 1]
//
// Experiments: table1, fig8, fig9, fig10, fig11, fig12, table2, mem,
// params, breakdown, ablation, pgmcmp, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dytis/internal/bench"
	"dytis/internal/core"
	"dytis/internal/datasets"
	"dytis/internal/metrics"
	"dytis/internal/workload"
)

var (
	expFlag      = flag.String("exp", "fig8", "experiment: table1|fig8|fig9|fig10|fig11|fig12|table2|mem|params|breakdown|ablation|pgmcmp|all")
	scaleFlag    = flag.Float64("scale", 0.001, "dataset scale relative to the paper (1.0 = paper size)")
	opsFlag      = flag.Int("ops", 0, "measured ops per workload (0 = half the dataset)")
	seedFlag     = flag.Int64("seed", 1, "dataset + workload seed")
	datasetsFlag = flag.String("datasets", "", "comma-separated dataset filter (default: all of MM,ML,RM,RL,TX)")
	csvFlag      = flag.String("csv", "", "also write per-cell results as CSV to this file (fig8/fig9/table2)")
)

// csvResults accumulates cells for the -csv output.
var csvResults []bench.Result

func record(r bench.Result) bench.Result {
	if *csvFlag != "" {
		csvResults = append(csvResults, r)
	}
	return r
}

func flushCSV() {
	if *csvFlag == "" || len(csvResults) == 0 {
		return
	}
	f, err := os.Create(*csvFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "csv:", err)
		return
	}
	defer f.Close()
	if err := bench.WriteCSV(f, csvResults); err != nil {
		fmt.Fprintln(os.Stderr, "csv:", err)
	}
}

func main() {
	flag.Parse()
	exps := map[string]func(){
		"table1": table1, "fig8": fig8, "fig9": fig9, "fig10": fig10,
		"fig11": fig11, "fig12": fig12, "table2": table2, "mem": memExp,
		"params": params, "breakdown": breakdown, "ablation": ablation,
		"pgmcmp": pgmcmp,
	}
	if *expFlag == "all" {
		for _, name := range []string{"table1", "fig8", "fig9", "fig10", "fig11",
			"fig12", "table2", "mem", "params", "breakdown", "ablation"} {
			fmt.Printf("\n========== %s ==========\n", name)
			exps[name]()
		}
		fmt.Printf("\n========== pgmcmp ==========\n")
		pgmcmp()
		flushCSV()
		return
	}
	run, ok := exps[*expFlag]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *expFlag)
		os.Exit(2)
	}
	run()
	flushCSV()
}

// group1 returns the (possibly filtered) dynamic dataset suite.
func group1() []datasets.Spec {
	if *datasetsFlag == "" {
		return datasets.Group1
	}
	var out []datasets.Spec
	for _, name := range strings.Split(*datasetsFlag, ",") {
		s, ok := datasets.ByName(strings.TrimSpace(name))
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown dataset %q\n", name)
			os.Exit(2)
		}
		out = append(out, s)
	}
	return out
}

var keyCache = map[string][]uint64{}

func keysOf(s datasets.Spec) []uint64 {
	if k, ok := keyCache[s.Name]; ok {
		return k
	}
	k := s.Gen(s.Count(*scaleFlag), *seedFlag)
	keyCache[s.Name] = k
	return k
}

func runCell(f bench.Factory, s datasets.Spec, kind workload.Kind, bulk float64, threads int) bench.Result {
	return record(bench.Run(bench.Config{
		Factory: f, Dataset: s.Name, Keys: keysOf(s), Kind: kind,
		Ops: *opsFlag, BulkFrac: bulk, Threads: threads, Seed: *seedFlag,
	}))
}

// fig8Indexes are the paper's Figure-8 contenders with their bulk fractions.
func fig8Indexes(concurrent bool) []struct {
	f    bench.Factory
	bulk float64
} {
	return []struct {
		f    bench.Factory
		bulk float64
	}{
		{bench.DyTIS(core.Options{Concurrent: concurrent}), 0},
		{bench.ALEX("ALEX-10"), 0.1},
		{bench.ALEX("ALEX-70"), 0.7},
		{bench.XIndex(concurrent), 0.7},
		{bench.BTree(), 0},
	}
}

// table1 prints the dataset inventory of Table 1 with measured dynamic
// characteristics (the quantities behind Figure 1's classification).
func table1() {
	fmt.Println("Table 1: datasets (scaled; classes from the paper, metrics measured)")
	fmt.Printf("%-6s %-28s %10s %14s %9s %8s %8s\n",
		"name", "description", "keys", "keyrange", "size", "skewVar", "KDD")
	chunk := chunkFor()
	for _, s := range datasets.Group1 {
		keys := keysOf(s)
		sv := metrics.SkewnessVariance(keys, chunk)
		kd := metrics.KDD(keys, chunk)
		fmt.Printf("%-6s %-28s %10d %14.3g %8.1fMB %8.2f %8.4f  (paper class: skew=%c kdd=%c)\n",
			s.Name, s.Desc, len(keys), float64(datasets.KeyRangeSize(keys)),
			float64(len(keys)*16)/1e6, sv, kd, s.Skew, s.KDD)
	}
}

// chunkFor scales the paper's 0.1M-key metric chunk with the dataset scale.
func chunkFor() int {
	c := int(100000 * *scaleFlag * 100) // 0.1M at scale 0.001 -> 10k chunks
	if c < 2000 {
		c = 2000
	}
	return c
}

// fig8 reproduces Figure 8: throughput of the seven YCSB-style workloads for
// the five indexes over the five dynamic datasets.
func fig8() {
	fmt.Println("Figure 8: YCSB-style workload throughput (Mops/s)")
	for _, kind := range workload.Kinds {
		fmt.Printf("\n--- workload %s ---\n", kind)
		fmt.Printf("%-10s", "index")
		for _, s := range group1() {
			fmt.Printf("%10s", s.Name)
		}
		fmt.Println()
		for _, ix := range fig8Indexes(false) {
			fmt.Printf("%-10s", ix.f.Name)
			for _, s := range group1() {
				r := runCell(ix.f, s, kind, ix.bulk, 1)
				if r.Unsupported {
					fmt.Printf("%10s", "n/a")
				} else {
					fmt.Printf("%10.3f", r.MopsPerSec())
				}
			}
			fmt.Println()
		}
	}
}

// fig9 reproduces Figure 9: DyTIS vs CCEH vs classic EH on insertion and
// search.
func fig9() {
	fmt.Println("Figure 9: DyTIS vs CCEH vs EH (Mops/s)")
	for _, phase := range []workload.Kind{workload.Load, workload.C} {
		label := "Insertion"
		if phase == workload.C {
			label = "Search"
		}
		fmt.Printf("\n--- %s ---\n", label)
		fmt.Printf("%-8s", "index")
		for _, s := range group1() {
			fmt.Printf("%10s", s.Name)
		}
		fmt.Println()
		for _, f := range []bench.Factory{bench.DyTIS(core.Options{}), bench.CCEH(), bench.EH()} {
			fmt.Printf("%-8s", f.Name)
			for _, s := range group1() {
				r := runCell(f, s, phase, 0, 1)
				fmt.Printf("%10.3f", r.MopsPerSec())
			}
			fmt.Println()
		}
	}
}

// fig10 reproduces Figure 10: ALEX throughput over bulk-loading percentages,
// normalized to ALEX-10.
func fig10() {
	fmt.Println("Figure 10: ALEX bulk-loading sweep (throughput normalized to ALEX-10)")
	fracs := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	for _, s := range group1() {
		fmt.Printf("\n--- %s ---\n", s.Name)
		fmt.Printf("%-8s", "bulk%")
		for _, kind := range workload.Kinds {
			fmt.Printf("%8s", kind)
		}
		fmt.Println()
		base := make(map[workload.Kind]float64)
		for _, frac := range fracs {
			fmt.Printf("%-8.0f", frac*100)
			for _, kind := range workload.Kinds {
				name := fmt.Sprintf("ALEX-%d", int(frac*100))
				r := runCell(bench.ALEX(name), s, kind, frac, 1)
				m := r.MopsPerSec()
				if frac == 0.1 {
					base[kind] = m
					fmt.Printf("%8.2f", 1.0)
				} else if base[kind] > 0 {
					fmt.Printf("%8.2f", m/base[kind])
				} else {
					fmt.Printf("%8s", "-")
				}
			}
			fmt.Println()
		}
	}
}

// fig11 reproduces Figure 11: the influence of KDD (original vs shuffled
// insertion order) and of skewness (shuffled vs Uniform) on insert/search.
func fig11() {
	fmt.Println("Figure 11a: KDD effect — original / shuffled throughput")
	indexes := []struct {
		f    bench.Factory
		bulk float64
	}{
		{bench.DyTIS(core.Options{}), 0},
		{bench.ALEX("ALEX-10"), 0.1},
		{bench.BTree(), 0},
	}
	fmt.Printf("%-10s %-6s %12s %12s\n", "index", "data", "insert", "search")
	for _, s := range group1() {
		shuf := datasets.Shuffled(s)
		for _, ix := range indexes {
			var ratio [2]float64
			for pi, kind := range []workload.Kind{workload.Load, workload.C} {
				orig := runCell(ix.f, s, kind, ix.bulk, 1).MopsPerSec()
				keyCache[shuf.Name] = shuf.Gen(s.Count(*scaleFlag), *seedFlag)
				sh := runCell(ix.f, shuf, kind, ix.bulk, 1).MopsPerSec()
				if sh > 0 {
					ratio[pi] = orig / sh
				}
			}
			fmt.Printf("%-10s %-6s %12.2f %12.2f\n", ix.f.Name, s.Name, ratio[0], ratio[1])
		}
	}

	fmt.Println("\nFigure 11b: skewness effect — shuffled / uniform throughput")
	fmt.Printf("%-10s %-6s %12s %12s\n", "index", "data", "insert", "search")
	for _, s := range group1() {
		shuf := datasets.Shuffled(s)
		n := s.Count(*scaleFlag)
		keyCache[shuf.Name] = shuf.Gen(n, *seedFlag)
		uni := datasets.Spec{Name: "U-" + s.Name, PaperMKeys: s.PaperMKeys,
			Gen: datasets.Uniform.Gen}
		keyCache[uni.Name] = uni.Gen(n, *seedFlag)
		for _, ix := range indexes {
			var ratio [2]float64
			for pi, kind := range []workload.Kind{workload.Load, workload.C} {
				sh := runCell(ix.f, shuf, kind, ix.bulk, 1).MopsPerSec()
				un := runCell(ix.f, uni, kind, ix.bulk, 1).MopsPerSec()
				if un > 0 {
					ratio[pi] = sh / un
				}
			}
			fmt.Printf("%-10s %-6s %12.2f %12.2f\n", ix.f.Name, s.Name, ratio[0], ratio[1])
		}
	}
}

// fig12 reproduces Figure 12: DyTIS vs XIndex thread scaling on RL and TX
// for insertion, search, and scan-100.
func fig12() {
	fmt.Println("Figure 12: thread scaling (Mops/s)")
	threadCounts := []int{1, 2, 4, 8}
	for _, name := range []string{"RL", "TX"} {
		s, _ := datasets.ByName(name)
		fmt.Printf("\n--- %s ---\n", s.Name)
		fmt.Printf("%-8s %-10s", "threads", "index")
		for _, op := range []string{"insert", "search", "scan100"} {
			fmt.Printf("%10s", op)
		}
		fmt.Println()
		for _, th := range threadCounts {
			for _, ix := range []struct {
				f    bench.Factory
				bulk float64
			}{
				{bench.DyTIS(core.Options{Concurrent: true}), 0},
				{bench.XIndex(true), 0.7},
			} {
				fmt.Printf("%-8d %-10s", th, ix.f.Name)
				for _, kind := range []workload.Kind{workload.Load, workload.C, workload.E} {
					r := runCell(ix.f, s, kind, ix.bulk, th)
					fmt.Printf("%10.3f", r.MopsPerSec())
				}
				fmt.Println()
			}
		}
	}
}

// table2 reproduces Table 2: average, p99, and p99.99 latency for Load and
// workload A.
func table2() {
	fmt.Println("Table 2: avg / p99 / p99.99 latency (ns)")
	for _, kind := range []workload.Kind{workload.Load, workload.A} {
		fmt.Printf("\n--- %s ---\n", kind)
		fmt.Printf("%-6s", "data")
		for _, ix := range fig8Indexes(false) {
			fmt.Printf("%26s", ix.f.Name)
		}
		fmt.Println()
		for _, s := range group1() {
			fmt.Printf("%-6s", s.Name)
			for _, ix := range fig8Indexes(false) {
				r := runCell(ix.f, s, kind, ix.bulk, 1)
				fmt.Printf("  %7d/%7d/%8d",
					r.Hist.Mean().Nanoseconds(),
					r.Hist.Quantile(0.99).Nanoseconds(),
					r.Hist.Quantile(0.9999).Nanoseconds())
			}
			fmt.Println()
		}
	}
}

// memExp reproduces the §4.3 memory-usage comparison after a Load.
func memExp() {
	fmt.Println("Memory usage after Load (structure footprint estimate + heap growth)")
	fmt.Printf("%-10s %-6s %14s %14s\n", "index", "data", "footprintMB", "heapMB")
	for _, s := range group1() {
		for _, ix := range fig8Indexes(false) {
			r := runCell(ix.f, s, workload.Load, ix.bulk, 1)
			fmt.Printf("%-10s %-6s %14.2f %14.2f\n", ix.f.Name, s.Name,
				float64(r.FootprintBytes)/1e6, float64(r.HeapBytes)/1e6)
		}
	}
}

// params reproduces the §4.3 parameter-effect study: each DyTIS parameter is
// swept around its default, reporting Load/C/E throughput normalized to the
// default configuration.
func params() {
	fmt.Println("Parameter effect: throughput normalized to the default configuration")
	type variant struct {
		name string
		opts core.Options
	}
	sweeps := []struct {
		param    string
		variants []variant
	}{
		{"Bsize", []variant{
			{"1KB", core.Options{BucketEntries: 64}},
			{"2KB*", core.Options{}},
			{"4KB", core.Options{BucketEntries: 256}},
		}},
		{"Lstart", []variant{
			{"4", core.Options{StartDepth: 4}},
			{"6*", core.Options{}},
			{"8", core.Options{StartDepth: 8}},
			{"10", core.Options{StartDepth: 10}},
		}},
		{"R", []variant{
			{"7", core.Options{FirstLevelBits: 7}},
			{"9*", core.Options{}},
			{"11", core.Options{FirstLevelBits: 11}},
			{"13", core.Options{FirstLevelBits: 13}},
		}},
		{"Ut", []variant{
			{"0.5", core.Options{UtilThreshold: 0.5}},
			{"0.6*", core.Options{}},
			{"0.7", core.Options{UtilThreshold: 0.7}},
		}},
		{"Limitseg", []variant{
			{"2x(fixed)", core.Options{DisableAdaptiveLimit: true}},
			{"adaptive*", core.Options{}},
			{"128x", core.Options{SegLimitMult: 128, DisableAdaptiveLimit: true}},
		}},
	}
	kinds := []workload.Kind{workload.Load, workload.C, workload.E}
	measure := func(name string, opts core.Options) map[workload.Kind]float64 {
		avg := map[workload.Kind]float64{}
		for _, s := range group1() {
			for _, kind := range kinds {
				f := bench.DyTISNamed("DyTIS-"+name, opts)
				avg[kind] += runCell(f, s, kind, 0, 1).MopsPerSec()
			}
		}
		for _, kind := range kinds {
			avg[kind] /= float64(len(group1()))
		}
		return avg
	}
	for _, sw := range sweeps {
		fmt.Printf("\n--- %s (averaged over datasets; * = default) ---\n", sw.param)
		fmt.Printf("%-12s %10s %10s %10s\n", sw.param, "insert", "search", "scan")
		// Measure the default first so every row normalizes against it.
		var base map[workload.Kind]float64
		for _, v := range sw.variants {
			if strings.HasSuffix(v.name, "*") {
				base = measure(v.name, v.opts)
				break
			}
		}
		for _, v := range sw.variants {
			var avg map[workload.Kind]float64
			if strings.HasSuffix(v.name, "*") {
				avg = base
			} else {
				avg = measure(v.name, v.opts)
			}
			fmt.Printf("%-12s", v.name)
			for _, kind := range kinds {
				if base[kind] > 0 {
					fmt.Printf("%10.2f", avg[kind]/base[kind])
				} else {
					fmt.Printf("%10s", "-")
				}
			}
			fmt.Println()
		}
	}
	fmt.Println("\nnote: rows are normalized to the * (default) row of each sweep.")
}

// breakdown reproduces the §4.3 insertion-time breakdown: the share of Load
// time spent in each maintenance operation, per dataset.
func breakdown() {
	fmt.Println("Insertion breakdown: maintenance-operation counts and time share of Load")
	fmt.Printf("%-6s %10s %10s %10s %10s %12s %12s %12s %12s\n",
		"data", "splits", "remaps", "expands", "doublings",
		"split%", "remap%", "expand%", "double%")
	for _, s := range group1() {
		keys := keysOf(s)
		d := core.New(core.Options{})
		t0 := time.Now()
		for _, k := range keys {
			d.Insert(k, k)
		}
		total := time.Since(t0)
		st := d.Stats()
		pct := func(ns int64) float64 { return 100 * float64(ns) / float64(total.Nanoseconds()) }
		fmt.Printf("%-6s %10d %10d %10d %10d %11.1f%% %11.1f%% %11.1f%% %11.1f%%\n",
			s.Name, st.Splits, st.Remaps, st.Expansions, st.Doublings,
			pct(st.SplitNS), pct(st.RemapNS), pct(st.ExpandNS), pct(st.DoubleNS))
	}
}

// ablation quantifies each §3.3 mechanism by disabling it (not a paper
// figure; see DESIGN.md §8).
func ablation() {
	fmt.Println("Ablation: DyTIS mechanisms disabled one at a time (Mops/s)")
	variants := []struct {
		name string
		opts core.Options
	}{
		{"full", core.Options{}},
		{"-remap", core.Options{DisableRemap: true}},
		{"-expansion", core.Options{DisableExpansion: true}},
		{"-adaptive", core.Options{DisableAdaptiveLimit: true}},
		{"-refine", core.Options{DisableRefinement: true}},
	}
	for _, kind := range []workload.Kind{workload.Load, workload.C} {
		fmt.Printf("\n--- workload %s ---\n", kind)
		fmt.Printf("%-12s", "variant")
		for _, s := range group1() {
			fmt.Printf("%10s", s.Name)
		}
		fmt.Println()
		for _, v := range variants {
			fmt.Printf("%-12s", v.name)
			for _, s := range group1() {
				f := bench.DyTISNamed("DyTIS"+v.name, v.opts)
				r := runCell(f, s, kind, 0, 1)
				fmt.Printf("%10.3f", r.MopsPerSec())
			}
			fmt.Println()
		}
	}
}

// pgmcmp is an extension experiment (not a paper figure): DyTIS against the
// dynamic PGM-index of the related-work section, over Load, search, and
// scan — a learned index whose update strategy (geometric run merging)
// differs from both ALEX and XIndex.
func pgmcmp() {
	fmt.Println("Extension: DyTIS vs dynamic PGM-index (Mops/s)")
	for _, kind := range []workload.Kind{workload.Load, workload.C, workload.E} {
		fmt.Printf("\n--- workload %s ---\n", kind)
		fmt.Printf("%-8s", "index")
		for _, s := range group1() {
			fmt.Printf("%10s", s.Name)
		}
		fmt.Println()
		for _, f := range []bench.Factory{bench.DyTIS(core.Options{}), bench.PGM()} {
			fmt.Printf("%-8s", f.Name)
			for _, s := range group1() {
				r := runCell(f, s, kind, 0, 1)
				fmt.Printf("%10.3f", r.MopsPerSec())
			}
			fmt.Println()
		}
	}
}
