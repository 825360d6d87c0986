// Command benchmark is the repository's one stack benchmark: five workloads
// that each stress a different layer of core -> wal -> cluster -> server ->
// client, twelve end-to-end metrics with identical names on all of them, and
// a traced run that replays one op stream at every layer boundary. See
// README.md beside this file; BENCHMARK.json at the repository root fixes
// each metric's direction and regression bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

const (
	schemaVersion = 1
	warmup        = 2 * time.Second // run before every measured phase and discarded
)

// report is what -out writes: the host stamp and every run made.
type report struct {
	Schema     int       `json:"schema"`
	Commit     string    `json:"commit"`
	GoVersion  string    `json:"go_version"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	ScratchFS  string    `json:"scratch_fs"` // filesystem type under the WAL directories
	Traced     bool      `json:"traced"`
	Runs       []*result `json:"runs"`
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed     = flag.Int64("seed", 1, "seed every input is derived from")
		seconds  = flag.Int("seconds", 10, "length of the measured phase; the same on both sides of any comparison")
		trace    = flag.Int("trace", 0, "1 replays the workload's stream at every layer boundary and reports the per-layer metrics")
		runs     = flag.Int("runs", 1, "repeat each workload this many times, with seeds seed, seed+1, ...; each run is a process of its own")
		out      = flag.String("out", "", "write the stamped results of every run to this file")
		dir      = flag.String("dir", ".bench_build", "scratch directory for WAL files and trace.json; must not be tmpfs")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments; exits 1 if any pair is worse")
		bounds   = flag.String("bounds", "BENCHMARK.json", "with -compare: where the metrics' directions and bounds are")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		worse, err := compareFiles(os.Stdout, *bounds, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	var todo []spec
	if *workload == "all" {
		todo = specs
	} else if sp, ok := specByName(*workload); ok {
		todo = []spec{sp}
	} else {
		fatal("unknown workload %q; have %s", *workload, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatal("%v", err)
	}
	fs, err := fsType(*dir)
	if err != nil {
		fatal("%v", err)
	}
	if fs == "tmpfs" {
		fatal("%s is on tmpfs, where fsync costs nothing; give -dir a directory on a real filesystem", *dir)
	}

	rep := report{Schema: schemaVersion, Commit: commit(), GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), ScratchFS: fs, Traced: *trace == 1}
	for _, sp := range todo {
		for r := 0; r < *runs; r++ {
			var res *result
			var err error
			switch s := *seed + int64(r); {
			case len(todo)**runs > 1:
				// Earlier runs leave a process with a grown heap and parked
				// threads, and later ones measurably slower; so that every
				// run meets the same conditions, each gets a fresh process.
				res, err = runChild(sp.name, s, *seconds, *trace, *dir)
			case *trace == 1:
				res, err = runTraced(sp, s, *seconds*traceOpsPerSecond, *dir)
				res.print()
			default:
				res, err = runWorkload(sp, s, warmup, time.Duration(*seconds)*time.Second, *dir)
				res.print()
			}
			if err != nil {
				fatal("%s: %v", sp.name, err)
			}
			rep.Runs = append(rep.Runs, res)
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal("%v", err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal("%v", err)
		}
	}
	for _, res := range rep.Runs {
		if !res.Correct {
			os.Exit(1)
		}
	}
}

// runChild makes one run in a child process of this same binary and reads
// its result back from a file.
func runChild(workload string, seed int64, seconds, trace int, dir string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(dir, "run.json")
	defer os.Remove(out)
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(trace), "-dir", dir, "-out", out)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	// Exit code 1 is an incorrect run, which the result itself says.
	if err := cmd.Run(); err != nil && cmd.ProcessState.ExitCode() != 1 {
		return nil, err
	}
	var rep report
	if err := readJSON(out, &rep); err != nil {
		return nil, err
	}
	return rep.Runs[0], nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() []string {
	var names []string
	for _, sp := range specs {
		names = append(names, sp.name)
	}
	return names
}

// print writes every metric by name with its unit, then the one-line JSON
// summary a driver reads: correct, attempted, failed, metrics.
func (res *result) print() {
	fmt.Printf("# %s seed=%d seconds=%g callers=%d connections=%d keys=%d attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Seconds, res.Callers, res.Conns, res.Keys, res.Attempted, res.Failed)
	if res.FirstFailure != "" {
		fmt.Printf("# first failed op: %s\n", res.FirstFailure)
	}
	for _, v := range res.Violations {
		fmt.Printf("# violation: %s\n", v)
	}
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		note := ""
		if m.Samples > 0 {
			note = fmt.Sprintf(" n=%d", m.Samples)
		}
		if m.Thin {
			note += " thin"
		}
		fmt.Printf("%-36s %16.4f %-5s%s\n", name, m.Value, m.Unit, note)
	}
	for _, name := range sortedKeys(res.Diag) {
		fmt.Printf("# diagnostic %s %.6g\n", name, res.Diag[name])
	}
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool            `json:"correct"`
		Attempted int64           `json:"attempted"`
		Failed    int64           `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]wire{}}
	for name, m := range res.Metrics {
		line.Metrics[name] = wire{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("%s\n", data)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// commit is the checkout's HEAD, or "unknown" outside a git repository.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsType names the filesystem dir is on.
func fsType(dir string) (string, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "", fmt.Errorf("statfs %s: %w", dir, err)
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs", nil
	case 0xEF53:
		return "ext4", nil
	case 0x58465342:
		return "xfs", nil
	case 0x9123683E:
		return "btrfs", nil
	case 0x794C7630:
		return "overlayfs", nil
	}
	return fmt.Sprintf("%#x", uint32(st.Type)), nil
}
