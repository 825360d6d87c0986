//go:build dytisfault

package wal_test

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"

	"dytis/internal/check"
	"dytis/internal/core"
	"dytis/internal/wal"
)

// The kill -9 matrix: a child process (this same test binary, re-executed)
// applies a deterministic op sequence to a durable store and prints an ack
// line after each op returns; the parent kills it — asynchronously during
// steady writes, or at an exact durability instant via the Hooks seams
// (mid-checkpoint before and after the snapshot commit, mid-rotation with
// the old segment sealed and the new one not yet created). The parent then
// recovers the directory and holds it to the durability contract:
//
//   - the recovered index passes check.Check (structurally sound);
//   - its contents equal the op sequence applied up to some prefix L
//     (Store serializes mutations, so log order = apply order and the
//     oracle is exact, stronger than the chaos tests' uncertainty sets);
//   - under -fsync always, L >= the number of acked ops: an acked write is
//     never lost. Errors are allowed, wrong answers never.
//
// The op stream is a fixed function of the op index (no seeds to drift), so
// parent and child agree on it by construction.
//
// The concurrent leg (TestCrashRecoveryConcurrent) runs eight writers whose
// mutations share commit groups, so the log's interleaving is no longer
// known to the parent. Writer w owns ops w, w+8, w+16, … of the same
// stream — which keeps each writer's keys its own, deletes included — and
// acks each as it returns. A log prefix then shows as a prefix of every
// writer's sequence: at least its acked ops (an acked write is never lost)
// and at most one more (a writer has one op in flight), with nothing else in
// the index.

const (
	crashGolden = 0x9E3779B97F4A7C15
	crashDirEnv = "WAL_CRASH_DIR"
)

func crashKey(x uint64) uint64 { return x * crashGolden } // odd multiplier: bijective
func crashVal(x uint64) uint64 { return x ^ 0xD1B54A32D192ED03 }

// crashApply drives op i into the callbacks. Each op is exactly one WAL
// record (the two-key batch stays under the split threshold), so torn-tail
// truncation can only land between ops, never inside one.
func crashApply(i uint64, insert func(keys, vals []uint64), del func(key uint64)) {
	switch {
	case i%7 == 3 && i >= 16:
		del(crashKey(2 * (i - 16)))
	case i%13 == 5:
		insert([]uint64{crashKey(2 * i), crashKey(2*i + 1)},
			[]uint64{crashVal(2 * i), crashVal(2*i + 1)})
	default:
		insert([]uint64{crashKey(2 * i)}, []uint64{crashVal(2 * i)})
	}
}

func crashIndexOpts() core.Options {
	return core.Options{FirstLevelBits: 3, BucketEntries: 16, StartDepth: 2}
}

// TestCrashRecoveryChild is the victim process; it only runs when the
// parent points it at a directory via environment.
func TestCrashRecoveryChild(t *testing.T) {
	dir := os.Getenv(crashDirEnv)
	if dir == "" {
		t.Skip("crash child: driven by TestCrashRecovery")
	}
	policy, err := wal.ParseFsyncPolicy(os.Getenv("WAL_CRASH_FSYNC"))
	if err != nil {
		t.Fatal(err)
	}
	total, err := strconv.ParseUint(os.Getenv("WAL_CRASH_OPS"), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	stage := os.Getenv("WAL_CRASH_STAGE")

	// SIGKILL to self: the real crash signature — no deferred closes, no
	// buffer flushes, nothing orderly.
	die := func() {
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
		select {} // unreachable; SIGKILL cannot be handled
	}
	opts := wal.Options{Index: crashIndexOpts(), Fsync: policy}
	switch stage {
	case "": // steady writes; churn rotations and background checkpoints
		opts.SegmentBytes = 8 << 10
		opts.CheckpointBytes = 32 << 10
	case "ckpt-rotated", "ckpt-written":
		opts.CheckpointBytes = -1 // only the explicit checkpoint below
		want := strings.TrimPrefix(stage, "ckpt-")
		opts.Hooks.Checkpoint = func(st string) {
			if st == want {
				die()
			}
		}
	case "rotate-sealed":
		opts.SegmentBytes = 8 << 10
		opts.CheckpointBytes = -1
		rotations := 0
		opts.Hooks.Rotate = func(st string) {
			if st == "sealed" {
				if rotations++; rotations == 2 {
					die()
				}
			}
		}
	default:
		t.Fatalf("unknown crash stage %q", stage)
	}

	s, err := wal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("WAL_CRASH_CONCURRENT") != "" {
		var wg sync.WaitGroup
		for w := uint64(0); w < crashWriters; w++ {
			wg.Add(1)
			go func(w uint64) {
				defer wg.Done()
				for i := uint64(0); i < total/crashWriters; i++ {
					if err := crashDo(s, i*crashWriters+w); err != nil {
						t.Errorf("writer %d op %d: %v", w, i, err)
						return
					}
					fmt.Fprintf(os.Stdout, "ack %d %d\n", w, i+1) // one write(2) per line
				}
			}(w)
		}
		wg.Wait()
		fmt.Fprintln(os.Stdout, "done")
		s.Close()
		return
	}
	for i := uint64(0); i < total; i++ {
		if err := crashDo(s, i); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		fmt.Fprintf(os.Stdout, "ack %d\n", i+1)
	}
	if strings.HasPrefix(stage, "ckpt-") {
		s.Checkpoint() // dies inside, at the hooked stage
	}
	// Steady cases never get here: the parent kills mid-loop. If it raced
	// past the whole workload, say so and let the parent treat the run as a
	// clean-shutdown recovery check instead.
	fmt.Fprintln(os.Stdout, "done")
	s.Close()
}

// startCrashChild re-executes this test binary as the victim process and
// returns it with a line scanner over its acks and its collected stderr.
func startCrashChild(t *testing.T, dir, fsync, stage string, ops uint64, env ...string) (*exec.Cmd, *bufio.Scanner, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashRecoveryChild$")
	cmd.Env = append(append(os.Environ(),
		crashDirEnv+"="+dir,
		"WAL_CRASH_FSYNC="+fsync,
		"WAL_CRASH_STAGE="+stage,
		"WAL_CRASH_OPS="+strconv.FormatUint(ops, 10),
	), env...)
	stderr := &bytes.Buffer{}
	cmd.Stderr = stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd, bufio.NewScanner(stdout), stderr
}

// crashDo applies op i of the stream to the store.
func crashDo(s *wal.Store, i uint64) (err error) {
	crashApply(i,
		func(keys, vals []uint64) {
			if len(keys) == 1 {
				err = s.Insert(keys[0], vals[0])
			} else {
				err = s.InsertBatch(keys, vals)
			}
		},
		func(key uint64) { _, err = s.Delete(key) })
	return err
}

// crashWriters is the concurrent leg's writer count. It divides the
// stream's delete distance (16), so an op and the op whose key it deletes
// belong to the same writer.
const crashWriters = 8

func TestCrashRecoveryConcurrent(t *testing.T) {
	if os.Getenv(crashDirEnv) != "" {
		t.Skip("crash child must not recurse into the parent test")
	}
	const (
		ops    = 8000
		killAt = 3000 // total acks across writers
	)
	dir := t.TempDir()
	cmd, sc, stderr := startCrashChild(t, dir, "always", "", ops, "WAL_CRASH_CONCURRENT=1")
	var acked [crashWriters]uint64
	total, killed, childDone := uint64(0), false, false
	for sc.Scan() {
		line := sc.Text()
		var w, n uint64
		if _, err := fmt.Sscanf(line, "ack %d %d", &w, &n); err == nil && w < crashWriters {
			total += n - acked[w]
			acked[w] = n
		} else if line == "done" {
			childDone = true
		}
		if !killed && total >= killAt {
			killed = true
			if err := cmd.Process.Kill(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cmd.Wait(); err == nil && !childDone {
		t.Fatalf("child exited cleanly without finishing (stderr: %s)", stderr)
	}
	if total == 0 {
		t.Fatalf("no ops acked before the crash (stderr: %s)", stderr)
	}
	t.Logf("child crashed after %d acked ops: %v per writer", total, acked)

	st, err := wal.Open(dir, wal.Options{Index: crashIndexOpts()})
	if err != nil {
		t.Fatalf("recovery failed: %v (stderr: %s)", err, stderr)
	}
	defer st.Close()
	t.Logf("recovery: %+v", st.Recovery())
	if vs := check.Check(st.Index()); len(vs) != 0 {
		t.Fatalf("recovered index unsound: %v", vs)
	}

	// Per writer: the recovered contents of its key space must equal its
	// first L ops for some acked <= L <= acked+1.
	keys := 0
	for w := uint64(0); w < crashWriters; w++ {
		touched := map[uint64]bool{} // every key the writer's whole sequence names
		for i := uint64(0); i < ops/crashWriters; i++ {
			crashApply(i*crashWriters+w,
				func(ks, _ []uint64) {
					for _, k := range ks {
						touched[k] = true
					}
				},
				func(k uint64) { touched[k] = true })
		}
		model := map[uint64]uint64{}
		matched := -1
		for l := uint64(0); l <= min(acked[w]+1, ops/crashWriters); l++ {
			if l > 0 {
				crashApply((l-1)*crashWriters+w,
					func(ks, vs []uint64) {
						for i := range ks {
							model[ks[i]] = vs[i]
						}
					},
					func(k uint64) { delete(model, k) })
			}
			if l < acked[w] {
				continue
			}
			same := true
			for k := range touched {
				got, ok := st.Get(k)
				want, has := model[k]
				if ok != has || got != want {
					same = false
					break
				}
			}
			if same {
				matched = int(l)
				break
			}
		}
		if matched < 0 {
			t.Fatalf("writer %d: recovered keys match neither its first %d (acked) nor %d ops: acked writes lost or wrong answers",
				w, acked[w], acked[w]+1)
		}
		keys += len(model)
	}
	if st.Len() != keys {
		t.Fatalf("recovered Len = %d, the writers' prefixes hold %d keys", st.Len(), keys)
	}
	if err := st.Insert(^uint64(0), 1); err != nil {
		t.Fatalf("post-recovery insert: %v", err)
	}
}

func TestCrashRecovery(t *testing.T) {
	if os.Getenv(crashDirEnv) != "" {
		t.Skip("crash child must not recurse into the parent test")
	}
	cases := []struct {
		name   string
		fsync  string
		stage  string
		ops    uint64
		killAt int // parent SIGKILLs at this ack count; -1 = child dies via hook
	}{
		{"steady-always", "always", "", 4000, 1500},
		{"steady-interval", "interval", "", 30000, 15000},
		{"mid-checkpoint-rotated", "always", "ckpt-rotated", 1200, -1},
		{"mid-checkpoint-written", "always", "ckpt-written", 1200, -1},
		{"mid-rotation", "always", "rotate-sealed", 4000, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cmd, sc, stderr := startCrashChild(t, dir, tc.fsync, tc.stage, tc.ops)
			// Count acks as they stream; past the kill point, pull the
			// trigger and keep draining — acks already in flight when the
			// signal lands still count as acked.
			var acked uint64
			killed, childDone := false, false
			for sc.Scan() {
				line := sc.Text()
				if n, ok := strings.CutPrefix(line, "ack "); ok {
					v, err := strconv.ParseUint(n, 10, 64)
					if err != nil {
						t.Fatalf("bad ack line %q", line)
					}
					acked = v
				} else if line == "done" {
					childDone = true
				}
				if tc.killAt >= 0 && !killed && acked >= uint64(tc.killAt) {
					killed = true
					if err := cmd.Process.Kill(); err != nil {
						t.Fatal(err)
					}
				}
			}
			err := cmd.Wait()
			if tc.killAt < 0 && childDone {
				t.Fatalf("hook stage %q never fired; child ran to completion (stderr: %s)", tc.stage, stderr)
			}
			if err == nil && !childDone {
				t.Fatalf("child exited cleanly without finishing (stderr: %s)", stderr)
			}
			if acked == 0 {
				t.Fatalf("no ops acked before the crash (stderr: %s)", stderr)
			}
			t.Logf("child crashed after %d acked ops", acked)

			st, err := wal.Open(dir, wal.Options{Index: crashIndexOpts()})
			if err != nil {
				t.Fatalf("recovery failed: %v (stderr: %s)", err, stderr)
			}
			defer st.Close()
			info := st.Recovery()
			t.Logf("recovery: %+v", info)
			if vs := check.Check(st.Index()); len(vs) != 0 {
				t.Fatalf("recovered index unsound: %v", vs)
			}

			// Exact-prefix oracle: walk prefixes of the op sequence until
			// one reproduces the recovered state; under always it must lie
			// at or past the acked count.
			minL := uint64(0)
			if tc.fsync == "always" {
				minL = acked
			}
			model := map[uint64]uint64{}
			matched := int64(-1)
			for l := uint64(0); l <= tc.ops; l++ {
				if l > 0 {
					crashApply(l-1,
						func(keys, vals []uint64) {
							for i := range keys {
								model[keys[i]] = vals[i]
							}
						},
						func(key uint64) { delete(model, key) })
				}
				if l >= minL && modelMatches(st, model) {
					matched = int64(l)
					break
				}
			}
			if matched < 0 {
				t.Fatalf("recovered state (%d keys) matches no op-sequence prefix >= %d acked (of %d ops): acked writes lost or wrong answers",
					st.Len(), minL, tc.ops)
			}
			t.Logf("recovered state = prefix of %d ops (%d acked)", matched, acked)

			// The recovered store keeps serving.
			if err := st.Insert(^uint64(0), 1); err != nil {
				t.Fatalf("post-recovery insert: %v", err)
			}
		})
	}
}

// modelMatches reports whether the store's contents equal the model map
// exactly (size and every pair).
func modelMatches(s *wal.Store, model map[uint64]uint64) bool {
	if s.Len() != len(model) {
		return false
	}
	for k, v := range model {
		if got, ok := s.Get(k); !ok || got != v {
			return false
		}
	}
	return true
}
