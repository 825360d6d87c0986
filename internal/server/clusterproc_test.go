//go:build dytisfault

package server_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"dytis/client"
	"dytis/internal/cluster"
	"dytis/internal/core"
	"dytis/internal/server"
)

// The cluster kill -9 matrix: real dytis-server-shaped processes (this test
// binary re-executed), a routed client driving traffic, and SIGKILL landing
// on a shard — mid-traffic, and on the old owner mid-handover. The contract
// under fire is fail-closed: operations touching the dead range error,
// scans error rather than silently truncate, surviving ranges answer
// exactly as before, and a handover whose source dies is reported as a
// failure with ownership never granted to the target. Errors are allowed;
// wrong answers and lost acked writes on surviving shards never.

const (
	clusterProcEnv = "DYTIS_CLUSTERPROC_SHARD" // "lo:hi" in hex, marks the child
)

// TestClusterProcChild is one shard-server process; it only runs when the
// parent points it at a range via environment. It prints its listen address
// and serves until killed.
func TestClusterProcChild(t *testing.T) {
	rng := os.Getenv(clusterProcEnv)
	if rng == "" {
		t.Skip("cluster child: driven by the kill-matrix parents")
	}
	var lo, hi uint64
	if _, err := fmt.Sscanf(rng, "%x:%x", &lo, &hi); err != nil {
		t.Fatalf("bad %s=%q: %v", clusterProcEnv, rng, err)
	}
	idx := core.New(smallOpts())
	node, err := cluster.NewNode(cluster.NodeConfig{Index: idx, Lo: lo, Hi: hi, Dial: testDialPeer})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Index: idx, Cluster: node, MaxConns: 64})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("READY %s\n", ln.Addr())
	t.Fatal(srv.Serve(ln)) // serves until the parent kills the process
}

// clusterChild is one spawned shard process.
type clusterChild struct {
	addr string
	cmd  *exec.Cmd
}

func (c *clusterChild) kill() {
	if c.cmd.Process != nil {
		syscall.Kill(c.cmd.Process.Pid, syscall.SIGKILL)
	}
	c.cmd.Wait()
}

// spawnShard re-executes the test binary as a shard server owning [lo, hi]
// and waits for its READY line.
func spawnShard(t *testing.T, lo, hi uint64) *clusterChild {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestClusterProcChild$", "-test.v")
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%x:%x", clusterProcEnv, lo, hi))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	ch := &clusterChild{cmd: cmd}
	t.Cleanup(ch.kill)

	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), "READY "); ok {
				ready <- addr
				break
			}
		}
		close(ready)
	}()
	select {
	case addr, ok := <-ready:
		if !ok || addr == "" {
			t.Fatalf("child exited before READY; stderr:\n%s", stderr.String())
		}
		ch.addr = addr
	case <-time.After(30 * time.Second):
		t.Fatalf("child never printed READY; stderr:\n%s", stderr.String())
	}
	return ch
}

// spawnCluster boots n uniform shard processes and installs the epoch-1 map.
func spawnCluster(t *testing.T, n int) []*clusterChild {
	t.Helper()
	width := ^uint64(0)/uint64(n) + 1
	children := make([]*clusterChild, n)
	addrs := make([]string, n)
	for i := range children {
		lo := uint64(i) * width
		hi := lo + width - 1
		if i == n-1 {
			hi = ^uint64(0)
		}
		children[i] = spawnShard(t, lo, hi)
		addrs[i] = children[i].addr
	}
	m, err := cluster.Uniform(1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	blob := m.Encode()
	ctx := context.Background()
	for i, ch := range children {
		c, err := client.Dial(ch.addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SetShardMap(ctx, m.Shards[i].Lo, m.Shards[i].Hi, blob); err != nil {
			t.Fatalf("installing map on shard %d: %v", i, err)
		}
		c.Close()
	}
	return children
}

// TestClusterProcKillShard SIGKILLs one shard process mid-traffic and holds
// the routed client to the fail-closed contract.
func TestClusterProcKillShard(t *testing.T) {
	if os.Getenv(clusterProcEnv) != "" {
		t.Skip("cluster child must not recurse into the parent test")
	}
	children := spawnCluster(t, 3)
	ctx := context.Background()

	cl, err := client.DialCluster([]string{children[0].addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	oracle := make(map[uint64]uint64)
	var mu sync.Mutex
	for i := uint64(0); i < 2000; i++ {
		k := spread(i)
		if err := cl.Insert(ctx, k, i); err != nil {
			t.Fatal(err)
		}
		oracle[k] = i
	}

	// Traffic runs while the kill lands. Writers record only acked writes;
	// an error after the kill is expected (the dead range fails closed) and
	// ends that writer.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := spread(500_000 + uint64(w)*100_000 + i%2000)
				if err := cl.Insert(ctx, k, i); err != nil {
					return // dead range: fail-closed error, not a wrong answer
				}
				mu.Lock()
				oracle[k] = i
				mu.Unlock()
			}
		}(w)
	}
	time.Sleep(100 * time.Millisecond)
	width := ^uint64(0)/3 + 1
	deadLo, deadHi := width, 2*width-1
	children[1].kill()
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	opCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()

	// Dead range: errors, never hangs or stale answers.
	if _, _, err := cl.Get(opCtx, deadLo+5); err == nil {
		t.Fatal("Get on killed shard succeeded")
	}
	// Scans must fail closed, not return a truncated two-shard result.
	if _, _, err := scanAll(opCtx, cl, 0, 0); err == nil {
		t.Fatal("cluster scan with a killed shard returned success")
	}
	// Every acked write on a surviving shard is still there, exact.
	mu.Lock()
	defer mu.Unlock()
	for k, want := range oracle {
		if k >= deadLo && k <= deadHi {
			continue
		}
		v, found, err := cl.Get(ctx, k)
		if err != nil || !found || v != want {
			t.Fatalf("surviving shard Get(%#x) = (%d, %v, %v), oracle %d", k, v, found, err, want)
		}
	}
}

// TestClusterProcKillOldOwnerMidHandover SIGKILLs the handover source while
// the bulk copy is running: the rebalance must fail (never silently
// "succeed"), ownership must never transfer, and the surviving shards must
// keep answering exactly.
func TestClusterProcKillOldOwnerMidHandover(t *testing.T) {
	if os.Getenv(clusterProcEnv) != "" {
		t.Skip("cluster child must not recurse into the parent test")
	}
	children := spawnCluster(t, 3)
	fresh := spawnShard(t, 1, 0) // owns nothing
	ctx := context.Background()

	cl, err := client.DialCluster([]string{children[0].addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	oracle := make(map[uint64]uint64)
	for i := uint64(0); i < 30_000; i++ { // enough pages that the copy has duration
		k := spread(i)
		if err := cl.Insert(ctx, k, i); err != nil {
			t.Fatal(err)
		}
		oracle[k] = i
	}

	mid := cl.Map().Shards[1]
	src, err := client.Dial(children[1].addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.HandoverStart(ctx, mid.Lo, mid.Hi, fresh.addr); err != nil {
		t.Fatalf("handover start: %v", err)
	}
	// Kill the old owner while the copy is in flight (state copying). If
	// the copy already finished, the kill still lands before any cutover —
	// the map is never advanced, so ownership must not move either way.
	p, err := src.HandoverStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("killing old owner in handover state %d (copied %d)", p.State, p.Copied)
	children[1].kill()
	src.Close()

	// The target must never have been granted ownership: no SetShardMap ran,
	// so it still owns nothing at epoch 0 or 1.
	fc, err := client.Dial(fresh.addr)
	if err != nil {
		t.Fatal(err)
	}
	info, err := fc.ShardInfo(ctx)
	fc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if info.Lo <= info.Hi {
		t.Fatalf("target owns [%#x, %#x] after source died mid-handover", info.Lo, info.Hi)
	}

	// Surviving shards answer exactly; the dead range fails closed.
	opCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if _, _, err := cl.Get(opCtx, mid.Lo+5); err == nil {
		t.Fatal("Get on killed source succeeded")
	}
	if _, _, err := scanAll(opCtx, cl, 0, 0); err == nil {
		t.Fatal("scan with killed source returned success")
	}
	for i := uint64(0); i < 30_000; i += 131 {
		k := spread(i)
		if k >= mid.Lo && k <= mid.Hi {
			continue
		}
		v, found, err := cl.Get(ctx, k)
		if err != nil || !found || v != oracle[k] {
			t.Fatalf("surviving Get(%#x) = (%d, %v, %v), oracle %d", k, v, found, err, oracle[k])
		}
	}
}
