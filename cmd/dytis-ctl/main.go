// Command dytis-ctl administers a sharded dytis cluster: it creates the
// initial shard map, inspects per-server state, and drives live range
// rebalancing (handover) between shard servers.
//
// Usage:
//
//	dytis-ctl create -addrs :7071,:7072,:7073
//	    Build the epoch-1 uniform map over the listed servers (each must be
//	    running with a matching -shard i/n range) and install it on all.
//
//	dytis-ctl map -seed :7071
//	    Fetch and print the current shard map.
//
//	dytis-ctl status -addrs :7071,:7072,:7073
//	    Print each server's owned range, epoch, and handover state.
//
//	dytis-ctl rebalance -seed :7071 -lo 0x4000000000000000 -hi 0x7fffffffffffffff -to :7074
//	    Live-move [lo, hi] to the server at -to: bulk copy, double-write
//	    mirror, then cut over (source de-owns first, target granted, rest
//	    informed). The moved range must lie within one current shard; the
//	    target must be a fresh server (-shard none) or the owner of an
//	    adjacent range. A handover interrupted by transient faults is
//	    resumed automatically (bounded) before the command gives up.
//
//	dytis-ctl rebalance -seed :7071 -resume :7072
//	    Pick up the suspended (or orphaned) handover on the source server
//	    at -resume: replay journaled writes, continue the bulk copy from
//	    its watermark, and cut over.
//
//	dytis-ctl rebalance -seed :7071 -abort :7072
//	    Abandon the handover on the source server at -abort, scrubbing the
//	    partial copy from its target. The shard map is untouched.
//
//	dytis-ctl check -addr :7070 -keys 65536
//	dytis-ctl check -seed :7071 -keys 131072
//	    Smoke-test a standalone server (-addr) or a cluster (-seed): load
//	    -keys keys with InsertBatch from 4 goroutines, read each back with
//	    GetBatch (and a sample with Get), compare Len, and run one full
//	    streamed scan that must return exactly those pairs in ascending
//	    order. A failure names its phase: load, read, len or scan.
//
// Every command exits 0 on success, 1 on failure, with errors on stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"dytis/client"
	"dytis/internal/cluster"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "create":
		err = cmdCreate(args)
	case "map":
		err = cmdMap(args)
	case "status":
		err = cmdStatus(args)
	case "rebalance":
		err = cmdRebalance(args)
	case "check":
		err = cmdCheck(args)
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "dytis-ctl: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dytis-ctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: dytis-ctl <command> [flags]

commands:
  create     -addrs a,b,c [-timeout d]        install the initial uniform shard map
  map        -seed addr   [-timeout d]        print the current shard map
  status     -addrs a,b,c [-timeout d]        print each server's shard state
  rebalance  -seed addr -lo k -hi k -to addr  live-move [lo, hi] to another server
  rebalance  -seed addr -resume addr          resume a suspended handover through cutover
  rebalance  -seed addr -abort addr           abandon a handover, scrubbing its target
  check      -addr addr | -seed addr [-keys n] load, read back, count and scan n keys`)
}

// withTimeout attaches the -timeout flag's budget to a fresh context.
func withTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

func splitAddrs(s string) ([]string, error) {
	var addrs []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("-addrs: no addresses")
	}
	return addrs, nil
}

// parseKey accepts decimal or 0x-prefixed hex.
func parseKey(name, s string) (uint64, error) {
	if s == "" {
		return 0, fmt.Errorf("%s is required", name)
	}
	k, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("%s %q: %w", name, s, err)
	}
	return k, nil
}

func cmdCreate(args []string) error {
	fs := flag.NewFlagSet("create", flag.ExitOnError)
	addrsFlag := fs.String("addrs", "", "comma-separated shard server addresses, in key-range order")
	timeout := fs.Duration("timeout", 10*time.Second, "total command budget")
	fs.Parse(args)
	addrs, err := splitAddrs(*addrsFlag)
	if err != nil {
		return err
	}
	m, err := cluster.Uniform(1, addrs)
	if err != nil {
		return err
	}
	blob := m.Encode()
	ctx, cancel := withTimeout(*timeout)
	defer cancel()
	for i, s := range m.Shards {
		c, err := client.Dial(s.Addr)
		if err != nil {
			return fmt.Errorf("shard %d at %s: %w", i, s.Addr, err)
		}
		err = c.RequireCluster(ctx)
		if err == nil {
			err = c.SetShardMap(ctx, s.Lo, s.Hi, blob)
		}
		c.Close()
		if err != nil {
			return fmt.Errorf("installing map on shard %d at %s: %w", i, s.Addr, err)
		}
		fmt.Printf("shard %d  [%#016x, %#016x]  %s  installed\n", i, s.Lo, s.Hi, s.Addr)
	}
	fmt.Printf("shard map epoch %d installed on %d servers\n", m.Epoch, len(m.Shards))
	return nil
}

func cmdMap(args []string) error {
	fs := flag.NewFlagSet("map", flag.ExitOnError)
	seed := fs.String("seed", "", "any shard server address")
	timeout := fs.Duration("timeout", 10*time.Second, "total command budget")
	fs.Parse(args)
	if *seed == "" {
		return fmt.Errorf("-seed is required")
	}
	c, err := client.Dial(*seed)
	if err != nil {
		return err
	}
	defer c.Close()
	ctx, cancel := withTimeout(*timeout)
	defer cancel()
	blob, err := c.ShardMap(ctx)
	if err != nil {
		return err
	}
	m, err := cluster.DecodeMap(blob)
	if err != nil {
		return err
	}
	printMap(m)
	return nil
}

func printMap(m *cluster.Map) {
	fmt.Printf("epoch %d, %d shard(s)\n", m.Epoch, len(m.Shards))
	for i, s := range m.Shards {
		fmt.Printf("  %3d  [%#016x, %#016x]  %s\n", i, s.Lo, s.Hi, s.Addr)
	}
}

func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	addrsFlag := fs.String("addrs", "", "comma-separated shard server addresses")
	timeout := fs.Duration("timeout", 10*time.Second, "total command budget")
	fs.Parse(args)
	addrs, err := splitAddrs(*addrsFlag)
	if err != nil {
		return err
	}
	ctx, cancel := withTimeout(*timeout)
	defer cancel()
	for _, addr := range addrs {
		c, err := client.Dial(addr)
		if err != nil {
			fmt.Printf("%-20s unreachable: %v\n", addr, err)
			continue
		}
		info, err := c.ShardInfo(ctx)
		var n int
		if err == nil {
			n, err = c.Len(ctx)
		}
		var ho cluster.HandoverInfo
		if err == nil && info.State != cluster.HandoverNone {
			// Best-effort detail: a node that just reported its state can
			// still race a concurrent abort clearing the handover.
			ho, _ = c.HandoverStatus(ctx)
		}
		c.Close()
		if err != nil {
			fmt.Printf("%-20s error: %v\n", addr, err)
			continue
		}
		owned := fmt.Sprintf("[%#016x, %#016x]", info.Lo, info.Hi)
		if info.Lo > info.Hi {
			owned = "(nothing)"
		}
		fmt.Printf("%-20s epoch %-4d %-42s keys %-10d handover %s\n",
			addr, info.Epoch, owned, n, cluster.HandoverStateName(info.State))
		if ho.Target != "" {
			fmt.Printf("%-20s   moving [%#016x, %#016x] to %s: copied %d, mirrored %d, retries %d, resumes %d, watermark %#x\n",
				"", ho.Lo, ho.Hi, ho.Target, ho.Copied, ho.Mirrored, ho.Retries, ho.Resumes, ho.Watermark)
		}
		if ho.Cause != nil {
			fmt.Printf("%-20s   suspended: %v\n", "", ho.Cause)
		}
	}
	return nil
}

func cmdRebalance(args []string) error {
	fs := flag.NewFlagSet("rebalance", flag.ExitOnError)
	seed := fs.String("seed", "", "any shard server address (used to fetch the current map)")
	loFlag := fs.String("lo", "", "first key of the range to move (decimal or 0x hex)")
	hiFlag := fs.String("hi", "", "last key of the range to move (inclusive)")
	to := fs.String("to", "", "address of the server receiving the range")
	resume := fs.String("resume", "", "resume the suspended handover on this source server")
	abort := fs.String("abort", "", "abandon the handover on this source server")
	timeout := fs.Duration("timeout", 5*time.Minute, "total command budget (bulk copy included)")
	fs.Parse(args)
	if *seed == "" {
		return fmt.Errorf("-seed is required")
	}
	mode := 0
	if *to != "" || *loFlag != "" || *hiFlag != "" {
		mode++
	}
	if *resume != "" {
		mode++
	}
	if *abort != "" {
		mode++
	}
	if mode != 1 {
		return fmt.Errorf("exactly one of -lo/-hi/-to, -resume, or -abort must be given")
	}
	cl, err := client.DialCluster([]string{*seed})
	if err != nil {
		return err
	}
	defer cl.Close()
	ctx, cancel := withTimeout(*timeout)
	defer cancel()
	switch {
	case *resume != "":
		fmt.Printf("resuming handover on %s...\n", *resume)
		if err := cl.ResumeRebalance(ctx, *resume); err != nil {
			return err
		}
	case *abort != "":
		fmt.Printf("aborting handover on %s...\n", *abort)
		if err := cl.AbortRebalance(ctx, *abort); err != nil {
			return err
		}
		fmt.Println("handover aborted; shard map unchanged")
		return nil
	default:
		lo, err := parseKey("-lo", *loFlag)
		if err != nil {
			return err
		}
		hi, err := parseKey("-hi", *hiFlag)
		if err != nil {
			return err
		}
		if *to == "" {
			return fmt.Errorf("-to is required")
		}
		fmt.Printf("moving [%#x, %#x] to %s...\n", lo, hi, *to)
		if err := cl.Rebalance(ctx, lo, hi, *to); err != nil {
			return err
		}
	}
	fmt.Printf("rebalance complete; new map:\n")
	printMap(cl.Map())
	return nil
}
