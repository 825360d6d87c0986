package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"dytis/client"
	"dytis/internal/cluster"
	"dytis/internal/core"
	"dytis/internal/server"
)

// The cluster experiment measures sharded serving end to end: bulk load,
// point reads, and the chained full scan (one shard's stream after the
// next, in map order), through the routed client against an N-shard
// cluster, next to the same workload against one server through the plain
// client. In-process shards (the default) share one machine's cores, so the
// interesting read is serving overhead and the scan's shard-to-shard
// hand-offs; true multi-process scaling comes from -cluster-addrs
// pointed at separately launched dytis-server -shard processes (see
// EXPERIMENTS.md for the 3-process recipe).
var (
	clusterAddrs   = flag.String("cluster-addrs", "", "comma-separated addresses of already-running shard servers (launched with -shard, map installed); empty = in-process shards")
	clusterShards  = flag.Int("cluster-shards", 3, "in-process shard count for -exp cluster when -cluster-addrs is empty")
	clusterClients = flag.Int("cluster-clients", 4, "concurrent client goroutines in -exp cluster")
	clusterKeys    = flag.Int("cluster-keys", 1<<20, "key count for -exp cluster")
	clusterReads   = flag.Int("cluster-reads", 1<<20, "point-read count for -exp cluster")
	clusterJSON    = flag.String("cluster-json", "", "also write the -exp cluster results as JSON to this file")
)

// clusterGolden spreads a counter over the whole key space (odd multiplier:
// bijective), so a uniform shard map sees uniform load.
const clusterGolden = 0x9E3779B97F4A7C15

func clusterKey(i uint64) uint64 { return i * clusterGolden }

type clusterCell struct {
	Config     string  `json:"config"` // "single" or "cluster-N"
	Shards     int     `json:"shards"`
	Clients    int     `json:"clients"`
	Keys       int     `json:"keys"`
	LoadMops   float64 `json:"load_mops_per_sec"`
	GetMops    float64 `json:"get_mops_per_sec"`
	ScanMpairs float64 `json:"scan_mpairs_per_sec"`
	LoadMs     int64   `json:"load_wall_ms"`
	GetMs      int64   `json:"get_wall_ms"`
	ScanMs     int64   `json:"scan_wall_ms"`
}

func clusterExp() {
	n := *clusterKeys
	fmt.Printf("Sharded serving: %d keys, %d client goroutines, GOMAXPROCS %d\n",
		n, *clusterClients, runtime.GOMAXPROCS(0))
	fmt.Printf("%-12s %7s %12s %12s %12s\n", "config", "shards", "load_Mops", "get_Mops", "scan_Mpairs")

	var cells []clusterCell

	// Baseline: one plain server, one pooled client.
	single, err := runClusterCell("single", 1, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "single:", err)
		os.Exit(1)
	}
	cells = append(cells, single)

	// The cluster: external processes when -cluster-addrs is given,
	// in-process shards otherwise.
	var addrs []string
	if *clusterAddrs != "" {
		for _, a := range strings.Split(*clusterAddrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
	}
	shards := len(addrs)
	if shards == 0 {
		shards = *clusterShards
	}
	clusterCellRes, err := runClusterCell(fmt.Sprintf("cluster-%d", shards), shards, addrs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cluster:", err)
		os.Exit(1)
	}
	cells = append(cells, clusterCellRes)

	for _, c := range cells {
		fmt.Printf("%-12s %7d %12.3f %12.3f %12.3f\n", c.Config, c.Shards, c.LoadMops, c.GetMops, c.ScanMpairs)
	}
	fmt.Printf("scaling: load %.2fx, get %.2fx, scan %.2fx over single-server\n",
		clusterCellRes.LoadMops/single.LoadMops,
		clusterCellRes.GetMops/single.GetMops,
		clusterCellRes.ScanMpairs/single.ScanMpairs)

	if *clusterJSON != "" {
		out := struct {
			Keys    int           `json:"keys"`
			Clients int           `json:"clients"`
			Cells   []clusterCell `json:"configs"`
		}{n, *clusterClients, cells}
		data, _ := json.MarshalIndent(out, "", "  ")
		if err := os.WriteFile(*clusterJSON, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "cluster-json:", err)
		}
	}
}

// startBenchShards boots n in-process shard servers with the epoch-1
// uniform map installed, returning their addresses and a teardown.
func startBenchShards(n int) ([]string, func(), error) {
	width := ^uint64(0)/uint64(n) + 1
	addrs := make([]string, n)
	var stops []func()
	stop := func() {
		for _, f := range stops {
			f()
		}
	}
	for i := 0; i < n; i++ {
		lo := uint64(i) * width
		hi := lo + width - 1
		if i == n-1 {
			hi = ^uint64(0)
		}
		idx := core.New(core.Options{Concurrent: true})
		node, err := cluster.NewNode(cluster.NodeConfig{Index: idx, Lo: lo, Hi: hi})
		if err != nil {
			stop()
			return nil, nil, err
		}
		srv := server.New(server.Config{Index: idx, Cluster: node, MaxConns: *clusterClients * 4 * n})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stop()
			return nil, nil, err
		}
		go srv.Serve(ln)
		addrs[i] = ln.Addr().String()
		stops = append(stops, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			srv.Shutdown(ctx)
			cancel()
			idx.Close()
		})
	}
	m, err := cluster.Uniform(1, addrs)
	if err != nil {
		stop()
		return nil, nil, err
	}
	blob := m.Encode()
	ctx := context.Background()
	for i, s := range m.Shards {
		c, err := client.Dial(s.Addr)
		if err == nil {
			err = c.SetShardMap(ctx, s.Lo, s.Hi, blob)
			c.Close()
		}
		if err != nil {
			stop()
			return nil, nil, fmt.Errorf("installing map on shard %d: %w", i, err)
		}
	}
	return addrs, stop, nil
}

// runClusterCell measures one configuration. shards == 1 with no addrs is
// the plain single-server baseline; otherwise the routed client drives the
// given (or freshly started in-process) shard set.
func runClusterCell(config string, shards int, addrs []string) (clusterCell, error) {
	ctx := context.Background()
	teardown := func() {}

	var api *client.Client
	if shards == 1 && addrs == nil {
		idx := core.New(core.Options{Concurrent: true})
		srv := server.New(server.Config{Index: idx, MaxConns: *clusterClients * 4})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return clusterCell{}, err
		}
		go srv.Serve(ln)
		teardown = func() {
			sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			srv.Shutdown(sctx)
			cancel()
			idx.Close()
		}
		c, err := client.Dial(ln.Addr().String())
		if err != nil {
			teardown()
			return clusterCell{}, err
		}
		api = c
	} else {
		if addrs == nil {
			var err error
			addrs, teardown, err = startBenchShards(shards)
			if err != nil {
				return clusterCell{}, err
			}
		}
		cl, err := client.DialCluster(addrs[:1])
		if err != nil {
			teardown()
			return clusterCell{}, err
		}
		api = cl
	}
	defer teardown()
	defer api.Close()

	cell := clusterCell{Config: config, Shards: shards, Clients: *clusterClients, Keys: *clusterKeys}

	// Load: every client goroutine batch-inserts its slice of the key set.
	n := *clusterKeys
	const chunk = 4096
	var wg sync.WaitGroup
	errs := make([]error, *clusterClients)
	per := n / *clusterClients
	t0 := time.Now()
	for w := 0; w < *clusterClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo, hi := w*per, (w+1)*per
			if w == *clusterClients-1 {
				hi = n
			}
			keys := make([]uint64, 0, chunk)
			for i := lo; i < hi; i += chunk {
				end := i + chunk
				if end > hi {
					end = hi
				}
				keys = keys[:0]
				for j := i; j < end; j++ {
					keys = append(keys, clusterKey(uint64(j)))
				}
				if err := api.InsertBatch(ctx, keys, keys); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	loadWall := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return clusterCell{}, err
		}
	}
	if got, err := api.Len(ctx); err != nil || got != n {
		return clusterCell{}, fmt.Errorf("after load Len = %d, %v; want %d", got, err, n)
	}
	cell.LoadMops = float64(n) / loadWall.Seconds() / 1e6
	cell.LoadMs = loadWall.Milliseconds()

	// Point reads, striped over the goroutines.
	reads := *clusterReads
	perR := reads / *clusterClients
	t0 = time.Now()
	for w := 0; w < *clusterClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perR; i++ {
				k := clusterKey(uint64((w*perR + i) % n))
				if _, found, err := api.Get(ctx, k); err != nil || !found {
					errs[w] = fmt.Errorf("Get(%#x) = (found=%v, err=%v)", k, found, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	getWall := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return clusterCell{}, err
		}
	}
	cell.GetMops = float64(perR**clusterClients) / getWall.Seconds() / 1e6
	cell.GetMs = getWall.Milliseconds()

	// Full ordered scan: one server's stream vs the chain of shard streams.
	t0 = time.Now()
	s := api.ScanStream(ctx, 0, 0)
	count, last, ordered := 0, uint64(0), true
	for s.Next() {
		if count > 0 && s.Key() <= last {
			ordered = false
		}
		last = s.Key()
		count++
	}
	scanWall := time.Since(t0)
	err := s.Err()
	s.Close()
	if err != nil {
		return clusterCell{}, err
	}
	if count != n || !ordered {
		return clusterCell{}, fmt.Errorf("scan delivered %d pairs (ordered=%v), want %d ascending", count, ordered, n)
	}
	cell.ScanMpairs = float64(count) / scanWall.Seconds() / 1e6
	cell.ScanMs = scanWall.Milliseconds()
	return cell, nil
}
