package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"dytis/client"
	"dytis/internal/core"
	"dytis/internal/lathist"
	"dytis/internal/server"
	"dytis/internal/workload"
)

// The net experiment measures the serving subsystem end to end: it replays
// the YCSB-style measured workloads (A/B/C/D'/E/F) through the public client
// over loopback TCP against a dytis-server-equivalent in-process server
// (or an external one via -net-addr), reporting client-observed throughput
// and latency — protocol encode/decode, kernel round trips, pipelining, and
// index work included. Contrast with fig8, which measures the bare index.
var (
	netClients = flag.Int("net-clients", 4, "concurrent client goroutines in -exp net (each with its own connection pool)")
	netAddr    = flag.String("net-addr", "", "replay against an already-running dytis-server at this address instead of an in-process one")
	netJSON    = flag.String("net-json", "", "also write the -exp net results as JSON to this file")
)

// netKinds are the measured workloads; Load is the preload phase, reported
// separately.
var netKinds = []workload.Kind{workload.A, workload.B, workload.C, workload.DPrime, workload.E, workload.F}

type netCell struct {
	Kind       string  `json:"workload"`
	Clients    int     `json:"clients"`
	Ops        int     `json:"ops"`
	Mops       float64 `json:"mops_per_sec"`
	MeanNS     int64   `json:"mean_ns"`
	P50NS      int64   `json:"p50_ns"`
	P99NS      int64   `json:"p99_ns"`
	P9999NS    int64   `json:"p9999_ns"`
	WallMillis int64   `json:"wall_ms"`
}

func netExp() {
	s := group1()[0]
	keys := keysOf(s)

	addr := *netAddr
	var srv *server.Server
	var idx *core.DyTIS
	if addr == "" {
		idx = core.New(core.Options{Concurrent: true})
		srv = server.New(server.Config{Index: idx, MaxConns: *netClients * 4})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		go srv.Serve(ln)
		addr = ln.Addr().String()
	}

	fmt.Printf("Network-mode workload replay: dataset %s (%d keys), %d clients, server %s, GOMAXPROCS %d\n",
		s.Name, len(keys), *netClients, addr, runtime.GOMAXPROCS(0))
	fmt.Printf("%-9s %9s %12s %10s %10s %10s %10s\n",
		"workload", "ops", "Mops/s", "mean_us", "p50_us", "p99_us", "p99.99_us")

	var cells []netCell
	for _, kind := range netKinds {
		cell, err := runNetWorkload(addr, kind, keys)
		if err != nil {
			fmt.Fprintf(os.Stderr, "workload %s: %v\n", kind, err)
			os.Exit(1)
		}
		cells = append(cells, cell)
		fmt.Printf("%-9s %9d %12.3f %10.1f %10.1f %10.1f %10.1f\n",
			cell.Kind, cell.Ops, cell.Mops,
			float64(cell.MeanNS)/1e3, float64(cell.P50NS)/1e3,
			float64(cell.P99NS)/1e3, float64(cell.P9999NS)/1e3)
	}

	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		srv.Shutdown(ctx)
		cancel()
		idx.Close()
	}

	if *netJSON != "" {
		out := struct {
			Dataset string    `json:"dataset"`
			Keys    int       `json:"keys"`
			Cells   []netCell `json:"workloads"`
		}{s.Name, len(keys), cells}
		data, _ := json.MarshalIndent(out, "", "  ")
		if err := os.WriteFile(*netJSON, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "net-json:", err)
		}
	}
}

// runNetWorkload preloads the workload's fraction of the dataset through one
// batching client, stripes the measured ops over the client goroutines, and
// replays them concurrently, recording client-observed per-op latency.
//
// The index is rebuilt for every workload (delete everything first) so each
// row starts from the workload's own preload state, like fig8's fresh index
// per cell.
func runNetWorkload(addr string, kind workload.Kind, keys []uint64) (netCell, error) {
	ctx := context.Background()
	ops := *opsFlag
	if ops == 0 {
		ops = len(keys) / 2
	}
	plan := workload.Build(workload.Config{Kind: kind, Keys: keys, Ops: ops, Seed: *seedFlag})

	// Reset + preload through one client with the batch opcodes.
	c0, err := client.Dial(addr, client.WithPoolSize(1))
	if err != nil {
		return netCell{}, err
	}
	defer c0.Close()
	const chunk = 4096
	s := c0.ScanStream(ctx, 0, 0)
	var live []uint64
	for s.Next() {
		live = append(live, s.Key())
	}
	if err := s.Err(); err != nil {
		return netCell{}, err
	}
	for i := 0; i < len(live); i += chunk {
		if _, err := c0.DeleteBatch(ctx, live[i:min(i+chunk, len(live))]); err != nil {
			return netCell{}, err
		}
	}
	pre := keys[:plan.PreloadCount]
	for i := 0; i < len(pre); i += chunk {
		end := i + chunk
		if end > len(pre) {
			end = len(pre)
		}
		if err := c0.InsertBatch(ctx, pre[i:end], pre[i:end]); err != nil {
			return netCell{}, err
		}
	}

	stripes := workload.Stripe(plan.Ops, *netClients)
	hists := make([]lathist.Hist, *netClients)
	errs := make([]error, *netClients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, stripe := range stripes {
		wg.Add(1)
		go func(i int, stripe []workload.Op) {
			defer wg.Done()
			errs[i] = replayStripe(ctx, addr, stripe, &hists[i])
		}(i, stripe)
	}
	wg.Wait()
	wall := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return netCell{}, err
		}
	}

	var h lathist.Hist
	for i := range hists {
		h.Merge(&hists[i])
	}
	n := len(plan.Ops)
	return netCell{
		Kind:       string(kind),
		Clients:    *netClients,
		Ops:        n,
		Mops:       float64(n) / wall.Seconds() / 1e6,
		MeanNS:     h.Mean().Nanoseconds(),
		P50NS:      h.Quantile(0.5).Nanoseconds(),
		P99NS:      h.Quantile(0.99).Nanoseconds(),
		P9999NS:    h.Quantile(0.9999).Nanoseconds(),
		WallMillis: wall.Milliseconds(),
	}, nil
}

// replayStripe executes one client's substream, timing each logical op
// (an RMW is one op: a read round trip then an update round trip).
func replayStripe(ctx context.Context, addr string, stripe []workload.Op, h *lathist.Hist) error {
	c, err := client.Dial(addr, client.WithPoolSize(1))
	if err != nil {
		return err
	}
	defer c.Close()
	for _, op := range stripe {
		t0 := time.Now()
		switch op.Type {
		case workload.OpInsert, workload.OpUpdate:
			err = c.Insert(ctx, op.Key, op.Val)
		case workload.OpRead:
			_, _, err = c.Get(ctx, op.Key)
		case workload.OpScan:
			s := c.ScanStream(ctx, op.Key, workload.ScanLen)
			for s.Next() {
			}
			err = s.Err()
			s.Close()
		case workload.OpRMW:
			if _, _, err = c.Get(ctx, op.Key); err == nil {
				err = c.Insert(ctx, op.Key, op.Val)
			}
		}
		if err != nil {
			return err
		}
		h.Record(time.Since(t0))
	}
	return nil
}
