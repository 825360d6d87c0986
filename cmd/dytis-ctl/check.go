package main

import (
	"context"
	"flag"
	"fmt"
	"sync"
	"time"

	"dytis/client"
)

const (
	checkWorkers = 4
	checkChunk   = 4096
	checkSample  = 61 // every 61st key is also read with a lone Get
	checkGolden  = 0x9E3779B97F4A7C15
)

// checkVal is the value check stores under key k.
func checkVal(k uint64) uint64 { return k ^ 0xA5A5A5A5A5A5A5A5 }

// cmdCheck smoke-tests a standalone server (-addr) or a cluster (-seed)
// along one code path over client.Client; see the package comment.
func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	addr := fs.String("addr", "", "address of a standalone server")
	seed := fs.String("seed", "", "any shard server address of a cluster")
	n := fs.Int("keys", 65536, "number of keys to load and verify")
	fs.Parse(args)
	if (*addr == "") == (*seed == "") {
		return fmt.Errorf("exactly one of -addr or -seed must be given")
	}
	var c *client.Client
	var err error
	if *addr != "" {
		c, err = client.Dial(*addr)
	} else {
		c, err = client.DialCluster([]string{*seed})
	}
	if err != nil {
		return err
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	for _, p := range []struct {
		name string
		run  func() error
	}{
		{"load", func() error {
			return eachChunk(*n, func(keys []uint64) error {
				vals := make([]uint64, len(keys))
				for i, k := range keys {
					vals[i] = checkVal(k)
				}
				return c.InsertBatch(ctx, keys, vals)
			})
		}},
		{"read", func() error {
			return eachChunk(*n, func(keys []uint64) error {
				vals, found, err := c.GetBatch(ctx, keys)
				for i := 0; err == nil && i < len(keys); i++ {
					if k := keys[i]; !found[i] || vals[i] != checkVal(k) {
						err = fmt.Errorf("GetBatch(%#x) = %#x, %v; want %#x", k, vals[i], found[i], checkVal(k))
					} else if i%checkSample == 0 {
						if v, ok, gerr := c.Get(ctx, k); gerr != nil || !ok || v != checkVal(k) {
							err = fmt.Errorf("Get(%#x) = %#x, %v, %v; want %#x", k, v, ok, gerr, checkVal(k))
						}
					}
				}
				return err
			})
		}},
		{"len", func() error {
			got, err := c.Len(ctx)
			if err == nil && got != *n {
				err = fmt.Errorf("Len = %d, want %d", got, *n)
			}
			return err
		}},
		{"scan", func() error {
			s := c.ScanStream(ctx, 0, 0)
			defer s.Close()
			count, last := 0, uint64(0)
			for ; s.Next(); count++ {
				if k := s.Key(); (count > 0 && k <= last) || s.Value() != checkVal(k) {
					return fmt.Errorf("pair %d (%#x, %#x) after key %#x: want ascending keys, values checkVal(key)", count, k, s.Value(), last)
				}
				last = s.Key()
			}
			if err := s.Err(); err != nil {
				return fmt.Errorf("after %d pairs: %w", count, err)
			}
			if count != *n {
				return fmt.Errorf("%d pairs, want %d", count, *n)
			}
			return nil
		}},
	} {
		t0 := time.Now()
		if err := p.run(); err != nil {
			return fmt.Errorf("check failed in phase %s: %w", p.name, err)
		}
		fmt.Printf("check %-4s ok  %d keys  %v\n", p.name, *n, time.Since(t0).Round(time.Millisecond))
	}
	return nil
}

// eachChunk deals the keys i*checkGolden, i in [0, n), to checkWorkers
// goroutines in chunks of checkChunk and returns the first error. The odd
// multiplier is a bijection that spreads the keys over the whole key
// space, so every shard of a uniform map gets its share.
func eachChunk(n int, f func(keys []uint64) error) error {
	errs := make([]error, checkWorkers)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := w * checkChunk; lo < n && errs[w] == nil; lo += checkWorkers * checkChunk {
				keys := make([]uint64, 0, checkChunk)
				for i := lo; i < min(lo+checkChunk, n); i++ {
					keys = append(keys, uint64(i)*checkGolden)
				}
				errs[w] = f(keys)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
