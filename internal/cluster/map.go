// Package cluster implements sharded multi-node serving for DyTIS: a
// versioned shard map partitioning the uint64 key space into contiguous
// MSB ranges, and the per-server Node that enforces ownership, answers
// redirects, and runs live shard handover (bulk copy + double-write
// cutover) for rebalancing under KDD drift.
//
// The design lifts the paper's first-level structure (§3.1: a static 2^R
// partition of the key space by most-significant bits) one level up: each
// dytis-server process owns one contiguous MSB range and its index's KDD
// adaptation specializes to that range's distribution. Routing is
// client-side (client.DialCluster); the only cross-node coordination is the
// shard map epoch, which only ever moves forward.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"dytis/internal/proto"
)

// MaxShards bounds a map's shard count. Far beyond any deployment this
// repo targets, but a bound the decoder can allocate against.
const MaxShards = 1024

// Shard is one contiguous key range [Lo, Hi] (inclusive both ends) owned
// by the server at Addr.
type Shard struct {
	Lo, Hi uint64
	Addr   string
}

// Contains reports whether key falls in the shard's range.
func (s Shard) Contains(key uint64) bool { return key >= s.Lo && key <= s.Hi }

// Map is one immutable version of the cluster's shard layout. Shards are
// sorted by Lo and together cover the whole uint64 key space with no gaps
// or overlaps (Validate enforces it), so every key has exactly one owner.
// Epochs start at 1 and only grow; a higher epoch always wins.
type Map struct {
	Epoch  uint64
	Shards []Shard
}

// Uniform builds the initial map: the key space split evenly (by MSB) over
// addrs, one contiguous range per address, at the given epoch.
func Uniform(epoch uint64, addrs []string) (*Map, error) {
	n := uint64(len(addrs))
	if n == 0 {
		return nil, errors.New("cluster: no addresses")
	}
	width := ^uint64(0)/n + 1
	m := &Map{Epoch: epoch, Shards: make([]Shard, len(addrs))}
	for i, a := range addrs {
		lo := uint64(i) * width
		hi := lo + width - 1
		if i == len(addrs)-1 {
			hi = ^uint64(0)
		}
		m.Shards[i] = Shard{Lo: lo, Hi: hi, Addr: a}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Owner returns the shard owning key. Valid maps cover the key space, so
// on a validated map this cannot miss.
func (m *Map) Owner(key uint64) Shard {
	i := sort.Search(len(m.Shards), func(i int) bool { return m.Shards[i].Hi >= key })
	if i == len(m.Shards) {
		// Unreachable on a validated map; return the last shard rather than
		// panic so a corrupted map degrades to a redirect, not a crash.
		i = len(m.Shards) - 1
	}
	return m.Shards[i]
}

// Validate checks the full well-formedness contract: nonzero epoch, 1..
// MaxShards shards sorted by Lo, covering [0, ^0] contiguously with no
// overlap, every address nonempty and within proto.MaxAddr, and the
// encoded form within proto.MaxMapBlob.
func (m *Map) Validate() error {
	if m.Epoch == 0 {
		return errors.New("cluster: map epoch must be >= 1")
	}
	if len(m.Shards) == 0 {
		return errors.New("cluster: map has no shards")
	}
	if len(m.Shards) > MaxShards {
		return fmt.Errorf("cluster: %d shards exceeds MaxShards %d", len(m.Shards), MaxShards)
	}
	if m.Shards[0].Lo != 0 {
		return fmt.Errorf("cluster: first shard starts at %#x, not 0", m.Shards[0].Lo)
	}
	for i, s := range m.Shards {
		if s.Lo > s.Hi {
			return fmt.Errorf("cluster: shard %d range inverted [%#x, %#x]", i, s.Lo, s.Hi)
		}
		if s.Addr == "" || len(s.Addr) > proto.MaxAddr {
			return fmt.Errorf("cluster: shard %d address %q invalid", i, s.Addr)
		}
		if i > 0 && s.Lo != m.Shards[i-1].Hi+1 {
			return fmt.Errorf("cluster: gap or overlap between shard %d (ends %#x) and %d (starts %#x)",
				i-1, m.Shards[i-1].Hi, i, s.Lo)
		}
	}
	if last := m.Shards[len(m.Shards)-1]; last.Hi != ^uint64(0) {
		return fmt.Errorf("cluster: last shard ends at %#x, key space uncovered", last.Hi)
	}
	if n := encodedLen(m); n > proto.MaxMapBlob {
		return fmt.Errorf("cluster: encoded map is %d bytes, exceeds proto.MaxMapBlob %d", n, proto.MaxMapBlob)
	}
	return nil
}

func encodedLen(m *Map) int {
	n := 8 + 4
	for _, s := range m.Shards {
		n += 8 + 8 + 2 + len(s.Addr)
	}
	return n
}

// Encode renders the map as the opaque blob the wire protocol transports:
//
//	epoch(8) n(4) [lo(8) hi(8) addrLen(2) addr]*n
//
// Validate first; Encode assumes a well-formed map.
func (m *Map) Encode() []byte {
	b := make([]byte, 0, encodedLen(m))
	b = binary.BigEndian.AppendUint64(b, m.Epoch)
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.Shards)))
	for _, s := range m.Shards {
		b = binary.BigEndian.AppendUint64(b, s.Lo)
		b = binary.BigEndian.AppendUint64(b, s.Hi)
		b = binary.BigEndian.AppendUint16(b, uint16(len(s.Addr)))
		b = append(b, s.Addr...)
	}
	return b
}

// Reassign builds the successor map (epoch+1) in which [lo, hi] is owned
// by addr: overlapping shards shrink or split, and adjacent shards of the
// same address merge back into one range. Because every server owns exactly
// one contiguous range, the result must leave each address with at most one
// shard — so [lo, hi] must either go to a fresh address (taking a whole
// shard, or a prefix/suffix of one next to nothing else addr owns) or
// extend addr's existing shard contiguously. Anything else is an error,
// not a silently invalid map.
func (m *Map) Reassign(lo, hi uint64, addr string) (*Map, error) {
	if lo > hi {
		return nil, fmt.Errorf("cluster: reassign range inverted [%#x, %#x]", lo, hi)
	}
	next := &Map{Epoch: m.Epoch + 1}
	for _, s := range m.Shards {
		// Keep the parts of s outside [lo, hi] (each side shrinks to at
		// most one piece; a shard strictly containing the range keeps both).
		if s.Lo < lo {
			end := lo - 1
			if s.Hi < end {
				end = s.Hi
			}
			next.Shards = append(next.Shards, Shard{Lo: s.Lo, Hi: end, Addr: s.Addr})
		}
		if s.Hi > hi {
			start := hi + 1
			if s.Lo > start {
				start = s.Lo
			}
			next.Shards = append(next.Shards, Shard{Lo: start, Hi: s.Hi, Addr: s.Addr})
		}
	}
	next.Shards = append(next.Shards, Shard{Lo: lo, Hi: hi, Addr: addr})
	sort.Slice(next.Shards, func(i, j int) bool { return next.Shards[i].Lo < next.Shards[j].Lo })
	// Merge adjacent same-address shards (growing a neighbor's range).
	merged := next.Shards[:1]
	for _, s := range next.Shards[1:] {
		last := &merged[len(merged)-1]
		if s.Addr == last.Addr && s.Lo == last.Hi+1 {
			last.Hi = s.Hi
			continue
		}
		merged = append(merged, s)
	}
	next.Shards = merged
	seen := make(map[string]bool, len(next.Shards))
	for _, s := range next.Shards {
		if seen[s.Addr] {
			return nil, fmt.Errorf("cluster: reassigning [%#x, %#x] to %s would leave it two disjoint ranges", lo, hi, addr)
		}
		seen[s.Addr] = true
	}
	if err := next.Validate(); err != nil {
		return nil, err
	}
	return next, nil
}

// DecodeMap parses and validates an encoded map. It is safe on arbitrary
// bytes: every length is checked before use and the result is only
// returned if Validate passes, so a peer cannot hand out a map that
// routing code must defend against.
func DecodeMap(b []byte) (*Map, error) {
	if len(b) < 12 {
		return nil, fmt.Errorf("cluster: map blob of %d bytes too short", len(b))
	}
	m := &Map{Epoch: binary.BigEndian.Uint64(b)}
	n := int(binary.BigEndian.Uint32(b[8:]))
	if n == 0 || n > MaxShards {
		return nil, fmt.Errorf("cluster: map blob claims %d shards", n)
	}
	off := 12
	m.Shards = make([]Shard, n)
	for i := 0; i < n; i++ {
		if len(b)-off < 18 {
			return nil, errors.New("cluster: map blob truncated")
		}
		lo := binary.BigEndian.Uint64(b[off:])
		hi := binary.BigEndian.Uint64(b[off+8:])
		alen := int(binary.BigEndian.Uint16(b[off+16:]))
		off += 18
		if alen > len(b)-off {
			return nil, errors.New("cluster: map blob truncated in address")
		}
		m.Shards[i] = Shard{Lo: lo, Hi: hi, Addr: string(b[off : off+alen])}
		off += alen
	}
	if off != len(b) {
		return nil, fmt.Errorf("cluster: %d trailing bytes after map", len(b)-off)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
