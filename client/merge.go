package client

import (
	"errors"
	"fmt"
)

// ErrScanInterrupted matches (via errors.Is) a routed scan that one of its
// per-shard streams killed partway — a shard died or could not be reached,
// its connection broke, or a cutover moved its range. The pairs delivered
// before the stop are valid; the result as a whole is incomplete and the
// scan must be re-issued. errors.As with *ScanInterruptedError recovers
// which source failed and why.
var ErrScanInterrupted = errors.New("client: scan interrupted")

// ScanInterruptedError is the typed error of a chained scan stopped by one
// of its sources failing, at open or partway.
type ScanInterruptedError struct {
	// Source is the failed source's index — for Cluster.ScanStream, the
	// shard's index in the map the scan started under.
	Source int
	// Err is the underlying open or stream failure.
	Err error
}

func (e *ScanInterruptedError) Error() string {
	return fmt.Sprintf("client: scan interrupted by source %d: %v", e.Source, e.Err)
}

func (e *ScanInterruptedError) Unwrap() error { return e.Err }

// Is makes errors.Is(err, ErrScanInterrupted) match.
func (e *ScanInterruptedError) Is(target error) bool { return target == ErrScanInterrupted }

// kvStream is the pull-iterator shape the chain consumes; *Scanner is the
// production implementation (one per shard a routed scan reaches), and
// tests substitute fakes.
type kvStream interface {
	Next() bool
	Key() uint64
	Value() uint64
	Err() error
	Close() error
}

// openFunc opens source i for at most budget pairs (0 = unbounded).
type openFunc func(i int, budget uint64) (kvStream, error)

// MergeScanner chains sources whose key ranges are ascending and disjoint
// in source order — shards tile the key space in map order, so shard order
// is key order and no merge is needed. It has the same pull surface as
// Scanner: Next/Key/Value, Err after Next returns false, Close (idempotent)
// to release the open source early.
//
// One source is open at a time, handed the budget the earlier ones left;
// the next is opened only when the current one ended cleanly with budget
// left, so a scan its first source satisfies never touches another. Any
// open or stream failure ends the chain with a *ScanInterruptedError — a
// shard dying mid-scan surfaces as a failed scan, never as a silently
// shorter result.
type MergeScanner struct {
	open      openFunc
	next, end int      // sources [next, end) are still unopened
	cur       kvStream // the open source (index next-1), nil between sources
	max       uint64   // total pair budget, 0 = unbounded

	closed    bool
	done      bool
	err       error
	key, val  uint64
	delivered uint64
}

// newMergeScanner chains sources [first, end), opening each through open;
// max bounds the total pairs (0 = unbounded).
func newMergeScanner(first, end int, max uint64, open openFunc) *MergeScanner {
	return &MergeScanner{open: open, next: first, end: end, max: max}
}

// failedMergeScanner is a chain that was dead on arrival (its setup failed
// before any source existed); Next reports false and Err reports err.
func failedMergeScanner(err error) *MergeScanner {
	return &MergeScanner{err: err, done: true}
}

// Next advances to the next pair in ascending key order across all sources.
func (m *MergeScanner) Next() bool {
	for m.err == nil && !m.closed && !m.done {
		if m.cur == nil {
			if m.next >= m.end || (m.max > 0 && m.delivered >= m.max) {
				m.done = true
				return false
			}
			var budget uint64
			if m.max > 0 {
				budget = m.max - m.delivered
			}
			s, err := m.open(m.next, budget)
			if err != nil {
				m.err = &ScanInterruptedError{Source: m.next, Err: err}
				return false
			}
			m.cur = s
			m.next++
		}
		if m.cur.Next() {
			if m.max > 0 && m.delivered >= m.max {
				m.done = true // the source overran its budget; Close cancels it
				return false
			}
			m.key, m.val = m.cur.Key(), m.cur.Value()
			m.delivered++
			return true
		}
		// The source ended: its end frame is read, so closing it costs
		// nothing on the wire.
		err := m.cur.Err()
		m.cur.Close()
		m.cur = nil
		if err != nil {
			m.err = &ScanInterruptedError{Source: m.next - 1, Err: err}
		}
	}
	return false
}

// Key returns the current pair's key. Valid after Next returned true.
func (m *MergeScanner) Key() uint64 { return m.key }

// Value returns the current pair's value. Valid after Next returned true.
func (m *MergeScanner) Value() uint64 { return m.val }

// Err returns the error that stopped the chain, nil after a complete one.
func (m *MergeScanner) Err() error { return m.err }

// Total returns how many pairs the chain delivered so far.
func (m *MergeScanner) Total() uint64 { return m.delivered }

// Close releases the open source, if any; sources never opened need no
// release. Idempotent; returns the source's close error.
func (m *MergeScanner) Close() error {
	if m.closed {
		return nil
	}
	m.closed = true
	if m.cur == nil {
		return nil
	}
	err := m.cur.Close()
	m.cur = nil
	return err
}
