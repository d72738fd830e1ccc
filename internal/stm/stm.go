// Package stm implements the undo-log-based software transactional memory
// FIRestarter falls back to when hardware transactions abort (§IV-A of the
// paper, after Vogt et al.'s lightweight memory checkpointing design).
//
// Every store inside an STM-instrumented region first appends the
// destination's old value to the undo log, then performs the store. To roll
// back, the log is walked in reverse, restoring each location. Unlike the
// HTM model, the log is unbounded — STM transactions never abort for
// capacity reasons, which is exactly why it maximizes the recovery surface
// at a per-store instrumentation cost the paper's Fig. 7 quantifies.
package stm

import (
	"encoding/binary"
	"fmt"

	"github.com/firestarter-go/firestarter/internal/mem"
)

// entry is one undo record: enough to restore a single store.
type entry struct {
	addr  int64
	old   int64
	width int
}

// Stats aggregates undo-log behaviour for the memory-overhead experiment.
type Stats struct {
	Begins      int64
	Commits     int64
	Rollbacks   int64
	TotalStores int64
	PeakLogLen  int
}

// Log is a software transaction's undo log attached to an address space.
// The zero value is not usable; create with New. A Log is reused across
// transactions (Begin resets it) to avoid per-transaction allocation.
type Log struct {
	space   *mem.Space
	entries []entry
	active  bool
	stats   Stats
}

// New returns an undo log bound to the given address space.
func New(space *mem.Space) *Log {
	return &Log{space: space, entries: make([]entry, 0, 256)}
}

// Stats returns a snapshot of accumulated statistics.
func (l *Log) Stats() Stats { return l.stats }

// ResetStats zeroes accumulated statistics.
func (l *Log) ResetStats() { l.stats = Stats{} }

// Active reports whether a transaction is in progress.
func (l *Log) Active() bool { return l.active }

// Len returns the current number of undo entries.
func (l *Log) Len() int { return len(l.entries) }

// Begin starts a software transaction. Beginning while one is active is a
// programming error in the runtime and panics.
func (l *Log) Begin() {
	if l.active {
		panic("stm: nested Begin")
	}
	l.entries = l.entries[:0]
	l.active = true
	l.stats.Begins++
}

// Store logs the old value at addr and then performs the store. A store to
// unmapped memory returns the access error without growing the log (the
// crash handler will roll back what is logged so far).
func (l *Log) Store(addr, val int64, width int) error {
	if !l.active {
		return fmt.Errorf("stm: store outside transaction")
	}
	old, err := l.space.Load(addr, width)
	if err != nil {
		return err
	}
	l.entries = append(l.entries, entry{addr: addr, old: old, width: width})
	l.stats.TotalStores++
	if len(l.entries) > l.stats.PeakLogLen {
		l.stats.PeakLogLen = len(l.entries)
	}
	return l.space.Store(addr, val, width)
}

// StoreRange performs a library write of data at addr as its store units
// (see mem.StoreUnits) and returns how many units it attempted. Each unit
// gets its own undo entry, so the log, its statistics and its capacity
// (which MemoryBytes reports) grow exactly as under the per-unit loop.
// When the range is mapped and domains are off the old values come from
// one bulk read per chunk and the data from one copy; every other case
// runs the per-unit loop, which faults on the failing unit's load before
// writing it.
func (l *Log) StoreRange(addr int64, data []byte) (int, error) {
	if !l.active || l.space.DomainsEnabled() || !l.space.Mapped(addr, int64(len(data))) {
		return mem.StoreUnits(addr, data, l.Store)
	}
	var old [256]byte // a multiple of 8, so chunks split only between words
	for i := 0; i < len(data); i += len(old) {
		chunk := old[:min(len(data)-i, len(old))]
		if err := l.space.ReadInto(addr+int64(i), chunk); err != nil {
			return 0, err
		}
		at := addr + int64(i)
		j := 0
		for ; j+8 <= len(chunk); j += 8 {
			l.entries = append(l.entries, entry{addr: at + int64(j), old: int64(binary.LittleEndian.Uint64(chunk[j:])), width: 8})
		}
		for ; j < len(chunk); j++ {
			l.entries = append(l.entries, entry{addr: at + int64(j), old: int64(chunk[j]), width: 1})
		}
	}
	units := mem.Units(len(data))
	l.stats.TotalStores += int64(units)
	if len(l.entries) > l.stats.PeakLogLen {
		l.stats.PeakLogLen = len(l.entries)
	}
	if err := l.space.WriteBytes(addr, data); err != nil {
		return 0, err
	}
	return units, nil
}

// Commit ends the transaction, making all stores permanent.
func (l *Log) Commit() error {
	if !l.active {
		return fmt.Errorf("stm: commit outside transaction")
	}
	l.active = false
	l.entries = l.entries[:0]
	l.stats.Commits++
	return nil
}

// Rollback walks the undo log in reverse, restoring every modified
// location, and ends the transaction. Restores to memory the program
// unmapped mid-transaction are skipped (compensation actions own that
// state). It returns the number of entries undone.
func (l *Log) Rollback() (int, error) {
	if !l.active {
		return 0, fmt.Errorf("stm: rollback outside transaction")
	}
	n := len(l.entries)
	for i := n - 1; i >= 0; i-- {
		e := l.entries[i]
		if !l.space.Mapped(e.addr, int64(e.width)) {
			continue
		}
		if err := l.space.Store(e.addr, e.old, e.width); err != nil {
			return n - 1 - i, fmt.Errorf("stm: rollback store at %#x: %w", e.addr, err)
		}
	}
	l.active = false
	l.entries = l.entries[:0]
	l.stats.Rollbacks++
	return n, nil
}

// MemoryBytes estimates the log's current memory footprint, charged to the
// simulated RSS for the Fig. 9 experiment (each entry is 24 bytes: address,
// old value, width word).
func (l *Log) MemoryBytes() int64 {
	return int64(cap(l.entries)) * 24
}
