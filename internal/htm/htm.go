// Package htm models Intel TSX-style hardware transactional memory, which
// FIRestarter repurposes as a lightweight checkpointing mechanism (§IV-A of
// the paper).
//
// The model captures the properties of real TSX that matter for the paper's
// experiments:
//
//   - The write set is buffered in an L1-data-cache model: 64-byte lines in
//     a 64-set × 8-way configuration (32 KiB). A transaction whose dirty
//     lines exceed total capacity — or overflow the ways of any single set —
//     aborts with a capacity abort. This is the cliff that makes regions
//     following large allocations (malloc + initialization) abort at high
//     rates in Fig. 3.
//   - Asynchronous events (interrupts, page faults) abort transactions at
//     unpredictable times. We model them as a seeded Poisson-like process
//     over the retired-instruction count.
//   - A fault inside a transaction (the crash FIRestarter wants to roll
//     back) aborts it with an explicit abort code, restoring memory and
//     letting the abort handler run — exactly how FIRestarter's recovery
//     path rides on XABORT semantics.
//
// Dirty lines are snapshotted on first touch and restored on abort, so
// rollback is genuine: post-abort memory is byte-identical to the state at
// Begin.
package htm

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/firestarter-go/firestarter/internal/mem"
)

// AbortCause enumerates why a hardware transaction aborted.
type AbortCause int

// Abort causes, mirroring the TSX status word's interesting bits.
const (
	AbortNone      AbortCause = iota // sentinel: no abort
	AbortCapacity                    // write set exceeded L1 capacity/associativity
	AbortInterrupt                   // asynchronous event (interrupt, page fault)
	AbortConflict                    // cache-line conflict with another core
	AbortExplicit                    // XABORT: a fault occurred inside the transaction
)

// String returns a short human-readable cause name.
func (c AbortCause) String() string {
	switch c {
	case AbortNone:
		return "none"
	case AbortCapacity:
		return "capacity"
	case AbortInterrupt:
		return "interrupt"
	case AbortConflict:
		return "conflict"
	case AbortExplicit:
		return "explicit"
	default:
		return fmt.Sprintf("cause(%d)", int(c))
	}
}

// AbortError reports a transaction abort from Store or Tick.
type AbortError struct {
	Cause AbortCause
}

// Error implements error.
func (e *AbortError) Error() string {
	return fmt.Sprintf("htm: transaction aborted (%s)", e.Cause)
}

// abortErrors holds one shared AbortError per cause: aborts are frequent
// and an AbortError is never modified, so reporting one allocates nothing.
var abortErrors = [...]AbortError{{AbortNone}, {AbortCapacity}, {AbortInterrupt}, {AbortConflict}, {AbortExplicit}}

// abortError returns the shared error reporting an abort of cause c.
func abortError(c AbortCause) *AbortError {
	if c >= 0 && int(c) < len(abortErrors) {
		return &abortErrors[c]
	}
	return &AbortError{Cause: c}
}

// Config parameterizes the TSX model.
type Config struct {
	// Sets and Ways describe the L1D write-buffer geometry. Zero values
	// default to 64 sets × 8 ways (32 KiB of 64-byte lines), the
	// Skylake-era L1D the paper's i7-6700K testbed has.
	Sets int
	Ways int

	// MeanInstrsPerInterrupt is the expected number of retired
	// instructions between asynchronous aborts, modelling timer
	// interrupts and page faults. Zero disables interrupt aborts.
	MeanInstrsPerInterrupt float64

	// Seed feeds the deterministic interrupt process.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Sets == 0 {
		c.Sets = 64
	}
	if c.Ways == 0 {
		c.Ways = 8
	}
	return c
}

// Stats aggregates transaction outcomes across a TSX instance's lifetime.
type Stats struct {
	Begins    int64
	Commits   int64
	Aborts    int64
	ByCapac   int64
	ByIntr    int64
	ByConfl   int64
	ByExplcit int64

	// PeakWriteLines is the largest write set (in cache lines) observed
	// in any transaction, committed or aborted.
	PeakWriteLines int
}

// AbortRate returns aborts/begins, or 0 when no transaction ran.
func (s *Stats) AbortRate() float64 {
	if s.Begins == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(s.Begins)
}

// TSX is a hardware-transactional-memory device attached to an address
// space. It supports one live transaction at a time (the simulation is
// single-threaded, per the paper's fault model).
type TSX struct {
	cfg   Config
	rng   *rand.Rand
	stats Stats

	// instrsToIntr counts down retired instructions to the next modelled
	// asynchronous event; it keeps ticking between transactions, like a
	// real timer.
	instrsToIntr int64

	// free parks the last finished Tx for reuse by the next Begin.
	// Transactions are frequent and short, so recycling the write-set
	// map, the per-set counters and the line snapshot buffers removes
	// the model's main allocation churn. Safe because a TSX has at most
	// one live transaction and a finished Tx refuses further stores.
	// A doomed Tx may be parked here with its abort still undelivered;
	// that is fine because the owning thread always consumes the doom
	// (Load/Store/Tick/Commit) before it can reach another Begin.
	free *Tx

	// domain, when non-nil, is the shared conflict directory connecting
	// this core's transactions to the other threads' (see Domain).
	domain   *Domain
	threadID int
}

// AttachDomain joins this TSX instance to a shared conflict domain as
// thread tid. Call before the first Begin; a nil domain (the default)
// preserves the single-threaded model exactly.
func (t *TSX) AttachDomain(d *Domain, tid int) {
	t.domain = d
	t.threadID = tid
}

// New returns a TSX model with the given configuration.
func New(cfg Config) *TSX {
	cfg = cfg.withDefaults()
	t := &TSX{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	t.scheduleInterrupt()
	return t
}

// Stats returns a snapshot of the accumulated statistics.
func (t *TSX) Stats() Stats { return t.stats }

// ResetStats zeroes the accumulated statistics (used between benchmark
// phases).
func (t *TSX) ResetStats() { t.stats = Stats{} }

func (t *TSX) scheduleInterrupt() {
	if t.cfg.MeanInstrsPerInterrupt <= 0 {
		t.instrsToIntr = -1
		return
	}
	// Exponentially distributed gap, floor 1.
	gap := int64(t.rng.ExpFloat64() * t.cfg.MeanInstrsPerInterrupt)
	if gap < 1 {
		gap = 1
	}
	t.instrsToIntr = gap
}

// Tx is a live hardware transaction.
type Tx struct {
	owner *TSX
	space *mem.Space

	// lines maps dirty line address → snapshot of the line's original
	// contents, taken on first touch.
	lines map[int64][]byte

	// perSet counts dirty lines per cache set for associativity aborts.
	perSet []int8

	// bufs is a free list of line-sized snapshot buffers recycled
	// across transactions by finish.
	bufs [][]byte

	// reads is the read set (line addresses), tracked only when the
	// transaction belongs to a conflict domain; nil otherwise.
	reads map[int64]struct{}

	// dom and tid tie a live transaction to its conflict domain; dom is
	// cleared by finish when the transaction leaves the active list.
	dom *Domain
	tid int

	// doomed holds a cross-thread abort (AbortConflict) delivered by the
	// domain while the owning thread was suspended. Memory is already
	// rolled back; the owner's next Load/Store/Tick/Commit consumes it.
	doomed AbortCause

	done bool
}

// Begin starts a transaction against the given address space.
func (t *TSX) Begin(space *mem.Space) *Tx {
	t.stats.Begins++
	tx := t.free
	if tx != nil {
		t.free = nil
		tx.space = space
		tx.done = false
	} else {
		tx = &Tx{
			owner:  t,
			space:  space,
			lines:  make(map[int64][]byte, 16),
			perSet: make([]int8, t.cfg.Sets),
		}
	}
	if d := t.domain; d != nil {
		tx.dom = d
		tx.tid = t.threadID
		if tx.reads == nil {
			tx.reads = make(map[int64]struct{}, 16)
		}
		d.register(tx)
		// Subscribe to the STM commit lock's line: beginning while a
		// software transaction holds it aborts immediately (elision).
		if d.LockHeldByOther(t.threadID) {
			d.doom(tx)
		}
	}
	return tx
}

// WriteSetLines returns the number of distinct dirty cache lines.
func (tx *Tx) WriteSetLines() int { return len(tx.lines) }

// Store performs a transactional store. On success the memory is written
// and the touched lines join the write set. If the write set overflows the
// modelled L1, the transaction rolls back and an *AbortError with
// AbortCapacity is returned. Faulting accesses (unmapped memory) are
// reported as-is without rolling back — the caller decides to Abort (this
// mirrors hardware, where the fault reaches the handler which then aborts).
func (tx *Tx) Store(addr, val int64, width int) error {
	if tx.doomed != AbortNone {
		return tx.consumeDoom()
	}
	if tx.done {
		return fmt.Errorf("htm: store on finished transaction")
	}
	first, second, spans := mem.LinesTouched(addr, width)
	if d := tx.dom; d != nil {
		// Invalidate the line in the other cores first, so their
		// rollbacks land before we snapshot the original contents.
		d.doomConflicting(tx.tid, first, true)
		if spans {
			d.doomConflicting(tx.tid, second, true)
		}
	}
	if err := tx.touch(first); err != nil {
		return err
	}
	if spans {
		if err := tx.touch(second); err != nil {
			return err
		}
	}
	if err := tx.space.Store(addr, val, width); err != nil {
		return err
	}
	return nil
}

// touch snapshots a line into the write set, aborting on capacity overflow.
func (tx *Tx) touch(line int64) error {
	if _, ok := tx.lines[line]; ok {
		return nil
	}
	if !tx.space.Mapped(line, mem.CacheLineSize) {
		// The store itself will fault; don't grow the write set.
		return nil
	}
	set := (line / mem.CacheLineSize) % int64(tx.owner.cfg.Sets)
	if int(tx.perSet[set]) >= tx.owner.cfg.Ways ||
		len(tx.lines) >= tx.owner.cfg.Sets*tx.owner.cfg.Ways {
		tx.rollback(AbortCapacity)
		return abortError(AbortCapacity)
	}
	var snap []byte
	if n := len(tx.bufs); n > 0 {
		snap = tx.bufs[n-1]
		tx.bufs = tx.bufs[:n-1]
		if err := tx.space.ReadInto(line, snap); err != nil {
			return err
		}
	} else {
		var err error
		snap, err = tx.space.ReadBytes(line, mem.CacheLineSize)
		if err != nil {
			return err
		}
	}
	tx.lines[line] = snap
	tx.perSet[set]++
	return nil
}

// Load performs a transactional load. In a conflict domain the touched
// lines join the read set (dooming any other transaction that has them in
// its write set — the writer loses the line when we request it shared);
// outside a domain this is a plain memory load. A pending cross-thread
// abort is delivered here like on Store.
func (tx *Tx) Load(addr int64, width int) (int64, error) {
	if tx.doomed != AbortNone {
		return 0, tx.consumeDoom()
	}
	if tx.done {
		return 0, fmt.Errorf("htm: load on finished transaction")
	}
	if d := tx.dom; d != nil {
		first, second, spans := mem.LinesTouched(addr, width)
		d.doomConflicting(tx.tid, first, false)
		tx.reads[first] = struct{}{}
		if spans {
			d.doomConflicting(tx.tid, second, false)
			tx.reads[second] = struct{}{}
		}
	}
	return tx.space.Load(addr, width)
}

// Tick retires n instructions inside the transaction and may deliver an
// asynchronous abort. On abort the transaction is rolled back and an
// *AbortError with AbortInterrupt is returned. A pending cross-thread
// conflict abort is delivered here too.
func (tx *Tx) Tick(n int64) error {
	if tx.doomed != AbortNone {
		return tx.consumeDoom()
	}
	if tx.done {
		return nil
	}
	o := tx.owner
	if o.instrsToIntr < 0 {
		return nil
	}
	o.instrsToIntr -= n
	if o.instrsToIntr > 0 {
		return nil
	}
	o.scheduleInterrupt()
	tx.rollback(AbortInterrupt)
	return abortError(AbortInterrupt)
}

// TickBudget reports how many Tick(1) calls are guaranteed to be complete
// no-ops from here: no abort, no doom delivery, no state change beyond
// the interrupt countdown. Callers may defer that many single-instruction
// ticks and apply them later in one batched Tick(n) with identical
// semantics — the guarantee holds only until the next operation on the
// transaction (Load, Store, Commit, Abort, or a delivered tick), after
// which the budget must be re-queried.
func (tx *Tx) TickBudget() int64 {
	if tx.doomed != AbortNone || tx.done {
		return 0
	}
	if tx.owner.instrsToIntr < 0 {
		return math.MaxInt64
	}
	// The tick that drives the countdown to zero aborts; everything
	// strictly before it is a pure decrement.
	return tx.owner.instrsToIntr - 1
}

// Commit makes the transaction's stores permanent and discards snapshots.
// A transaction doomed by a cross-thread conflict cannot commit; the
// pending AbortConflict is delivered instead.
func (tx *Tx) Commit() error {
	if tx.doomed != AbortNone {
		return tx.consumeDoom()
	}
	if tx.done {
		return fmt.Errorf("htm: commit on finished transaction")
	}
	tx.finish()
	tx.owner.stats.Commits++
	return nil
}

// Abort rolls the transaction back with the given cause (normally
// AbortExplicit, for a fault inside the transaction). Aborting an
// already-doomed transaction just discards the pending conflict.
func (tx *Tx) Abort(cause AbortCause) {
	if tx.doomed != AbortNone {
		tx.doomed = AbortNone
		return
	}
	if tx.done {
		return
	}
	tx.rollback(cause)
}

// PendingAbort delivers a cross-thread doom without retiring instructions;
// the scheduler polls it when a thread resumes so a victim learns about a
// conflict before executing anything.
func (tx *Tx) PendingAbort() error {
	if tx.doomed != AbortNone {
		return tx.consumeDoom()
	}
	return nil
}

// consumeDoom clears and reports a cross-thread abort. The rollback
// already happened when the domain doomed us (the aggressor needed the
// pre-transaction memory image); only the notification was pending.
func (tx *Tx) consumeDoom() error {
	cause := tx.doomed
	tx.doomed = AbortNone
	return abortError(cause)
}

func (tx *Tx) rollback(cause AbortCause) {
	for line, snap := range tx.lines {
		// The line was mapped when snapshotted; if the program unmapped
		// it mid-transaction (via an embedded libcall) the restore is
		// skipped — compensation actions own that state.
		if tx.space.Mapped(line, mem.CacheLineSize) {
			if err := tx.space.WriteBytes(line, snap); err != nil {
				panic(fmt.Sprintf("htm: rollback write failed: %v", err))
			}
		}
	}
	st := &tx.owner.stats
	st.Aborts++
	switch cause {
	case AbortCapacity:
		st.ByCapac++
	case AbortInterrupt:
		st.ByIntr++
	case AbortConflict:
		st.ByConfl++
	case AbortExplicit:
		st.ByExplcit++
	}
	tx.finish()
}

func (tx *Tx) finish() {
	if n := len(tx.lines); n > tx.owner.stats.PeakWriteLines {
		tx.owner.stats.PeakWriteLines = n
	}
	// Recycle in place: snapshot buffers go to the free list, the map
	// and counters are cleared, and the Tx is parked for the next Begin.
	for line, snap := range tx.lines {
		tx.bufs = append(tx.bufs, snap)
		delete(tx.lines, line)
	}
	for i := range tx.perSet {
		tx.perSet[i] = 0
	}
	if tx.dom != nil {
		tx.dom.unregister(tx)
		tx.dom = nil
		for line := range tx.reads {
			delete(tx.reads, line)
		}
	}
	tx.space = nil
	tx.done = true
	tx.owner.free = tx
}
