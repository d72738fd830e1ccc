// Package core is FIRestarter's recovery runtime: the execution-time half
// of the system that the compile-time passes in package transform
// instrument programs for.
//
// It implements:
//
//   - Crash transactions (§IV): at every gate a checkpoint is taken; the
//     region up to the next boundary library call runs inside a hardware
//     (package htm) or software (package stm) memory transaction.
//   - Dynamic transaction adaptivity (§IV-C): each gate monitors its HTM
//     abort rate and latches to STM permanently when the rate exceeds the
//     configured threshold, checked every SampleSize aborts.
//   - Crash recovery (§V): a fail-stop trap inside a transaction rolls the
//     transaction back and re-executes (transient faults). A repeated
//     crash is treated as persistent: the runtime runs the gate library
//     call's compensation action, injects the call's documented error
//     return, and resumes — diverting execution into the application's own
//     error-handling code.
//   - The paper's evaluation baselines: HTM-only (fall back to unprotected
//     execution on abort — no recovery guarantee) and STM-only (every
//     transaction software-checkpointed).
//
// Faithful to the paper's policy dynamics, a crash inside a *hardware*
// transaction is indistinguishable from a resource abort at abort time: the
// runtime first re-executes the region under STM "to determine whether HTM
// aborted due to resource constraints, or due to a real crash" (§IV-C);
// only a crash under STM enters the recovery path.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/firestarter-go/firestarter/internal/analysis"
	"github.com/firestarter-go/firestarter/internal/htm"
	"github.com/firestarter-go/firestarter/internal/interp"
	"github.com/firestarter-go/firestarter/internal/ir"
	"github.com/firestarter-go/firestarter/internal/libmodel"
	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/obsv"
	"github.com/firestarter-go/firestarter/internal/stm"
	"github.com/firestarter-go/firestarter/internal/transform"
)

// Mode selects the protection scheme.
type Mode int

// Protection modes.
const (
	// ModeHybrid is full FIRestarter: HTM first, adaptive STM fallback.
	ModeHybrid Mode = iota + 1
	// ModeHTMOnly tries HTM and falls back to *unprotected* execution on
	// abort (the paper's performance baseline; no recovery guarantees).
	ModeHTMOnly
	// ModeSTMOnly checkpoints every transaction in software (the
	// paper's full-protection, high-overhead baseline).
	ModeSTMOnly
	// ModeRewind checkpoints every transaction with the rewind-and-discard
	// strategy: registers snapshot only, per-request arena memory discarded
	// in O(1) on rollback (the heap-domain ablation baseline). Implies
	// EnableDomains.
	ModeRewind
)

// String returns the mode name used in benchmark output.
func (m Mode) String() string {
	switch m {
	case ModeHybrid:
		return "FIRestarter"
	case ModeHTMOnly:
		return "HTM-only"
	case ModeSTMOnly:
		return "STM-only"
	case ModeRewind:
		return "Rewind"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Cycle-cost constants of the recovery machinery (see the cost model note
// in package interp).
const (
	costHTMBegin     = 10
	costHTMCommit    = 10
	costHTMAbort     = 150
	costSTMBegin     = 6
	costSTMCommit    = 2
	costSTMUndoEntry = 2
	costStmStore     = 4
	costCompensation = 100
	costSignal       = 2000 // signal delivery + handler entry/exit
	costShed         = 3000 // connection teardown + longjmp to the quiesce point
	costRegSavePer   = 1    // per register saved by the STM setjmp analog

	// Rewind-and-discard strategy costs: entry switches the protection
	// domain and snapshots registers only (no undo log, no HTM begin);
	// commit is a register drop; discard unmaps/rezeros the arena tail in
	// O(1) — the constant below is the whole rollback, independent of how
	// many stores the transaction made.
	costDomainBegin   = 8
	costDomainCommit  = 2
	costDomainDiscard = 30
)

// Config parameterizes the runtime.
type Config struct {
	Mode Mode

	// Threshold is the HTM abort-rate bound θ above which a gate latches
	// to STM (paper default 1%).
	Threshold float64

	// SampleSize S: the threshold is checked every S-th HTM abort of a
	// gate (paper's best: 4; Fig. 3 uses 128).
	SampleSize int64

	// RetryTransient is the number of rollback-and-re-execute attempts
	// (under STM) before a crash is declared persistent and a fault is
	// injected.
	RetryTransient int

	// StickyDivert keeps a gate permanently diverted after an injection
	// (gracefully disabling the crashing path) instead of re-arming
	// after the transaction commits.
	StickyDivert bool

	// HTM parameterizes the hardware model (cache geometry, interrupt
	// process, seed).
	HTM htm.Config

	// TraceLimit caps the recovery trace / span log (0 means the default,
	// obsv.DefaultSpanLimit). Past the cap a terminal "truncated" marker
	// is recorded and further events only increment the dropped counter.
	TraceLimit int

	// MaxSheds bounds the request-shedding rung: once the runtime has
	// shed this many requests it stops absorbing otherwise-fatal crashes
	// and lets the process die (escalating to the supervisor rung). The
	// bound exists because a fault that fires before the server touches a
	// new connection sheds nothing observable and would otherwise loop
	// forever. 0 means the default (32); shedding is inert anyway until
	// ArmQuiesce registers a quiesce point.
	MaxSheds int

	// EnableDomains switches on the rewind-and-discard checkpoint
	// strategy as a third option beside HTM and STM: per-request arenas
	// are carved from domain-tagged memory, the §IV-C policy may latch a
	// gate to domains, and cross-domain accesses trap as a new fail-stop
	// crash cause. Off by default — the domains-off fast path is
	// byte-identical to a build without this feature. ModeRewind implies
	// it. Single-threaded runs only (the scheduler tier excludes it).
	EnableDomains bool

	// DomainUndoMin is the per-commit mean undo-log volume (entries per
	// STM commit, sampled every SampleSize commits) above which an
	// STM-latched gate latches onward to the rewind strategy — the point
	// where O(1) discard beats per-store undo logging. 0 means the
	// default (24).
	DomainUndoMin int64

	// DomainBackoffMax bounds rewind-strategy back-off: after this many
	// domain transactions that overflowed their arena into the heap
	// (escaping O(1) discard), the gate re-latches to STM and the undo
	// threshold doubles. 0 means the default (4).
	DomainBackoffMax int
}

// withDefaults fills zero values with the paper's defaults.
func (c Config) withDefaults() Config {
	if c.Mode == 0 {
		c.Mode = ModeHybrid
	}
	if c.Threshold == 0 {
		c.Threshold = 0.01
	}
	if c.SampleSize == 0 {
		c.SampleSize = 4
	}
	if c.RetryTransient == 0 {
		c.RetryTransient = 1
	}
	if c.MaxSheds == 0 {
		c.MaxSheds = 32
	}
	if c.Mode == ModeRewind {
		c.EnableDomains = true
	}
	if c.DomainUndoMin == 0 {
		c.DomainUndoMin = 24
	}
	if c.DomainBackoffMax == 0 {
		c.DomainBackoffMax = 4
	}
	return c
}

// gateState is the per-gate adaptive policy and recovery state.
type gateState struct {
	execs     int64
	htmAborts int64

	stmLatched bool // permanent STM (policy decision)
	oneShotSTM bool // next execution in STM (post-abort re-execution)
	oneShotRaw bool // next execution unprotected (ModeHTMOnly fallback)
	oneShotDom bool // next execution under the rewind strategy (domain retry)

	// Rewind-strategy policy state (§IV-C extended to three options).
	stmTxs     int64 // STM commits since the gate latched to STM
	stmUndo    int64 // undo-log entries across those commits
	capAborts  int64 // HTM capacity aborts (rewind skips the STM detour)
	domLatched bool  // permanently on the rewind strategy
	domBackoff int   // domain transactions that overflowed into the heap
	undoMin    int64 // per-gate undo-volume threshold (doubles on back-off)

	crashes       int  // consecutive STM crashes in the current episode
	injectPending bool // inject at next gate execution
	injected      bool // injected in the current episode
	sticky        bool // permanently diverted (StickyDivert)
}

// callRecord captures one executed boundary call for compensation.
type callRecord struct {
	call libmodel.Call
	aux  any
}

type deferredCall struct {
	name string
	args []int64
}

// txState is the live transaction.
type txState struct {
	site       int
	variant    int64 // ir.TxHTM, ir.TxSTM, or 0 for unprotected
	snap       *interp.Snapshot
	htmTx      *htm.Tx
	stdoutMark int
	startSteps int64
	deferred   []deferredCall
	comps      []func()

	// Rewind-and-discard strategy: the IR only knows the HTM and STM
	// variants, so a domain transaction executes the HTM-shaped code path
	// (variant ir.TxHTM, no per-store instrumentation) with htmTx nil —
	// routeStore falls through to raw stores — and dom marks it for the
	// runtime. arenaMark is the O(1) checkpoint: the live arena's bump
	// offset at entry (-1 when no arena was live). fallbackMark snapshots
	// the arena manager's heap-fallback counter for the back-off policy.
	dom          bool
	arenaMark    int64
	fallbackMark int64
}

// Stats aggregates runtime behaviour for the evaluation harness.
type Stats struct {
	GateExecs    int64
	HTMBegins    int64
	HTMCommits   int64
	STMBegins    int64
	STMCommits   int64
	Unprotected  int64 // gate executions that ran unprotected (HTM-only fallback)
	HTMAborts    int64 // capacity + interrupt + crash-triggered explicit aborts
	Crashes      int64 // fail-stop traps inside transactions (counted under STM)
	Retries      int64 // transient re-executions
	Injections   int64 // persistent faults bypassed by injection
	Unrecovered  int64 // crashes the runtime could not recover
	DeferredRuns int64

	// Rewind-and-discard strategy accounting. DomainSwitches counts
	// current-domain register switches (a request's first arena
	// allocation); DomainRetires counts arenas discarded at request end;
	// DomainDiscards counts crash rollbacks that rewound an arena in
	// O(1); DomainViolations counts cross-domain accesses trapping as a
	// fail-stop crash cause; DomainLatches counts gates the §IV-C policy
	// latched to the rewind strategy.
	DomainBegins     int64
	DomainCommits    int64
	DomainSwitches   int64
	DomainRetires    int64
	DomainDiscards   int64
	DomainViolations int64
	DomainLatches    int64

	// Arena is libsim's per-request arena accounting at snapshot time
	// (all zero unless EnableDomains switched arenas on).
	Arena libsim.ArenaStats

	// Sheds counts requests dropped by the shedding rung: otherwise-fatal
	// crashes absorbed by resetting the offending connection and resuming
	// at the quiesce point. ShedConnsLost counts the sheds that actually
	// closed a live connection (a shed with no connection in hand resets
	// nothing but still restores the quiesce frame).
	Sheds         int64
	ShedConnsLost int64

	// Request-trace accounting: ReqStarts counts traced requests whose
	// first bytes the server consumed; ReqsDone / ReqsLost count terminal
	// outcomes the workload driver reported back (validated-or-rejected
	// response vs never-completing request).
	ReqStarts int64
	ReqsDone  int64
	ReqsLost  int64

	// LatencyCycles holds one sample per successful recovery event: the
	// cost-model cycles from trap to resumed execution (Fig. 5).
	LatencyCycles []int64

	// TxSteps holds, per committed transaction, the instructions retired
	// inside it — the size of the recovery window (bounded buffer).
	TxSteps []int64

	// TxWriteLines holds, per committed transaction, its write-set size:
	// dirty cache lines for HTM commits, undo-log entries for STM.
	TxWriteLines []int64

	// Executed site sets by role (Table III).
	GateSites  map[int]bool
	EmbedSites map[int]bool
	BreakSites map[int]bool
}

// HTMAbortRate returns aborts per HTM transaction begin.
func (s Stats) HTMAbortRate() float64 {
	if s.HTMBegins == 0 {
		return 0
	}
	return float64(s.HTMAborts) / float64(s.HTMBegins)
}

// Runtime implements interp.Runtime with full crash recovery.
type Runtime struct {
	cfg   Config
	model *libmodel.Model
	sites map[int]*analysis.Site
	gates map[int]*analysis.Site

	os   *libsim.OS
	m    *interp.Machine
	tsx  *htm.TSX
	undo *stm.Log

	// domain/tid connect this runtime's transactions to the other
	// threads' when the program runs under the scheduler; nil/0 for the
	// single-threaded case. waitingLock marks a TxBegin blocked on the
	// STM commit lock (the scheduler uses it to classify the block).
	domain      *htm.Domain
	tid         int
	waitingLock bool

	gs         []gateState
	cur        *txState // nil, or &txBuf while a transaction is live
	txBuf      txState
	curVariant int64
	pending    struct {
		site    int
		variant int64
		raw     bool
		dom     bool
		snap    *interp.Snapshot
	}
	lastCall map[int]*callRecord

	// quiesce is the boot-time snapshot of the app's request-handling
	// frame (its accept/event loop, blocked in epoll_wait), registered by
	// ArmQuiesce. While set, crashes the rest of the ladder cannot absorb
	// are shed — the offending connection is reset and execution resumes
	// here — instead of killing the process.
	quiesce *interp.Snapshot

	stats   Stats
	tracing bool
	spanAll bool
	spans   obsv.SpanLog

	// touched marks the trace IDs of requests the recovery machinery
	// acted on (abort, crash, retry, inject, latch, shed) — the driver's
	// clean-vs-recovery latency split reads it back at request completion.
	// Lazily allocated; nil until the first recovery event under tracing.
	touched map[int64]bool

	// Periodic checkpoint ring (see checkpoint.go). ckptEvery == 0 (the
	// default) disables capture entirely.
	ckptEvery int64
	ckptNext  int64
	ckptRing  []Checkpoint
	ckptCap   int
	ckptHead  int
}

var _ interp.Runtime = (*Runtime)(nil)

// New builds a runtime for a transformed program. Call Attach after
// creating the machine.
func New(tr *transform.Result, os *libsim.OS, cfg Config) *Runtime {
	cfg = cfg.withDefaults()
	rt := &Runtime{
		cfg:      cfg,
		model:    tr.Model,
		sites:    tr.Analysis.ByID,
		gates:    tr.Gates,
		os:       os,
		tsx:      htm.New(cfg.HTM),
		undo:     stm.New(os.Space),
		gs:       make([]gateState, tr.Prog.NumSites+1),
		lastCall: make(map[int]*callRecord),
	}
	rt.stats.GateSites = map[int]bool{}
	rt.stats.EmbedSites = map[int]bool{}
	rt.stats.BreakSites = map[int]bool{}
	rt.spans.Limit = cfg.TraceLimit
	if cfg.EnableDomains {
		// Per-request arenas over protection domains: the libsim arena
		// manager owns the memory half; these hooks thread its lifecycle
		// into the runtime's stats and span log.
		os.EnableArenas()
		os.SetArenaHooks(
			func(dom int32) {
				rt.stats.DomainSwitches++
				if rt.tracing {
					rt.emitSpan(obsv.SpanDomainSwitch, 0, "", "", fmt.Sprintf("dom=%d", dom))
				}
			},
			func(dom int32) { rt.stats.DomainRetires++ },
		)
	}
	// Route library-internal writes to application memory through the
	// active transaction.
	os.SetStore(func(addr, val int64, width int) error {
		return rt.routeStore(addr, val, width)
	})
	os.SetTraceHook(rt.traceStart)
	return rt
}

// Attach binds the machine (created with this runtime) to the runtime.
func (rt *Runtime) Attach(m *interp.Machine) { rt.m = m }

// SetDomain joins this runtime to a shared HTM conflict domain as thread
// tid. Under the scheduler every thread gets its own Runtime (and TSX/undo
// log); the domain is what connects their transactions. Call before the
// first transaction.
func (rt *Runtime) SetDomain(d *htm.Domain, tid int) {
	rt.domain = d
	rt.tid = tid
	rt.tsx.AttachDomain(d, tid)
}

// StoreFunc exposes the transaction-routing store so the scheduler can
// re-point the shared OS at the running thread's runtime on every context
// switch (libsim.OS holds a single store hook).
func (rt *Runtime) StoreFunc() libsim.StoreFunc { return rt.routeStore }

// WaitingCommitLock reports whether the last blocked call was a TxBegin
// stalled on the STM commit lock (as opposed to blocked I/O); the
// scheduler wakes such threads as soon as another thread may have released
// the lock.
func (rt *Runtime) WaitingCommitLock() bool { return rt.waitingLock }

// OnResume delivers a conflict abort doomed into this thread's live
// hardware transaction while it was suspended: memory was rolled back by
// the aggressor, so the registers are restored and the region re-executes
// before the thread runs any further instruction.
func (rt *Runtime) OnResume() {
	if tx := rt.cur; tx != nil && tx.htmTx != nil && rt.m != nil {
		if err := tx.htmTx.PendingAbort(); err != nil {
			rt.Handle(rt.m, err)
		}
	}
}

// cloneSiteSet deep-copies one of the Table III site sets.
func cloneSiteSet(src map[int]bool) map[int]bool {
	dst := make(map[int]bool, len(src))
	for k, v := range src {
		dst[k] = v
	}
	return dst
}

// Stats returns a snapshot of accumulated statistics. Every reference
// field is deep-copied — the sample slices and the site-set maps — so the
// snapshot stays frozen while the runtime keeps executing.
func (rt *Runtime) Stats() Stats {
	s := rt.snapshot()
	s.LatencyCycles = append([]int64(nil), rt.stats.LatencyCycles...)
	s.TxSteps = append([]int64(nil), rt.stats.TxSteps...)
	s.TxWriteLines = append([]int64(nil), rt.stats.TxWriteLines...)
	s.GateSites = cloneSiteSet(rt.stats.GateSites)
	s.EmbedSites = cloneSiteSet(rt.stats.EmbedSites)
	s.BreakSites = cloneSiteSet(rt.stats.BreakSites)
	return s
}

// snapshot returns the counters with the arena accounting filled in; its
// sample slices and site sets alias the live ones.
func (rt *Runtime) snapshot() Stats {
	s := rt.stats
	if rt.os != nil {
		s.Arena = rt.os.ArenaStats()
	}
	return s
}

// HTMStats exposes the hardware model's counters.
func (rt *Runtime) HTMStats() htm.Stats { return rt.tsx.Stats() }

// STMStats exposes the undo log's counters.
func (rt *Runtime) STMStats() stm.Stats { return rt.undo.Stats() }

// MemoryOverheadBytes reports runtime memory attributable to the recovery
// machinery (undo log capacity), used by the Fig. 9 experiment.
func (rt *Runtime) MemoryOverheadBytes() int64 { return rt.undo.MemoryBytes() }

// GateLatchedSTM reports whether a gate has permanently switched to STM
// (tests and the Fig. 3/6 experiments).
func (rt *Runtime) GateLatchedSTM(site int) bool {
	if site <= 0 || site >= len(rt.gs) {
		return false
	}
	return rt.gs[site].stmLatched
}

// GateLatchedDomains reports whether a gate has permanently switched to
// the rewind-and-discard strategy (tests and the ablation experiments).
func (rt *Runtime) GateLatchedDomains(site int) bool {
	if site <= 0 || site >= len(rt.gs) {
		return false
	}
	return rt.gs[site].domLatched
}

// LatchSTM pins a gate to STM permanently before execution — the paper's
// §IV-C "manual marking" policy, where hot regions (post-malloc
// initialization) are hand-annotated to skip HTM entirely.
func (rt *Runtime) LatchSTM(site int) {
	if site > 0 && site < len(rt.gs) {
		rt.gs[site].stmLatched = true
	}
}

// SiteAbortRate describes one gate's HTM abort behaviour — the paper's
// Fig. 3 attributes aborts to specific library calls this way (malloc,
// posix_memalign, fcntl64 on real Nginx).
type SiteAbortRate struct {
	Site    int
	Call    string
	Execs   int64
	Aborts  int64
	Latched bool
}

// AbortPct returns the site's abort percentage.
func (s SiteAbortRate) AbortPct() float64 {
	if s.Execs == 0 {
		return 0
	}
	return 100 * float64(s.Aborts) / float64(s.Execs)
}

// SiteAbortRates returns per-gate abort accounting for every gate that
// aborted at least once, ordered by site ID.
func (rt *Runtime) SiteAbortRates() []SiteAbortRate {
	var out []SiteAbortRate
	for site := range rt.gs {
		st := &rt.gs[site]
		if st.htmAborts == 0 {
			continue
		}
		name := ""
		if g := rt.gates[site]; g != nil {
			name = g.Name
		}
		out = append(out, SiteAbortRate{
			Site:    site,
			Call:    name,
			Execs:   st.execs,
			Aborts:  st.htmAborts,
			Latched: st.stmLatched,
		})
	}
	return out
}

// LatchedSites returns the gates currently latched to STM (used to carry
// a warmup run's learned policy into a fresh "manual" run).
func (rt *Runtime) LatchedSites() []int {
	var out []int
	for site := range rt.gs {
		if rt.gs[site].stmLatched {
			out = append(out, site)
		}
	}
	return out
}

func (rt *Runtime) state(site int) *gateState {
	if site <= 0 || site >= len(rt.gs) {
		// Defensive: unknown site, use a throwaway slot.
		return &gateState{}
	}
	return &rt.gs[site]
}

// routeStore sends a store through the active transaction.
func (rt *Runtime) routeStore(addr, val int64, width int) error {
	if tx := rt.cur; tx != nil {
		switch {
		case tx.htmTx != nil:
			return tx.htmTx.Store(addr, val, width)
		case tx.variant == ir.TxSTM:
			if rt.m != nil {
				rt.m.Cycles += costStmStore
			}
			return rt.undo.Store(addr, val, width)
		}
	}
	return rt.os.Space.Store(addr, val, width)
}

// --- interp.Runtime implementation ------------------------------------------

// LibCall implements interp.Runtime.
func (rt *Runtime) LibCall(m *interp.Machine, name string, args []int64, siteID int) (int64, error) {
	site := rt.sites[siteID]
	if site != nil && rt.gates[siteID] != nil {
		// Boundary call: runs outside any transaction (the shaper put a
		// TxEnd before it). Record it for compensation.
		rt.stats.GateSites[siteID] = true
		var aux any
		if site.Entry.Capture != nil {
			aux = site.Entry.Capture(rt.os, libmodel.Call{Name: name, Args: args})
		}
		ret, err := rt.os.Call(name, args)
		if err != nil {
			return 0, err
		}
		// The site's record is overwritten in place: only the gate right
		// after this call reads it (inject), and no Capture or Compensate
		// keeps Args past the next call at the same site.
		rec := rt.lastCall[siteID]
		if rec == nil {
			rec = &callRecord{}
			rt.lastCall[siteID] = rec
		}
		rec.call.Name = name
		rec.call.Args = append(rec.call.Args[:0], args...)
		rec.call.Ret = ret
		rec.aux = aux
		return ret, nil
	}

	if site != nil {
		switch site.Role {
		case analysis.RoleEmbed:
			rt.stats.EmbedSites[siteID] = true
		case analysis.RoleBreak:
			rt.stats.BreakSites[siteID] = true
		}
	}

	entry := rt.model.Lookup(name)
	if tx := rt.cur; tx != nil && tx.variant != 0 && entry != nil {
		switch {
		case entry.Class == libmodel.Deferrable:
			// Defer the effect to commit time; report success now. The
			// slot's argument buffer is reused from earlier transactions.
			n := len(tx.deferred)
			tx.deferred = slices.Grow(tx.deferred, 1)[:n+1]
			d := &tx.deferred[n]
			d.name = name
			d.args = append(d.args[:0], args...)
			return 0, nil
		case entry.Compensate != nil:
			// Embedded reversible call: execute, but queue its
			// compensation for rollback.
			ret, err := rt.os.Call(name, args)
			if err != nil {
				return 0, err
			}
			c := libmodel.Call{Name: name, Args: append([]int64(nil), args...), Ret: ret}
			comp := entry.Compensate
			tx.comps = append(tx.comps, func() { comp(rt.os, c, nil) })
			return ret, nil
		}
	}
	return rt.os.Call(name, args)
}

// Gate implements interp.Runtime: the transaction entry gate dispatch.
func (rt *Runtime) Gate(m *interp.Machine, siteID int, snap *interp.Snapshot) (int64, bool, int64) {
	st := rt.state(siteID)
	st.execs++
	rt.stats.GateExecs++

	rt.pending.site = siteID
	rt.pending.snap = snap
	rt.pending.raw = false
	rt.pending.dom = false

	if st.injectPending || st.sticky {
		st.injectPending = false
		st.injected = true
		rt.stats.Injections++
		rt.pending.variant = ir.TxSTM
		errRet := rt.inject(m, siteID)
		return ir.TxSTM, true, errRet
	}

	variant := int64(ir.TxHTM)
	switch rt.cfg.Mode {
	case ModeSTMOnly:
		variant = ir.TxSTM
	case ModeRewind:
		// Every gate runs the rewind-and-discard strategy. The IR has no
		// third flow variant: a domain transaction executes the HTM-shaped
		// code path (no per-store instrumentation) with the dom flag
		// routing it past the hardware model.
		rt.pending.dom = true
	case ModeHTMOnly:
		if st.oneShotRaw {
			st.oneShotRaw = false
			rt.pending.raw = true
		}
	default: // ModeHybrid
		switch {
		case st.domLatched || st.oneShotDom:
			st.oneShotDom = false
			rt.pending.dom = true
		case st.stmLatched || st.oneShotSTM:
			st.oneShotSTM = false
			variant = ir.TxSTM
		}
	}
	rt.pending.variant = variant
	return variant, false, 0
}

// inject performs the Fault Injector's runtime action for a persistent
// crash: run the boundary call's compensation, set errno per the library
// documentation, and return the documented error value for the gate to
// install in the call's return register (§V-B).
func (rt *Runtime) inject(m *interp.Machine, siteID int) int64 {
	site := rt.gates[siteID]
	entry := site.Entry
	if rec := rt.lastCall[siteID]; rec != nil && entry.Compensate != nil {
		entry.Compensate(rt.os, rec.call, rec.aux)
		m.Cycles += costCompensation
	}
	if !entry.ErrnoDirect {
		rt.os.Errno = entry.Errno
	}
	if rt.tracing {
		rt.emit(EvInject, siteID, fmt.Sprintf("ret=%d errno=%d", entry.ErrorReturn, entry.Errno))
	}
	return entry.ErrorReturn
}

// TxBegin implements interp.Runtime.
func (rt *Runtime) TxBegin(m *interp.Machine, siteID int, variant int64) error {
	if rt.cur != nil {
		// A new gate while a transaction is live should not happen (the
		// shaper ends transactions before boundary calls); recover by
		// committing.
		if err := rt.TxEnd(m); err != nil {
			return err
		}
	}
	if rt.pending.raw {
		// HTM-only fallback: run unprotected (no recovery guarantee).
		rt.pending.raw = false
		rt.stats.Unprotected++
		rt.cur = nil
		rt.curVariant = ir.TxHTM
		return nil
	}
	// One record serves every transaction of this runtime: at most one is
	// live, and each handler finishes reading the ended one before the
	// next TxBegin can run. The side-effect queues keep their capacity.
	tx := &rt.txBuf
	*tx = txState{
		site:       rt.pending.site,
		variant:    variant,
		snap:       rt.pending.snap,
		stdoutMark: rt.os.StdoutLen(),
		startSteps: m.Steps,
		deferred:   tx.deferred[:0],
		comps:      tx.comps[:0],
	}
	if rt.pending.dom {
		// Rewind-and-discard: switch nothing, log nothing — record the
		// live arena's bump offset and snapshot registers only. Rollback
		// is O(1) regardless of how many stores follow.
		rt.pending.dom = false
		tx.dom = true
		tx.arenaMark = rt.os.ArenaTxMark()
		tx.fallbackMark = rt.os.ArenaStats().Fallbacks
		rt.stats.DomainBegins++
		m.Cycles += costDomainBegin
	} else if variant == ir.TxHTM {
		tx.htmTx = rt.tsx.Begin(rt.os.Space)
		rt.stats.HTMBegins++
		m.Cycles += costHTMBegin
	} else {
		// The STM fallback serializes against every other thread: take
		// the global commit lock (dooming live hardware transactions,
		// which subscribed to its line at Begin), or block until the
		// holder commits and the scheduler wakes us to retry.
		if rt.domain != nil && !rt.domain.AcquireLock(rt.tid) {
			rt.waitingLock = true
			return libsim.ErrBlocked
		}
		rt.waitingLock = false
		rt.undo.Begin()
		rt.stats.STMBegins++
		m.Cycles += costSTMBegin
	}
	rt.cur = tx
	rt.curVariant = variant
	if rt.spanAll {
		rt.emitSpan(obsv.SpanBegin, tx.site, txVariantName(tx), "", "")
	}
	return nil
}

// txVariantName renders a live transaction's strategy for span output.
func txVariantName(tx *txState) string {
	if tx.dom {
		return "domain"
	}
	return variantName(tx.variant)
}

// TxEnd implements interp.Runtime: commit.
func (rt *Runtime) TxEnd(m *interp.Machine) error {
	tx := rt.cur
	if tx == nil {
		return nil
	}
	if len(rt.stats.TxSteps) < maxLatencySamples {
		rt.stats.TxSteps = append(rt.stats.TxSteps, m.Steps-tx.startSteps)
		var wset int64
		if tx.htmTx != nil {
			wset = int64(tx.htmTx.WriteSetLines())
		} else if tx.variant == ir.TxSTM {
			wset = int64(rt.undo.Len())
		}
		rt.stats.TxWriteLines = append(rt.stats.TxWriteLines, wset)
	}
	if tx.dom {
		rt.stats.DomainCommits++
		m.Cycles += costDomainCommit
		rt.domCommitPolicy(tx)
	} else if tx.htmTx != nil {
		if err := tx.htmTx.Commit(); err != nil {
			return err
		}
		rt.stats.HTMCommits++
		m.Cycles += costHTMCommit
	} else if tx.variant == ir.TxSTM {
		entries := int64(rt.undo.Len())
		if err := rt.undo.Commit(); err != nil {
			return err
		}
		if rt.domain != nil {
			rt.domain.ReleaseLock(rt.tid)
		}
		rt.stats.STMCommits++
		m.Cycles += costSTMCommit
		rt.stmCommitPolicy(tx.site, entries)
	}
	rt.cur = nil
	if rt.spanAll {
		rt.emitSpan(obsv.SpanCommit, tx.site, txVariantName(tx), "", "")
	}

	// A committed transaction closes its gate's crash episode.
	st := rt.state(tx.site)
	st.crashes = 0
	if st.injected {
		if rt.cfg.StickyDivert {
			st.sticky = true
		}
		st.injected = false
	}

	// Deferred effects (free/close/...) become real at commit.
	for _, d := range tx.deferred {
		rt.stats.DeferredRuns++
		if _, err := rt.os.Call(d.name, d.args); err != nil {
			return err
		}
	}
	return nil
}

// undoMin returns the gate's current undo-volume latch threshold (the
// configured default until back-off doubles it).
func (rt *Runtime) undoMin(st *gateState) int64 {
	if st.undoMin == 0 {
		return rt.cfg.DomainUndoMin
	}
	return st.undoMin
}

// stmCommitPolicy extends the §IV-C dynamic policy to the third strategy:
// an STM-latched gate whose mean undo-log volume (sampled every
// SampleSize commits) reaches the threshold latches onward to
// rewind-and-discard — the regime where O(1) discard beats replaying a
// long undo log on every crash.
func (rt *Runtime) stmCommitPolicy(site int, entries int64) {
	if rt.cfg.Mode != ModeHybrid || !rt.cfg.EnableDomains {
		return
	}
	st := rt.state(site)
	if !st.stmLatched || st.domLatched {
		return
	}
	st.stmTxs++
	st.stmUndo += entries
	if st.stmTxs%rt.cfg.SampleSize != 0 {
		return
	}
	if mean := st.stmUndo / st.stmTxs; mean >= rt.undoMin(st) {
		st.domLatched = true
		rt.stats.DomainLatches++
		if rt.tracing {
			rt.emit(EvLatchDomains, site,
				fmt.Sprintf("undo_mean=%d min=%d", mean, rt.undoMin(st)))
		}
	}
}

// domCommitPolicy applies rewind-strategy back-off: a domain transaction
// that overflowed its arena into the heap escaped O(1) discard. After
// DomainBackoffMax such commits the gate re-latches to STM and the undo
// threshold doubles, so a gate only returns to domains once its undo
// volume clears a strictly higher bar.
func (rt *Runtime) domCommitPolicy(tx *txState) {
	if rt.cfg.Mode != ModeHybrid {
		return
	}
	st := rt.state(tx.site)
	if !st.domLatched || rt.os.ArenaStats().Fallbacks == tx.fallbackMark {
		return
	}
	st.domBackoff++
	if st.domBackoff < rt.cfg.DomainBackoffMax {
		return
	}
	st.undoMin = 2 * rt.undoMin(st)
	st.domLatched = false
	st.domBackoff = 0
	st.stmTxs, st.stmUndo = 0, 0
	st.stmLatched = true
	if rt.tracing {
		rt.emitSpan(obsv.SpanLatchSTM, tx.site, "", "backoff",
			fmt.Sprintf("fallbacks=%d undo_min=%d", rt.cfg.DomainBackoffMax, st.undoMin))
	}
}

// Store implements interp.Runtime.
func (rt *Runtime) Store(m *interp.Machine, addr, val int64, width int, _ bool) error {
	return rt.routeStore(addr, val, width)
}

// Load implements interp.Runtime: inside a hardware transaction loads go
// through the TSX model so the touched lines join the read set (and a
// pending cross-thread abort is delivered); otherwise they are plain
// memory loads. No extra cycles — the machine charges CostMem either way.
func (rt *Runtime) Load(m *interp.Machine, addr int64, width int) (int64, error) {
	if tx := rt.cur; tx != nil && tx.htmTx != nil {
		return tx.htmTx.Load(addr, width)
	}
	return rt.os.Space.Load(addr, width)
}

// RegSave implements interp.Runtime: the STM register-save hook. The
// machine snapshot (taken at the gate) already preserves registers; this
// charges the cost the software path would pay (setjmp analog).
func (rt *Runtime) RegSave(m *interp.Machine) {
	if rt.pending.variant == ir.TxSTM && !rt.pending.raw {
		if d := m.Depth(); d > 0 {
			m.Cycles += costRegSavePer * 16
		}
	}
}

// Tick implements interp.Runtime: retire instructions against the HTM
// interrupt model. When the checkpoint ring is armed (replay only) the
// cycle threshold is tested here, so captures land at instruction
// boundaries regardless of transaction state.
func (rt *Runtime) Tick(m *interp.Machine, n int64) error {
	if rt.ckptEvery > 0 && m.Cycles >= rt.ckptNext {
		rt.checkpoint(m)
		for rt.ckptNext <= m.Cycles {
			rt.ckptNext += rt.ckptEvery
		}
	}
	if tx := rt.cur; tx != nil && tx.htmTx != nil {
		return tx.htmTx.Tick(n)
	}
	return nil
}

// TickLive implements interp.TickCoalescer: Tick only does work while a
// hardware transaction is live, so the bytecode backend may skip the
// per-instruction call (and the position bookkeeping feeding it) whenever
// this reports false. An armed checkpoint ring needs every tick too
// (replay forces the tree walker anyway; this keeps the contract honest
// if checkpoints are ever combined with the bytecode backend).
func (rt *Runtime) TickLive() bool {
	if rt.ckptEvery > 0 {
		return true
	}
	tx := rt.cur
	return tx != nil && tx.htmTx != nil
}

// TickBudget implements interp.TickBatcher: while a hardware transaction
// is live, ticks strictly before the next modelled interrupt are pure
// countdown decrements the backend may defer and deliver in one batch.
func (rt *Runtime) TickBudget() int64 {
	if rt.ckptEvery > 0 {
		return 1
	}
	tx := rt.cur
	if tx == nil || tx.htmTx == nil {
		return math.MaxInt64
	}
	return tx.htmTx.TickBudget()
}

// Variant implements interp.Runtime: the flow-switch selector.
func (rt *Runtime) Variant() int64 {
	if tx := rt.cur; tx != nil && tx.variant != 0 {
		return tx.variant
	}
	return rt.curVariant
}

// Handle implements interp.Runtime: the recovery brain.
func (rt *Runtime) Handle(m *interp.Machine, err error) interp.Action {
	if errors.Is(err, libsim.ErrBlocked) {
		return interp.ActionBlock
	}

	// The direct assertion keeps the hot abort path allocation-free; a
	// wrapped abort takes errors.As.
	if ae, ok := err.(*htm.AbortError); ok {
		return rt.handleHTMAbort(m, ae.Cause)
	}
	var abortErr *htm.AbortError
	if errors.As(err, &abortErr) {
		return rt.handleHTMAbort(m, abortErr.Cause)
	}

	// Everything else is a fail-stop crash: an interpreter trap, heap
	// corruption, or a wild memory access inside a library call.
	return rt.handleCrash(m, err)
}

// domainViolation extracts the faulting address of a cross-domain access
// trap (ir.TrapDomain) — the fail-stop crash cause heap domains introduce
// so fail-silent corruption is contained instead of spreading.
func domainViolation(err error) (int64, bool) {
	var trap *interp.Trap
	if errors.As(err, &trap) && trap.Code == ir.TrapDomain {
		return trap.Addr, true
	}
	return 0, false
}

// noteViolation counts and records a cross-domain trap. The violation
// span is emitted immediately before the crash/shed/unrecovered span it
// becomes, so the causal chain reads: violation → how the ladder handled
// it.
func (rt *Runtime) noteViolation(site int, addr int64) {
	rt.stats.DomainViolations++
	if rt.tracing {
		rt.emitSpan(obsv.SpanDomainViolation, site, "", "",
			fmt.Sprintf("addr=%#x dom=%d", addr, rt.os.Space.CurrentDomain()))
	}
}

// handleHTMAbort processes a capacity/interrupt abort: the hardware rolled
// memory back; restore registers, apply the adaptive policy, and re-execute
// the region (via STM in hybrid mode, unprotected in HTM-only mode).
func (rt *Runtime) handleHTMAbort(m *interp.Machine, cause htm.AbortCause) interp.Action {
	tx := rt.cur
	if tx == nil || tx.htmTx == nil {
		return interp.ActionDie
	}
	rt.noteHTMAbort(tx.site, cause)
	rt.rollbackSideEffects(tx)
	m.Restore(tx.snap)
	m.Cycles += costHTMAbort
	rt.cur = nil

	st := rt.state(tx.site)
	if rt.cfg.Mode == ModeHTMOnly {
		st.oneShotRaw = true
	} else {
		st.oneShotSTM = true
	}
	return interp.ActionContinue
}

// noteHTMAbort updates the per-gate abort accounting and applies the
// dynamic adaptation policy (§IV-C).
func (rt *Runtime) noteHTMAbort(site int, cause htm.AbortCause) {
	st := rt.state(site)
	st.htmAborts++
	if cause == htm.AbortCapacity {
		st.capAborts++
	}
	rt.stats.HTMAborts++
	if rt.tracing {
		rt.emitSpan(obsv.SpanAbort, site, "htm", cause.String(),
			fmt.Sprintf("aborts=%d execs=%d", st.htmAborts, st.execs))
	}
	if rt.cfg.Mode == ModeHybrid && st.htmAborts%rt.cfg.SampleSize == 0 {
		if float64(st.htmAborts)/float64(st.execs) > rt.cfg.Threshold {
			if rt.cfg.EnableDomains && !st.domLatched && st.capAborts*2 >= st.htmAborts {
				// Capacity-dominant aborts: the write set is what does
				// not fit, so the undo log would be long too — latch
				// straight to rewind-and-discard, skipping the STM
				// detour.
				st.domLatched = true
				rt.stats.DomainLatches++
				if rt.tracing {
					rt.emit(EvLatchDomains, site,
						fmt.Sprintf("cap_aborts=%d aborts=%d", st.capAborts, st.htmAborts))
				}
				return
			}
			if !st.stmLatched {
				rt.emit(EvLatchSTM, site, "")
			}
			st.stmLatched = true
		}
	}
}

// ArmQuiesce registers the machine's current state as the app's quiesce
// point: the request-handling frame (typically blocked in the epoll/accept
// loop) that shedding restores when it drops a request. Arm it once the
// server has booted and blocked for the first time; until then the shed
// rung is inert and fatal crashes kill the process as before.
func (rt *Runtime) ArmQuiesce(m *interp.Machine) { rt.quiesce = m.Snapshot() }

// QuiesceArmed reports whether a quiesce point has been registered.
func (rt *Runtime) QuiesceArmed() bool { return rt.quiesce != nil }

// canShed reports whether the shed rung may absorb a fatal crash.
func (rt *Runtime) canShed() bool {
	return rt.quiesce != nil && rt.stats.Sheds < int64(rt.cfg.MaxSheds)
}

// shed is the last in-process rung of the recovery ladder: drop the
// request being served instead of dying. The offending connection is
// reset via the simulated OS (the client observes the close and moves
// on), the boot-time quiesce snapshot is restored, and the event loop
// resumes serving other clients. Memory is NOT rolled back beyond what
// the transaction machinery already undid — shedding trades the dropped
// request's partial state for the process's survival.
func (rt *Runtime) shed(m *interp.Machine, site int, reason string) interp.Action {
	// Capture the served request's trace before ShedConn clears the
	// serving descriptor, so the shed span joins the right causal chain.
	trace := rt.os.CurrentTrace()
	fd := rt.os.ShedConn()
	m.Restore(rt.quiesce)
	m.Cycles += costShed
	rt.cur = nil
	rt.stats.Sheds++
	if fd >= 0 {
		rt.stats.ShedConnsLost++
	}
	rt.markTouched(trace)
	if rt.tracing {
		rt.emitSpanTrace(obsv.SpanShed, site, trace, "", reason,
			fmt.Sprintf("fd=%d sheds=%d", fd, rt.stats.Sheds))
	}
	return interp.ActionContinue
}

// handleCrash processes a fail-stop trap.
func (rt *Runtime) handleCrash(m *interp.Machine, err error) interp.Action {
	tx := rt.cur
	if tx == nil || tx.variant == 0 {
		// Unprotected execution (startup, post-irrecoverable region, or
		// the HTM-only fallback): nothing to roll back. With a quiesce
		// point armed the crash is shed; otherwise it is fatal.
		site := 0
		if tx != nil {
			site = tx.site
		}
		if addr, ok := domainViolation(err); ok {
			rt.noteViolation(site, addr)
		}
		if rt.canShed() {
			m.Cycles += costSignal
			return rt.shed(m, site, "crash outside any transaction")
		}
		rt.stats.Unrecovered++
		rt.emit(EvUnrecovered, site, "crash outside any transaction")
		return interp.ActionDie
	}

	if tx.htmTx != nil {
		// A fault inside a hardware transaction surfaces as an abort;
		// per the paper the runtime cannot yet distinguish a crash from
		// a resource abort, so it re-executes under STM first (§IV-C).
		tx.htmTx.Abort(htm.AbortExplicit)
		rt.noteHTMAbort(tx.site, htm.AbortExplicit)
		rt.rollbackSideEffects(tx)
		m.Restore(tx.snap)
		m.Cycles += costHTMAbort
		rt.cur = nil
		if rt.cfg.Mode == ModeHTMOnly {
			rt.state(tx.site).oneShotRaw = true
		} else {
			rt.state(tx.site).oneShotSTM = true
		}
		return interp.ActionContinue
	}

	// Crash under STM or a domain-armed transaction: a confirmed
	// fail-stop fault.
	latStart := m.Cycles
	rt.stats.Crashes++
	cause := ""
	if addr, ok := domainViolation(err); ok {
		cause = "domain-violation"
		rt.noteViolation(tx.site, addr)
	}
	if tx.dom {
		// Rewind-and-discard rollback: no undo replay. Compensations and
		// deferred effects revert as usual, then the arena's bump pointer
		// rewinds to the entry mark (tail rezeroed, O(1) in the cost
		// model) and the register snapshot restores.
		rt.emitSpan(obsv.SpanCrash, tx.site, "domain", cause, "")
		rt.rollbackSideEffects(tx)
		dom := rt.os.ActiveArenaDom()
		mark := tx.arenaMark
		if mark < 0 {
			mark = 0 // the arena opened inside the transaction: discard it all
		}
		rt.os.ArenaTxRewind(mark)
		m.Restore(tx.snap)
		m.Cycles += costSignal + costDomainDiscard
		rt.cur = nil
		rt.stats.DomainDiscards++
		if rt.tracing {
			rt.emitSpan(obsv.SpanDomainDiscard, tx.site, "domain", "",
				fmt.Sprintf("dom=%d mark=%d", dom, mark))
		}
	} else {
		rt.emitSpan(obsv.SpanCrash, tx.site, "stm", cause, "")
		undone, rerr := rt.undo.Rollback()
		if rerr != nil {
			// The undo log could not restore memory: the heap is inconsistent,
			// so neither shedding nor restarting the region is safe. Die — but
			// visibly: the death must appear in the trace and span log like
			// every other unrecovered crash.
			rt.stats.Unrecovered++
			if rt.tracing {
				rt.emit(EvUnrecovered, tx.site, fmt.Sprintf("undo-log rollback failed: %v", rerr))
			}
			return interp.ActionDie
		}
		m.Cycles += int64(undone) * costSTMUndoEntry
		if rt.domain != nil {
			rt.domain.ReleaseLock(rt.tid)
		}
		rt.rollbackSideEffects(tx)
		m.Restore(tx.snap)
		m.Cycles += costSignal
		rt.cur = nil
	}

	st := rt.state(tx.site)
	st.crashes++
	switch {
	case st.crashes <= rt.cfg.RetryTransient:
		// Assume transient: re-execute under the same strategy.
		if tx.dom {
			st.oneShotDom = true
		} else {
			st.oneShotSTM = true
		}
		rt.stats.Retries++
		if rt.tracing {
			rt.emit(EvRetry, tx.site, fmt.Sprintf("attempt=%d", st.crashes))
		}
	default:
		// Persistent: inject a fault at the gate, if the site allows it
		// and we have not already diverted this episode. When injection is
		// off the table the ladder escalates to shedding: close the crash
		// episode, drop the request, and resume at the quiesce point.
		site := rt.gates[tx.site]
		if site == nil || !site.Entry.Injectable() || st.injected {
			if rt.canShed() {
				st.crashes = 0
				st.injected = false
				return rt.shed(m, tx.site, "persistent fault, no injectable gate")
			}
			rt.stats.Unrecovered++
			rt.emit(EvUnrecovered, tx.site, "persistent fault, no injectable gate")
			return interp.ActionDie
		}
		st.injectPending = true
	}
	// Bound the sample buffer: a persistent fault in a request loop can
	// produce one recovery per request indefinitely.
	lat := m.Cycles - latStart
	if len(rt.stats.LatencyCycles) < maxLatencySamples {
		rt.stats.LatencyCycles = append(rt.stats.LatencyCycles, lat)
	}
	if rt.tracing {
		rt.emit(EvRecovered, tx.site, fmt.Sprintf("latency=%d", lat))
	}
	return interp.ActionContinue
}

// maxLatencySamples bounds the Fig. 5 latency sample buffer.
const maxLatencySamples = 100_000

// rollbackSideEffects reverts transaction side effects beyond memory:
// compensations for embedded reversible calls (in reverse order), output
// written by embedded printf/puts, and queued deferred actions (which
// simply never happen).
func (rt *Runtime) rollbackSideEffects(tx *txState) {
	for i := len(tx.comps) - 1; i >= 0; i-- {
		tx.comps[i]()
	}
	tx.comps = tx.comps[:0]
	tx.deferred = tx.deferred[:0]
	rt.os.TruncateStdout(tx.stdoutMark)
}
