package core

// Tests for the rewind-and-discard checkpoint strategy: the three-way
// §IV-C policy (HTM → STM → domains with back-off), the domain crash
// path (snapshot-restore while a domain-armed transaction is live), and
// cross-domain violation handling. Policy tests pin exact deterministic
// counts; the crash tests drive the real Gate/TxBegin/handleCrash path.

import (
	"testing"

	"github.com/firestarter-go/firestarter/internal/htm"
	"github.com/firestarter-go/firestarter/internal/interp"
	"github.com/firestarter-go/firestarter/internal/ir"
	"github.com/firestarter-go/firestarter/internal/obsv"
)

// gateSite returns some gate site ID of the ladder program (its malloc).
func gateSite(t testing.TB, rt *Runtime) int {
	t.Helper()
	for id := range rt.sites {
		if rt.gate(id) != nil {
			return id
		}
	}
	t.Fatal("program has no gate sites")
	return 0
}

func TestUndoVolumeLatchesDomains(t *testing.T) {
	rt, _ := newLadderRuntime(t, Config{EnableDomains: true})
	rt.EnableSpans()
	site := gateSite(t, rt)
	st := rt.state(site)
	st.latched = stratSTM

	// SampleSize defaults to 4: three heavy commits must not latch (the
	// sample window is not full), the fourth must. Mean undo volume
	// 30 >= domainUndoMin (24).
	for i := 0; i < 3; i++ {
		rt.stmCommitPolicy(site, 30)
		if st.latched == stratDomain {
			t.Fatalf("latched after %d commits, want 4", i+1)
		}
	}
	rt.stmCommitPolicy(site, 30)
	if st.latched != stratDomain || !rt.GateLatchedDomains(site) {
		t.Fatal("undo volume did not latch domains")
	}
	if s := rt.Stats(); s.DomainLatches != 1 {
		t.Fatalf("DomainLatches = %d, want 1", s.DomainLatches)
	}
	if _, ok := findSpan(rt, obsv.SpanLatchDomains); !ok {
		t.Error("no latch-domains span")
	}

	// A latched gate stops sampling (counts stay pinned).
	rt.stmCommitPolicy(site, 1000)
	if s := rt.Stats(); s.DomainLatches != 1 {
		t.Fatalf("DomainLatches after re-sample = %d, want 1", s.DomainLatches)
	}
}

func TestLowUndoVolumeStaysSTM(t *testing.T) {
	rt, _ := newLadderRuntime(t, Config{EnableDomains: true})
	site := gateSite(t, rt)
	st := rt.state(site)
	st.latched = stratSTM
	for i := 0; i < 8; i++ {
		rt.stmCommitPolicy(site, 10) // mean 10 < 24
	}
	if st.latched == stratDomain {
		t.Fatal("low undo volume latched domains")
	}
	if s := rt.Stats(); s.DomainLatches != 0 {
		t.Fatalf("DomainLatches = %d, want 0", s.DomainLatches)
	}
}

func TestCapacityAbortsLatchStraightToDomains(t *testing.T) {
	rt, _ := newLadderRuntime(t, Config{EnableDomains: true})
	rt.EnableTrace()
	site := gateSite(t, rt)
	st := rt.state(site)
	st.execs = 4

	// Four capacity aborts against four executions: at the fourth
	// (SampleSize boundary) the abort rate is 1.0 > θ and every abort is
	// a capacity abort, so the gate latches straight to domains — no STM
	// detour.
	for i := 0; i < 4; i++ {
		rt.noteHTMAbort(site, htm.AbortCapacity)
	}
	if st.latched != stratDomain {
		t.Fatal("capacity-dominant aborts did not latch domains")
	}
	if rt.GateLatchedSTM(site) {
		t.Fatal("gate latched STM despite capacity-dominant aborts")
	}
	if s := rt.Stats(); s.DomainLatches != 1 {
		t.Fatalf("DomainLatches = %d, want 1", s.DomainLatches)
	}
}

func TestInterruptAbortsStillLatchSTM(t *testing.T) {
	rt, _ := newLadderRuntime(t, Config{EnableDomains: true})
	site := gateSite(t, rt)
	st := rt.state(site)
	st.execs = 4
	for i := 0; i < 4; i++ {
		rt.noteHTMAbort(site, htm.AbortInterrupt)
	}
	if st.latched == stratDomain {
		t.Fatal("interrupt aborts latched domains")
	}
	if st.latched != stratSTM {
		t.Fatal("gate did not latch STM")
	}
}

func TestDomainBackoffRelatchesSTMWithDoubledThreshold(t *testing.T) {
	rt, _ := newLadderRuntime(t, Config{EnableDomains: true})
	rt.EnableSpans()
	site := gateSite(t, rt)
	st := rt.state(site)
	st.latched = stratDomain

	// Each commit of a transaction whose arena overflowed into the heap
	// (fallbackMark below the manager's counter) counts one back-off
	// strike; the domainBackoffMax'th (4) re-latches STM.
	overflowed := &txState{site: site, strat: stratDomain, fallbackMark: -1}
	for i := 0; i < 3; i++ {
		rt.domCommitPolicy(overflowed)
		if st.latched != stratDomain {
			t.Fatalf("backed off after %d strikes, want 4", i+1)
		}
	}
	rt.domCommitPolicy(overflowed)
	if st.latched != stratSTM {
		t.Fatalf("back-off state: latched %v, want stm", st.latched)
	}
	if st.undoMin != 48 {
		t.Fatalf("undoMin = %d, want doubled 48", st.undoMin)
	}
	if e, ok := findSpan(rt, obsv.SpanLatchSTM); !ok || e.Cause != "backoff" {
		t.Fatalf("latch-stm/backoff span missing (got %+v, %v)", e, ok)
	}

	// Returning to domains now needs the (cumulative) mean undo volume
	// over the doubled bar: 30 per commit (over the old 24) no longer
	// latches; pushing the running mean to (4*30+4*90)/8 = 60 >= 48 does.
	for i := 0; i < 4; i++ {
		rt.stmCommitPolicy(site, 30)
	}
	if st.latched == stratDomain {
		t.Fatal("re-latched below the doubled threshold")
	}
	for i := 0; i < 4; i++ {
		rt.stmCommitPolicy(site, 90)
	}
	if st.latched != stratDomain {
		t.Fatal("did not re-latch above the doubled threshold")
	}
}

// armDomainTx drives the real Gate → TxBegin path to arm a domain
// transaction at the given gate, returning the live tx.
func armDomainTx(t *testing.T, rt *Runtime, m *interp.Machine, site int) *txState {
	t.Helper()
	snap := m.Snapshot()
	variant, inject, _ := rt.Gate(m, site, snap)
	if inject {
		t.Fatal("unexpected injection")
	}
	if variant != ir.TxHTM {
		t.Fatalf("domain gate variant = %d, want ir.TxHTM (%d)", variant, ir.TxHTM)
	}
	if err := rt.TxBegin(m, site, variant); err != nil {
		t.Fatalf("TxBegin: %v", err)
	}
	tx := rt.cur
	if tx == nil || tx.strat != stratDomain || tx.htmTx != nil {
		t.Fatalf("armed tx = %+v, want domain-armed", tx)
	}
	return tx
}

func TestSnapshotRestoreDuringDomainArmedTransaction(t *testing.T) {
	rt, m := newLadderRuntime(t, Config{Mode: ModeRewind})
	rt.EnableSpans()
	site := gateSite(t, rt)

	// Pre-transaction arena state: one chunk holding 7.
	pre, err := rt.os.ArenaAlloc(32)
	if err != nil || pre == 0 {
		t.Fatalf("pre-tx ArenaAlloc: %#x %v", pre, err)
	}
	if err := rt.os.Space.Store(pre, 7, 8); err != nil {
		t.Fatal(err)
	}

	tx := armDomainTx(t, rt, m, site)
	if tx.arenaMark != 32 {
		t.Fatalf("arenaMark = %d, want 32", tx.arenaMark)
	}

	// In-transaction allocation and stores route raw (no undo logging).
	in, _ := rt.os.ArenaAlloc(48)
	if err := rt.Store(m, in, 9, 8, false); err != nil {
		t.Fatal(err)
	}
	if rt.STMStats().TotalStores != 0 {
		t.Fatal("domain transaction logged undo entries")
	}

	// Crash: registers restore from the snapshot, the arena rewinds to
	// the mark in O(1), and the episode retries under the same strategy.
	if act := rt.handleCrash(m, nil); act != interp.ActionContinue {
		t.Fatalf("action = %v, want continue", act)
	}
	s := rt.Stats()
	if s.Crashes != 1 || s.DomainDiscards != 1 || s.Retries != 1 {
		t.Fatalf("crashes=%d discards=%d retries=%d, want 1/1/1", s.Crashes, s.DomainDiscards, s.Retries)
	}
	if v, _ := rt.os.Space.Load(pre, 8); v != 7 {
		t.Fatalf("pre-tx chunk = %d, want 7 (survived)", v)
	}
	if v, _ := rt.os.Space.Load(in, 8); v != 0 {
		t.Fatalf("in-tx chunk = %d, want 0 (rewound)", v)
	}
	if rt.state(site).retry != stratDomain {
		t.Fatal("retry not armed under the domain strategy")
	}
	if _, ok := findSpan(rt, obsv.SpanDomainDiscard); !ok {
		t.Error("no domain-discard span")
	}

	// The retry commits: pinned counters across the whole episode.
	tx2 := armDomainTx(t, rt, m, site)
	if tx2.arenaMark != 32 {
		t.Fatalf("retry arenaMark = %d, want 32 (rewound)", tx2.arenaMark)
	}
	if err := rt.TxEnd(m); err != nil {
		t.Fatalf("TxEnd: %v", err)
	}
	s = rt.Stats()
	if s.DomainBegins != 2 || s.DomainCommits != 1 || s.DomainDiscards != 1 {
		t.Fatalf("begins=%d commits=%d discards=%d, want 2/1/1", s.DomainBegins, s.DomainCommits, s.DomainDiscards)
	}
}

func TestDomainViolationTrapsAsCrashCause(t *testing.T) {
	rt, m := newLadderRuntime(t, Config{Mode: ModeRewind, RetryTransient: 1})
	rt.EnableSpans()
	site := gateSite(t, rt)
	if _, err := rt.os.ArenaAlloc(16); err != nil {
		t.Fatal(err)
	}
	armDomainTx(t, rt, m, site)

	trap := &interp.Trap{Code: ir.TrapDomain, Addr: 0x6000_0040}
	if act := rt.Handle(m, trap); act != interp.ActionContinue {
		t.Fatalf("action = %v, want continue", act)
	}
	s := rt.Stats()
	if s.DomainViolations != 1 || s.Crashes != 1 {
		t.Fatalf("violations=%d crashes=%d, want 1/1", s.DomainViolations, s.Crashes)
	}

	// Span order is the lintable contract: violation, then the crash it
	// becomes (variant domain, cause domain-violation), then the discard.
	var seq []string
	for _, e := range rt.Spans() {
		switch e.Kind {
		case obsv.SpanDomainViolation, obsv.SpanCrash, obsv.SpanDomainDiscard:
			seq = append(seq, e.Kind)
			if e.Kind == obsv.SpanCrash && (e.Variant != "domain" || e.Cause != "domain-violation") {
				t.Errorf("crash span = %+v", e)
			}
		}
	}
	want := []string{obsv.SpanDomainViolation, obsv.SpanCrash, obsv.SpanDomainDiscard}
	if len(seq) != 3 || seq[0] != want[0] || seq[1] != want[1] || seq[2] != want[2] {
		t.Fatalf("span sequence = %v, want %v", seq, want)
	}
}
