package core

import (
	"strings"
	"testing"

	"github.com/firestarter-go/firestarter/internal/interp"
	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/mem"
	"github.com/firestarter-go/firestarter/internal/minic"
	"github.com/firestarter-go/firestarter/internal/obsv"
	"github.com/firestarter-go/firestarter/internal/transform"
)

// newLadderRuntime builds a hardened runtime around a tiny program with
// at least one gate site, so escalation-ladder paths can be exercised by
// rigging the crash state directly (several of them — rollback failure,
// shed exhaustion — cannot be reached through ordinary execution).
func newLadderRuntime(t testing.TB, cfg Config) (*Runtime, *interp.Machine) {
	t.Helper()
	return newRuntime(t, `
int main() {
	char *p = malloc(16);
	if (!p) { return 1; }
	free(p);
	return 0;
}
`, cfg)
}

// newRuntime builds a hardened runtime and its attached machine around
// the program src.
func newRuntime(t testing.TB, src string, cfg Config) (*Runtime, *interp.Machine) {
	t.Helper()
	prog, err := minic.Compile(src, minic.Config{KnownLib: libsim.Known})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	tr, err := transform.Apply(prog, nil)
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	o := libsim.New(mem.NewSpace())
	rt := New(tr, o, cfg)
	m, err := interp.New(tr.Prog, o, rt)
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	rt.Attach(m)
	return rt, m
}

func findSpan(rt *Runtime, kind string) (obsv.SpanEvent, bool) {
	for _, e := range rt.Spans() {
		if e.Kind == kind {
			return e, true
		}
	}
	return obsv.SpanEvent{}, false
}

func TestShedAbsorbsCrashOutsideTransaction(t *testing.T) {
	rt, m := newLadderRuntime(t, Config{})
	rt.EnableSpans()
	rt.ArmQuiesce(m)
	if !rt.QuiesceArmed() {
		t.Fatal("quiesce not armed")
	}

	if act := rt.handleCrash(m, nil); act != interp.ActionContinue {
		t.Fatalf("action = %v, want continue", act)
	}
	s := rt.Stats()
	if s.Sheds != 1 || s.Unrecovered != 0 {
		t.Fatalf("sheds = %d, unrecovered = %d", s.Sheds, s.Unrecovered)
	}
	// No connection was being served, so nothing was torn down.
	if s.ShedConnsLost != 0 {
		t.Fatalf("shed closed a connection that does not exist: %+v", s)
	}
	if _, ok := findSpan(rt, obsv.SpanShed); !ok {
		t.Error("no shed span emitted")
	}
}

func TestShedExhaustionEscalatesToDeath(t *testing.T) {
	rt, m := newLadderRuntime(t, Config{})
	rt.EnableSpans()
	rt.ArmQuiesce(m)

	for i := 1; i <= maxSheds; i++ {
		if act := rt.handleCrash(m, nil); act != interp.ActionContinue {
			t.Fatalf("crash %d: action = %v, want continue (shed)", i, act)
		}
	}
	if act := rt.handleCrash(m, nil); act != interp.ActionDie {
		t.Fatalf("crash %d: action = %v, want die (sheds exhausted)", maxSheds+1, act)
	}
	s := rt.Stats()
	if s.Sheds != maxSheds || s.Unrecovered != 1 {
		t.Fatalf("sheds = %d, unrecovered = %d", s.Sheds, s.Unrecovered)
	}
	if _, ok := findSpan(rt, obsv.SpanUnrecovered); !ok {
		t.Error("no unrecovered span for the post-exhaustion death")
	}
}

func TestShedOnPersistentFaultWithoutInjectableGate(t *testing.T) {
	rt, m := newLadderRuntime(t, Config{RetryTransient: 1})
	rt.EnableSpans()
	rt.ArmQuiesce(m)

	// Rig a crashing STM transaction at a site whose gate cannot divert:
	// already-injected sites take the same no-gate escalation path.
	site := 1
	rt.undo.Begin()
	rt.cur = &txState{site: site, strat: stratSTM, snap: m.Snapshot()}
	rt.state(site).crashes = 1 // next crash exceeds RetryTransient
	rt.state(site).injected = true

	if act := rt.handleCrash(m, nil); act != interp.ActionContinue {
		t.Fatalf("action = %v, want continue (shed)", act)
	}
	s := rt.Stats()
	if s.Crashes != 1 || s.Sheds != 1 || s.Unrecovered != 0 {
		t.Fatalf("crashes = %d, sheds = %d, unrecovered = %d", s.Crashes, s.Sheds, s.Unrecovered)
	}
	// The crash episode is closed: the site starts fresh if it crashes
	// again after the shed.
	if rt.state(site).crashes != 0 || rt.state(site).injected {
		t.Errorf("crash episode not reset: %+v", *rt.state(site))
	}
	e, ok := findSpan(rt, obsv.SpanShed)
	if !ok {
		t.Fatal("no shed span emitted")
	}
	if e.Site != site {
		t.Errorf("shed span site = %d, want %d", e.Site, site)
	}
}

// TestRollbackFailureIsVisiblyUnrecovered is the regression test for the
// silent-death bug: a failed undo-log rollback incremented Unrecovered
// but emitted no event, so the death never appeared in the trace or span
// log. It must die visibly — even with shedding armed, because the heap
// is inconsistent.
func TestRollbackFailureIsVisiblyUnrecovered(t *testing.T) {
	rt, m := newLadderRuntime(t, Config{})
	rt.EnableSpans()
	rt.ArmQuiesce(m)

	// An STM transaction whose undo log was never begun: Rollback fails.
	rt.cur = &txState{site: 1, strat: stratSTM, snap: m.Snapshot()}

	if act := rt.handleCrash(m, nil); act != interp.ActionDie {
		t.Fatalf("action = %v, want die", act)
	}
	s := rt.Stats()
	if s.Unrecovered != 1 || s.Sheds != 0 {
		t.Fatalf("unrecovered = %d, sheds = %d", s.Unrecovered, s.Sheds)
	}
	e, ok := findSpan(rt, obsv.SpanUnrecovered)
	if !ok {
		t.Fatal("rollback failure emitted no unrecovered span")
	}
	if !strings.Contains(e.Detail, "rollback") {
		t.Errorf("unrecovered span does not name the rollback failure: %+v", e)
	}
}
