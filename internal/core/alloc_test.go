package core_test

import (
	"testing"

	"github.com/firestarter-go/firestarter/internal/core"
	"github.com/firestarter-go/firestarter/internal/htm"
	"github.com/firestarter-go/firestarter/internal/interp"
)

// TestSteadyStateTransactionsAllocFree pins the runtime's share of the
// allocation-free request path: a loop of gated malloc calls, each
// opening a transaction that defers a free to commit, allocates nothing
// once warm — the boundary call's compensation record, the transaction
// record and the deferred call's arguments are all reused.
func TestSteadyStateTransactionsAllocFree(t *testing.T) {
	src := `
int main() {
	int n = 0;
	while (1) {
		char *p = malloc(32);
		if (!p) { return 1; }
		p[0] = 'x';
		free(p);
		n = n + 1;
	}
	return n;
}`
	for _, mode := range []core.Mode{core.ModeHybrid, core.ModeSTMOnly} {
		h := newHarness(t, src, core.Config{Mode: mode})
		if out := h.m.Run(20_000); out.Kind != interp.OutStepLimit { // warm-up
			t.Fatalf("mode %v: warm-up outcome %v", mode, out.Kind)
		}
		before := h.rt.Stats()
		allocs := testing.AllocsPerRun(50, func() {
			if out := h.m.Run(2_000); out.Kind != interp.OutStepLimit {
				t.Fatalf("mode %v: outcome %v", mode, out.Kind)
			}
		})
		after := h.rt.Stats()
		if after.GateExecs-before.GateExecs < 50 || after.DeferredRuns == before.DeferredRuns {
			t.Fatalf("mode %v: loop ran %d gates and %d deferred frees, want both",
				mode, after.GateExecs-before.GateExecs, after.DeferredRuns-before.DeferredRuns)
		}
		if allocs != 0 {
			t.Errorf("mode %v: %.2f allocs per 2000-step run, want 0", mode, allocs)
		}
	}
}

// TestHTMAbortsAllocFreeWithSpansOff pins the abort path's share: with
// spans off, an HTM abort formats no span detail, so a loop whose
// transactions are aborted by a dense interrupt process (and, with the
// threshold above 100 %, never latch to STM) allocates nothing once warm.
func TestHTMAbortsAllocFreeWithSpansOff(t *testing.T) {
	src := `
int main() {
	int n = 0;
	while (1) {
		char *p = malloc(256);
		if (!p) { return 1; }
		for (int i = 0; i < 256; i = i + 1) { p[i] = 'x'; }
		free(p);
		n = n + 1;
	}
	return n;
}`
	h := newHarness(t, src, core.Config{
		Mode:       core.ModeHybrid,
		Threshold:  2.0,
		SampleSize: 4,
		HTM:        htm.Config{MeanInstrsPerInterrupt: 300, Seed: 1},
	})
	if out := h.m.Run(50_000); out.Kind != interp.OutStepLimit { // warm-up
		t.Fatalf("warm-up outcome %v", out.Kind)
	}
	before := h.rt.Stats()
	allocs := testing.AllocsPerRun(50, func() {
		if out := h.m.Run(5_000); out.Kind != interp.OutStepLimit {
			t.Fatalf("outcome %v", out.Kind)
		}
	})
	if aborts := h.rt.Stats().HTMAborts - before.HTMAborts; aborts < 50 {
		t.Fatalf("loop aborted %d HTM transactions, want at least one per run", aborts)
	}
	if allocs != 0 {
		t.Errorf("%.2f allocs per 5000-step run with spans off, want 0", allocs)
	}
}
