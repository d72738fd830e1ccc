package core_test

import (
	"errors"
	"testing"

	"github.com/firestarter-go/firestarter/internal/core"
	"github.com/firestarter-go/firestarter/internal/htm"
	"github.com/firestarter-go/firestarter/internal/interp"
	"github.com/firestarter-go/firestarter/internal/mem"
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

// TestLibraryWritesAllocFree pins the library store seam's share: a loop
// of memset and pread calls, each a range write into the live transaction
// (HTM write set or STM undo log), allocates nothing once warm.
func TestLibraryWritesAllocFree(t *testing.T) {
	src := `
int main() {
	int fd = open("/data", 0);
	if (fd < 0) { return 1; }
	char *buf = malloc(4096);
	if (!buf) { return 2; }
	while (1) {
		memset(buf, 'a', 3001);
		if (pread(fd, buf + 5, 1500, 0) != 1500) { return 3; }
	}
	return 0;
}`
	for _, mode := range []core.Mode{core.ModeHybrid, core.ModeSTMOnly} {
		h := newHarness(t, src, core.Config{Mode: mode})
		h.os.FS().Add("/data", make([]byte, 2000))
		if out := h.m.Run(5_000); out.Kind != interp.OutStepLimit { // warm-up
			t.Fatalf("mode %v: warm-up outcome %v", mode, out.Kind)
		}
		before := h.rt.Stats()
		allocs := testing.AllocsPerRun(50, func() {
			if out := h.m.Run(500); out.Kind != interp.OutStepLimit {
				t.Fatalf("mode %v: outcome %v", mode, out.Kind)
			}
		})
		if execs := h.rt.Stats().GateExecs - before.GateExecs; execs < 50 {
			t.Fatalf("mode %v: loop ran %d gates, want several per run", mode, execs)
		}
		if allocs != 0 {
			t.Errorf("mode %v: %.2f allocs per 500-step run, want 0", mode, allocs)
		}
	}
}

// TestHugeMemsetFaultsAfterOneUnit pins that the library never sizes a
// buffer by a guest length: memset of 2^40 bytes onto an unmapped page
// faults on its first unit, charges that one unit, and allocates only
// the fault's error value.
func TestHugeMemsetFaultsAfterOneUnit(t *testing.T) {
	h := newHarness(t, `int main() { return 0; }`, core.Config{Mode: core.ModeHybrid})
	const unmapped = mem.HeapLimit - mem.PageSize
	args := []int64{unmapped, 0, 1 << 40}
	if _, err := h.os.Call("memset", args); !errors.Is(err, mem.ErrUnmapped) {
		t.Fatalf("memset onto an unmapped page: %v", err)
	}
	cycles := h.m.Cycles
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := h.os.Call("memset", args); err == nil {
			t.Fatal("memset onto an unmapped page succeeded")
		}
	})
	if per := (h.m.Cycles - cycles) / 21; per != 2 {
		t.Errorf("memset charged %d cycles per call, want 2 (one unit)", per)
	}
	if allocs > 1 {
		t.Errorf("%.0f allocs per faulting memset, want at most the error value", allocs)
	}
}
