package bench

import (
	"strings"
	"sync"
	"testing"

	"github.com/firestarter-go/firestarter/internal/libmodel"
)

// Small runner so unit tests stay fast; the repo-root benchmarks use the
// full defaults.
func testRunner() Runner {
	return Runner{Requests: 80, Concurrency: 4, Seed: 1, FaultsPerServer: 4}
}

// The campaigns several figures and tables render from, run once for all
// the tests that check those renders: Figure 7's runs give Figures 7, 8
// and 9, Table IV's give Figure 5, and the windows runs give Table III.
var (
	testFigure7 = sync.OnceValues(testRunner().Figure7)
	testTableIV = sync.OnceValues(testRunner().TableIV)
	testWindows = sync.OnceValues(testRunner().TxWindows)
)

func TestTableIIMatchesPaperExactly(t *testing.T) {
	res := TableII()
	if res.Total != 101 {
		t.Fatalf("total = %d, want 101", res.Total)
	}
	want := map[libmodel.Class][2]int{
		libmodel.Reversible:    {23, 0},
		libmodel.NoReversion:   {9, 26},
		libmodel.Deferrable:    {5, 2},
		libmodel.StateRestore:  {12, 8},
		libmodel.Irrecoverable: {12, 4},
	}
	for class, w := range want {
		if res.Counts[class] != w {
			t.Errorf("%v: %v, want %v", class, res.Counts[class], w)
		}
	}
	out := res.Render()
	for _, s := range []string{"Operation reversible", "101", "61", "40"} {
		if !strings.Contains(out, s) {
			t.Errorf("render missing %q:\n%s", s, out)
		}
	}
}

func TestTableIIIRecoverableSurface(t *testing.T) {
	windows, err := testWindows()
	if err != nil {
		t.Fatal(err)
	}
	res := windows.TableIII()
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.UniqueTx == 0 {
			t.Errorf("%s: no transactions observed", row.Server)
		}
		// Paper band: at least 77%% recoverable on all three servers.
		if row.RecoverablePct < 70 || row.RecoverablePct > 100 {
			t.Errorf("%s: recoverable = %.1f%%, want within [70,100]", row.Server, row.RecoverablePct)
		}
		if row.EmbeddedCalls == 0 {
			t.Errorf("%s: no embedded libcalls observed", row.Server)
		}
	}
	t.Logf("\n%s", res.Render())
}

func TestTableIVSurvivability(t *testing.T) {
	res, err := testTableIV()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	totalInjected, totalRecovered := 0, 0
	for _, row := range res.Rows {
		totalInjected += row.FSInjected
		totalRecovered += row.FSRecovered
		// Fail-silent faults must mostly NOT crash (paper: 2 of 79).
		if row.SilInjected > 0 && row.SilTriggered > row.SilInjected/2 {
			t.Errorf("%s: %d/%d fail-silent faults crashed — too many",
				row.Server, row.SilTriggered, row.SilInjected)
		}
	}
	if totalInjected == 0 {
		t.Fatal("no fail-stop fault was ever triggered")
	}
	// Paper: overall recovery well above 70%.
	if float64(totalRecovered) < 0.5*float64(totalInjected) {
		t.Errorf("recovered %d of %d triggered faults — recovery surface collapsed",
			totalRecovered, totalInjected)
	}
	t.Logf("\n%s", res.Render())
}

func TestFigure3PolicyOrdering(t *testing.T) {
	res, err := testRunner().Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	naive, manual, dynamic := res.Rows[0], res.Rows[1], res.Rows[2]
	// The paper's qualitative result: naive has the highest abort rate;
	// manual and dynamic both cut it drastically.
	if naive.HTMAbortPct <= manual.HTMAbortPct {
		t.Errorf("naive abort %.2f%% <= manual %.2f%%", naive.HTMAbortPct, manual.HTMAbortPct)
	}
	if naive.HTMAbortPct <= dynamic.HTMAbortPct {
		t.Errorf("naive abort %.2f%% <= dynamic %.2f%%", naive.HTMAbortPct, dynamic.HTMAbortPct)
	}
	if naive.DegradationPct <= dynamic.DegradationPct {
		t.Errorf("naive degradation %.1f%% <= dynamic %.1f%%", naive.DegradationPct, dynamic.DegradationPct)
	}
	t.Logf("\n%s", res.Render())
}

func TestFigure5LatencyDistribution(t *testing.T) {
	res, err := testTableIV()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Latency) != 3 {
		t.Fatalf("latency rows = %d, want 3", len(res.Latency))
	}
	gotSamples := false
	for _, row := range res.Latency {
		if row.Samples > 0 {
			gotSamples = true
			if row.MaxUs < row.P50us {
				t.Errorf("%s: max %.1f < p50 %.1f", row.Server, row.MaxUs, row.P50us)
			}
		}
	}
	if !gotSamples {
		t.Fatal("no recovery latency samples collected")
	}
	t.Logf("\n%s", res.RenderFigure5())
}

func TestFigure6SweepInsensitive(t *testing.T) {
	r := Runner{Requests: 60, Concurrency: 4, Seed: 1}
	res, err := r.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	for name, cells := range res.Servers {
		if len(cells) != 16 {
			t.Errorf("%s: %d cells, want 16", name, len(cells))
		}
	}
	t.Logf("\n%s", res.Render())
}

func TestFigure7And8Shape(t *testing.T) {
	res, err := testFigure7()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	for _, row := range res.Rows {
		// The headline shape: FIRestarter is much cheaper than STM-only.
		if row.FIRestarterPct >= row.STMOnlyPct {
			t.Errorf("%s: FIRestarter %.1f%% >= STM-only %.1f%%",
				row.Server, row.FIRestarterPct, row.STMOnlyPct)
		}
		// And FIRestarter cuts HTM aborts versus HTM-only (Fig. 8).
		if row.FIRestarterAbortPct > row.HTMOnlyAbortPct && row.HTMOnlyAbortPct > 0 {
			t.Errorf("%s: FIRestarter abort %.2f%% > HTM-only %.2f%%",
				row.Server, row.FIRestarterAbortPct, row.HTMOnlyAbortPct)
		}
	}
	t.Logf("\n%s\n%s", res.Render(), res.RenderFigure8())
}

func TestFigure9MemoryOverhead(t *testing.T) {
	res, err := testFigure7()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		// Instrumented variants must cost memory (code duplication), but
		// not absurd amounts.
		if row.FIRestarterMemPct <= 0 {
			t.Errorf("%s: FIRestarter memory overhead %.1f%% <= 0", row.Server, row.FIRestarterMemPct)
		}
		if row.FIRestarterMemPct > 400 {
			t.Errorf("%s: FIRestarter memory overhead %.1f%% implausibly high", row.Server, row.FIRestarterMemPct)
		}
	}
	t.Logf("\n%s", res.RenderFigure9())
}

func TestRealWorldCaseStudies(t *testing.T) {
	res, err := testRunner().RealWorld()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cases) != 2 {
		t.Fatalf("cases = %d, want 2", len(res.Cases))
	}
	for _, cs := range res.Cases {
		if !cs.Survived {
			t.Errorf("%s: server died", cs.Name)
			continue
		}
		if cs.Injections == 0 {
			t.Errorf("%s: no injection performed", cs.Name)
		}
		if !cs.FollowupOK {
			t.Errorf("%s: follow-up request failed", cs.Name)
		}
	}
	// The lighttpd case must produce the paper's 403.
	if !strings.Contains(res.Cases[1].FaultResponse, "403") {
		t.Errorf("lighttpd response = %q, want 403", res.Cases[1].FaultResponse)
	}
	t.Logf("\n%s", res.Render())
}
