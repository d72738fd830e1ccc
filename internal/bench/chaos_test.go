package bench

import (
	"bytes"
	"strings"
	"testing"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/boot"
	"github.com/firestarter-go/firestarter/internal/core"
	"github.com/firestarter-go/firestarter/internal/obsv"
	"github.com/firestarter-go/firestarter/internal/supervisor"
)

// chaosRunner keeps the soak small enough for unit tests: one fail-stop
// fault plus one of each silent kind per app.
func chaosRunner() Runner {
	return Runner{Requests: 24, Concurrency: 2, Seed: 3, FaultsPerServer: 1}
}

func TestChaosAttributesEveryFault(t *testing.T) {
	res, err := chaosRunner().Chaos()
	if err != nil {
		t.Fatal(err)
	}
	if res.Campaigns == 0 {
		t.Fatal("no campaigns planned")
	}
	total := 0
	for _, row := range res.Rows {
		attributed := row.None + row.Recovered + row.Injected + row.Shed + row.Rebooted + row.Breaker
		if attributed != row.Faults {
			t.Errorf("%s/%s: %d faults, %d attributed", row.App, row.Kind, row.Faults, attributed)
		}
		if row.Survived > row.Faults {
			t.Errorf("%s/%s: survived %d > faults %d", row.App, row.Kind, row.Survived, row.Faults)
		}
		total += row.Faults
	}
	if total != res.Campaigns {
		t.Errorf("rows cover %d campaigns, ran %d", total, res.Campaigns)
	}
	if res.Survived == 0 {
		t.Error("full ladder survived no campaign")
	}
	// The combined span log must satisfy the obsvlint trace schema:
	// non-decreasing campaign-global cycles, non-empty kinds.
	for i, e := range res.Spans {
		if e.Kind == "" {
			t.Fatalf("span %d has no kind", i)
		}
		if i > 0 && e.Cycles < res.Spans[i-1].Cycles {
			t.Fatalf("span %d cycles %d < previous %d", i, e.Cycles, res.Spans[i-1].Cycles)
		}
	}
	// After cycle/trace rebasing the merged log must stay causally valid:
	// every traced request reaches exactly one terminal and no span
	// references a trace that was never delivered.
	if errs := obsv.CheckCausality(res.Spans); len(errs) > 0 {
		if len(errs) > 10 {
			errs = errs[:10]
		}
		t.Errorf("merged chaos spans violate trace causality:\n  %s", strings.Join(errs, "\n  "))
	}
	// 100% of delivered requests must be attributed to a terminal
	// outcome — IDs are campaign-global 1..Traces after rebasing.
	terminals := map[int64]bool{}
	for _, e := range res.Spans {
		if e.Kind == obsv.SpanReqDone || e.Kind == obsv.SpanReqLost {
			terminals[e.Trace] = true
		}
	}
	if int64(len(terminals)) != res.Traces {
		t.Errorf("%d distinct terminal traces, %d requests delivered", len(terminals), res.Traces)
	}
	for tr := int64(1); tr <= res.Traces; tr++ {
		if !terminals[tr] {
			t.Fatalf("trace %d has no terminal span", tr)
		}
	}
	var buf bytes.Buffer
	if err := obsv.Sequence(res.Spans).WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != len(res.Spans) {
		t.Errorf("trace has %d lines, %d spans", got, len(res.Spans))
	}
	t.Logf("\n%s", res.Render())
}

// TestLadderCountsBreakerResidualAsFailed is the regression test for the
// silent under-reporting bug: the old inline restart loop exited its
// 50-incarnation cap with work still outstanding and never counted it.
// The supervised ladder must attribute every request even when the
// crash-loop breaker gives up.
func TestLadderCountsBreakerResidualAsFailed(t *testing.T) {
	r := testRunner()
	// A long enough campaign that the persistent fault kills more than
	// one incarnation before the workload drains.
	r.Requests = 300
	app := apps.Redis()
	fault, err := r.libFault(app, "execute", "atoi", 1)
	if err != nil {
		t.Fatal(err)
	}
	// One allowed restart in an effectively unbounded window: the second
	// death opens the breaker with most of the workload outstanding.
	lr, err := r.ladderRun(app, boot.Options{Vanilla: true, Fault: &fault},
		supervisor.Config{MaxRestarts: 1, WindowCycles: 1 << 60})
	if err != nil {
		t.Fatal(err)
	}
	if !lr.Sup.BreakerOpen {
		t.Fatalf("breaker did not open: %+v", lr.Sup)
	}
	if got := lr.Completed + lr.Failed; got != r.withDefaults().Requests {
		t.Errorf("accounted %d of %d requests", got, r.withDefaults().Requests)
	}
	if errs := lr.reconcile(); len(errs) > 0 {
		t.Errorf("accounting did not reconcile:\n  %s", strings.Join(errs, "\n  "))
	}
}

// TestLadderReconcileAppliesDomainOrdering: a campaign span log whose
// domain-discard follows a commit breaks the rewind-and-discard ordering
// rules. The in-process reconciliation must report it, not only the CLI
// linter — with every counter consistent, it is the only finding.
func TestLadderReconcileAppliesDomainOrdering(t *testing.T) {
	st := core.Stats{DomainBegins: 1, DomainCommits: 1, DomainDiscards: 1}
	lr := &ladderRun{cell: cell{Registry: obsv.NewRegistry(), Spans: []obsv.SpanEvent{
		{Cycles: 10, Kind: obsv.SpanBegin, Variant: "domain"},
		{Cycles: 20, Kind: obsv.SpanCommit, Variant: "domain"},
		{Cycles: 30, Kind: obsv.SpanDomainDiscard, Variant: "domain", Detail: "dom=0 mark=0"},
	}}}
	core.AddTotals(&lr.Totals, &st)
	core.Metrics.Publish(lr.Registry, &st)
	core.DomainMetrics.Publish(lr.Registry, &st)
	errs := lr.reconcile()
	want := `line 3: domain-discard after "commit", want crash`
	if len(errs) != 1 || errs[0] != want {
		t.Errorf("reconcile = %q, want [%q]", errs, want)
	}
}
