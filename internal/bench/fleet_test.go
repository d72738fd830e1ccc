package bench

import (
	"strings"
	"testing"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/faultinj"
	"github.com/firestarter-go/firestarter/internal/obsv"
)

// The experiment-global span log (rebased across campaigns) must stay
// causally valid: exactly one terminal per started trace, no orphaned
// trace references, no silent request drops.
func TestFleetGlobalSpanLogIsCausal(t *testing.T) {
	r := Runner{Requests: 30, Concurrency: 2, Seed: 5}
	res, err := r.Fleet(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if errs := obsv.CheckCausality(res.Spans); len(errs) > 0 {
		t.Fatalf("global span log causality:\n  %s", strings.Join(errs, "\n  "))
	}
	if len(res.Rows) != 2 || res.Rows[0].Replicas != 1 || res.Rows[1].Replicas != 2 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	for _, row := range res.Rows {
		if row.Campaigns == 0 || row.Completed == 0 || row.Goodput <= 0 {
			t.Errorf("degenerate row: %+v", row)
		}
	}
	if res.Traces == 0 {
		t.Error("no traced requests")
	}
	// Every campaign booted at least its replica count once.
	if res.Rows[1].Boots < 2*res.Rows[1].Campaigns {
		t.Errorf("2-replica row booted %d times across %d campaigns",
			res.Rows[1].Boots, res.Rows[1].Campaigns)
	}
}

// TestFleetReconcileChecksShedConnsLost is the regression test for a
// counter the fleet harvested from every replica runtime but never
// reconciled: a published core.shed_conns_lost that disagrees with the
// harvested stats must now be reported.
func TestFleetReconcileChecksShedConnsLost(t *testing.T) {
	r := Runner{Requests: 20, Concurrency: 2, Seed: 3}.withDefaults()
	app := apps.Nginx()
	faults, err := r.planFaults(app, faultinj.FailStop, 1)
	if err != nil || len(faults) == 0 {
		t.Fatalf("plan: %v (%d faults)", err, len(faults))
	}
	fr, err := r.fleetRun(app, &faults[0], 1, r.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if errs := fr.reconcile(); len(errs) > 0 {
		t.Fatalf("clean campaign did not reconcile:\n  %s", strings.Join(errs, "\n  "))
	}
	fr.Registry.Counter("core.shed_conns_lost", obsv.L("replica", "1")).Inc()
	errs := fr.reconcile()
	if !strings.Contains(strings.Join(errs, "\n"), "core.shed_conns_lost") {
		t.Errorf("corrupted core.shed_conns_lost not reported: %v", errs)
	}
}
