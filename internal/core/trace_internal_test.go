package core

import (
	"testing"

	"github.com/firestarter-go/firestarter/internal/analysis"
	"github.com/firestarter-go/firestarter/internal/obsv"
)

// TestStatsSnapshotDoesNotAliasSiteMaps is the regression test for the
// snapshot-aliasing bug: Stats() deep-copied the sample slices but
// returned the live GateSites/EmbedSites/BreakSites maps, so snapshots
// mutated under the caller as the runtime kept executing.
func TestStatsSnapshotDoesNotAliasSiteMaps(t *testing.T) {
	rt := &Runtime{}
	rt.stats.GateSites = map[int]bool{1: true}
	rt.stats.EmbedSites = map[int]bool{2: true}
	rt.stats.BreakSites = map[int]bool{3: true}

	snap := rt.Stats()

	// The runtime keeps executing after the snapshot.
	rt.stats.GateSites[10] = true
	rt.stats.EmbedSites[20] = true
	rt.stats.BreakSites[30] = true
	delete(rt.stats.GateSites, 1)

	if len(snap.GateSites) != 1 || !snap.GateSites[1] {
		t.Errorf("snapshot GateSites mutated: %v", snap.GateSites)
	}
	if len(snap.EmbedSites) != 1 || !snap.EmbedSites[2] {
		t.Errorf("snapshot EmbedSites mutated: %v", snap.EmbedSites)
	}
	if len(snap.BreakSites) != 1 || !snap.BreakSites[3] {
		t.Errorf("snapshot BreakSites mutated: %v", snap.BreakSites)
	}
	// And mutating the snapshot must not leak back.
	snap.EmbedSites[99] = true
	if rt.stats.EmbedSites[99] {
		t.Error("mutating the snapshot wrote through to the runtime")
	}
}

// TestEmitResolvesNonGateSiteNames is the regression test for the trace
// call-name bug: emit resolved the Call field only through rt.gates, so
// events at embed/break sites rendered with an empty call=.
func TestEmitResolvesNonGateSiteNames(t *testing.T) {
	rt := &Runtime{
		gates: map[int]*analysis.Site{
			1: {ID: 1, Name: "malloc"},
		},
		sites: map[int]*analysis.Site{
			1: {ID: 1, Name: "malloc"},
			2: {ID: 2, Name: "memcpy", Role: analysis.RoleEmbed},
			3: {ID: 3, Name: "write", Role: analysis.RoleBreak},
		},
	}
	rt.EnableTrace()
	rt.emitSpan(obsv.SpanCrash, 2, "", "", "")
	rt.emitSpan(obsv.SpanUnrecovered, 3, "", "", "")
	rt.emitSpan(obsv.SpanInject, 1, "", "", "")

	events := rt.Spans()
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	want := []string{"memcpy", "write", "malloc"}
	for i, e := range events {
		if e.Call != want[i] {
			t.Errorf("event %d (site %d) call = %q, want %q", i, e.Site, e.Call, want[i])
		}
	}
}
