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
		spans: &obsv.SpanLog{},
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

// TestEmitPastCapBuildsNothing: once the span log is full, an emitted
// span is only counted as dropped: nothing is built or allocated, and
// the truncated marker reports every drop when the log is read.
func TestEmitPastCapBuildsNothing(t *testing.T) {
	rt := &Runtime{
		sites: map[int]*analysis.Site{1: {ID: 1, Name: "malloc"}},
		spans: &obsv.SpanLog{Limit: 2},
	}
	rt.EnableSpans()
	for i := 0; i < 3; i++ {
		rt.emitSpanTrace(obsv.SpanBegin, 1, 0, "htm", "", "")
	}
	allocs := testing.AllocsPerRun(100, func() {
		rt.emitSpanTrace(obsv.SpanCrash, 1, 5, "htm", "segv", "")
	})
	if allocs != 0 {
		t.Errorf("emit past the cap: %v allocs, want 0", allocs)
	}
	// One drop while filling, one warm-up run, 100 measured runs.
	if got := rt.TraceDropped(); got != 102 {
		t.Fatalf("TraceDropped = %d, want 102", got)
	}
	spans := rt.Spans()
	if last := spans[len(spans)-1]; last.Kind != obsv.SpanTruncated || last.Detail != "dropped=102 limit=2" {
		t.Errorf("marker = %+v", last)
	}
}
