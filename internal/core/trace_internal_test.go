package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/firestarter-go/firestarter/internal/analysis"
	"github.com/firestarter-go/firestarter/internal/interp"
	"github.com/firestarter-go/firestarter/internal/obsv"
)

// TestStatsSnapshotDoesNotAliasSiteMaps is the regression test for the
// snapshot-aliasing bug: Stats() deep-copied the sample slices but
// returned the live GateSites/EmbedSites/BreakSites maps, so snapshots
// mutated under the caller as the runtime kept executing.
func TestStatsSnapshotDoesNotAliasSiteMaps(t *testing.T) {
	rt := &Runtime{
		sites: []*analysis.Site{nil,
			{ID: 1, Role: analysis.RoleGate}, {ID: 2, Role: analysis.RoleEmbed}, {ID: 3, Role: analysis.RoleBreak},
			{ID: 4, Role: analysis.RoleGate}, {ID: 5, Role: analysis.RoleEmbed}, {ID: 6, Role: analysis.RoleBreak},
		},
		executed: newSiteSet(7),
	}
	for id := 1; id <= 3; id++ {
		rt.executed.add(id)
	}

	snap := rt.Stats()

	// The runtime keeps executing after the snapshot.
	for id := 4; id <= 6; id++ {
		rt.executed.add(id)
	}

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
	delete(snap.GateSites, 1)
	if again := rt.Stats(); again.EmbedSites[99] || !again.GateSites[1] || len(again.GateSites) != 2 {
		t.Errorf("mutating the snapshot wrote through to the runtime: %+v", again)
	}
}

// TestEmitResolvesNonGateSiteNames is the regression test for the trace
// call-name bug: emit resolved the Call field only through the gate
// sites, so events at embed/break sites rendered with an empty call=.
func TestEmitResolvesNonGateSiteNames(t *testing.T) {
	rt := &Runtime{
		sites: []*analysis.Site{nil,
			{ID: 1, Name: "malloc", Role: analysis.RoleGate},
			{ID: 2, Name: "memcpy", Role: analysis.RoleEmbed},
			{ID: 3, Name: "write", Role: analysis.RoleBreak},
		},
		spans: &obsv.SpanLog{},
	}
	rt.EnableTrace()
	rt.emitSpan(obsv.SpanCrash, 2, "", "", spanDetail{})
	rt.emitSpan(obsv.SpanUnrecovered, 3, "", "", spanDetail{})
	rt.emitSpan(obsv.SpanInject, 1, "", "", spanDetail{})

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
		sites: []*analysis.Site{nil, {ID: 1, Name: "malloc"}},
		spans: &obsv.SpanLog{Limit: 2},
	}
	rt.EnableSpans()
	for i := 0; i < 3; i++ {
		rt.emitSpanTrace(obsv.SpanBegin, 1, 0, "htm", "", spanDetail{})
	}
	allocs := testing.AllocsPerRun(100, func() {
		rt.emitSpanTrace(obsv.SpanCrash, 1, 5, "htm", "segv", spanDetail{})
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

// TestRecoverySpansPastCapFormatNothing: the inject, retry, recovered,
// latch and shed spans carry a formatted Detail. A kept span renders it
// exactly as the emitting call site formats it; once the span log is
// full, emitting any of them formats and allocates nothing, and the log
// reads back — bytes, truncated marker and fingerprint — exactly like a
// log into which each span was built and then refused by Append.
func TestRecoverySpansPastCapFormatNothing(t *testing.T) {
	rt, m := newLadderRuntime(t, Config{})
	rt.spans.Limit = 6
	rt.EnableSpans()
	site := gateSite(t, rt)
	entry := rt.gate(site).Entry
	kinds := []struct {
		kind, detail string
		emit         func()
	}{
		{obsv.SpanInject, fmt.Sprintf("ret=%d errno=%d", entry.ErrorReturn, entry.Errno),
			func() { rt.inject(m, site) }},
		{obsv.SpanRetry, "attempt=1",
			func() { rt.emitSpan(obsv.SpanRetry, site, "", "", detailf("attempt=%d", 1)) }},
		{obsv.SpanRecovered, "latency=2150",
			func() { rt.emitSpan(obsv.SpanRecovered, site, "", "", detailf("latency=%d", 2150)) }},
		{obsv.SpanLatchSTM, "fallbacks=4 undo_min=48",
			func() {
				rt.emitSpan(obsv.SpanLatchSTM, site, "", "backoff", detailf("fallbacks=%d undo_min=%d", 4, 48))
			}},
		{obsv.SpanLatchDomains, "undo_mean=30 min=24",
			func() { rt.emitSpan(obsv.SpanLatchDomains, site, "", "", detailf("undo_mean=%d min=%d", 30, 24)) }},
		{obsv.SpanShed, "fd=-1 sheds=1",
			func() { rt.emitSpanTrace(obsv.SpanShed, site, 0, "", "reason", detailf("fd=%d sheds=%d", -1, 1)) }},
	}
	for _, k := range kinds {
		k.emit()
	}
	ref := &obsv.SpanLog{Limit: 6}
	for i, e := range rt.Spans() {
		if e.Kind != kinds[i].kind || e.Detail != kinds[i].detail || e.Call != "malloc" {
			t.Errorf("kept span %d = %+v, want kind %s detail %q call malloc", i, e, kinds[i].kind, kinds[i].detail)
		}
		ref.Append(e)
	}

	for _, k := range kinds {
		if allocs := testing.AllocsPerRun(10, k.emit); allocs != 0 {
			t.Errorf("%s past the cap: %v allocs, want 0", k.kind, allocs)
		}
		for i := 0; i < 11; i++ { // one warm-up run, ten measured
			ref.Append(obsv.SpanEvent{Cycles: m.Cycles, Kind: k.kind, Site: site, Call: "malloc", Detail: k.detail})
		}
	}
	var got, want bytes.Buffer
	if err := rt.WriteTrace(&got); err != nil {
		t.Fatal(err)
	}
	if err := ref.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("span log bytes:\n%s\nwant\n%s", got.String(), want.String())
	}
	if !strings.Contains(got.String(), `"detail":"dropped=66 limit=6"`) {
		t.Errorf("truncated marker missing its drop count:\n%s", got.String())
	}
	if rt.SpanFingerprint() != ref.Fingerprint() {
		t.Errorf("fingerprint = %#x, want %#x", rt.SpanFingerprint(), ref.Fingerprint())
	}
}

// CrashStormSrc crashes once per loop iteration: every malloc is followed
// by a persistent null dereference, so each pass runs the full recovery
// story (HTM abort, STM crash, retry, crash, inject) until the injected
// ENOMEM diverts into the handled branch.
const CrashStormSrc = `
int main() {
	int handled = 0;
	for (int i = 0; i < 20; i++) {
		char *p = malloc(64);
		if (!p) {
			handled++;
			continue;
		}
		int *q = NULL;
		*q = 1;
		free(p);
	}
	return handled;
}`

// TestTraceTruncationIsSurfaced drives a crash storm past a tiny trace
// cap: the trace must end with a terminal truncated marker carrying the
// dropped count instead of losing events silently (the old behaviour).
func TestTraceTruncationIsSurfaced(t *testing.T) {
	rt, m := newRuntime(t, CrashStormSrc, Config{})
	rt.spans.Limit = 8
	rt.EnableTrace()
	if out := m.Run(20_000_000); out.Kind != interp.OutExited || m.ExitCode() != 20 {
		t.Fatalf("outcome = %v (trap %+v, exit %d), want exit 20", out.Kind, out.Trap, m.ExitCode())
	}

	if rt.TraceDropped() == 0 {
		t.Fatal("crash storm did not overflow the trace; raise the storm or lower the cap")
	}
	events := rt.Spans()
	if len(events) != 8+1 {
		t.Fatalf("got %d events, want cap 8 + 1 marker", len(events))
	}
	last := events[len(events)-1]
	if last.Kind != obsv.SpanTruncated {
		t.Fatalf("last event = %v, want truncated marker", last)
	}
	if !strings.Contains(last.Detail, "dropped=") || !strings.Contains(last.Detail, "limit=8") {
		t.Errorf("marker detail = %q, want dropped count and limit", last.Detail)
	}
	rendered := rt.RenderTrace()
	if !strings.Contains(rendered, "truncated") || !strings.Contains(rendered, "dropped=") {
		t.Errorf("RenderTrace does not surface truncation:\n%s", rendered)
	}
	if strings.Count(rendered, "\n") != len(events) {
		t.Errorf("rendered %d lines for %d events", strings.Count(rendered, "\n"), len(events))
	}
}
