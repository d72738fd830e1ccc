package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"github.com/firestarter-go/firestarter/internal/obsv"
)

func loadSpans(t *testing.T, path string) *report {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := obsv.ReadSpans(f)
	if err != nil {
		t.Fatal(err)
	}
	return analyze(spans)
}

func TestAnalyzeSample(t *testing.T) {
	rep := loadSpans(t, "testdata/sample.jsonl")
	if len(rep.Requests) != 4 {
		t.Fatalf("requests = %d, want 4", len(rep.Requests))
	}
	want := []struct {
		trace   int64
		outcome string
		rung    string
		latency int64
	}{
		{1, outDoneOK, "clean", 100},
		{2, outDoneBad, "injected", 400},
		{3, outLost, "shed", 160},
		{4, outDoneOK, "clean", 100},
	}
	for i, w := range want {
		r := rep.Requests[i]
		if r.Trace != w.trace || r.Outcome != w.outcome || r.Rung != w.rung || r.Latency() != w.latency {
			t.Errorf("request %d = {trace %d %s rung=%s lat=%d}, want %+v",
				i, r.Trace, r.Outcome, r.Rung, r.Latency(), w)
		}
	}
	if len(rep.Orphans) != 0 {
		t.Errorf("orphans = %v", rep.Orphans)
	}
	if errs := rep.violations(); len(errs) != 0 {
		t.Errorf("violations on clean trace: %v", errs)
	}

	sum := rep.summary("testdata/sample.jsonl")
	for _, w := range []string{
		"18 spans, 4 requests",
		"done-ok=2 done-bad=1 lost=1 unterminated=0; orphaned trace refs: 0",
		"clean=2 aborted=0 recovered=0 injected=1 shed=1",
	} {
		if !strings.Contains(sum, w) {
			t.Errorf("summary missing %q:\n%s", w, sum)
		}
	}
}

func TestBreakdownCycleAccounting(t *testing.T) {
	rep := loadSpans(t, "testdata/sample.jsonl")
	b := rep.breakdown()
	// begin@110→commit@150 = 40 committed; begin@310→crash@400 plus
	// begin@820→crash@900 = 170 aborted; recovered latency=50; reboot
	// backoff=5000.
	for _, w := range []string{
		"tx-committed             40        1",
		"tx-aborted              170        2",
		"rollback                 50        1",
		"reboot-wait            5000        1",
	} {
		if !strings.Contains(b, w) {
			t.Errorf("breakdown missing %q:\n%s", w, b)
		}
	}
	// Lost requests stay out of the latency table: only the two done-ok
	// (100 cycles each) and the injected done-bad (400) are ranked.
	if !strings.Contains(b, "all-done         3") {
		t.Errorf("all-done row wrong:\n%s", b)
	}
	// The offered column counts lost requests too: the shed rung renders
	// with 0 completions but 1 offered, and all-done offers all 4.
	for _, w := range []string{
		"shed             0        1",
		"all-done         3        4",
	} {
		if !strings.Contains(b, w) {
			t.Errorf("offered column missing %q:\n%s", w, b)
		}
	}
}

// Fleet traces carry replica/incarnation stamps; the breakdown grows a
// per-replica attribution table and the timeline annotates stamped
// spans. Unstamped traces (the other fixtures) must render unchanged —
// TestBreakdownCycleAccounting and TestTimelineDeterministic cover that
// by never mentioning replicas.
func TestFleetReplicaAttribution(t *testing.T) {
	rep := loadSpans(t, "testdata/fleet.jsonl")
	if len(rep.Requests) != 4 {
		t.Fatalf("requests = %d, want 4", len(rep.Requests))
	}
	// Serving replica comes from the req-start span: traces 1, 2 and 4
	// start on replica 1 (trace 4 on its second incarnation), trace 3 on
	// replica 2. The failover hand-off does not move trace 2's
	// attribution — it started on replica 1.
	for i, want := range []int{1, 1, 2, 1} {
		if rep.Requests[i].Replica != want {
			t.Errorf("request %d replica = %d, want %d", i, rep.Requests[i].Replica, want)
		}
	}

	b := rep.breakdown()
	if !strings.Contains(b, "Requests by serving replica") {
		t.Fatalf("breakdown missing replica table:\n%s", b)
	}
	// Replica 1 started 3 requests, all done-ok; replica 2 started one
	// (lost) and absorbed both hand-offs (the traced failover and the
	// untraced drain migration).
	for _, w := range []string{
		"1               3        3      0         0",
		"2               1        0      1         2",
	} {
		if !strings.Contains(b, w) {
			t.Errorf("replica table missing %q:\n%s", w, b)
		}
	}

	tl := rep.timeline(4)
	for _, w := range []string{
		"trace 2: 300 cycles, done-ok, rung=recovered, replica=1",
		"handoff replica=2 inc=1 cause=failover",
		"req-start replica=1 inc=2",
	} {
		if !strings.Contains(tl, w) {
			t.Errorf("timeline missing %q:\n%s", w, tl)
		}
	}

	// The fixture is causally clean: every started trace terminates once.
	if errs := rep.violations(); len(errs) != 0 {
		t.Errorf("violations on fleet fixture: %v", errs)
	}

	// A replica-free trace must not grow the table.
	plain := loadSpans(t, "testdata/sample.jsonl")
	if strings.Contains(plain.breakdown(), "Requests by serving replica") {
		t.Error("replica table rendered for an unstamped trace")
	}
}

// TestViolations pins -strict to the full shared rule set, in the
// canonical wording obsvlint -causality prints: the request-chain rules
// plus the heap-domain ordering rules.
func TestViolations(t *testing.T) {
	rep := loadSpans(t, "testdata/violations.jsonl")
	errs := rep.violations()
	joined := strings.Join(errs, "\n")
	wants := []string{
		`line 10: domain-discard after "commit", want crash`,
		"line 12: domain-discard of dom 2 with no prior domain-switch",
		`line 14: domain-violation (line 13) followed by "retry", want crash/shed/unrecovered`,
		"line 15: domain-violation with no following span",
		"trace 10: 0 terminal spans, want 1",
		"trace 12: 2 terminal spans, want 1",
		"trace 13: req-done without req-start",
		"trace 11: orphaned trace reference (no req-start)",
	}
	if joined != strings.Join(wants, "\n") {
		t.Errorf("violations:\n%s\nwant:\n%s", joined, strings.Join(wants, "\n"))
	}
	// The summary still counts the orphan the same way.
	if sum := rep.summary("v"); !strings.Contains(sum, "orphaned trace refs: 1") {
		t.Errorf("summary:\n%s", sum)
	}
}

func TestTimelineDeterministic(t *testing.T) {
	rep := loadSpans(t, "testdata/sample.jsonl")
	tl := rep.timeline(2)
	if !strings.Contains(tl, "Slowest 2 terminated requests:") {
		t.Fatalf("timeline header wrong:\n%s", tl)
	}
	// Slowest first: trace 2 (400 cycles), then trace 3 (160).
	i2, i3 := strings.Index(tl, "trace 2:"), strings.Index(tl, "trace 3:")
	if i2 < 0 || i3 < 0 || i2 > i3 {
		t.Errorf("timeline order wrong:\n%s", tl)
	}
	if tl != rep.timeline(2) {
		t.Error("timeline not deterministic")
	}
}

// TestTimelineRendersDomainEvents covers the rewind-and-discard span
// kinds: a request whose crash transaction ran under the domain variant
// must render its switch, violation (with the trapping address) and O(1)
// discard inline in the timeline, attribute to the recovered rung, and
// pass -strict.
func TestTimelineRendersDomainEvents(t *testing.T) {
	rep := loadSpans(t, "testdata/domains.jsonl")
	if len(rep.Requests) != 1 {
		t.Fatalf("requests = %d, want 1", len(rep.Requests))
	}
	r := rep.Requests[0]
	if r.Outcome != outDoneOK || r.Rung != "recovered" {
		t.Fatalf("request = %s rung=%s, want done-ok/recovered", r.Outcome, r.Rung)
	}
	if errs := rep.violations(); len(errs) != 0 {
		t.Fatalf("strict violations on domain trace: %v", errs)
	}
	tl := rep.timeline(1)
	for _, w := range []string{
		"domain-switch dom=3",
		"domain-violation addr=0x60000040 dom=3",
		"crash call=arena_alloc variant=domain cause=domain-violation",
		"domain-discard variant=domain dom=3 mark=64",
	} {
		if !strings.Contains(tl, w) {
			t.Errorf("timeline missing %q:\n%s", w, tl)
		}
	}
}

func TestWriteChromeIsValidJSON(t *testing.T) {
	rep := loadSpans(t, "testdata/sample.jsonl")
	var buf bytes.Buffer
	if err := rep.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome output is not JSON: %v\n%s", err, buf.String())
	}
	var slices, instants, requests int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "X":
			if e["cat"] == "request" {
				requests++
			} else {
				slices++
			}
		case "i":
			instants++
		}
	}
	// 3 tx slices (commit + two crashes), 4 terminated requests, and
	// instants for crash/recovered/inject/shed/reboot events.
	if slices != 3 || requests != 4 || instants == 0 {
		t.Errorf("chrome events: %d tx slices, %d requests, %d instants\n%s",
			slices, requests, instants, buf.String())
	}
	var again bytes.Buffer
	if err := rep.writeChrome(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("chrome export not deterministic")
	}
}

func TestWriteFolded(t *testing.T) {
	pf, err := os.Open("testdata/profile.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	var buf bytes.Buffer
	if err := writeFolded(&buf, pf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "serve_request 400\nlib:memcpy 500\n"
	if got != want {
		t.Errorf("folded = %q, want %q", got, want)
	}
}
