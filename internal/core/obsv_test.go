package core_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"github.com/firestarter-go/firestarter/internal/core"
	"github.com/firestarter-go/firestarter/internal/obsv"
)

// TestSpansRecordTransactionLifecycle checks the structured span log: with
// EnableSpans every transaction contributes a begin and a commit event,
// abort events carry their cause, and the JSONL export parses.
func TestSpansRecordTransactionLifecycle(t *testing.T) {
	src := `
int main() {
	char *p = malloc(64);
	if (!p) { return 1; }
	memset(p, 7, 64);
	free(p);
	return 0;
}`
	h := newHarness(t, src, core.Config{})
	h.rt.EnableSpans()
	h.runToExit(t, 0)

	spans := h.rt.Spans()
	var begins, commits int
	for _, e := range spans {
		switch e.Kind {
		case obsv.SpanBegin:
			begins++
			if e.Variant == "" {
				t.Errorf("begin span without variant: %+v", e)
			}
		case obsv.SpanCommit:
			commits++
		}
	}
	st := h.rt.Stats()
	wantBegins := st.HTMBegins + st.STMBegins
	if int64(begins) != wantBegins {
		t.Errorf("begin spans = %d, want %d (HTM %d + STM %d)",
			begins, wantBegins, st.HTMBegins, st.STMBegins)
	}
	wantCommits := st.HTMCommits + st.STMCommits
	if int64(commits) != wantCommits {
		t.Errorf("commit spans = %d, want %d", commits, wantCommits)
	}

	var buf bytes.Buffer
	if err := h.rt.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(spans) {
		t.Fatalf("JSONL lines = %d, spans = %d", len(lines), len(spans))
	}
	var lastCycles int64 = -1
	for _, line := range lines {
		var e obsv.SpanEvent
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("invalid span JSONL %q: %v", line, err)
		}
		if e.Cycles < lastCycles {
			t.Fatalf("span cycles went backwards: %q", line)
		}
		lastCycles = e.Cycles
	}
}

// TestSpanAbortsCarryCause checks that abort span events name the abort
// cause (capacity/interrupt/conflict/explicit).
func TestSpanAbortsCarryCause(t *testing.T) {
	h := newHarness(t, core.CrashStormSrc, core.Config{})
	h.rt.EnableSpans()
	h.runToExit(t, 20)
	found := false
	for _, e := range h.rt.Spans() {
		if e.Kind == obsv.SpanAbort {
			found = true
			if e.Cause == "" {
				t.Fatalf("abort span without cause: %+v", e)
			}
		}
	}
	if !found {
		t.Fatal("crash storm recorded no abort spans")
	}
}

// TestPublishMetricsReconciles runs a crashy workload and checks the
// tentpole's reconciliation criterion: registry totals must equal the
// hand-rolled core.Stats / htm.Stats counters exactly.
func TestPublishMetricsReconciles(t *testing.T) {
	h := newHarness(t, core.CrashStormSrc, core.Config{})
	h.runToExit(t, 20)

	reg := obsv.NewRegistry()
	h.rt.PublishMetrics(reg, obsv.L("thread", "0"))

	st := h.rt.Stats()
	hs := h.rt.HTMStats()
	ss := h.rt.STMStats()
	checks := []struct {
		name string
		want int64
	}{
		{"core.gate_execs", st.GateExecs},
		{"core.htm_begins", st.HTMBegins},
		{"core.stm_begins", st.STMBegins},
		{"core.stm_commits", st.STMCommits},
		{"core.htm_aborts", st.HTMAborts},
		{"core.crashes", st.Crashes},
		{"core.retries", st.Retries},
		{"core.injections", st.Injections},
		{"core.unrecovered", st.Unrecovered},
		{"htm.begins", hs.Begins},
		{"htm.aborts", hs.Aborts},
		{"htm.aborts_explicit", hs.ByExplcit},
		{"stm.begins", ss.Begins},
		{"stm.rollbacks", ss.Rollbacks},
		{"core.sites_gate", int64(len(st.GateSites))},
	}
	for _, c := range checks {
		if got := reg.Total(c.name); got != c.want {
			t.Errorf("registry %s = %d, want %d", c.name, got, c.want)
		}
	}
	if st.Crashes == 0 || st.Injections == 0 {
		t.Fatalf("workload not crashy enough to validate reconciliation: %+v", st)
	}
	// The latency histogram holds one sample per recovery.
	lat := reg.Histogram("core.recovery_latency_cycles", obsv.CycleBuckets, obsv.L("thread", "0"))
	if lat.Count != int64(len(st.LatencyCycles)) {
		t.Errorf("latency histogram count = %d, want %d samples", lat.Count, len(st.LatencyCycles))
	}
	var latSum int64
	for _, v := range st.LatencyCycles {
		latSum += v
	}
	if lat.Sum != latSum {
		t.Errorf("latency histogram sum = %d, want %d", lat.Sum, latSum)
	}
	// JSONL export parses line by line.
	var buf bytes.Buffer
	if err := reg.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("invalid metrics JSONL %q: %v", line, err)
		}
	}
}

// TestProfilerAttributionSumsToMachineTotal attaches the guest profiler
// to a recovery-heavy run: snapshot restores, library calls and injected
// faults included, the per-function flat cycle attribution must sum to
// the machine's total charged cycles exactly.
func TestProfilerAttributionSumsToMachineTotal(t *testing.T) {
	h := newHarness(t, core.CrashStormSrc, core.Config{})
	prof := obsv.NewProfile()
	h.m.SetProfiler(prof)
	h.runToExit(t, 20)
	prof.Finish(h.m.Cycles, h.m.Steps)

	if got := prof.TotalCycles(); got != h.m.Cycles {
		t.Fatalf("profiler total = %d cycles, machine charged %d", got, h.m.Cycles)
	}
	if got := prof.TotalSteps(); got != h.m.Steps {
		t.Fatalf("profiler steps = %d, machine retired %d", got, h.m.Steps)
	}
	var flatCycles, flatSteps int64
	sawMain, sawLib := false, false
	for _, f := range prof.Funcs() {
		flatCycles += f.FlatCycles
		flatSteps += f.FlatSteps
		if f.Name == "main" && !f.Lib {
			sawMain = true
		}
		if f.Lib && f.Name == "malloc" {
			sawLib = true
		}
	}
	if flatCycles != h.m.Cycles {
		t.Errorf("flat cycle sum = %d, want %d", flatCycles, h.m.Cycles)
	}
	if flatSteps != h.m.Steps {
		t.Errorf("flat step sum = %d, want %d", flatSteps, h.m.Steps)
	}
	if !sawMain || !sawLib {
		t.Errorf("profile missing expected rows (main=%v lib:malloc=%v):\n%s",
			sawMain, sawLib, prof.RenderTop(10))
	}
	// Library-site attribution is a partition of the library buckets.
	var siteCycles, libCycles int64
	for _, s := range prof.Sites() {
		siteCycles += s.Cycles
	}
	for _, f := range prof.Funcs() {
		if f.Lib {
			libCycles += f.FlatCycles
		}
	}
	if siteCycles != libCycles {
		t.Errorf("site cycles %d != library bucket cycles %d", siteCycles, libCycles)
	}
}

// TestSchemaCoversEveryCounter keeps the accounting schema the single
// declaration of each counter: every int64 field of Stats, arena
// accounting included, is read by exactly one row of Metrics or
// DomainMetrics. Arena.Slabs is the one exception, a level gauge
// published beside the tables.
func TestSchemaCoversEveryCounter(t *testing.T) {
	rows := append(append(obsv.Table[core.Stats]{}, core.Metrics...), core.DomainMetrics...)
	check := func(name string, index []int) {
		var s core.Stats
		reflect.ValueOf(&s).Elem().FieldByIndex(index).SetInt(7919)
		var readers []string
		for _, r := range rows {
			if r.Get(&s) == 7919 {
				readers = append(readers, r.Name)
			}
		}
		if len(readers) != 1 {
			t.Errorf("Stats.%s is read by rows %v, want exactly one", name, readers)
		}
	}
	typ := reflect.TypeOf(core.Stats{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch {
		case f.Type.Kind() == reflect.Int64:
			check(f.Name, f.Index)
		case f.Name == "Arena":
			for j := 0; j < f.Type.NumField(); j++ {
				if g := f.Type.Field(j); g.Name != "Slabs" {
					check("Arena."+g.Name, []int{i, j})
				}
			}
		}
	}
}
