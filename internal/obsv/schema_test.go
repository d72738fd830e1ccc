package obsv

import (
	"reflect"
	"strconv"
	"testing"
)

type testStats struct {
	Hits, Misses int64
	Peak         int
	Open         bool
}

var testTable = Table[testStats]{
	{Name: "t.hits", Get: func(s *testStats) int64 { return s.Hits }, Span: SpanCrash},
	{Name: "t.misses", Get: func(s *testStats) int64 { return s.Misses }, Span: SpanCrash},
	{Name: "t.peak", Gauge: true, Get: func(s *testStats) int64 { return int64(s.Peak) }},
	{Name: "t.open", Get: func(s *testStats) int64 { return Flag(s.Open) }},
}

// TestTablePublishSumReconcile drives one table through all three loops:
// two label sets publish into one registry, the snapshots sum into
// Totals, and both reconcile — against the registry and against a span
// log whose crash count is the sum of the two rows declaring it.
func TestTablePublishSumReconcile(t *testing.T) {
	a := testStats{Hits: 2, Misses: 1, Peak: 5, Open: true}
	b := testStats{Hits: 3, Peak: 7}
	reg := NewRegistry()
	var tot Totals
	for i, s := range []testStats{a, b} {
		testTable.Publish(reg, &s, L("replica", strconv.Itoa(i+1)))
		testTable.AddTo(&tot, &s)
	}
	want := Totals{
		{Name: "t.hits", Span: SpanCrash, Value: 5},
		{Name: "t.misses", Span: SpanCrash, Value: 1},
		{Name: "t.peak", Value: 12},
		{Name: "t.open", Value: 1},
	}
	if !reflect.DeepEqual(tot, want) {
		t.Fatalf("totals = %+v, want %+v", tot, want)
	}
	if errs := tot.CheckMetrics(reg); len(errs) != 0 {
		t.Errorf("metrics: %v", errs)
	}
	spans := make([]SpanEvent, 6)
	for i := range spans {
		spans[i].Kind = SpanCrash
	}
	if errs := tot.CheckSpans(spans); len(errs) != 0 {
		t.Errorf("spans: %v", errs)
	}

	// A gauge keeps its peak across publishes under one label set.
	testTable.Publish(reg, &testStats{Peak: 1}, L("replica", "1"))
	if got := reg.Total("t.peak"); got != 12 {
		t.Errorf("t.peak = %d after a lower publish, want 12", got)
	}

	// Drift on either surface is reported by name.
	reg.Counter("t.misses").Inc()
	if errs := tot.CheckMetrics(reg); !reflect.DeepEqual(errs, []string{"t.misses: metric 2 != stat 1"}) {
		t.Errorf("metric drift: %v", errs)
	}
	if errs := tot.CheckSpans(spans[:5]); !reflect.DeepEqual(errs, []string{"span crash: count 5 != stat 6"}) {
		t.Errorf("span drift: %v", errs)
	}
	if got := tot.Get("t.hits"); got != 5 {
		t.Errorf("Get(t.hits) = %d", got)
	}
}

// TestCausalityDomainRulesPerReplica: the heap-domain ordering rules
// track each fleet replica's thread 0 separately, so one replica's crash
// legitimizes only its own discard.
func TestCausalityDomainRulesPerReplica(t *testing.T) {
	spans := []SpanEvent{
		{Replica: 1, Kind: SpanBegin},
		{Replica: 2, Kind: SpanBegin},
		{Replica: 1, Kind: SpanCrash},
		{Replica: 2, Kind: SpanCommit},
		{Replica: 1, Kind: SpanDomainDiscard, Detail: "dom=0"},
		{Replica: 2, Kind: SpanDomainDiscard, Detail: "dom=0"},
	}
	errs := CheckCausality(spans)
	want := []string{`line 6: domain-discard after "commit", want crash`}
	if !reflect.DeepEqual(errs, want) {
		t.Errorf("errors = %q, want %q", errs, want)
	}
}

func TestRecoveryKind(t *testing.T) {
	for _, k := range []string{SpanCrash, SpanShed, SpanLatchDomains, SpanDomainDiscard, SpanDomainViolation} {
		if !RecoveryKind(k) {
			t.Errorf("%s is recovery machinery", k)
		}
	}
	for _, k := range []string{SpanBegin, SpanCommit, SpanReqStart, SpanDomainSwitch, SpanReboot} {
		if RecoveryKind(k) {
			t.Errorf("%s is not recovery machinery", k)
		}
	}
}
