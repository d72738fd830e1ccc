package core

import (
	"github.com/firestarter-go/firestarter/internal/analysis"
	"github.com/firestarter-go/firestarter/internal/htm"
	"github.com/firestarter-go/firestarter/internal/obsv"
	"github.com/firestarter-go/firestarter/internal/stm"
)

// Metrics is the runtime's accounting schema: every Stats counter the
// registry carries, with the span kind whose count mirrors it.
var Metrics = obsv.Table[Stats]{
	{Name: "core.gate_execs", Get: func(s *Stats) int64 { return s.GateExecs }},
	{Name: "core.htm_begins", Get: func(s *Stats) int64 { return s.HTMBegins }, Span: obsv.SpanBegin},
	{Name: "core.htm_commits", Get: func(s *Stats) int64 { return s.HTMCommits }, Span: obsv.SpanCommit},
	{Name: "core.stm_begins", Get: func(s *Stats) int64 { return s.STMBegins }, Span: obsv.SpanBegin},
	{Name: "core.stm_commits", Get: func(s *Stats) int64 { return s.STMCommits }, Span: obsv.SpanCommit},
	{Name: "core.unprotected", Get: func(s *Stats) int64 { return s.Unprotected }},
	{Name: "core.htm_aborts", Get: func(s *Stats) int64 { return s.HTMAborts }},
	{Name: "core.crashes", Get: func(s *Stats) int64 { return s.Crashes }},
	{Name: "core.retries", Get: func(s *Stats) int64 { return s.Retries }},
	{Name: "core.injections", Get: func(s *Stats) int64 { return s.Injections }},
	{Name: "core.unrecovered", Get: func(s *Stats) int64 { return s.Unrecovered }, Span: obsv.SpanUnrecovered},
	{Name: "core.deferred_runs", Get: func(s *Stats) int64 { return s.DeferredRuns }},
	{Name: "core.sheds", Get: func(s *Stats) int64 { return s.Sheds }, Span: obsv.SpanShed},
	{Name: "core.shed_conns_lost", Get: func(s *Stats) int64 { return s.ShedConnsLost }},
	{Name: "core.req_starts", Get: func(s *Stats) int64 { return s.ReqStarts }, Span: obsv.SpanReqStart},
	{Name: "core.req_done", Get: func(s *Stats) int64 { return s.ReqsDone }, Span: obsv.SpanReqDone},
	{Name: "core.req_lost", Get: func(s *Stats) int64 { return s.ReqsLost }, Span: obsv.SpanReqLost},
}

// DomainMetrics is the heap-domain half of the schema: the
// rewind-and-discard counters and libsim's arena counters. They are
// published only under Config.EnableDomains, so a domains-off run
// exports byte-identical metrics to a build without the feature; with
// domains off every value is zero, so summing and reconciling the table
// still holds.
var DomainMetrics = obsv.Table[Stats]{
	{Name: "core.domain_begins", Get: func(s *Stats) int64 { return s.DomainBegins }, Span: obsv.SpanBegin},
	{Name: "core.domain_commits", Get: func(s *Stats) int64 { return s.DomainCommits }, Span: obsv.SpanCommit},
	{Name: "core.domain_switches", Get: func(s *Stats) int64 { return s.DomainSwitches }, Span: obsv.SpanDomainSwitch},
	{Name: "core.domain_retires", Get: func(s *Stats) int64 { return s.DomainRetires }},
	{Name: "core.domain_discards", Get: func(s *Stats) int64 { return s.DomainDiscards }, Span: obsv.SpanDomainDiscard},
	{Name: "core.domain_violations", Get: func(s *Stats) int64 { return s.DomainViolations }, Span: obsv.SpanDomainViolation},
	{Name: "core.domain_latches", Get: func(s *Stats) int64 { return s.DomainLatches }, Span: obsv.SpanLatchDomains},
	{Name: "core.arena_allocs", Get: func(s *Stats) int64 { return s.Arena.Allocs }},
	{Name: "core.arena_fallbacks", Get: func(s *Stats) int64 { return s.Arena.Fallbacks }},
	{Name: "core.arena_retires", Get: func(s *Stats) int64 { return s.Arena.Retires }},
}

// AddTotals folds one runtime snapshot into tot: both schema tables,
// whether or not the runtime published the domain half.
func AddTotals(tot *obsv.Totals, s *Stats) {
	Metrics.AddTo(tot, s)
	DomainMetrics.AddTo(tot, s)
}

// PublishMetrics copies the runtime's accumulated counters — recovery
// statistics, the hardware and software transaction models, the Table III
// site sets, and the Fig. 5 sample distributions — into a metrics
// registry under the given labels (typically a thread or app label).
//
// Publishing is a collection-time operation: the recovery hot paths keep
// their hand-rolled counters and never see the registry, so attaching
// metrics changes no charged cycle and allocates nothing while the guest
// program runs. The published totals reconcile exactly with Stats(),
// HTMStats() and STMStats().
func (rt *Runtime) PublishMetrics(reg *obsv.Registry, labels ...obsv.Label) {
	s := rt.snapshot()
	Metrics.Publish(reg, &s, labels...)
	if rt.cfg.EnableDomains {
		DomainMetrics.Publish(reg, &s, labels...)
		reg.Gauge("core.arena_slabs", labels...).Add(s.Arena.Slabs)
	}

	sites := rt.siteCounts()
	reg.Gauge("core.sites_gate", labels...).Add(int64(sites[analysis.RoleGate]))
	reg.Gauge("core.sites_embed", labels...).Add(int64(sites[analysis.RoleEmbed]))
	reg.Gauge("core.sites_break", labels...).Add(int64(sites[analysis.RoleBreak]))

	reg.Counter("core.trace_events", labels...).Add(int64(rt.spans.Len()))
	reg.Counter("core.trace_dropped", labels...).Add(rt.spans.Dropped())

	lat := reg.Histogram("core.recovery_latency_cycles", obsv.CycleBuckets, labels...)
	for _, v := range s.LatencyCycles {
		lat.Observe(v)
	}
	steps := reg.Histogram("core.tx_steps", obsv.CountBuckets, labels...)
	lines := reg.Histogram("core.tx_write_lines", obsv.CountBuckets, labels...)
	rt.txs.each(func(st, ln int64) {
		steps.Observe(st)
		lines.Observe(ln)
	})

	hs, ss := rt.HTMStats(), rt.STMStats()
	htm.Metrics.Publish(reg, &hs, labels...)
	stm.Metrics.Publish(reg, &ss, labels...)
	reg.Gauge("stm.memory_bytes", labels...).SetMax(rt.MemoryOverheadBytes())
}
