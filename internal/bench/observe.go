package bench

import (
	"fmt"
	"io"
	"strings"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/boot"
	"github.com/firestarter-go/firestarter/internal/core"
	"github.com/firestarter-go/firestarter/internal/htm"
	"github.com/firestarter-go/firestarter/internal/obsv"
	"github.com/firestarter-go/firestarter/internal/stm"
	"github.com/firestarter-go/firestarter/internal/workload"
)

// ObserveResult is one fully-instrumented run: the hardened app driven
// under the standard workload with structured spans, the metrics registry
// and the guest profiler all enabled.
type ObserveResult struct {
	App      string
	Workload workload.Result
	Spans    []obsv.SpanEvent
	Dropped  int64
	Registry *obsv.Registry
	Profile  *obsv.Profile
	TopN     int

	// RecoveryEvents is the trap→resume recovery-latency distribution
	// (Stats().LatencyCycles rebuilt as a histogram); the per-request
	// clean/recovery split lives on Workload.CleanLatency /
	// Workload.RecoveryLatency.
	RecoveryEvents *obsv.Hist
}

// Observe boots the named app hardened (default config, the Fig. 7
// fault-free setup), attaches the full observability stack, drives the
// standard workload, and cross-checks the three outputs against the
// runtime's own counters before returning. Everything is cycle-domain:
// for a fixed seed the result renders byte-identical on any host.
func (r Runner) Observe(appName string) (*ObserveResult, error) {
	r = r.withDefaults()
	app := apps.ByName(appName)
	if app == nil {
		return nil, fmt.Errorf("bench: unknown app %q", appName)
	}
	inst, err := r.boot(app, boot.Options{Core: perfConfig(0, 0, 0, r.Seed)})
	if err != nil {
		return nil, err
	}
	inst.RT.EnableSpans()
	prof := obsv.NewProfile()
	inst.M.SetProfiler(prof)

	res := inst.Drive(workload.Schedule{
		Kind:        workload.ClosedLoop,
		Proto:       inst.App.Protocol,
		Seed:        r.Seed,
		Requests:    r.Requests,
		Concurrency: r.Concurrency,
	})
	reg := obsv.NewRegistry()
	workload.Metrics.Publish(reg, &res)
	prof.Finish(inst.M.Cycles, inst.M.Steps)
	inst.RT.PublishMetrics(reg)

	recovery := histOf(inst.RT.Stats().LatencyCycles)
	out := &ObserveResult{
		App:            appName,
		Workload:       res,
		Spans:          inst.RT.Spans(),
		Dropped:        inst.RT.TraceDropped(),
		Registry:       reg,
		Profile:        prof,
		TopN:           12,
		RecoveryEvents: recovery,
	}
	if errs := out.cell(inst).reconcile(); len(errs) > 0 {
		return out, fmt.Errorf("bench: observability reconciliation failed:\n  %s",
			strings.Join(errs, "\n  "))
	}
	return out, nil
}

// cell is the run as a campaign cell, so it reconciles like one: the
// runtime, HTM, STM and workload tables against the registry and the
// span stream, and the stream's causality. Its own identities tie the
// driver's request tracing, the recovery histogram and the profiler to
// the runtime's hand-rolled counters and the machine's cycles.
func (o *ObserveResult) cell(inst *boot.Instance) *cell {
	st, hs, ss := inst.RT.Stats(), inst.RT.HTMStats(), inst.RT.STMStats()
	c := &cell{Registry: o.Registry, Spans: o.Spans, Dropped: o.Dropped}
	core.AddTotals(&c.Totals, &st)
	htm.Metrics.AddTo(&c.Totals, &hs)
	stm.Metrics.AddTo(&c.Totals, &ss)
	workload.Metrics.AddTo(&c.Totals, &o.Workload)

	// Request tracing: every request reaches one terminal, and the
	// driver's latency split must account for exactly the requests that
	// reached a terminal req-done.
	clean, recovered := o.Workload.CleanLatency, o.Workload.RecoveryLatency
	c.ids = []identity{
		{"req terminals vs sent", st.ReqsDone + st.ReqsLost, int64(o.Workload.Sent)},
		{"latency split count vs req_done", clean.Count() + recovered.Count(), st.ReqsDone},
	}
	if o.Dropped == 0 {
		// Replay the span log in emission order: a request lands in the
		// recovery-touched split iff a recovery span referenced its trace
		// before its terminal req-done — the same order-sensitive rule the
		// runtime applies live, reproduced here purely from the log.
		var touchedDone int64
		touched := map[int64]bool{}
		for _, e := range o.Spans {
			switch {
			case e.Kind == obsv.SpanReqDone && touched[e.Trace]:
				touchedDone++
			case e.Trace != 0 && obsv.RecoveryKind(e.Kind):
				touched[e.Trace] = true
			}
		}
		c.ids = append(c.ids, identity{"recovery-touched req-done vs latency split", touchedDone, recovered.Count()})
	}

	// The recovery-event histogram must reproduce Stats().LatencyCycles
	// exactly on its lossless surfaces (count, sum, max).
	var latSum, latMax int64
	for _, v := range st.LatencyCycles {
		latSum += v
		if v > latMax {
			latMax = v
		}
	}
	// Profiler: flat attribution must sum to the machine's charged total.
	var flat int64
	for _, f := range o.Profile.Funcs() {
		flat += f.FlatCycles
	}
	c.ids = append(c.ids,
		identity{"recovery hist count vs LatencyCycles", o.RecoveryEvents.Count(), int64(len(st.LatencyCycles))},
		identity{"recovery hist sum vs LatencyCycles", o.RecoveryEvents.Sum(), latSum},
		identity{"recovery hist max vs LatencyCycles", o.RecoveryEvents.Max(), latMax},
		identity{"profiler flat sum vs machine cycles", flat, inst.M.Cycles},
		identity{"profiler total vs machine cycles", o.Profile.TotalCycles(), inst.M.Cycles},
	)
	return c
}

// histOf builds a histogram over a sample slice.
func histOf(samples []int64) *obsv.Hist {
	h := obsv.NewHist()
	for _, v := range samples {
		h.Observe(v)
	}
	return h
}

// WriteMetrics writes the aggregated registry as JSONL.
func (o *ObserveResult) WriteMetrics(w io.Writer) error { return o.Registry.WriteJSONL(w) }

// WriteProfile writes the guest profile as JSONL.
func (o *ObserveResult) WriteProfile(w io.Writer) error { return o.Profile.WriteJSONL(w) }

// Render summarizes the observed run: workload outcome, span/metric
// volume, and the profiler's top-N table.
func (o *ObserveResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Observability: %s hardened, %d completed (%d bad), %s cycles/req\n",
		o.App, o.Workload.Completed, o.Workload.BadResp,
		workload.FormatCPR(o.Workload.CyclesPerRequest()))
	fmt.Fprintf(&sb, "spans: %d recorded, %d dropped; metrics: %d series\n",
		len(o.Spans), o.Dropped, o.Registry.Len())
	sb.WriteString("\nRequest latency (cycles, delivery to validated response):\n")
	fmt.Fprintf(&sb, "%-18s %7s %10s %10s %10s %10s %10s\n",
		"class", "count", "p50", "p90", "p99", "p999", "max")
	renderLatencyRow(&sb, "clean", o.Workload.CleanLatency)
	renderLatencyRow(&sb, "recovery-touched", o.Workload.RecoveryLatency)
	if o.RecoveryEvents.Count() > 0 {
		p := o.RecoveryEvents.Percentiles()
		fmt.Fprintf(&sb, "recovery events (trap->resume): count=%d p50=%d p99=%d p999=%d max=%d\n",
			o.RecoveryEvents.Count(), p.P50, p.P99, p.P999, o.RecoveryEvents.Max())
	}
	sb.WriteString("\nGuest profile (top by flat cycles):\n")
	sb.WriteString(o.Profile.RenderTop(o.TopN))
	return sb.String()
}

// renderLatencyRow prints one class of the tail-latency table.
func renderLatencyRow(sb *strings.Builder, class string, h *obsv.Hist) {
	if h == nil {
		h = obsv.NewHist()
	}
	p := h.Percentiles()
	fmt.Fprintf(sb, "%-18s %7d %10d %10d %10d %10d %10d\n",
		class, h.Count(), p.P50, p.P90, p.P99, p.P999, h.Max())
}
