package bench

import (
	"fmt"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/boot"
	"github.com/firestarter-go/firestarter/internal/core"
	"github.com/firestarter-go/firestarter/internal/faultinj"
	"github.com/firestarter-go/firestarter/internal/obsv"
	"github.com/firestarter-go/firestarter/internal/replay"
	"github.com/firestarter-go/firestarter/internal/supervisor"
	"github.com/firestarter-go/firestarter/internal/workload"
)

// ladderRun is one supervised campaign: the Runner's workload driven to
// completion across as many incarnations as the supervisor allows, with
// every rung of the recovery escalation ladder armed on hardened boots
// (rollback -> STM retry -> gate injection -> request shedding ->
// supervised microreboot -> crash-loop breaker).
type ladderRun struct {
	Completed int
	Failed    int
	Cycles    int64 // workload cycles across incarnations (throughput accounting)

	// Totals sums every incarnation's runtime accounting tables, plus the
	// supervisor's, exactly as they were published into Registry (empty
	// runtime rows for vanilla campaigns, which have no runtime). Traces
	// is the total trace IDs the drivers consumed — the campaign's ID
	// space is [1, Traces], which Chaos rebases per campaign.
	Totals obsv.Totals
	Traces int64

	// The corruption-reach audit over every connection write of a
	// heap-domain campaign: Taints writes checked, Leaks the
	// (must-be-empty) verdicts.
	Taints int64
	Leaks  []faultinj.Leak

	Sup supervisor.Stats

	// Spans holds every incarnation's runtime span events rebased onto the
	// supervisor's campaign clock and merged with the supervisor's own
	// reboot/breaker-open events, in non-decreasing cycle order.
	Spans   []obsv.SpanEvent
	Dropped int64

	// Registry accumulates each incarnation's published runtime metrics
	// plus the supervisor's; reconcile() checks it against Totals.
	Registry *obsv.Registry

	// Recordings holds the flight-recorder captures (Runner.RecordDir
	// set): one per incarnation that ended unrecovered, plus the final
	// incarnation when the breaker opened. The campaign reducers write
	// them out in job order.
	Recordings []replay.Recording
}

// ladderRun drives r.Requests against app under supervision. The
// campaign builds app's image once and boots every incarnation from it: a
// microreboot reloads the built program, it does not rebuild it. Hardened
// boots (o.Vanilla false) get spans enabled and their quiesce point armed
// so the shedding rung is live; vanilla boots exercise the bare
// restart-on-crash policy. Residual work abandoned when the breaker opens
// is counted as Failed — never silently dropped.
func (r Runner) ladderRun(app *apps.App, o boot.Options, sc supervisor.Config) (*ladderRun, error) {
	img, err := r.build(app, o)
	if err != nil {
		return nil, err
	}
	lr := &ladderRun{Registry: obsv.NewRegistry()}
	if sc.Seed == 0 {
		sc.Seed = r.Seed
	}
	sup := supervisor.New(sc)
	remaining := r.Requests

	// Flight-recorder candidates: with RecordDir set, every incarnation
	// is captured (spans in machine-local cycles, pre-rebase) and the
	// failing ones are kept once the campaign's verdicts are known. A
	// manifest stores app, backend, core config and fault, and replay
	// boots under the default library model with no prelatched sites, so
	// only such boots are captured: a recording of any other boot would
	// replay a different program and diverge.
	record := r.RecordDir != "" && o.Model == nil && len(o.Prelatch) == 0
	type incCand struct {
		rec   replay.Recording
		unrec bool
	}
	var recCands []incCand

	err = sup.Supervise(func(inc int, seed int64) (supervisor.RunResult, error) {
		if remaining <= 0 {
			// The previous incarnation's death consumed the last of the
			// budget; its restart is already accounted, nothing to run.
			return supervisor.RunResult{Done: true}, nil
		}
		offset := sup.Clock()
		inst, err := r.bootImage(img, o)
		if err != nil {
			return supervisor.RunResult{}, err
		}
		if inst.RT != nil {
			inst.RT.EnableSpans()
			if err := inst.ArmQuiesce(); err != nil {
				return supervisor.RunResult{}, err
			}
		}
		d := &workload.Driver{
			OS: inst.OS, M: inst.M, Port: app.Port,
			Gen:         workload.ForProtocol(app.Protocol),
			Concurrency: r.Concurrency,
			Seed:        seed,
		}
		if inst.RT != nil {
			// Trace every request; IDs continue where the previous
			// incarnation stopped so the campaign's causal chains never
			// collide. (Guarded: a typed-nil *core.Runtime in the
			// interface would defeat the driver's nil check.)
			d.Sink = inst.RT
			d.TraceBase = lr.Traces
		}
		reqBefore := remaining
		res := d.Run(remaining)
		lr.Completed += res.Completed
		lr.Failed += res.BadResp
		lr.Cycles += res.Cycles
		lr.Traces += int64(res.Sent)
		remaining -= res.Completed + res.BadResp

		rr := supervisor.RunResult{Cycles: inst.M.Cycles}
		if inst.RT != nil {
			st := inst.RT.Stats()
			core.AddTotals(&lr.Totals, &st)
			if inst.OS.ArenasEnabled() {
				taints := inst.OS.WriteTaints()
				lr.Taints += int64(len(taints))
				lr.Leaks = append(lr.Leaks, faultinj.CheckReach(taints)...)
			}
			for _, e := range inst.RT.Spans() {
				e.Cycles += offset
				e.Seq = 0
				lr.Spans = append(lr.Spans, e)
			}
			lr.Dropped += inst.RT.TraceDropped()
			inst.RT.PublishMetrics(lr.Registry)
			if record {
				recCands = append(recCands, incCand{
					rec: replay.RecordIncarnation(replay.IncarnationRun{
						App:         app.Name,
						Backend:     r.Backend,
						Core:        o.Core,
						Fault:       o.Fault,
						Incarnation: inc,
						Seed:        seed,
						Proto:       app.Protocol,
						Requests:    reqBefore,
						Concurrency: r.Concurrency,
						TraceBase:   d.TraceBase,
						FinalCycles: inst.M.Cycles,
						FinalSteps:  inst.M.Steps,
						Spans:       inst.RT.Spans(),
					}),
					unrec: st.Unrecovered > 0,
				})
			}
		}
		if res.ServerDied || res.Stalled {
			rr.Died = res.ServerDied
			lost := res.Outstanding
			if lost > remaining {
				lost = remaining
			}
			lr.Failed += lost
			remaining -= lost
			rr.ConnsLost = lost
			// A death is a death even when the in-flight loss drained the
			// budget: the restart is counted and the next incarnation
			// reports done without booting.
			return rr, nil
		}
		rr.Done = remaining <= 0
		return rr, nil
	})
	if err != nil {
		return nil, err
	}
	lr.Sup = sup.Stats()
	// Residual work the breaker abandoned is failed, not forgotten (the
	// old inline restart loop under-reported exactly this).
	if remaining > 0 {
		lr.Failed += remaining
	}
	sup.PublishMetrics(lr.Registry)
	supervisor.Metrics.AddTo(&lr.Totals, &lr.Sup)
	lr.Spans = mergeSpans(lr.Spans, sup.Spans())
	// Keep the failing incarnations' recordings: every unrecovered one,
	// plus the final incarnation when the crash-loop breaker gave up.
	for i := range recCands {
		c := &recCands[i]
		switch {
		case c.unrec:
			c.rec.Manifest.Outcome = replay.OutcomeUnrecovered
		case lr.Sup.BreakerOpen && i == len(recCands)-1:
			c.rec.Manifest.Outcome = replay.OutcomeBreakerOpen
		default:
			continue
		}
		lr.Recordings = append(lr.Recordings, c.rec)
	}
	return lr, nil
}

// mergeSpans merges two cycle-ordered span slices, preferring a's events
// on ties (runtime events precede the supervisor's verdict about them).
func mergeSpans(a, b []obsv.SpanEvent) []obsv.SpanEvent {
	out := make([]obsv.SpanEvent, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if b[j].Cycles < a[i].Cycles {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// rung names the coarsest ladder rung the campaign escalated to — the
// rung that absorbed (or failed to absorb) its fault.
func (l *ladderRun) rung() string {
	switch {
	case l.Sup.BreakerOpen:
		return "breaker-open"
	case l.Sup.Restarts > 0:
		return "rebooted"
	case l.Totals.Get("core.sheds") > 0:
		return "shed"
	case l.Totals.Get("core.injections") > 0:
		return "injected"
	case l.Totals.Get("core.crashes") > 0:
		return "recovered"
	default:
		return "none"
	}
}

// reconcile cross-checks the campaign's three accounting surfaces —
// aggregated runtime/supervisor stats, the published metrics registry,
// and the span log — and returns every discrepancy. An empty slice means
// the ladder accounted for every fault on every surface.
func (l *ladderRun) reconcile() []string {
	errs := l.Totals.CheckMetrics(l.Registry)

	// Zero silent deaths: every incarnation that died is attributed to a
	// reboot or to the breaker opening.
	breaker := obsv.Flag(l.Sup.BreakerOpen)
	if got, want := int64(l.Sup.StateLost), int64(l.Sup.Restarts)+breaker; got != want {
		errs = append(errs, fmt.Sprintf("silent deaths: state_lost %d != restarts %d + breaker %d", got, int64(l.Sup.Restarts), breaker))
	}

	// Span log cross-check (skipped if the bounded log overflowed).
	if l.Dropped == 0 {
		errs = append(errs, l.Totals.CheckSpans(l.Spans)...)
		errs = append(errs, obsv.CheckCausality(l.Spans)...)
	}
	return errs
}
