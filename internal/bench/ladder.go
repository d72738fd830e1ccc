package bench

import (
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
	// The cell's Totals sum every incarnation's runtime accounting tables
	// plus the supervisor's (empty runtime rows for vanilla campaigns,
	// which have no runtime); its Spans merge every incarnation's runtime
	// spans, rebased onto the supervisor's campaign clock (Wall), with the
	// supervisor's own reboot/breaker-open events; its Recordings hold one
	// capture per incarnation that ended unrecovered, plus the final
	// incarnation when the breaker opened.
	cell

	Completed int
	Failed    int
	Cycles    int64 // workload cycles across incarnations (throughput accounting)

	// Taints counts the connection writes of a heap-domain campaign the
	// corruption-reach audit checked (its verdicts are the cell's Leaks).
	Taints int64

	Sup supervisor.Stats
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
	lr := &ladderRun{cell: cell{Registry: obsv.NewRegistry()}}
	// Each incarnation's span log, kept (not copied) until the campaign
	// is over and assembled into lr.Spans in one pass.
	var pieces []obsv.Piece
	if sc.Seed == 0 {
		sc.Seed = r.Seed
	}
	sup := supervisor.New(sc)
	remaining := r.Requests

	// Flight recorder: with RecordDir set, an incarnation that ended
	// unrecovered is recorded at once (spans in machine-local cycles,
	// pre-rebase). The latest other one is only held, its span log by
	// reference, until the campaign's end says whether the crash-loop
	// breaker gave up on it. A manifest stores app, backend, core config
	// and fault, and replay boots under the default library model with no
	// prelatched sites, so only such boots are captured: a recording of
	// any other boot would replay a different program and diverge.
	record := r.RecordDir != "" && o.Model == nil && len(o.Prelatch) == 0
	var last *replay.Manifest
	var lastLog *obsv.SpanLog

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
		// The incarnation's workload: the remaining budget, driven from
		// the supervisor-issued seed, its trace IDs continuing where the
		// previous incarnation stopped so the campaign's causal chains
		// never collide. A recording stores this same value.
		sched := workload.Schedule{
			Kind:        workload.ClosedLoop,
			Proto:       app.Protocol,
			Seed:        seed,
			Requests:    remaining,
			Concurrency: r.Concurrency,
			TraceBase:   lr.Traces,
		}
		res := inst.Drive(sched)
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
			pieces = append(pieces, obsv.Piece{Log: inst.RT.SpanLog(), Clock: offset})
			lr.Dropped += inst.RT.TraceDropped()
			inst.RT.PublishMetrics(lr.Registry)
			if record {
				man := replay.Manifest{
					Kind:        replay.KindIncarnation,
					App:         app.Name,
					Backend:     r.Backend,
					Core:        o.Core,
					Fault:       o.Fault,
					Incarnation: inc,
					Schedule:    sched,
					FinalCycles: inst.M.Cycles,
					FinalSteps:  inst.M.Steps,
				}
				last = nil
				if st.Unrecovered > 0 {
					man.Outcome = replay.OutcomeUnrecovered
					lr.Recordings = append(lr.Recordings, replay.Record(man, inst.RT.Spans()))
				} else {
					last, lastLog = &man, inst.RT.SpanLog()
				}
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
	lr.Wall = lr.Sup.ClockCycles
	// Residual work the breaker abandoned is failed, not forgotten (the
	// old inline restart loop under-reported exactly this).
	if remaining > 0 {
		lr.Failed += remaining
	}
	sup.PublishMetrics(lr.Registry)
	supervisor.Metrics.AddTo(&lr.Totals, &lr.Sup)
	// On equal cycles the runtime events precede the supervisor's verdict
	// about them.
	lr.Spans = obsv.Assemble(append(pieces, obsv.Piece{Log: sup.SpanLog()})...)
	obsv.Merge(lr.Spans)
	if lr.Sup.BreakerOpen && last != nil {
		last.Outcome = replay.OutcomeBreakerOpen
		lr.Recordings = append(lr.Recordings, replay.Record(*last, lastLog.Events()))
	}
	return lr, nil
}
