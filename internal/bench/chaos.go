package bench

import (
	"fmt"
	"strings"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/boot"
	"github.com/firestarter-go/firestarter/internal/faultinj"
	"github.com/firestarter-go/firestarter/internal/obsv"
	"github.com/firestarter-go/firestarter/internal/supervisor"
)

// ChaosRow aggregates one app x fault-kind sweep of the chaos campaign:
// how many seeded faults of that kind the app faced, how many campaigns
// survived to workload completion, and which ladder rung absorbed each
// fault.
type ChaosRow struct {
	App      string
	Kind     string
	Faults   int
	Survived int // campaigns that completed the workload (breaker stayed closed)

	// Rung attribution: each campaign is attributed to the coarsest rung
	// it escalated to. None means the fault never fired under the
	// workload.
	None      int
	Recovered int // rollback + STM retry absorbed it
	Injected  int // gate error-injection diverted it
	Shed      int // a connection was shed at the quiesce point
	Rebooted  int // the supervisor microrebooted the process
	Breaker   int // the crash-loop breaker gave up

	Lost      int // requests not completed across the row's campaigns
	StateLost int // incarnation deaths (in-memory state discarded)
}

// ChaosResult is the chaos soak campaign outcome.
type ChaosResult struct {
	Rows      []ChaosRow
	Requests  int // workload size per campaign
	Campaigns int
	Survived  int

	// Spans is every campaign's merged span log concatenated on a single
	// campaign-global clock (suitable for obsvlint's trace schema).
	Spans []obsv.SpanEvent

	// Traces is the total number of traced requests delivered across all
	// campaigns; rebasing gives them campaign-global IDs 1..Traces, and
	// every one must reach exactly one terminal span in Spans.
	Traces int64
}

// chaosKinds are the fault models the soak sweeps: the paper's fail-stop
// plus HSFI's fail-silent mutations.
var chaosKinds = []faultinj.Kind{
	faultinj.FailStop,
	faultinj.FlipBranch,
	faultinj.CorruptConst,
	faultinj.WrongOperator,
	faultinj.OffByOne,
}

// Chaos runs the chaos soak campaign: seeded faults of every kind planted
// in profiled serving blocks of all five apps, each faced by the full
// recovery escalation ladder (rollback -> STM retry -> gate injection ->
// request shedding -> supervised microreboot -> crash-loop breaker).
// Every campaign's three accounting surfaces (stats, metrics, spans) are
// reconciled; any campaign whose deaths are not attributed to a rung
// fails the whole experiment.
func (r Runner) Chaos() (ChaosResult, error) {
	r = r.withDefaults()
	var out ChaosResult
	out.Requests = r.Requests

	// Plan serially (planning shares nothing and is cheap relative to the
	// supervised runs); fan the campaigns out below.
	type chaosJob struct {
		app   *apps.App
		kind  faultinj.Kind
		fault faultinj.Fault
	}
	var jobs []chaosJob
	for _, app := range apps.All() {
		for _, kind := range chaosKinds {
			max := r.FaultsPerServer
			if kind != faultinj.FailStop {
				max = r.FaultsPerServer/(len(chaosKinds)-1) + 1
			}
			faults, err := r.planFaults(app, kind, max)
			if err != nil {
				return out, fmt.Errorf("chaos %s/%s: %w", app.Name, kind, err)
			}
			for _, f := range faults {
				jobs = append(jobs, chaosJob{app: app, kind: kind, fault: f})
			}
		}
	}

	runs := make([]*ladderRun, len(jobs))
	if err := r.forEach(len(jobs), func(i int) error {
		j := jobs[i]
		f := j.fault
		lr, err := r.ladderRun(j.app, boot.Options{Fault: &f},
			supervisor.Config{Seed: r.Seed + 1000*int64(i+1)})
		if err != nil {
			return fmt.Errorf("chaos %s/%s fault %d: %w", j.app.Name, j.kind, f.ID, err)
		}
		if errs := lr.reconcile(); len(errs) > 0 {
			return fmt.Errorf("chaos %s/%s fault %d: accounting did not reconcile:\n  %s",
				j.app.Name, j.kind, f.ID, strings.Join(errs, "\n  "))
		}
		runs[i] = lr
		return nil
	}); err != nil {
		return out, err
	}

	// Reduce in job order so the render and the combined span log are
	// byte-identical for every Parallelism setting. Cycles are rebased
	// onto a campaign-global clock and trace IDs onto a campaign-global
	// ID space, so the merged log stays causally valid (obsvlint
	// -causality) across campaigns.
	rowIdx := map[string]int{}
	var clock, traceBase int64
	pieces := make([]obsv.Piece, 0, len(jobs))
	recIdx := 0
	for i, j := range jobs {
		lr := runs[i]
		// Flight-recorder output rides the same job-order reduction, so
		// the manifest numbering is identical at any Parallelism.
		for _, rec := range lr.Recordings {
			if _, err := rec.Write(r.RecordDir, fmt.Sprintf("chaos-%03d", recIdx)); err != nil {
				return out, fmt.Errorf("chaos: recording %s/%s fault %d: %w",
					j.app.Name, j.kind, j.fault.ID, err)
			}
			recIdx++
		}
		key := j.app.Name + "/" + j.kind.String()
		idx, ok := rowIdx[key]
		if !ok {
			idx = len(out.Rows)
			rowIdx[key] = idx
			out.Rows = append(out.Rows, ChaosRow{App: j.app.Name, Kind: j.kind.String()})
		}
		row := &out.Rows[idx]
		row.Faults++
		out.Campaigns++
		if !lr.Sup.BreakerOpen {
			row.Survived++
			out.Survived++
		}
		row.Lost += r.Requests - lr.Completed
		row.StateLost += lr.Sup.StateLost
		switch lr.rung() {
		case "breaker-open":
			row.Breaker++
		case "rebooted":
			row.Rebooted++
		case "shed":
			row.Shed++
		case "injected":
			row.Injected++
		case "recovered":
			row.Recovered++
		default:
			row.None++
		}
		pieces = append(pieces, obsv.Piece{Spans: lr.Spans, Clock: clock, TraceBase: traceBase})
		clock += lr.Sup.ClockCycles
		traceBase += lr.Traces
	}
	out.Spans = obsv.Assemble(pieces...)
	out.Traces = traceBase
	return out, nil
}

// Render prints the soak table plus the campaign-level summary.
func (c ChaosResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Chaos soak: seeded faults vs the full recovery ladder (%d requests per campaign)\n", c.Requests)
	fmt.Fprintf(&sb, "%-10s %-14s %6s %7s | %5s %6s %7s %5s %7s %4s | %6s %6s\n",
		"app", "kind", "faults", "survive",
		"none", "recov", "inject", "shed", "reboot", "brk",
		"lost", "state")
	var rungs ChaosRow
	for _, row := range c.Rows {
		fmt.Fprintf(&sb, "%-10s %-14s %6d %7d | %5d %6d %7d %5d %7d %4d | %6d %6d\n",
			row.App, row.Kind, row.Faults, row.Survived,
			row.None, row.Recovered, row.Injected, row.Shed, row.Rebooted, row.Breaker,
			row.Lost, row.StateLost)
		rungs.None += row.None
		rungs.Recovered += row.Recovered
		rungs.Injected += row.Injected
		rungs.Shed += row.Shed
		rungs.Rebooted += row.Rebooted
		rungs.Breaker += row.Breaker
	}
	pct := 0.0
	if c.Campaigns > 0 {
		pct = float64(c.Survived) / float64(c.Campaigns) * 100
	}
	fmt.Fprintf(&sb, "overall: %d/%d campaigns survived (%.1f%%); rungs: none=%d recovered=%d injected=%d shed=%d rebooted=%d breaker-open=%d\n",
		c.Survived, c.Campaigns, pct,
		rungs.None, rungs.Recovered, rungs.Injected, rungs.Shed, rungs.Rebooted, rungs.Breaker)
	return sb.String()
}

// Fingerprint returns the hash-chain value of the campaign-global span
// stream in its exported (densely re-sequenced) form — one number that
// commits to every byte -trace-out would write. Identical for a fixed
// seed at any Parallelism.
func (c ChaosResult) Fingerprint() uint64 {
	return obsv.Sequence(c.Spans).Fingerprint()
}
