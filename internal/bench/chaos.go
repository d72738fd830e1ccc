package bench

import (
	"fmt"
	"strings"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/boot"
	"github.com/firestarter-go/firestarter/internal/faultinj"
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

// ChaosResult is the chaos soak campaign outcome. Its stream is every
// campaign's span stream on one campaign-global clock and trace-ID space.
type ChaosResult struct {
	Rows      []ChaosRow
	Requests  int // workload size per campaign
	Campaigns int
	Survived  int

	stream
}

// silentKinds are HSFI's fail-silent mutations: every silent-corruption
// fault model, excluding fail-stop (which cannot scribble).
var silentKinds = []faultinj.Kind{
	faultinj.FlipBranch,
	faultinj.CorruptConst,
	faultinj.WrongOperator,
	faultinj.OffByOne,
}

// chaosKinds are the fault models the chaos soak, the fleet and Table IV
// sweep: the paper's fail-stop plus the fail-silent mutations.
var chaosKinds = append([]faultinj.Kind{faultinj.FailStop}, silentKinds...)

// faultBudget bounds the faults a fault matrix plans per app and kind:
// FaultsPerServer fail-stop faults, and the silent kinds share about as
// many.
func (r Runner) faultBudget(kind faultinj.Kind) int {
	if kind == faultinj.FailStop {
		return r.FaultsPerServer
	}
	return r.FaultsPerServer/len(silentKinds) + 1
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
	out := ChaosResult{Requests: r.Requests}
	jobs, err := r.planMatrix("chaos", apps.All(), chaosKinds, r.faultBudget)
	if err != nil {
		return out, err
	}
	runs, err := runCells(r, len(jobs), func(i int) string { return jobs[i].label("chaos") },
		func(i int) (*ladderRun, error) {
			return r.ladderRun(jobs[i].app, boot.Options{Fault: &jobs[i].fault},
				supervisor.Config{Seed: r.Seed + 1000*int64(i+1)})
		})
	if err != nil {
		return out, err
	}
	if out.stream, err = reduce(r.RecordDir, "chaos", runs...); err != nil {
		return out, err
	}

	var rows rowFold[matrixKey, ChaosRow]
	for i, j := range jobs {
		lr := runs[i]
		row := rows.row(j.key(), func() ChaosRow { return ChaosRow{App: j.app.Name, Kind: j.kind.String()} })
		row.Faults++
		out.Campaigns++
		if !lr.Sup.BreakerOpen {
			row.Survived++
			out.Survived++
		}
		row.Lost += r.Requests - lr.Completed
		row.StateLost += lr.Sup.StateLost
		row.countRung(lr)
	}
	out.Rows = rows.rows
	return out, nil
}

// countRung attributes a campaign to the coarsest ladder rung it
// escalated to — the rung that absorbed (or failed to absorb) its fault.
func (row *ChaosRow) countRung(l *ladderRun) {
	switch {
	case l.Sup.BreakerOpen:
		row.Breaker++
	case l.Sup.Restarts > 0:
		row.Rebooted++
	case l.Totals.Get("core.sheds") > 0:
		row.Shed++
	case l.Totals.Get("core.injections") > 0:
		row.Injected++
	case l.Totals.Get("core.crashes") > 0:
		row.Recovered++
	default:
		row.None++
	}
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
