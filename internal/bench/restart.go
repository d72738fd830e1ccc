package bench

import (
	"fmt"
	"strings"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/boot"
	"github.com/firestarter-go/firestarter/internal/supervisor"
	"github.com/firestarter-go/firestarter/internal/workload"
)

// RestartRow is one strategy's outcome against the same persistent fault.
type RestartRow struct {
	Strategy     string
	Completed    int
	Failed       int // bad responses + requests lost to dead connections
	Restarts     int
	StateLost    int // times accumulated in-memory state was discarded
	Sheds        int // requests dropped by the shedding rung
	CyclesPerReq float64
}

// RestartResult compares crash-handling strategies.
type RestartResult struct {
	Rows []RestartRow
}

// AblationRestartBaseline stages the paper's motivating comparison (§I):
// a persistent fault in the Redis analog's request handling, faced by
//
//   - the traditional strategy — run unprotected under a supervisor that
//     restarts the process after every crash, losing all in-memory state
//     and every open connection;
//   - FIRestarter — roll back and divert, preserving both; and
//   - FIRestarter under the same supervisor — the full escalation ladder,
//     where shedding and microreboot back up the in-process rungs.
//
// The workload interleaves SETs with INCRs on hot keys; the fault sits on
// INCR's existing-key path, so it fires repeatedly once counters exist.
func (r Runner) AblationRestartBaseline() (RestartResult, error) {
	r = r.withDefaults()
	app := apps.Redis()
	fault, err := r.libFault(app, "execute", "atoi", 1)
	if err != nil {
		return RestartResult{}, err
	}

	var out RestartResult

	// Strategy 1: supervised restart of the unprotected server. The
	// breaker cap replaces the old ad-hoc 50-incarnation loop; work still
	// outstanding when it opens is counted as failed, not dropped.
	lr, err := r.ladderRun(app, boot.Options{Vanilla: true, Fault: &fault},
		supervisor.Config{MaxRestarts: 49, WindowCycles: 1 << 60})
	if err != nil {
		return out, err
	}
	out.Rows = append(out.Rows, lr.row("restart-on-crash (vanilla)"))

	// Strategy 2: FIRestarter alone on the same fault and workload volume.
	_, res, err := r.measure(app, boot.Options{Fault: &fault})
	if err != nil {
		return out, err
	}
	firRow := RestartRow{
		Strategy:     "FIRestarter",
		Completed:    res.Completed,
		Failed:       res.BadResp,
		CyclesPerReq: res.CyclesPerRequest(),
	}
	if res.ServerDied {
		firRow.Restarts = 1
		firRow.StateLost = 1
	}
	out.Rows = append(out.Rows, firRow)

	// Strategy 3: the full ladder — FIRestarter hardened, quiesce point
	// armed, supervised with the default microreboot policy.
	lrFull, err := r.ladderRun(app, boot.Options{Fault: &fault}, supervisor.Config{})
	if err != nil {
		return out, err
	}
	out.Rows = append(out.Rows, lrFull.row("FIRestarter + supervisor"))
	return out, nil
}

// row condenses a supervised campaign into one comparison row.
func (l *ladderRun) row(strategy string) RestartRow {
	row := RestartRow{
		Strategy:  strategy,
		Completed: l.Completed,
		Failed:    l.Failed,
		Restarts:  l.Sup.Restarts,
		StateLost: l.Sup.StateLost,
		Sheds:     int(l.Totals.Get("core.sheds")),
	}
	row.CyclesPerReq = workload.Result{Cycles: l.Cycles, Completed: l.Completed}.CyclesPerRequest()
	return row
}

// Render prints the strategy comparison.
func (d RestartResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Baseline: restart-on-crash vs FIRestarter under a persistent fault (Redis)\n")
	fmt.Fprintf(&sb, "%-28s %10s %8s %9s %11s %7s %14s\n",
		"strategy", "completed", "failed", "restarts", "state lost", "sheds", "cycles/req")
	for _, row := range d.Rows {
		fmt.Fprintf(&sb, "%-28s %10d %8d %9d %11d %7d %14s\n",
			row.Strategy, row.Completed, row.Failed, row.Restarts, row.StateLost, row.Sheds,
			workload.FormatCPR(row.CyclesPerReq))
	}
	return sb.String()
}
