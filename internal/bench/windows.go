package bench

import (
	"fmt"
	"sort"
	"strings"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/boot"
)

// WindowRow profiles one server's crash-transaction windows.
type WindowRow struct {
	Server        string
	Transactions  int
	PerRequest    float64
	StepsP50      int64
	StepsP90      int64
	StepsMax      int64
	WriteLinesP50 int64
	WriteLinesMax int64

	// Unique gate, break and embedded library call sites executed: the
	// recoverable surface Table III reports.
	GateSites, BreakSites, EmbedSites int
}

// WindowResult is the transaction-window profile.
type WindowResult struct {
	Rows []WindowRow
}

// TxWindows quantifies the abstract's claim that FIRestarter's "recovery
// windows are small and frequent compared to traditional checkpoint-
// restart": per server, how many crash transactions a request spans and
// how many instructions/dirty lines each window holds. Small windows are
// what make HTM checkpointing viable and rollback near-instantaneous. The
// same runs give Table III (WindowResult.TableIII).
func (r Runner) TxWindows() (WindowResult, error) {
	r = r.withDefaults()
	servers := apps.All()
	rows := make([]WindowRow, len(servers))
	if err := r.forEach(len(servers), func(i int) error {
		app := servers[i]
		inst, res, err := r.measure(app, boot.Options{})
		if err != nil {
			return err
		}
		if res.ServerDied || res.Completed == 0 {
			return fmt.Errorf("txwindows %s: run failed (%+v)", app.Name, res)
		}
		st := inst.RT.Stats()
		row := WindowRow{
			Server:       app.Name,
			Transactions: len(st.TxSteps),
			PerRequest:   float64(len(st.TxSteps)) / float64(res.Completed),
			GateSites:    len(st.GateSites),
			BreakSites:   len(st.BreakSites),
			EmbedSites:   len(st.EmbedSites),
		}
		// Exact sorted-rank percentiles: this table is part of the default
		// suite, whose output is pinned byte-for-byte across releases, so
		// it must not move to the log-bucket histogram approximation the
		// request-latency tables use.
		if n := len(st.TxSteps); n > 0 {
			steps := append([]int64(nil), st.TxSteps...)
			sort.Slice(steps, func(i, j int) bool { return steps[i] < steps[j] })
			row.StepsP50 = steps[n/2]
			row.StepsP90 = steps[n*9/10]
			row.StepsMax = steps[n-1]
		}
		if n := len(st.TxWriteLines); n > 0 {
			lines := append([]int64(nil), st.TxWriteLines...)
			sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
			row.WriteLinesP50 = lines[n/2]
			row.WriteLinesMax = lines[n-1]
		}
		rows[i] = row
		return nil
	}); err != nil {
		return WindowResult{}, err
	}
	return WindowResult{Rows: rows}, nil
}

// Render prints the window profile.
func (w WindowResult) Render() string {
	var sb strings.Builder
	sb.WriteString(WindowsTitle + "\n")
	fmt.Fprintf(&sb, "%-10s %8s %8s | %8s %8s %8s | %10s %10s\n",
		"server", "txs", "tx/req", "p50", "p90", "max", "wset p50", "wset max")
	for _, row := range w.Rows {
		fmt.Fprintf(&sb, "%-10s %8d %8.1f | %8d %8d %8d | %10d %10d\n",
			row.Server, row.Transactions, row.PerRequest,
			row.StepsP50, row.StepsP90, row.StepsMax,
			row.WriteLinesP50, row.WriteLinesMax)
	}
	sb.WriteString("(steps = instructions per window; wset = dirty lines / undo entries)\n")
	return sb.String()
}
