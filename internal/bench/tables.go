package bench

import (
	"fmt"
	"strings"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/boot"
	"github.com/firestarter-go/firestarter/internal/faultinj"
	"github.com/firestarter-go/firestarter/internal/libmodel"
)

// --- Table II -----------------------------------------------------------------

// TableIIResult is the library-function classification matrix.
type TableIIResult struct {
	Counts map[libmodel.Class][2]int // [divertable, not divertable]
	Total  int
}

// TableII regenerates the paper's Table II from the Library Interface
// Analyzer's knowledge base.
func TableII() TableIIResult {
	m := libmodel.Default()
	return TableIIResult{Counts: m.TableII(), Total: m.CanonicalCount()}
}

// Render prints the matrix in the paper's layout.
func (t TableIIResult) Render() string {
	var sb strings.Builder
	sb.WriteString(TableIITitle + "\n")
	fmt.Fprintf(&sb, "%-28s %9s %13s %6s\n", "Recoverability", "possible", "NOT possible", "Total")
	order := []libmodel.Class{
		libmodel.Reversible, libmodel.NoReversion, libmodel.Deferrable,
		libmodel.StateRestore, libmodel.Irrecoverable,
	}
	var d, nd int
	for _, c := range order {
		row := t.Counts[c]
		fmt.Fprintf(&sb, "%-28s %9d %13d %6d\n", c.String(), row[0], row[1], row[0]+row[1])
		d += row[0]
		nd += row[1]
	}
	fmt.Fprintf(&sb, "%-28s %9d %13d %6d\n", "Total", d, nd, d+nd)
	return sb.String()
}

// --- Table III ----------------------------------------------------------------

// TableIIIRow is one server's runtime recoverable surface.
type TableIIIRow struct {
	Server          string
	UniqueTx        int // unique transactions observed (gate + break regions)
	EmbeddedCalls   int // unique embedded library call sites executed
	IrrecoverableTx int // unique unprotected regions (after irrecoverable calls)
	RecoverablePct  float64
}

// TableIIIResult is the full table.
type TableIIIResult struct {
	Rows []TableIIIRow
}

// TableIII is the runtime recoverable surface of the three web servers
// under their standard test-suite workload (paper: 84.6 / 77.3 / 77.9 %),
// taken from the windows runs, which measure the same unfaulted hardened
// boots.
func (w WindowResult) TableIII() TableIIIResult {
	var out TableIIIResult
	for _, row := range w.Rows {
		if !isWebServer(row.Server) {
			continue
		}
		total := row.GateSites + row.BreakSites
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(row.GateSites) / float64(total)
		}
		out.Rows = append(out.Rows, TableIIIRow{
			Server:          row.Server,
			UniqueTx:        total,
			EmbeddedCalls:   row.EmbedSites,
			IrrecoverableTx: row.BreakSites,
			RecoverablePct:  pct,
		})
	}
	return out
}

// Render prints the table in the paper's layout.
func (t TableIIIResult) Render() string {
	var sb strings.Builder
	sb.WriteString(TableIIITitle + "\n")
	fmt.Fprintf(&sb, "%-36s", "")
	for _, row := range t.Rows {
		fmt.Fprintf(&sb, "%10s", row.Server)
	}
	sb.WriteString("\n")
	line := func(label string, f func(TableIIIRow) string) {
		fmt.Fprintf(&sb, "%-36s", label)
		for _, row := range t.Rows {
			fmt.Fprintf(&sb, "%10s", f(row))
		}
		sb.WriteString("\n")
	}
	line("# unique transactions", func(r TableIIIRow) string { return fmt.Sprint(r.UniqueTx) })
	line("# libcalls embedded within", func(r TableIIIRow) string { return fmt.Sprint(r.EmbeddedCalls) })
	line("# unique irrecoverable transactions", func(r TableIIIRow) string { return fmt.Sprint(r.IrrecoverableTx) })
	line("Unique recoverable transactions", func(r TableIIIRow) string { return fmt.Sprintf("%.1f%%", r.RecoverablePct) })
	return sb.String()
}

// --- Table IV -----------------------------------------------------------------

// TableIVRow is one server's survivability results.
type TableIVRow struct {
	Server string

	// Fail-stop campaign.
	FSInjected  int
	FSRecovered int

	// Fail-silent campaign.
	SilInjected  int
	SilTriggered int // corruptions that escalated to crashes
	SilRecovered int // of those, recovered
}

// TableIVResult is the full table, plus Figure 5's latency rows.
type TableIVResult struct {
	Rows []TableIVRow

	// Latency is the recovery latency of the web servers' fail-stop
	// runs, one row per server (RenderFigure5).
	Latency []Figure5Row
}

// TableIV runs the paper's §VI-B survivability campaign: one persistent
// fault per experiment, planted in a profiled non-critical block, with the
// server's standard workload; then the same with fail-silent software
// faults (most of which must not crash). The web servers' fail-stop runs
// also give Figure 5's recovery latencies.
func (r Runner) TableIV() (TableIVResult, error) {
	r = r.withDefaults()
	var out TableIVResult
	jobs, err := r.planMatrix("table IV", apps.All(), chaosKinds, r.faultBudget)
	if err != nil {
		return out, err
	}
	// Every cell of every app fans across the pool; the outcomes fold in
	// job order, so counters and latency samples match a serial campaign.
	type outcome struct {
		crashed   bool // the fault crashed the server, recovered or not
		triggered bool // a crash, an unrecovered one, or a death
		died      bool
		latency   []int64
	}
	runs := make([]outcome, len(jobs))
	if err := r.forEach(len(jobs), func(i int) error {
		inst, res, err := r.measure(jobs[i].app, boot.Options{Fault: &jobs[i].fault})
		if err != nil {
			return err
		}
		st := inst.RT.Stats()
		runs[i] = outcome{
			crashed:   st.Crashes > 0 || res.ServerDied,
			triggered: st.Crashes > 0 || st.Unrecovered > 0 || res.ServerDied,
			died:      res.ServerDied,
			latency:   st.LatencyCycles,
		}
		return nil
	}); err != nil {
		return out, err
	}

	var rows rowFold[string, TableIVRow]
	latency := map[string][]int64{}
	for i, j := range jobs {
		o := runs[i]
		row := rows.row(j.app.Name, func() TableIVRow { return TableIVRow{Server: j.app.Name} })
		if j.kind != faultinj.FailStop {
			row.SilInjected++
			if o.crashed {
				row.SilTriggered++
				if !o.died {
					row.SilRecovered++
				}
			}
			continue
		}
		latency[j.app.Name] = append(latency[j.app.Name], o.latency...)
		if !o.triggered {
			continue // the workload never reached the fault
		}
		row.FSInjected++
		if !o.died {
			row.FSRecovered++
		}
	}
	out.Rows = rows.rows
	for _, row := range out.Rows {
		if isWebServer(row.Server) {
			out.Latency = append(out.Latency, figure5Row(row.Server, latency[row.Server]))
		}
	}
	return out, nil
}

// Render prints the table in the paper's layout.
func (t TableIVResult) Render() string {
	var sb strings.Builder
	sb.WriteString(TableIVTitle + "\n")
	fmt.Fprintf(&sb, "%-10s | %9s %9s | %9s %9s %9s\n",
		"Server", "FS inj", "FS recov", "Sil inj", "Sil crash", "Sil recov")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-10s | %9d %9d | %9d %9d %9d\n",
			r.Server, r.FSInjected, r.FSRecovered, r.SilInjected, r.SilTriggered, r.SilRecovered)
	}
	return sb.String()
}
