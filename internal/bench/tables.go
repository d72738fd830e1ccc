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
	sb.WriteString("Table II: library functions by recoverability × diversion\n")
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

// TableIII measures the runtime recoverable surface of the three web
// servers under their standard test-suite workload (paper: 84.6 / 77.3 /
// 77.9 %).
func (r Runner) TableIII() (TableIIIResult, error) {
	r = r.withDefaults()
	var out TableIIIResult
	servers := apps.WebServers()
	rows := make([]TableIIIRow, len(servers))
	if err := r.forEach(len(servers), func(i int) error {
		app := servers[i]
		inst, res, err := r.measure(app, boot.Options{})
		if err != nil {
			return fmt.Errorf("table III %s: %w", app.Name, err)
		}
		if res.ServerDied {
			return fmt.Errorf("table III %s: server died (trap %d)", app.Name, res.TrapCode)
		}
		st := inst.RT.Stats()
		gates := len(st.GateSites)
		breaks := len(st.BreakSites)
		total := gates + breaks
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(gates) / float64(total)
		}
		rows[i] = TableIIIRow{
			Server:          app.Name,
			UniqueTx:        total,
			EmbeddedCalls:   len(st.EmbedSites),
			IrrecoverableTx: breaks,
			RecoverablePct:  pct,
		}
		return nil
	}); err != nil {
		return out, err
	}
	out.Rows = rows
	return out, nil
}

// Render prints the table in the paper's layout.
func (t TableIIIResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Table III: runtime recoverable surface (standard workloads)\n")
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

// TableIVResult is the full table.
type TableIVResult struct {
	Rows []TableIVRow
}

// TableIV runs the paper's §VI-B survivability campaign: one persistent
// fault per experiment, planted in a profiled non-critical block, with the
// server's standard workload; then the same with fail-silent software
// faults (most of which must not crash).
func (r Runner) TableIV() (TableIVResult, error) {
	r = r.withDefaults()
	var out TableIVResult
	for _, app := range apps.All() {
		row := TableIVRow{Server: app.Name}

		failStop, err := r.planFaults(app, faultinj.FailStop, r.FaultsPerServer)
		if err != nil {
			return out, fmt.Errorf("table IV %s: %w", app.Name, err)
		}
		// Fan the per-fault runs across the pool; the outcomes reduce in
		// fault-plan order, so counters match the serial campaign.
		type fsOutcome struct {
			triggered bool
			died      bool
		}
		fsResults := make([]fsOutcome, len(failStop))
		if err := r.forEach(len(failStop), func(i int) error {
			inst, res, err := r.measure(app, boot.Options{Fault: &failStop[i]})
			if err != nil {
				return err
			}
			st := inst.RT.Stats()
			fsResults[i] = fsOutcome{
				triggered: st.Crashes > 0 || st.Unrecovered > 0 || res.ServerDied,
				died:      res.ServerDied,
			}
			return nil
		}); err != nil {
			return out, err
		}
		for _, o := range fsResults {
			if !o.triggered {
				continue // the workload never reached the fault
			}
			row.FSInjected++
			if !o.died {
				row.FSRecovered++
			}
		}

		// Fail-silent faults: mix the HSFI corruption types. Planning
		// stays serial (each plan is a profiling run feeding the next
		// stage); the runs themselves fan out as one flat job list.
		kinds := []faultinj.Kind{
			faultinj.FlipBranch, faultinj.CorruptConst,
			faultinj.WrongOperator, faultinj.OffByOne,
		}
		var silFaults []faultinj.Fault
		for _, kind := range kinds {
			faults, err := r.planFaults(app, kind, r.FaultsPerServer/len(kinds)+1)
			if err != nil {
				return out, err
			}
			silFaults = append(silFaults, faults...)
		}
		type silOutcome struct {
			crashed bool
			died    bool
		}
		silResults := make([]silOutcome, len(silFaults))
		if err := r.forEach(len(silFaults), func(i int) error {
			inst, res, err := r.measure(app, boot.Options{Fault: &silFaults[i]})
			if err != nil {
				return err
			}
			st := inst.RT.Stats()
			silResults[i] = silOutcome{
				crashed: st.Crashes > 0 || res.ServerDied,
				died:    res.ServerDied,
			}
			return nil
		}); err != nil {
			return out, err
		}
		for _, o := range silResults {
			row.SilInjected++
			if o.crashed {
				row.SilTriggered++
				if !o.died {
					row.SilRecovered++
				}
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render prints the table in the paper's layout.
func (t TableIVResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Table IV: crash recovery effectiveness against injected persistent faults\n")
	fmt.Fprintf(&sb, "%-10s | %9s %9s | %9s %9s %9s\n",
		"Server", "FS inj", "FS recov", "Sil inj", "Sil crash", "Sil recov")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-10s | %9d %9d | %9d %9d %9d\n",
			r.Server, r.FSInjected, r.FSRecovered, r.SilInjected, r.SilTriggered, r.SilRecovered)
	}
	return sb.String()
}
