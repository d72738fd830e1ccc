package bench

import (
	"fmt"
	"strings"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/boot"
	"github.com/firestarter-go/firestarter/internal/faultinj"
	"github.com/firestarter-go/firestarter/internal/libmodel"
)

// MaskedRow compares one server's recovery surface and survivability with
// and without write masking.
type MaskedRow struct {
	Server string

	// Recoverable surface (Table III metric).
	BaseRecoverablePct   float64
	MaskedRecoverablePct float64
	BaseBreaks           int
	MaskedBreaks         int

	// Survivability (Table IV metric) over the same fault plan.
	Injected        int
	BaseRecovered   int
	MaskedRecovered int
}

// MaskedResult is the write-masking extension experiment.
type MaskedResult struct {
	Rows []MaskedRow
}

// AblationMaskedWrites evaluates the paper's proposed §V-A extension
// ("allowing a socket write() to produce network-visible side effects that
// can be masked by injecting a network error may enable a larger recovery
// surface"): the same workloads and fault plans run under the conservative
// model and the masked model, measuring the growth in recoverable surface
// and in faults survived.
func (r Runner) AblationMaskedWrites() (MaskedResult, error) {
	r = r.withDefaults()
	var out MaskedResult
	for _, app := range apps.WebServers() {
		row := MaskedRow{Server: app.Name}

		for _, masked := range []bool{false, true} {
			var model *libmodel.Model
			if masked {
				model = libmodel.DefaultMasked()
			}
			inst, res, err := r.measure(app, boot.Options{Model: model})
			if err != nil {
				return out, err
			}
			if res.ServerDied {
				return out, fmt.Errorf("masked-writes %s (masked=%v): server died", app.Name, masked)
			}
			st := inst.RT.Stats()
			gates, breaks := len(st.GateSites), len(st.BreakSites)
			pct := 0.0
			if gates+breaks > 0 {
				pct = 100 * float64(gates) / float64(gates+breaks)
			}
			if masked {
				row.MaskedRecoverablePct = pct
				row.MaskedBreaks = breaks
			} else {
				row.BaseRecoverablePct = pct
				row.BaseBreaks = breaks
			}
		}

		// Same fault plan under both models.
		faults, err := r.planFaults(app, faultinj.FailStop, r.FaultsPerServer)
		if err != nil {
			return out, err
		}
		for _, f := range faults {
			f := f
			baseInst, baseRes, err := r.measure(app, boot.Options{Fault: &f})
			if err != nil {
				return out, err
			}
			maskInst, maskRes, err := r.measure(app, boot.Options{Fault: &f, Model: libmodel.DefaultMasked()})
			if err != nil {
				return out, err
			}
			baseTriggered := baseRes.ServerDied || baseInst.RT.Stats().Crashes > 0
			maskTriggered := maskRes.ServerDied || maskInst.RT.Stats().Crashes > 0
			if !baseTriggered && !maskTriggered {
				continue
			}
			row.Injected++
			if !baseRes.ServerDied {
				row.BaseRecovered++
			}
			if !maskRes.ServerDied {
				row.MaskedRecovered++
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render prints the extension experiment.
func (m MaskedResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Extension (§V-A): masking socket writes enlarges the recovery surface\n")
	fmt.Fprintf(&sb, "%-10s %18s %18s | %8s %12s %12s\n",
		"server", "recoverable base", "recoverable mask", "injected", "recov base", "recov mask")
	for _, row := range m.Rows {
		fmt.Fprintf(&sb, "%-10s %17.1f%% %17.1f%% | %8d %12d %12d\n",
			row.Server, row.BaseRecoverablePct, row.MaskedRecoverablePct,
			row.Injected, row.BaseRecovered, row.MaskedRecovered)
	}
	return sb.String()
}
