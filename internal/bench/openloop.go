package bench

import (
	"fmt"
	"strings"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/faultinj"
	"github.com/firestarter-go/firestarter/internal/obsv"
	"github.com/firestarter-go/firestarter/internal/replay"
	"github.com/firestarter-go/firestarter/internal/workload"
)

// OpenLoopRow is one rung of the offered-load ladder: the hardened web
// server (fail-stop fault planted) behind a 1-replica supervised fleet,
// driven open-loop at a fixed multiple of its calibrated service rate.
type OpenLoopRow struct {
	Mult float64 // offered rate as a multiple of the calibrated service rate
	Rate float64 // offered arrivals per Mcycle

	Offered   int
	Done      int // answered (completed + rejected responses)
	Shed      int // abandoned undelivered after patience
	Lost      int // conn-closed + in-flight/queued at run end
	PeakQueue int

	Boots  int
	Deaths int

	WallCycles int64
	Goodput    float64 // answered requests per Mcycle of fleet wall clock

	Clean    obsv.Percentiles
	Recovery obsv.Percentiles
}

// OpenLoopResult is the open-loop latency-vs-offered-load experiment.
type OpenLoopResult struct {
	App      string
	Requests int // arrivals per rung

	// ServiceRate is the closed-loop calibration: answered requests per
	// Mcycle with the same fault planted, so "1.0x" means "exactly what
	// the recovering server can sustain".
	ServiceRate float64

	// Knee is the lowest swept multiplier at which the ladder shed
	// arrivals — where offered load first outruns recovery-inclusive
	// capacity (0 when no rung shed).
	Knee float64

	Rows []OpenLoopRow

	// The stream's first cell is the calibration campaign, then every
	// rung in sweep order.
	stream
}

// openLoopMults is the offered-load sweep, in multiples of the calibrated
// service rate: well under, at, and well past saturation.
var openLoopMults = []float64{0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5}

// openRun drives one open-loop rung against a fresh 1-replica fleet.
// With RecordDir set, a failing rung (any unrecovered fault or opened
// breaker behind the fleet) is captured for firetrace -replay.
func (r Runner) openRun(app *apps.App, fault *faultinj.Fault, seed int64, cfg workload.OpenConfig) (*fleetRun, error) {
	sc := workload.Schedule{Kind: workload.OpenLoop, Proto: app.Protocol, Seed: seed, Open: &cfg}
	fr, err := r.runFleet(app, fault, 1, sc)
	if err != nil {
		return nil, err
	}
	fr.ids = append(fr.ids, openTerminals(fr.Res))
	if r.RecordDir == "" {
		return fr, nil
	}
	if outcome := replay.FailureOutcome(fr.Spans); outcome != "" {
		fr.Recordings = append(fr.Recordings, replay.Record(replay.Manifest{
			Kind:        replay.KindOpenLoop,
			App:         app.Name,
			Backend:     r.Backend,
			Fault:       fault,
			Schedule:    sc,
			Outcome:     outcome,
			FinalCycles: fr.Wall,
		}, fr.Spans))
	}
	return fr, nil
}

// openTerminals is the open-loop accounting identity: every offered
// arrival reaches exactly one terminal.
func openTerminals(res workload.OpenResult) identity {
	return identity{"open-loop terminals (completed+bad_resp+shed+conn_lost+outstanding+abandoned) vs offered",
		int64(res.Completed + res.BadResp + res.Shed + res.ConnLost + res.Outstanding + res.Abandoned),
		int64(res.Offered)}
}

// OpenLoop runs the offered-load sweep. A closed-loop campaign first
// calibrates the hardened server's recovery-inclusive service rate; the
// ladder then offers fixed multiples of it on a Poisson schedule over a
// 20k-client population with churn, slow readers, fragmentation and
// pipelining. Each rung's three accounting surfaces are reconciled and
// the result is byte-identical for a fixed seed at any Parallelism.
func (r Runner) OpenLoop() (OpenLoopResult, error) {
	r = r.withDefaults()
	var out OpenLoopResult
	out.Requests = r.Requests

	app := apps.ByName("nginx")
	if app == nil {
		return out, fmt.Errorf("openloop: app nginx not registered")
	}
	out.App = app.Name
	faults, err := r.planFaults(app, faultinj.FailStop, 3)
	if err != nil {
		return out, fmt.Errorf("openloop: %w", err)
	}
	if len(faults) == 0 {
		return out, fmt.Errorf("openloop: no plantable fail-stop fault in %s", app.Name)
	}

	// Calibration doubles as fault selection: the sweep wants a server
	// that recovers *intermittently* — a fault pinning the runtime in a
	// recovery rung for the whole run (e.g. permanent shedding) leaves no
	// clean traffic to split the latency tail against. Each candidate is
	// driven closed-loop behind the same 1-replica fleet, in plan order,
	// and the first whose campaign survives with both clean and
	// recovery-touched completions wins; its answered-per-wall-cycle rate
	// defines the sweep's 1.0x rung. Selection is serial and seeded, so
	// it is identical at any Parallelism.
	var cal *fleetRun
	var fault faultinj.Fault
	for i := range faults {
		runs, err := runCells(r, 1, func(int) string { return "openloop calibration" },
			func(int) (*fleetRun, error) { return r.fleetRun(app, &faults[i], 1, r.Seed+1000) })
		if err != nil {
			return out, err
		}
		fr := runs[0]
		if cal == nil {
			cal, fault = fr, faults[i] // fallback: the first planted fault
		}
		if !fr.Res.ServerDied && !fr.Res.Stalled &&
			fr.Res.CleanLatency.Count() > 0 && fr.Res.RecoveryLatency.Count() > 0 {
			cal, fault = fr, faults[i]
			break
		}
	}
	answered := cal.Res.Completed + cal.Res.BadResp
	if answered == 0 || cal.Wall <= 0 {
		return out, fmt.Errorf("openloop calibration: no throughput to calibrate against (%+v)", cal.Res)
	}
	out.ServiceRate = float64(answered) / float64(cal.Wall) * 1e6

	// Patience scales with the service time: an arrival waits out ~25
	// mean service times (plenty for a microreboot, far less than a
	// saturated queue's growth) before its client gives up.
	patience := int64(25e6 / out.ServiceRate)

	cfgs := make([]workload.OpenConfig, len(openLoopMults))
	for i, mult := range openLoopMults {
		cfgs[i] = workload.OpenConfig{
			Shape:         workload.ShapePoisson,
			RatePerMcycle: out.ServiceRate * mult,
			Total:         r.Requests,
			Clients:       20000,
			MaxConns:      32,
			PipelineDepth: 2,
			Patience:      patience,
			ChurnEvery:    5,
			SlowEvery:     7,
			FragmentEvery: 11,
		}
	}
	runs, err := runCells(r, len(cfgs), func(i int) string { return fmt.Sprintf("openloop %.2fx", openLoopMults[i]) },
		func(i int) (*fleetRun, error) {
			fa := fault
			return r.openRun(app, &fa, r.Seed+1000*int64(i+2), cfgs[i])
		})
	if err != nil {
		return out, err
	}
	if out.stream, err = reduce(r.RecordDir, "openloop", append([]*fleetRun{cal}, runs...)...); err != nil {
		return out, err
	}

	for i, fr := range runs {
		ores := fr.Res
		row := OpenLoopRow{
			Mult:       openLoopMults[i],
			Rate:       cfgs[i].RatePerMcycle,
			Offered:    ores.Offered,
			Done:       ores.Completed + ores.BadResp,
			Shed:       ores.Shed,
			Lost:       ores.ConnLost + ores.Outstanding + ores.Abandoned,
			PeakQueue:  ores.PeakQueue,
			Boots:      fr.St.Boots,
			Deaths:     fr.St.Deaths,
			WallCycles: fr.Wall,
		}
		if fr.Wall > 0 {
			row.Goodput = float64(row.Done) / float64(fr.Wall) * 1e6
		}
		if ores.CleanLatency != nil {
			row.Clean = ores.CleanLatency.Percentiles()
		}
		if ores.RecoveryLatency != nil {
			row.Recovery = ores.RecoveryLatency.Percentiles()
		}
		if out.Knee == 0 && row.Shed > 0 {
			out.Knee = row.Mult
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render prints the calibration line, the ladder and the knee.
func (o OpenLoopResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Open-loop offered-load sweep: %s behind a 1-replica supervised fleet (%d arrivals per rung, Poisson)\n",
		o.App, o.Requests)
	fmt.Fprintf(&sb, "calibrated service rate: %.2f req/Mcycle (closed loop, fault planted)\n", o.ServiceRate)
	fmt.Fprintf(&sb, "%5s %8s | %7s %7s %6s %6s %6s | %5s %6s | %8s | %11s %11s\n",
		"mult", "rate", "offered", "done", "shed", "lost", "peakq",
		"boots", "deaths", "goodput", "p999(clean)", "p999(recov)")
	for _, row := range o.Rows {
		fmt.Fprintf(&sb, "%4.2fx %8.2f | %7d %7d %6d %6d %6d | %5d %6d | %8.2f | %11d %11d\n",
			row.Mult, row.Rate,
			row.Offered, row.Done, row.Shed, row.Lost, row.PeakQueue,
			row.Boots, row.Deaths, row.Goodput,
			row.Clean.P999, row.Recovery.P999)
	}
	if o.Knee > 0 {
		fmt.Fprintf(&sb, "shedding knee: %.2fx the calibrated service rate\n", o.Knee)
	} else {
		fmt.Fprintf(&sb, "shedding knee: not reached within the sweep\n")
	}
	fmt.Fprintf(&sb, "overall: %d traced requests across %d spans\n", o.Traces, len(o.Spans))
	return sb.String()
}
