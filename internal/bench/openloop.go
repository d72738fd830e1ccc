package bench

import (
	"fmt"
	"io"
	"strings"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/boot"
	"github.com/firestarter-go/firestarter/internal/faultinj"
	"github.com/firestarter-go/firestarter/internal/fleet"
	"github.com/firestarter-go/firestarter/internal/obsv"
	"github.com/firestarter-go/firestarter/internal/replay"
	"github.com/firestarter-go/firestarter/internal/supervisor"
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

	// Spans concatenates the calibration campaign and every rung on one
	// experiment-global clock and trace-ID space (obsvlint trace schema,
	// causality-clean).
	Spans  []obsv.SpanEvent
	Traces int64
}

// openLoopMults is the offered-load sweep, in multiples of the calibrated
// service rate: well under, at, and well past saturation.
var openLoopMults = []float64{0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5}

// fleetBoot builds app's hardened image and returns the replica boot
// function the fleet and open-loop campaigns boot every replica and
// incarnation with (Image.Replica on the Runner's backend).
func (r Runner) fleetBoot(app *apps.App, fault *faultinj.Fault) (fleet.BootFunc, error) {
	o := boot.Options{Fault: fault, Backend: r.Backend}
	img, err := r.build(app, o)
	if err != nil {
		return nil, err
	}
	return img.Replica(o), nil
}

// openRun drives one open-loop rung against a fresh 1-replica fleet.
func (r Runner) openRun(app *apps.App, fault *faultinj.Fault, seed int64, cfg workload.OpenConfig) (*fleetRun, workload.OpenResult, error) {
	bootFn, err := r.fleetBoot(app, fault)
	if err != nil {
		return nil, workload.OpenResult{}, err
	}
	fl := fleet.New(fleet.Config{
		Replicas: 1,
		Port:     app.Port,
		Sup:      supervisor.Config{Seed: seed},
	}, bootFn)
	d := &workload.Driver{
		Port: app.Port,
		Gen:  workload.ForProtocol(app.Protocol),
		Seed: seed,
		Srv:  fl,
		Sink: fl,
	}
	res := d.RunOpen(cfg)
	fl.Finish()
	if err := fl.Err(); err != nil {
		return nil, res, err
	}
	fr := &fleetRun{Res: res.Result, St: fl.Stats(), Spans: fl.Spans(), Wall: fl.Cycles(), Reg: fl.Registry()}
	fr.Sups = append(fr.Sups, fl.SupStats(0))
	return fr, res, nil
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
		f := faults[i]
		fr, err := r.fleetRun(app, &f, 1, r.Seed+1000)
		if err != nil {
			return out, fmt.Errorf("openloop calibration: %w", err)
		}
		if errs := fr.reconcile(); len(errs) > 0 {
			return out, fmt.Errorf("openloop calibration: accounting did not reconcile:\n  %s", strings.Join(errs, "\n  "))
		}
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

	type openJob struct {
		mult float64
		cfg  workload.OpenConfig
	}
	jobs := make([]openJob, len(openLoopMults))
	for i, mult := range openLoopMults {
		jobs[i] = openJob{mult: mult, cfg: workload.OpenConfig{
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
		}}
	}

	runs := make([]*fleetRun, len(jobs))
	open := make([]workload.OpenResult, len(jobs))
	if err := r.forEach(len(jobs), func(i int) error {
		fa := fault
		fr, ores, err := r.openRun(app, &fa, r.Seed+1000*int64(i+2), jobs[i].cfg)
		if err != nil {
			return fmt.Errorf("openloop %.2fx: %w", jobs[i].mult, err)
		}
		if errs := fr.reconcile(); len(errs) > 0 {
			return fmt.Errorf("openloop %.2fx: accounting did not reconcile:\n  %s",
				jobs[i].mult, strings.Join(errs, "\n  "))
		}
		runs[i], open[i] = fr, ores
		return nil
	}); err != nil {
		return out, err
	}

	// Reduce in job order on an experiment-global clock and trace-ID
	// space, calibration campaign first.
	var clock, traceBase int64
	appendSpans := func(spans []obsv.SpanEvent, wall int64, sent int) {
		for _, e := range spans {
			e.Cycles += clock
			if e.Trace != 0 {
				e.Trace += traceBase
			}
			e.Seq = 0
			out.Spans = append(out.Spans, e)
		}
		clock += wall
		traceBase += int64(sent)
	}
	appendSpans(cal.Spans, cal.Wall, cal.Res.Sent)

	recIdx := 0
	for i, j := range jobs {
		fr, ores := runs[i], open[i]
		// Record failing rungs (any unrecovered fault or opened breaker
		// behind the fleet) for firetrace -replay, in job order.
		if r.RecordDir != "" {
			if outcome := replay.FailureOutcome(fr.Spans); outcome != "" {
				fa := fault
				rec := replay.RecordOpenLoop(replay.OpenLoopRun{
					App:         app.Name,
					Backend:     r.Backend,
					Fault:       &fa,
					Seed:        r.Seed + 1000*int64(i+2),
					Proto:       app.Protocol,
					Open:        jobs[i].cfg,
					Outcome:     outcome,
					FinalCycles: fr.Wall,
					Spans:       fr.Spans,
				})
				if _, err := rec.Write(r.RecordDir, fmt.Sprintf("openloop-%03d", recIdx)); err != nil {
					return out, fmt.Errorf("openloop %.2fx: recording: %w", j.mult, err)
				}
				recIdx++
			}
		}
		row := OpenLoopRow{
			Mult:       j.mult,
			Rate:       j.cfg.RatePerMcycle,
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
			out.Knee = j.mult
		}
		out.Rows = append(out.Rows, row)
		appendSpans(fr.Spans, fr.Wall, fr.Res.Sent)
	}
	out.Traces = traceBase
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

// WriteTrace writes the experiment-global span log as JSONL, re-stamped
// with dense sequence numbers (the obsvlint trace schema).
func (o OpenLoopResult) WriteTrace(w io.Writer) error {
	log := &obsv.SpanLog{Limit: len(o.Spans) + 1}
	for _, e := range o.Spans {
		e.Seq = 0
		log.Append(e)
	}
	return log.WriteJSONL(w)
}

// Fingerprint returns the hash-chain value of the experiment-global
// span stream in its exported (densely re-sequenced) form. Identical
// for a fixed seed at any Parallelism.
func (o OpenLoopResult) Fingerprint() uint64 {
	return obsv.Fingerprint(replay.NormalizeSpans(o.Spans))
}
