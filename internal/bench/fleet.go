package bench

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/faultinj"
	"github.com/firestarter-go/firestarter/internal/fleet"
	"github.com/firestarter-go/firestarter/internal/obsv"
	"github.com/firestarter-go/firestarter/internal/supervisor"
	"github.com/firestarter-go/firestarter/internal/workload"
)

// FleetRow aggregates the fleet scaling experiment at one replica count:
// every app x fault-kind campaign of the chaos matrix run behind the
// balancer, with goodput (completed requests per Mcycle of fleet wall
// clock) and the clean/recovery tail-latency split.
type FleetRow struct {
	Replicas  int
	Campaigns int
	Survived  int // campaigns that never lost the whole fleet

	Completed int
	Lost      int

	// Fleet-tier event totals across the row's campaigns.
	Boots     int
	Deaths    int
	Failovers int
	Drains    int // boundary + deadline-forced drain handoffs
	Parked    int
	Breakers  int // replica breakers opened (not necessarily the whole fleet)

	WallCycles int64
	Goodput    float64 // completed requests per Mcycle of wall clock
	ScaleX     float64 // goodput relative to the 1-replica row

	Clean    obsv.Percentiles
	Recovery obsv.Percentiles

	cleanHist *obsv.Hist
	recovHist *obsv.Hist
}

// FleetResult is the replica-scaling chaos experiment outcome.
type FleetResult struct {
	Rows      []FleetRow
	Requests  int
	Campaigns int
	Survived  int

	// Spans is every campaign's merged span log concatenated on a single
	// experiment-global clock and trace-ID space (obsvlint trace schema,
	// causality-clean).
	Spans  []obsv.SpanEvent
	Traces int64
}

// fleetRun is one fleet campaign: a replicated supervised fleet of app
// instances (all carrying the same seeded fault) behind the balancer,
// driven to workload completion.
type fleetRun struct {
	Res  workload.Result
	St   fleet.Stats
	Sups []supervisor.Stats

	Spans []obsv.SpanEvent
	Wall  int64
	Reg   *obsv.Registry
}

// fleetRun boots and drives one campaign. Every replica incarnation is a
// full hardened boot with spans enabled and its quiesce point armed; the
// incarnation's HTM interrupt seed is the replica supervisor's
// per-incarnation seed, so no two incarnations anywhere in the fleet
// replay the same interrupt process.
func (r Runner) fleetRun(app *apps.App, fault *faultinj.Fault, size int, seed int64) (*fleetRun, error) {
	fcfg := fleet.Config{
		Replicas: size,
		Port:     app.Port,
		Sup:      supervisor.Config{Seed: seed},
	}
	bootFn, err := r.fleetBoot(app, fault)
	if err != nil {
		return nil, err
	}
	fl := fleet.New(fcfg, bootFn)
	d := &workload.Driver{
		Port:        app.Port,
		Gen:         workload.ForProtocol(app.Protocol),
		Concurrency: r.Concurrency,
		Seed:        seed,
		Srv:         fl,
		Sink:        fl,
	}
	res := d.Run(r.Requests)
	fl.Finish()
	if err := fl.Err(); err != nil {
		return nil, err
	}
	fr := &fleetRun{Res: res, St: fl.Stats(), Spans: fl.Spans(), Wall: fl.Cycles(), Reg: fl.Registry()}
	for i := 0; i < size; i++ {
		fr.Sups = append(fr.Sups, fl.SupStats(i))
	}
	return fr, nil
}

// reconcile cross-checks the campaign's three accounting surfaces — the
// fleet/supervisor/runtime stats, the published metrics registry, and the
// merged span log — and returns every discrepancy. Zero silent deaths:
// every incarnation death must be attributed to a reboot or a breaker,
// and every traced request to exactly one terminal.
func (fr *fleetRun) reconcile() []string {
	st := fr.St
	tot := slices.Clone(st.Runtime)
	fleet.Metrics.AddTo(&tot, &st)
	for i := range fr.Sups {
		supervisor.Metrics.AddTo(&tot, &fr.Sups[i])
	}
	errs := tot.CheckMetrics(fr.Reg)

	// Cross-surface identities: the supervisors' view of each event vs
	// the balancer's, zero silent deaths (every incarnation death is a
	// reboot or a breaker), and one terminal per traced request.
	for _, id := range []struct {
		name      string
		got, want int64
	}{
		{"supervisor incarnations vs fleet boots", tot.Get("supervisor.incarnations"), tot.Get("fleet.boots")},
		{"supervisor state_lost vs fleet deaths", tot.Get("supervisor.state_lost"), tot.Get("fleet.deaths")},
		{"supervisor conns_lost vs fleet conns_lost", tot.Get("supervisor.conns_lost"), tot.Get("fleet.conns_lost")},
		{"fleet breakers vs supervisor breakers", tot.Get("fleet.breakers_open"), tot.Get("supervisor.breaker_open")},
		{"silent deaths (state_lost vs restarts+breakers)", tot.Get("supervisor.state_lost"),
			tot.Get("supervisor.restarts") + tot.Get("supervisor.breaker_open")},
		{"terminals vs sent", st.ReqsDone + st.ReqsLost, int64(fr.Res.Sent)},
	} {
		if id.got != id.want {
			errs = append(errs, fmt.Sprintf("%s: %d != %d", id.name, id.got, id.want))
		}
	}

	// Span-log cross-check (skipped when the bounded log overflowed).
	if st.Dropped == 0 {
		errs = append(errs, tot.CheckSpans(fr.Spans)...)
		errs = append(errs, obsv.CheckCausality(fr.Spans)...)
	}
	return errs
}

// fleetSizes is the paper-style scaling sweep.
var fleetSizes = []int{1, 2, 4, 8}

// Fleet runs the replica-scaling chaos experiment: the chaos fault matrix
// (fail-stop + fail-silent x all five apps, one planted fault per cell)
// with every campaign replicated behind the deterministic L4 balancer at
// each requested replica count (default 1/2/4/8). Every campaign's three
// accounting surfaces are reconciled; the result is byte-identical for a
// fixed seed at any Parallelism.
func (r Runner) Fleet(sizes ...int) (FleetResult, error) {
	r = r.withDefaults()
	if len(sizes) == 0 {
		sizes = fleetSizes
	}
	var out FleetResult
	out.Requests = r.Requests

	// Plan serially: one planted fault per app x kind cell, shared by
	// every replica of every campaign that runs the cell (a homogeneous
	// fleet with a seeded bug).
	type fleetJob struct {
		app   *apps.App
		kind  faultinj.Kind
		fault faultinj.Fault
		size  int
	}
	var jobs []fleetJob
	for _, app := range apps.All() {
		for _, kind := range chaosKinds {
			faults, err := r.planFaults(app, kind, 1)
			if err != nil {
				return out, fmt.Errorf("fleet %s/%s: %w", app.Name, kind, err)
			}
			if len(faults) == 0 {
				continue
			}
			for _, size := range sizes {
				jobs = append(jobs, fleetJob{app: app, kind: kind, fault: faults[0], size: size})
			}
		}
	}

	runs := make([]*fleetRun, len(jobs))
	if err := r.forEach(len(jobs), func(i int) error {
		j := jobs[i]
		f := j.fault
		fr, err := r.fleetRun(j.app, &f, j.size, r.Seed+1000*int64(i+1))
		if err != nil {
			return fmt.Errorf("fleet %s/%s x%d: %w", j.app.Name, j.kind, j.size, err)
		}
		if errs := fr.reconcile(); len(errs) > 0 {
			return fmt.Errorf("fleet %s/%s x%d: accounting did not reconcile:\n  %s",
				j.app.Name, j.kind, j.size, strings.Join(errs, "\n  "))
		}
		runs[i] = fr
		return nil
	}); err != nil {
		return out, err
	}

	// Reduce in job order: rows aggregate per size; spans concatenate on
	// an experiment-global clock and trace-ID space so the merged log is
	// causally valid across campaigns at any Parallelism.
	rowIdx := map[int]int{}
	var clock, traceBase int64
	for i, j := range jobs {
		fr := runs[i]
		idx, ok := rowIdx[j.size]
		if !ok {
			idx = len(out.Rows)
			rowIdx[j.size] = idx
			out.Rows = append(out.Rows, FleetRow{
				Replicas: j.size, cleanHist: obsv.NewHist(), recovHist: obsv.NewHist(),
			})
		}
		row := &out.Rows[idx]
		row.Campaigns++
		out.Campaigns++
		survived := !fr.Res.ServerDied && !fr.Res.Stalled
		if survived {
			row.Survived++
			out.Survived++
		}
		row.Completed += fr.Res.Completed
		row.Lost += r.Requests - fr.Res.Completed
		row.Boots += fr.St.Boots
		row.Deaths += fr.St.Deaths
		row.Failovers += fr.St.Failovers
		row.Drains += fr.St.Drains + fr.St.DrainExpired
		row.Parked += fr.St.Parked
		row.Breakers += fr.St.BreakersOpen
		row.WallCycles += fr.Wall
		if fr.Res.CleanLatency != nil {
			row.cleanHist.Merge(fr.Res.CleanLatency)
		}
		if fr.Res.RecoveryLatency != nil {
			row.recovHist.Merge(fr.Res.RecoveryLatency)
		}
		for _, e := range fr.Spans {
			e.Cycles += clock
			if e.Trace != 0 {
				e.Trace += traceBase
			}
			e.Seq = 0
			out.Spans = append(out.Spans, e)
		}
		clock += fr.Wall
		traceBase += int64(fr.Res.Sent)
	}
	out.Traces = traceBase

	var base float64
	for i := range out.Rows {
		row := &out.Rows[i]
		if row.WallCycles > 0 {
			row.Goodput = float64(row.Completed) / float64(row.WallCycles) * 1e6
		}
		if i == 0 {
			base = row.Goodput
		}
		if base > 0 {
			row.ScaleX = row.Goodput / base
		}
		row.Clean = row.cleanHist.Percentiles()
		row.Recovery = row.recovHist.Percentiles()
	}
	return out, nil
}

// Render prints the scaling table plus the experiment summary.
func (f FleetResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fleet scaling: chaos fault matrix behind the L4 balancer (%d requests per campaign)\n", f.Requests)
	fmt.Fprintf(&sb, "%4s %5s %4s | %9s %6s | %5s %6s %8s %6s %6s %4s | %8s %6s | %11s %11s\n",
		"reps", "camps", "surv",
		"completed", "lost",
		"boots", "deaths", "failover", "drain", "parked", "brk",
		"goodput", "scale",
		"p999(clean)", "p999(recov)")
	for _, row := range f.Rows {
		fmt.Fprintf(&sb, "%4d %5d %4d | %9d %6d | %5d %6d %8d %6d %6d %4d | %8.2f %5.2fx | %11d %11d\n",
			row.Replicas, row.Campaigns, row.Survived,
			row.Completed, row.Lost,
			row.Boots, row.Deaths, row.Failovers, row.Drains, row.Parked, row.Breakers,
			row.Goodput, row.ScaleX,
			row.Clean.P999, row.Recovery.P999)
	}
	pct := 0.0
	if f.Campaigns > 0 {
		pct = float64(f.Survived) / float64(f.Campaigns) * 100
	}
	fmt.Fprintf(&sb, "overall: %d/%d campaigns survived (%.1f%%), %d traced requests across %d spans\n",
		f.Survived, f.Campaigns, pct, f.Traces, len(f.Spans))
	return sb.String()
}

// WriteTrace writes the experiment-global span log as JSONL, re-stamped
// with dense sequence numbers (the obsvlint trace schema).
func (f FleetResult) WriteTrace(w io.Writer) error {
	log := &obsv.SpanLog{Limit: len(f.Spans) + 1}
	for _, e := range f.Spans {
		e.Seq = 0
		log.Append(e)
	}
	return log.WriteJSONL(w)
}
