package bench

import (
	"fmt"
	"slices"
	"strings"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/boot"
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

	stream
}

// fleetRun is one fleet campaign: a replicated supervised fleet of app
// instances (all carrying the same seeded fault) behind the balancer,
// driven to workload completion. Closed-loop runs fill only Res.Result.
type fleetRun struct {
	cell

	Res workload.OpenResult
	St  fleet.Stats
}

// fleetRun drives one closed-loop campaign of r.Requests requests
// against a fresh fleet of size replicas.
func (r Runner) fleetRun(app *apps.App, fault *faultinj.Fault, size int, seed int64) (*fleetRun, error) {
	return r.runFleet(app, fault, size, workload.Schedule{
		Kind:        workload.ClosedLoop,
		Proto:       app.Protocol,
		Seed:        seed,
		Requests:    r.Requests,
		Concurrency: r.Concurrency,
	})
}

// runFleet builds app's hardened image and drives sc against a fleet of
// size replicas booting every replica and incarnation from it
// (Image.RunFleet on the Runner's backend), then harvests the finished
// fleet into a cell: Totals sum the replica runtimes', the balancer's and
// every replica supervisor's tables, and the cell carries the
// balancer-vs-supervisor identities and one terminal per traced request.
func (r Runner) runFleet(app *apps.App, fault *faultinj.Fault, size int, sc workload.Schedule) (*fleetRun, error) {
	o := boot.Options{Fault: fault, Backend: r.Backend}
	img, err := r.build(app, o)
	if err != nil {
		return nil, err
	}
	fl, res, err := img.RunFleet(o, size, sc)
	if err != nil {
		return nil, err
	}
	st := fl.Stats()
	fr := &fleetRun{Res: res, St: st, cell: cell{
		Totals:   slices.Clone(st.Runtime),
		Registry: fl.Registry(),
		Spans:    fl.Spans(),
		Dropped:  st.Dropped,
		Wall:     fl.Cycles(),
		Traces:   int64(res.Sent),
	}}
	tot := &fr.Totals
	fleet.Metrics.AddTo(tot, &st)
	for i := 0; i < st.Replicas; i++ {
		sup := fl.SupStats(i)
		supervisor.Metrics.AddTo(tot, &sup)
	}
	fr.ids = []identity{
		{"supervisor incarnations vs fleet boots", tot.Get("supervisor.incarnations"), tot.Get("fleet.boots")},
		{"supervisor state_lost vs fleet deaths", tot.Get("supervisor.state_lost"), tot.Get("fleet.deaths")},
		{"supervisor conns_lost vs fleet conns_lost", tot.Get("supervisor.conns_lost"), tot.Get("fleet.conns_lost")},
		{"fleet breakers vs supervisor breakers", tot.Get("fleet.breakers_open"), tot.Get("supervisor.breaker_open")},
		{"terminals vs sent", st.ReqsDone + st.ReqsLost, fr.Traces},
	}
	return fr, nil
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
	out := FleetResult{Requests: r.Requests}

	// One planted fault per app x kind cell, shared by every replica of
	// every campaign that runs the cell (a homogeneous fleet with a
	// seeded bug).
	cells, err := r.planMatrix("fleet", apps.All(), chaosKinds, func(faultinj.Kind) int { return 1 })
	if err != nil {
		return out, err
	}
	type fleetJob struct {
		faultCell
		size int
	}
	var jobs []fleetJob
	for _, c := range cells {
		for _, size := range sizes {
			jobs = append(jobs, fleetJob{c, size})
		}
	}
	runs, err := runCells(r, len(jobs), func(i int) string {
		j := jobs[i]
		return fmt.Sprintf("fleet %s/%s x%d", j.app.Name, j.kind, j.size)
	}, func(i int) (*fleetRun, error) {
		return r.fleetRun(jobs[i].app, &jobs[i].fault, jobs[i].size, r.Seed+1000*int64(i+1))
	})
	if err != nil {
		return out, err
	}
	if out.stream, err = reduce(r.RecordDir, "fleet", runs...); err != nil {
		return out, err
	}

	var rows rowFold[int, FleetRow]
	for i, j := range jobs {
		fr := runs[i]
		row := rows.row(j.size, func() FleetRow {
			return FleetRow{Replicas: j.size, cleanHist: obsv.NewHist(), recovHist: obsv.NewHist()}
		})
		row.Campaigns++
		out.Campaigns++
		if !fr.Res.ServerDied && !fr.Res.Stalled {
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
	}
	out.Rows = rows.rows

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
