// Package bench regenerates every table and figure of the paper's
// evaluation (§VI). Each experiment returns a typed result with a Render
// method that prints the same rows/series the paper reports; the
// EXPERIMENTS.md file records paper-vs-measured for each.
//
// All experiments are deterministic: workloads, fault plans and the HTM
// interrupt process are seeded, and the performance metric is the
// interpreter's cost-model cycle count rather than wall-clock time.
package bench

import (
	"math"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/boot"
	"github.com/firestarter-go/firestarter/internal/faultinj"
	"github.com/firestarter-go/firestarter/internal/workload"
)

// Runner parameterizes all experiments.
type Runner struct {
	// Requests per measurement run (default 300).
	Requests int
	// Concurrency is the number of simulated clients (default 4).
	Concurrency int
	// Seed drives workload mixes, fault planning and the interrupt
	// process.
	Seed int64
	// FaultsPerServer bounds the Table IV fault campaigns (default 12).
	FaultsPerServer int

	// Parallelism bounds the worker pool the experiment campaigns fan
	// their isolated measurement runs across. Values <= 1 run serially.
	// Results are identical either way: every run is hermetically seeded
	// and results are assembled in job order (see parallel.go).
	Parallelism int

	// Backend selects the interpreter execution strategy for every
	// machine the experiments boot: "" or "tree" for the tree-walker,
	// "bytecode" for the compiled-bytecode backend. The two are
	// bit-identical in every observable (outcomes, cycles, stats,
	// rendered tables); the diff-smoke harness enforces it.
	Backend string

	// RecordDir, when set, arms the flight recorder: supervised
	// campaigns capture a replay manifest (plus companion span stream)
	// for every incarnation that ends unrecovered or with the breaker
	// open, and the open-loop sweep records every failing rung. Files
	// land in this directory, named in reduction (job) order so the set
	// is identical at any Parallelism. Empty (the default) records
	// nothing and changes no output.
	RecordDir string
}

func (r Runner) withDefaults() Runner {
	if r.Requests == 0 {
		r.Requests = 300
	}
	if r.Concurrency == 0 {
		r.Concurrency = 4
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.FaultsPerServer == 0 {
		r.FaultsPerServer = 12
	}
	return r
}

// boot boots app on the Runner's backend. Every single-machine boot of
// the harness goes through here, so none can miss the -backend selection.
func (r Runner) boot(app *apps.App, o boot.Options) (*boot.Instance, error) {
	o.Backend = r.Backend
	return boot.App(app, o)
}

// drive runs the app's standard workload against the instance.
func (r Runner) drive(inst *boot.Instance) workload.Result {
	d := &workload.Driver{
		OS: inst.OS, M: inst.M, Port: inst.App.Port,
		Gen:         workload.ForProtocol(inst.App.Protocol),
		Concurrency: r.Concurrency,
		Seed:        r.Seed,
	}
	return d.Run(r.Requests)
}

// measure boots and drives, returning cycles/request plus the instance for
// stat extraction.
func (r Runner) measure(app *apps.App, o boot.Options) (*boot.Instance, workload.Result, error) {
	inst, err := r.boot(app, o)
	if err != nil {
		return nil, workload.Result{}, err
	}
	res := r.drive(inst)
	return inst, res, nil
}

// overheadPct converts a variant/baseline cycles-per-request pair into the
// paper's "normalized performance overhead" percentage. Dead-server runs
// report +Inf cycles/request (Result.CyclesPerRequest); any non-finite
// input would poison the whole column, so the aggregation degrades to 0
// and the run's death stays visible through the completed/failed columns.
func overheadPct(variant, baseline float64) float64 {
	if baseline == 0 || math.IsInf(variant, 0) || math.IsInf(baseline, 0) {
		return 0
	}
	return (variant/baseline - 1) * 100
}

// libFault compiles app and returns the fail-stop fault at the block
// holding fn's nth call to lib (faultinj.AtLibCall).
func libFault(app *apps.App, fn, lib string, nth int) (faultinj.Fault, error) {
	prog, err := app.Compile()
	if err != nil {
		return faultinj.Fault{}, err
	}
	return faultinj.AtLibCall(prog, fn, lib, nth)
}

// planFaults profiles app under half the Runner's workload and plans
// faults in non-critical executed blocks (the §VI-B methodology).
func (r Runner) planFaults(app *apps.App, kind faultinj.Kind, max int) ([]faultinj.Fault, error) {
	return boot.PlanFaults(app, kind, max, r.Requests/2, r.Concurrency, r.Seed, r.Backend)
}
