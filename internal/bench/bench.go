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
	"sync"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/boot"
	"github.com/firestarter-go/firestarter/internal/faultinj"
	"github.com/firestarter-go/firestarter/internal/ir"
	"github.com/firestarter-go/firestarter/internal/workload"
)

// The title each single-table experiment's Render prints first; firebench
// -list describes the experiment by it.
const (
	TableIITitle   = "Table II: library functions by recoverability × diversion"
	TableIIITitle  = "Table III: runtime recoverable surface (standard workloads)"
	TableIVTitle   = "Table IV: crash recovery effectiveness against injected persistent faults"
	Figure3Title   = "Figure 3: adaptive transaction policies on Nginx"
	Figure5Title   = "Figure 5: crash recovery latency (cost-model µs)"
	Figure6Title   = "Figure 6: dynamic adaptation sweep — degradation % by (threshold, sample size)"
	Figure7Title   = "Figure 7: normalized runtime overhead (% over vanilla)"
	Figure8Title   = "Figure 8: HTM transaction abort rate (%)"
	Figure9Title   = "Figure 9: normalized mean memory overhead (% over vanilla)"
	RealWorldTitle = "§VI-F: real-world bug reproductions"
	WindowsTitle   = "Crash-transaction windows: small and frequent (abstract's claim)"
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

	// progs, profiles and images memoize, for one experiment call, each
	// app's compile, its fault-planning profile and its unplanted images
	// of the default model: withDefaults creates them when the experiment
	// starts, and they are dropped when it returns. Nil outside an
	// experiment call, where nothing is memoized.
	progs    *memo[appID, *ir.Program]
	profiles *memo[profileKey, *boot.ServingProfile]
	images   *memo[imageKey, *boot.Image]
}

// appID identifies an app by what it compiles to.
type appID struct{ name, source string }

// profileKey identifies a fault-planning profile: the app and the run it
// profiles.
type profileKey struct {
	app               appID
	requests, clients int
	seed              int64
	backend           string
}

// imageKey identifies an unplanted image of the default model.
type imageKey struct {
	app     appID
	vanilla bool
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
	if r.progs == nil {
		r.progs = &memo[appID, *ir.Program]{}
		r.profiles = &memo[profileKey, *boot.ServingProfile]{}
		r.images = &memo[imageKey, *boot.Image]{}
	}
	return r
}

// memo computes one value per key, once: each app is compiled once,
// profiled for fault planning once, and built once hardened and once
// vanilla, however many images and fault plans an experiment derives from
// it. Concurrent lookups of one key wait for a single computation; a nil
// memo computes every lookup afresh. Only unplanted images of the default
// model are memoized; every planted image is derived from one of them
// (boot.Image.Plant), is held by the run or campaign that boots from it
// and is freed with its holder.
type memo[K comparable, T any] struct {
	mu      sync.Mutex
	entries map[K]*memoEntry[T]
}

type memoEntry[T any] struct {
	once sync.Once
	v    T
	err  error
}

// get returns the value for key, computing it with fn on first use.
func (m *memo[K, T]) get(key K, fn func() (T, error)) (T, error) {
	if m == nil {
		return fn()
	}
	m.mu.Lock()
	e := m.entries[key]
	if e == nil {
		if m.entries == nil {
			m.entries = map[K]*memoEntry[T]{}
		}
		e = &memoEntry[T]{}
		m.entries[key] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.v, e.err = fn() })
	return e.v, e.err
}

// appKey identifies what an app compiles to: apps of one name and source
// are the same app.
func appKey(app *apps.App) appID { return appID{app.Name, app.Source} }

// compile returns app's compiled program, compiled once per experiment
// call. The program is shared, so it is only ever read: every image is
// built from a copy.
func (r Runner) compile(app *apps.App) (*ir.Program, error) {
	return r.progs.get(appKey(app), app.Compile)
}

// build returns app's image for o. With the default model, the
// experiment's unplanted image of app (hardened, or vanilla for
// o.Vanilla) is built once and shared: an unplanted build returns it, and
// a planted one plants o.Fault into it.
func (r Runner) build(app *apps.App, o boot.Options) (*boot.Image, error) {
	if o.Model != nil {
		prog, err := r.compile(app)
		if err != nil {
			return nil, err
		}
		return boot.BuildCompiled(app, prog, o)
	}
	base, err := r.images.get(imageKey{appKey(app), o.Vanilla}, func() (*boot.Image, error) {
		prog, err := r.compile(app)
		if err != nil {
			return nil, err
		}
		return boot.BuildCompiled(app, prog, boot.Options{Vanilla: o.Vanilla})
	})
	if err != nil || o.Fault == nil {
		return base, err
	}
	return base.Plant(*o.Fault)
}

// buildAll builds one image per app with o, fanned across the pool.
func (r Runner) buildAll(list []*apps.App, o boot.Options) ([]*boot.Image, error) {
	imgs := make([]*boot.Image, len(list))
	err := r.forEach(len(list), func(i int) error {
		img, err := r.build(list[i], o)
		imgs[i] = img
		return err
	})
	return imgs, err
}

// buildPair builds a vanilla and a hardened image of every app in list:
// the baseline, and the image every protection mode boots.
func (r Runner) buildPair(list []*apps.App) (vanilla, hardened []*boot.Image, err error) {
	if vanilla, err = r.buildAll(list, boot.Options{Vanilla: true}); err != nil {
		return nil, nil, err
	}
	hardened, err = r.buildAll(list, boot.Options{})
	return vanilla, hardened, err
}

// bootImage boots img on the Runner's backend. Every single-machine boot
// of the harness goes through here, so none can miss the -backend
// selection.
func (r Runner) bootImage(img *boot.Image, o boot.Options) (*boot.Instance, error) {
	o.Backend = r.Backend
	return img.Boot(o)
}

// boot builds app and boots it once.
func (r Runner) boot(app *apps.App, o boot.Options) (*boot.Instance, error) {
	img, err := r.build(app, o)
	if err != nil {
		return nil, err
	}
	return r.bootImage(img, o)
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

// measure builds app, boots it and drives it, returning cycles/request
// plus the instance for stat extraction.
func (r Runner) measure(app *apps.App, o boot.Options) (*boot.Instance, workload.Result, error) {
	img, err := r.build(app, o)
	if err != nil {
		return nil, workload.Result{}, err
	}
	return r.measureImage(img, o)
}

// measureImage boots img and drives it, like measure.
func (r Runner) measureImage(img *boot.Image, o boot.Options) (*boot.Instance, workload.Result, error) {
	inst, err := r.bootImage(img, o)
	if err != nil {
		return nil, workload.Result{}, err
	}
	res := r.drive(inst)
	return inst, res, nil
}

// isWebServer reports whether the named app is one of the web servers,
// the apps Table III and Figure 5 cover.
func isWebServer(name string) bool {
	for _, app := range apps.WebServers() {
		if app.Name == name {
			return true
		}
	}
	return false
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

// libFault returns the fail-stop fault at the block holding fn's nth call
// to lib in app (faultinj.AtLibCall).
func (r Runner) libFault(app *apps.App, fn, lib string, nth int) (faultinj.Fault, error) {
	prog, err := r.compile(app)
	if err != nil {
		return faultinj.Fault{}, err
	}
	return faultinj.AtLibCall(prog, fn, lib, nth)
}

// planFaults profiles app under half the Runner's workload and plans
// faults in non-critical executed blocks (the §VI-B methodology). The
// profile is taken once per app and experiment call and plans every
// fault kind.
func (r Runner) planFaults(app *apps.App, kind faultinj.Kind, max int) ([]faultinj.Fault, error) {
	key := profileKey{appKey(app), r.Requests / 2, r.Concurrency, r.Seed, r.Backend}
	p, err := r.profiles.get(key, func() (*boot.ServingProfile, error) {
		prog, err := r.compile(app)
		if err != nil {
			return nil, err
		}
		return boot.Profile(app, prog, r.Requests/2, r.Concurrency, r.Seed, r.Backend)
	})
	if err != nil {
		return nil, err
	}
	return p.Plan(kind, max, r.Seed), nil
}
