package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/bench"
	"github.com/firestarter-go/firestarter/internal/bytecode"
	"github.com/firestarter-go/firestarter/internal/faultinj"
	"github.com/firestarter-go/firestarter/internal/interp"
	"github.com/firestarter-go/firestarter/internal/ir"
	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/mem"
	"github.com/firestarter-go/firestarter/internal/transform"
	"github.com/firestarter-go/firestarter/internal/workload"
)

// workloadDef is one fixed campaign the benchmark times through the same
// public entry point firebench uses.
type workloadDef struct {
	name string
	// runner returns the campaign's parameters for a benchmark seed.
	runner func(seed int64) bench.Runner
	// setup compiles, hardens and lowers every app the campaign boots, and
	// plans its faults, timing each stage into st.
	setup func(r bench.Runner, st *stageTimes) (*prepared, error)
	// run executes one campaign rep through its entry point; the returned
	// summary digests the output afterwards, outside the timed window.
	run func(r bench.Runner) (summary func() campaign, err error)
	// probe drives one representative run through the core seam (see
	// probe.go); seam nil runs it undecorated.
	probe func(r bench.Runner, p *prepared, c campaign, seam *seamCalls) (*probeRun, error)
	// twin names the workload whose guest output must be byte-identical
	// (the backend-equivalence contract); empty when there is none.
	twin string
}

// campaign is what one rep reports back.
type campaign struct {
	digest   string // hash of the rendered guest output
	requests int    // guest requests the campaign drove (deterministic)
	jobs     int    // isolated measurement runs in the campaign

	serviceRate float64 // openloop only: the calibrated req/Mcycle
}

// Campaign sizes. Parallelism stays 1 and Concurrency 4 everywhere: on a
// shared small VM a worker pool measures the neighbours, not the program.
const (
	fig7Requests     = 4000
	chaosRequests    = 40
	chaosFaults      = 4
	openLoopRequests = 800
	concurrency      = 4
)

// Campaign seeds for the fault campaigns. The fault plan follows the seed,
// and the plan decides how much work a rep is: over chaos seeds 1–400, a
// fail-silent fault that livelocks its server until the stall detector
// fires makes a rep cost 5–50 s instead of ~0.5 s, and among the rest the
// heap allocated per rep still ranges 260–450 MB; openloop's cost moves
// ~10x with the calibration fault. A benchmark seed therefore picks one of
// these campaign seeds, screened so every entry does the same work to
// within ~1% of allocated bytes and objects (see README.md, "Seeds").
// Re-screen them when a change moves guest behaviour, as with goldens.
var (
	chaosSeeds    = []int64{64, 98, 109, 163, 246, 289}
	openLoopSeeds = []int64{34, 56, 97}
)

// poolSeed maps benchmark seed 1, 2, ... onto pool[0], pool[1], ...
func poolSeed(pool []int64, seed int64) int64 {
	n := int64(len(pool))
	return pool[((seed-1)%n+n)%n]
}

var workloads = []*workloadDef{
	{
		name:   "fig7-tree",
		runner: func(seed int64) bench.Runner { return fig7Runner(seed, "tree") },
		setup:  func(r bench.Runner, st *stageTimes) (*prepared, error) { return prepareApps(apps.All(), false, st) },
		run:    runFigure7,
		probe:  probeFigure7,
		twin:   "fig7-bytecode",
	},
	{
		name:   "fig7-bytecode",
		runner: func(seed int64) bench.Runner { return fig7Runner(seed, "bytecode") },
		setup:  func(r bench.Runner, st *stageTimes) (*prepared, error) { return prepareApps(apps.All(), true, st) },
		run:    runFigure7,
		probe:  probeFigure7,
		twin:   "fig7-tree",
	},
	{
		name: "chaos",
		runner: func(seed int64) bench.Runner {
			return bench.Runner{
				Requests: chaosRequests, FaultsPerServer: chaosFaults,
				Concurrency: concurrency, Parallelism: 1,
				Seed: poolSeed(chaosSeeds, seed),
			}
		},
		setup: func(r bench.Runner, st *stageTimes) (*prepared, error) {
			p, err := prepareApps(apps.All(), false, st)
			if err != nil {
				return nil, err
			}
			return p, p.planAll(r, chaosPlan(r.FaultsPerServer), st)
		},
		run: func(r bench.Runner) (func() campaign, error) {
			res, err := r.Chaos()
			return func() campaign {
				return campaign{
					digest:   digest(res.Render(), res.Fingerprint()),
					requests: res.Campaigns * res.Requests,
					jobs:     res.Campaigns,
				}
			}, err
		},
		probe: probeChaos,
	},
	{
		name: "openloop",
		runner: func(seed int64) bench.Runner {
			return bench.Runner{
				Requests: openLoopRequests, Concurrency: concurrency, Parallelism: 1,
				Seed: poolSeed(openLoopSeeds, seed),
			}
		},
		setup: func(r bench.Runner, st *stageTimes) (*prepared, error) {
			p, err := prepareApps([]*apps.App{apps.ByName("nginx")}, false, st)
			if err != nil {
				return nil, err
			}
			return p, p.planAll(r, []kindPlan{{faultinj.FailStop, 3}}, st)
		},
		run: func(r bench.Runner) (func() campaign, error) {
			res, err := r.OpenLoop()
			return func() campaign {
				c := campaign{
					digest:      digest(res.Render(), res.Fingerprint()),
					jobs:        len(res.Rows),
					serviceRate: res.ServiceRate,
				}
				for _, row := range res.Rows {
					c.requests += row.Offered
				}
				return c
			}, err
		},
		probe: probeOpenLoop,
	},
}

func fig7Runner(seed int64, backend string) bench.Runner {
	return bench.Runner{
		Requests: fig7Requests, Concurrency: concurrency, Parallelism: 1,
		Seed: seed, Backend: backend,
	}
}

func runFigure7(r bench.Runner) (func() campaign, error) {
	res, err := r.Figure7()
	return func() campaign {
		const variants = 4 // vanilla, HTM-only, STM-only, hybrid per server
		return campaign{
			digest:   digest(res.Render() + res.RenderFigure8()),
			requests: len(res.Rows) * variants * r.Requests,
			jobs:     len(res.Rows) * variants,
		}
	}, err
}

func lookupWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// digest commits to a campaign's rendered output (plus the span-stream
// fingerprint where there is one): equal digests mean byte-identical guest
// results.
func digest(render string, fingerprint ...uint64) string {
	h := sha256.New()
	h.Write([]byte(render))
	for _, f := range fingerprint {
		fmt.Fprintf(h, "span fingerprint: %016x\n", f)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// stageTimes accumulates the set-up stages the benchmark times around its
// own calls into each layer.
type stageTimes struct {
	compile, apply, lower, plan time.Duration
}

// prepared is a set-up's output: each app's compiled program and fault
// plan, which the probe boots from.
type prepared struct {
	apps   []*apps.App
	progs  map[string]*ir.Program
	faults map[string][]faultinj.Fault // fail-stop plan per app
}

// prepareApps compiles and hardens every app (and, for the bytecode
// backend, lowers both the vanilla and the hardened program), as the
// campaign's boots do.
func prepareApps(list []*apps.App, lower bool, st *stageTimes) (*prepared, error) {
	p := &prepared{apps: list, progs: map[string]*ir.Program{}, faults: map[string][]faultinj.Fault{}}
	for _, app := range list {
		t := time.Now()
		prog, err := app.Compile()
		st.compile += time.Since(t)
		if err != nil {
			return nil, err
		}
		p.progs[app.Name] = prog

		t = time.Now()
		tr, err := transform.Apply(prog, nil)
		st.apply += time.Since(t)
		if err != nil {
			return nil, err
		}
		if !lower {
			continue
		}
		t = time.Now()
		vanilla := prog.Clone()
		err = vanilla.Resolve()
		if err == nil {
			_, err = bytecode.Compile(vanilla)
		}
		if err == nil {
			_, err = bytecode.Compile(tr.Prog)
		}
		st.lower += time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("lowering %s: %w", app.Name, err)
		}
	}
	return p, nil
}

// kindPlan asks for up to max faults of one kind per app.
type kindPlan struct {
	kind faultinj.Kind
	max  int
}

// chaosPlan mirrors the chaos campaign's per-app fault matrix: the full
// budget of fail-stop faults plus a share of each fail-silent kind.
func chaosPlan(faultsPerServer int) []kindPlan {
	silent := []faultinj.Kind{faultinj.FlipBranch, faultinj.CorruptConst, faultinj.WrongOperator, faultinj.OffByOne}
	plan := []kindPlan{{faultinj.FailStop, faultsPerServer}}
	for _, k := range silent {
		plan = append(plan, kindPlan{k, faultsPerServer/len(silent) + 1})
	}
	return plan
}

// planAll profiles every app under its standard workload (the §VI-B
// methodology: startup vs serving blocks) and plans each kind of fault
// from the serving blocks, keeping the fail-stop plan for the probe.
func (p *prepared) planAll(r bench.Runner, kinds []kindPlan, st *stageTimes) error {
	t := time.Now()
	defer func() { st.plan += time.Since(t) }()
	for _, app := range p.apps {
		prog := p.progs[app.Name]
		osim := libsim.New(mem.NewSpace())
		if app.Setup != nil {
			app.Setup(osim)
		}
		m, err := interp.New(prog.Clone(), osim, nil)
		if err != nil {
			return err
		}
		profile := faultinj.NewProfile()
		m.BlockHook = profile.HookFunc
		m.Run(5_000_000) // startup until the first block on I/O
		profile.MarkServing()
		d := &workload.Driver{
			OS: osim, M: m, Port: app.Port,
			Gen:         workload.ForProtocol(app.Protocol),
			Concurrency: r.Concurrency, Seed: r.Seed,
		}
		d.Run(r.Requests / 2)
		candidates := profile.ServingBlocks(prog.Entry)
		for _, k := range kinds {
			faults := faultinj.PlanFaults(prog, candidates, k.kind, k.max, r.Seed)
			if k.kind == faultinj.FailStop {
				p.faults[app.Name] = faults
			}
		}
		if len(p.faults[app.Name]) == 0 {
			return fmt.Errorf("no plantable fail-stop fault in %s", app.Name)
		}
	}
	return nil
}
