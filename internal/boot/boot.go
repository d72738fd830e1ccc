// Package boot owns the order in which a server is brought up, in two
// steps. Build does the config-independent work once: compile, harden
// (unless vanilla) and link, producing an immutable Image, and plant the
// fault, if any, into it. Image.Plant derives a planted image from a
// built one: it copies, plants and re-hardens only the functions the
// fault changes and shares the rest with the image it plants into.
// Boot does the per-run work from an image: build the simulated OS and
// run its setup, attach the recovery runtime, load, select the
// interpreter backend and, for supervised boots, run to the quiesce
// point. A microreboot boots again from the image it already holds; it
// does not rebuild. The experiment harness, the flight recorder's replay
// and the public API all boot through this package, so a replayed run
// reboots its recorded world through the very code that booted the
// original.
package boot

import (
	"fmt"
	"sync"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/core"
	"github.com/firestarter-go/firestarter/internal/faultinj"
	"github.com/firestarter-go/firestarter/internal/fleet"
	"github.com/firestarter-go/firestarter/internal/interp"
	"github.com/firestarter-go/firestarter/internal/ir"
	"github.com/firestarter-go/firestarter/internal/libmodel"
	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/mem"
	"github.com/firestarter-go/firestarter/internal/supervisor"
	"github.com/firestarter-go/firestarter/internal/transform"
	"github.com/firestarter-go/firestarter/internal/workload"
)

// startupSteps bounds the run from boot to the first block on I/O.
const startupSteps = 5_000_000

// Options configures a build and a boot. Build reads the build-time
// fields (Vanilla, Fault, Model); Boot reads the boot-time ones (Core,
// Backend, Prelatch) and ignores the rest, which its image fixed.
type Options struct {
	// Vanilla loads the program as compiled: no hardening, no runtime.
	Vanilla bool
	// Core configures the recovery runtime of a hardened boot.
	Core core.Config
	// Fault, when set, is planted into the built image (Image.Plant).
	Fault *faultinj.Fault
	// Model is the library model the hardening passes consult (nil:
	// libmodel.Default()).
	Model *libmodel.Model
	// Backend names the interpreter backend (see CheckBackend).
	Backend string
	// Prelatch pins these gate sites to STM before the first instruction.
	Prelatch []int
}

// Image is a built server program: compiled, hardened (unless vanilla),
// linked and possibly fault-planted. It is immutable once built, so any
// number of instances may boot from it, and any number of planted images
// may be derived from it, on any goroutines; it lives as long as its
// holder keeps it. The bytecode lowering is made on the first bytecode
// boot and shared by every later one.
type Image struct {
	App  *apps.App         // nil for Program boots
	Prog *ir.Program       // the linked program every instance loads
	TR   *transform.Result // nil for vanilla images

	setup func(*libsim.OS)

	lower    sync.Once
	bytecode interp.Backend
	lowerErr error
}

// Instance is one booted server.
type Instance struct {
	App *apps.App // nil for Program boots
	OS  *libsim.OS
	M   *interp.Machine
	RT  *core.Runtime     // nil for vanilla boots
	TR  *transform.Result // nil for vanilla boots
}

// CheckBackend reports whether name is an interpreter backend: "" or
// "tree" for the tree-walker, "bytecode" for the compiled bytecode
// stream.
func CheckBackend(name string) error {
	switch name {
	case "", "tree", "bytecode":
		return nil
	}
	return fmt.Errorf("unknown backend %q (want tree or bytecode)", name)
}

// Build compiles app and builds its image.
func Build(app *apps.App, o Options) (*Image, error) {
	prog, err := app.Compile()
	if err != nil {
		return nil, err
	}
	return BuildCompiled(app, prog, o)
}

// BuildCompiled builds app's image from prog, a program app.Compile
// returned. prog is only read, so one compile may feed any number of
// images, built on any goroutines.
func BuildCompiled(app *apps.App, prog *ir.Program, o Options) (*Image, error) {
	img, err := build(prog, app.Setup, o)
	if err != nil {
		return nil, err
	}
	img.App = app
	return img, nil
}

// build hardens a copy of prog with o.Model unless o.Vanilla, links the
// result and plants o.Fault into it; setup prepares every boot's OS.
func build(prog *ir.Program, setup func(*libsim.OS), o Options) (*Image, error) {
	img := &Image{setup: setup}
	if o.Vanilla {
		img.Prog = prog.Clone()
	} else {
		tr, err := transform.Apply(prog, o.Model)
		if err != nil {
			return nil, err
		}
		img.TR, img.Prog = tr, tr.Prog
	}
	if err := interp.Link(img.Prog); err != nil {
		return nil, err
	}
	if o.Fault != nil {
		return img.Plant(*o.Fault)
	}
	return img, nil
}

// Plant returns the image of img's program with f planted in its vanilla
// form, hardened as img is (or vanilla): the image a build with Fault f
// makes. Only the faulted function is copied and planted, and only the
// functions whose hardening the fault changes (their own body, their
// first site ID or their callers-check flag, see transform.Reapply) are
// hardened again; the planted image shares every other function, and its
// globals, with img, and writes nothing into them.
func (img *Image) Plant(f faultinj.Fault) (*Image, error) {
	src := img.Prog
	if img.TR != nil {
		src = img.TR.Src
	}
	fn, err := faultinj.Plant(src, f)
	if err != nil {
		return nil, err
	}
	planted := &Image{App: img.App, setup: img.setup}
	if img.TR == nil {
		// A vanilla image links the planted function itself, so it gets
		// a copy that shares no block with img's.
		planted.Prog = src.Derive(fn.Clone())
	} else {
		tr, err := transform.Reapply(img.TR, src.Derive(fn))
		if err != nil {
			return nil, err
		}
		planted.TR, planted.Prog = tr, tr.Prog
	}
	if err := interp.Link(planted.Prog); err != nil {
		return nil, err
	}
	return planted, nil
}

// NewOS returns a fresh simulated OS with the image's setup run on it:
// the world every boot starts from.
func (img *Image) NewOS() *libsim.OS {
	osim := libsim.New(mem.NewSpace())
	if img.setup != nil {
		img.setup(osim)
	}
	return osim
}

// SetBackend installs the named backend on m, a machine loading the
// image's program. The bytecode lowering is made once per image, on first
// use, and shared: the bytecode backend keeps no per-machine state.
func (img *Image) SetBackend(m *interp.Machine, name string) error {
	if err := CheckBackend(name); err != nil || name != "bytecode" {
		return err
	}
	img.lower.Do(func() { img.bytecode, img.lowerErr = interp.NewBytecodeBackend(img.Prog) })
	if img.lowerErr != nil {
		return img.lowerErr
	}
	m.SetBackend(img.bytecode)
	return nil
}

// Boot boots one instance from the image: a fresh OS, a recovery runtime
// configured by o.Core for a hardened image, a machine loading the
// image's program on o.Backend, and o.Prelatch pinned to STM.
func (img *Image) Boot(o Options) (*Instance, error) {
	osim := img.NewOS()
	inst := &Instance{App: img.App, OS: osim, TR: img.TR}
	var err error
	if img.TR == nil {
		inst.M, err = interp.New(img.Prog, osim, nil)
	} else {
		inst.RT = core.New(img.TR, osim, o.Core)
		inst.M, err = interp.New(img.Prog, osim, inst.RT)
	}
	if err != nil {
		return nil, err
	}
	if err := img.SetBackend(inst.M, o.Backend); err != nil {
		return nil, err
	}
	if inst.RT != nil {
		inst.RT.Attach(inst.M)
		for _, site := range o.Prelatch {
			inst.RT.LatchSTM(site)
		}
	}
	return inst, nil
}

// Program builds a compiled program with setup preparing its OS and
// boots it once.
func Program(prog *ir.Program, setup func(*libsim.OS), o Options) (*Instance, error) {
	img, err := build(prog, setup, o)
	if err != nil {
		return nil, err
	}
	return img.Boot(o)
}

// App builds app and boots it once.
func App(app *apps.App, o Options) (*Instance, error) {
	img, err := Build(app, o)
	if err != nil {
		return nil, err
	}
	return img.Boot(o)
}

// ArmQuiesce runs a freshly booted hardened server until it first blocks,
// which must happen inside the app's declared quiesce function (its
// accept/event loop), and registers that state with the runtime, enabling
// the request-shedding rung. It is a no-op for vanilla and Program boots
// and for apps that declare no quiesce point. A watchpoint that fires
// during startup is a stop, not an error: ArmQuiesce returns nil without
// arming, and the watch callback has seen the stop.
func (in *Instance) ArmQuiesce() error {
	if in.RT == nil || in.App == nil || in.App.QuiesceFunc == "" {
		return nil
	}
	out := in.M.Run(startupSteps)
	switch {
	case out.Kind == interp.OutWatch:
		return nil
	case out.Kind != interp.OutBlocked:
		return fmt.Errorf("boot: %s did not reach its quiesce point (outcome %v)", in.App.Name, out.Kind)
	}
	if fn := in.M.CurrentFunc(); fn != in.App.QuiesceFunc {
		return fmt.Errorf("boot: %s blocked in %q, quiesce point is %q", in.App.Name, fn, in.App.QuiesceFunc)
	}
	in.RT.ArmQuiesce(in.M)
	return nil
}

// Replica returns the fleet's replica boot function over a hardened
// image: every replica and incarnation boots from img, with spans enabled
// and its quiesce point armed, and its HTM interrupt seed is the
// supervisor's per-incarnation seed, so no two incarnations anywhere in a
// fleet replay the same interrupt process.
func (img *Image) Replica(o Options) fleet.BootFunc {
	return func(_, _ int, seed int64) (*fleet.Backend, error) {
		if img.TR == nil {
			return nil, fmt.Errorf("boot: a fleet replica needs a hardened image")
		}
		o := o
		o.Core.HTM.Seed = seed
		inst, err := img.Boot(o)
		if err != nil {
			return nil, err
		}
		inst.RT.EnableSpans()
		if err := inst.ArmQuiesce(); err != nil {
			return nil, err
		}
		return &fleet.Backend{OS: inst.OS, Exec: fleet.MachineExec(inst.M), RT: inst.RT}, nil
	}
}

// Drive drives sc, a closed-loop schedule, against the booted server: the
// schedule's driver on the instance's OS and machine, aimed at its app's
// port, run for sc.Requests requests. A hardened boot traces every
// request into its runtime, with trace IDs above sc.TraceBase.
func (in *Instance) Drive(sc workload.Schedule) workload.Result {
	d := sc.Driver()
	d.OS, d.M, d.Port = in.OS, in.M, in.App.Port
	if in.RT != nil {
		// Guarded: a typed-nil *core.Runtime in the interface would
		// defeat the driver's nil check.
		d.Sink = in.RT
	}
	return d.Run(sc.Requests)
}

// RunFleet drives sc against a fleet of the given number of replicas,
// each booted from the hardened image (Replica with o) and supervised
// under the schedule's seed: a closed-loop schedule runs sc.Requests
// requests, an open-loop one its arrival schedule, every request traced
// into the fleet. It returns the finished fleet, for its stats and
// spans, and the driven run.
func (img *Image) RunFleet(o Options, replicas int, sc workload.Schedule) (*fleet.Fleet, workload.OpenResult, error) {
	fl := fleet.New(fleet.Config{
		Replicas: replicas,
		Port:     img.App.Port,
		Sup:      supervisor.Config{Seed: sc.Seed},
	}, img.Replica(o))
	d := sc.Driver()
	d.Port, d.Srv, d.Sink = img.App.Port, fl, fl
	var res workload.OpenResult
	if sc.Kind == workload.OpenLoop {
		res = d.RunOpen(*sc.Open)
	} else {
		res.Result = d.Run(sc.Requests)
	}
	fl.Finish()
	return fl, res, fl.Err()
}

// ServingProfile is an app's fault-planning profile: the blocks a vanilla
// boot first executed while serving (the §VI-B methodology: startup
// blocks are critical). One profile plans faults of every kind.
type ServingProfile struct {
	prog   *ir.Program // the compiled program profiled; only read
	blocks []faultinj.BlockRef
}

// Profile profiles a vanilla boot of app, compiled as prog, on the named
// backend, through startup and then requests requests from clients
// simulated clients. The block stream is backend-invariant, so the
// profile is too. prog is only read.
func Profile(app *apps.App, prog *ir.Program, requests, clients int, seed int64, backend string) (*ServingProfile, error) {
	img, err := BuildCompiled(app, prog, Options{Vanilla: true})
	if err != nil {
		return nil, err
	}
	inst, err := img.Boot(Options{Backend: backend})
	if err != nil {
		return nil, err
	}
	profile := faultinj.NewProfile()
	inst.M.BlockHook = profile.HookFunc
	inst.M.Run(startupSteps)
	profile.MarkServing()
	d := &workload.Driver{
		OS: inst.OS, M: inst.M, Port: app.Port,
		Gen:         workload.ForProtocol(app.Protocol),
		Concurrency: clients, Seed: seed,
	}
	d.Run(requests)
	inst.M.BlockHook = nil
	return &ServingProfile{prog: prog, blocks: profile.ServingBlocks(prog.Entry)}, nil
}

// Plan plans up to max faults of kind in the profile's serving blocks.
func (p *ServingProfile) Plan(kind faultinj.Kind, max int, seed int64) []faultinj.Fault {
	return faultinj.PlanFaults(p.prog, p.blocks, kind, max, seed)
}

// PlanFaults profiles app (see Profile) and plans up to max faults of
// kind in the blocks first executed while serving.
func PlanFaults(app *apps.App, kind faultinj.Kind, max, requests, clients int, seed int64, backend string) ([]faultinj.Fault, error) {
	prog, err := app.Compile()
	if err != nil {
		return nil, err
	}
	p, err := Profile(app, prog, requests, clients, seed, backend)
	if err != nil {
		return nil, err
	}
	return p.Plan(kind, max, seed), nil
}
