// Package boot owns the order in which a server is brought up: compile,
// plant the fault, build the simulated OS and run its setup, harden, load,
// select the interpreter backend, attach the recovery runtime and, for
// supervised boots, run to the quiesce point. The experiment harness, the
// flight recorder's replay and the public API all boot through it, so a
// replayed run reboots its recorded world through the very code that
// booted the original.
package boot

import (
	"fmt"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/core"
	"github.com/firestarter-go/firestarter/internal/faultinj"
	"github.com/firestarter-go/firestarter/internal/fleet"
	"github.com/firestarter-go/firestarter/internal/interp"
	"github.com/firestarter-go/firestarter/internal/ir"
	"github.com/firestarter-go/firestarter/internal/libmodel"
	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/mem"
	"github.com/firestarter-go/firestarter/internal/transform"
	"github.com/firestarter-go/firestarter/internal/workload"
)

// startupSteps bounds the run from boot to the first block on I/O.
const startupSteps = 5_000_000

// Options configures one boot.
type Options struct {
	// Vanilla loads the program as compiled: no hardening, no runtime.
	Vanilla bool
	// Core configures the recovery runtime of a hardened boot.
	Core core.Config
	// Fault, when set, is planted before hardening.
	Fault *faultinj.Fault
	// Model is the library model the hardening passes consult (nil:
	// libmodel.Default()).
	Model *libmodel.Model
	// Backend names the interpreter backend (see SetBackend).
	Backend string
	// Prelatch pins these gate sites to STM before the first instruction.
	Prelatch []int
}

// Instance is one booted server.
type Instance struct {
	App *apps.App // nil for Program boots
	OS  *libsim.OS
	M   *interp.Machine
	RT  *core.Runtime     // nil for vanilla boots
	TR  *transform.Result // nil for vanilla boots
}

// SetBackend installs the named interpreter backend on m: "" or "tree"
// for the tree-walker, "bytecode" for the compiled bytecode stream. With
// m nil it only checks the name.
func SetBackend(m *interp.Machine, name string) error {
	switch name {
	case "", "tree":
		return nil
	case "bytecode":
		if m == nil {
			return nil
		}
		return interp.UseBytecode(m)
	}
	return fmt.Errorf("unknown backend %q (want tree or bytecode)", name)
}

// stage is the front half of every boot: plant the fault, build the OS
// and run setup, harden unless vanilla. It returns the (fault-planted)
// program the machine of a vanilla boot loads a copy of.
func stage(prog *ir.Program, setup func(*libsim.OS), o Options) (*ir.Program, *libsim.OS, *transform.Result, error) {
	if o.Fault != nil {
		var err error
		if prog, err = faultinj.Apply(prog, *o.Fault); err != nil {
			return nil, nil, nil, err
		}
	}
	osim := libsim.New(mem.NewSpace())
	if setup != nil {
		setup(osim)
	}
	if o.Vanilla {
		return prog, osim, nil, nil
	}
	tr, err := transform.Apply(prog, o.Model)
	return prog, osim, tr, err
}

// Program boots a compiled program with setup preparing its OS.
func Program(prog *ir.Program, setup func(*libsim.OS), o Options) (*Instance, error) {
	prog, osim, tr, err := stage(prog, setup, o)
	if err != nil {
		return nil, err
	}
	inst := &Instance{OS: osim, TR: tr}
	if o.Vanilla {
		inst.M, err = interp.New(prog.Clone(), osim, nil)
	} else {
		inst.RT = core.New(tr, osim, o.Core)
		inst.M, err = interp.New(tr.Prog, osim, inst.RT)
	}
	if err != nil {
		return nil, err
	}
	if err := SetBackend(inst.M, o.Backend); err != nil {
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

// App compiles app and boots it with its own setup.
func App(app *apps.App, o Options) (*Instance, error) {
	prog, err := app.Compile()
	if err != nil {
		return nil, err
	}
	inst, err := Program(prog, app.Setup, o)
	if err != nil {
		return nil, err
	}
	inst.App = app
	return inst, nil
}

// Harden is the front half of a hardened App boot, for callers that build
// their own runtimes over the hardened program (the multi-threaded
// scheduler gives every thread one): it compiles app, plants o.Fault,
// builds the OS, runs app.Setup and hardens with o.Model.
func Harden(app *apps.App, o Options) (*libsim.OS, *transform.Result, error) {
	prog, err := app.Compile()
	if err != nil {
		return nil, nil, err
	}
	o.Vanilla = false
	_, osim, tr, err := stage(prog, app.Setup, o)
	return osim, tr, err
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

// Replica returns the fleet's replica boot function: every incarnation is
// a hardened App boot with spans enabled and its quiesce point armed, and
// its HTM interrupt seed is the supervisor's per-incarnation seed, so no
// two incarnations anywhere in a fleet replay the same interrupt process.
func Replica(app *apps.App, o Options) fleet.BootFunc {
	o.Vanilla = false
	return func(_, _ int, seed int64) (*fleet.Backend, error) {
		o := o
		o.Core.HTM.Seed = seed
		inst, err := App(app, o)
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

// PlanFaults profiles a vanilla boot of app on the named backend, through
// startup and then requests requests from clients simulated clients, and
// plans up to max faults of kind in the blocks first executed while
// serving (the §VI-B methodology: startup blocks are critical). The block
// stream is backend-invariant, so the plan is too.
func PlanFaults(app *apps.App, kind faultinj.Kind, max, requests, clients int, seed int64, backend string) ([]faultinj.Fault, error) {
	prog, err := app.Compile()
	if err != nil {
		return nil, err
	}
	inst, err := Program(prog, app.Setup, Options{Vanilla: true, Backend: backend})
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
	return faultinj.PlanFaults(prog, profile.ServingBlocks(prog.Entry), kind, max, seed), nil
}
