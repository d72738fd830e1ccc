package main

import (
	"fmt"
	"time"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/bench"
	"github.com/firestarter-go/firestarter/internal/core"
	"github.com/firestarter-go/firestarter/internal/faultinj"
	"github.com/firestarter-go/firestarter/internal/fleet"
	"github.com/firestarter-go/firestarter/internal/htm"
	"github.com/firestarter-go/firestarter/internal/interp"
	"github.com/firestarter-go/firestarter/internal/ir"
	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/mem"
	"github.com/firestarter-go/firestarter/internal/stm"
	"github.com/firestarter-go/firestarter/internal/supervisor"
	"github.com/firestarter-go/firestarter/internal/transform"
	"github.com/firestarter-go/firestarter/internal/workload"
)

// The seam calls the probe counts and times.
const (
	seamLibCall = iota
	seamGate
	seamTxBegin
	seamTxEnd
	seamStore
	seamLoad
	seamHandle
	numSeams
)

type seamStat struct{ n, ns int64 }

// seamCalls accumulates per-call host time across every machine of a probe.
type seamCalls [numSeams]seamStat

func (s *seamCalls) add(i int, start time.Time) {
	s[i].n++
	s[i].ns += int64(time.Since(start))
}

// timedRuntime decorates core's interp.Runtime: it counts and times the
// seam calls the machine makes and forwards everything else untouched. The
// embedded *core.Runtime supplies Tick, RegSave, Variant and the optional
// interp.TickCoalescer/TickBatcher capabilities, so the bytecode backend
// takes the same tick-batching path as with the bare runtime and the guest
// run is identical.
type timedRuntime struct {
	*core.Runtime
	calls *seamCalls
}

var _ interp.TickBatcher = timedRuntime{}

func (t timedRuntime) LibCall(m *interp.Machine, name string, args []int64, site int) (int64, error) {
	start := time.Now()
	v, err := t.Runtime.LibCall(m, name, args, site)
	t.calls.add(seamLibCall, start)
	return v, err
}

func (t timedRuntime) Gate(m *interp.Machine, site int, snap *interp.Snapshot) (int64, bool, int64) {
	start := time.Now()
	variant, inject, val := t.Runtime.Gate(m, site, snap)
	t.calls.add(seamGate, start)
	return variant, inject, val
}

func (t timedRuntime) TxBegin(m *interp.Machine, site int, variant int64) error {
	start := time.Now()
	err := t.Runtime.TxBegin(m, site, variant)
	t.calls.add(seamTxBegin, start)
	return err
}

func (t timedRuntime) TxEnd(m *interp.Machine) error {
	start := time.Now()
	err := t.Runtime.TxEnd(m)
	t.calls.add(seamTxEnd, start)
	return err
}

func (t timedRuntime) Store(m *interp.Machine, addr, val int64, width int, stm bool) error {
	start := time.Now()
	err := t.Runtime.Store(m, addr, val, width, stm)
	t.calls.add(seamStore, start)
	return err
}

func (t timedRuntime) Load(m *interp.Machine, addr int64, width int) (int64, error) {
	start := time.Now()
	v, err := t.Runtime.Load(m, addr, width)
	t.calls.add(seamLoad, start)
	return v, err
}

func (t timedRuntime) Handle(m *interp.Machine, err error) interp.Action {
	start := time.Now()
	a := t.Runtime.Handle(m, err)
	t.calls.add(seamHandle, start)
	return a
}

// machineRun is one booted machine's guest-side outcome.
type machineRun struct {
	steps, cycles int64
	core          core.Stats
	htm           htm.Stats
	stm           stm.Stats
}

// probeRun is everything one probe observed. Every field except the host
// times is deterministic for a fixed seed, decorated or not.
type probeRun struct {
	machines []machineRun

	requests, ok, shed int // driven requests, validated answers, open-loop sheds
	spans              int
	reboots            int
	fleetBoots         int
	fleetDeaths        int

	boots     int
	bootTime  time.Duration // interp.New + run to the first block, summed
	driveTime time.Duration // workload driver calls, summed
}

// instance is one hardened boot.
type instance struct {
	os *libsim.OS
	m  *interp.Machine
	rt *core.Runtime
}

// boot hardens prog (with fault planted, if any) and loads it with the
// runtime behind the seam decorator when seam is non-nil, then runs it to
// its first block (the quiesce point for apps that declare one).
func (p *probeRun) boot(app *apps.App, prog *ir.Program, fault *faultinj.Fault, cfg core.Config, backend string, seam *seamCalls) (*instance, error) {
	var err error
	if fault != nil {
		if prog, err = faultinj.Apply(prog, *fault); err != nil {
			return nil, err
		}
	}
	osim := libsim.New(mem.NewSpace())
	if app.Setup != nil {
		app.Setup(osim)
	}
	tr, err := transform.Apply(prog, nil)
	if err != nil {
		return nil, err
	}
	rt := core.New(tr, osim, cfg)
	var mrt interp.Runtime = rt
	if seam != nil {
		mrt = timedRuntime{rt, seam}
	}
	start := time.Now()
	m, err := interp.New(tr.Prog, osim, mrt)
	if err != nil {
		return nil, err
	}
	if backend == "bytecode" {
		if err := interp.UseBytecode(m); err != nil {
			return nil, err
		}
	}
	rt.Attach(m)
	if out := m.Run(5_000_000); out.Kind != interp.OutBlocked {
		return nil, fmt.Errorf("probe: %s did not block after boot (outcome %v)", app.Name, out.Kind)
	}
	p.boots++
	p.bootTime += time.Since(start)
	return &instance{os: osim, m: m, rt: rt}, nil
}

// harvest records a finished machine.
func (p *probeRun) harvest(inst *instance) {
	p.machines = append(p.machines, machineRun{
		steps:  inst.m.Steps,
		cycles: inst.m.Cycles,
		core:   inst.rt.Stats(),
		htm:    inst.rt.HTMStats(),
		stm:    inst.rt.STMStats(),
	})
}

// armQuiesce registers the booted machine's blocking point as the
// shedding rung's resume point, as the supervised campaigns do.
func armQuiesce(app *apps.App, inst *instance) error {
	if fn := inst.m.CurrentFunc(); fn != app.QuiesceFunc {
		return fmt.Errorf("probe: %s blocked in %q, quiesce point is %q", app.Name, fn, app.QuiesceFunc)
	}
	inst.rt.ArmQuiesce(inst.m)
	return nil
}

// probeFigure7 drives the full-protection (hybrid) configuration of every
// app, closed loop, as Figure 7's FIRestarter column does.
func probeFigure7(r bench.Runner, p *prepared, _ campaign, seam *seamCalls) (*probeRun, error) {
	pr := &probeRun{}
	for _, app := range p.apps {
		cfg := core.Config{
			Mode: core.ModeHybrid, Threshold: 0.01, SampleSize: 4,
			HTM: htm.Config{MeanInstrsPerInterrupt: 250_000, Seed: r.Seed},
		}
		inst, err := pr.boot(app, p.progs[app.Name], nil, cfg, r.Backend, seam)
		if err != nil {
			return nil, err
		}
		d := &workload.Driver{
			OS: inst.os, M: inst.m, Port: app.Port,
			Gen:         workload.ForProtocol(app.Protocol),
			Concurrency: r.Concurrency, Seed: r.Seed,
		}
		start := time.Now()
		res := d.Run(r.Requests)
		pr.driveTime += time.Since(start)
		pr.requests += res.Completed + res.BadResp + res.Outstanding
		pr.ok += res.Completed
		pr.harvest(inst)
	}
	return pr, nil
}

// probeChaos supervises the fail-stop cells of the chaos matrix the way
// the campaign runs each cell: every app with each of its planned
// fail-stop faults, spans on, quiesce point armed, microreboots until the
// work is done or the breaker opens. (The fail-silent cells are left out:
// a fault that livelocks its server would dominate the probe.)
func probeChaos(r bench.Runner, p *prepared, _ campaign, seam *seamCalls) (*probeRun, error) {
	pr := &probeRun{}
	for _, app := range p.apps {
		for i, fault := range p.faults[app.Name] {
			if err := pr.supervise(app, p.progs[app.Name], fault, r, r.Seed+1000*int64(i+1), seam); err != nil {
				return nil, err
			}
		}
	}
	return pr, nil
}

// supervise drives r.Requests against app with fault planted, rebooting
// through the supervisor.
func (pr *probeRun) supervise(app *apps.App, prog *ir.Program, fault faultinj.Fault, r bench.Runner, seed int64, seam *seamCalls) error {
	sup := supervisor.New(supervisor.Config{Seed: seed})
	remaining := r.Requests
	var traces int64
	err := sup.Supervise(func(_ int, seed int64) (supervisor.RunResult, error) {
		if remaining <= 0 {
			return supervisor.RunResult{Done: true}, nil
		}
		inst, err := pr.boot(app, prog, &fault, core.Config{}, r.Backend, seam)
		if err != nil {
			return supervisor.RunResult{}, err
		}
		inst.rt.EnableSpans()
		if err := armQuiesce(app, inst); err != nil {
			return supervisor.RunResult{}, err
		}
		d := &workload.Driver{
			OS: inst.os, M: inst.m, Port: app.Port,
			Gen:         workload.ForProtocol(app.Protocol),
			Concurrency: r.Concurrency, Seed: seed,
			Sink: inst.rt, TraceBase: traces,
		}
		start := time.Now()
		res := d.Run(remaining)
		pr.driveTime += time.Since(start)
		traces += int64(res.Sent)
		pr.requests += res.Sent
		pr.ok += res.Completed
		pr.spans += len(inst.rt.Spans())
		pr.harvest(inst)

		remaining -= res.Completed + res.BadResp
		rr := supervisor.RunResult{Cycles: inst.m.Cycles}
		if res.ServerDied || res.Stalled {
			rr.Died = res.ServerDied
			rr.ConnsLost = min(res.Outstanding, remaining)
			remaining -= rr.ConnsLost
			return rr, nil
		}
		rr.Done = remaining <= 0
		return rr, nil
	})
	if err != nil {
		return err
	}
	pr.spans += len(sup.Spans())
	pr.reboots += sup.Stats().Restarts
	return nil
}

// probeOpenLoop repeats the open-loop campaign's calibration and its 1.0x
// rung on a 1-replica supervised fleet: closed-loop runs pick the first
// planned fault whose server recovers intermittently (survives, with both
// clean and recovery-touched completions), then that fault faces the
// campaign's calibrated service rate on the open-loop driver.
func probeOpenLoop(r bench.Runner, p *prepared, c campaign, seam *seamCalls) (*probeRun, error) {
	if c.serviceRate <= 0 {
		return nil, fmt.Errorf("probe: openloop needs the campaign's service rate")
	}
	pr := &probeRun{}
	app := p.apps[0]
	faults := p.faults[app.Name]
	fault := faults[0]
	for _, f := range faults {
		var res workload.Result
		err := pr.fleet(app, p.progs[app.Name], f, r, r.Seed+1000, seam, func(d *workload.Driver) {
			d.Concurrency = r.Concurrency
			res = d.Run(r.Requests)
			pr.requests += res.Sent
			pr.ok += res.Completed
		})
		if err != nil {
			return nil, err
		}
		if !res.ServerDied && !res.Stalled && res.CleanLatency.Count() > 0 && res.RecoveryLatency.Count() > 0 {
			fault = f
			break
		}
	}
	err := pr.fleet(app, p.progs[app.Name], fault, r, r.Seed+5000, seam, func(d *workload.Driver) {
		res := d.RunOpen(workload.OpenConfig{
			Shape:         workload.ShapePoisson,
			RatePerMcycle: c.serviceRate,
			Total:         r.Requests,
			Clients:       20000,
			MaxConns:      32,
			PipelineDepth: 2,
			Patience:      int64(25e6 / c.serviceRate),
			ChurnEvery:    5,
			SlowEvery:     7,
			FragmentEvery: 11,
		})
		pr.requests += res.Offered
		pr.ok += res.Completed
		pr.shed += res.Shed
	})
	return pr, err
}

// fleet boots a 1-replica supervised fleet of app with fault planted and
// lets drive run the workload driver against it.
func (pr *probeRun) fleet(app *apps.App, prog *ir.Program, fault faultinj.Fault, r bench.Runner, seed int64, seam *seamCalls, drive func(*workload.Driver)) error {
	var live []*instance
	fl := fleet.New(fleet.Config{Replicas: 1, Port: app.Port, Sup: supervisor.Config{Seed: seed}},
		func(_, _ int, bootSeed int64) (*fleet.Backend, error) {
			inst, err := pr.boot(app, prog, &fault, core.Config{HTM: htm.Config{Seed: bootSeed}}, r.Backend, seam)
			if err != nil {
				return nil, err
			}
			inst.rt.EnableSpans()
			if err := armQuiesce(app, inst); err != nil {
				return nil, err
			}
			live = append(live, inst)
			return &fleet.Backend{OS: inst.os, Exec: fleet.MachineExec(inst.m), RT: inst.rt}, nil
		})
	d := &workload.Driver{
		Port: app.Port, Gen: workload.ForProtocol(app.Protocol),
		Seed: seed, Srv: fl, Sink: fl,
	}
	start := time.Now()
	drive(d)
	fl.Finish()
	pr.driveTime += time.Since(start)
	if err := fl.Err(); err != nil {
		return err
	}
	for _, inst := range live {
		pr.harvest(inst)
	}
	st := fl.Stats()
	pr.spans += len(fl.Spans())
	pr.fleetBoots += st.Boots
	pr.fleetDeaths += st.Deaths
	pr.reboots += fl.SupStats(0).Restarts
	return nil
}

// seamMetrics turns accumulated seam calls into _n (calls) and _ns (mean
// host ns per call) metrics. A mean includes one time.Now/time.Since pair,
// so it overstates the cheapest calls (loads, stores) by a constant; the
// constant is the same on both sides of a comparison.
func seamMetrics(s *seamCalls, out map[string]float64) {
	names := [numSeams]string{"libcall", "gate", "txbegin", "txend", "store", "load", "handle"}
	for i, name := range names {
		st := s[i]
		out["core."+name+"_n"] = float64(st.n)
		if st.n > 0 {
			out["core."+name+"_ns"] = float64(st.ns) / float64(st.n)
		}
	}
}

// countMetrics folds a probe's deterministic counts into per-layer metrics.
func (p *probeRun) countMetrics(out map[string]float64) {
	var steps, cycles int64
	var h htm.Stats
	var s stm.Stats
	var c core.Stats
	for _, m := range p.machines {
		steps += m.steps
		cycles += m.cycles
		h.Begins += m.htm.Begins
		h.Commits += m.htm.Commits
		h.ByCapac += m.htm.ByCapac
		h.ByIntr += m.htm.ByIntr
		s.Begins += m.stm.Begins
		s.TotalStores += m.stm.TotalStores
		s.Rollbacks += m.stm.Rollbacks
		c.Crashes += m.core.Crashes
		c.Retries += m.core.Retries
		c.Injections += m.core.Injections
		c.Sheds += m.core.Sheds
	}
	out["interp.msteps"] = float64(steps) / 1e6
	out["interp.mcycles"] = float64(cycles) / 1e6
	out["htm.begins"] = float64(h.Begins)
	out["htm.aborts_capacity"] = float64(h.ByCapac)
	out["htm.aborts_interrupt"] = float64(h.ByIntr)
	if h.Begins > 0 {
		out["htm.commit_ratio"] = float64(h.Commits) / float64(h.Begins)
	}
	out["stm.begins"] = float64(s.Begins)
	out["stm.undo_stores"] = float64(s.TotalStores)
	out["stm.rollbacks"] = float64(s.Rollbacks)
	out["core.crashes"] = float64(c.Crashes)
	out["core.retries"] = float64(c.Retries)
	out["core.injections"] = float64(c.Injections)
	out["core.sheds"] = float64(c.Sheds)
	out["workload.requests"] = float64(p.requests)
	out["workload.shed"] = float64(p.shed)
	if p.requests > 0 {
		out["workload.ok_ratio"] = float64(p.ok) / float64(p.requests)
	}
	out["fleet.boots"] = float64(p.fleetBoots)
	out["fleet.deaths"] = float64(p.fleetDeaths)
	out["supervisor.reboots"] = float64(p.reboots)
	out["obsv.spans"] = float64(p.spans)
	if p.boots > 0 {
		out["interp.boot_ms"] = float64(p.bootTime) / float64(p.boots) / 1e6
	}
	out["workload.drive_s"] = p.driveTime.Seconds()
}
