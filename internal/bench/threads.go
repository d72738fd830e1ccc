package bench

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/boot"
	"github.com/firestarter-go/firestarter/internal/core"
	"github.com/firestarter-go/firestarter/internal/faultinj"
	"github.com/firestarter-go/firestarter/internal/htm"
	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/obsv"
	"github.com/firestarter-go/firestarter/internal/sched"
	"github.com/firestarter-go/firestarter/internal/workload"
)

// threadWorkerCounts are the scaling points of the threads campaign.
var threadWorkerCounts = []int{1, 2, 4, 8}

// threadsQuantum is the scheduling slice of the campaign, in instructions.
// A request is a few hundred instructions (library calls are single
// instructions with large cycle costs), so the slice must be well below
// that for requests to actually overlap across workers — the default
// 4096-instruction quantum would let one worker drain the whole accept
// queue before anyone else runs.
const threadsQuantum = 192

// ThreadsRow is one worker-count measurement of the multi-worker server.
type ThreadsRow struct {
	Workers     int
	Completed   int
	BadResp     int
	WallPerReq  float64 // wall cycles (max per-thread) per completed request
	Speedup     float64 // row-0 WallPerReq / this row's WallPerReq
	HTMBegins   int64
	Aborts      int64
	ByCapacity  int64
	ByInterrupt int64
	ByConfl     int64
	ByExpl      int64
	STMCommits  int64
	Injections  int64
	Unrecovered int64
}

// ThreadsResult is the threads campaign: throughput scaling and the
// abort-cause breakdown, fault-free and under fault injection.
type ThreadsResult struct {
	FaultFree []ThreadsRow
	Faulted   []ThreadsRow
}

// mtInstance is one booted multi-worker server: a scheduler over N+1
// machines, with one recovery runtime per thread (hardened) joined
// through a shared conflict domain.
type mtInstance struct {
	app *apps.App
	os  *libsim.OS
	s   *sched.Sched
	rts []*core.Runtime
}

// bootMT hardens a multi-threaded app (optionally fault-planted) and
// loads it under the cooperative scheduler, on the Runner's backend.
func (r Runner) bootMT(app *apps.App, cfg core.Config, fault *faultinj.Fault) (*mtInstance, error) {
	img, err := r.build(app, boot.Options{Fault: fault})
	if err != nil {
		return nil, err
	}
	osim, tr := img.NewOS(), img.TR
	inst := &mtInstance{app: app, os: osim}
	domain := htm.NewDomain()
	factory := func(tid int) sched.ThreadRuntime {
		cfg := cfg
		// Each thread is its own core: distinct TSX instance and
		// interrupt process, one shared conflict domain.
		cfg.HTM.Seed = cfg.HTM.Seed + int64(tid)*1_000_003
		rt := core.New(tr, osim, cfg)
		rt.SetDomain(domain, tid)
		inst.rts = append(inst.rts, rt)
		return rt
	}
	s, err := sched.New(tr.Prog, osim, factory, sched.Options{Quantum: threadsQuantum})
	if err != nil {
		return nil, err
	}
	// Worker machines spawned later inherit the main machine's backend
	// through interp.NewThread.
	if err := img.SetBackend(s.Main(), r.Backend); err != nil {
		return nil, err
	}
	inst.s = s
	return inst, nil
}

// driveMT runs the standard workload against a scheduled instance. The
// client pool is widened to at least 8 so every worker of the largest
// configuration has work.
func (r Runner) driveMT(inst *mtInstance) workload.Result {
	conc := r.Concurrency
	if conc < 8 {
		conc = 8
	}
	d := &workload.Driver{
		OS: inst.os, M: inst.s.Main(), S: inst.s, Port: inst.app.Port,
		Gen:         workload.ForProtocol(inst.app.Protocol),
		Concurrency: conc,
		Seed:        r.Seed,
	}
	return d.Run(r.Requests)
}

// threadsConfig is the hardened configuration of the threads campaign.
// Preemption-induced conflict aborts are transient — the line is free
// again two context switches later — so the single-core policy default
// (θ=1 %, S=4) would latch hot gates onto the serialized STM path almost
// immediately and erase the scaling the campaign measures. The campaign
// therefore runs the adaptive policy with a tolerance matched to
// multi-core noise, as the paper tunes θ per deployment (§IV-C).
func threadsConfig(seed int64) core.Config {
	return core.Config{
		Mode:       core.ModeHybrid,
		Threshold:  0.25,
		SampleSize: 256,
		HTM:        htm.Config{MeanInstrsPerInterrupt: interruptGap, Seed: seed},
	}
}

// threadsRow measures one worker count, hardened, optionally with a
// planted fault.
func (r Runner) threadsRow(workers int, fault *faultinj.Fault) (ThreadsRow, error) {
	app := apps.NginxMT(workers)
	inst, err := r.bootMT(app, threadsConfig(r.Seed), fault)
	if err != nil {
		return ThreadsRow{}, err
	}
	res := r.driveMT(inst)
	row := ThreadsRow{
		Workers:    workers,
		Completed:  res.Completed,
		BadResp:    res.BadResp,
		WallPerReq: res.CyclesPerRequest(),
	}
	// Each thread's runtime publishes into the shared registry under its
	// own thread label; the row reads cross-thread sums back out. The
	// registry is the same aggregation path `firebench -metrics-out`
	// exports, so the rendered table and the JSONL always agree.
	reg := inst.Metrics()
	row.HTMBegins = reg.Total("htm.begins")
	row.Aborts = reg.Total("htm.aborts")
	row.ByCapacity = reg.Total("htm.aborts_capacity")
	row.ByInterrupt = reg.Total("htm.aborts_interrupt")
	row.ByConfl = reg.Total("htm.aborts_conflict")
	row.ByExpl = reg.Total("htm.aborts_explicit")
	row.STMCommits = reg.Total("core.stm_commits")
	row.Injections = reg.Total("core.injections")
	row.Unrecovered = reg.Total("core.unrecovered")
	return row, nil
}

// Metrics aggregates every thread runtime's counters into one registry,
// each under its thread label, plus the scheduler's cycle accounting.
func (inst *mtInstance) Metrics() *obsv.Registry {
	reg := obsv.NewRegistry()
	for tid, rt := range inst.rts {
		rt.PublishMetrics(reg, obsv.L("thread", strconv.Itoa(tid)))
	}
	inst.s.PublishMetrics(reg)
	return reg
}

// Threads is the threads campaign (the multi-core half of the paper's
// testbed): the multi-worker Nginx analog is scaled across 1/2/4/8 worker
// threads, fault-free and with the §VI-F SSI fail-stop fault planted, and
// each point reports wall-cycle throughput and the abort-cause breakdown.
// Conflict aborts exist only here: they require another thread.
func (r Runner) Threads() (ThreadsResult, error) {
	r = r.withDefaults()

	// The planted fault reuses the real-world SSI case: fail-stop at the
	// block of serve_ssi's second pread, recovered by diverting EINVAL.
	fault, err := r.libFault(apps.NginxMT(1), "serve_ssi", "pread", 2)
	if err != nil {
		return ThreadsResult{}, err
	}

	out := ThreadsResult{
		FaultFree: make([]ThreadsRow, len(threadWorkerCounts)),
		Faulted:   make([]ThreadsRow, len(threadWorkerCounts)),
	}
	n := len(threadWorkerCounts)
	if err := r.forEach(2*n, func(i int) error {
		w := threadWorkerCounts[i%n]
		var f *faultinj.Fault
		if i >= n {
			f = &fault
		}
		row, err := r.threadsRow(w, f)
		if err != nil {
			return err
		}
		if i < n {
			out.FaultFree[i] = row
		} else {
			out.Faulted[i-n] = row
		}
		return nil
	}); err != nil {
		return ThreadsResult{}, err
	}
	for _, rows := range [][]ThreadsRow{out.FaultFree, out.Faulted} {
		base := rows[0].WallPerReq
		for i := range rows {
			if rows[i].WallPerReq > 0 && !math.IsInf(rows[i].WallPerReq, 0) && !math.IsInf(base, 0) {
				rows[i].Speedup = base / rows[i].WallPerReq
			}
		}
	}
	return out, nil
}

func renderThreadsTable(sb *strings.Builder, title string, rows []ThreadsRow) {
	sb.WriteString(title + "\n")
	fmt.Fprintf(sb, "%7s %9s %4s %14s %8s %9s %9s %10s %9s %9s %8s %7s\n",
		"workers", "completed", "bad", "wall-cyc/req", "speedup",
		"htm-txs", "capacity", "interrupt", "conflict", "explicit", "stm-cmt", "inject")
	for _, row := range rows {
		fmt.Fprintf(sb, "%7d %9d %4d %14s %7.2fx %9d %9d %10d %9d %9d %8d %7d\n",
			row.Workers, row.Completed, row.BadResp, workload.FormatCPR(row.WallPerReq), row.Speedup,
			row.HTMBegins, row.ByCapacity, row.ByInterrupt, row.ByConfl, row.ByExpl,
			row.STMCommits, row.Injections)
	}
}

// Render prints the scaling and abort-cause tables.
func (t ThreadsResult) Render() string {
	var sb strings.Builder
	renderThreadsTable(&sb, "Threads: multi-worker Nginx analog, hardened, fault-free", t.FaultFree)
	sb.WriteString("\n")
	renderThreadsTable(&sb, "Threads: same, with the SSI fail-stop fault planted (recovery via EINVAL divert)", t.Faulted)
	return sb.String()
}
