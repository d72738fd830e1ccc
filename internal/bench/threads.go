package bench

import (
	"fmt"
	"math"
	"strings"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/boot"
	"github.com/firestarter-go/firestarter/internal/core"
	"github.com/firestarter-go/firestarter/internal/faultinj"
	"github.com/firestarter-go/firestarter/internal/htm"
	"github.com/firestarter-go/firestarter/internal/obsv"
	"github.com/firestarter-go/firestarter/internal/workload"
)

// threadWorkerCounts are the scaling points of the threads campaign.
var threadWorkerCounts = []int{1, 2, 4, 8}

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
// planted fault. The client pool is widened to at least 8 so every worker
// of the largest configuration has work.
func (r Runner) threadsRow(workers int, fault *faultinj.Fault) (ThreadsRow, error) {
	app := apps.NginxMT(workers)
	img, err := r.build(app, boot.Options{Fault: fault})
	if err != nil {
		return ThreadsRow{}, err
	}
	inst, err := r.bootImage(img, boot.Options{Core: threadsConfig(r.Seed)})
	if err != nil {
		return ThreadsRow{}, err
	}
	res := inst.Drive(workload.Schedule{
		Kind: workload.ClosedLoop, Proto: app.Protocol, Seed: r.Seed,
		Requests: r.Requests, Concurrency: max(r.Concurrency, 8),
	})
	// The cross-thread sums of every thread runtime's counters.
	var tot obsv.Totals
	for _, t := range inst.Sched.Threads() {
		rt := t.RT.(*core.Runtime)
		st, hs := rt.Stats(), rt.HTMStats()
		core.AddTotals(&tot, &st)
		htm.Metrics.AddTo(&tot, &hs)
	}
	return ThreadsRow{
		Workers:     workers,
		Completed:   res.Completed,
		BadResp:     res.BadResp,
		WallPerReq:  res.CyclesPerRequest(),
		HTMBegins:   tot.Get("htm.begins"),
		Aborts:      tot.Get("htm.aborts"),
		ByCapacity:  tot.Get("htm.aborts_capacity"),
		ByInterrupt: tot.Get("htm.aborts_interrupt"),
		ByConfl:     tot.Get("htm.aborts_conflict"),
		ByExpl:      tot.Get("htm.aborts_explicit"),
		STMCommits:  tot.Get("core.stm_commits"),
		Injections:  tot.Get("core.injections"),
		Unrecovered: tot.Get("core.unrecovered"),
	}, nil
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
