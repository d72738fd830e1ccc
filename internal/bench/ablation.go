package bench

import (
	"fmt"
	"strings"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/boot"
	"github.com/firestarter-go/firestarter/internal/core"
	"github.com/firestarter-go/firestarter/internal/htm"
	"github.com/firestarter-go/firestarter/internal/workload"
)

// Ablation experiments probe the design choices the paper fixes without
// sweeping: the divert policy (re-arm per episode vs. permanently disable
// the path), the transient-retry budget, and the sensitivity of the whole
// scheme to the HTM capacity the hardware provides.

// --- divert policy ----------------------------------------------------------------

// DivertRow compares recovery behaviour under one divert policy.
type DivertRow struct {
	Policy       string
	Crashes      int64
	Injections   int64
	Completed    int
	Bad          int
	CyclesPerReq float64
}

// DivertResult is the divert-policy ablation.
type DivertResult struct {
	Rows []DivertRow
}

// AblationDivert runs the Nginx analog with a persistent fault in the SSI
// handler under both divert policies. Per-episode re-arming pays the full
// crash-rollback-inject cycle on every poisoned request; sticky diversion
// ("gracefully disabling the affected path", §V) crashes once and serves
// the error path directly afterwards.
func (r Runner) AblationDivert() (DivertResult, error) {
	r = r.withDefaults()
	app := apps.Nginx()
	fault, err := r.libFault(app, "serve_ssi", "memcpy", 1)
	if err != nil {
		return DivertResult{}, err
	}

	var out DivertResult
	img, err := r.build(app, boot.Options{Fault: &fault})
	if err != nil {
		return out, err
	}
	for _, sticky := range []bool{false, true} {
		cfg := core.Config{StickyDivert: sticky}
		inst, res, err := r.measureImage(img, boot.Options{Core: cfg})
		if err != nil {
			return out, err
		}
		st := inst.RT.Stats()
		name := "per-episode (re-arm on commit)"
		if sticky {
			name = "sticky (path disabled)"
		}
		out.Rows = append(out.Rows, DivertRow{
			Policy:       name,
			Crashes:      st.Crashes,
			Injections:   st.Injections,
			Completed:    res.Completed,
			Bad:          res.BadResp,
			CyclesPerReq: res.CyclesPerRequest(),
		})
	}
	return out, nil
}

// Render prints the divert ablation.
func (d DivertResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Ablation: divert policy under a persistent SSI fault (Nginx)\n")
	fmt.Fprintf(&sb, "%-32s %8s %11s %10s %6s %14s\n",
		"policy", "crashes", "injections", "completed", "bad", "cycles/req")
	for _, row := range d.Rows {
		fmt.Fprintf(&sb, "%-32s %8d %11d %10d %6d %14s\n",
			row.Policy, row.Crashes, row.Injections, row.Completed, row.Bad,
			workload.FormatCPR(row.CyclesPerReq))
	}
	return sb.String()
}

// --- retry budget ------------------------------------------------------------------

// RetryRow is one retry-budget measurement.
type RetryRow struct {
	Retries    int
	Crashes    int64
	RetryExecs int64
	Injections int64
	MeanLatUs  float64
}

// RetryResult is the retry-budget ablation.
type RetryResult struct {
	Rows []RetryRow
}

// AblationRetry sweeps the transient-retry budget against a persistent
// fault: every extra retry buys nothing for persistent bugs (the crash
// recurs) and linearly inflates recovery latency — the reason the paper
// re-executes only once before injecting.
func (r Runner) AblationRetry() (RetryResult, error) {
	r = r.withDefaults()
	app := apps.Nginx()
	fault, err := r.libFault(app, "serve_ssi", "memcpy", 1)
	if err != nil {
		return RetryResult{}, err
	}

	var out RetryResult
	img, err := r.build(app, boot.Options{Fault: &fault})
	if err != nil {
		return out, err
	}
	for _, retries := range []int{1, 2, 4, 8} {
		cfg := core.Config{RetryTransient: retries}
		inst, _, err := r.measureImage(img, boot.Options{Core: cfg})
		if err != nil {
			return out, err
		}
		st := inst.RT.Stats()
		// Mean via the shared histogram helper: Sum and Count are exact
		// (only quantiles are bucketed), so this renders byte-identically
		// to the old inline sum loop.
		h := histOf(st.LatencyCycles)
		var mean float64
		if h.Count() > 0 {
			mean = h.Mean() / 1000
		}
		out.Rows = append(out.Rows, RetryRow{
			Retries:    retries,
			Crashes:    st.Crashes,
			RetryExecs: st.Retries,
			Injections: st.Injections,
			MeanLatUs:  mean,
		})
	}
	return out, nil
}

// Render prints the retry ablation.
func (d RetryResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Ablation: transient-retry budget vs a persistent fault (Nginx)\n")
	fmt.Fprintf(&sb, "%8s %9s %8s %11s %14s\n", "retries", "crashes", "re-execs", "injections", "mean lat (µs)")
	for _, row := range d.Rows {
		fmt.Fprintf(&sb, "%8d %9d %8d %11d %14.1f\n",
			row.Retries, row.Crashes, row.RetryExecs, row.Injections, row.MeanLatUs)
	}
	return sb.String()
}

// --- HTM geometry -----------------------------------------------------------------

// GeometryRow is one cache-size measurement.
type GeometryRow struct {
	CacheKiB     int
	AbortPct     float64
	OverheadPct  float64
	STMLatchedTx int64
}

// GeometryResult is the HTM-capacity ablation.
type GeometryResult struct {
	Rows []GeometryRow
}

// AblationGeometry sweeps the modelled L1D capacity (8–128 KiB at fixed
// 8-way associativity) on the Nginx analog: a smaller transactional buffer
// pushes more regions over the capacity cliff, raising the abort rate and
// shifting more transactions to STM — quantifying how much FIRestarter's
// performance depends on the hardware's transactional capacity.
func (r Runner) AblationGeometry() (GeometryResult, error) {
	r = r.withDefaults()
	app := apps.Nginx()
	_, vres, err := r.measure(app, boot.Options{Vanilla: true})
	if err != nil {
		return GeometryResult{}, err
	}
	base := vres.CyclesPerRequest()

	var out GeometryResult
	img, err := r.build(app, boot.Options{})
	if err != nil {
		return out, err
	}
	for _, kib := range []int{8, 16, 32, 64, 128} {
		sets := kib * 1024 / 64 / htm.Ways // lines / ways
		cfg := core.Config{
			HTM: htm.Config{Sets: sets, Seed: r.Seed},
		}
		inst, res, err := r.measureImage(img, boot.Options{Core: cfg})
		if err != nil {
			return out, err
		}
		st := inst.RT.Stats()
		out.Rows = append(out.Rows, GeometryRow{
			CacheKiB:     kib,
			AbortPct:     100 * st.HTMAbortRate(),
			OverheadPct:  overheadPct(res.CyclesPerRequest(), base),
			STMLatchedTx: st.STMBegins,
		})
	}
	return out, nil
}

// Render prints the geometry ablation.
func (d GeometryResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Ablation: HTM capacity vs abort rate and overhead (Nginx)\n")
	fmt.Fprintf(&sb, "%10s %10s %11s %9s\n", "L1D (KiB)", "abort %", "overhead %", "STM txs")
	for _, row := range d.Rows {
		fmt.Fprintf(&sb, "%10d %10.2f %11.1f %9d\n",
			row.CacheKiB, row.AbortPct, row.OverheadPct, row.STMLatchedTx)
	}
	return sb.String()
}
