package bench

import (
	"fmt"
	"sort"
	"strings"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/boot"
	"github.com/firestarter-go/firestarter/internal/core"
	"github.com/firestarter-go/firestarter/internal/htm"
	"github.com/firestarter-go/firestarter/internal/mem"
)

// interruptGap is the modelled mean instructions between asynchronous HTM
// aborts used by all performance experiments.
const interruptGap = 250_000

func perfConfig(mode core.Mode, threshold float64, sample int64, seed int64) core.Config {
	return core.Config{
		Mode:       mode,
		Threshold:  threshold,
		SampleSize: sample,
		HTM:        htm.Config{MeanInstrsPerInterrupt: interruptGap, Seed: seed},
	}
}

// --- Figure 3 -------------------------------------------------------------------

// Figure3Row is one policy's outcome on Nginx.
type Figure3Row struct {
	Policy         string
	HTMAbortPct    float64
	DegradationPct float64

	// HotSites attributes aborts to specific library calls, as the
	// paper's Fig. 3 discussion does (malloc 82%, posix_memalign 47%,
	// fcntl64 15% on real Nginx).
	HotSites []core.SiteAbortRate
}

// Figure3Result compares adaptive-transaction policies on Nginx.
type Figure3Result struct {
	Rows []Figure3Row
}

// Figure3 reproduces the policy comparison of Fig. 3: the naive
// always-try-HTM policy suffers a high abort rate and heavy degradation;
// manually marking the hot regions STM removes almost all aborts; the
// dynamic policy (θ=1 %, S=128) gets within a few points of manual.
func (r Runner) Figure3() (Figure3Result, error) {
	r = r.withDefaults()
	// The S=128 configuration needs enough traffic for hot gates to
	// accumulate 128 aborts before the policy check can fire.
	if r.Requests < 2000 {
		r.Requests = 2000
	}
	app := apps.Nginx()

	_, vres, err := r.measure(app, boot.Options{Vanilla: true})
	if err != nil {
		return Figure3Result{}, err
	}
	base := vres.CyclesPerRequest()

	var out Figure3Result
	// The four policies are boot-time configurations of one hardened
	// image.
	img, err := r.build(app, boot.Options{})
	if err != nil {
		return out, err
	}

	// Naive: threshold above 100% never latches, every execution tries
	// HTM first.
	naive, nres, err := r.measureImage(img, boot.Options{Core: perfConfig(core.ModeHybrid, 2.0, 4, r.Seed)})
	if err != nil {
		return out, err
	}
	out.Rows = append(out.Rows, Figure3Row{
		Policy:         "naive (always HTM first)",
		HTMAbortPct:    100 * naive.RT.Stats().HTMAbortRate(),
		DegradationPct: overheadPct(nres.CyclesPerRequest(), base),
		HotSites:       naive.RT.SiteAbortRates(),
	})

	// Manual: learn the hot gates in a warmup run with the dynamic
	// policy, then pin them STM from the start of a fresh run.
	warm, _, err := r.measureImage(img, boot.Options{Core: perfConfig(core.ModeHybrid, 0.01, 4, r.Seed)})
	if err != nil {
		return out, err
	}
	manual, mres, err := r.measureImage(img, boot.Options{
		Core:     perfConfig(core.ModeHybrid, 0.01, 4, r.Seed),
		Prelatch: warm.RT.LatchedSites(),
	})
	if err != nil {
		return out, err
	}
	out.Rows = append(out.Rows, Figure3Row{
		Policy:         "manual (hot regions pinned STM)",
		HTMAbortPct:    100 * manual.RT.Stats().HTMAbortRate(),
		DegradationPct: overheadPct(mres.CyclesPerRequest(), base),
	})

	// Dynamic: θ=1 %, S=128 — the configuration the paper's text uses.
	dyn, dres, err := r.measureImage(img, boot.Options{Core: perfConfig(core.ModeHybrid, 0.01, 128, r.Seed)})
	if err != nil {
		return out, err
	}
	out.Rows = append(out.Rows, Figure3Row{
		Policy:         "dynamic (θ=1%, S=128)",
		HTMAbortPct:    100 * dyn.RT.Stats().HTMAbortRate(),
		DegradationPct: overheadPct(dres.CyclesPerRequest(), base),
	})
	return out, nil
}

// Render prints the figure's two series plus the per-call attribution of
// the naive policy's aborts.
func (f Figure3Result) Render() string {
	var sb strings.Builder
	sb.WriteString(Figure3Title + "\n")
	fmt.Fprintf(&sb, "%-34s %12s %16s\n", "policy", "HTM abort %", "degradation %")
	for _, row := range f.Rows {
		fmt.Fprintf(&sb, "%-34s %12.2f %16.1f\n", row.Policy, row.HTMAbortPct, row.DegradationPct)
	}
	for _, row := range f.Rows {
		if len(row.HotSites) == 0 {
			continue
		}
		sb.WriteString("aborting transactions under the naive policy (per gate call):\n")
		sites := append([]core.SiteAbortRate(nil), row.HotSites...)
		sort.Slice(sites, func(i, j int) bool { return sites[i].AbortPct() > sites[j].AbortPct() })
		for i, s := range sites {
			if i == 5 {
				break
			}
			fmt.Fprintf(&sb, "  site %-3d %-10s %6.1f%% aborts (%d/%d executions)\n",
				s.Site, s.Call, s.AbortPct(), s.Aborts, s.Execs)
		}
		break
	}
	return sb.String()
}

// --- Figure 5 -------------------------------------------------------------------

// Figure5Row is one server's recovery-latency distribution.
type Figure5Row struct {
	Server  string
	Samples int
	P50us   float64
	P90us   float64
	MaxUs   float64
}

// figure5Row summarizes one server's recovery-latency samples (cycles),
// sorting them in place.
func figure5Row(server string, samples []int64) Figure5Row {
	row := Figure5Row{Server: server, Samples: len(samples)}
	if len(samples) > 0 {
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		row.P50us = float64(samples[len(samples)/2]) / 1000
		row.P90us = float64(samples[len(samples)*9/10]) / 1000
		row.MaxUs = float64(samples[len(samples)-1]) / 1000
	}
	return row
}

// RenderFigure5 prints Fig. 5 from Table IV's fail-stop runs: recovery
// latency (trap → resumed execution) across the web servers'
// fault-triggered executions. Latency is in cost-model microseconds
// (1 cycle ≈ 1 ns); the paper's absolute numbers are larger because its
// transactions span real servers' working sets, but the shape — tight
// distribution with undo-log-sized outliers — is the comparison target.
func (t TableIVResult) RenderFigure5() string {
	var sb strings.Builder
	sb.WriteString(Figure5Title + "\n")
	fmt.Fprintf(&sb, "%-10s %8s %10s %10s %10s\n", "server", "samples", "p50", "p90", "max")
	for _, row := range t.Latency {
		fmt.Fprintf(&sb, "%-10s %8d %10.1f %10.1f %10.1f\n", row.Server, row.Samples, row.P50us, row.P90us, row.MaxUs)
	}
	return sb.String()
}

// --- Figure 6 -------------------------------------------------------------------

// Figure6Cell is one (threshold, sample size) measurement.
type Figure6Cell struct {
	ThresholdPct   float64
	SampleSize     int64
	DegradationPct float64
}

// Figure6Result is the parameter sweep per server.
type Figure6Result struct {
	Servers map[string][]Figure6Cell
	Order   []string
}

// Figure6 sweeps the HTM abort threshold (1–64 %) and accounting sample
// size (2–128) on the three web servers. The paper finds performance
// insensitive to both, with low thresholds slightly ahead.
func (r Runner) Figure6() (Figure6Result, error) {
	r = r.withDefaults()
	out := Figure6Result{Servers: map[string][]Figure6Cell{}}
	thresholds := []float64{0.01, 0.04, 0.16, 0.64}
	samples := []int64{2, 8, 32, 128}
	servers := apps.WebServers()

	// Stage 1: vanilla baselines, one per server, and the hardened image
	// every cell of a server's sweep boots.
	imgs, err := r.buildAll(servers, boot.Options{})
	if err != nil {
		return out, err
	}
	bases := make([]float64, len(servers))
	if err := r.forEach(len(servers), func(i int) error {
		_, vres, err := r.measure(servers[i], boot.Options{Vanilla: true})
		if err != nil {
			return err
		}
		bases[i] = vres.CyclesPerRequest()
		return nil
	}); err != nil {
		return out, err
	}

	// Stage 2: the full θ×S sweep across all servers as one flat job
	// list; cells land in sweep order per server.
	type cellJob struct {
		server int
		th     float64
		s      int64
	}
	var jobs []cellJob
	for si := range servers {
		for _, th := range thresholds {
			for _, s := range samples {
				jobs = append(jobs, cellJob{server: si, th: th, s: s})
			}
		}
	}
	cells := make([]Figure6Cell, len(jobs))
	if err := r.forEach(len(jobs), func(i int) error {
		j := jobs[i]
		_, res, err := r.measureImage(imgs[j.server], boot.Options{Core: perfConfig(core.ModeHybrid, j.th, j.s, r.Seed)})
		if err != nil {
			return err
		}
		cells[i] = Figure6Cell{
			ThresholdPct:   j.th * 100,
			SampleSize:     j.s,
			DegradationPct: overheadPct(res.CyclesPerRequest(), bases[j.server]),
		}
		return nil
	}); err != nil {
		return out, err
	}
	for i, j := range jobs {
		out.Servers[servers[j.server].Name] = append(out.Servers[servers[j.server].Name], cells[i])
	}
	for _, app := range servers {
		out.Order = append(out.Order, app.Name)
	}
	return out, nil
}

// Render prints one matrix per server.
func (f Figure6Result) Render() string {
	var sb strings.Builder
	sb.WriteString(Figure6Title + "\n")
	for _, name := range f.Order {
		cells := f.Servers[name]
		fmt.Fprintf(&sb, "%s:\n", name)
		fmt.Fprintf(&sb, "  %10s", "θ \\ S")
		seen := map[int64]bool{}
		var ss []int64
		for _, c := range cells {
			if !seen[c.SampleSize] {
				seen[c.SampleSize] = true
				ss = append(ss, c.SampleSize)
			}
		}
		for _, s := range ss {
			fmt.Fprintf(&sb, "%8d", s)
		}
		sb.WriteString("\n")
		byTh := map[float64][]Figure6Cell{}
		var ths []float64
		for _, c := range cells {
			if _, ok := byTh[c.ThresholdPct]; !ok {
				ths = append(ths, c.ThresholdPct)
			}
			byTh[c.ThresholdPct] = append(byTh[c.ThresholdPct], c)
		}
		for _, th := range ths {
			fmt.Fprintf(&sb, "  %9.0f%%", th)
			for _, c := range byTh[th] {
				fmt.Fprintf(&sb, "%8.1f", c.DegradationPct)
			}
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

// --- Figures 7, 8 & 9 -------------------------------------------------------------

// Figure7Row is one server's overhead under the three schemes.
type Figure7Row struct {
	Server         string
	HTMOnlyPct     float64
	STMOnlyPct     float64
	FIRestarterPct float64

	// Abort rates feed Figure 8.
	HTMOnlyAbortPct     float64
	FIRestarterAbortPct float64

	// Memory overheads feed Figure 9.
	HTMOnlyMemPct     float64
	STMOnlyMemPct     float64
	FIRestarterMemPct float64
}

// Figure7Result carries Fig. 7 (overhead), Fig. 8 (abort rates) and
// Fig. 9 (memory overhead), all from the same runs.
type Figure7Result struct {
	Rows []Figure7Row
}

// memFootprint charges the simulated RSS plus instrumentation costs: the
// duplicated code (instruction count, 16 bytes/instr as a code-byte
// estimate) and the undo log's capacity.
func memFootprint(inst *boot.Instance) int64 {
	var prog int64
	if inst.TR != nil {
		prog = int64(inst.TR.Prog.InstrCount())
	} else {
		prog = int64(inst.M.Prog.InstrCount())
	}
	rss := int64(inst.OS.Space.PeakPages()) * mem.PageSize
	code := prog * 16
	undo := int64(0)
	if inst.RT != nil {
		undo = inst.RT.MemoryOverheadBytes()
	}
	return rss + code + undo
}

// Figure7 measures normalized runtime overhead of HTM-only, STM-only and
// FIRestarter across all five servers (paper: FIRestarter ≤17 % on the
// web servers, ≤12 % Redis, with STM-only far worse; Fig. 8: FIRestarter
// slashes the HTM abort rate, least so on PostgreSQL; Fig. 9: modest
// memory overheads, mostly from code duplication, STM-only slightly
// higher from the undo log).
func (r Runner) Figure7() (Figure7Result, error) {
	r = r.withDefaults()
	var out Figure7Result
	servers := apps.All()

	// Four isolated runs per server (vanilla + three schemes), all
	// flattened into one job list; rows assemble in server order below.
	// The three schemes are boot-time configurations of one hardened
	// image per server.
	modes := [...]core.Mode{0, core.ModeHTMOnly, core.ModeSTMOnly, core.ModeHybrid} // 0: vanilla
	const variants = len(modes)
	vanilla, hardened, err := r.buildPair(servers)
	if err != nil {
		return out, err
	}
	// Each run keeps only its figures, not its instance: twenty booted
	// machines held until the rows assemble would set the campaign's
	// peak heap.
	type runOut struct {
		cpr       float64
		abortPct  float64 // HTM-only and hybrid runs only
		footprint float64
	}
	results := make([]runOut, len(servers)*variants)
	if err := r.forEach(len(results), func(i int) error {
		img, o := vanilla[i/variants], boot.Options{}
		if v := i % variants; v != 0 {
			img, o = hardened[i/variants], boot.Options{Core: perfConfig(modes[v], 0.01, 4, r.Seed)}
		}
		inst, res, err := r.measureImage(img, o)
		if err != nil {
			return err
		}
		results[i] = runOut{cpr: res.CyclesPerRequest(), footprint: float64(memFootprint(inst))}
		if v := i % variants; v == 1 || v == 3 {
			results[i].abortPct = 100 * inst.RT.Stats().HTMAbortRate()
		}
		return nil
	}); err != nil {
		return out, err
	}

	for si, app := range servers {
		run := results[si*variants : (si+1)*variants]
		out.Rows = append(out.Rows, Figure7Row{
			Server:              app.Name,
			HTMOnlyPct:          overheadPct(run[1].cpr, run[0].cpr),
			STMOnlyPct:          overheadPct(run[2].cpr, run[0].cpr),
			FIRestarterPct:      overheadPct(run[3].cpr, run[0].cpr),
			HTMOnlyAbortPct:     run[1].abortPct,
			FIRestarterAbortPct: run[3].abortPct,
			HTMOnlyMemPct:       overheadPct(run[1].footprint, run[0].footprint),
			STMOnlyMemPct:       overheadPct(run[2].footprint, run[0].footprint),
			FIRestarterMemPct:   overheadPct(run[3].footprint, run[0].footprint),
		})
	}
	return out, nil
}

// Render prints the Fig. 7 overhead series.
func (f Figure7Result) Render() string {
	return f.renderSchemes(Figure7Title, func(row Figure7Row) [3]float64 {
		return [3]float64{row.HTMOnlyPct, row.STMOnlyPct, row.FIRestarterPct}
	})
}

// RenderFigure8 prints the Fig. 8 abort-rate series from the same runs.
func (f Figure7Result) RenderFigure8() string {
	var sb strings.Builder
	sb.WriteString(Figure8Title + "\n")
	fmt.Fprintf(&sb, "%-10s %10s %13s\n", "server", "HTM-only", "FIRestarter")
	for _, row := range f.Rows {
		fmt.Fprintf(&sb, "%-10s %9.2f%% %12.2f%%\n",
			row.Server, row.HTMOnlyAbortPct, row.FIRestarterAbortPct)
	}
	return sb.String()
}

// RenderFigure9 prints the Fig. 9 memory-overhead series (RSS + code +
// checkpointing structures, normalized to vanilla) from the same runs.
func (f Figure7Result) RenderFigure9() string {
	return f.renderSchemes(Figure9Title, func(row Figure7Row) [3]float64 {
		return [3]float64{row.HTMOnlyMemPct, row.STMOnlyMemPct, row.FIRestarterMemPct}
	})
}

// renderSchemes prints one percentage per scheme and server under title.
func (f Figure7Result) renderSchemes(title string, pcts func(Figure7Row) [3]float64) string {
	var sb strings.Builder
	sb.WriteString(title + "\n")
	fmt.Fprintf(&sb, "%-10s %10s %10s %13s\n", "server", "HTM-only", "STM-only", "FIRestarter")
	for _, row := range f.Rows {
		p := pcts(row)
		fmt.Fprintf(&sb, "%-10s %9.1f%% %9.1f%% %12.1f%%\n", row.Server, p[0], p[1], p[2])
	}
	return sb.String()
}
