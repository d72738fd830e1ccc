package bench

import (
	"fmt"
	"strings"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/boot"
	"github.com/firestarter-go/firestarter/internal/core"
	"github.com/firestarter-go/firestarter/internal/htm"
	"github.com/firestarter-go/firestarter/internal/obsv"
	"github.com/firestarter-go/firestarter/internal/supervisor"
	"github.com/firestarter-go/firestarter/internal/workload"
)

// The heap-domain experiments evaluate the rewind-and-discard checkpoint
// strategy on the allocation-heavy pool servers: the ablation compares
// per-store STM undo logging against the O(1) arena discard (and shows
// the HTM capacity cliff re-routing to domains under the three-way §IV-C
// policy); the containment campaign proves that fail-silent corruption
// never leaks another request's (or a discarded request's) bytes into a
// response.

// --- strategy ablation --------------------------------------------------------------

// DomainsRow is one app x checkpoint-strategy measurement under a
// persistent fail-stop fault.
type DomainsRow struct {
	App          string
	Strategy     string
	Crashes      int64
	UndoStores   int64 // per-store undo log entries (STM write instrumentation)
	Discards     int64 // O(1) arena rewinds (domain crash rollbacks)
	DomainTxs    int64
	Completed    int
	CyclesPerReq float64
}

// CapacityRow is one HTM-geometry x domains measurement: where the
// capacity cliff sends capacity-aborted gates once domains are available.
type CapacityRow struct {
	CacheKiB   int
	Domains    bool
	AbortPct   float64
	STMTxs     int64
	DomainTxs  int64
	UndoStores int64
}

// DomainsResult is the heap-domain strategy ablation.
type DomainsResult struct {
	Rows     []DomainsRow
	Capacity []CapacityRow
}

// domainStrategies are the three checkpoint strategies the ablation
// compares on the pool servers. All three enable arenas so the servers'
// request memory behaves identically; only the checkpoint/rollback
// mechanism differs — STM pays a log entry per store and replays it
// backwards on a crash, rewind snapshots registers only and discards the
// arena suffix in O(1).
var domainStrategies = []struct {
	name string
	cfg  core.Config
}{
	{"stm (per-store undo)", core.Config{Mode: core.ModeSTMOnly, EnableDomains: true}},
	{"hybrid (three-way policy)", core.Config{EnableDomains: true}},
	{"rewind (O(1) discard)", core.Config{Mode: core.ModeRewind}},
}

// AblationDomains measures the checkpoint strategies on the pool servers
// with one planted persistent fail-stop fault each, then sweeps the HTM
// geometry on the lighttpd pool variant with domains off and on.
func (r Runner) AblationDomains() (DomainsResult, error) {
	r = r.withDefaults()
	var out DomainsResult

	// One persistent fail-stop fault per app, planted in a non-critical
	// handler the workload mix exercises on a fraction of requests (the
	// targeted placement of the §VI-F case studies): the lighttpd pool's
	// SSI include read, the redis pool's GET reply copy.
	pool := apps.PoolApps()
	targets := []struct{ fn, lib string }{
		{"mod_ssi", "pread"},
		{"execute", "memcpy"},
	}
	// Every strategy boots its app's one faulted image; every capacity
	// cell boots one unfaulted lighttpd pool image.
	imgs := make([]*boot.Image, len(pool))
	for i, app := range pool {
		f, err := r.libFault(app, targets[i].fn, targets[i].lib, 1)
		if err != nil {
			return out, fmt.Errorf("domains %s: %w", app.Name, err)
		}
		if imgs[i], err = r.build(app, boot.Options{Fault: &f}); err != nil {
			return out, fmt.Errorf("domains %s: %w", app.Name, err)
		}
	}
	capImg, err := r.build(apps.LighttpdPool(), boot.Options{})
	if err != nil {
		return out, fmt.Errorf("domains capacity: %w", err)
	}

	type capJob struct {
		kib     int
		domains bool
	}
	var capJobs []capJob
	for _, kib := range []int{8, 32, 128} {
		for _, domains := range []bool{false, true} {
			capJobs = append(capJobs, capJob{kib: kib, domains: domains})
		}
	}

	// One fan-out over both tables; rows are reduced in job order so the
	// render is byte-identical for every Parallelism setting.
	nStrat := len(pool) * len(domainStrategies)
	stratRows := make([]DomainsRow, nStrat)
	capRows := make([]CapacityRow, len(capJobs))
	if err := r.forEach(nStrat+len(capJobs), func(i int) error {
		if i < nStrat {
			app, strat := pool[i/len(domainStrategies)], domainStrategies[i%len(domainStrategies)]
			inst, res, err := r.measureImage(imgs[i/len(domainStrategies)], boot.Options{Core: strat.cfg})
			if err != nil {
				return fmt.Errorf("domains %s/%s: %w", app.Name, strat.name, err)
			}
			st := inst.RT.Stats()
			stratRows[i] = DomainsRow{
				App:          app.Name,
				Strategy:     strat.name,
				Crashes:      st.Crashes,
				UndoStores:   inst.RT.STMStats().TotalStores,
				Discards:     st.DomainDiscards,
				DomainTxs:    st.DomainBegins,
				Completed:    res.Completed,
				CyclesPerReq: res.CyclesPerRequest(),
			}
			return nil
		}
		j := capJobs[i-nStrat]
		sets := j.kib * 1024 / 64 / htm.Ways // lines / ways
		cfg := core.Config{
			HTM:           htm.Config{Sets: sets, Seed: r.Seed},
			EnableDomains: j.domains,
		}
		inst, _, err := r.measureImage(capImg, boot.Options{Core: cfg})
		if err != nil {
			return fmt.Errorf("domains capacity %dKiB: %w", j.kib, err)
		}
		st := inst.RT.Stats()
		capRows[i-nStrat] = CapacityRow{
			CacheKiB:   j.kib,
			Domains:    j.domains,
			AbortPct:   100 * st.HTMAbortRate(),
			STMTxs:     st.STMBegins,
			DomainTxs:  st.DomainBegins,
			UndoStores: inst.RT.STMStats().TotalStores,
		}
		return nil
	}); err != nil {
		return out, err
	}
	out.Rows, out.Capacity = stratRows, capRows
	return out, nil
}

// Render prints both ablation tables.
func (d DomainsResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Ablation: per-store undo vs O(1) arena discard on the pool servers (persistent fail-stop fault)\n")
	fmt.Fprintf(&sb, "%-14s %-26s %8s %12s %9s %8s %10s %14s\n",
		"app", "strategy", "crashes", "undo-stores", "discards", "dom-txs", "completed", "cycles/req")
	for _, row := range d.Rows {
		fmt.Fprintf(&sb, "%-14s %-26s %8d %12d %9d %8d %10d %14s\n",
			row.App, row.Strategy, row.Crashes, row.UndoStores, row.Discards,
			row.DomainTxs, row.Completed, workload.FormatCPR(row.CyclesPerReq))
	}
	sb.WriteString("\nAblation: HTM capacity cliff with and without domains (lighttpd-pool)\n")
	fmt.Fprintf(&sb, "%10s %8s %10s %9s %9s %12s\n",
		"L1D (KiB)", "domains", "abort %", "stm txs", "dom txs", "undo-stores")
	for _, row := range d.Capacity {
		onOff := "off"
		if row.Domains {
			onOff = "on"
		}
		fmt.Fprintf(&sb, "%10d %8s %10.2f %9d %9d %12d\n",
			row.CacheKiB, onOff, row.AbortPct, row.STMTxs, row.DomainTxs, row.UndoStores)
	}
	return sb.String()
}

// --- chaos containment --------------------------------------------------------------

// ContainRow aggregates one pool-app x fail-silent-kind sweep of the
// containment campaign.
type ContainRow struct {
	App        string
	Kind       string
	Faults     int
	Survived   int
	Crashes    int64
	Violations int64 // cross-domain accesses trapped as crashes
	Discards   int64 // O(1) crash rewinds
	Retires    int64 // request-end arena discards
	Writes     int64 // connection writes audited for domain provenance
	Leaks      int   // corruption-reach verdicts (the table's reason to exist: 0)
	Silent     int64 // deaths unattributed to a reboot or the breaker (must be 0)
}

// ContainResult is the chaos containment campaign outcome. Its stream,
// as ChaosResult's, suits obsvlint's trace schema and -causality (which
// also validates the domain switch/discard/violation ordering rules).
type ContainResult struct {
	Rows      []ContainRow
	Requests  int
	Campaigns int
	Survived  int
	Writes    int64

	stream
}

// Containment runs the fail-silent chaos matrix against the pool servers
// with heap domains enabled under the full recovery escalation ladder,
// and audits every connection write's domain provenance: no post-recovery
// response byte may derive from another live request's arena or from a
// discarded one. Any leak, any silent death, or any cross-surface
// accounting drift fails the experiment.
func (r Runner) Containment() (ContainResult, error) {
	r = r.withDefaults()
	out := ContainResult{Requests: r.Requests}
	jobs, err := r.planMatrix("containment", apps.PoolApps(), silentKinds, r.faultBudget)
	if err != nil {
		return out, err
	}
	runs, err := runCells(r, len(jobs), func(i int) string { return jobs[i].label("containment") },
		func(i int) (*ladderRun, error) {
			return r.ladderRun(jobs[i].app, boot.Options{
				Core:  core.Config{EnableDomains: true},
				Fault: &jobs[i].fault,
			}, supervisor.Config{Seed: r.Seed + 1000*int64(i+1)})
		})
	if err != nil {
		return out, err
	}
	if out.stream, err = reduce(r.RecordDir, "containment", runs...); err != nil {
		return out, err
	}

	var rows rowFold[matrixKey, ContainRow]
	for i, j := range jobs {
		lr := runs[i]
		row := rows.row(j.key(), func() ContainRow { return ContainRow{App: j.app.Name, Kind: j.kind.String()} })
		row.Faults++
		out.Campaigns++
		if !lr.Sup.BreakerOpen {
			row.Survived++
			out.Survived++
		}
		row.Crashes += lr.Totals.Get("core.crashes")
		row.Violations += lr.Totals.Get("core.domain_violations")
		row.Discards += lr.Totals.Get("core.domain_discards")
		row.Retires += lr.Totals.Get("core.domain_retires")
		row.Writes += lr.Taints
		row.Leaks += len(lr.Leaks)
		row.Silent += int64(lr.Sup.StateLost) - int64(lr.Sup.Restarts) - obsv.Flag(lr.Sup.BreakerOpen)
		out.Writes += lr.Taints
	}
	out.Rows = rows.rows
	return out, nil
}

// Render prints the containment table plus the campaign-level summary.
func (c ContainResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Chaos containment: fail-silent faults vs heap domains (%d requests per campaign)\n", c.Requests)
	fmt.Fprintf(&sb, "%-14s %-14s %6s %7s | %7s %5s %8s %7s | %7s %6s %7s\n",
		"app", "kind", "faults", "survive",
		"crashes", "viol", "discard", "retire",
		"writes", "leaks", "silent")
	for _, row := range c.Rows {
		fmt.Fprintf(&sb, "%-14s %-14s %6d %7d | %7d %5d %8d %7d | %7d %6d %7d\n",
			row.App, row.Kind, row.Faults, row.Survived,
			row.Crashes, row.Violations, row.Discards, row.Retires,
			row.Writes, row.Leaks, row.Silent)
	}
	fmt.Fprintf(&sb, "overall: %d/%d campaigns survived; %d response writes audited, 0 cross-request leaks, 0 silent deaths; stats==metrics==spans on every campaign\n",
		c.Survived, c.Campaigns, c.Writes)
	return sb.String()
}
