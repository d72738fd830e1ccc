// Command firebench regenerates the paper's evaluation: every table and
// figure of §VI, printed in the paper's layout, plus the repo's own
// extension campaigns.
//
// Usage:
//
//	firebench [-experiment <name>] [-list] [-backend tree|bytecode]
//	          [-requests N] [-faults N] [-seed N] [-parallel N]
//	          [-trace-out FILE] [-metrics-out FILE] [-profile FILE]
//	          [-record-out DIR] [-fingerprint]
//
// -list prints the experiment names -experiment accepts (plus "all",
// the default, which runs every table/figure experiment in order; the
// per-app observability runs are extras, selected by name only, so the
// default suite's output stays stable). -parallel fans each campaign's
// isolated measurement runs across N workers; output is byte-identical
// to a serial run for the same seed. -backend selects the guest
// execution strategy (the tree-walking interpreter or the compiled
// bytecode stream); every experiment's output is byte-identical across
// backends, which `make diff-smoke` checks in CI.
//
// The observability experiments (one per app: nginx, apache, lighttpd,
// redis, postgres) drive the hardened server with structured spans, the
// metrics registry and the guest profiler enabled, and export them as
// JSONL via -trace-out, -metrics-out and -profile. All three outputs are
// cycle-domain and byte-deterministic for a fixed seed.
//
// The chaos experiment (also an extra) sweeps seeded fail-stop and
// fail-silent faults across all five apps under the full recovery
// escalation ladder (rollback, STM retry, gate injection, request
// shedding, supervised microreboot, crash-loop breaker) and attributes
// every fault to the rung that absorbed it; -trace-out exports the
// campaign-global span log.
//
// The fleet experiment (extra) replicates every chaos campaign behind
// the deterministic L4 balancer at each -replicas count and reports the
// goodput and p999 scaling curve; -trace-out exports the experiment-
// global span log, which carries replica/incarnation stamps on every
// replica-attributed event.
//
// -record-out arms the flight recorder for the chaos and openloop
// experiments: every incarnation that ends unrecovered (or with the
// crash-loop breaker open) is captured as a replay manifest plus a
// companion span stream, replayable and reverse-steppable with
// firetrace -replay. -fingerprint appends the campaign span stream's
// hash-chain value to those experiments' output — one line that commits
// to every byte of the -trace-out export.
//
// The openloop experiment (extra) calibrates the hardened web server's
// recovery-inclusive service rate closed-loop, then offers fixed
// multiples of it on a deterministic Poisson arrival schedule — a large
// modeled client population with connection churn, slow readers,
// fragmented writes and pipelining — behind the supervised fleet. The
// table reports latency vs offered load, the clean/recovery p999 split
// and the shedding knee; -trace-out exports the experiment-global span
// log.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/bench"
	"github.com/firestarter-go/firestarter/internal/boot"
)

// experiment is one runnable entry: name, a one-line description for
// -list, and the runner returning rendered output. Extras run only when
// selected by name — "all" keeps to the paper suite.
type experiment struct {
	name  string
	desc  string
	extra bool
	run   func(r bench.Runner) (string, error)
}

// obsvOut carries the export paths and experiment knobs from the flags
// to the experiment closures.
type obsvOut struct {
	traceOut    string
	metricsOut  string
	profileOut  string
	replicas    string // -replicas: fleet experiment sizes, comma-separated
	fingerprint bool   // -fingerprint: print the span-stream hash chain
}

// parseSizes parses the -replicas flag ("1,2,4,8") into replica counts.
func parseSizes(s string) ([]int, error) {
	var sizes []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(part, "%d", &n); err != nil || n <= 0 {
			return nil, fmt.Errorf("bad replica count %q", part)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

// experiments is the single registry every consumer derives from: the
// -experiment dispatch, the -list output, the error message, and the
// flag's usage string.
func experiments(out *obsvOut) []experiment {
	// fig7 and fig8 render different series of the same measurement runs;
	// memoize so `-experiment all` pays for them once.
	var fig7 *bench.Figure7Result
	sharedFig7 := func(r bench.Runner) (bench.Figure7Result, error) {
		if fig7 != nil {
			return *fig7, nil
		}
		res, err := r.Figure7()
		if err == nil {
			fig7 = &res
		}
		return res, err
	}

	exps := []experiment{
		{name: "table2", desc: "Table II: the 101 canonical libc functions by recovery class", run: func(bench.Runner) (string, error) {
			return bench.TableII().Render(), nil
		}},
		{name: "table3", desc: "Table III: normalized performance overhead per server", run: func(r bench.Runner) (string, error) {
			res, err := r.TableIII()
			return res.Render(), err
		}},
		{name: "table4", desc: "Table IV: fault-injection survival campaigns", run: func(r bench.Runner) (string, error) {
			res, err := r.TableIV()
			return res.Render(), err
		}},
		{name: "fig3", desc: "Figure 3: adaptive-transaction policies on Nginx", run: func(r bench.Runner) (string, error) {
			res, err := r.Figure3()
			return res.Render(), err
		}},
		{name: "fig5", desc: "Figure 5: overhead vs transaction-window length", run: func(r bench.Runner) (string, error) {
			res, err := r.Figure5()
			return res.Render(), err
		}},
		{name: "fig6", desc: "Figure 6: overhead vs abort-rate threshold θ", run: func(r bench.Runner) (string, error) {
			res, err := r.Figure6()
			return res.Render(), err
		}},
		{name: "fig7", desc: "Figure 7: overhead vs working-set footprint", run: func(r bench.Runner) (string, error) {
			res, err := sharedFig7(r)
			return res.Render(), err
		}},
		{name: "fig8", desc: "Figure 8: abort rate vs working-set footprint (same runs as fig7)", run: func(r bench.Runner) (string, error) {
			res, err := sharedFig7(r)
			return res.RenderFigure8(), err
		}},
		{name: "fig9", desc: "Figure 9: throughput under a persistent injected fault", run: func(r bench.Runner) (string, error) {
			res, err := r.Figure9()
			return res.Render(), err
		}},
		{name: "realworld", desc: "§VI-F: the real-world crash case studies", run: func(r bench.Runner) (string, error) {
			res, err := r.RealWorld()
			return res.Render(), err
		}},
		{name: "windows", desc: "transaction-window composition per server", run: func(r bench.Runner) (string, error) {
			res, err := r.TxWindows()
			return res.Render(), err
		}},
		{name: "ablation", desc: "ablations: divert, retry, geometry, masked writes, restart baseline", run: func(r bench.Runner) (string, error) {
			var sb strings.Builder
			d, err := r.AblationDivert()
			if err != nil {
				return "", err
			}
			sb.WriteString(d.Render() + "\n")
			rt, err := r.AblationRetry()
			if err != nil {
				return "", err
			}
			sb.WriteString(rt.Render() + "\n")
			g, err := r.AblationGeometry()
			if err != nil {
				return "", err
			}
			sb.WriteString(g.Render() + "\n")
			mw, err := r.AblationMaskedWrites()
			if err != nil {
				return "", err
			}
			sb.WriteString(mw.Render() + "\n")
			rb, err := r.AblationRestartBaseline()
			if err != nil {
				return "", err
			}
			sb.WriteString(rb.Render())
			return sb.String(), nil
		}},
		{name: "threads", desc: "multi-worker scaling and abort-cause breakdown (conflict aborts)", run: func(r bench.Runner) (string, error) {
			res, err := r.Threads()
			return res.Render(), err
		}},
		{name: "chaos", desc: "chaos soak: seeded fail-stop + fail-silent faults vs the full recovery ladder (extra)", extra: true, run: func(r bench.Runner) (string, error) {
			res, err := r.Chaos()
			if err != nil {
				return "", err
			}
			if out.traceOut != "" {
				f, err := os.Create(out.traceOut)
				if err != nil {
					return "", err
				}
				if err := res.WriteTrace(f); err != nil {
					f.Close()
					return "", err
				}
				if err := f.Close(); err != nil {
					return "", err
				}
			}
			text := res.Render()
			if out.fingerprint {
				text += fmt.Sprintf("span fingerprint: %016x\n", res.Fingerprint())
			}
			return text, nil
		}},
		{name: "fleet", desc: "fleet scaling: the chaos matrix behind the deterministic L4 balancer at 1/2/4/8 replicas (extra)", extra: true, run: func(r bench.Runner) (string, error) {
			sizes, err := parseSizes(out.replicas)
			if err != nil {
				return "", err
			}
			res, err := r.Fleet(sizes...)
			if err != nil {
				return "", err
			}
			if out.traceOut != "" {
				f, err := os.Create(out.traceOut)
				if err != nil {
					return "", err
				}
				if err := res.WriteTrace(f); err != nil {
					f.Close()
					return "", err
				}
				if err := f.Close(); err != nil {
					return "", err
				}
			}
			return res.Render(), nil
		}},
		{name: "domains", desc: "heap domains: undo-vs-discard ablation + fail-silent containment on the pool servers (extra)", extra: true, run: func(r bench.Runner) (string, error) {
			var sb strings.Builder
			ab, err := r.AblationDomains()
			if err != nil {
				return "", err
			}
			sb.WriteString(ab.Render() + "\n")
			ct, err := r.Containment()
			if err != nil {
				return "", err
			}
			if out.traceOut != "" {
				f, err := os.Create(out.traceOut)
				if err != nil {
					return "", err
				}
				if err := ct.WriteTrace(f); err != nil {
					f.Close()
					return "", err
				}
				if err := f.Close(); err != nil {
					return "", err
				}
			}
			sb.WriteString(ct.Render())
			return sb.String(), nil
		}},
		{name: "openloop", desc: "open-loop offered-load sweep: latency vs load and the shedding knee over the supervised fleet (extra)", extra: true, run: func(r bench.Runner) (string, error) {
			res, err := r.OpenLoop()
			if err != nil {
				return "", err
			}
			if out.traceOut != "" {
				f, err := os.Create(out.traceOut)
				if err != nil {
					return "", err
				}
				if err := res.WriteTrace(f); err != nil {
					f.Close()
					return "", err
				}
				if err := f.Close(); err != nil {
					return "", err
				}
			}
			text := res.Render()
			if out.fingerprint {
				text += fmt.Sprintf("span fingerprint: %016x\n", res.Fingerprint())
			}
			return text, nil
		}},
	}
	for _, app := range apps.All() {
		exps = append(exps, observeExperiment(app.Name, out))
	}
	return exps
}

// observeExperiment builds the per-app observability extra: the hardened
// app under the standard workload with spans, metrics and the profiler
// enabled, exported through the -trace-out/-metrics-out/-profile flags.
func observeExperiment(appName string, out *obsvOut) experiment {
	return experiment{
		name:  appName,
		desc:  "observability run: hardened " + appName + " with spans, metrics, guest profiler (extra)",
		extra: true,
		run: func(r bench.Runner) (string, error) {
			res, err := r.Observe(appName)
			if err != nil {
				return "", err
			}
			if err := exportObsv(res, out); err != nil {
				return "", err
			}
			return res.Render(), nil
		},
	}
}

// exportObsv writes the requested JSONL exports.
func exportObsv(res *bench.ObserveResult, out *obsvOut) error {
	write := func(path string, render func(io.Writer) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := render(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(out.traceOut, res.WriteTrace); err != nil {
		return err
	}
	if err := write(out.metricsOut, res.WriteMetrics); err != nil {
		return err
	}
	return write(out.profileOut, res.WriteProfile)
}

func names(out *obsvOut) []string {
	var names []string
	for _, e := range experiments(out) {
		names = append(names, e.name)
	}
	return names
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var out obsvOut
	fs := flag.NewFlagSet("firebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment = fs.String("experiment", "all",
			"experiment to run (all, "+strings.Join(names(&out), ", ")+")")
		list     = fs.Bool("list", false, "list experiment names and exit")
		requests = fs.Int("requests", 300, "requests per measurement run")
		faults   = fs.Int("faults", 12, "fault-injection experiments per server")
		seed     = fs.Int64("seed", 1, "seed for workloads, fault plans and the interrupt process")
		conc     = fs.Int("concurrency", 4, "simulated clients")
		parallel = fs.Int("parallel", 1, "worker pool size for measurement runs (1 = serial; results are identical)")
		backend  = fs.String("backend", "tree", "execution backend for guest machines (tree, bytecode); output is byte-identical either way")
	)
	fs.StringVar(&out.traceOut, "trace-out", "", "write the structured span trace as JSONL to this file (observability experiments)")
	fs.StringVar(&out.metricsOut, "metrics-out", "", "write the metrics registry as JSONL to this file (observability experiments)")
	fs.StringVar(&out.profileOut, "profile", "", "write the guest profile as JSONL to this file (observability experiments)")
	fs.StringVar(&out.replicas, "replicas", "1,2,4,8", "replica counts for the fleet experiment, comma-separated")
	fs.BoolVar(&out.fingerprint, "fingerprint", false, "print the span-stream hash-chain fingerprint (chaos, openloop)")
	recordOut := fs.String("record-out", "", "write replay manifests for failing incarnations/rungs into this directory (chaos, openloop; see firetrace -replay)")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	// Validate -backend before any experiment runs: table2 boots no
	// machine, so a bad name would otherwise print it and exit 0.
	if err := boot.CheckBackend(*backend); err != nil {
		fmt.Fprintf(stderr, "firebench: -backend: %v\n", err)
		return 2
	}

	if *list {
		for _, e := range experiments(&out) {
			fmt.Fprintf(stdout, "%-10s %s\n", e.name, e.desc)
		}
		return 0
	}

	r := bench.Runner{
		Requests:        *requests,
		Concurrency:     *conc,
		Seed:            *seed,
		FaultsPerServer: *faults,
		Parallelism:     *parallel,
		Backend:         *backend,
		RecordDir:       *recordOut,
	}

	ran := false
	for _, e := range experiments(&out) {
		if *experiment == "all" && e.extra {
			continue
		}
		if *experiment != "all" && *experiment != e.name {
			continue
		}
		ran = true
		text, err := e.run(r)
		if err != nil {
			fmt.Fprintf(stderr, "firebench: %s: %v\n", e.name, err)
			return 1
		}
		fmt.Fprintln(stdout, text)
	}
	if !ran {
		fmt.Fprintf(stderr, "firebench: unknown experiment %q\n", *experiment)
		fmt.Fprintln(stderr, "available: all, "+strings.Join(names(&out), ", "))
		return 2
	}
	return 0
}
