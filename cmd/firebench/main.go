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
// default suite's output stays stable). The reduced default suite's
// output is pinned in testdata/suite.golden.
//
// Some experiments render the same runs: fig7, fig8 and fig9 share the
// Figure 7 campaign, table4 and fig5 the Table IV fault campaign, and
// table3 and windows the windows campaign. One invocation runs each
// campaign once, at the first experiment that needs it, so fig5 alone
// runs all of Table IV. -parallel fans each campaign's
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
// -record-out arms the flight recorder for the chaos, openloop and
// domains experiments: every incarnation that ends unrecovered (or
// with the crash-loop breaker open) is captured as a replay manifest
// plus a companion span stream, replayable and reverse-steppable with
// firetrace -replay. -fingerprint appends the span log's hash-chain
// value to the output of every experiment that has one (chaos, fleet,
// domains, openloop and the per-app runs) — one line that commits to
// every byte of the -trace-out export. An output flag (-trace-out,
// -fingerprint, -metrics-out, -profile) that no selected experiment
// honours exits 2 before anything runs.
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
	"github.com/firestarter-go/firestarter/internal/obsv"
)

// experiment is one runnable entry: name, a one-line description for
// -list, the output flags it honours, and the runner returning its
// output. Extras run only when selected by name — "all" keeps to the
// paper suite.
type experiment struct {
	name  string
	desc  string
	extra bool
	spans bool // has a span log: honours -trace-out and -fingerprint
	obs   bool // has metrics and a guest profile: honours -metrics-out and -profile
	run   func(r bench.Runner) (output, error)
}

// output is one experiment run's result: the rendered text plus the
// streams the output flags export.
type output struct {
	text  string
	spans []obsv.SpanEvent     // the experiment's span log (spans experiments)
	obs   *bench.ObserveResult // metrics and guest profile (obs experiments)
}

// text wraps a rendered result that exports nothing.
func text(s string, err error) (output, error) { return output{text: s}, err }

// obsvOut carries the output flags (applied by export) and the fleet
// experiment's replica counts.
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
	// Several experiments render the same campaign's runs; memoize each
	// campaign so `-experiment all` runs it once.
	fig7 := once(bench.Runner.Figure7)
	table4 := once(bench.Runner.TableIV)
	windows := once(bench.Runner.TxWindows)

	exps := []experiment{
		{name: "table2", desc: bench.TableIITitle, run: func(bench.Runner) (output, error) {
			return text(bench.TableII().Render(), nil)
		}},
		{name: "table3", desc: bench.TableIIITitle, run: func(r bench.Runner) (output, error) {
			res, err := windows(r)
			return text(res.TableIII().Render(), err)
		}},
		{name: "table4", desc: bench.TableIVTitle, run: func(r bench.Runner) (output, error) {
			res, err := table4(r)
			return text(res.Render(), err)
		}},
		{name: "fig3", desc: bench.Figure3Title, run: func(r bench.Runner) (output, error) {
			res, err := r.Figure3()
			return text(res.Render(), err)
		}},
		{name: "fig5", desc: bench.Figure5Title, run: func(r bench.Runner) (output, error) {
			res, err := table4(r)
			return text(res.RenderFigure5(), err)
		}},
		{name: "fig6", desc: bench.Figure6Title, run: func(r bench.Runner) (output, error) {
			res, err := r.Figure6()
			return text(res.Render(), err)
		}},
		{name: "fig7", desc: bench.Figure7Title, run: func(r bench.Runner) (output, error) {
			res, err := fig7(r)
			return text(res.Render(), err)
		}},
		{name: "fig8", desc: bench.Figure8Title, run: func(r bench.Runner) (output, error) {
			res, err := fig7(r)
			return text(res.RenderFigure8(), err)
		}},
		{name: "fig9", desc: bench.Figure9Title, run: func(r bench.Runner) (output, error) {
			res, err := fig7(r)
			return text(res.RenderFigure9(), err)
		}},
		{name: "realworld", desc: bench.RealWorldTitle, run: func(r bench.Runner) (output, error) {
			res, err := r.RealWorld()
			return text(res.Render(), err)
		}},
		{name: "windows", desc: bench.WindowsTitle, run: func(r bench.Runner) (output, error) {
			res, err := windows(r)
			return text(res.Render(), err)
		}},
		{name: "ablation", desc: "ablations: divert, retry, geometry, masked writes, restart baseline", run: func(r bench.Runner) (output, error) {
			var sb strings.Builder
			d, err := r.AblationDivert()
			if err != nil {
				return output{}, err
			}
			sb.WriteString(d.Render() + "\n")
			rt, err := r.AblationRetry()
			if err != nil {
				return output{}, err
			}
			sb.WriteString(rt.Render() + "\n")
			g, err := r.AblationGeometry()
			if err != nil {
				return output{}, err
			}
			sb.WriteString(g.Render() + "\n")
			mw, err := r.AblationMaskedWrites()
			if err != nil {
				return output{}, err
			}
			sb.WriteString(mw.Render() + "\n")
			rb, err := r.AblationRestartBaseline()
			if err != nil {
				return output{}, err
			}
			sb.WriteString(rb.Render())
			return text(sb.String(), nil)
		}},
		{name: "threads", desc: "multi-worker scaling and abort-cause breakdown (conflict aborts)", run: func(r bench.Runner) (output, error) {
			res, err := r.Threads()
			return text(res.Render(), err)
		}},
		{name: "chaos", desc: "chaos soak: seeded fail-stop + fail-silent faults vs the full recovery ladder (extra)", extra: true, spans: true, run: func(r bench.Runner) (output, error) {
			res, err := r.Chaos()
			if err != nil {
				return output{}, err
			}
			return output{text: res.Render(), spans: res.Spans}, nil
		}},
		{name: "fleet", desc: "fleet scaling: the chaos matrix behind the deterministic L4 balancer at 1/2/4/8 replicas (extra)", extra: true, spans: true, run: func(r bench.Runner) (output, error) {
			sizes, err := parseSizes(out.replicas)
			if err != nil {
				return output{}, err
			}
			res, err := r.Fleet(sizes...)
			if err != nil {
				return output{}, err
			}
			return output{text: res.Render(), spans: res.Spans}, nil
		}},
		{name: "domains", desc: "heap domains: undo-vs-discard ablation + fail-silent containment on the pool servers (extra)", extra: true, spans: true, run: func(r bench.Runner) (output, error) {
			ab, err := r.AblationDomains()
			if err != nil {
				return output{}, err
			}
			ct, err := r.Containment()
			if err != nil {
				return output{}, err
			}
			return output{text: ab.Render() + "\n" + ct.Render(), spans: ct.Spans}, nil
		}},
		{name: "openloop", desc: "open-loop offered-load sweep: latency vs load and the shedding knee over the supervised fleet (extra)", extra: true, spans: true, run: func(r bench.Runner) (output, error) {
			res, err := r.OpenLoop()
			if err != nil {
				return output{}, err
			}
			return output{text: res.Render(), spans: res.Spans}, nil
		}},
	}
	for _, app := range apps.All() {
		exps = append(exps, observeExperiment(app.Name))
	}
	return exps
}

// once memoizes one campaign for an invocation: the first experiment
// that renders it runs it, and the others reuse its result.
func once[T any](campaign func(bench.Runner) (T, error)) func(bench.Runner) (T, error) {
	var (
		done bool
		res  T
		err  error
	)
	return func(r bench.Runner) (T, error) {
		if !done {
			res, err = campaign(r)
			done = true
		}
		return res, err
	}
}

// observeExperiment builds the per-app observability extra: the hardened
// app under the standard workload with spans, metrics and the profiler
// enabled, exported through the -trace-out/-metrics-out/-profile flags.
func observeExperiment(appName string) experiment {
	return experiment{
		name:  appName,
		desc:  "observability run: hardened " + appName + " with spans, metrics, guest profiler (extra)",
		extra: true,
		spans: true,
		obs:   true,
		run: func(r bench.Runner) (output, error) {
			res, err := r.Observe(appName)
			if err != nil {
				return output{}, err
			}
			return output{text: res.Render(), spans: res.Spans, obs: res}, nil
		},
	}
}

// check rejects an output flag that no selected experiment honours, so
// it fails before anything runs instead of being silently ignored.
func (o *obsvOut) check(selected []experiment) error {
	var spans, obs bool
	for _, e := range selected {
		spans = spans || e.spans
		obs = obs || e.obs
	}
	for _, f := range []struct {
		flag          string
		set, honoured bool
		what          string
	}{
		{"-trace-out", o.traceOut != "", spans, "a span log"},
		{"-fingerprint", o.fingerprint, spans, "a span log"},
		{"-metrics-out", o.metricsOut != "", obs, "metrics"},
		{"-profile", o.profileOut != "", obs, "a guest profile"},
	} {
		if f.set && !f.honoured {
			return fmt.Errorf("%s: no selected experiment has %s", f.flag, f.what)
		}
	}
	return nil
}

// export writes the output files the flags ask for and returns the run's
// text, with the span fingerprint line appended under -fingerprint.
// -trace-out writes the densely re-sequenced stream (obsv.Sequence) and
// the fingerprint is that stream's chain value, folded in place
// (obsv.SequenceFingerprint), so -fingerprint alone copies no spans.
func (o *obsvOut) export(e experiment, res output) (string, error) {
	text := res.text
	if e.spans && o.traceOut != "" {
		if err := writeFile(o.traceOut, obsv.Sequence(res.spans).WriteJSONL); err != nil {
			return "", err
		}
	}
	if e.spans && o.fingerprint {
		text += fmt.Sprintf("span fingerprint: %016x\n", obsv.SequenceFingerprint(res.spans))
	}
	if e.obs {
		if err := writeFile(o.metricsOut, res.obs.WriteMetrics); err != nil {
			return "", err
		}
		if err := writeFile(o.profileOut, res.obs.WriteProfile); err != nil {
			return "", err
		}
	}
	return text, nil
}

// writeFile writes through render to path (nothing when path is empty),
// propagating close errors.
func writeFile(path string, render func(io.Writer) error) error {
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
		expName = fs.String("experiment", "all",
			"experiment to run (all, "+strings.Join(names(&out), ", ")+")")
		list     = fs.Bool("list", false, "list experiment names and exit")
		requests = fs.Int("requests", 300, "requests per measurement run")
		faults   = fs.Int("faults", 12, "fault-injection experiments per server")
		seed     = fs.Int64("seed", 1, "seed for workloads, fault plans and the interrupt process")
		conc     = fs.Int("concurrency", 4, "simulated clients")
		parallel = fs.Int("parallel", 1, "worker pool size for measurement runs (1 = serial; results are identical)")
		backend  = fs.String("backend", "tree", "execution backend for guest machines (tree, bytecode); output is byte-identical either way")
	)
	fs.StringVar(&out.traceOut, "trace-out", "", "write the span log as JSONL to this file (chaos, fleet, domains, openloop, per-app runs)")
	fs.StringVar(&out.metricsOut, "metrics-out", "", "write the metrics registry as JSONL to this file (per-app runs)")
	fs.StringVar(&out.profileOut, "profile", "", "write the guest profile as JSONL to this file (per-app runs)")
	fs.StringVar(&out.replicas, "replicas", "1,2,4,8", "replica counts for the fleet experiment, comma-separated")
	fs.BoolVar(&out.fingerprint, "fingerprint", false, "print the span log's hash-chain fingerprint (chaos, fleet, domains, openloop, per-app runs)")
	recordOut := fs.String("record-out", "", "write replay manifests for failing incarnations/rungs into this directory (chaos, openloop, domains; see firetrace -replay)")
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

	var selected []experiment
	for _, e := range experiments(&out) {
		if *expName == "all" && !e.extra || *expName == e.name {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "firebench: unknown experiment %q\n", *expName)
		fmt.Fprintln(stderr, "available: all, "+strings.Join(names(&out), ", "))
		return 2
	}
	if err := out.check(selected); err != nil {
		fmt.Fprintf(stderr, "firebench: %v\n", err)
		return 2
	}
	for _, e := range selected {
		res, err := e.run(r)
		if err == nil {
			res.text, err = out.export(e, res)
		}
		if err != nil {
			fmt.Fprintf(stderr, "firebench: %s: %v\n", e.name, err)
			return 1
		}
		fmt.Fprintln(stdout, res.text)
	}
	return 0
}
