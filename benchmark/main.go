// Command benchmark measures what the simulator costs to run — host time and
// memory — on four fixed campaigns, through the same public entry points
// firebench uses (bench.Runner.Figure7, .Chaos, .OpenLoop). Guest results
// are not changed; the benchmark checks them instead: every rep's rendered
// output must hash to the same digest, and Figure 7 must render
// byte-identically on the tree and bytecode backends.
//
// Usage (bash benchmark/run.sh builds it in .bench_build and passes the
// arguments through):
//
//	benchmark -workload NAME [-seed N] [-seconds S] [-trace 0|1]
//	benchmark [-seed N] [-seconds S] [-trace 0|1]   # every workload, each in a child process
//	benchmark -compare A.jsonl B.jsonl
//
// A single-workload run sets up several times (setup_s is the median), then
// times campaign reps back to back for about S seconds (at least three) and
// prints the end-to-end metrics; -trace 1 instead profiles one rep and runs the
// core-seam probe for the per-layer metrics. Its last line of standard
// output is one JSON object: correct, attempted, failed and metrics. Run
// without -workload, it re-executes itself once per workload, so peak RSS
// and heap state are per workload, and prints one JSON record per workload
// for -compare. See README.md for the metrics, workloads and method.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/firestarter-go/firestarter/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run this workload in this process (fig7-tree, fig7-bytecode, chaos, openloop); empty runs each in a child process")
		seed    = fs.Int64("seed", 1, "benchmark seed; the campaign inputs are made from it")
		seconds = fs.Int("seconds", 20, "time campaign reps for about this many seconds (at least 3 reps)")
		trace   = fs.Int("trace", 0, "1: traced run reporting the per-layer metrics instead")
		compare = fs.Bool("compare", false, "compare two files of records: -compare A.jsonl B.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two record files")
			return 2
		}
		flagged, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if flagged {
			return 1
		}
		return 0
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "benchmark: -trace takes 0 or 1")
		return 2
	case *name == "":
		return runChildren(*seed, *seconds, *trace, stdout, stderr)
	}
	w := lookupWorkload(*name)
	if w == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	var res result
	var err error
	if *trace == 1 {
		res, err = traced(w, *seed, stdout)
	} else {
		res, err = measure(w, *seed, time.Duration(*seconds)*time.Second, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintln(stdout, res.json())
	return 0
}

// record is one workload's result as the all-workloads mode prints it and
// -compare reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// runChildren runs every workload in its own child process and prints one
// record per workload; the children's human-readable output goes to stderr.
func runChildren(seed int64, seconds, trace int, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	status := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, stderr
		err := cmd.Run()
		text := strings.TrimRight(out.String(), "\n")
		last := text[strings.LastIndex(text, "\n")+1:]
		fmt.Fprintln(stderr, strings.TrimSuffix(text, last))
		var res result
		if err == nil {
			err = json.Unmarshal([]byte(last), &res)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			status = 1
			continue
		}
		if !res.Correct {
			status = 1
		}
		b, _ := json.Marshal(record{Workload: w.name, Seed: seed, Trace: trace, Result: res})
		fmt.Fprintln(stdout, string(b))
	}
	return status
}

// A run sets up at least minSetups times and until setupBudget has passed
// (a Figure 7 set-up takes ~10 ms, so one sample would be mostly noise);
// setup_s is the median.
const (
	minSetups   = 5
	maxSetups   = 100
	setupBudget = time.Second
)

// setUp runs the workload's set-up repeatedly and returns the last
// set-up's output with the median of each timing.
func setUp(w *workloadDef, r bench.Runner) (*prepared, float64, stageTimes, error) {
	var totals []float64
	var stages [4][]float64
	var prep *prepared
	for begin := time.Now(); len(totals) < maxSetups &&
		(len(totals) < minSetups || time.Since(begin) < setupBudget); {
		var st stageTimes
		start := time.Now()
		p, err := w.setup(r, &st)
		if err != nil {
			return nil, 0, stageTimes{}, fmt.Errorf("set-up: %w", err)
		}
		totals = append(totals, time.Since(start).Seconds())
		for j, d := range []time.Duration{st.compile, st.apply, st.lower, st.plan} {
			stages[j] = append(stages[j], float64(d))
		}
		prep = p
	}
	st := stageTimes{
		compile: time.Duration(median(stages[0])),
		apply:   time.Duration(median(stages[1])),
		lower:   time.Duration(median(stages[2])),
		plan:    time.Duration(median(stages[3])),
	}
	return prep, median(totals), st, nil
}

// rep is one timed campaign rep.
type rep struct {
	wall, cpu      float64       // seconds, as measured
	ref            time.Duration // the reference kernel, run just before
	alloc, mallocs uint64        // heap bytes and objects allocated
	campaign       campaign
	err            error
}

// timeRep runs the reference kernel and then one campaign rep, from a
// freshly collected heap, so every rep starts from the same heap state.
func timeRep(w *workloadDef, r bench.Runner) rep {
	ref := referenceTime() // returns with the heap collected
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	start := time.Now()
	summary, err := w.run(r)
	wall := time.Since(start).Seconds()
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	rp := rep{
		wall: wall, cpu: cpu, ref: ref,
		alloc:   ms1.TotalAlloc - ms0.TotalAlloc,
		mallocs: ms1.Mallocs - ms0.Mallocs,
		err:     err,
	}
	if err == nil {
		rp.campaign = summary()
	}
	return rp
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// verify counts failed reps: a rep fails when its campaign returned an
// error or its digest differs from the first rep's. When the workload has a
// backend twin, one rep of the twin runs (untimed) and a digest mismatch
// fails every rep. It prints the digests, so byte-identity claims can be
// checked from the output.
func verify(w *workloadDef, seed int64, reps []rep, out io.Writer) (failed int) {
	ref := reps[0].campaign.digest
	for i, rp := range reps {
		switch {
		case rp.err != nil:
			fmt.Fprintf(out, "rep %d: error: %v\n", i+1, rp.err)
			failed++
		case rp.campaign.digest != ref:
			fmt.Fprintf(out, "rep %d: digest %s differs from rep 1's %s\n", i+1, rp.campaign.digest, ref)
			failed++
		}
	}
	fmt.Fprintf(out, "%s digest: %s\n", w.name, ref)
	if w.twin == "" {
		return failed
	}
	twin := lookupWorkload(w.twin)
	summary, err := twin.run(twin.runner(seed))
	if err != nil {
		fmt.Fprintf(out, "%s (twin check): error: %v\n", twin.name, err)
		return len(reps)
	}
	if d := summary().digest; d != ref {
		fmt.Fprintf(out, "%s digest: %s — backends disagree, every rep fails\n", twin.name, d)
		return len(reps)
	}
	fmt.Fprintf(out, "%s digest: %s (match)\n", twin.name, ref)
	return failed
}

// measure is the untraced run: set-up, then campaign reps back to back for
// about budget (at least minReps), reporting medians. Host times are
// adjusted to the nominal host speed (see reference.go): each rep by the
// reference run just before it, set-up by the runs around it.
func measure(w *workloadDef, seed int64, budget time.Duration, out io.Writer) (result, error) {
	const minReps = 3
	r := w.runner(seed)
	ref0 := referenceTime()
	_, setupS, _, err := setUp(w, r)
	if err != nil {
		return result{}, err
	}
	setupS *= hostFactor((ref0 + referenceTime()) / 2)
	var reps []rep
	start := time.Now()
	for {
		rp := timeRep(w, r)
		reps = append(reps, rp)
		// Stop once the next rep, as long as this one, would overrun the
		// budget.
		next := time.Since(start) + time.Duration(rp.wall*float64(time.Second))
		if len(reps) >= minReps && next > budget {
			break
		}
	}
	failed := verify(w, seed, reps, out)

	var raw, factor, wall, cpu, rate, alloc, allocs []float64
	for _, rp := range reps {
		f := hostFactor(rp.ref)
		raw = append(raw, rp.wall)
		factor = append(factor, f)
		wall = append(wall, rp.wall*f)
		cpu = append(cpu, rp.cpu*f)
		rate = append(rate, float64(rp.campaign.requests)/(rp.wall*f)/1e3)
		alloc = append(alloc, float64(rp.alloc)/(1<<20))
		allocs = append(allocs, float64(rp.mallocs)/1e6)
	}
	q1, wm, q3 := quartiles(wall)
	fmt.Fprintf(out, "%s seed %d (campaign seed %d): %d reps, wall_s q1/median/q3 %.3f/%.3f/%.3f "+
		"(as measured: median %.3f s, median host factor %.3f)\n",
		w.name, seed, r.Seed, len(reps), q1, wm, q3, median(raw), median(factor))
	res, err := newResult(endToEnd, map[string]float64{
		"setup_s":        setupS,
		"wall_s":         wm,
		"cpu_s":          median(cpu),
		"sim_kreq_per_s": median(rate),
		"alloc_mb":       median(alloc),
		"allocs_m":       median(allocs),
		"peak_rss_mb":    peakRSSMB(),
	}, len(reps), failed)
	if err == nil {
		fmt.Fprint(out, res.render())
	}
	return res, err
}
