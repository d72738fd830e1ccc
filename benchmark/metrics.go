package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// metricDef names one reported metric. The same names, units and
// directions appear in BENCHMARK.json; a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd is what a user of the simulator sees per campaign rep,
// reported with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"sim_kreq_per_s", "kreq/s", "higher"},
	{"alloc_mb", "MB", "lower"},
	{"allocs_m", "M", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer is reported with -trace 1. Layers are the repository's modules
// (see layerOfPackage); every workload reports every metric, zero where the
// layer does not run.
var perLayer = []metricDef{
	// Self time from the CPU profile of one rep, by innermost repo frame.
	{"interp.self_s", "s", "lower"},
	{"bytecode.self_s", "s", "lower"},
	{"mem.self_s", "s", "lower"},
	{"htm.self_s", "s", "lower"},
	{"stm.self_s", "s", "lower"},
	{"core.self_s", "s", "lower"},
	{"libsim.self_s", "s", "lower"},
	{"workload.self_s", "s", "lower"},
	{"fleet.self_s", "s", "lower"},
	{"supervisor.self_s", "s", "lower"},
	{"obsv.self_s", "s", "lower"},
	{"faultinj.self_s", "s", "lower"},
	{"compile.self_s", "s", "lower"},
	{"bench.self_s", "s", "lower"},
	{"go-runtime.gc_s", "s", "lower"},
	{"go-runtime.gc_assist_s", "s", "lower"},

	// Bytes allocated during the same rep, from the allocs profile.
	{"interp.alloc_mb", "MB", "lower"},
	{"core.alloc_mb", "MB", "lower"},
	{"obsv.alloc_mb", "MB", "lower"},
	{"libsim.alloc_mb", "MB", "lower"},
	{"workload.alloc_mb", "MB", "lower"},
	{"fleet.alloc_mb", "MB", "lower"},
	{"bench.alloc_mb", "MB", "lower"},
	{"compile.alloc_mb", "MB", "lower"},
	{"supervisor.alloc_mb", "MB", "lower"},
	{"htm.alloc_mb", "MB", "lower"},
	{"stm.alloc_mb", "MB", "lower"},
	{"mem.alloc_mb", "MB", "lower"},

	// The core seam: calls into interp.Runtime and mean host ns per call,
	// measured by the probe's timedRuntime.
	{"core.libcall_n", "count", "lower"},
	{"core.libcall_ns", "ns", "lower"},
	{"core.gate_n", "count", "lower"},
	{"core.gate_ns", "ns", "lower"},
	{"core.txbegin_n", "count", "lower"},
	{"core.txbegin_ns", "ns", "lower"},
	{"core.txend_ns", "ns", "lower"},
	{"core.store_n", "count", "lower"},
	{"core.store_ns", "ns", "lower"},
	{"core.load_n", "count", "lower"},
	{"core.load_ns", "ns", "lower"},
	{"core.handle_n", "count", "lower"},
	{"core.handle_ns", "ns", "lower"},

	// Stages the benchmark times around its own calls.
	{"minic.compile_ms", "ms", "lower"},
	{"transform.apply_ms", "ms", "lower"},
	{"bytecode.lower_ms", "ms", "lower"},
	{"faultinj.plan_ms", "ms", "lower"},
	{"interp.boot_ms", "ms", "lower"},
	{"workload.drive_s", "s", "lower"},

	// Work done (deterministic counts from public Stats and results).
	{"interp.msteps", "M", "lower"},
	{"interp.mcycles", "M", "lower"},
	{"htm.begins", "count", "lower"},
	{"stm.begins", "count", "lower"},
	{"stm.undo_stores", "count", "lower"},
	{"workload.requests", "count", "lower"},
	{"fleet.boots", "count", "lower"},
	{"obsv.spans", "count", "lower"},
	{"bench.jobs", "count", "lower"},
	{"go-runtime.gc_cycles", "count", "lower"},

	// Work failed or retried.
	{"htm.aborts_capacity", "count", "lower"},
	{"htm.aborts_interrupt", "count", "lower"},
	{"stm.rollbacks", "count", "lower"},
	{"core.crashes", "count", "lower"},
	{"core.retries", "count", "lower"},
	{"core.injections", "count", "lower"},
	{"core.sheds", "count", "lower"},
	{"fleet.deaths", "count", "lower"},
	{"supervisor.reboots", "count", "lower"},
	{"workload.shed", "count", "lower"},

	// Useful outcomes per attempt.
	{"htm.commit_ratio", "ratio", "higher"},
	{"workload.ok_ratio", "ratio", "higher"},

	// The traced run itself: traced/untraced rep wall time, and the share
	// of CPU samples the fold attributed to a named layer.
	{"trace.overhead_ratio", "ratio", "lower"},
	{"trace.coverage", "ratio", "higher"},
}

// value is one reported measurement.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output object: the last line of standard output
// of every single-workload run.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// newResult fills a result with every metric of defs, taking values from
// vals (absent names report 0). Non-finite values are a bug in the caller.
func newResult(defs []metricDef, vals map[string]float64, attempted, failed int) (result, error) {
	res := result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]value, len(defs)),
	}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = value{Value: v, Unit: d.unit}
	}
	return res, nil
}

// render prints the metrics as an aligned name/value/unit table.
func (r result) render() string {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(&sb, "  %-24s %16.6g %s\n", n, m.Value, m.Unit)
	}
	return sb.String()
}

func (r result) json() string {
	b, err := json.Marshal(r)
	if err != nil {
		// result holds only finite floats, strings and ints.
		panic(err)
	}
	return string(b)
}

// quartiles returns the first quartile, median and third quartile of xs,
// computed exactly as Python's statistics.quantiles(xs, n=4) does with its
// default exclusive method, so spreads match what a Python reader computes.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
