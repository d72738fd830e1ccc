package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"

	"github.com/firestarter-go/firestarter/internal/bench"
)

// testRunner scales a workload's seed-1 campaign down so this file runs in a
// few seconds. testdata/digests.json pins the digests at these sizes; a
// change that moves guest output on purpose re-pins them, like any golden.
func testRunner(w *workloadDef) bench.Runner {
	r := w.runner(1)
	switch w.name {
	case "chaos":
		r.Requests, r.FaultsPerServer = 12, 1
	case "openloop":
		r.Requests = 40
	default:
		r.Requests = 60
	}
	return r
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		spec
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s/%s, benchmark has %s/%s/%s",
					kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	for _, m := range doc.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, benchmark has %q", i, doc.Workloads[i].Name, w.name)
		}
	}
}

// TestWorkloadsEndToEnd runs every workload's set-up, one campaign rep and
// its probe at test size, and checks the guest output against the pinned
// digests: the backend-equivalence contract (fig7-tree == fig7-bytecode)
// included.
func TestWorkloadsEndToEnd(t *testing.T) {
	data, err := os.ReadFile("testdata/digests.json")
	if err != nil {
		t.Fatal(err)
	}
	var pinned map[string]string
	if err := json.Unmarshal(data, &pinned); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, w := range workloads {
		r := testRunner(w)
		var st stageTimes
		prep, err := w.setup(r, &st)
		if err != nil {
			t.Fatalf("%s set-up: %v", w.name, err)
		}
		summary, err := w.run(r)
		if err != nil {
			t.Fatalf("%s rep: %v", w.name, err)
		}
		c := summary()
		got[w.name] = c.digest
		if c.digest != pinned[w.name] {
			t.Errorf("%s: digest %s, pinned %s", w.name, c.digest, pinned[w.name])
		}
		if c.requests <= 0 || c.jobs <= 0 {
			t.Errorf("%s: campaign reports %d requests in %d jobs", w.name, c.requests, c.jobs)
		}
		seam := &seamCalls{}
		pr, err := w.probe(r, prep, c, seam)
		if err != nil {
			t.Fatalf("%s probe: %v", w.name, err)
		}
		if pr.requests == 0 || len(pr.machines) == 0 || seam[seamStore].n == 0 || seam[seamGate].n == 0 {
			t.Errorf("%s probe drove nothing: %d requests, %d machines, seam %v", w.name, pr.requests, len(pr.machines), *seam)
		}
	}
	if got["fig7-tree"] != got["fig7-bytecode"] {
		t.Errorf("backends disagree: tree %s, bytecode %s", got["fig7-tree"], got["fig7-bytecode"])
	}
}

// TestProbeDecorationIsTransparent checks that timing the core seam never
// perturbs the guest: every machine's Steps, Cycles and runtime stats are
// identical with and without the decorator, on both backends and on the
// recovery and fleet paths.
func TestProbeDecorationIsTransparent(t *testing.T) {
	for _, w := range workloads {
		r := testRunner(w)
		var st stageTimes
		prep, err := w.setup(r, &st)
		if err != nil {
			t.Fatal(err)
		}
		c := campaign{serviceRate: 100}
		plain, err := w.probe(r, prep, c, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		seam := &seamCalls{}
		timed, err := w.probe(r, prep, c, seam)
		if err != nil {
			t.Fatalf("%s decorated: %v", w.name, err)
		}
		if !reflect.DeepEqual(plain.machines, timed.machines) {
			t.Errorf("%s: decorated probe diverged:\n plain %+v\n timed %+v", w.name, plain.machines, timed.machines)
		}
		pm, tm := map[string]float64{}, map[string]float64{}
		plain.countMetrics(pm)
		timed.countMetrics(tm)
		for k, v := range pm {
			if k != "interp.boot_ms" && k != "workload.drive_s" && tm[k] != v {
				t.Errorf("%s: %s = %v decorated, %v plain", w.name, k, tm[k], v)
			}
		}
		if seam[seamTxBegin].n == 0 {
			t.Errorf("%s: decorator saw no TxBegin", w.name)
		}
	}
}

const (
	fnInterpStep = modulePrefix + "internal/interp.(*Machine).step"
	fnSnapshot   = modulePrefix + "internal/interp.(*Machine).Snapshot"
	fnBytecode   = modulePrefix + "internal/interp.(*bytecodeBackend).Run"
	fnSpanTrace  = modulePrefix + "internal/core.(*Runtime).emitSpanTrace"
	fnParser     = modulePrefix + "internal/minic.(*parser).next"
	fnNormalize  = modulePrefix + "internal/replay.NormalizeSpans"
	fnBench      = modulePrefix + "internal/bench.Runner.Figure7.func1"
)

func TestFoldRules(t *testing.T) {
	p := &profile{types: []string{"samples", "cpu"}, samples: []sample{
		// Runtime work under a layer counts to the innermost repo frame.
		{stack: []string{"runtime.memmove", "runtime.mallocgc", fnSnapshot, fnInterpStep, fnBench}, values: []int64{1, 10}},
		// The bytecode engine lives in package interp but is its own layer.
		{stack: []string{fnBytecode, fnBench}, values: []int64{1, 20}},
		{stack: []string{"runtime.mapaccess1", fnBytecode}, values: []int64{1, 300}},
		// fmt called from core is core's.
		{stack: []string{"fmt.(*pp).doPrintf", "fmt.Sprintf", fnSpanTrace, fnInterpStep}, values: []int64{1, 4000}},
		// No repo frame at all: the Go runtime (GC workers, scheduler).
		{stack: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, values: []int64{1, 50000}},
		{stack: []string{fnParser}, values: []int64{1, 600000}},
		// Repo packages outside the named layers are "other".
		{stack: []string{fnNormalize}, values: []int64{1, 7000000}},
	}}
	got := fold(p, 1)
	want := map[string]int64{
		"interp": 10, "bytecode": 320, "core": 4000, layerRuntime: 50000,
		"compile": 600000, layerOther: 7000000,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fold = %v, want %v", got, want)
	}
}

// allocSink keeps the test's allocations on the heap.
var allocSink [][]byte

func TestParseProfileReadsRuntimeProfiles(t *testing.T) {
	for i := 0; i < 64; i++ {
		allocSink = append(allocSink, make([]byte, 1<<20))
	}
	runtime.GC()
	var b bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&b, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	vi, err := p.valueIndex("alloc_space")
	if err != nil {
		t.Fatal(err)
	}
	var mine int64
	for _, s := range p.samples {
		if len(s.stack) > 0 && strings.Contains(strings.Join(s.stack, " "), "TestParseProfileReadsRuntimeProfiles") {
			mine += s.values[vi]
		}
	}
	if mine < 32<<20 {
		t.Errorf("profile attributes %d bytes to this test, want about 64 MiB", mine)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 2.0}, [3]float64{1.725, 2.55, 3.375}},
		{[]float64{5, 1, 4}, [3]float64{1, 4, 5}},
	} {
		q1, m, q3 := quartiles(c.in)
		for i, got := range []float64{q1, m, q3} {
			if d := got - c.want[i]; d > 1e-12 || d < -1e-12 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, m, q3, c.want)
				break
			}
		}
	}
}

func TestCompareFlagsRegressionAndFailures(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall float64, failed int) string {
		var sb strings.Builder
		for i := 0; i < 5; i++ {
			res, err := newResult(endToEnd, map[string]float64{"wall_s": wall + 0.001*float64(i), "setup_s": 1}, 3, failed)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := json.Marshal(record{Workload: "fig7-tree", Seed: int64(i + 1), Result: res})
			sb.Write(append(b, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.jsonl", 3.0, 0)
	for _, c := range []struct {
		name    string
		wall    float64
		failed  int
		flagged bool
		verdict string
	}{
		{"same", 3.0, 0, false, ""},
		{"slower", 4.0, 0, true, "REGRESSION"},
		{"faster", 2.0, 0, false, "gain"},
		{"failing", 3.0, 1, true, "failed-op share rose"},
	} {
		var out bytes.Buffer
		flagged, err := compareFiles(a, write(c.name+".jsonl", c.wall, c.failed), &out)
		if err != nil {
			t.Fatal(err)
		}
		if flagged != c.flagged || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: flagged=%v, want %v with %q in:\n%s", c.name, flagged, c.flagged, c.verdict, out.String())
		}
	}
}
