package bench

import (
	"bytes"
	"testing"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/boot"
	"github.com/firestarter-go/firestarter/internal/core"
	"github.com/firestarter-go/firestarter/internal/faultinj"
	"github.com/firestarter-go/firestarter/internal/htm"
	"github.com/firestarter-go/firestarter/internal/obsv"
)

// TestBackendsProduceIdenticalResults is the differential-execution
// harness at the measurement level: the same experiment run through the
// tree-walker and the bytecode backend must agree on every observable —
// cycle counts, completed requests, and the full recovery statistics —
// with the interrupt process, fault injection and recovery machinery all
// active (the paths where a single mis-ticked instruction would show).
func TestBackendsProduceIdenticalResults(t *testing.T) {
	r := Runner{Requests: 120, Concurrency: 4, Seed: 9}
	cfg := core.Config{
		Threshold:  0.01,
		SampleSize: 4,
		HTM:        htm.Config{MeanInstrsPerInterrupt: 50_000, Seed: 9},
	}
	faults, err := r.planFaults(apps.Nginx(), faultinj.FailStop, 2)
	if err != nil {
		t.Fatal(err)
	}
	type fingerprint struct {
		cycles    int64
		steps     int64
		completed int
		bad       int
		stats     string
	}
	run := func(backend string, fault *faultinj.Fault) fingerprint {
		r := r
		r.Backend = backend
		inst, res, err := r.measure(apps.Nginx(), boot.Options{Core: cfg, Fault: fault})
		if err != nil {
			t.Fatal(err)
		}
		st := inst.RT.Stats()
		st.LatencyCycles = nil
		st.GateSites, st.EmbedSites, st.BreakSites = nil, nil, nil
		return fingerprint{
			cycles:    inst.M.Cycles,
			steps:     inst.M.Steps,
			completed: res.Completed,
			bad:       res.BadResp,
			stats:     statsKey(st),
		}
	}
	cases := []*faultinj.Fault{nil}
	for i := range faults {
		cases = append(cases, &faults[i])
	}
	for i, fault := range cases {
		tree := run("tree", fault)
		bc := run("bytecode", fault)
		if tree != bc {
			t.Errorf("case %d: backends diverged:\n  tree     %+v\n  bytecode %+v", i, tree, bc)
		}
	}
}

// TestObserveOutputIdenticalAcrossBackends byte-compares the three
// observability exports (span trace, metrics, guest profile) across
// backends: profiler Enter/Leave/Lib hooks and span emission must fire at
// identical cycle/step stamps.
func TestObserveOutputIdenticalAcrossBackends(t *testing.T) {
	run := func(backend string) [3]string {
		r := Runner{Requests: 80, Concurrency: 4, Seed: 9, Backend: backend}
		res, err := r.Observe("nginx")
		if err != nil {
			t.Fatal(err)
		}
		var trace, metrics, profile bytes.Buffer
		if err := obsv.Sequence(res.Spans).WriteJSONL(&trace); err != nil {
			t.Fatal(err)
		}
		if err := res.WriteMetrics(&metrics); err != nil {
			t.Fatal(err)
		}
		if err := res.WriteProfile(&profile); err != nil {
			t.Fatal(err)
		}
		return [3]string{trace.String(), metrics.String(), profile.String()}
	}
	tree := run("tree")
	bc := run("bytecode")
	for i, name := range []string{"trace", "metrics", "profile"} {
		if tree[i] != bc[i] {
			t.Errorf("%s output differs between backends", name)
		}
	}
}

// TestThreadsIdenticalAcrossBackends runs the multi-threaded campaign
// (scheduler quanta constantly stop machines mid-superinstruction; worker
// machines inherit the backend through NewThread) on both backends and
// requires byte-identical rendered results.
func TestThreadsIdenticalAcrossBackends(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run campaign")
	}
	run := func(backend string) string {
		r := Runner{Requests: 40, Concurrency: 4, Seed: 9, Backend: backend}
		res, err := r.Threads()
		if err != nil {
			t.Fatal(err)
		}
		return res.Render()
	}
	tree := run("tree")
	bc := run("bytecode")
	if tree != bc {
		t.Errorf("threads render differs across backends:\n--- tree\n%s\n--- bytecode\n%s", tree, bc)
	}
}
