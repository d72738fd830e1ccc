package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/faultinj"
	"github.com/firestarter-go/firestarter/internal/obsv"
	"github.com/firestarter-go/firestarter/internal/replay"
	"github.com/firestarter-go/firestarter/internal/supervisor"
	"github.com/firestarter-go/firestarter/internal/workload"
)

// TestReduceStacksCells: cell i's cycles and nonzero trace IDs shift by
// the Wall and Traces of the cells before it (trace 0 stays 0), and the
// recordings are numbered <prefix>-000… across cells in cell order,
// whatever each cell holds.
func TestReduceStacksCells(t *testing.T) {
	rec := func(name string) replay.Recording {
		return replay.Recording{Manifest: replay.Manifest{App: name},
			Spans: []obsv.SpanEvent{{Seq: 1, Kind: obsv.SpanReqStart, Trace: 1}}}
	}
	cells := []*cell{
		{Wall: 100, Traces: 2, Recordings: []replay.Recording{rec("a0"), rec("a1")},
			Spans: []obsv.SpanEvent{{Cycles: 5, Trace: 1}, {Cycles: 7, Trace: 0}, {Cycles: 9, Trace: 2}}},
		{Wall: 40, Traces: 0,
			Spans: []obsv.SpanEvent{{Cycles: 1, Trace: 0}}},
		{Wall: 30, Traces: 3, Recordings: []replay.Recording{rec("c0")},
			Spans: []obsv.SpanEvent{{Seq: 4, Cycles: 0, Trace: 3}, {Cycles: 30, Trace: 0}}},
	}
	dir := t.TempDir()
	s, err := reduce(dir, "exp", cells...)
	if err != nil {
		t.Fatal(err)
	}
	want := []obsv.SpanEvent{
		{Cycles: 5, Trace: 1}, {Cycles: 7, Trace: 0}, {Cycles: 9, Trace: 2},
		{Cycles: 101, Trace: 0},
		{Cycles: 140, Trace: 5}, {Cycles: 170, Trace: 0},
	}
	if !reflect.DeepEqual(s.Spans, want) || s.Traces != 5 {
		t.Errorf("stream = %+v (traces %d)\nwant %+v (traces 5)", s.Spans, s.Traces, want)
	}

	files := readDir(t, dir)
	if len(files) != 6 {
		t.Errorf("wrote %d files, want 3 manifests and their span files", len(files))
	}
	for i, app := range []string{"a0", "a1", "c0"} {
		base := fmt.Sprintf("exp-%03d", i)
		var m replay.Manifest
		if err := json.Unmarshal(files[base+".json"], &m); err != nil {
			t.Fatalf("%s.json: %v", base, err)
		}
		if m.App != app || m.SpansFile != base+".spans.jsonl" || files[m.SpansFile] == nil {
			t.Errorf("%s.json = app %q spans %q, want app %q with its span file", base, m.App, m.SpansFile, app)
		}
	}
}

// TestRunCellsLowestFailure: runCells reports the lowest-indexed failing
// cell — a run error, an unreconciled cell or a leak, checked in that
// order — with the same text serially and on four workers.
func TestRunCellsLowestFailure(t *testing.T) {
	unreconciled := func() *cell {
		c := &cell{Registry: obsv.NewRegistry()}
		supervisor.Metrics.AddTo(&c.Totals, &supervisor.Stats{StateLost: 1})
		return c
	}
	leaked := func() *cell {
		return &cell{Registry: obsv.NewRegistry(), Leaks: []faultinj.Leak{{Seq: 3, FD: 4}}}
	}
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		bad  map[int]func() (*cell, error)
		want string
	}{
		{"run error first", map[int]func() (*cell, error){
			1: func() (*cell, error) { return nil, boom },
			3: func() (*cell, error) { return unreconciled(), nil },
		}, "cell 1: boom"},
		{"unreconciled first", map[int]func() (*cell, error){
			2: func() (*cell, error) { return unreconciled(), nil },
			4: func() (*cell, error) { return nil, boom },
		}, "cell 2: accounting did not reconcile:\n" +
			"  supervisor.state_lost: metric 0 != stat 1\n" +
			"  silent deaths (state_lost vs restarts+breakers): 1 != 0"},
		{"leak", map[int]func() (*cell, error){
			3: func() (*cell, error) { return leaked(), nil },
			5: func() (*cell, error) { return unreconciled(), nil },
		}, "cell 3: cross-request corruption leaked:\n  [" + leaked().Leaks[0].String() + "]"},
	} {
		for _, par := range []int{1, 4} {
			r := Runner{Parallelism: par}
			cells, err := runCells(r, 8, func(i int) string { return fmt.Sprintf("cell %d", i) },
				func(i int) (*cell, error) {
					if bad := tc.bad[i]; bad != nil {
						return bad()
					}
					return &cell{Registry: obsv.NewRegistry()}, nil
				})
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s, parallelism %d: err = %v\nwant %s", tc.name, par, err, tc.want)
			}
			if tc.name == "run error first" && !errors.Is(err, boom) {
				t.Errorf("%s: run error not wrapped: %v", tc.name, err)
			}
			if len(cells) != 8 || cells[0] == nil {
				t.Errorf("%s, parallelism %d: clean cells not kept: %v", tc.name, par, cells)
			}
		}
	}
}

// TestOpenLoopRecordsFailingRungs: with RecordDir set, every failing rung
// of the sweep leaves an openloop manifest, numbered from openloop-000,
// whose companion span stream loads against its fingerprint. The
// manifests' bytes are pinned.
func TestOpenLoopRecordsFailingRungs(t *testing.T) {
	dir := t.TempDir()
	r := Runner{Requests: 600, Seed: 2, Parallelism: 4, RecordDir: dir}
	if _, err := r.OpenLoop(); err != nil {
		t.Fatal(err)
	}
	files := readDir(t, dir)
	if _, ok := files["openloop-000.json"]; !ok {
		t.Fatalf("no failing rung recorded as openloop-000.json: %d files", len(files))
	}
	checkPinned(t, files, func(name string) bool { return strings.HasSuffix(name, ".json") }, map[string]string{
		"openloop-000.json": "6939ebf34a719751e9044adda0b83c431e20688053ccb90a9437936a10e8cee3",
		"openloop-001.json": "ad63c07a18ede82b5a68f2791178fff4f0d3ad8f724135ed9e90f8a01d2035e2",
		"openloop-002.json": "c93a8dba19bf4ffd96949e613acca387a9992b2a2159213c8457dff98ee70d73",
		"openloop-003.json": "5f56c01db093d86873ae82cc1a4af65a06855943566547d5c740ac80bba9c5a0",
		"openloop-004.json": "471b4b5fcfab98166cba738901267d9223db12017b3ae3f647e28112d34b026b",
	})
	for name := range files {
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		rec, err := replay.Load(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if rec.Manifest.Kind != replay.KindOpenLoop || rec.Manifest.Outcome == "" {
			t.Errorf("%s: kind %q outcome %q", name, rec.Manifest.Kind, rec.Manifest.Outcome)
		}
	}
}

// TestOpenLoopTerminalIdentity: an open-loop rung's cell carries the
// identity that every offered arrival reaches exactly one terminal, and a
// cell whose terminals miss an arrival fails its check.
func TestOpenLoopTerminalIdentity(t *testing.T) {
	r := Runner{Requests: 40, Seed: 1}.withDefaults()
	fr, err := r.openRun(apps.ByName("nginx"), nil, 1, workload.OpenConfig{Total: 40, PipelineDepth: 2, ChurnEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.check(); err != nil {
		t.Fatalf("clean rung: %v", err)
	}
	res := fr.Res
	if res.Offered != 40 || !slices.Contains(fr.ids, openTerminals(res)) {
		t.Fatalf("rung offered %d, identities %v: want 40 and the terminal identity", res.Offered, fr.ids)
	}

	res.Completed--
	c := &cell{Registry: obsv.NewRegistry(), ids: []identity{openTerminals(res)}}
	want := fmt.Sprintf("accounting did not reconcile:\n  "+
		"open-loop terminals (completed+bad_resp+shed+conn_lost+outstanding+abandoned) vs offered: %d != 40", 39)
	if err := c.check(); err == nil || err.Error() != want {
		t.Errorf("check = %v\nwant %s", err, want)
	}
}
