package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/firestarter-go/firestarter/internal/bench"
	"github.com/firestarter-go/firestarter/internal/obsv"
)

// An unknown -backend is rejected before any experiment runs — including
// table2, which boots no machine and would otherwise print and exit 0,
// and the default suite, which would print table2 before fig7's first
// boot failed.
func TestUnknownBackendRejectedUpFront(t *testing.T) {
	for _, args := range [][]string{
		{"-backend", "foo", "-experiment", "table2"},
		{"-backend", "foo"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %d bytes before failing:\n%s", args, stdout.Len(), stdout.String())
		}
		if !strings.Contains(stderr.String(), `unknown backend "foo"`) {
			t.Errorf("%v: stderr %q does not name the bad backend", args, stderr.String())
		}
	}
}

func TestKnownBackendsRunTable2(t *testing.T) {
	for _, backend := range []string{"tree", "bytecode"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-backend", backend, "-experiment", "table2"}, &stdout, &stderr); code != 0 {
			t.Fatalf("-backend %s: exit %d: %s", backend, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), "Table II") {
			t.Errorf("-backend %s: no Table II in output:\n%s", backend, stdout.String())
		}
	}
}

// Each default-suite experiment that renders one table is described in
// -list by that table's title, the same const its Render prints, so each
// description is a line of the pinned default suite. ablation and threads
// print several tables and describe them instead.
func TestListDescriptionsAreSuiteTitles(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "suite.golden"))
	if err != nil {
		t.Fatal(err)
	}
	lines := map[string]bool{}
	for _, line := range strings.Split(string(golden), "\n") {
		lines[line] = true
	}
	for _, e := range experiments(&obsvOut{}) {
		if e.extra || e.name == "ablation" || e.name == "threads" {
			continue
		}
		if !lines[e.desc] {
			t.Errorf("%s: description %q is not a line of the default suite", e.name, e.desc)
		}
	}
}

// An output flag that no selected experiment honours exits 2 before
// anything runs, instead of being silently ignored: table2 and the
// default suite have no span log, metrics or profile, and fleet has a
// span log but no metrics or profile.
func TestUnhonouredOutputFlagRejected(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "out.jsonl")
	for _, args := range [][]string{
		{"-experiment", "table2", "-trace-out", file, "-fingerprint"},
		{"-experiment", "table2", "-trace-out", file},
		{"-experiment", "table2", "-fingerprint"},
		{"-experiment", "table2", "-metrics-out", file},
		{"-experiment", "table2", "-profile", file},
		{"-fingerprint"},
		{"-trace-out", file},
		{"-experiment", "fleet", "-metrics-out", file},
		{"-experiment", "fleet", "-profile", file},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %d bytes before failing", args, stdout.Len())
		}
		if !strings.Contains(stderr.String(), "no selected experiment") {
			t.Errorf("%v: stderr %q does not explain the rejection", args, stderr.String())
		}
		if _, err := os.Stat(file); err == nil {
			t.Fatalf("%v: wrote %s", args, file)
		}
	}
}

// Every experiment with a span log honours -trace-out and -fingerprint
// through the same path: the printed fingerprint is the hash chain of
// exactly the events the trace file holds.
func TestSpanLogExperimentsHonourOutputFlags(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-experiment", "fleet", "-requests", "3", "-faults", "1", "-concurrency", "1", "-replicas", "1"},
		{"-experiment", "domains", "-requests", "10", "-faults", "1", "-concurrency", "2"},
		{"-experiment", "openloop", "-requests", "10", "-faults", "1"},
		{"-experiment", "nginx", "-requests", "10"},
	} {
		file := filepath.Join(dir, args[1]+".jsonl")
		args = append(args, "-trace-out", file, "-fingerprint")
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
		}
		f, err := os.Open(file)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		spans, err := obsv.ReadSpans(f)
		f.Close()
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if len(spans) == 0 {
			t.Errorf("%v: empty span log", args)
		}
		want := fmt.Sprintf("span fingerprint: %016x\n", obsv.Fingerprint(spans))
		if !strings.HasSuffix(stdout.String(), want+"\n") {
			t.Errorf("%v: output does not end with %q:\n%s", args, want, stdout.String())
		}
	}
}

// A recording depends on the run, not on the entry point: the same chaos
// run recorded by firebench (whose -backend defaults to "tree") and by a
// bench.Runner left at the empty default backend writes byte-identical
// manifests and companions.
func TestRecordingsIndependentOfEntryPoint(t *testing.T) {
	cli, lib := t.TempDir(), t.TempDir()
	var stdout, stderr bytes.Buffer
	args := []string{"-experiment", "chaos", "-requests", "24", "-faults", "1",
		"-seed", "3", "-concurrency", "2", "-record-out", cli}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	r := bench.Runner{Requests: 24, Concurrency: 2, Seed: 3, FaultsPerServer: 1, RecordDir: lib}
	if _, err := r.Chaos(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(cli)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("firebench wrote no recordings")
	}
	if others, err := os.ReadDir(lib); err != nil || len(others) != len(entries) {
		t.Fatalf("bench.Runner wrote %d files (err %v), firebench %d", len(others), err, len(entries))
	}
	for _, e := range entries {
		a, err := os.ReadFile(filepath.Join(cli, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(lib, e.Name()))
		if err != nil {
			t.Fatalf("bench.Runner did not write %s: %v", e.Name(), err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between firebench and bench.Runner:\n%s\nvs\n%s", e.Name(), a, b)
		}
	}
}
