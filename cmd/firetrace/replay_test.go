package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"github.com/firestarter-go/firestarter/internal/faultinj"
	"github.com/firestarter-go/firestarter/internal/replay"
)

// The -manifest renderer never executes anything, so the fixture stays
// valid even as the guest apps evolve; the replay path itself is
// exercised by the internal/replay round-trip tests and make
// replay-smoke.
func TestRenderManifestFixture(t *testing.T) {
	data, err := os.ReadFile("testdata/manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	var man replay.Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	out := renderManifest("testdata/manifest.json", man)
	for _, w := range []string{
		"manifest: testdata/manifest.json (v1)",
		"kind: incarnation  app: apache  backend: tree",
		"fault: #1 flip-branch at sa_int.b4.2",
		"incarnation: 8",
		"schedule: closed http, seed 7011, 8 requests, concurrency 2, trace base 16",
		"outcome: breaker-open at cycle 7029",
		"final: 7029 cycles, 2263 steps",
		"spans: 56 recorded in manifest.spans.jsonl, fingerprint 9b76ea4f6cdbf421",
	} {
		if !strings.Contains(out, w) {
			t.Errorf("render missing %q:\n%s", w, out)
		}
	}
}

// The fixture's companion span stream must keep reproducing the
// manifest's hash chain — Load recomputes and rejects mismatches.
func TestLoadFixtureRecording(t *testing.T) {
	rec, err := replay.Load("testdata/manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Spans) != 56 {
		t.Fatalf("spans = %d, want 56", len(rec.Spans))
	}
	if rec.Manifest.Outcome != replay.OutcomeBreakerOpen {
		t.Fatalf("outcome = %q", rec.Manifest.Outcome)
	}
}

// A manifest whose fault names a negative block or instruction is an
// error for -replay, not a panic: planting rejects the coordinates before
// anything runs.
func TestReplayRejectsNegativeFaultCoordinates(t *testing.T) {
	rec, err := replay.Load("testdata/manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		field string
		edit  func(*faultinj.Fault)
	}{
		{"block", func(f *faultinj.Fault) { f.Block = -1 }},
		{"index", func(f *faultinj.Fault) { f.Index = -1 }},
	} {
		edited := rec
		fault := *rec.Manifest.Fault
		tc.edit(&fault)
		edited.Manifest.Fault = &fault
		path, err := edited.Write(t.TempDir(), "negative")
		if err != nil {
			t.Fatal(err)
		}
		if code := runReplay(path, -1, false, 0, 0, ""); code != 1 {
			t.Errorf("%s -1: -replay exited %d, want 1", tc.field, code)
		}
		_, err = (&replay.Runner{Rec: edited}).Replay()
		if want := "faultinj: sa_int"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s -1: replay error %v, want one naming %q", tc.field, err, want)
		}
	}
}
