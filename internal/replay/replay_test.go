package replay_test

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/bench"
	"github.com/firestarter-go/firestarter/internal/boot"
	"github.com/firestarter-go/firestarter/internal/obsv"
	"github.com/firestarter-go/firestarter/internal/replay"
	"github.com/firestarter-go/firestarter/internal/workload"
)

// recordChaos runs a small chaos campaign with the flight recorder
// armed and returns the manifest paths it wrote, in name order.
func recordChaos(t *testing.T, r bench.Runner) []string {
	t.Helper()
	dir := t.TempDir()
	r.RecordDir = dir
	if _, err := r.Chaos(); err != nil {
		t.Fatalf("chaos: %v", err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		t.Fatal("chaos campaign recorded no manifests; pick a seed with a failing incarnation")
	}
	return paths
}

var chaosRunner = bench.Runner{Requests: 24, Concurrency: 2, Seed: 3, FaultsPerServer: 1, Parallelism: 4}

// A recorded incarnation must replay to a byte-identical span stream:
// full verification succeeds, the final fingerprint matches, and
// obsv.WriteSpans reproduces the companion file exactly.
func TestChaosRecordingRoundTrip(t *testing.T) {
	for _, path := range recordChaos(t, chaosRunner) {
		rec, err := replay.Load(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		r := &replay.Runner{Rec: rec, StopAt: 0}
		res, err := r.Replay()
		if err != nil {
			t.Fatalf("%s: replay: %v", path, err)
		}
		if res.Stopped {
			t.Fatalf("%s: full replay stopped early", path)
		}
		if res.Verified != len(rec.Spans) {
			t.Errorf("%s: verified %d of %d spans", path, res.Verified, len(rec.Spans))
		}
		want, err := replay.ParseFingerprint(rec.Manifest.Fingerprint)
		if err != nil {
			t.Fatal(err)
		}
		if res.Fingerprint != want {
			t.Errorf("%s: fingerprint %016x, recorded %016x", path, res.Fingerprint, want)
		}

		var buf bytes.Buffer
		if err := obsv.WriteSpans(&buf, res.Spans); err != nil {
			t.Fatal(err)
		}
		companion, err := os.ReadFile(filepath.Join(filepath.Dir(path), rec.Manifest.SpansFile))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), companion) {
			t.Errorf("%s: replayed span stream is not byte-identical to the companion file", path)
		}
	}
}

// The reverse-step property: pass 2 (re-executed from boot with the
// checkpoint ring armed) must land on exactly the state of the
// boundary one retired instruction before the stop point — identical,
// digest for digest, to a straight-line run with no checkpoints at
// all. This pins both halves of the rr recipe: checkpoint capture does
// not perturb execution, and step-targeted re-execution is exact.
func TestReverseStepMatchesStraightLine(t *testing.T) {
	paths := recordChaos(t, chaosRunner)
	rec, err := replay.Load(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	man := rec.Manifest
	if man.Incarnation < 2 {
		t.Fatalf("want a deep incarnation for the supervised-reboot case, got %d", man.Incarnation)
	}

	r := &replay.Runner{Rec: rec, StopAt: -1, CkptEvery: 250, CkptRing: 64}
	rr, err := r.ReverseStep()
	if err != nil {
		t.Fatalf("reverse-step: %v", err)
	}
	if got, want := rr.At.Dump.Steps, man.FinalSteps-1; got != want {
		t.Errorf("stop boundary at step %d, want %d (the recorded faulting instruction)", got, want)
	}
	if got, want := rr.Prev.Dump.Steps, man.FinalSteps-2; got != want {
		t.Errorf("reverse boundary at step %d, want %d", got, want)
	}
	if rr.Anchors == 0 {
		t.Error("no checkpoint anchors compared across the passes")
	}
	if rr.Prev.Dump.Cycles >= rr.At.Dump.Cycles {
		t.Errorf("reverse cycles %d not before stop cycles %d", rr.Prev.Dump.Cycles, rr.At.Dump.Cycles)
	}

	straight := &replay.Runner{Rec: rec, StopAtStep: man.FinalSteps - 2}
	res, err := straight.Replay()
	if err != nil {
		t.Fatalf("straight-line pass: %v", err)
	}
	if !res.Stopped {
		t.Fatal("straight-line pass did not stop")
	}
	if len(res.Checkpoints) != 0 {
		t.Errorf("straight-line pass captured %d checkpoints with the ring disabled", len(res.Checkpoints))
	}
	a, b := rr.Prev.Dump, res.Dump
	if a.RegDigest != b.RegDigest || a.MemDigest != b.MemDigest ||
		a.Cycles != b.Cycles || a.Steps != b.Steps || a.Func != b.Func {
		t.Errorf("reverse-step state diverges from the straight-line run:\n%s\nvs\n%s", a.Render(), b.Render())
	}
}

// A checkpoint period far below the transaction length must capture
// rings on both sides of transaction boundaries, including inside a
// live crash transaction — the dump's InTx flag and the ring's InTx
// stamps are what let a forensic stop say "inside the protected
// window".
func TestCheckpointRingStamps(t *testing.T) {
	paths := recordChaos(t, chaosRunner)
	rec, err := replay.Load(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	r := &replay.Runner{Rec: rec, StopAt: -1, CkptEvery: 100, CkptRing: 256}
	res, err := r.Replay()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(res.Checkpoints) == 0 {
		t.Fatal("no checkpoints captured")
	}
	inTx, outTx := 0, 0
	for _, c := range res.Checkpoints {
		if c.InTx {
			inTx++
		} else {
			outTx++
		}
	}
	if inTx == 0 || outTx == 0 {
		t.Errorf("checkpoints all on one side of the transaction boundary: in-tx=%d out=%d", inTx, outTx)
	}
}

// An explicit -stop-at-cycle freezes the machine at the first
// instruction boundary at or past the requested cycle, with the span
// prefix up to that point verified.
func TestStopAtArbitraryCycle(t *testing.T) {
	paths := recordChaos(t, chaosRunner)
	rec, err := replay.Load(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	target := rec.Manifest.FaultCycle / 2
	if target == 0 {
		t.Fatalf("fault cycle %d too small to halve", rec.Manifest.FaultCycle)
	}
	r := &replay.Runner{Rec: rec, StopAt: target}
	res, err := r.Replay()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !res.Stopped {
		t.Fatal("watch did not fire")
	}
	if res.Dump.Cycles < target {
		t.Errorf("halted at cycle %d, before the %d target", res.Dump.Cycles, target)
	}
	if res.Dump.Cycles >= rec.Manifest.FinalCycles {
		t.Errorf("halted at cycle %d, at or past the recorded end %d", res.Dump.Cycles, rec.Manifest.FinalCycles)
	}
}

// Tampering with the companion span stream must fail at Load — the
// recomputed chain no longer reproduces the manifest fingerprint —
// rather than surfacing later as a bogus replay divergence.
func TestLoadRejectsTamperedSpans(t *testing.T) {
	paths := recordChaos(t, chaosRunner)
	src, err := replay.Load(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Dir(paths[0])
	companion := filepath.Join(dir, src.Manifest.SpansFile)
	data, err := os.ReadFile(companion)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(data, []byte(`"cycles":`), []byte(`"cycles":1`), 1)
	if bytes.Equal(tampered, data) {
		t.Fatal("tamper pattern not found")
	}
	if err := os.WriteFile(companion, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := replay.Load(paths[0]); err == nil {
		t.Fatal("Load accepted a tampered span stream")
	}
}

// The manifest's schedule is what a replay drives, not a note beside
// it: a manifest with one schedule field edited still loads (its span
// chain matches the companion), but its replay diverges from the
// recording, while the unedited manifest verifies.
func TestReplayDrivesRecordedSchedule(t *testing.T) {
	rec, err := replay.Load(recordChaos(t, chaosRunner)[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&replay.Runner{Rec: rec}).Replay(); err != nil {
		t.Fatalf("unedited manifest: %v", err)
	}
	for _, tc := range []struct {
		field string
		edit  func(*workload.Schedule)
	}{
		{"concurrency", func(sc *workload.Schedule) { sc.Concurrency++ }},
		{"seed", func(sc *workload.Schedule) { sc.Seed++ }},
	} {
		edited := rec
		tc.edit(&edited.Manifest.Schedule)
		path, err := edited.Write(t.TempDir(), "edited")
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := replay.Load(path)
		if err != nil {
			t.Fatalf("%s edited: Load rejected the manifest: %v", tc.field, err)
		}
		_, err = (&replay.Runner{Rec: loaded}).Replay()
		if err == nil || !strings.HasPrefix(err.Error(), "replay diverged") {
			t.Errorf("%s edited: replay error %v, want a divergence", tc.field, err)
		}
	}
}

// An open-loop recording round-trips: the replayed 1-replica fleet
// reproduces the normalized merged span stream span for span.
func TestOpenLoopRecordingRoundTrip(t *testing.T) {
	app := apps.ByName("nginx")
	if app == nil {
		t.Fatal("nginx not registered")
	}
	const seed = 11
	cfg := workload.OpenConfig{
		Shape:         workload.ShapePoisson,
		RatePerMcycle: 40,
		Total:         40,
		Clients:       100,
		MaxConns:      8,
		PipelineDepth: 2,
		Patience:      2_000_000,
		ChurnEvery:    5,
		SlowEvery:     7,
		FragmentEvery: 11,
	}
	img, err := boot.Build(app, boot.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc := workload.Schedule{Kind: workload.OpenLoop, Proto: app.Protocol, Seed: seed, Open: &cfg}
	fl, _, err := img.RunFleet(boot.Options{}, 1, sc)
	if err != nil {
		t.Fatal(err)
	}

	rec := replay.Record(replay.Manifest{
		Kind:        replay.KindOpenLoop,
		App:         app.Name,
		Schedule:    sc,
		Outcome:     replay.OutcomeUnrecovered,
		FinalCycles: fl.Cycles(),
	}, fl.Spans())
	dir := t.TempDir()
	path, err := rec.Write(dir, "openloop-000")
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := replay.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	r := &replay.Runner{Rec: loaded}
	res, err := r.Replay()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Verified != len(loaded.Spans) {
		t.Errorf("verified %d of %d spans", res.Verified, len(loaded.Spans))
	}

	// Forensic stops need a single machine to freeze; an open-loop rung
	// spreads state across fleet incarnations and replays verify-only.
	bad := &replay.Runner{Rec: loaded, StopAt: 100}
	if _, err := bad.Replay(); err == nil {
		t.Error("openloop replay accepted -stop-at-cycle")
	}
	badStep := &replay.Runner{Rec: loaded, StopAtStep: 100}
	if _, err := badStep.Replay(); err == nil {
		t.Error("openloop replay accepted a step target")
	}
}
