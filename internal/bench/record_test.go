package bench

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/boot"
	"github.com/firestarter-go/firestarter/internal/faultinj"
	"github.com/firestarter-go/firestarter/internal/libmodel"
	"github.com/firestarter-go/firestarter/internal/obsv"
	"github.com/firestarter-go/firestarter/internal/replay"
	"github.com/firestarter-go/firestarter/internal/supervisor"
)

// readDir returns name -> contents for every file in dir.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// checkPinned fails unless the files whose names match keep are exactly
// the pinned names, each with its pinned SHA-256.
func checkPinned(t *testing.T, files map[string][]byte, keep func(name string) bool, pins map[string]string) {
	t.Helper()
	n := 0
	for name, data := range files {
		if !keep(name) {
			continue
		}
		n++
		want, ok := pins[name]
		if !ok {
			t.Errorf("%s: written but not pinned", name)
			continue
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
			t.Errorf("%s: sha256 %s, pinned %s", name, got, want)
		}
	}
	if n != len(pins) {
		t.Errorf("wrote %d pinned-kind files, %d pinned", n, len(pins))
	}
}

// The span fingerprint commits to every byte -trace-out would write, so
// it must be identical serial vs parallel — and arming the flight
// recorder must not perturb the campaign at all. The recording's bytes
// are pinned: a manifest is the run's own schedule and counters, so a
// change to how a campaign is set up or recorded must not move them.
func TestChaosFingerprintAndRecordingInvariance(t *testing.T) {
	serial := Runner{Requests: 24, Concurrency: 2, Seed: 3, FaultsPerServer: 1}
	parallel := serial
	parallel.Parallelism = 4
	parallel.RecordDir = t.TempDir()
	serialDir := t.TempDir()
	serialRec := serial
	serialRec.RecordDir = serialDir

	base, err := serial.Chaos()
	if err != nil {
		t.Fatal(err)
	}
	recSerial, err := serialRec.Chaos()
	if err != nil {
		t.Fatal(err)
	}
	recParallel, err := parallel.Chaos()
	if err != nil {
		t.Fatal(err)
	}

	// The in-place fingerprint matches the sequenced log it stands for.
	if got, want := base.Fingerprint(), obsv.Sequence(base.Spans).Fingerprint(); got != want {
		t.Errorf("chaos stream of %d spans: fingerprint %016x, sequenced log %016x", len(base.Spans), got, want)
	}
	if got, want := recSerial.Fingerprint(), base.Fingerprint(); got != want {
		t.Errorf("recording perturbed the span stream: fingerprint %016x, want %016x", got, want)
	}
	if got, want := recParallel.Fingerprint(), base.Fingerprint(); got != want {
		t.Errorf("parallel fingerprint %016x, serial %016x", got, want)
	}
	if got, want := recParallel.Render(), base.Render(); got != want {
		t.Errorf("parallel render differs from serial:\n%s\nvs\n%s", got, want)
	}

	a, b := readDir(t, serialDir), readDir(t, parallel.RecordDir)
	if len(a) == 0 {
		t.Fatal("no recordings written")
	}
	checkPinned(t, a, func(string) bool { return true }, map[string]string{
		"chaos-000.json":        "6c49d972fb2f5e401e99e027e998a425a9ee8fd9ff8b3238f8477c8699ebb6de",
		"chaos-000.spans.jsonl": "19472e3a52e1035df71f628817205a99fe965f4942990e262b56dadd473d5eb5",
	})
	if len(a) != len(b) {
		t.Fatalf("serial wrote %d files, parallel %d", len(a), len(b))
	}
	for name, data := range a {
		other, ok := b[name]
		if !ok {
			t.Errorf("parallel run missing %s", name)
			continue
		}
		if string(data) != string(other) {
			t.Errorf("%s differs between serial and parallel runs", name)
		}
	}
}

// Same invariant for the open-loop sweep's experiment-global stream.
func TestOpenLoopFingerprintInvariance(t *testing.T) {
	serial := Runner{Requests: 60, Seed: 1}
	parallel := Runner{Requests: 60, Seed: 1, Parallelism: 4}
	a, err := serial.OpenLoop()
	if err != nil {
		t.Fatal(err)
	}
	b, err := parallel.OpenLoop()
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("openloop fingerprint %016x serial, %016x parallel", a.Fingerprint(), b.Fingerprint())
	}
}

// A manifest records no library model or prelatched sites, and replay
// boots under the defaults, so a ladder run booted any other way must
// capture nothing even when an incarnation ends unrecovered.
func TestLadderRecordsOnlyReplayableBoots(t *testing.T) {
	r := Runner{Requests: 24, Concurrency: 2, Seed: 3, RecordDir: t.TempDir()}
	// A fail-silent fault the chaos campaign records: apache's flipped
	// branch in sa_int ends incarnations with the breaker open.
	app := apps.Apache()
	fault := faultinj.Fault{ID: 1, Kind: faultinj.FlipBranch, Func: "sa_int", Block: 4, Index: 2}
	failing := func(lr *ladderRun) bool {
		return lr.Totals.Get("core.unrecovered") > 0 || lr.Sup.BreakerOpen
	}
	def, err := r.ladderRun(app, boot.Options{Fault: &fault}, supervisor.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !failing(def) || len(def.Recordings) == 0 {
		t.Fatalf("default boot: failing %v, %d recordings; want a recorded failure", failing(def), len(def.Recordings))
	}
	for name, o := range map[string]boot.Options{
		"masked model": {Fault: &fault, Model: libmodel.DefaultMasked()},
		"prelatched":   {Fault: &fault, Prelatch: []int{1}},
	} {
		lr, err := r.ladderRun(app, o, supervisor.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !failing(lr) {
			t.Fatalf("%s: no failing incarnation; the test needs one", name)
		}
		if len(lr.Recordings) != 0 {
			t.Errorf("%s: captured %d recordings replay cannot reproduce", name, len(lr.Recordings))
		}
	}
}

// Heap-domain campaigns boot under the default model, so their failures
// are recorded like any other: a containment run records the same files
// at any Parallelism, and every manifest replays each of its spans.
func TestContainmentRecordsReplayable(t *testing.T) {
	// At this size one redis-pool flip-branch campaign opens its breaker.
	serial := Runner{Requests: 60, Concurrency: 2, FaultsPerServer: 4, RecordDir: t.TempDir()}
	parallel := serial
	parallel.Parallelism, parallel.RecordDir = 4, t.TempDir()
	if _, err := serial.Containment(); err != nil {
		t.Fatal(err)
	}
	if _, err := parallel.Containment(); err != nil {
		t.Fatal(err)
	}
	a, b := readDir(t, serial.RecordDir), readDir(t, parallel.RecordDir)
	if len(a) == 0 {
		t.Fatal("no containment recordings written")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("serial wrote %d files, parallel %d, or their bytes differ", len(a), len(b))
	}
	for name := range a {
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		rec, err := replay.Load(filepath.Join(serial.RecordDir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rec.Manifest.Core.EnableDomains {
			t.Errorf("%s: recorded core config %+v lacks heap domains", name, rec.Manifest.Core)
		}
		res, err := (&replay.Runner{Rec: rec}).Replay()
		if err != nil {
			t.Fatalf("%s: replay: %v", name, err)
		}
		if res.Stopped || res.Verified != len(rec.Spans) {
			t.Errorf("%s: stopped %v, verified %d of %d spans", name, res.Stopped, res.Verified, len(rec.Spans))
		}
	}
}
