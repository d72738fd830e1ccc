package bench

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/boot"
	"github.com/firestarter-go/firestarter/internal/faultinj"
	"github.com/firestarter-go/firestarter/internal/libmodel"
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

// The span fingerprint commits to every byte -trace-out would write, so
// it must be identical serial vs parallel — and arming the flight
// recorder must not perturb the campaign at all.
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
		"arena model": {Fault: &fault, Model: libmodel.WithArena()},
		"prelatched":  {Fault: &fault, Prelatch: []int{1}},
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
