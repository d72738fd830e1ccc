package bench

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/boot"
	"github.com/firestarter-go/firestarter/internal/faultinj"
	"github.com/firestarter-go/firestarter/internal/obsv"
	"github.com/firestarter-go/firestarter/internal/supervisor"
)

// exportDigest is the sha256 of a span stream's exported form: densely
// re-sequenced, as JSONL.
func exportDigest(t *testing.T, spans []obsv.SpanEvent) string {
	t.Helper()
	var buf bytes.Buffer
	if err := obsv.Sequence(spans).WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
}

// assemblyFault plants redis's second off-by-one fault at seed 1: every
// incarnation it runs in soon dies, so both campaigns below span many
// incarnations.
func assemblyFault(t *testing.T, r Runner) (*apps.App, faultinj.Fault) {
	t.Helper()
	app := apps.ByName("redis")
	faults, err := r.planFaults(app, faultinj.OffByOne, 2)
	if err != nil || len(faults) < 2 {
		t.Fatalf("plan: %v (%d faults)", err, len(faults))
	}
	return app, faults[1]
}

// TestSpanAssemblyPinned: the span streams that a multi-incarnation
// supervised campaign and a fleet with reboots and fail-overs assemble
// are byte-identical to the ones the per-incarnation rebase-and-append
// loop produced (digests pinned from it).
func TestSpanAssemblyPinned(t *testing.T) {
	r := Runner{Requests: 30, Concurrency: 4, Seed: 1}.withDefaults()
	app, fault := assemblyFault(t, r)

	lr, err := r.ladderRun(app, boot.Options{Fault: &fault}, supervisor.Config{Seed: r.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if lr.Sup.Restarts < 2 {
		t.Fatalf("ladder run rebooted %d times, want several incarnations", lr.Sup.Restarts)
	}
	if got, want := exportDigest(t, lr.Spans), "b07c86a9344e5820f993b0526a8134d6f7b3359240ebfb07e34a1b4cdeda3d11"; got != want {
		t.Errorf("ladder run: %d spans export to %s, want %s", len(lr.Spans), got, want)
	}

	// A two-replica fleet whose replicas die, fail their conns over and
	// reboot. (Drain hand-offs are pinned by the fleet package's scripted
	// TestSpansPinnedAcrossDrainAndFailover.)
	fr, err := r.fleetRun(app, &fault, 2, r.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if st := fr.St; st.Boots <= 2 || st.Failovers == 0 || st.Handoffs == 0 {
		t.Fatalf("fleet run lacks reboots or fail-overs: %+v", st)
	}
	if got, want := exportDigest(t, fr.Spans), "349f59cd8986fa79eb305b885721aaa84d02023d9cd06d375bab143b900936bc"; got != want {
		t.Errorf("fleet run: %d spans export to %s, want %s", len(fr.Spans), got, want)
	}
}
