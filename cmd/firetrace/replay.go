package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/firestarter-go/firestarter/internal/obsv"
	"github.com/firestarter-go/firestarter/internal/replay"
	"github.com/firestarter-go/firestarter/internal/workload"
)

// printManifest renders a flight-recorder manifest for humans. Only the
// manifest JSON is read — the companion span stream is not required, so
// a manifest can be inspected even when its spans were moved or pruned.
func printManifest(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "firetrace: %v\n", err)
		return 2
	}
	var man replay.Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		fmt.Fprintf(os.Stderr, "firetrace: %s: %v\n", path, err)
		return 2
	}
	fmt.Print(renderManifest(path, man))
	return 0
}

// renderManifest formats the manifest summary block.
func renderManifest(path string, man replay.Manifest) string {
	out := fmt.Sprintf("manifest: %s (v%d)\n", path, man.Version)
	out += fmt.Sprintf("kind: %s  app: %s", man.Kind, man.App)
	backend := man.Backend
	if backend == "" {
		backend = "tree"
	}
	out += fmt.Sprintf("  backend: %s\n", backend)
	if man.Fault != nil {
		out += fmt.Sprintf("fault: %s\n", *man.Fault)
	}
	if man.Incarnation > 0 {
		out += fmt.Sprintf("incarnation: %d\n", man.Incarnation)
	}
	sc := man.Schedule
	switch sc.Kind {
	case workload.OpenLoop:
		out += fmt.Sprintf("schedule: open %s, seed %d", sc.Proto, sc.Seed)
		if sc.Open != nil {
			out += fmt.Sprintf(", %s %.2f arrivals/Mcycle, %d arrivals, %d clients",
				sc.Open.Shape, sc.Open.RatePerMcycle, sc.Open.Total, sc.Open.Clients)
		}
		out += "\n"
	default:
		out += fmt.Sprintf("schedule: %s %s, seed %d, %d requests, concurrency %d, trace base %d\n",
			sc.Kind, sc.Proto, sc.Seed, sc.Requests, sc.Concurrency, sc.TraceBase)
	}
	out += fmt.Sprintf("outcome: %s at cycle %d\n", man.Outcome, man.FaultCycle)
	out += fmt.Sprintf("final: %d cycles", man.FinalCycles)
	if man.FinalSteps > 0 {
		out += fmt.Sprintf(", %d steps", man.FinalSteps)
	}
	out += "\n"
	out += fmt.Sprintf("spans: %d recorded", len(man.SpanChain))
	if man.SpansFile != "" {
		out += " in " + man.SpansFile
	}
	out += fmt.Sprintf(", fingerprint %s\n", man.Fingerprint)
	return out
}

// runReplay re-executes a recording and reports the verification
// verdict, the stop-point state dump, and (with -reverse-step) the
// state one retired instruction earlier.
func runReplay(path string, stopAt int64, reverse bool, ckptEvery int64, ckptRing int, spansOut string) int {
	rec, err := replay.Load(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "firetrace: %v\n", err)
		return 2
	}
	man := rec.Manifest
	if man.Kind == replay.KindOpenLoop && stopAt < 0 {
		// Openloop manifests replay verify-only; the faulting-instruction
		// default only applies to single-machine incarnations.
		stopAt = 0
	}
	r := &replay.Runner{Rec: rec, StopAt: stopAt, CkptEvery: ckptEvery, CkptRing: ckptRing}
	fmt.Printf("replay: %s: %s %s, outcome %s, %d recorded spans\n",
		path, man.Kind, man.App, man.Outcome, len(rec.Spans))

	var live *replay.Result
	if reverse {
		rr, err := r.ReverseStep()
		if err != nil {
			fmt.Fprintf(os.Stderr, "firetrace: %v\n", err)
			return 1
		}
		fmt.Printf("stopped at the target boundary:\n%s", rr.At.Dump.Render())
		fmt.Printf("reverse-step: one retired instruction earlier (%d checkpoint anchors verified):\n%s",
			rr.Anchors, rr.Prev.Dump.Render())
		fmt.Printf("verified %d spans against the recording\n", rr.At.Verified)
		live = rr.At
	} else {
		res, err := r.Replay()
		if err != nil {
			fmt.Fprintf(os.Stderr, "firetrace: %v\n", err)
			return 1
		}
		if res.Stopped {
			fmt.Print(res.Dump.Render())
		}
		fmt.Printf("verified %d/%d spans, fingerprint %016x\n",
			res.Verified, len(rec.Spans), res.Fingerprint)
		live = res
	}
	if spansOut != "" {
		if err := writeFile(spansOut, func(w io.Writer) error {
			return obsv.WriteSpans(w, live.Spans)
		}); err != nil {
			fmt.Fprintf(os.Stderr, "firetrace: %v\n", err)
			return 2
		}
	}
	return 0
}
