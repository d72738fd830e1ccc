// Package replay is the flight recorder: deterministic record/replay
// for supervised campaign runs, plus rr-style reverse-step forensics.
//
// The simulation is a closed, seeded cycle domain — a run is a pure
// function of (program, fault plan, runtime config, seeds, workload
// schedule). Recording therefore captures *inputs*, not state: a
// Manifest names everything one run consumed, and a companion JSONL
// file holds the span stream the run produced, each span annotated in
// the manifest with the value of an incremental hash chain
// (obsv.ChainFingerprint). Replaying rebuilds the identical world from
// the manifest and verifies the live span chain against the recording;
// the first divergent span is a hard error naming both sides.
//
// Two manifest kinds exist. An "incarnation" manifest records one
// supervised incarnation of a chaos campaign — independently
// replayable because every incarnation boots a fresh world from its
// own supervisor-issued seed. An "openloop" manifest records one rung
// of the open-loop sweep (a 1-replica fleet); it replays verify-only,
// since the interesting machine state is spread across fleet
// incarnations.
package replay

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"github.com/firestarter-go/firestarter/internal/core"
	"github.com/firestarter-go/firestarter/internal/faultinj"
	"github.com/firestarter-go/firestarter/internal/obsv"
	"github.com/firestarter-go/firestarter/internal/workload"
)

// Version is the manifest wire-format version.
const Version = 1

// Manifest kinds.
const (
	KindIncarnation = "incarnation"
	KindOpenLoop    = "openloop"
)

// Recorded outcomes — only failing runs are recorded, so these are the
// only two values.
const (
	OutcomeUnrecovered = "unrecovered"
	OutcomeBreakerOpen = "breaker-open"
)

// Manifest is the serializable description of everything one recorded
// run consumed, plus the span-stream fingerprint it produced.
type Manifest struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"` // "incarnation" or "openloop"
	App     string `json:"app"`
	Backend string `json:"backend,omitempty"` // "" (tree, the default) or "bytecode"

	// Core is the runtime configuration the run booted with. For
	// openloop manifests the HTM seed is per-incarnation (the fleet
	// derives it); the recorded value is the pre-seed template.
	Core core.Config `json:"core"`

	// Fault is the planted fault (name-encoded kind; see faultinj).
	Fault *faultinj.Fault `json:"fault,omitempty"`

	// Incarnation is the 1-based supervisor incarnation this manifest
	// records (incarnation manifests only).
	Incarnation int `json:"incarnation,omitempty"`

	// Schedule is the workload the run consumed; Schedule.Seed is the
	// driver seed (and, for openloop, the fleet's supervision seed).
	Schedule workload.Schedule `json:"schedule"`

	// Outcome is why the run was recorded: "unrecovered" or
	// "breaker-open".
	Outcome string `json:"outcome"`

	// FaultCycle is the machine-local cycle of the first unrecovered
	// span (the default -stop-at-cycle target), or the final cycle
	// count when the run died without one.
	FaultCycle int64 `json:"fault_cycle,omitempty"`

	// FinalCycles/FinalSteps are the machine's counters when the run
	// ended. FinalSteps anchors the default stop point and reverse-step
	// (steps are exact where cycle thresholds straddle instruction
	// costs); openloop manifests record fleet wall cycles and no steps.
	FinalCycles int64 `json:"final_cycles"`
	FinalSteps  int64 `json:"final_steps,omitempty"`

	// Fingerprint is the final span-chain value (16 hex digits), and
	// SpanChain the chain value after each span — the divergence
	// detector: the first replayed span whose chain value differs names
	// exactly where the re-execution left the recording.
	Fingerprint string   `json:"fingerprint"`
	SpanChain   []string `json:"span_chain"`

	// SpansFile names the companion JSONL span stream, relative to the
	// manifest's directory.
	SpansFile string `json:"spans_file,omitempty"`
}

// Recording pairs a manifest with the span stream it fingerprints.
type Recording struct {
	Manifest Manifest
	Spans    []obsv.SpanEvent
}

// fpHex renders a chain value the way manifests store it.
func fpHex(fp uint64) string { return fmt.Sprintf("%016x", fp) }

// ParseFingerprint decodes a manifest fingerprint field.
func ParseFingerprint(s string) (uint64, error) {
	fp, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("replay: bad fingerprint %q: %v", s, err)
	}
	return fp, nil
}

// chainOf walks the span stream through the incremental fingerprint,
// returning the per-span chain values and the final one.
func chainOf(spans []obsv.SpanEvent) ([]string, string) {
	fp := obsv.FingerprintSeed
	chain := make([]string, 0, len(spans))
	for _, e := range spans {
		fp = obsv.ChainFingerprint(fp, e)
		chain = append(chain, fpHex(fp))
	}
	return chain, fpHex(fp)
}

// FailureOutcome classifies a span stream for recording: "unrecovered"
// if any unrecovered span is present, else "breaker-open" if the
// breaker opened, else "" (nothing worth recording).
func FailureOutcome(spans []obsv.SpanEvent) string {
	breaker := false
	for _, e := range spans {
		switch e.Kind {
		case obsv.SpanUnrecovered:
			return OutcomeUnrecovered
		case obsv.SpanBreakerOpen:
			breaker = true
		}
	}
	if breaker {
		return OutcomeBreakerOpen
	}
	return ""
}

// faultCycle finds the first unrecovered span's cycle stamp, falling
// back to the run's final cycle count.
func faultCycle(spans []obsv.SpanEvent, final int64) int64 {
	for _, e := range spans {
		if e.Kind == obsv.SpanUnrecovered {
			return e.Cycles
		}
	}
	return final
}

// Record builds a recording from m, the manifest header of a failing
// run (kind, app, backend, core config, fault, incarnation, the schedule
// the run was driven from, outcome and final counters), and spans, the
// span stream the run produced. It fills in the version, a copy of the
// fault, FaultCycle and the span chain, and stores the default backend
// ("tree") as "". An openloop recording fingerprints the stream densely
// re-sequenced by obsv.Sequence, as its replay does; an incarnation
// recording keeps spans itself, so the caller hands over a slice it owns
// and does not write afterwards.
func Record(m Manifest, spans []obsv.SpanEvent) Recording {
	if m.Kind == KindOpenLoop {
		spans = obsv.Sequence(spans).Events()
	}
	m.Version = Version
	if m.Backend == "tree" {
		// The default backend has one spelling in a recording, so the
		// manifest bytes depend on the run, not on the entry point.
		m.Backend = ""
	}
	if m.Fault != nil {
		f := *m.Fault
		m.Fault = &f
	}
	m.FaultCycle = faultCycle(spans, m.FinalCycles)
	m.SpanChain, m.Fingerprint = chainOf(spans)
	return Recording{Manifest: m, Spans: spans}
}

// writeFile creates path and writes through render, propagating close
// errors.
func writeFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Write stores the recording as dir/base.json plus the companion span
// stream dir/base.spans.jsonl, creating dir as needed, and returns the
// manifest path.
func (rec Recording) Write(dir, base string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	rec.Manifest.SpansFile = base + ".spans.jsonl"
	if err := writeFile(filepath.Join(dir, rec.Manifest.SpansFile), func(w io.Writer) error {
		return obsv.WriteSpans(w, rec.Spans)
	}); err != nil {
		return "", err
	}
	path := filepath.Join(dir, base+".json")
	err := writeFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rec.Manifest)
	})
	return path, err
}

// Load reads a manifest and its companion span stream, verifying the
// stored fingerprint against the spans — a mismatched or edited
// companion fails here rather than as a bogus replay divergence.
func Load(path string) (Recording, error) {
	var rec Recording
	data, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(data, &rec.Manifest); err != nil {
		return rec, fmt.Errorf("replay: %s: %v", path, err)
	}
	man := &rec.Manifest
	if man.Version != Version {
		return rec, fmt.Errorf("replay: %s: manifest version %d, want %d", path, man.Version, Version)
	}
	switch man.Kind {
	case KindIncarnation, KindOpenLoop:
	default:
		return rec, fmt.Errorf("replay: %s: unknown manifest kind %q", path, man.Kind)
	}
	if _, err := ParseFingerprint(man.Fingerprint); err != nil {
		return rec, fmt.Errorf("replay: %s: %v", path, err)
	}
	if man.SpansFile != "" {
		f, err := os.Open(filepath.Join(filepath.Dir(path), man.SpansFile))
		if err == nil {
			rec.Spans, err = obsv.ReadSpans(f)
			f.Close()
		}
		if err != nil {
			return rec, fmt.Errorf("replay: %s: companion: %v", path, err)
		}
	}
	if len(rec.Spans) != len(man.SpanChain) {
		return rec, fmt.Errorf("replay: %s: %d spans but %d chain entries",
			path, len(rec.Spans), len(man.SpanChain))
	}
	if _, final := chainOf(rec.Spans); final != man.Fingerprint {
		return rec, fmt.Errorf("replay: %s: companion span stream fingerprints to %s, manifest says %s",
			path, final, man.Fingerprint)
	}
	return rec, nil
}
