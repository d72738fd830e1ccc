package replay

import (
	"fmt"
	"strings"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/boot"
	"github.com/firestarter-go/firestarter/internal/core"
	"github.com/firestarter-go/firestarter/internal/interp"
	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/obsv"
	"github.com/firestarter-go/firestarter/internal/workload"
)

// Runner re-executes a recording, verifying the live span chain
// against it as the run unfolds (first divergence = hard error).
type Runner struct {
	Rec Recording

	// StopAt selects the halt point of an incarnation replay:
	//   -1  the recorded faulting instruction (the boundary before the
	//       final retired step — the forensic default),
	//    0  run to completion, verifying the whole recording,
	//    N  the first instruction boundary at or past cycle N.
	StopAt int64

	// StopAtStep, when positive, overrides StopAt with a retired-step
	// boundary instead of a cycle boundary — the precise handle the
	// reverse-step machinery and its tests use.
	StopAtStep int64

	// CkptEvery arms the runtime's periodic checkpoint ring (cycles
	// between captures; 0 disables). CkptRing bounds the ring (0: 64).
	CkptEvery int64
	CkptRing  int

	// img is the recorded world's image, built on the first pass and
	// booted by every pass after it: a reverse-step's second pass reboots
	// the same program. Rec must not change once a pass has run.
	img *boot.Image
}

// StateDump is the guest state frozen at a replay stop point.
type StateDump struct {
	Cycles    int64
	Steps     int64
	Func      string
	Depth     int
	InTx      bool
	Backtrace []string
	Frames    []interp.FrameInfo
	RegDigest uint64
	MemDigest uint64
	RSS       int64
	OpenFDs   []string
	Arena     *libsim.ArenaStats
	SpanCount int
	SpanFP    uint64

	spans []obsv.SpanEvent // the pre-stop span prefix, for verification
}

// Render formats the dump for the firetrace -replay report.
func (d *StateDump) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "halted at cycle %d, step %d: %s (depth %d", d.Cycles, d.Steps, d.Func, d.Depth)
	if d.InTx {
		sb.WriteString(", in transaction")
	}
	sb.WriteString(")\n")
	fmt.Fprintf(&sb, "backtrace: %s\n", strings.Join(d.Backtrace, " <- "))
	fmt.Fprintf(&sb, "registers: digest %016x; memory: digest %016x, rss %d bytes\n",
		d.RegDigest, d.MemDigest, d.RSS)
	if len(d.OpenFDs) > 0 {
		fmt.Fprintf(&sb, "open fds: %s\n", strings.Join(d.OpenFDs, ", "))
	}
	if d.Arena != nil {
		fmt.Fprintf(&sb, "arenas: allocs=%d fallbacks=%d retires=%d slabs=%d\n",
			d.Arena.Allocs, d.Arena.Fallbacks, d.Arena.Retires, d.Arena.Slabs)
	}
	fmt.Fprintf(&sb, "spans: %d recorded, fingerprint %016x\n", d.SpanCount, d.SpanFP)
	if n := len(d.Frames); n > 0 {
		f := d.Frames[n-1]
		fmt.Fprintf(&sb, "innermost frame %s.b%d.%d regs=%v\n", f.Func, f.Block, f.Index, f.Regs)
	}
	return sb.String()
}

// Result is one replay pass.
type Result struct {
	Stopped     bool
	Dump        *StateDump // non-nil when Stopped
	Verified    int        // spans checked against the recording
	Fingerprint uint64     // live chain value at stop/end
	Spans       []obsv.SpanEvent
	Checkpoints []core.Checkpoint
	FinalCycles int64
	FinalSteps  int64
}

// ReverseResult is a reverse-step: the stop-point state plus the state
// one retired instruction earlier, with the checkpoint-ring anchors
// that verified the two passes executed identically.
type ReverseResult struct {
	At      *Result // pass 1: stopped at the target
	Prev    *Result // pass 2: stopped one step earlier
	Anchors int     // checkpoint pairs compared equal across the passes
}

// bootOptions returns the boot options of the recorded run: its fault,
// core config and backend.
func (m *Manifest) bootOptions() boot.Options {
	return boot.Options{Core: m.Core, Fault: m.Fault, Backend: m.Backend}
}

// image returns the recorded world's image, built on first use through
// the same pipeline that built the original.
func (r *Runner) image() (*boot.Image, error) {
	if r.img == nil {
		man := &r.Rec.Manifest
		app := apps.ByName(man.App)
		if app == nil {
			return nil, fmt.Errorf("replay: unknown app %q", man.App)
		}
		img, err := boot.Build(app, man.bootOptions())
		if err != nil {
			return nil, err
		}
		r.img = img
	}
	return r.img, nil
}

// captureDump freezes the guest state (called from the watch callback,
// before the driver appends its trailing run-end spans — the captured
// span prefix is exactly what had been recorded by the stop boundary).
func captureDump(inst *boot.Instance) *StateDump {
	snap := inst.M.Snapshot()
	d := &StateDump{
		Cycles:    inst.M.Cycles,
		Steps:     inst.M.Steps,
		Func:      inst.M.CurrentFunc(),
		Depth:     inst.M.Depth(),
		InTx:      inst.RT.InTransaction(),
		Backtrace: inst.M.Backtrace(),
		Frames:    inst.M.Frames(),
		RegDigest: snap.Digest(),
		MemDigest: inst.OS.Space.Digest(),
		RSS:       inst.OS.Space.RSS(),
		OpenFDs:   inst.OS.OpenFDList(),
		SpanFP:    inst.RT.SpanFingerprint(),
		spans:     inst.RT.Spans(),
	}
	d.SpanCount = len(d.spans)
	if inst.OS.ArenasEnabled() {
		st := inst.OS.ArenaStats()
		d.Arena = &st
	}
	return d
}

// verifySpans checks the live span stream against the recording: every
// live span must match the recorded one and reproduce its chain value;
// a full-run verification additionally requires the stream complete.
// Returns the spans verified and the live chain value.
func verifySpans(man *Manifest, recorded, live []obsv.SpanEvent, full bool) (int, uint64, error) {
	fp := obsv.FingerprintSeed
	for i, e := range live {
		if i >= len(recorded) {
			return i, fp, fmt.Errorf("replay diverged: produced span %d (%s at cycle %d) beyond the recording's %d spans",
				i+1, e.Kind, e.Cycles, len(recorded))
		}
		fp = obsv.ChainFingerprint(fp, e)
		if want := recorded[i]; e != want {
			return i, fp, fmt.Errorf("replay diverged at span %d: recorded %s at cycle %d (trace %d), replayed %s at cycle %d (trace %d)",
				i+1, want.Kind, want.Cycles, want.Trace, e.Kind, e.Cycles, e.Trace)
		}
		if got := fpHex(fp); got != man.SpanChain[i] {
			return i, fp, fmt.Errorf("replay diverged at span %d (%s at cycle %d): chain %s, recorded %s",
				i+1, e.Kind, e.Cycles, got, man.SpanChain[i])
		}
	}
	if full {
		if len(live) != len(recorded) {
			return len(live), fp, fmt.Errorf("replay diverged: produced %d spans, recording has %d (first missing: %s at cycle %d)",
				len(live), len(recorded), recorded[len(live)].Kind, recorded[len(live)].Cycles)
		}
		if got := fpHex(fp); got != man.Fingerprint {
			return len(live), fp, fmt.Errorf("replay diverged: final fingerprint %s, recorded %s", got, man.Fingerprint)
		}
	}
	return len(live), fp, nil
}

// Replay re-executes the recording, honoring StopAt for incarnation
// manifests. Openloop manifests replay verify-only.
func (r *Runner) Replay() (*Result, error) {
	switch r.Rec.Manifest.Kind {
	case KindIncarnation:
		watchCycles, watchSteps, err := r.stopTarget()
		if err != nil {
			return nil, err
		}
		return r.runIncarnation(watchCycles, watchSteps)
	case KindOpenLoop:
		if r.StopAt != 0 || r.StopAtStep > 0 {
			return nil, fmt.Errorf("replay: -stop-at-cycle and -reverse-step need an incarnation manifest; %q manifests replay verify-only (use -stop-at-cycle 0)", KindOpenLoop)
		}
		return r.replayOpenLoop()
	default:
		return nil, fmt.Errorf("replay: unknown manifest kind %q", r.Rec.Manifest.Kind)
	}
}

// stopTarget resolves StopAt into a watchpoint.
func (r *Runner) stopTarget() (watchCycles, watchSteps int64, err error) {
	man := &r.Rec.Manifest
	switch {
	case r.StopAtStep > 0:
		return 0, r.StopAtStep, nil
	case r.StopAt < 0:
		// The recorded faulting instruction: the machine died on retired
		// step FinalSteps, so freeze at the boundary just before it.
		if man.FinalSteps <= 1 {
			return 0, 0, fmt.Errorf("replay: manifest records no final step count; pass an explicit -stop-at-cycle")
		}
		return 0, man.FinalSteps - 1, nil
	case r.StopAt > 0:
		return r.StopAt, 0, nil
	}
	return 0, 0, nil
}

// runIncarnation boots the recorded world and re-drives its closed-loop
// schedule, with an optional watchpoint freezing the machine at the
// requested boundary.
func (r *Runner) runIncarnation(watchCycles, watchSteps int64) (*Result, error) {
	man := &r.Rec.Manifest
	sc := man.Schedule
	if sc.Kind != workload.ClosedLoop {
		return nil, fmt.Errorf("replay: incarnation manifest with %q schedule", sc.Kind)
	}
	img, err := r.image()
	if err != nil {
		return nil, err
	}
	inst, err := img.Boot(man.bootOptions())
	if err != nil {
		return nil, err
	}
	inst.RT.EnableSpans()
	if r.CkptEvery > 0 {
		inst.RT.EnableCheckpoints(r.CkptEvery, r.CkptRing)
	}
	var dump *StateDump
	capture := func(*interp.Machine) { dump = captureDump(inst) }
	switch {
	case watchSteps > 0:
		inst.M.WatchSteps(watchSteps, capture)
	case watchCycles > 0:
		inst.M.WatchCycles(watchCycles, capture)
	}

	// Boot to the quiesce point exactly as the recording did. The watch
	// may fire during startup (an early -stop-at-cycle); that is a stop,
	// not an error.
	if err := inst.ArmQuiesce(); err != nil {
		return nil, err
	}
	if dump == nil {
		inst.Drive(sc)
	}

	res := &Result{
		Stopped:     dump != nil,
		Dump:        dump,
		Checkpoints: inst.RT.Checkpoints(),
		FinalCycles: inst.M.Cycles,
		FinalSteps:  inst.M.Steps,
	}
	live := inst.RT.Spans()
	if dump != nil {
		// The driver's trailing run-end spans postdate the stop boundary;
		// verify the prefix the watch callback froze.
		live = dump.spans
	}
	res.Verified, res.Fingerprint, err = verifySpans(man, r.Rec.Spans, live, dump == nil)
	if err != nil {
		return res, err
	}
	if dump == nil && (watchCycles > 0 || watchSteps > 0) {
		// The spans verified, yet the armed watch never fired — the run
		// ended before the requested boundary.
		return res, fmt.Errorf("replay: run ended at cycle %d, step %d before reaching the stop target",
			inst.M.Cycles, inst.M.Steps)
	}
	res.Spans = live
	return res, nil
}

// replayOpenLoop re-drives an open-loop rung against a fresh 1-replica
// fleet and verifies the re-sequenced merged span stream.
func (r *Runner) replayOpenLoop() (*Result, error) {
	man := &r.Rec.Manifest
	sc := man.Schedule
	if sc.Kind != workload.OpenLoop || sc.Open == nil {
		return nil, fmt.Errorf("replay: openloop manifest without an open schedule")
	}
	img, err := r.image()
	if err != nil {
		return nil, err
	}
	fl, _, err := img.RunFleet(man.bootOptions(), 1, sc)
	if err != nil {
		return nil, err
	}
	res := &Result{FinalCycles: fl.Cycles()}
	live := obsv.Sequence(fl.Spans()).Events()
	res.Verified, res.Fingerprint, err = verifySpans(man, r.Rec.Spans, live, true)
	if err != nil {
		return res, err
	}
	res.Spans = live
	return res, nil
}

// ReverseStep steps one retired instruction backwards from the stop
// point: pass 1 replays to the stop target (gathering the checkpoint
// ring), pass 2 re-executes from boot to the boundary one step
// earlier, and every ring entry the passes share is compared as a
// determinism anchor — the rr recipe, with re-execution from boot
// standing in for checkpoint restore (a simulated world boots in
// milliseconds; the ring proves the second pass retraced the first).
func (r *Runner) ReverseStep() (*ReverseResult, error) {
	if r.Rec.Manifest.Kind != KindIncarnation {
		return nil, fmt.Errorf("replay: -reverse-step needs an incarnation manifest")
	}
	if r.CkptEvery <= 0 {
		return nil, fmt.Errorf("replay: -reverse-step needs checkpoints (set -ckpt-every)")
	}
	at, err := r.Replay()
	if err != nil {
		return nil, err
	}
	if !at.Stopped {
		return nil, fmt.Errorf("replay: run completed without hitting the stop target; nothing to step back from")
	}
	if at.Dump.Steps <= 1 {
		return nil, fmt.Errorf("replay: stopped at step %d; no earlier boundary exists", at.Dump.Steps)
	}
	prev, err := r.runIncarnation(0, at.Dump.Steps-1)
	if err != nil {
		return nil, fmt.Errorf("replay: reverse pass: %w", err)
	}
	if !prev.Stopped {
		return nil, fmt.Errorf("replay: reverse pass ran past step %d without stopping", at.Dump.Steps-1)
	}
	anchors, err := compareAnchors(at.Checkpoints, prev.Checkpoints)
	if err != nil {
		return nil, err
	}
	return &ReverseResult{At: at, Prev: prev, Anchors: anchors}, nil
}

// compareAnchors cross-checks the two passes' checkpoint rings: every
// entry captured at the same retired-step count must be identical.
func compareAnchors(a, b []core.Checkpoint) (int, error) {
	bySteps := make(map[int64]core.Checkpoint, len(a))
	for _, c := range a {
		bySteps[c.Steps] = c
	}
	n := 0
	for _, c := range b {
		want, ok := bySteps[c.Steps]
		if !ok {
			continue
		}
		if c.RegDigest != want.RegDigest || c.MemDigest != want.MemDigest ||
			c.Cycles != want.Cycles || c.Func != want.Func {
			return n, fmt.Errorf("replay: reverse pass diverged at checkpoint step %d: reg %016x/%016x mem %016x/%016x cycle %d/%d func %s/%s",
				c.Steps, c.RegDigest, want.RegDigest, c.MemDigest, want.MemDigest,
				c.Cycles, want.Cycles, c.Func, want.Func)
		}
		n++
	}
	return n, nil
}
