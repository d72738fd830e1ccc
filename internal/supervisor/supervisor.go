// Package supervisor is the microreboot rung of the recovery escalation
// ladder: process-level restart as a real subsystem instead of an ad-hoc
// loop in the benchmark harness.
//
// "Rebooting Microreboot" frames recovery as a ladder of progressively
// coarser supervised actions; this package owns the coarsest in-repo rung.
// When an incarnation of the supervised program dies (or hangs), the
// supervisor accounts the state and connections lost with it, waits out a
// deterministic exponential backoff in cost-model cycles, and boots a
// fresh incarnation with its own seed. A crash-loop breaker — more than
// MaxRestarts restarts inside a sliding WindowCycles window — makes the
// give-up point explicit: the supervisor opens the breaker, reports, and
// stops instead of silently under-counting abandoned work.
//
// Everything is cycle-domain: the campaign clock advances by the cycles
// each incarnation consumed plus the backoff, never by wall time, so a
// supervised campaign is byte-deterministic for a fixed seed.
package supervisor

import (
	"fmt"

	"github.com/firestarter-go/firestarter/internal/obsv"
)

// The restart backoff schedule: the first restart waits backoffBase
// cycles, each further one backoffFactor times longer, up to backoffMax.
const (
	backoffBase   = 50_000
	backoffFactor = 2
	backoffMax    = 5_000_000
)

// Config parameterizes the supervision policy.
type Config struct {
	// MaxRestarts is the crash-loop breaker: more than this many restarts
	// within WindowCycles opens the breaker (default 8).
	MaxRestarts int

	// WindowCycles is the sliding window the breaker counts restarts in
	// (default 200M cycles).
	WindowCycles int64

	// Seed is the campaign seed; incarnation i runs with Seed+i so every
	// incarnation is deterministic but distinct.
	Seed int64
}

// withDefaults fills zero values.
func (c Config) withDefaults() Config {
	if c.MaxRestarts == 0 {
		c.MaxRestarts = 8
	}
	if c.WindowCycles == 0 {
		c.WindowCycles = 200_000_000
	}
	return c
}

// RunResult is one incarnation's outcome, reported by the run callback.
type RunResult struct {
	// Done means the supervised work finished: stop supervising. Checked
	// before Died, so a process that completes its work and then dies is
	// still a completed campaign.
	Done bool

	// Died means the incarnation crashed; false with Done false is
	// treated as a hang — both are restarted.
	Died bool

	// Cycles the incarnation consumed (advances the campaign clock).
	Cycles int64

	// ConnsLost is the number of connections that died with the process.
	ConnsLost int
}

// Reboot records one restart decision for the campaign timeline.
type Reboot struct {
	Incarnation   int   // incarnation that died
	AtCycles      int64 // campaign clock at the death
	BackoffCycles int64 // backoff charged before the next incarnation
}

// Phase is the supervisor's externally visible state — the health signal
// surface the fleet balancer consumes. Idle means no incarnation has
// been started yet.
type Phase int

// Supervisor phases.
const (
	PhaseIdle Phase = iota
	PhaseRunning
	PhaseBackoff     // an incarnation died; the reboot backoff is being waited out
	PhaseBreakerOpen // the crash-loop breaker opened: no further restarts
	PhaseDone        // the supervised work completed
)

// String renders the phase for spans and logs.
func (p Phase) String() string {
	switch p {
	case PhaseIdle:
		return "idle"
	case PhaseRunning:
		return "running"
	case PhaseBackoff:
		return "backoff"
	case PhaseBreakerOpen:
		return "breaker-open"
	case PhaseDone:
		return "done"
	default:
		return "unknown"
	}
}

// Stats is the supervisor's accounting. The published obsv metrics
// reconcile exactly with it.
type Stats struct {
	Incarnations  int
	Restarts      int
	StateLost     int // incarnation deaths/hangs: in-memory state discarded
	ConnsLost     int
	BackoffCycles int64
	BreakerOpen   bool
	ClockCycles   int64 // campaign clock: run cycles + backoff
	Reboots       []Reboot

	// LastBackoff is the most recently charged reboot backoff (the
	// "current backoff delay" gauge); Window is the breaker window
	// occupancy — restarts still inside the sliding window — at
	// collection time. Both reconcile with the supervisor.backoff_cycles
	// and supervisor.breaker_window gauges.
	LastBackoff int64
	Window      int
}

// Supervisor runs a program through restarts under the configured policy.
type Supervisor struct {
	cfg         Config
	stats       Stats
	recent      []int64 // campaign-clock stamps of restarts inside the window
	spans       obsv.SpanLog
	phase       Phase
	lastBackoff int64
}

// New returns a supervisor with the given policy.
func New(cfg Config) *Supervisor {
	return &Supervisor{cfg: cfg.withDefaults()}
}

// MaxRestarts returns the breaker's restart bound, after defaults.
func (s *Supervisor) MaxRestarts() int { return s.cfg.MaxRestarts }

// Clock returns the campaign clock: cycles consumed by every incarnation
// so far plus accumulated backoff. Run callbacks use it as the offset to
// rebase per-incarnation span timestamps onto the campaign timeline.
func (s *Supervisor) Clock() int64 { return s.stats.ClockCycles }

// Stats returns a snapshot of the accounting (Reboots deep-copied).
func (s *Supervisor) Stats() Stats {
	st := s.stats
	st.Reboots = append([]Reboot(nil), s.stats.Reboots...)
	st.LastBackoff = s.lastBackoff
	st.Window = s.WindowOccupancy()
	return st
}

// Phase returns the supervisor's current phase — the health signal the
// fleet balancer routes on (Running → assignable, Backoff → stop new
// assignments and reconnect on recovery, BreakerOpen → down for good).
func (s *Supervisor) Phase() Phase { return s.phase }

// BreakerOpen reports whether the crash-loop breaker has opened.
func (s *Supervisor) BreakerOpen() bool { return s.stats.BreakerOpen }

// CurrentBackoff returns the most recently charged reboot backoff in
// cycles (0 before the first reboot) — the current backoff delay gauge.
func (s *Supervisor) CurrentBackoff() int64 { return s.lastBackoff }

// WindowOccupancy returns how many restarts are still inside the
// breaker's sliding window as of the campaign clock: how close the
// replica is to tripping the breaker. The fleet balancer drains a
// replica whose window is nearly full; the ladder reconciles the
// supervisor.breaker_window gauge against it.
func (s *Supervisor) WindowOccupancy() int {
	now := s.stats.ClockCycles
	n := 0
	for _, t := range s.recent {
		if t >= now-s.cfg.WindowCycles {
			n++
		}
	}
	return n
}

// Spans returns the supervisor's span events (reboot, breaker-open),
// timestamped on the campaign clock.
func (s *Supervisor) Spans() []obsv.SpanEvent { return s.spans.Events() }

// SpanLog returns the supervisor's span log itself, not a copy, for a
// span-stream holder to assemble once the campaign is over.
func (s *Supervisor) SpanLog() *obsv.SpanLog { return &s.spans }

// backoff returns the k-th restart's backoff (k is 1-based).
func (s *Supervisor) backoff(k int) int64 {
	b := int64(backoffBase)
	for i := 1; i < k && b < backoffMax; i++ {
		b *= backoffFactor
	}
	return min(b, backoffMax)
}

// BeginIncarnation starts the next incarnation incrementally: it returns
// the incarnation number and its seed (Config.Seed + incarnation) and
// moves the supervisor to PhaseRunning. Incremental drivers — the fleet
// balancer interleaves N supervised replicas on one cycle domain — pair
// it with Advance and RecordDeath/Finish; Supervise is the same loop
// packaged for the single-process case.
func (s *Supervisor) BeginIncarnation() (incarnation int, seed int64) {
	incarnation = s.stats.Incarnations
	s.stats.Incarnations++
	s.phase = PhaseRunning
	return incarnation, s.cfg.Seed + int64(incarnation)
}

// Advance moves the campaign clock by cycles the running incarnation
// consumed. Incremental drivers call it per scheduling slice so the
// breaker window and backoff stamps stay on the shared cycle domain.
func (s *Supervisor) Advance(cycles int64) { s.stats.ClockCycles += cycles }

// Finish marks the supervised work complete (PhaseDone).
func (s *Supervisor) Finish() { s.phase = PhaseDone }

// RecordDeath accounts one incarnation death at the current campaign
// clock: state and connections lost, the crash-loop breaker check, and —
// if the breaker stays closed — the reboot decision, charging its
// backoff to the clock. It returns the charged backoff and whether the
// breaker opened (backoff 0). The next incarnation is due once the
// caller has observed Clock() advance past the death point plus backoff
// — i.e. immediately for Supervise, or when the shared cycle domain
// catches up for the fleet balancer.
func (s *Supervisor) RecordDeath(incarnation, connsLost int) (backoff int64, open bool) {
	// The incarnation died (or hung): its in-memory state and open
	// connections are gone.
	s.stats.StateLost++
	s.stats.ConnsLost += connsLost
	now := s.stats.ClockCycles

	// Crash-loop breaker: count restarts inside the sliding window.
	cut := 0
	for cut < len(s.recent) && s.recent[cut] < now-s.cfg.WindowCycles {
		cut++
	}
	s.recent = s.recent[cut:]
	if len(s.recent) >= s.cfg.MaxRestarts {
		s.stats.BreakerOpen = true
		s.phase = PhaseBreakerOpen
		s.spans.Append(obsv.SpanEvent{
			Cycles: now,
			Kind:   obsv.SpanBreakerOpen,
			Cause:  "crash-loop",
			Detail: fmt.Sprintf("restarts=%d window=%d", len(s.recent), s.cfg.WindowCycles),
		})
		return 0, true
	}
	s.recent = append(s.recent, now)

	s.stats.Restarts++
	backoff = s.backoff(s.stats.Restarts)
	s.stats.BackoffCycles += backoff
	s.stats.ClockCycles += backoff
	s.lastBackoff = backoff
	s.phase = PhaseBackoff
	s.stats.Reboots = append(s.stats.Reboots, Reboot{
		Incarnation:   incarnation,
		AtCycles:      now,
		BackoffCycles: backoff,
	})
	s.spans.Append(obsv.SpanEvent{
		Cycles: now,
		Kind:   obsv.SpanReboot,
		Cause:  "incarnation died",
		Detail: fmt.Sprintf("incarnation=%d backoff=%d conns_lost=%d", incarnation, backoff, connsLost),
	})
	return backoff, false
}

// Supervise runs incarnations of the program until one reports Done, the
// crash-loop breaker opens, or the callback errors. The callback receives
// the incarnation number and its seed (Config.Seed + incarnation). A
// breaker-open return is nil — giving up is a reported policy outcome,
// not an error; check Stats().BreakerOpen.
func (s *Supervisor) Supervise(run func(incarnation int, seed int64) (RunResult, error)) error {
	for {
		inc, seed := s.BeginIncarnation()
		res, err := run(inc, seed)
		if err != nil {
			return err
		}
		s.Advance(res.Cycles)
		if res.Done {
			s.Finish()
			return nil
		}
		if _, open := s.RecordDeath(inc, res.ConnsLost); open {
			return nil
		}
	}
}

// Metrics is the supervisor's accounting schema. The two gauges are the
// health surface the fleet balancer routes on: the current backoff delay
// and the breaker window occupancy.
var Metrics = obsv.Table[Stats]{
	{Name: "supervisor.incarnations", Get: func(s *Stats) int64 { return int64(s.Incarnations) }},
	{Name: "supervisor.restarts", Get: func(s *Stats) int64 { return int64(s.Restarts) }, Span: obsv.SpanReboot},
	{Name: "supervisor.state_lost", Get: func(s *Stats) int64 { return int64(s.StateLost) }},
	{Name: "supervisor.conns_lost", Get: func(s *Stats) int64 { return int64(s.ConnsLost) }},
	{Name: "supervisor.backoff_cycles_total", Get: func(s *Stats) int64 { return s.BackoffCycles }},
	{Name: "supervisor.breaker_open", Get: func(s *Stats) int64 { return obsv.Flag(s.BreakerOpen) }, Span: obsv.SpanBreakerOpen},
	{Name: "supervisor.backoff_cycles", Gauge: true, Get: func(s *Stats) int64 { return s.LastBackoff }},
	{Name: "supervisor.breaker_window", Gauge: true, Get: func(s *Stats) int64 { return int64(s.Window) }},
}

// PublishMetrics copies the supervisor's accounting into a metrics
// registry under the given labels. Collection-time only; the totals
// reconcile exactly with Stats().
func (s *Supervisor) PublishMetrics(reg *obsv.Registry, labels ...obsv.Label) {
	st := s.Stats()
	Metrics.Publish(reg, &st, labels...)
}
