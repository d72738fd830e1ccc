// Package fleet is the tier above the recovery escalation ladder: a
// deterministic, cycle-domain L4 load balancer that owns the listening
// endpoint and proxies byte streams to N replica backends, each a full
// supervised server with its own escalation ladder, per-incarnation seed
// and supervisor.
//
// The balancer consumes the ladder's signals as health state. A replica
// whose crash-loop breaker opened is down for good; one whose supervisor
// is waiting out a reboot backoff takes no traffic until the shared cycle
// clock catches up to its reboot point; one whose breaker window is
// filling up is drained — no new assignments, quiesced requests allowed
// to finish, a deadline forcing the stragglers off. When a replica dies,
// connections whose request has not begun answering fail over to a
// healthy replica (the buffered request bytes are replayed); everything
// else is closed toward the client, which reconnects through the
// balancer.
//
// Everything is cycle-domain deterministic: the fleet wall clock is the
// maximum replica campaign clock, replicas are driven in id order, and
// idle replicas are advanced to the wall each round, so a fleet campaign
// is byte-identical for a fixed seed at any harness parallelism.
package fleet

import (
	"fmt"
	"slices"
	"strconv"

	"github.com/firestarter-go/firestarter/internal/core"
	"github.com/firestarter-go/firestarter/internal/interp"
	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/obsv"
	"github.com/firestarter-go/firestarter/internal/supervisor"
)

// Handoff causes (span Cause values on SpanHandoff events).
const (
	CauseFailover     = "failover"      // the conn's replica died mid-request
	CauseDrain        = "drain"         // moved at a request boundary off a draining replica
	CauseDrainExpired = "drain-expired" // forced off at the drain deadline
)

// Exec abstracts the replica's execution engine so tests can script
// replicas without a compiled program; MachineExec adapts the real
// interpreter.
type Exec interface {
	// Run advances the replica up to budget instructions and reports how
	// it stopped (blocked, step limit, trapped, exited).
	Run(budget int64) interp.Outcome
	// Cycles and Steps report the engine's monotonic cost-model clocks.
	Cycles() int64
	Steps() int64
}

type machineExec struct{ m *interp.Machine }

func (r machineExec) Run(budget int64) interp.Outcome { return r.m.Run(budget) }
func (r machineExec) Cycles() int64                   { return r.m.Cycles }
func (r machineExec) Steps() int64                    { return r.m.Steps }

// MachineExec adapts an interpreter machine to the Exec interface.
func MachineExec(m *interp.Machine) Exec { return machineExec{m} }

// Backend is one booted replica incarnation as the balancer sees it.
type Backend struct {
	OS   *libsim.OS
	Exec Exec
	RT   *core.Runtime // nil when the replica has no hardened runtime
}

// BootFunc boots one replica incarnation: a fresh OS/machine (and
// usually a hardened runtime with spans enabled and its quiesce point
// armed), listening on the fleet's port. The seed is the replica
// supervisor's per-incarnation seed.
type BootFunc func(replica, incarnation int, seed int64) (*Backend, error)

// Config parameterizes the fleet.
type Config struct {
	// Replicas is the number of supervised backends (default 1).
	Replicas int

	// Port is the endpoint the balancer serves and every replica listens on.
	Port int64

	// Sup is the per-replica supervision policy. Replica r supervises with
	// Seed + seedStride*r so incarnation seeds never collide across
	// replicas.
	Sup supervisor.Config
}

// seedStride separates the replicas' supervision seeds.
const seedStride = 1_000_000

// drainCycles is the drain deadline: conns still on a draining replica
// this many cycles after the drain began are forced off.
const drainCycles = 2_000_000

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	return c
}

// Stats is the fleet's accounting. The published fleet.* metrics and the
// balancer span log reconcile exactly with it.
type Stats struct {
	Replicas int

	Boots  int // replica-up spans: incarnations booted (including firsts)
	Deaths int // replica-down spans: incarnations that trapped or exited

	Handoffs     int // live connections migrated between replicas (all causes)
	Failovers    int // handoffs caused by a replica death
	Drains       int // handoffs at a request boundary off a draining replica
	DrainExpired int // handoffs forced at the drain deadline
	Parked       int // migrations that had to wait for a replica to boot

	DrainsStarted int // drain episodes the health check opened
	BreakersOpen  int // replicas whose crash-loop breaker opened

	ConnsClosed int // fronts closed toward the client (any reason)
	ConnsLost   int // conns a death closed with no fail-over (RecordDeath's count)

	// Terminal accounting: the balancer is the driver's trace sink, so
	// req-done/req-lost totals live here (replica runtimes count only
	// req-starts).
	ReqsDone int64
	ReqsLost int64

	// Runtime sums the replica runtimes' accounting tables (core.Metrics
	// and core.DomainMetrics) across every incarnation of every replica;
	// Dropped counts span events any bounded log discarded.
	Runtime obsv.Totals
	Dropped int64
}

// Metrics is the balancer's accounting schema; each counter reconciles
// with Stats and, where a span kind is declared, with the balancer's
// span counts.
var Metrics = obsv.Table[Stats]{
	{Name: "fleet.replicas", Gauge: true, Get: func(s *Stats) int64 { return int64(s.Replicas) }},
	{Name: "fleet.boots", Get: func(s *Stats) int64 { return int64(s.Boots) }, Span: obsv.SpanReplicaUp},
	{Name: "fleet.deaths", Get: func(s *Stats) int64 { return int64(s.Deaths) }, Span: obsv.SpanReplicaDown},
	{Name: "fleet.handoffs", Get: func(s *Stats) int64 { return int64(s.Handoffs) }, Span: obsv.SpanHandoff},
	{Name: "fleet.failovers", Get: func(s *Stats) int64 { return int64(s.Failovers) }},
	{Name: "fleet.drains", Get: func(s *Stats) int64 { return int64(s.Drains) }},
	{Name: "fleet.drain_expired", Get: func(s *Stats) int64 { return int64(s.DrainExpired) }},
	{Name: "fleet.parked", Get: func(s *Stats) int64 { return int64(s.Parked) }},
	{Name: "fleet.drains_started", Get: func(s *Stats) int64 { return int64(s.DrainsStarted) }},
	{Name: "fleet.breakers_open", Get: func(s *Stats) int64 { return int64(s.BreakersOpen) }},
	{Name: "fleet.conns_closed", Get: func(s *Stats) int64 { return int64(s.ConnsClosed) }},
	{Name: "fleet.conns_lost", Get: func(s *Stats) int64 { return int64(s.ConnsLost) }},
	{Name: "fleet.req_done", Get: func(s *Stats) int64 { return s.ReqsDone }, Span: obsv.SpanReqDone},
	{Name: "fleet.req_lost", Get: func(s *Stats) int64 { return s.ReqsLost }, Span: obsv.SpanReqLost},
}

type repState int

const (
	repDown     repState = iota // waiting out a reboot backoff (or never booted)
	repUp                       // serving, assignable
	repDraining                 // serving residual conns only; no new assignments
	repBroken                   // crash-loop breaker open: down for good
)

// replica is one supervised backend slot.
type replica struct {
	id         int
	sup        *supervisor.Supervisor
	be         *Backend
	state      repState
	inc        int   // current incarnation number
	bootClock  int64 // campaign clock at the incarnation's boot (span rebase offset)
	lastCycles int64 // Exec.Cycles at the last supervisor Advance
	rebootAt   int64 // campaign clock at which the next incarnation is due
	drainStart int64 // wall clock when the current drain episode began
}

func (rep *replica) live() bool { return rep.state == repUp || rep.state == repDraining }

// connPhase tracks where a front connection is in its request cycle.
type connPhase int

const (
	phaseIdle    connPhase = iota // at a request boundary: safe to reassign without replay
	phaseRequest                  // a request is buffered/forwarded with no response bytes yet
)

// vconn is one virtual connection: the client-facing front plus the
// current back connection into a replica. The balancer buffers the
// in-flight request so it can be replayed on fail-over.
type vconn struct {
	id    int64
	front *libsim.Conn
	back  *libsim.Conn
	rep   int // owning replica, -1 = parked (waiting for an assignable one)

	inflight []byte // current request bytes (the replay buffer)
	fwd      int    // bytes of inflight already delivered to the back
	trace    int64  // current request's trace ID (0 = untraced)
	started  bool   // the back's server consumed the request's first bytes
	phase    connPhase

	// Migration bookkeeping: set when the conn is detached, consumed by
	// the attach that completes the handoff.
	handoffCause string
	from         int

	closed bool
}

// refreshStarted latches whether the back's server promoted the conn's
// trace (its first read of the request happened) — the flag that decides
// whether a replay is re-stamped with the trace ID (exactly one req-start
// per trace).
func (vc *vconn) refreshStarted() {
	if vc.back != nil && vc.trace != 0 && !vc.started && vc.back.Trace() == vc.trace {
		vc.started = true
	}
}

// Fleet is the L4 balancer over N supervised replicas. It implements
// workload.Server (the driver connects, slices and reads the clock
// through it) and workload.TraceSink (terminal request outcomes are
// balancer-level events — requests outlive replica incarnations).
type Fleet struct {
	cfg  Config
	boot BootFunc
	reps []*replica

	// drainWindow is the breaker-window occupancy at which a replica is
	// drained instead of taking new work: one more death inside the
	// window would open its breaker.
	drainWindow int

	conns  []*vconn
	nconn  int64
	rr     int              // round-robin cursor
	fronts libsim.QueuePool // queue storage of the front conns
	backs  libsim.QueuePool // of the back conns, shared by every incarnation

	wall      int64 // fleet wall clock: max replica campaign clock
	stepsDone int64 // steps of harvested incarnations

	spans    obsv.SpanLog // balancer events + terminals, wall-stamped
	harvests []obsv.Piece // finished incarnations' span logs, in harvest order
	merged   []obsv.SpanEvent
	touched  map[int64]bool
	reg      *obsv.Registry
	stats    Stats

	lastTrap int64
	err      error
	finished bool
}

// New builds a fleet; nothing boots until the first Slice.
func New(cfg Config, boot BootFunc) *Fleet {
	cfg = cfg.withDefaults()
	f := &Fleet{
		cfg:     cfg,
		boot:    boot,
		touched: map[int64]bool{},
		reg:     obsv.NewRegistry(),
	}
	for i := 0; i < cfg.Replicas; i++ {
		sc := cfg.Sup
		sc.Seed = cfg.Sup.Seed + seedStride*int64(i)
		f.reps = append(f.reps, &replica{id: i, sup: supervisor.New(sc)})
	}
	f.drainWindow = max(f.reps[0].sup.MaxRestarts()-1, 1)
	f.stats.Replicas = cfg.Replicas
	return f
}

// Err returns the first boot error (the campaign is unusable past it).
func (f *Fleet) Err() error { return f.err }

// Registry returns the fleet's metrics registry: per-incarnation runtime
// metrics (labelled by replica), per-replica supervisor metrics, and the
// fleet.* counters, all landed by harvest/Finish.
func (f *Fleet) Registry() *obsv.Registry { return f.reg }

// Stats returns a snapshot of the fleet accounting.
func (f *Fleet) Stats() Stats {
	st := f.stats
	st.Runtime = slices.Clone(st.Runtime)
	return st
}

// SupStats returns replica i's supervisor accounting.
func (f *Fleet) SupStats(i int) supervisor.Stats { return f.reps[i].sup.Stats() }

// ReplicaPhase returns replica i's supervisor phase (tests, health
// introspection).
func (f *Fleet) ReplicaPhase(i int) supervisor.Phase { return f.reps[i].sup.Phase() }

// Draining reports whether replica i is currently draining.
func (f *Fleet) Draining(i int) bool { return f.reps[i].state == repDraining }

// Spans returns the merged campaign span log: every incarnation's runtime
// spans (rebased onto the campaign clock, stamped with replica and
// incarnation), every supervisor's reboot/breaker events, and the
// balancer's own replica-up/replica-down/handoff/terminal events, in
// non-decreasing cycle order. Valid after Finish.
//
// The result is the fleet's frozen stream itself, not a copy: callers
// read it and never write it. Its cap equals its length, so a caller's
// append reallocates instead of writing into the fleet's storage.
func (f *Fleet) Spans() []obsv.SpanEvent { return f.merged }

// --- workload.Server -----------------------------------------------------

// Connect opens a client connection through the balancer. The front conn
// is detached (owned Go-side); a back conn is attached immediately when a
// replica is assignable, otherwise on a later pump. Returns nil when
// every replica's breaker is open.
func (f *Fleet) Connect(port int64) *libsim.Conn {
	if port != f.cfg.Port || f.allBroken() || f.err != nil {
		return nil
	}
	f.nconn++
	vc := &vconn{id: f.nconn, front: f.fronts.NewConn(), rep: -1, from: -1}
	f.conns = append(f.conns, vc)
	if t := f.pick(); t >= 0 {
		f.attach(vc, t)
	}
	return vc.front
}

// Cycles returns the fleet wall clock (the driver's throughput and
// latency clock).
func (f *Fleet) Cycles() int64 { return f.wall }

// Steps returns retired instructions across all incarnations.
func (f *Fleet) Steps() int64 {
	steps := f.stepsDone
	for _, rep := range f.reps {
		if rep.be != nil {
			steps += rep.be.Exec.Steps()
		}
	}
	return steps
}

// Slice advances the whole fleet until nothing makes progress: health
// transitions, due reboots, byte pumping, and one Run per live replica
// per round, with deaths handled (fail-over, park, close) as they occur.
// Returns OutBlocked while any replica can still serve, OutTrapped once
// every replica's breaker is open (or a boot failed).
func (f *Fleet) Slice(budget int64) interp.Outcome {
	if budget <= 0 {
		budget = 2_000_000
	}
	f.compact()
	for {
		progress := false
		f.refreshHealth()
		if f.bootDue() {
			progress = true
		}
		if f.err != nil || f.allBroken() {
			return interp.Outcome{Kind: interp.OutTrapped, Code: f.lastTrap}
		}
		if f.pump() {
			progress = true
		}
		limited := false
		for _, rep := range f.reps {
			if !rep.live() {
				continue
			}
			out := rep.be.Exec.Run(budget)
			if delta := rep.be.Exec.Cycles() - rep.lastCycles; delta > 0 {
				rep.lastCycles = rep.be.Exec.Cycles()
				rep.sup.Advance(delta)
			}
			if rep.sup.Clock() > f.wall {
				f.wall = rep.sup.Clock()
			}
			switch out.Kind {
			case interp.OutTrapped:
				f.lastTrap = out.Code
				f.replicaDied(rep, "trapped", fmt.Sprintf("code=%d", out.Code))
				progress = true
			case interp.OutExited:
				f.replicaDied(rep, "exited", fmt.Sprintf("code=%d", out.Code))
				progress = true
			case interp.OutStepLimit:
				limited = true
			}
		}
		// Idle catch-up: live replicas that ran less than the round's
		// leader still experienced the time — aligning their campaign
		// clocks with the wall keeps backoff windows and drain decay on
		// one shared time domain.
		for _, rep := range f.reps {
			if !rep.live() {
				continue
			}
			if gap := f.wall - rep.sup.Clock(); gap > 0 {
				rep.sup.Advance(gap)
			}
		}
		if f.pump() {
			progress = true
		}
		if limited || !progress {
			break
		}
	}
	return interp.Outcome{Kind: interp.OutBlocked}
}

// compact drops retired vconns once they dominate the table, keeping pump
// linear in live connections across a long churny campaign.
func (f *Fleet) compact() {
	if len(f.conns) < 64 {
		return
	}
	live := 0
	for _, vc := range f.conns {
		if !vc.closed {
			live++
		}
	}
	if live*2 >= len(f.conns) {
		return
	}
	kept := f.conns[:0]
	for _, vc := range f.conns {
		if !vc.closed {
			kept = append(kept, vc)
		}
	}
	f.conns = kept
}

// --- workload.TraceSink --------------------------------------------------

// ReqDone records a validated (ok) or rejected (!ok) response and reports
// whether recovery machinery — on any incarnation of any replica, or the
// balancer's own fail-over path — touched the request.
func (f *Fleet) ReqDone(trace int64, ok bool) bool {
	f.stats.ReqsDone++
	detail := "ok"
	if !ok {
		detail = "bad"
	}
	f.spans.Append(obsv.SpanEvent{Cycles: f.wall, Trace: trace, Kind: obsv.SpanReqDone, Detail: detail})
	return f.wasTouched(trace)
}

// ReqLost records a traced request that can never complete.
func (f *Fleet) ReqLost(trace int64, cause string) {
	f.stats.ReqsLost++
	f.spans.Append(obsv.SpanEvent{Cycles: f.wall, Trace: trace, Kind: obsv.SpanReqLost, Cause: cause})
}

// wasTouched consults the balancer's own touch set (handoffs, harvested
// incarnations) and every live runtime.
func (f *Fleet) wasTouched(trace int64) bool {
	if f.touched[trace] {
		return true
	}
	for _, rep := range f.reps {
		if rep.be != nil && rep.be.RT != nil && rep.be.RT.WasTouched(trace) {
			return true
		}
	}
	return false
}

// --- health and boot -----------------------------------------------------

func (f *Fleet) allBroken() bool {
	for _, rep := range f.reps {
		if rep.state != repBroken {
			return false
		}
	}
	return true
}

func (f *Fleet) anyUp() bool {
	for _, rep := range f.reps {
		if rep.state == repUp {
			return true
		}
	}
	return false
}

// refreshHealth applies the ladder's health signals: a replica whose
// breaker window occupancy reached drainWindow drains (one more death
// would open its breaker); occupancy decaying below the threshold ends
// the drain; a drain past its deadline forces the remaining conns off.
func (f *Fleet) refreshHealth() {
	for _, rep := range f.reps {
		switch rep.state {
		case repUp:
			if f.cfg.Replicas > 1 && rep.sup.WindowOccupancy() >= f.drainWindow {
				rep.state = repDraining
				rep.drainStart = f.wall
				f.stats.DrainsStarted++
			}
		case repDraining:
			if rep.sup.WindowOccupancy() < f.drainWindow {
				rep.state = repUp
				rep.drainStart = 0
			} else if f.wall-rep.drainStart >= drainCycles {
				f.expireDrain(rep)
			}
		}
	}
}

// bootDue boots every down replica whose backoff the shared clock has
// served (in id order). When nothing is live the wall fast-forwards to
// the earliest due reboot — idle time with no replica serving.
func (f *Fleet) bootDue() bool {
	booted := false
	for f.err == nil {
		due := -1
		for _, rep := range f.reps {
			if rep.state == repDown && rep.rebootAt <= f.wall {
				due = rep.id
				break
			}
		}
		if due < 0 {
			live := false
			for _, rep := range f.reps {
				if rep.live() {
					live = true
					break
				}
			}
			if !live {
				for _, rep := range f.reps {
					if rep.state != repDown {
						continue
					}
					if due < 0 || rep.rebootAt < f.reps[due].rebootAt {
						due = rep.id
					}
				}
				if due >= 0 {
					f.wall = f.reps[due].rebootAt
				}
			}
		}
		if due < 0 {
			break
		}
		f.bootReplica(f.reps[due])
		booted = true
	}
	return booted
}

// bootReplica boots the next incarnation of a down replica. The boot is
// charged on the replica's own clock only — replicas boot concurrently in
// wall time (the wall is the max, not the sum), and the end-of-round idle
// catch-up rejoins any laggard with the shared time domain.
func (f *Fleet) bootReplica(rep *replica) {
	inc, seed := rep.sup.BeginIncarnation()
	rep.bootClock = rep.sup.Clock()
	be, err := f.boot(rep.id, inc, seed)
	if err != nil {
		f.err = fmt.Errorf("fleet: replica %d incarnation %d: %w", rep.id, inc, err)
		rep.state = repBroken
		return
	}
	be.OS.SetQueuePool(&f.backs)
	rep.be = be
	rep.inc = inc
	rep.lastCycles = be.Exec.Cycles() // startup-to-quiesce cycles
	rep.sup.Advance(rep.lastCycles)
	if rep.sup.Clock() > f.wall {
		f.wall = rep.sup.Clock()
	}
	rep.state = repUp
	rep.drainStart = 0
	f.stats.Boots++
	f.spans.Append(obsv.SpanEvent{
		Cycles:  rep.sup.Clock(),
		Replica: rep.id + 1,
		Inc:     inc + 1,
		Kind:    obsv.SpanReplicaUp,
		Detail:  fmt.Sprintf("seed=%d", seed),
	})
}

// --- connection plumbing -------------------------------------------------

// pick selects the next up replica round-robin for a new assignment,
// or -1 when none is assignable. Draining, down and broken replicas
// never receive new work.
func (f *Fleet) pick() int {
	n := len(f.reps)
	for k := 0; k < n; k++ {
		i := (f.rr + k) % n
		if f.reps[i].state == repUp {
			f.rr = i + 1
			return i
		}
	}
	return -1
}

// attach connects vc into replica t. When the attachment completes a
// migration (handoffCause set by migrate) it emits the handoff span —
// carrying the trace ID only if the request already started somewhere,
// so the span never references a trace with no req-start.
func (f *Fleet) attach(vc *vconn, t int) bool {
	back := f.reps[t].be.OS.Connect(f.cfg.Port)
	if back == nil {
		return false // listener backlog full; retried on a later pump
	}
	vc.back = back
	vc.rep = t
	vc.fwd = 0
	if vc.handoffCause != "" {
		f.stats.Handoffs++
		switch vc.handoffCause {
		case CauseFailover:
			f.stats.Failovers++
		case CauseDrain:
			f.stats.Drains++
		case CauseDrainExpired:
			f.stats.DrainExpired++
		}
		var tr int64
		if vc.started {
			tr = vc.trace
		}
		f.spans.Append(obsv.SpanEvent{
			Cycles:  f.wall,
			Replica: t + 1,
			Inc:     f.reps[t].inc + 1,
			Trace:   tr,
			Kind:    obsv.SpanHandoff,
			Cause:   vc.handoffCause,
			Detail:  fmt.Sprintf("conn=%d from=%d", vc.id, vc.from+1),
		})
		vc.handoffCause = ""
	}
	return true
}

// migrate detaches vc from its replica for the given cause and tries to
// place it immediately; with no assignable replica it parks until one
// boots. A request that had already been (partially) delivered to the old
// back counts as touched by recovery — its completion went through the
// fail-over machinery.
func (f *Fleet) migrate(vc *vconn, cause string) {
	if vc.trace != 0 && vc.fwd > 0 {
		f.touched[vc.trace] = true
	}
	vc.from = vc.rep
	vc.rep = -1
	vc.back = nil
	vc.fwd = 0
	vc.handoffCause = cause
	if t := f.pick(); t < 0 || !f.attach(vc, t) {
		f.stats.Parked++
	}
}

// release retires a vconn. The balancer is done with both halves, so it
// closes its end of each: the front's server end (a client still there
// observes ServerClosed and reconnects), and the back's client
// end once the back's server has closed. A conn closed at both ends
// hands its queue storage back to its pool (the fleet's for the front,
// the replica OS's for the back). A back whose server is still open (a
// drain expiring mid-response) is left open, as before: closing it
// would show the replica an EOF it never saw.
func (f *Fleet) release(vc *vconn) {
	if vc.back != nil && vc.back.ServerClosed() {
		vc.back.ClientClose()
	}
	vc.front.CloseServer()
	vc.rep = -1
	vc.back = nil
	vc.closed = true
	f.stats.ConnsClosed++
}

// drainBack forwards everything the back's server has written toward the
// client. The first response byte of a request moves the conn to the
// idle phase: from here a replay would duplicate response bytes, so the
// conn is no longer fail-over capable until the next request.
func (f *Fleet) drainBack(vc *vconn) bool {
	if vc.back == nil {
		return false
	}
	if vc.back.ForwardOut(vc.front) == 0 {
		return false
	}
	vc.phase = phaseIdle
	return true
}

// pump moves bytes through every live vconn: client hangs and server
// closes propagate, new request bytes are buffered (and drain-boundary
// moves happen), parked conns retry attachment, buffered requests flush
// to the back, and responses flow to the front. Reports whether anything
// changed — the Slice progress signal.
func (f *Fleet) pump() bool {
	progress := false
	for _, vc := range f.conns {
		if vc.closed {
			continue
		}
		vc.refreshStarted()
		if vc.started {
			// Mirror the back-end promotion onto the client-facing front:
			// a pipelining client gates its next traced request on the
			// server having started this one, and the front is the only
			// endpoint it can observe.
			vc.front.PromoteTrace(vc.trace)
		}

		// Client gone (FIN or RST): propagate and drop — a conn whose
		// client left is never failed over.
		if vc.front.ClientGone() {
			if vc.back != nil {
				if vc.front.ClientResetSeen() {
					vc.back.ClientReset()
				} else {
					vc.back.ClientClose()
				}
			}
			f.release(vc)
			progress = true
			continue
		}

		// Back closed by the server (request shed, app-level close):
		// forward any final bytes, then propagate the close.
		if vc.back != nil && vc.back.ServerClosed() {
			if f.drainBack(vc) {
				progress = true
			}
			f.release(vc)
			progress = true
			continue
		}

		// Buffer new client bytes; a trace stamp (or an idle phase) marks
		// a request boundary and resets the replay buffer.
		if data, tr := vc.front.ProxyTake(); len(data) > 0 {
			if tr != 0 || vc.phase == phaseIdle {
				vc.inflight = vc.inflight[:0]
				vc.fwd = 0
				vc.trace = tr
				vc.started = false
				vc.phase = phaseRequest
			}
			vc.inflight = append(vc.inflight, data...)
			progress = true
		}

		// Drain boundary: a fresh request on a draining replica moves to a
		// healthy one before any bytes reach the old back — but only when
		// a healthy one exists; with no peer up the draining replica keeps
		// serving (degraded beats stalled).
		if vc.rep >= 0 && f.reps[vc.rep].state == repDraining &&
			vc.phase == phaseRequest && vc.fwd == 0 && f.anyUp() {
			f.migrate(vc, CauseDrain)
		}

		// Parked (no assignable replica at detach time): retry.
		if vc.rep < 0 {
			t := f.pick()
			if t < 0 || !f.attach(vc, t) {
				continue
			}
			progress = true
		}

		// Flush the request to the back. A replay of a request the old
		// server never started is re-stamped with the trace so the new
		// server's first read still fires the one req-start; a started
		// request replays untraced (its req-start already happened).
		if vc.fwd < len(vc.inflight) {
			chunk := vc.inflight[vc.fwd:]
			if vc.fwd == 0 && vc.trace != 0 && !vc.started {
				vc.back.ClientDeliverTraced(chunk, vc.trace)
			} else {
				vc.back.ClientDeliver(chunk)
			}
			vc.fwd = len(vc.inflight)
			progress = true
		}

		if f.drainBack(vc) {
			progress = true
		}
	}
	return progress
}

// --- death, drain expiry, harvest ---------------------------------------

// evacuate disposes of every connection on rep: a conn already shed by
// its server propagates its close (never replayed — the request was
// deliberately dropped); a conn whose request has not begun answering
// migrates for cause with its buffered request; everything else closes
// toward the client and counts as lost.
func (f *Fleet) evacuate(rep *replica, cause string) (lost int) {
	for _, vc := range f.conns {
		if vc.closed || vc.rep != rep.id {
			continue
		}
		vc.refreshStarted()
		if vc.back.ServerClosed() {
			f.drainBack(vc)
			f.release(vc)
			continue
		}
		f.drainBack(vc)
		if vc.phase == phaseRequest {
			f.migrate(vc, cause)
		} else {
			f.release(vc)
			lost++
		}
	}
	return lost
}

// replicaDied harvests the dead incarnation and evacuates its
// connections, failing over the unanswered ones. The loss count feeds
// the supervisor's RecordDeath, whose backoff decides the replica's
// reboot point (or opens its breaker).
func (f *Fleet) replicaDied(rep *replica, cause, detail string) {
	now := rep.sup.Clock()
	f.harvest(rep)
	// Not assignable from here on: the fail-over picks below must never
	// land a connection back on the replica that is dying.
	rep.state = repDown
	lost := f.evacuate(rep, CauseFailover)
	f.stats.Deaths++
	f.stats.ConnsLost += lost
	backoff, open := rep.sup.RecordDeath(rep.inc, lost)
	f.spans.Append(obsv.SpanEvent{
		Cycles:  now,
		Replica: rep.id + 1,
		Inc:     rep.inc + 1,
		Kind:    obsv.SpanReplicaDown,
		Cause:   cause,
		Detail:  fmt.Sprintf("%s conns_lost=%d", detail, lost),
	})
	rep.be = nil
	if open {
		rep.state = repBroken
		f.stats.BreakersOpen++
	} else {
		rep.state = repDown
		rep.rebootAt = now + backoff
	}
}

// expireDrain forces the remaining conns off a replica whose drain
// deadline passed: unanswered requests replay elsewhere, conns
// mid-response close (the client reconnects). With no healthy peer the
// deadline extends instead — a drain cannot complete into nowhere.
func (f *Fleet) expireDrain(rep *replica) {
	if !f.anyUp() {
		rep.drainStart = f.wall
		return
	}
	f.evacuate(rep, CauseDrainExpired)
	rep.drainStart = f.wall
}

// harvest folds a finished (or dying) incarnation's runtime accounting
// into the fleet: stats, recovery-touched traces, published metrics
// (labelled by replica), and its span log. The fleet keeps the log
// itself (the runtime is finished, so it no longer changes) and Finish
// copies it once, rebased from incarnation-local cycles onto the
// campaign clock and stamped with the replica and incarnation that
// produced it.
func (f *Fleet) harvest(rep *replica) {
	be := rep.be
	if be == nil {
		return
	}
	f.stepsDone += be.Exec.Steps()
	if be.RT == nil {
		return
	}
	st := be.RT.Stats()
	core.AddTotals(&f.stats.Runtime, &st)
	for _, tr := range be.RT.TouchedTraces() {
		f.touched[tr] = true
	}
	f.harvests = append(f.harvests, obsv.Piece{
		Log: be.RT.SpanLog(), Clock: rep.bootClock, Replica: rep.id + 1, Inc: rep.inc + 1,
	})
	f.stats.Dropped += be.RT.TraceDropped()
	be.RT.PublishMetrics(f.reg, obsv.L("replica", strconv.Itoa(rep.id+1)))
}

// Finish ends the campaign after the driver's run: live incarnations are
// harvested and their supervisors marked done, per-replica supervisor
// metrics and spans land, the fleet.* counters publish, and the merged
// span log is frozen in non-decreasing cycle order: the harvested logs,
// each supervisor's log after its replica's, and the balancer's own log
// are assembled in one pass into one exactly-sized slice and sorted in
// place.
func (f *Fleet) Finish() {
	if f.finished {
		return
	}
	f.finished = true
	for _, rep := range f.reps {
		if rep.be != nil {
			f.harvest(rep)
			rep.sup.Finish()
			rep.be = nil
		}
		rep.sup.PublishMetrics(f.reg, obsv.L("replica", strconv.Itoa(rep.id+1)))
		f.harvests = append(f.harvests, obsv.Piece{Log: rep.sup.SpanLog(), Replica: rep.id + 1})
	}
	f.harvests = append(f.harvests, obsv.Piece{Log: &f.spans})
	f.merged = obsv.Assemble(f.harvests...)
	obsv.Merge(f.merged)
	f.harvests = nil
	f.stats.Dropped += f.spans.Dropped()
	Metrics.Publish(f.reg, &f.stats)
}
