// Package firestarter is a Go reproduction of "FIRestarter: Practical
// Software Crash Recovery with Targeted Library-level Fault Injection"
// (Bhat, van der Kouwe, Bos, Giuffrida — DSN 2021).
//
// FIRestarter hardens event-driven servers against fail-stop crashes: it
// splits execution into crash transactions bounded by library calls,
// checkpoints them with hybrid hardware/software transactional memory, and
// — when a crash proves persistent — rolls back, runs a compensation
// action for the preceding library call, and injects that call's
// documented error return so the application's own error-handling code
// steers around the faulty region.
//
// Because Go's runtime precludes a literal port (no libc interposition, no
// raw checkpoint/rollback under a moving GC, no Intel TSX), this library
// implements the complete system one level down: programs are written in a
// miniature C dialect, compiled to an IR, transformed by the same four
// passes the paper describes, and executed on a simulated process (memory,
// heap, sockets, epoll, filesystem) with a faithful TSX model. See
// DESIGN.md for the substitution map and EXPERIMENTS.md for the
// reproduction of every table and figure.
//
// Quick start:
//
//	prog, err := firestarter.Compile(src)             // mini-C source
//	srv, err := firestarter.NewServer(prog,
//	    firestarter.WithSetup(func(o *firestarter.OS) { o.FS().Add("/www/index.html", body) }))
//	out := srv.Run(0)                                  // runs until exit/block/crash
//	fmt.Println(srv.Stats().Injections)
package firestarter

import (
	"fmt"

	"github.com/firestarter-go/firestarter/internal/analysis"
	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/boot"
	"github.com/firestarter-go/firestarter/internal/core"
	"github.com/firestarter-go/firestarter/internal/faultinj"
	"github.com/firestarter-go/firestarter/internal/htm"
	"github.com/firestarter-go/firestarter/internal/interp"
	"github.com/firestarter-go/firestarter/internal/ir"
	"github.com/firestarter-go/firestarter/internal/libmodel"
	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/minic"
	"github.com/firestarter-go/firestarter/internal/workload"
)

// Re-exported building blocks. Aliases keep the public surface small
// while giving examples and downstream code access to the full machinery.
type (
	// OS is the simulated operating system a server runs against.
	OS = libsim.OS
	// Conn is one simulated client connection (drive with ClientDeliver
	// and ClientTake).
	Conn = libsim.Conn
	// Stats aggregates the recovery runtime's counters.
	Stats = core.Stats
	// HTMStats aggregates the hardware-transaction model's counters.
	HTMStats = htm.Stats
	// Mode selects the protection scheme.
	Mode = core.Mode
	// Outcome reports why a Run returned.
	Outcome = interp.Outcome
	// App is a built-in server application (Nginx/Apache/... analogs).
	App = apps.App
	// Fault is one plantable software fault.
	Fault = faultinj.Fault
	// FaultKind is a fault type (fail-stop or a fail-silent corruption).
	FaultKind = faultinj.Kind
	// WorkloadResult summarizes a driven client workload.
	WorkloadResult = workload.Result
	// Generator produces and validates protocol traffic.
	Generator = workload.Generator
)

// Protection modes.
const (
	ModeHybrid  = core.ModeHybrid
	ModeHTMOnly = core.ModeHTMOnly
	ModeSTMOnly = core.ModeSTMOnly
)

// Fault kinds.
const (
	FailStop      = faultinj.FailStop
	FlipBranch    = faultinj.FlipBranch
	CorruptConst  = faultinj.CorruptConst
	WrongOperator = faultinj.WrongOperator
	OffByOne      = faultinj.OffByOne
)

// Run outcome kinds.
const (
	OutExited    = interp.OutExited
	OutTrapped   = interp.OutTrapped
	OutBlocked   = interp.OutBlocked
	OutStepLimit = interp.OutStepLimit
)

// Program is a compiled (but not yet instrumented) application.
type Program struct {
	ir *ir.Program
}

// Compile translates mini-C source into a program.
func Compile(source string) (*Program, error) {
	p, err := minic.Compile(source, minic.Config{KnownLib: libsim.Known})
	if err != nil {
		return nil, err
	}
	return &Program{ir: p}, nil
}

// MustCompile is Compile for known-good sources (panics on error).
func MustCompile(source string) *Program {
	p, err := Compile(source)
	if err != nil {
		panic(err)
	}
	return p
}

// IR exposes the program's intermediate representation (inspection,
// fault planting).
func (p *Program) IR() *ir.Program { return p.ir }

// InstrCount returns the program's instruction count (code size metric).
func (p *Program) InstrCount() int { return p.ir.InstrCount() }

// Builtin returns a built-in server application by name: "nginx",
// "apache", "lighttpd", "redis" or "postgres".
func Builtin(name string) (*App, error) {
	a := apps.ByName(name)
	if a == nil {
		return nil, fmt.Errorf("firestarter: no built-in app %q", name)
	}
	return a, nil
}

// BuiltinApps returns all five built-in server analogs.
func BuiltinApps() []*App { return apps.All() }

// options collects functional-option state.
type options struct {
	cfg     core.Config
	setup   func(*OS)
	vanilla bool
	fault   *Fault
	model   *libmodel.Model
}

// Option configures NewServer.
type Option func(*options)

// WithMode selects the protection scheme (default ModeHybrid).
func WithMode(m Mode) Option {
	return func(o *options) { o.cfg.Mode = m }
}

// WithThreshold sets the HTM abort-rate threshold θ (default 1%).
func WithThreshold(t float64) Option {
	return func(o *options) { o.cfg.Threshold = t }
}

// WithSampleSize sets the adaptive policy's accounting sample size S.
func WithSampleSize(s int64) Option {
	return func(o *options) { o.cfg.SampleSize = s }
}

// WithRetries sets how many rollback-and-re-execute attempts precede the
// persistent-fault diagnosis (default 1).
func WithRetries(n int) Option {
	return func(o *options) { o.cfg.RetryTransient = n }
}

// WithStickyDivert keeps gates permanently diverted after an injection.
func WithStickyDivert() Option {
	return func(o *options) { o.cfg.StickyDivert = true }
}

// WithInterrupts enables the modelled asynchronous-abort process with the
// given mean instruction gap and seed.
func WithInterrupts(meanGap float64, seed int64) Option {
	return func(o *options) {
		o.cfg.HTM.MeanInstrsPerInterrupt = meanGap
		o.cfg.HTM.Seed = seed
	}
}

// WithSetup registers a hook preparing the simulated OS (document root,
// data files) before the program boots.
func WithSetup(f func(*OS)) Option {
	return func(o *options) { o.setup = f }
}

// WithMaskedWrites enables the paper's proposed §V-A extension: socket
// write/send become recoverable (their network-visible effect is
// retracted on rollback and an EPIPE is injected), enlarging the recovery
// surface at the cost of occasionally surfacing a broken connection to
// the client.
func WithMaskedWrites() Option {
	return func(o *options) { o.model = libmodel.DefaultMasked() }
}

// WithoutProtection runs the vanilla program with no instrumentation (the
// benchmark baseline).
func WithoutProtection() Option {
	return func(o *options) { o.vanilla = true }
}

// WithFault plants a software fault into the program before hardening
// (the paper's methodology: the bug ships in the source; FIRestarter's
// instrumentation is applied on top).
func WithFault(f Fault) Option {
	return func(o *options) { o.fault = &f }
}

// Server is a runnable (optionally hardened) application instance.
type Server struct {
	os *libsim.OS
	m  *interp.Machine
	rt *core.Runtime // nil when unprotected
}

// NewServer boots a program: by default it is hardened with the full
// FIRestarter pipeline; see WithoutProtection and WithMode for baselines.
func NewServer(p *Program, opts ...Option) (*Server, error) {
	return newServer(p.ir, nil, opts)
}

// NewAppServer boots a built-in application (its Setup hook runs
// automatically, before any WithSetup hook).
func NewAppServer(app *App, opts ...Option) (*Server, error) {
	prog, err := app.Compile()
	if err != nil {
		return nil, err
	}
	return newServer(prog, app.Setup, opts)
}

// newServer evaluates the options once and boots prog, running appSetup
// (if any) before the caller's WithSetup hook.
func newServer(prog *ir.Program, appSetup func(*OS), opts []Option) (*Server, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	setup := o.setup
	if appSetup != nil {
		setup = func(os *OS) {
			appSetup(os)
			if o.setup != nil {
				o.setup(os)
			}
		}
	}
	inst, err := boot.Program(prog, setup, boot.Options{
		Vanilla: o.vanilla, Core: o.cfg, Fault: o.fault, Model: o.model,
	})
	if err != nil {
		return nil, err
	}
	return &Server{os: inst.OS, m: inst.M, rt: inst.RT}, nil
}

// Run executes up to maxSteps instructions (0 = unbounded) and reports
// why execution stopped: OutBlocked means the server is waiting for
// client input.
func (s *Server) Run(maxSteps int64) Outcome { return s.m.Run(maxSteps) }

// Connect opens a simulated client connection to the given port (the
// server must have bound it — run the server until it blocks first).
func (s *Server) Connect(port int64) *Conn { return s.os.Connect(port) }

// OS exposes the simulated operating system (filesystem, heap, clock).
func (s *Server) OS() *OS { return s.os }

// Stdout returns everything the program logged.
func (s *Server) Stdout() string { return s.os.Stdout() }

// Cycles returns the cost-model time consumed so far.
func (s *Server) Cycles() int64 { return s.m.Cycles }

// ExitCode returns the exit code once the program has exited.
func (s *Server) ExitCode() int64 { return s.m.ExitCode() }

// Protected reports whether the server runs under the recovery runtime.
func (s *Server) Protected() bool { return s.rt != nil }

// Stats returns the recovery runtime's counters (zero value when
// unprotected).
func (s *Server) Stats() Stats {
	if s.rt == nil {
		return Stats{}
	}
	return s.rt.Stats()
}

// HTMStats returns the hardware model's counters (zero when unprotected).
func (s *Server) HTMStats() HTMStats {
	if s.rt == nil {
		return HTMStats{}
	}
	return s.rt.HTMStats()
}

// Runtime exposes the recovery runtime for advanced inspection (nil when
// unprotected).
func (s *Server) Runtime() *core.Runtime { return s.rt }

// Machine exposes the underlying interpreter (profiling hooks).
func (s *Server) Machine() *interp.Machine { return s.m }

// DriveWorkload runs a standard protocol workload ("http", "redis",
// "sql") against the server and returns throughput/validity results.
func (s *Server) DriveWorkload(proto string, port int64, requests, concurrency int, seed int64) WorkloadResult {
	d := &workload.Driver{
		OS: s.os, M: s.m, Port: port,
		Gen:         workload.ForProtocol(proto),
		Concurrency: concurrency,
		Seed:        seed,
	}
	return d.Run(requests)
}

// AnalyzeSites runs the Library Interface Analyzer over a program and
// returns per-role site counts (gates, embedded, breaks) — the static
// recovery-surface view.
func AnalyzeSites(p *Program) (gates, embeds, breaks int) {
	res := analysis.Analyze(p.ir.Clone(), libmodel.Default())
	return res.Counts()
}

// FaultInBlockCalling returns a fail-stop fault planted at the start of
// the first basic block of `function` that contains a call to `libcall` —
// the targeted placement used by the paper's §VI-F case studies (the crash
// lands in the code region following that library call, so recovery
// diverts execution by injecting an error into it).
func FaultInBlockCalling(app *App, function, libcall string) (Fault, error) {
	prog, err := app.Compile()
	if err != nil {
		return Fault{}, err
	}
	f, err := faultinj.AtLibCall(prog, function, libcall, 1)
	if err != nil {
		return Fault{}, fmt.Errorf("firestarter: %s: %w", app.Name, err)
	}
	return f, nil
}

// PlanFaults profiles an app under its standard workload and plans up to
// max faults of the given kind in non-critical executed blocks (one fault
// per experiment, the paper's §VI-B methodology).
func PlanFaults(app *App, kind FaultKind, max int, seed int64) ([]Fault, error) {
	return boot.PlanFaults(app, kind, max, 120, 4, seed, "")
}
