// Package interp executes IR programs against the simulated address space
// and operating system.
//
// The machine is resumable: Run executes until the program exits, traps
// fatally, blocks on I/O (epoll_wait with nothing ready), or exhausts a
// step budget. The workload driver interleaves with the machine by feeding
// client bytes between Run calls.
//
// All events FIRestarter cares about are delegated to a Runtime
// implementation: library calls, transaction begin/commit, transactional
// stores, gate dispatch, instruction accounting (for the modelled HTM
// interrupt process) and trap handling. The no-op Direct runtime runs
// uninstrumented programs; package core provides the full recovery runtime.
//
// The machine also maintains a cycle count — a simple deterministic cost
// model (one cycle per simple instruction, two per memory access, plus
// documented surcharges for instrumentation) used as the performance metric
// of the benchmark harness, so results are reproducible and host-
// independent.
package interp

import (
	"errors"
	"fmt"

	"github.com/firestarter-go/firestarter/internal/ir"
	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/mem"
)

// Cycle costs of the performance model. Simple ALU ops cost one cycle;
// memory accesses two. The instrumentation surcharges (undo logging,
// transaction begin/commit) are charged by the runtime, not here.
const (
	CostSimple  = 1
	CostMem     = 2
	CostCall    = 4
	CostLibBase = 30 // syscall/library-call entry overhead
)

// Trap describes a fail-stop crash.
type Trap struct {
	Code int64 // one of the ir.Trap* codes
	Addr int64 // faulting address for TrapBadAccess
	PC   string
}

// Error implements error.
func (t *Trap) Error() string {
	return fmt.Sprintf("trap %d at %s (addr %#x)", t.Code, t.PC, t.Addr)
}

// Action tells the machine how to proceed after the runtime handled an
// execution event (trap, transaction abort, blocked call).
type Action int

// Actions returned by Runtime.Handle.
const (
	// ActionContinue resumes execution at the machine's (possibly
	// restored) current position.
	ActionContinue Action = iota + 1
	// ActionBlock makes Run return with OutBlocked; the faulting
	// instruction will re-execute on resume.
	ActionBlock
	// ActionDie makes Run return with OutTrapped: the crash was not
	// recoverable.
	ActionDie
)

// Runtime is the recovery layer's interface to the machine.
type Runtime interface {
	// LibCall executes a library call. site is the call site's ID (zero
	// for sites the Library Interface Analyzer did not mark as
	// transaction boundaries). args is a per-machine scratch buffer valid
	// only for the duration of the call: implementations that retain
	// argument values past their return must copy them.
	LibCall(m *Machine, name string, args []int64, site int) (int64, error)

	// Gate dispatches a transaction entry gate: it decides the variant
	// (ir.TxHTM or ir.TxSTM) to execute, and whether to inject a fault
	// into the preceding library call (inject=true, with the register
	// value to install). The machine passes a state snapshot positioned
	// at the gate, which the runtime keeps for rollback. The snapshot is
	// machine-owned and refilled in place at every gate: it is valid until
	// this machine's next gate. A runtime that must keep a snapshot longer
	// takes its own with Machine.Snapshot.
	Gate(m *Machine, site int, snap *Snapshot) (variant int64, inject bool, injectVal int64)

	// TxBegin activates the transaction chosen by the gate.
	TxBegin(m *Machine, site int, variant int64) error

	// TxEnd commits the active transaction (no-op when none is active).
	TxEnd(m *Machine) error

	// Store performs a store, routed through the active transaction.
	// stmInstrumented marks OpStmStore instructions (undo-logged).
	Store(m *Machine, addr, val int64, width int, stmInstrumented bool) error

	// Load performs a load. Under a hardware transaction in a conflict
	// domain the touched lines join the read set (other threads' stores
	// to them abort us); otherwise it is a plain memory load. The cost
	// model charge (CostMem) stays with the machine, so routing loads
	// through the runtime leaves single-threaded cycle counts untouched.
	Load(m *Machine, addr int64, width int) (int64, error)

	// RegSave is the STM register-save hook (setjmp analog). The HTM
	// variant's hardware saves registers for free, so the runtime only
	// charges work in STM mode.
	RegSave(m *Machine)

	// Tick retires n instructions: drives the HTM interrupt model.
	Tick(m *Machine, n int64) error

	// Handle reacts to an execution event: a trap (as *Trap), a
	// transaction abort, a blocked library call, or heap corruption.
	// When it returns ActionContinue the machine state must have been
	// restored to a consistent resume point.
	Handle(m *Machine, err error) Action

	// Variant returns the transaction variant currently in effect,
	// used by the call/return flow switches. Zero means none (run the
	// HTM clone, whose uninstrumented stores are direct).
	Variant() int64
}

// Profiler receives the machine's call-flow events, timestamped with the
// cost-model cycle and step counters. A profiler observes — it must not
// mutate machine state, and the machine charges no extra cycles for it.
// *obsv.Profile is the standard implementation; the hooks cost a single
// nil-check when no profiler is attached.
type Profiler interface {
	// Enter fires after a frame for fn was pushed.
	Enter(fn string, cycles, steps int64)
	// Exit fires after a frame was popped by a return.
	Exit(cycles, steps int64)
	// Lib fires after a library call completed (or failed). startCycles is
	// the cycle count sampled before the call's base cost was charged.
	Lib(name string, site int, startCycles, cycles, steps int64)
	// Sync fires when the stack changed wholesale (snapshot restore,
	// profiler attach). stack holds the frame function names, bottom
	// first; the slice is reused and only valid during the call.
	Sync(stack []string, cycles, steps int64)
}

// Frame is one call-stack entry.
type Frame struct {
	Fn   *ir.Func
	Blk  int
	Idx  int
	Regs []int64
	FP   int64
	// RetDst is the caller register receiving the return value (-1 to
	// discard); meaningless for the bottom frame.
	RetDst int
}

// Snapshot captures resumable machine state for rollback.
type Snapshot struct {
	frames []Frame
	sp     int64
	// regs is the backing array every frame's register copy slices into.
	regs []int64
}

// OutcomeKind classifies why Run returned.
type OutcomeKind int

// Outcome kinds.
const (
	OutExited OutcomeKind = iota + 1
	OutTrapped
	OutBlocked
	OutStepLimit
	OutWatch
)

func (k OutcomeKind) String() string {
	switch k {
	case OutExited:
		return "exited"
	case OutTrapped:
		return "trapped"
	case OutBlocked:
		return "blocked"
	case OutStepLimit:
		return "step-limit"
	case OutWatch:
		return "watch"
	default:
		return fmt.Sprintf("outcome(%d)", int(k))
	}
}

// Outcome is the result of a Run call.
type Outcome struct {
	Kind OutcomeKind
	Code int64 // exit code (OutExited) or trap code (OutTrapped)
	Trap *Trap // populated for OutTrapped
}

// Machine executes one program.
type Machine struct {
	Prog  *ir.Program
	Space *mem.Space
	OS    *libsim.OS
	RT    Runtime

	frames []Frame
	sp     int64

	// stackTop/stackLimit bound this machine's stack region. The main
	// machine owns [StackTop-StackBytes, StackTop); threads created by
	// NewThread get their own smaller regions below mem.StackLimit.
	stackTop   int64
	stackLimit int64

	// Cycles is the accumulated cost-model time; Steps counts executed
	// instructions.
	Cycles int64
	Steps  int64

	// BlockHook, when non-nil, is invoked on every basic-block entry
	// (used by the fault injector's execution profiling).
	BlockHook func(fn string, block int)

	exited   bool
	exitCode int64

	// lib is the library ID (ir.Instr.Lib) of the last OpLib executed:
	// during Runtime.LibCall, the call in progress.
	lib libsim.FuncID

	// argbuf is the scratch arena for marshalling OpCall/OpLib arguments;
	// it is reused across instructions so the hot path never allocates.
	// Safe because push copies the values into the callee frame and the
	// Runtime.LibCall contract forbids retaining the slice.
	argbuf []int64

	// regPool recycles register slices of popped frames. Slices in the
	// pool are exclusively machine-owned: Snapshot deep-copies frame
	// registers, and doReturn/Restore nil out the frame slots they pop so
	// no stale Frame struct can alias a pooled slice.
	regPool [][]int64

	// gateSnap is the snapshot doGate refills at every gate and hands to
	// Runtime.Gate; its frames slice and register backing array are
	// reused, so gates allocate nothing once they have grown to the
	// deepest gated stack. Never returned by Snapshot.
	gateSnap Snapshot

	// prof, when non-nil, observes call flow for the guest profiler;
	// profNames is its reused stack-name scratch buffer.
	prof      Profiler
	profNames []string

	// budget is the remaining step budget of the last limited Run; it is
	// only maintained when Run is given a positive maxSteps (an unlimited
	// run must not count a budget down — it would underflow on very long
	// executions).
	budget int64

	// backend, when non-nil, replaces the tree-walking Run loop (see
	// Backend); it must preserve the tree-walker's observable behaviour
	// bit for bit.
	backend Backend

	// Watchpoint state (record/replay forensics). While a watch is armed
	// Run always takes the tree walker, which checks the condition at
	// every instruction boundary; the first boundary at which
	// Cycles >= watchCycles (or Steps >= watchSteps) disarms the watch,
	// invokes watchFn (if any) with the machine frozen at exactly that
	// boundary, and returns OutWatch. Zero means unarmed.
	watchCycles int64
	watchSteps  int64
	watchFn     func(*Machine)
}

// maxRegPool bounds the number of register slices kept for reuse.
const maxRegPool = 64

// StackBytes is the simulated stack size.
const StackBytes = 512 * 1024

// New loads a program: globals are placed in the data segment, the stack
// is mapped, and a frame for the entry function is pushed. The runtime rt
// may be nil, in which case the Direct runtime is used. The first load of
// a program links it (ir.Program.Link: validation, name resolution and
// global layout); every load after that only reads the program, so one
// linked program may back any number of machines on any goroutines.
func New(prog *ir.Program, os *libsim.OS, rt Runtime) (*Machine, error) {
	if err := Link(prog); err != nil {
		return nil, err
	}
	if rt == nil {
		rt = Direct{}
	}
	m := &Machine{
		Prog:       prog,
		Space:      os.Space,
		OS:         os,
		RT:         rt,
		sp:         mem.StackTop,
		stackTop:   mem.StackTop,
		stackLimit: mem.StackTop - StackBytes,
	}
	for _, g := range prog.Globals {
		if err := m.Space.Map(g.Addr, g.Extent()); err != nil {
			return nil, fmt.Errorf("interp: mapping global %s: %w", g.Name, err)
		}
		if len(g.Data) > 0 {
			if err := m.Space.WriteBytes(g.Addr, g.Data); err != nil {
				return nil, fmt.Errorf("interp: initializing global %s: %w", g.Name, err)
			}
		}
	}
	if err := m.Space.Map(mem.StackTop-StackBytes, StackBytes); err != nil {
		return nil, fmt.Errorf("interp: mapping stack: %w", err)
	}
	entry := prog.Funcs[prog.Entry]
	if entry == nil {
		return nil, fmt.Errorf("interp: entry function %q not found", prog.Entry)
	}
	os.SetCycleSink(&m.Cycles)
	if err := m.push(entry, nil, -1); err != nil {
		return nil, err
	}
	return m, nil
}

// Link links prog for loading at the data segment (ir.Program.Link). New
// links on first load; callers that share a program across goroutines
// link it first, while they still own it.
func Link(prog *ir.Program) error {
	return prog.Link(mem.GlobalBase, func(name string) int32 { return int32(libsim.Lookup(name)) })
}

// ThreadStackBytes is the simulated stack size of a thread created by
// NewThread. Threads run shallow worker loops, so they get smaller stacks
// than the main machine (real pthread stacks are configured the same way).
const ThreadStackBytes = 256 * 1024

// NewThread creates a machine sharing the parent's program, address space,
// OS and globals, with its own stack region and an initial frame for the
// named entry function. slot (>= 1) picks the stack region: thread stacks
// grow down from mem.StackLimit, separated by an unmapped guard page, so a
// thread overflowing its stack traps instead of corrupting a neighbour.
func NewThread(parent *Machine, rt Runtime, fn *ir.Func, args []int64, slot int) (*Machine, error) {
	if slot < 1 {
		return nil, fmt.Errorf("interp: thread stack slot must be >= 1, got %d", slot)
	}
	if rt == nil {
		rt = Direct{}
	}
	top := mem.StackLimit - int64(slot-1)*(ThreadStackBytes+mem.PageSize)
	base := top - ThreadStackBytes
	if base < mem.HeapLimit {
		return nil, fmt.Errorf("interp: thread stack slot %d collides with the heap", slot)
	}
	if err := parent.Space.Map(base, ThreadStackBytes); err != nil {
		return nil, fmt.Errorf("interp: mapping thread stack: %w", err)
	}
	m := &Machine{
		Prog:       parent.Prog,
		Space:      parent.Space,
		OS:         parent.OS,
		RT:         rt,
		sp:         top,
		stackTop:   top,
		stackLimit: base,
		backend:    parent.backend,
	}
	if err := m.push(fn, args, -1); err != nil {
		return nil, err
	}
	return m, nil
}

// GlobalAddr returns the loaded address of a global, 0 for an unknown
// name (tests and tools).
func (m *Machine) GlobalAddr(name string) int64 {
	if g := m.Prog.Global(name); g != nil {
		return g.Addr
	}
	return 0
}

// Exited reports whether the program has terminated.
func (m *Machine) Exited() bool { return m.exited }

// ExitCode returns the program's exit code once Exited.
func (m *Machine) ExitCode() int64 { return m.exitCode }

// Depth returns the current call-stack depth.
func (m *Machine) Depth() int { return len(m.frames) }

// CurrentFunc returns the name of the function executing on top of the
// call stack ("" for an empty stack). The bench harness uses it to verify
// a server blocked at its declared quiesce point before arming request
// shedding.
func (m *Machine) CurrentFunc() string {
	if len(m.frames) == 0 {
		return ""
	}
	return m.frames[len(m.frames)-1].Fn.Name
}

// SetProfiler attaches (or with nil detaches) a call-flow profiler. The
// current stack is synced immediately so attribution starts from here.
func (m *Machine) SetProfiler(p Profiler) {
	m.prof = p
	if p != nil {
		m.syncProfiler()
	}
}

// syncProfiler replays the current stack shape into the profiler.
func (m *Machine) syncProfiler() {
	names := m.profNames[:0]
	for i := range m.frames {
		names = append(names, m.frames[i].Fn.Name)
	}
	m.profNames = names
	m.prof.Sync(names, m.Cycles, m.Steps)
}

// pcString renders the current position for diagnostics.
func (m *Machine) pcString() string {
	if len(m.frames) == 0 {
		return "<no frame>"
	}
	f := &m.frames[len(m.frames)-1]
	return fmt.Sprintf("%s.b%d.%d", f.Fn.Name, f.Blk, f.Idx)
}

// allocRegs returns a zeroed register file of size n, reusing a pooled
// slice from a popped frame when one is large enough.
func (m *Machine) allocRegs(n int) []int64 {
	if k := len(m.regPool); k > 0 {
		regs := m.regPool[k-1]
		m.regPool[k-1] = nil
		m.regPool = m.regPool[:k-1]
		if cap(regs) >= n {
			regs = regs[:n]
			for i := range regs {
				regs[i] = 0
			}
			return regs
		}
	}
	return make([]int64, n)
}

// freeRegs returns a popped frame's register slice to the pool. Callers
// must drop their own reference (the Frame slot) first.
func (m *Machine) freeRegs(regs []int64) {
	if regs != nil && len(m.regPool) < maxRegPool {
		m.regPool = append(m.regPool, regs)
	}
}

// marshalArgs gathers argument registers into the machine's scratch
// arena. The returned slice is valid until the next marshalArgs call:
// push copies it into the callee frame, and Runtime.LibCall
// implementations must copy values they retain.
func (m *Machine) marshalArgs(idx []int, regs []int64) []int64 {
	if cap(m.argbuf) < len(idx) {
		m.argbuf = make([]int64, len(idx))
	}
	args := m.argbuf[:len(idx)]
	for i, a := range idx {
		args[i] = regs[a]
	}
	return args
}

// push enters fn with the given arguments.
func (m *Machine) push(fn *ir.Func, args []int64, retDst int) error {
	newSP := (m.sp - fn.FrameSize) &^ 15
	if newSP < m.stackLimit {
		return &Trap{Code: ir.TrapBadAccess, Addr: newSP, PC: "stack overflow in " + fn.Name}
	}
	if len(args) > fn.NumRegs {
		// A call site passing more arguments than the callee has
		// registers must not silently drop the excess: that executes the
		// callee with a truncated argument list and corrupts the guest in
		// a way no later check catches. Fail-stop instead.
		return &Trap{Code: ir.TrapBadCall, PC: "argument overflow calling " + fn.Name}
	}
	regs := m.allocRegs(fn.NumRegs)
	copy(regs, args)
	entry := 0
	if fn.Cloned && m.RT.Variant() == ir.TxSTM {
		entry = fn.EntrySTM
	} else if fn.Cloned {
		entry = fn.EntryHTM
	}
	m.frames = append(m.frames, Frame{Fn: fn, Blk: entry, Idx: 0, Regs: regs, FP: newSP, RetDst: retDst})
	m.sp = newSP
	if m.prof != nil {
		m.prof.Enter(fn.Name, m.Cycles, m.Steps)
	}
	return nil
}

// Snapshot returns a fresh deep copy of the resumable machine state. It
// stays valid for as long as the caller keeps it: later gates, Restores
// and execution never touch it (the quiesce point, the checkpoint ring and
// replay all retain theirs).
func (m *Machine) Snapshot() *Snapshot {
	s := &Snapshot{}
	m.snapshotInto(s)
	return s
}

// snapshotInto overwrites s with the resumable machine state. All frames'
// register copies share one backing array, s.regs; s's frames slice and
// backing array are reused when large enough, so refilling a snapshot of
// an equal or shallower stack allocates nothing.
func (m *Machine) snapshotInto(s *Snapshot) {
	total := 0
	for i := range m.frames {
		total += len(m.frames[i].Regs)
	}
	if cap(s.regs) < total {
		s.regs = make([]int64, total)
	}
	if cap(s.frames) < len(m.frames) {
		s.frames = make([]Frame, len(m.frames))
	}
	s.sp = m.sp
	s.frames = s.frames[:len(m.frames)]
	off := 0
	for i := range m.frames {
		s.frames[i] = m.frames[i]
		n := len(m.frames[i].Regs)
		dst := s.regs[off : off+n : off+n]
		copy(dst, m.frames[i].Regs)
		s.frames[i].Regs = dst
		off += n
	}
}

// Restore rewinds the machine to a snapshot. The snapshot's frame data is
// copied so the same snapshot can be restored repeatedly; register slices
// of live frames are reused in place (they are exclusively machine-owned).
func (m *Machine) Restore(s *Snapshot) {
	m.sp = s.sp
	n := len(s.frames)
	// Frames above the restored depth release their register files.
	for i := n; i < len(m.frames); i++ {
		m.freeRegs(m.frames[i].Regs)
		m.frames[i] = Frame{}
	}
	if cap(m.frames) >= n {
		m.frames = m.frames[:n]
	} else {
		old := m.frames
		m.frames = make([]Frame, n)
		copy(m.frames, old)
	}
	for i := range s.frames {
		regs := m.frames[i].Regs
		if cap(regs) < len(s.frames[i].Regs) {
			regs = make([]int64, len(s.frames[i].Regs))
		}
		regs = regs[:len(s.frames[i].Regs)]
		copy(regs, s.frames[i].Regs)
		f := s.frames[i]
		f.Regs = regs
		m.frames[i] = f
	}
	if m.prof != nil {
		m.syncProfiler()
	}
}

// Run executes until exit, fatal trap, blocked I/O, or maxSteps
// instructions (0 = no limit). Execution goes through the installed
// backend (SetBackend); the default is the tree-walking interpreter.
// While a watchpoint is armed execution always uses the tree walker:
// backends are bit-identical by contract, so stopping on the reference
// loop observes the same state at the same boundary.
func (m *Machine) Run(maxSteps int64) Outcome {
	if m.backend != nil && !m.WatchArmed() {
		return m.backend.Run(m, maxSteps)
	}
	return m.runTree(maxSteps)
}

// WatchCycles arms a watchpoint that fires at the first instruction
// boundary where Cycles >= c. fn (optional) runs with the machine frozen
// at that boundary, before Run returns OutWatch. The watch persists
// across Run calls until it fires or ClearWatch is called.
func (m *Machine) WatchCycles(c int64, fn func(*Machine)) {
	m.watchCycles, m.watchSteps, m.watchFn = c, 0, fn
}

// WatchSteps arms a watchpoint that fires at the first instruction
// boundary where Steps >= s (i.e. after instruction s has retired).
func (m *Machine) WatchSteps(s int64, fn func(*Machine)) {
	m.watchCycles, m.watchSteps, m.watchFn = 0, s, fn
}

// WatchArmed reports whether a watchpoint is pending.
func (m *Machine) WatchArmed() bool { return m.watchCycles > 0 || m.watchSteps > 0 }

// ClearWatch disarms any pending watchpoint.
func (m *Machine) ClearWatch() { m.watchCycles, m.watchSteps, m.watchFn = 0, 0, nil }

// watchHit reports whether the armed watch condition holds now.
func (m *Machine) watchHit() bool {
	return (m.watchCycles > 0 && m.Cycles >= m.watchCycles) ||
		(m.watchSteps > 0 && m.Steps >= m.watchSteps)
}

// runTree is the tree-walking interpreter loop — the reference semantics
// every backend must match.
func (m *Machine) runTree(maxSteps int64) Outcome {
	if m.exited {
		return Outcome{Kind: OutExited, Code: m.exitCode}
	}
	// Only track the budget when a limit is set: an unlimited run that
	// counted down from zero would underflow int64 on very long runs.
	limited := maxSteps > 0
	m.budget = 0
	if limited {
		m.budget = maxSteps
	}
	for {
		if m.exited {
			return Outcome{Kind: OutExited, Code: m.exitCode}
		}
		if m.WatchArmed() && m.watchHit() {
			fn := m.watchFn
			m.ClearWatch()
			if fn != nil {
				fn(m)
			}
			return Outcome{Kind: OutWatch}
		}
		if limited {
			if m.budget <= 0 {
				return Outcome{Kind: OutStepLimit}
			}
			m.budget--
		}
		m.Steps++

		// The block-bounds check and BlockHook are step's, written out
		// here so the hot loop makes one call (exec) per instruction.
		f := &m.frames[len(m.frames)-1]
		blk := f.Fn.Blocks[f.Blk]
		var err error
		if f.Idx >= len(blk.Instrs) {
			err = m.fellOff(f)
		} else {
			if f.Idx == 0 && m.BlockHook != nil {
				m.BlockHook(f.Fn.Name, f.Blk)
			}
			err = m.exec(f, &blk.Instrs[f.Idx])
		}
		if err == nil {
			err = m.RT.Tick(m, 1)
		}
		if err != nil {
			if out, done := m.handle(err); done {
				return out
			}
		}
	}
}

// handle routes an execution error through the runtime. done=false means
// ActionContinue: the runtime left the machine at a consistent position
// to resume from. Otherwise out is the finished Run outcome.
func (m *Machine) handle(err error) (out Outcome, done bool) {
	switch m.RT.Handle(m, err) {
	case ActionContinue:
		return Outcome{}, false
	case ActionBlock:
		return Outcome{Kind: OutBlocked}, true
	default:
		var trap *Trap
		if !errors.As(err, &trap) {
			trap = &Trap{Code: ir.TrapBadAccess, PC: m.pcString()}
			if ae := (*mem.AccessError)(nil); errors.As(err, &ae) {
				trap.Addr = ae.Addr
			}
			if de := (*mem.DomainError)(nil); errors.As(err, &de) {
				trap.Code, trap.Addr = ir.TrapDomain, de.Addr
			}
		}
		m.exited = true
		return Outcome{Kind: OutTrapped, Code: trap.Code, Trap: trap}, true
	}
}

// trapHere builds a Trap at the current position.
func (m *Machine) trapHere(code int64, addr int64) *Trap {
	return &Trap{Code: code, Addr: addr, PC: m.pcString()}
}

// FrameInfo describes one live call-stack frame for forensics dumps.
type FrameInfo struct {
	Func  string  `json:"func"`
	Block int     `json:"block"`
	Index int     `json:"index"`
	Regs  []int64 `json:"regs"`
}

// Frames returns the live call stack, outermost frame first, with
// register contents copied out. Intended for state dumps (firetrace
// -replay), not hot paths.
func (m *Machine) Frames() []FrameInfo {
	out := make([]FrameInfo, len(m.frames))
	for i := range m.frames {
		f := &m.frames[i]
		out[i] = FrameInfo{
			Func:  f.Fn.Name,
			Block: f.Blk,
			Index: f.Idx,
			Regs:  append([]int64(nil), f.Regs...),
		}
	}
	return out
}

// Backtrace renders the call stack innermost-first, one
// "func.bBLOCK.INDEX" line per frame.
func (m *Machine) Backtrace() []string {
	out := make([]string, 0, len(m.frames))
	for i := len(m.frames) - 1; i >= 0; i-- {
		f := &m.frames[i]
		out = append(out, fmt.Sprintf("%s.b%d.%d", f.Fn.Name, f.Blk, f.Idx))
	}
	return out
}

// Digest returns an FNV-1a hash over the snapshot: per frame the
// function identity, position and register contents, plus the stack
// pointer. Two machines in the same architectural state digest equal.
func (s *Snapshot) Digest() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v int64) {
		u := uint64(v)
		for i := 0; i < 8; i++ {
			h = (h ^ (u>>(8*i))&0xff) * prime
		}
	}
	mixStr := func(str string) {
		mix(int64(len(str)))
		for i := 0; i < len(str); i++ {
			h = (h ^ uint64(str[i])) * prime
		}
	}
	mix(s.sp)
	mix(int64(len(s.frames)))
	for i := range s.frames {
		f := &s.frames[i]
		mixStr(f.Fn.Name)
		mix(int64(f.Blk))
		mix(int64(f.Idx))
		mix(f.FP)
		mix(int64(f.RetDst))
		mix(int64(len(f.Regs)))
		for _, r := range f.Regs {
			mix(r)
		}
	}
	return h
}

// step executes the instruction at the current position: the block-bounds
// check and BlockHook, then exec. On success the program counter has
// advanced; on error it still points at the faulting instruction.
func (m *Machine) step() error {
	f := &m.frames[len(m.frames)-1]
	blk := f.Fn.Blocks[f.Blk]
	if f.Idx >= len(blk.Instrs) {
		return m.fellOff(f)
	}
	if f.Idx == 0 && m.BlockHook != nil {
		m.BlockHook(f.Fn.Name, f.Blk)
	}
	return m.exec(f, &blk.Instrs[f.Idx])
}

func (m *Machine) fellOff(f *Frame) error {
	return fmt.Errorf("interp: fell off block %s.b%d", f.Fn.Name, f.Blk)
}

// exec executes in, the instruction at f's position, where f is the top
// frame: the reference semantics of every instruction. The bytecode
// backend keeps its own copies only of the pure register and memory
// operations and of calls; every instruction that calls into the runtime
// or leaves the function runs here on both backends.
func (m *Machine) exec(f *Frame, in *ir.Instr) error {
	switch in.Op {
	case ir.OpConst:
		f.Regs[in.Dst] = in.Imm
		m.Cycles += CostSimple
	case ir.OpMov:
		f.Regs[in.Dst] = f.Regs[in.A]
		m.Cycles += CostSimple
	case ir.OpBin:
		v, ok := in.Bin.Eval(f.Regs[in.A], f.Regs[in.B])
		if !ok {
			return m.trapHere(ir.TrapDivZero, 0)
		}
		f.Regs[in.Dst] = v
		m.Cycles += CostSimple
	case ir.OpNeg:
		f.Regs[in.Dst] = -f.Regs[in.A]
		m.Cycles += CostSimple
	case ir.OpNot:
		if f.Regs[in.A] == 0 {
			f.Regs[in.Dst] = 1
		} else {
			f.Regs[in.Dst] = 0
		}
		m.Cycles += CostSimple
	case ir.OpLoad:
		addr := f.Regs[in.A] + in.Imm
		v, err := m.RT.Load(m, addr, in.Width)
		if err != nil {
			return m.accessError(err, addr)
		}
		f.Regs[in.Dst] = v
		m.Cycles += CostMem
	case ir.OpStore, ir.OpStmStore:
		m.Cycles += CostMem
		addr := f.Regs[in.A] + in.Imm
		if err := m.RT.Store(m, addr, f.Regs[in.B], in.Width, in.Op == ir.OpStmStore); err != nil {
			return m.accessError(err, addr)
		}
	case ir.OpFrameAddr:
		f.Regs[in.Dst] = f.FP + in.Imm
		m.Cycles += CostSimple
	case ir.OpGlobalAddr:
		if in.Global != nil {
			f.Regs[in.Dst] = in.Global.Addr
		} else {
			f.Regs[in.Dst] = m.GlobalAddr(in.Name)
		}
		m.Cycles += CostSimple
	case ir.OpCall:
		callee := m.Prog.Callee(in)
		if callee == nil {
			// Slow path for programs mutated after load; an unknown
			// callee is a simulated crash, never a host nil-deref.
			callee = m.Prog.Funcs[in.Name]
			if callee == nil {
				return m.trapHere(ir.TrapBadCall, 0)
			}
		}
		args := m.marshalArgs(in.Args, f.Regs)
		m.Cycles += CostCall
		f.Idx++ // return address: the instruction after the call
		if err := m.push(callee, args, in.Dst); err != nil {
			f.Idx--
			return err
		}
		return nil
	case ir.OpLib:
		args := m.marshalArgs(in.Args, f.Regs)
		c0 := m.Cycles
		m.Cycles += CostLibBase
		m.lib = libsim.FuncID(in.Lib)
		ret, err := m.RT.LibCall(m, in.Name, args, in.Site)
		if m.prof != nil {
			m.prof.Lib(in.Name, in.Site, c0, m.Cycles, m.Steps)
		}
		if err != nil {
			return err
		}
		// The frame slice may have been reallocated if the runtime
		// restored a snapshot during the call; refuse to write through
		// a stale pointer.
		f = &m.frames[len(m.frames)-1]
		if in.Dst >= 0 {
			f.Regs[in.Dst] = ret
		}
	case ir.OpJmp:
		f.Blk = in.Then
		f.Idx = 0
		m.Cycles += CostSimple
		return nil
	case ir.OpBr:
		if f.Regs[in.A] != 0 {
			f.Blk = in.Then
		} else {
			f.Blk = in.Else
		}
		f.Idx = 0
		m.Cycles += CostSimple
		return nil
	case ir.OpRet:
		m.Cycles += CostSimple
		return m.doReturn(in)
	case ir.OpTrap:
		return m.trapHere(in.Imm, 0)
	case ir.OpTxBegin:
		if err := m.RT.TxBegin(m, in.Site, in.Imm); err != nil {
			return err
		}
	case ir.OpTxEnd:
		if err := m.RT.TxEnd(m); err != nil {
			return err
		}
	case ir.OpRegSave:
		m.RT.RegSave(m)
	case ir.OpGate:
		return m.doGate(in)
	default:
		return fmt.Errorf("interp: unknown opcode %d at %s", int(in.Op), m.pcString())
	}
	f = &m.frames[len(m.frames)-1]
	f.Idx++
	return nil
}

// accessError converts a failed load or store at addr into a trap at the
// current position. Non-memory errors (a pending conflict abort, a
// capacity abort) pass through to the runtime's Handle unchanged.
func (m *Machine) accessError(err error, addr int64) error {
	if errors.Is(err, mem.ErrUnmapped) {
		return m.trapHere(ir.TrapBadAccess, addr)
	}
	if errors.Is(err, mem.ErrDomain) {
		return m.trapHere(ir.TrapDomain, addr)
	}
	return err
}

// doGate executes a transaction entry gate: snapshot, policy dispatch,
// optional fault injection, then a jump into the chosen variant's clone.
// The snapshot goes into the machine-owned gate buffer (see Runtime.Gate
// for its lifetime).
func (m *Machine) doGate(in *ir.Instr) error {
	m.snapshotInto(&m.gateSnap)
	variant, inject, injectVal := m.RT.Gate(m, in.Site, &m.gateSnap)
	f := &m.frames[len(m.frames)-1]
	m.Cycles += 3 // gate dispatch cost
	if inject && in.Dst >= 0 {
		f.Regs[in.Dst] = injectVal
	}
	if variant == ir.TxSTM {
		f.Blk = in.Else
	} else {
		f.Blk = in.Then
	}
	f.Idx = 0
	return nil
}

// doReturn pops a frame, applying the return-site flow switch: execution
// continues in the caller's clone matching the current transaction
// variant (§IV-B).
func (m *Machine) doReturn(in *ir.Instr) error {
	f := &m.frames[len(m.frames)-1]
	var ret int64
	if in.A >= 0 {
		ret = f.Regs[in.A]
	}
	retDst := f.RetDst
	m.freeRegs(f.Regs)
	f.Regs = nil // drop the stale reference so nothing can alias the pool
	m.frames = m.frames[:len(m.frames)-1]
	if m.prof != nil {
		m.prof.Exit(m.Cycles, m.Steps)
	}
	if len(m.frames) == 0 {
		// Bottom frame: restore the exact pre-push stack pointer. The
		// old intermediate `f.FP + f.Fn.FrameSize` guess was wrong here
		// (frame sizes are rounded to 16 at push), leaving sp drifted
		// at program exit.
		m.sp = m.stackTop
		m.exited = true
		m.exitCode = ret
		// Commit any transaction still pending at exit so deferred
		// effects (free/close) are not lost.
		return m.RT.TxEnd(m)
	}
	caller := &m.frames[len(m.frames)-1]
	m.sp = caller.FP
	if retDst >= 0 {
		caller.Regs[retDst] = ret
	}
	// Return-site flow switch: if the caller's block is a clone of the
	// wrong variant, continue at the same index in its counterpart.
	blk := caller.Fn.Blocks[caller.Blk]
	if v := m.RT.Variant(); blk.Variant != 0 && v != 0 && int64(blk.Variant) != v && blk.Counterpart >= 0 {
		caller.Blk = blk.Counterpart
	}
	return nil
}

// Direct is the pass-through runtime for uninstrumented programs: library
// calls go straight to the OS, stores go straight to memory, and every
// trap is fatal.
type Direct struct{}

var _ Runtime = Direct{}

// LibCall implements Runtime: the call dispatches on the library ID
// linked into the OpLib being executed.
func (Direct) LibCall(m *Machine, name string, args []int64, _ int) (int64, error) {
	return m.OS.CallFunc(m.lib, name, args)
}

// Gate implements Runtime; uninstrumented programs have no gates.
func (Direct) Gate(*Machine, int, *Snapshot) (int64, bool, int64) { return ir.TxHTM, false, 0 }

// TxBegin implements Runtime.
func (Direct) TxBegin(*Machine, int, int64) error { return nil }

// TxEnd implements Runtime.
func (Direct) TxEnd(*Machine) error { return nil }

// Store implements Runtime.
func (Direct) Store(m *Machine, addr, val int64, width int, _ bool) error {
	return m.Space.Store(addr, val, width)
}

// Load implements Runtime.
func (Direct) Load(m *Machine, addr int64, width int) (int64, error) {
	return m.Space.Load(addr, width)
}

// RegSave implements Runtime.
func (Direct) RegSave(*Machine) {}

// Tick implements Runtime.
func (Direct) Tick(*Machine, int64) error { return nil }

// TickLive implements TickCoalescer: Direct's Tick never does anything,
// so backends may coalesce freely.
func (Direct) TickLive() bool { return false }

// Handle implements Runtime: blocked calls yield, everything else is fatal.
func (Direct) Handle(_ *Machine, err error) Action {
	if errors.Is(err, libsim.ErrBlocked) {
		return ActionBlock
	}
	return ActionDie
}

// Variant implements Runtime.
func (Direct) Variant() int64 { return 0 }
