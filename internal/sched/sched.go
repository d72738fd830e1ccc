// Package sched is a deterministic, quantum-based cooperative scheduler
// that multiplexes N interpreter machines (threads) over one shared
// address space and simulated OS.
//
// The paper's protected servers are multi-process/multi-threaded (Nginx
// workers, PostgreSQL backends); conflict aborts — a first-class TSX abort
// cause — only exist when another core can touch a transaction's cache
// lines. This package supplies that concurrency while keeping the repo's
// reproducibility contract: scheduling is round-robin over runnable
// threads with a fixed instruction quantum, wakeups are broadcast in
// thread order, and no host-level nondeterminism (goroutines, maps in
// iteration order, time) is involved, so a run is a pure function of the
// program, workload and seeds.
//
// Thread and mutex state lives here; the guest reaches it through the
// pthread-style library calls (thread_create, thread_join, mutex_lock,
// mutex_unlock) that libsim dispatches to the installed ThreadOps — which
// a Sched implements. Blocking follows the repo's existing discipline: a
// call that cannot proceed returns libsim.ErrBlocked, the machine yields,
// and the faulting instruction re-executes when the scheduler wakes the
// thread (mutex release, thread exit, new external input, or a possible
// STM commit-lock release).
//
// Each thread gets its own Runtime (for the recovery runtime: its own TSX
// instance, undo log and gate policy), all joined through one htm.Domain.
// The shared OS holds single-valued store/cycle hooks, so every context
// switch re-points them at the incoming thread.
package sched

import (
	"fmt"

	"github.com/firestarter-go/firestarter/internal/interp"
	"github.com/firestarter-go/firestarter/internal/libsim"
)

// ThreadRuntime is what the scheduler needs from a per-thread runtime
// beyond interp.Runtime: binding to its machine, the store hook to install
// on context switch, and delivery of cross-thread aborts on resume.
// core.Runtime implements it; Direct adapts interp.Direct for
// unprotected (vanilla) multithreaded runs.
type ThreadRuntime interface {
	interp.Runtime
	Attach(m *interp.Machine)
	StoreFunc() libsim.StoreFunc
	OnResume()
}

// RuntimeFactory builds the runtime for spawned thread tid (>= 1; the
// main thread's runtime is its machine's). Under the recovery runtime the
// factory is where per-thread TSX seeds and the shared conflict domain
// are wired up (internal/boot).
type RuntimeFactory func(tid int) ThreadRuntime

// Direct is the pass-through ThreadRuntime for unprotected programs.
type Direct struct{ interp.Direct }

// Attach implements ThreadRuntime.
func (Direct) Attach(*interp.Machine) {}

// StoreFunc implements ThreadRuntime: nil restores direct stores.
func (Direct) StoreFunc() libsim.StoreFunc { return nil }

// OnResume implements ThreadRuntime.
func (Direct) OnResume() {}

// thread states.
const (
	stRunnable  = iota // schedulable now
	stWaitIO           // blocked call with no scheduler-visible wake event
	stWaitMutex        // blocked in mutex_lock(waitID)
	stWaitJoin         // blocked in thread_join(waitID)
	stWaitLock         // TxBegin blocked on the STM commit lock
	stExited           // returned from its entry function (or cancelled)
)

// Thread is one schedulable machine.
type Thread struct {
	ID int
	M  *interp.Machine
	RT ThreadRuntime

	state    int
	waitID   int64 // mutex id (stWaitMutex) or thread id (stWaitJoin)
	exitCode int64

	// servingFD preserves the shared OS's "request being served"
	// descriptor across preemption: saved at slice end, restored on
	// activate, so a thread's shed rung and trace attribution never see
	// another thread's connection.
	servingFD int64
}

// Exited reports whether the thread has finished.
func (t *Thread) Exited() bool { return t.state == stExited }

// ExitCode returns the thread's exit value once Exited.
func (t *Thread) ExitCode() int64 { return t.exitCode }

type mutex struct {
	owner int // thread id, -1 free
}

// Options parameterizes a scheduler.
type Options struct {
	// Quantum is the instruction budget per scheduling slice (default
	// 4096). Smaller quanta interleave threads more finely — more
	// transaction overlap, more conflict aborts.
	Quantum int64
}

// maxThreads caps thread_create.
const maxThreads = 64

// Sched multiplexes threads over one shared Space/OS.
type Sched struct {
	os      *libsim.OS
	factory RuntimeFactory
	opts    Options

	threads []*Thread
	mutexes map[int64]*mutex
	current *Thread
	cursor  int

	// pendingWait/pendingID are set by a ThreadOps hook just before it
	// returns ErrBlocked, so the slice-end code can classify the block.
	pendingWait int
	pendingID   int64
}

var _ libsim.ThreadOps = (*Sched)(nil)

// New builds a scheduler whose main thread (tid 0) is main, a booted
// machine whose runtime is a ThreadRuntime, and installs the scheduler
// behind its OS's pthread-style calls. The factory is invoked once per
// spawned thread (tid >= 1); a nil factory gives every one Direct.
func New(main *interp.Machine, factory RuntimeFactory, opts Options) (*Sched, error) {
	rt, ok := main.RT.(ThreadRuntime)
	if !ok {
		return nil, fmt.Errorf("sched: main thread runtime %T is not a ThreadRuntime", main.RT)
	}
	if opts.Quantum <= 0 {
		opts.Quantum = 4096
	}
	if factory == nil {
		factory = func(int) ThreadRuntime { return Direct{} }
	}
	s := &Sched{
		os:      main.OS,
		factory: factory,
		opts:    opts,
		mutexes: make(map[int64]*mutex),
		threads: []*Thread{{ID: 0, M: main, RT: rt, state: stRunnable, servingFD: -1}},
	}
	main.OS.SetThreads(s)
	return s, nil
}

// Threads returns the thread table (tests and stats aggregation). Index 0
// is the main thread; entries are never removed.
func (s *Sched) Threads() []*Thread { return s.threads }

// Main returns the main thread's machine.
func (s *Sched) Main() *interp.Machine { return s.threads[0].M }

// WallCycles approximates parallel wall-clock time: the maximum per-thread
// cycle count. With work spread over more workers the maximum drops — this
// is the throughput metric of the threads campaign.
func (s *Sched) WallCycles() int64 {
	var max int64
	for _, t := range s.threads {
		if t.M.Cycles > max {
			max = t.M.Cycles
		}
	}
	return max
}

// TotalSteps sums executed instructions across threads.
func (s *Sched) TotalSteps() int64 {
	var sum int64
	for _, t := range s.threads {
		sum += t.M.Steps
	}
	return sum
}

// activate makes t the running thread: the shared OS's store, cycle,
// serving-connection and trace hooks point at its runtime and machine for
// the duration of the slice.
func (s *Sched) activate(t *Thread) {
	s.current = t
	s.os.SetStore(t.RT.StoreFunc())
	s.os.SetCycleSink(&t.M.Cycles)
	s.os.SetServingFD(t.servingFD)
	if th, ok := t.RT.(interface{ TraceHook() libsim.TraceFunc }); ok {
		s.os.SetTraceHook(th.TraceHook())
	} else {
		s.os.SetTraceHook(nil)
	}
	s.pendingWait = stRunnable
}

// deactivate saves per-thread OS state at the end of t's slice.
func (s *Sched) deactivate(t *Thread) {
	t.servingFD = s.os.ServingFD()
}

// pickNext returns the next runnable thread in round-robin order, nil if
// none.
func (s *Sched) pickNext() *Thread {
	n := len(s.threads)
	for i := 0; i < n; i++ {
		t := s.threads[(s.cursor+i)%n]
		if t.state == stRunnable {
			s.cursor = (s.cursor + i + 1) % n
			return t
		}
	}
	return nil
}

func (s *Sched) wake(state int, id int64) {
	for _, t := range s.threads {
		if t.state == state && t.waitID == id {
			t.state = stRunnable
		}
	}
}

// blockRetrySteps bounds how many instructions a thread can consume while
// "immediately" re-blocking (the retried call plus dispatch); slices at or
// under it count as idle for livelock detection.
const blockRetrySteps = 4

// Run schedules threads until the process exits, a thread traps fatally,
// every thread is blocked, or maxSteps instructions (0 = no limit) have
// been executed across all threads. The workload driver interleaves with
// Run exactly as with a single machine: on OutBlocked it feeds client
// bytes and calls Run again (which retries I/O-blocked threads).
func (s *Sched) Run(maxSteps int64) interp.Outcome {
	main := s.threads[0]
	if main.state == stExited {
		return interp.Outcome{Kind: interp.OutExited, Code: main.exitCode}
	}
	// The external world may have changed since the last Run: retry
	// blocked I/O (and commit-lock) waits.
	for _, t := range s.threads {
		if t.state == stWaitIO || t.state == stWaitLock {
			t.state = stRunnable
		}
	}
	limited := maxSteps > 0
	remaining := maxSteps
	idle := 0
	for {
		t := s.pickNext()
		if t == nil {
			return interp.Outcome{Kind: interp.OutBlocked}
		}
		q := s.opts.Quantum
		if limited && remaining < q {
			q = remaining
		}
		if q <= 0 {
			return interp.Outcome{Kind: interp.OutStepLimit}
		}
		s.activate(t)
		// Deliver any conflict abort doomed into this thread's live
		// transaction while it was suspended, before it executes.
		t.RT.OnResume()
		start := t.M.Steps
		out := t.M.Run(q)
		s.deactivate(t)
		used := t.M.Steps - start
		if limited {
			remaining -= used
		}
		switch out.Kind {
		case interp.OutExited:
			t.state = stExited
			t.exitCode = out.Code
			s.wake(stWaitJoin, int64(t.ID))
			if t.ID == 0 {
				// Main returning ends the process, like returning from
				// C main (our apps join their workers first).
				return out
			}
			idle = 0
		case interp.OutTrapped:
			// Fail-stop: the whole process dies with the trapping thread.
			return out
		case interp.OutBlocked:
			switch {
			case s.pendingWait != stRunnable:
				t.state = s.pendingWait
				t.waitID = s.pendingID
			case s.waitingCommitLock(t):
				t.state = stWaitLock
			default:
				t.state = stWaitIO
			}
			if used <= blockRetrySteps {
				idle++
			} else {
				idle = 0
			}
		case interp.OutStepLimit:
			idle = 0
		}
		// Another thread may have released the STM commit lock during the
		// slice; give lock waiters a retry.
		for _, u := range s.threads {
			if u.state == stWaitLock {
				u.state = stRunnable
			}
		}
		if limited && remaining <= 0 {
			return interp.Outcome{Kind: interp.OutStepLimit}
		}
		// Livelock guard: if a full rotation's worth of threads did
		// nothing but immediately re-block, yield to the driver.
		if idle > 2*len(s.threads)+2 {
			return interp.Outcome{Kind: interp.OutBlocked}
		}
	}
}

func (s *Sched) waitingCommitLock(t *Thread) bool {
	if w, ok := t.RT.(interface{ WaitingCommitLock() bool }); ok {
		return w.WaitingCommitLock()
	}
	return false
}

// --- libsim.ThreadOps ---------------------------------------------------------

// Create implements ThreadOps: spawn a thread running the named function.
func (s *Sched) Create(fnName string, arg int64) (int64, error) {
	fn := s.threads[0].M.Prog.Funcs[fnName]
	if fn == nil {
		s.os.Errno = libsim.EINVAL
		return -1, nil
	}
	if len(s.threads) >= maxThreads {
		s.os.Errno = libsim.EAGAIN
		return -1, nil
	}
	parent := s.current
	if parent == nil {
		parent = s.threads[0]
	}
	tid := len(s.threads)
	rt := s.factory(tid)
	m, err := interp.NewThread(parent.M, rt, fn, []int64{arg}, tid)
	if err != nil {
		s.os.Errno = libsim.EAGAIN
		return -1, nil
	}
	rt.Attach(m)
	m.BlockHook = parent.M.BlockHook
	s.threads = append(s.threads, &Thread{ID: tid, M: m, RT: rt, state: stRunnable, servingFD: -1})
	return int64(tid), nil
}

// Join implements ThreadOps: block until the thread exits.
func (s *Sched) Join(tid int64) (int64, error) {
	if tid <= 0 || tid >= int64(len(s.threads)) {
		s.os.Errno = libsim.EINVAL
		return -1, nil
	}
	if s.threads[tid].state == stExited {
		return 0, nil
	}
	s.pendingWait = stWaitJoin
	s.pendingID = tid
	return 0, libsim.ErrBlocked
}

// MutexLock implements ThreadOps. Mutexes are created on first use, keyed
// by the integer the program passes (pthread_mutex_t analog).
func (s *Sched) MutexLock(id int64) (int64, error) {
	mu := s.mutexes[id]
	if mu == nil {
		mu = &mutex{owner: -1}
		s.mutexes[id] = mu
	}
	cur := 0
	if s.current != nil {
		cur = s.current.ID
	}
	switch mu.owner {
	case -1:
		mu.owner = cur
		return 0, nil
	case cur:
		return libsim.EDEADLK, nil
	default:
		s.pendingWait = stWaitMutex
		s.pendingID = id
		return 0, libsim.ErrBlocked
	}
}

// MutexUnlock implements ThreadOps. All waiters are woken (broadcast, in
// thread order); the first one scheduled acquires, the rest re-block —
// deterministic and starvation-free under round-robin.
func (s *Sched) MutexUnlock(id int64) (int64, error) {
	mu := s.mutexes[id]
	cur := 0
	if s.current != nil {
		cur = s.current.ID
	}
	if mu == nil || mu.owner != cur {
		return libsim.EPERM, nil
	}
	mu.owner = -1
	s.wake(stWaitMutex, id)
	return 0, nil
}

// Cancel implements ThreadOps: the compensation action for a rolled-back
// thread_create. The thread is marked exited so it never runs again;
// instructions it already executed are the caller's responsibility (the
// recovery runtime only cancels threads created inside the transaction
// being rolled back).
func (s *Sched) Cancel(tid int64) bool {
	if tid <= 0 || tid >= int64(len(s.threads)) {
		return false
	}
	t := s.threads[tid]
	if t.state == stExited {
		return false
	}
	t.state = stExited
	t.exitCode = -1
	s.wake(stWaitJoin, tid)
	// Release any mutexes it holds so no waiter deadlocks on a corpse.
	for _, mu := range s.mutexes {
		if mu.owner == t.ID {
			mu.owner = -1
		}
	}
	for id, mu := range s.mutexes {
		if mu.owner == -1 {
			s.wake(stWaitMutex, id)
		}
	}
	return true
}

// String renders a short scheduler state summary (debugging).
func (s *Sched) String() string {
	states := [...]string{"runnable", "wait-io", "wait-mutex", "wait-join", "wait-lock", "exited"}
	out := ""
	for _, t := range s.threads {
		out += fmt.Sprintf("t%d:%s ", t.ID, states[t.state])
	}
	return out
}
