package interp

import (
	"github.com/firestarter-go/firestarter/internal/bytecode"
	"github.com/firestarter-go/firestarter/internal/ir"
)

// Backend is the machine's execution-strategy seam: Run must be
// observationally identical to the tree-walking interpreter (same
// outcomes, Cycles, Steps, runtime events, profiler events and trap
// positions, in the same order). The machine delegates Run to the
// installed backend; nil means the tree-walker.
type Backend interface {
	// Name identifies the backend ("tree", "bytecode").
	Name() string
	// Run executes like Machine.Run.
	Run(m *Machine, maxSteps int64) Outcome
}

// TickCoalescer is an optional Runtime capability: TickLive reports
// whether Tick currently has an effect. A backend may skip per-
// instruction Tick calls (and the program-counter bookkeeping that feeds
// them) while TickLive is false, re-checking after every event that can
// change transaction state. Runtimes without this capability are ticked
// on every instruction, exactly like the tree-walker.
type TickCoalescer interface {
	TickLive() bool
}

// TickBatcher is an optional extension of TickCoalescer: TickBudget
// reports how many upcoming per-instruction ticks are guaranteed to be
// observation-free — pure interrupt-countdown decrements that cannot
// abort, deliver a pending doom, or otherwise change machine-visible
// state. A backend may defer that many ticks and apply them in one
// batched Tick(n) call, provided deferred ticks are flushed before every
// runtime interaction (which may change transaction state) and before
// returning, and the budget is re-queried after every delivered tick.
type TickBatcher interface {
	TickCoalescer
	TickBudget() int64
}

// SetBackend installs an execution backend (nil restores the tree-walker).
func (m *Machine) SetBackend(b Backend) { m.backend = b }

// BackendName names the machine's active execution strategy.
func (m *Machine) BackendName() string {
	if m.backend == nil {
		return "tree"
	}
	return m.backend.Name()
}

// NewBytecodeBackend compiles prog and returns a backend executing its
// bytecode. Machines running a different program instance fall back to
// the tree-walker; programs must not be mutated after compilation.
func NewBytecodeBackend(prog *ir.Program) (Backend, error) {
	bp, err := bytecode.Compile(prog)
	if err != nil {
		return nil, err
	}
	return &bytecodeBackend{prog: bp}, nil
}

// UseBytecode compiles the machine's program and installs the bytecode
// backend on it.
func UseBytecode(m *Machine) error {
	b, err := NewBytecodeBackend(m.Prog)
	if err != nil {
		return err
	}
	m.SetBackend(b)
	return nil
}

type bytecodeBackend struct {
	prog *bytecode.Program
}

// Name implements Backend.
func (b *bytecodeBackend) Name() string { return "bytecode" }

// Run implements Backend. The executor retires source instructions with
// the tree-walker's exact accounting — one budget unit, one Steps
// increment, one cost charge and one runtime Tick per source instruction,
// in the same order — while dispatching over the flat stream, which holds
// one bytecode instruction per source instruction. It runs its own copies
// only of the pure register and memory operations and of calls; every
// runtime event (library call, return, trap, gate, txbegin/txend,
// regsave) is a bytecode.OpEvent executed by the tree-walker's
// Machine.exec.
//
// Frame positions stay in source (block, index) coordinates so snapshots
// interoperate with the tree-walker. While ticks are live the coordinates
// are kept exact around every delivered tick; while the runtime reports
// ticks dead (TickCoalescer) they are allowed to go stale between
// runtime-visible events, and are re-synced before every runtime call,
// trap, snapshot, budget stop and Run return.
//
// Tick batching: when the runtime implements TickBatcher, ticks inside
// the guaranteed observation-free budget are deferred (`pending` counts
// retired-but-unticked instructions, `tickGas` the remaining budget) and
// applied in one Tick(n) at the next runtime interaction or at the tick
// that may observe something. A batched flush cannot abort by
// construction, so the stale coordinates it runs under are unobservable.
//
// Every path out of the stream syncs the frame position and leaves
// through one of two exits after the inner loop: `stop` (budget
// exhausted) or `fail` (an instruction or tick failed with err). Both
// flush the deferred ticks first, so `pending` is zero whenever the
// resync loop re-enters and when Run returns; `tickGas` is conservatively
// re-queried after every resync.
func (b *bytecodeBackend) Run(m *Machine, maxSteps int64) Outcome {
	if m.Prog != b.prog.Src {
		// Compiled for a different program instance: run the reference
		// interpreter rather than risk divergence.
		return m.runTree(maxSteps)
	}
	if m.exited {
		return Outcome{Kind: OutExited, Code: m.exitCode}
	}
	limited := maxSteps > 0
	m.budget = 0
	if limited {
		m.budget = maxSteps
	}
	co, _ := m.RT.(TickCoalescer)
	batcher, _ := m.RT.(TickBatcher)
	tickLive := co == nil || co.TickLive()
	// Declared up front: goto may not jump over a declaration.
	var (
		pending, tickGas int64
		f                *Frame
		code             *bytecode.Code
		insts            []bytecode.Inst
		regs             []int64
		pc               int
		err              error
	)

resync:
	for {
		// Transaction state may have changed on any path that lands here;
		// the deferral budget must be re-derived before more ticks defer.
		tickGas = 0
		if m.exited {
			return Outcome{Kind: OutExited, Code: m.exitCode}
		}
		f = &m.frames[len(m.frames)-1]
		code = b.prog.Code(f.Fn)
		ok := false
		if code != nil {
			pc, ok = code.PCAt(f.Blk, f.Idx)
		}
		if !ok {
			// A function the lowering does not know, or coordinates
			// outside it: retire one source instruction on the
			// tree-walker, then re-derive the position.
			if limited {
				if m.budget <= 0 {
					goto stop
				}
				m.budget--
			}
			m.Steps++
			if err = m.step(); err == nil {
				tickLive = co == nil || co.TickLive()
				if tickLive {
					err = m.RT.Tick(m, 1)
				}
			}
			if err != nil {
				goto fail
			}
			continue resync
		}
		insts = code.Insts
		regs = f.Regs

		for {
			in := &insts[pc]
			if limited {
				if m.budget <= 0 {
					f.Blk, f.Idx = in.Blk, in.Idx
					goto stop
				}
				m.budget--
			}
			m.Steps++
			if in.Idx == 0 && m.BlockHook != nil {
				m.BlockHook(f.Fn.Name, in.Blk)
			}

			switch in.Op {
			case bytecode.OpConst:
				regs[in.Dst] = in.Imm
				m.Cycles += CostSimple
				pc++

			case bytecode.OpMov:
				regs[in.Dst] = regs[in.A]
				m.Cycles += CostSimple
				pc++

			case bytecode.OpBin:
				v, ok := in.Bin.Eval(regs[in.A], regs[in.B])
				if !ok {
					f.Blk, f.Idx = in.Blk, in.Idx
					err = m.trapHere(ir.TrapDivZero, 0)
					goto fail
				}
				regs[in.Dst] = v
				m.Cycles += CostSimple
				pc++

			case bytecode.OpNeg:
				regs[in.Dst] = -regs[in.A]
				m.Cycles += CostSimple
				pc++

			case bytecode.OpNot:
				if regs[in.A] == 0 {
					regs[in.Dst] = 1
				} else {
					regs[in.Dst] = 0
				}
				m.Cycles += CostSimple
				pc++

			case bytecode.OpLoad:
				// Flush deferred ticks: the routed load may touch
				// transaction state (read-set tracking, conflicts).
				if pending > 0 {
					err = m.RT.Tick(m, pending)
					pending = 0
					if err != nil {
						f.Blk, f.Idx = in.Blk, in.Idx
						goto fail
					}
				}
				addr := regs[in.A] + in.Imm
				v, lerr := m.RT.Load(m, addr, in.Width)
				if lerr != nil {
					f.Blk, f.Idx = in.Blk, in.Idx
					err = m.accessError(lerr, addr)
					goto fail
				}
				regs[in.Dst] = v
				m.Cycles += CostMem
				pc++

			case bytecode.OpStore, bytecode.OpStmStore:
				// Flush deferred ticks: the routed store may abort the
				// transaction (capacity), which must observe the same
				// countdown the tree-walker would have applied.
				if pending > 0 {
					err = m.RT.Tick(m, pending)
					pending = 0
					if err != nil {
						f.Blk, f.Idx = in.Blk, in.Idx
						goto fail
					}
				}
				m.Cycles += CostMem
				addr := regs[in.A] + in.Imm
				if serr := m.RT.Store(m, addr, regs[in.B], in.Width, in.Op == bytecode.OpStmStore); serr != nil {
					f.Blk, f.Idx = in.Blk, in.Idx
					err = m.accessError(serr, addr)
					goto fail
				}
				pc++

			case bytecode.OpFrameAddr:
				regs[in.Dst] = f.FP + in.Imm
				m.Cycles += CostSimple
				pc++

			case bytecode.OpGlobalAddr:
				regs[in.Dst] = in.Imm
				m.Cycles += CostSimple
				pc++

			case bytecode.OpJmp:
				m.Cycles += CostSimple
				pc = in.Then

			case bytecode.OpBr:
				m.Cycles += CostSimple
				if regs[in.A] != 0 {
					pc = in.Then
				} else {
					pc = in.Else
				}

			case bytecode.OpCall:
				args := m.marshalArgs(code.Args(in), regs)
				m.Cycles += CostCall
				f.Blk, f.Idx = in.Blk, in.Idx+1 // return address
				if err = m.push(code.Callee(in), args, in.Dst); err != nil {
					f.Idx = in.Idx
					goto fail
				}
				f = &m.frames[len(m.frames)-1]
				regs = f.Regs
				code = code.CalleeCode(in)
				insts = code.Insts
				pc = code.EntryPC(f.Blk)

			case bytecode.OpEvent:
				// A runtime event: deliver the deferred ticks, run the
				// source instruction on the tree-walker's exec, refresh
				// tick liveness (the event may have begun, committed or
				// switched a transaction) and tick once.
				f.Blk, f.Idx = in.Blk, in.Idx
				if pending > 0 {
					err = m.RT.Tick(m, pending)
					pending = 0
					if err != nil {
						goto fail
					}
				}
				depth := len(m.frames)
				if err = m.exec(f, code.Src(in)); err == nil {
					tickLive = co == nil || co.TickLive()
					if tickLive {
						err = m.RT.Tick(m, 1)
					}
				}
				if err != nil {
					goto fail
				}
				// The runtime may have restored a snapshot or switched
				// frames. An event that left the top frame at the same
				// depth, in this function, at the stream's next
				// instruction (a library call, txbegin, txend or regsave
				// that returned normally) resumes at pc+1 with the frame
				// re-read; every other event re-derives the position.
				if !m.exited && len(m.frames) == depth && pc+1 < len(insts) {
					nf, nin := &m.frames[depth-1], &insts[pc+1]
					if nf.Fn == code.Fn && nf.Blk == nin.Blk && nf.Idx == nin.Idx {
						f, regs = nf, nf.Regs
						tickGas = 0 // as on resync: transaction state may have changed
						pc++
						continue
					}
				}
				continue resync
			}

			// Common tick tail for straight-line ops, branches and calls:
			// pc has advanced and the instruction retires against the
			// interrupt model — deferred while the batching budget lasts,
			// delivered (with the frame position synced) when the next
			// tick may observe something.
			if tickLive {
				if tickGas > 0 {
					tickGas--
					pending++
				} else {
					nin := &insts[pc]
					f.Blk, f.Idx = nin.Blk, nin.Idx
					err = m.RT.Tick(m, pending+1)
					pending = 0
					if err != nil {
						goto fail
					}
					if batcher != nil {
						tickGas = batcher.TickBudget()
					}
				}
			}
		}

	stop:
		// The step budget ran out with the position synced.
		if pending > 0 {
			err = m.RT.Tick(m, pending)
			pending = 0
			if err != nil {
				goto fail
			}
		}
		return Outcome{Kind: OutStepLimit}

	fail:
		// err failed with the position synced at its instruction. A
		// failing flush of the deferred ticks takes its place.
		if pending > 0 {
			if terr := m.RT.Tick(m, pending); terr != nil {
				err = terr
			}
			pending = 0
		}
		if out, done := m.handle(err); done {
			return out
		}
		tickLive = co == nil || co.TickLive()
	}
}
