package interp_test

import (
	"errors"
	"fmt"
	"testing"

	"github.com/firestarter-go/firestarter/internal/interp"
	"github.com/firestarter-go/firestarter/internal/ir"
	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/mem"
)

// buildLoopProgram hand-assembles a counting loop: the loop head is a
// compare and a branch, the body increments a global through a load, a
// bin and a store and the induction variable through a constant and a
// bin. Returns 10 iterations of g += 3, so exit code 30.
func buildLoopProgram(t testing.TB) *ir.Program {
	t.Helper()
	p := ir.NewProgram()
	p.AddGlobal("g", 8, nil)
	f := &ir.Func{Name: "main", NumRegs: 8}
	b0 := f.NewBlock("entry")
	b0.Instrs = []ir.Instr{
		{Op: ir.OpGlobalAddr, Dst: 0, Name: "g"},
		{Op: ir.OpConst, Dst: 1, Imm: 0},
		{Op: ir.OpConst, Dst: 2, Imm: 10},
		{Op: ir.OpJmp, Then: 1},
	}
	b1 := f.NewBlock("head")
	b1.Instrs = []ir.Instr{
		{Op: ir.OpBin, Dst: 3, A: 1, B: 2, Bin: ir.BinLt},
		{Op: ir.OpBr, A: 3, Then: 2, Else: 3},
	}
	b2 := f.NewBlock("body")
	b2.Instrs = []ir.Instr{
		{Op: ir.OpConst, Dst: 6, Imm: 3},
		{Op: ir.OpLoad, Dst: 4, A: 0, Width: 8},
		{Op: ir.OpBin, Dst: 5, A: 4, B: 6, Bin: ir.BinAdd},
		{Op: ir.OpStore, A: 0, B: 5, Width: 8},
		{Op: ir.OpConst, Dst: 7, Imm: 1},
		{Op: ir.OpBin, Dst: 1, A: 1, B: 7, Bin: ir.BinAdd},
		{Op: ir.OpJmp, Then: 1},
	}
	b3 := f.NewBlock("exit")
	b3.Instrs = []ir.Instr{
		{Op: ir.OpLoad, Dst: 4, A: 0, Width: 8},
		{Op: ir.OpRet, A: 4},
	}
	p.AddFunc(f)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// newBackendPair builds a tree-walker machine and a bytecode machine for
// the same program (the bytecode one runs a deep copy so the two address
// spaces are fully independent; the layout is deterministic, so addresses
// and behaviour coincide).
func newBackendPair(t testing.TB, prog *ir.Program, rtT, rtB interp.Runtime) (*interp.Machine, *interp.Machine) {
	t.Helper()
	mt, err := interp.New(prog, libsim.New(mem.NewSpace()), rtT)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := interp.New(prog.Clone(), libsim.New(mem.NewSpace()), rtB)
	if err != nil {
		t.Fatal(err)
	}
	if err := interp.UseBytecode(mb); err != nil {
		t.Fatal(err)
	}
	if mt.BackendName() != "tree" || mb.BackendName() != "bytecode" {
		t.Fatalf("backend names = %q/%q", mt.BackendName(), mb.BackendName())
	}
	return mt, mb
}

func compareMachines(t *testing.T, stage string, mt, mb *interp.Machine) {
	t.Helper()
	if mt.Steps != mb.Steps || mt.Cycles != mb.Cycles {
		t.Fatalf("%s: steps/cycles diverged: tree %d/%d, bytecode %d/%d",
			stage, mt.Steps, mt.Cycles, mb.Steps, mb.Cycles)
	}
	if mt.Depth() != mb.Depth() || mt.CurrentFunc() != mb.CurrentFunc() {
		t.Fatalf("%s: stack diverged: tree %d@%s, bytecode %d@%s",
			stage, mt.Depth(), mt.CurrentFunc(), mb.Depth(), mb.CurrentFunc())
	}
	if mt.Exited() != mb.Exited() || mt.ExitCode() != mb.ExitCode() {
		t.Fatalf("%s: exit diverged: tree %v/%d, bytecode %v/%d",
			stage, mt.Exited(), mt.ExitCode(), mb.Exited(), mb.ExitCode())
	}
}

func compareOutcomes(t *testing.T, stage string, ot, ob interp.Outcome) {
	t.Helper()
	if ot.Kind != ob.Kind || ot.Code != ob.Code {
		t.Fatalf("%s: outcomes diverged: tree %v/%d, bytecode %v/%d",
			stage, ot.Kind, ot.Code, ob.Kind, ob.Code)
	}
	if (ot.Trap == nil) != (ob.Trap == nil) {
		t.Fatalf("%s: trap presence diverged", stage)
	}
	if ot.Trap != nil && (ot.Trap.Code != ob.Trap.Code || ot.Trap.Addr != ob.Trap.Addr || ot.Trap.PC != ob.Trap.PC) {
		t.Fatalf("%s: traps diverged: tree %v, bytecode %v", stage, ot.Trap, ob.Trap)
	}
}

// TestBytecodeLockstepLoopProgram steps both backends through the loop
// program with budgets of one to seven instructions per Run call, so
// every instruction is a budget stop and a resume point for some quantum.
func TestBytecodeLockstepLoopProgram(t *testing.T) {
	for _, quantum := range []int64{1, 2, 3, 7} {
		prog := buildLoopProgram(t)
		mt, mb := newBackendPair(t, prog, nil, nil)
		for i := 0; i < 10_000; i++ {
			ot := mt.Run(quantum)
			ob := mb.Run(quantum)
			compareOutcomes(t, "lockstep", ot, ob)
			compareMachines(t, "lockstep", mt, mb)
			if ot.Kind != interp.OutStepLimit {
				if ot.Kind != interp.OutExited {
					t.Fatalf("quantum %d: unexpected outcome %v", quantum, ot.Kind)
				}
				break
			}
		}
		if !mt.Exited() || mt.ExitCode() != 30 {
			t.Fatalf("quantum %d: tree exit = %v/%d, want 30", quantum, mt.Exited(), mt.ExitCode())
		}
	}
}

// TestBytecodeSnapshotRestoreAtEveryPrefix stops both backends after
// every possible instruction count, snapshots, runs a few more
// instructions, restores, and completes. Positions, costs and results
// must track the tree-walker through the whole cycle.
func TestBytecodeSnapshotRestoreAtEveryPrefix(t *testing.T) {
	// Total step count of the program, measured on the tree-walker.
	ref, err := interp.New(buildLoopProgram(t), libsim.New(mem.NewSpace()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out := ref.Run(0); out.Kind != interp.OutExited {
		t.Fatalf("reference run: %v", out.Kind)
	}
	total := ref.Steps

	for k := int64(1); k < total; k++ {
		prog := buildLoopProgram(t)
		mt, mb := newBackendPair(t, prog, nil, nil)
		compareOutcomes(t, "prefix", mt.Run(k), mb.Run(k))
		compareMachines(t, "prefix", mt, mb)
		st, sb := mt.Snapshot(), mb.Snapshot()
		compareOutcomes(t, "overrun", mt.Run(3), mb.Run(3))
		mt.Restore(st)
		mb.Restore(sb)
		compareMachines(t, "restored", mt, mb)
		compareOutcomes(t, "finish", mt.Run(0), mb.Run(0))
		compareMachines(t, "finish", mt, mb)
		// Note: the exit code may exceed 30 — Restore rewinds frames, not
		// memory (memory rollback is the recovery runtime's job), so the
		// overrun's store to g can survive. What matters here is that both
		// backends agree bit-for-bit, which compareMachines enforced.
		if !mt.Exited() {
			t.Fatalf("k=%d: did not run to completion", k)
		}
	}
}

// tickCountRT counts runtime ticks and reports TickLive=true, forcing the
// bytecode backend onto its per-instruction tick path (coordinates synced
// around every tick). Tick counts must then match the tree-walker exactly.
type tickCountRT struct {
	scriptRT
	ticks int64
}

func (s *tickCountRT) TickLive() bool { return true }

func (s *tickCountRT) Tick(m *interp.Machine, n int64) error {
	s.ticks += n
	return nil
}

// TestBytecodeGateDispatchBothVariants drives the hand-built gate program
// (txend + lib + gate with HTM/STM continuation clones) through both
// backends for each gate decision, comparing the full runtime event
// sequence, tick counts, costs and results.
func TestBytecodeGateDispatchBothVariants(t *testing.T) {
	cases := []struct {
		name    string
		variant int64
		inject  bool
	}{
		{"htm", ir.TxHTM, false},
		{"stm", ir.TxSTM, false},
		{"inject-stm", ir.TxHTM, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rtT := &tickCountRT{scriptRT: scriptRT{variant: tc.variant, inject: tc.inject}}
			rtB := &tickCountRT{scriptRT: scriptRT{variant: tc.variant, inject: tc.inject}}
			mt, mb := newBackendPair(t, buildGateProgram(t), rtT, rtB)
			compareOutcomes(t, tc.name, mt.Run(1000), mb.Run(1000))
			compareMachines(t, tc.name, mt, mb)
			assertEvents(t, rtB.events, rtT.events)
			if rtT.ticks != rtB.ticks {
				t.Errorf("tick counts diverged: tree %d, bytecode %d", rtT.ticks, rtB.ticks)
			}
			vt, _ := mt.Space.Load(mt.GlobalAddr("g"), 8)
			vb, _ := mb.Space.Load(mb.GlobalAddr("g"), 8)
			if vt != vb {
				t.Errorf("global diverged: tree %d, bytecode %d", vt, vb)
			}
		})
	}
}

// TestBytecodeGateLockstep single-steps the gate program under both
// variants: gates, txbegin/txend and libcalls must deliver the same event
// stream even when every Run call carries a one-instruction budget.
func TestBytecodeGateLockstep(t *testing.T) {
	for _, variant := range []int64{ir.TxHTM, ir.TxSTM} {
		rtT := &scriptRT{variant: variant}
		rtB := &scriptRT{variant: variant}
		mt, mb := newBackendPair(t, buildGateProgram(t), rtT, rtB)
		for i := 0; i < 1000; i++ {
			ot := mt.Run(1)
			ob := mb.Run(1)
			compareOutcomes(t, "gate-lockstep", ot, ob)
			compareMachines(t, "gate-lockstep", mt, mb)
			if ot.Kind != interp.OutStepLimit {
				break
			}
		}
		assertEvents(t, rtB.events, rtT.events)
	}
}

// batchRT is a scripted TickBatcher: ticks are always live, TickBudget
// grants up to budget deferrable ticks, and Tick fails once — when the
// retired count reaches failAt (0: never). Handle records every event it
// is handed and continues or dies as scripted. It drives the executor's
// tick-batching exits: deferred flushes at runtime interactions, budget
// stops and failures at every instruction.
type batchRT struct {
	scriptRT
	budget int64
	failAt int64
	die    bool
	ticks  int64
	failed bool
}

var errTickAbort = errors.New("tick abort")

func (s *batchRT) TickLive() bool { return true }

// TickBudget honours the TickBatcher contract: a tick that fails is never
// granted as deferrable.
func (s *batchRT) TickBudget() int64 {
	if s.failAt > 0 && !s.failed {
		return min(s.budget, max(s.failAt-1-s.ticks, 0))
	}
	return s.budget
}

func (s *batchRT) Tick(m *interp.Machine, n int64) error {
	s.ticks += n
	if s.failAt > 0 && !s.failed && s.ticks >= s.failAt {
		s.failed = true
		return errTickAbort
	}
	return nil
}

func (s *batchRT) Handle(m *interp.Machine, err error) interp.Action {
	s.events = append(s.events, fmt.Sprintf("handle:%v", err))
	if s.die {
		return interp.ActionDie
	}
	return interp.ActionContinue
}

// TestBytecodeTickBatchingExits runs the loop and gate programs on both
// backends under a batching runtime, for every tick-failure point, with a
// step budget of one or three instructions per Run call or none. Outcome,
// trap PC, Steps, Cycles, the tick total and the event stream must match.
func TestBytecodeTickBatchingExits(t *testing.T) {
	progs := []struct {
		name  string
		build func(*testing.T) *ir.Program
	}{
		{"loop", func(t *testing.T) *ir.Program { return buildLoopProgram(t) }},
		{"gate", buildGateProgram},
	}
	for _, p := range progs {
		// Ticks of a clean run: failure points range over all of them.
		ref := &batchRT{scriptRT: scriptRT{variant: ir.TxHTM}}
		mr, err := interp.New(p.build(t), libsim.New(mem.NewSpace()), ref)
		if err != nil {
			t.Fatal(err)
		}
		if out := mr.Run(0); out.Kind != interp.OutExited {
			t.Fatalf("%s: reference run: %v", p.name, out.Kind)
		}
		for _, variant := range []int64{ir.TxHTM, ir.TxSTM} {
			for _, k := range []int64{0, 1, 3, 1 << 20} {
				for n := int64(0); n <= ref.ticks+1; n++ {
					for _, quantum := range []int64{1, 3, 0} {
						for _, die := range []bool{false, true} {
							stage := fmt.Sprintf("%s/v%d/k=%d/N=%d/q=%d/die=%v", p.name, variant, k, n, quantum, die)
							newRT := func() *batchRT {
								return &batchRT{scriptRT: scriptRT{variant: variant}, budget: k, failAt: n, die: die}
							}
							rtT, rtB := newRT(), newRT()
							mt, mb := newBackendPair(t, p.build(t), rtT, rtB)
							for i := 0; ; i++ {
								if i > 10_000 {
									t.Fatalf("%s: no progress", stage)
								}
								ot, ob := mt.Run(quantum), mb.Run(quantum)
								compareOutcomes(t, stage, ot, ob)
								compareMachines(t, stage, mt, mb)
								if ot.Kind != interp.OutStepLimit {
									break
								}
							}
							if rtT.ticks != rtB.ticks {
								t.Fatalf("%s: tick totals diverged: tree %d, bytecode %d", stage, rtT.ticks, rtB.ticks)
							}
							assertEvents(t, rtB.events, rtT.events)
						}
					}
				}
			}
		}
	}
}

// TestBytecodeDivZeroTrapPosition checks that a trap raised from inside
// bytecode execution reports the same user-visible PC string as the
// tree-walker (coordinates must be synced before trap construction).
func TestBytecodeDivZeroTrapPosition(t *testing.T) {
	p := ir.NewProgram()
	f := &ir.Func{Name: "main", NumRegs: 3}
	b := f.NewBlock("entry")
	b.Instrs = []ir.Instr{
		{Op: ir.OpConst, Dst: 0, Imm: 7},
		{Op: ir.OpConst, Dst: 1, Imm: 0},
		{Op: ir.OpBin, Dst: 2, A: 0, B: 1, Bin: ir.BinDiv},
		{Op: ir.OpRet, A: 2},
	}
	p.AddFunc(f)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	mt, mb := newBackendPair(t, p, nil, nil)
	ot, ob := mt.Run(0), mb.Run(0)
	compareOutcomes(t, "divzero", ot, ob)
	if ot.Trap == nil || ot.Trap.Code != ir.TrapDivZero {
		t.Fatalf("trap = %v, want div-zero", ot.Trap)
	}
}

// TestThreadArgOverflowTraps is the regression test for push silently
// truncating arguments: spawning a thread entry with more arguments than
// the function has registers must fail-stop with TrapBadCall instead of
// running with a dropped argument.
func TestThreadArgOverflowTraps(t *testing.T) {
	p := ir.NewProgram()
	f := &ir.Func{Name: "main", NumRegs: 1}
	b := f.NewBlock("entry")
	b.Instrs = []ir.Instr{
		{Op: ir.OpConst, Dst: 0, Imm: 0},
		{Op: ir.OpRet, A: 0},
	}
	p.AddFunc(f)
	w := &ir.Func{Name: "worker", Params: 0, NumRegs: 0}
	wb := w.NewBlock("entry")
	wb.Instrs = []ir.Instr{{Op: ir.OpRet, A: -1}}
	p.AddFunc(w)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	m, err := interp.New(p, libsim.New(mem.NewSpace()), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = interp.NewThread(m, nil, p.Funcs["worker"], []int64{42}, 1)
	if err == nil {
		t.Fatal("NewThread accepted more args than the entry has registers")
	}
	var trap *interp.Trap
	if !errors.As(err, &trap) || trap.Code != ir.TrapBadCall {
		t.Fatalf("err = %v, want TrapBadCall", err)
	}
}
