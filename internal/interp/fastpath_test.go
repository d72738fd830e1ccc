package interp

// White-box regression tests for the resolve-at-load fast path and the
// crash-path bugfixes: they need access to unexported machine state (sp,
// budget, frames), so they live inside the package.

import (
	"reflect"
	"testing"

	"github.com/firestarter-go/firestarter/internal/ir"
	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/mem"
)

// leafFunc builds `name() { return ret; }` with the given frame size.
func leafFunc(name string, ret int64, frameSize int64) *ir.Func {
	f := &ir.Func{Name: name, NumRegs: 1, FrameSize: frameSize}
	b := f.NewBlock("entry")
	b.Instrs = []ir.Instr{
		{Op: ir.OpConst, Dst: 0, Imm: ret},
		{Op: ir.OpRet, A: 0},
	}
	return f
}

func newTestMachine(t *testing.T, prog *ir.Program, rt Runtime) *Machine {
	t.Helper()
	m, err := New(prog, libsim.New(mem.NewSpace()), rt)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestUnknownCalleeTraps: an OpCall whose callee cannot be resolved must
// raise a simulated TrapBadCall, never nil-deref the host process. The
// program validates at load (so New succeeds) and is then sabotaged the
// way a buggy post-load mutation would.
func TestUnknownCalleeTraps(t *testing.T) {
	prog := ir.NewProgram()
	prog.AddFunc(leafFunc("callee", 7, 0))
	main := &ir.Func{Name: "main", NumRegs: 1}
	mb := main.NewBlock("entry")
	mb.Instrs = []ir.Instr{
		{Op: ir.OpCall, Dst: 0, Name: "callee"},
		{Op: ir.OpRet, A: 0},
	}
	prog.AddFunc(main)

	m := newTestMachine(t, prog, nil)
	// Sabotage after load: point the call at a function that does not
	// exist and drop the resolution cache.
	call := &m.Prog.Funcs["main"].Blocks[0].Instrs[0]
	call.Name = "missing"
	call.Callee = nil

	out := m.Run(0)
	if out.Kind != OutTrapped {
		t.Fatalf("outcome = %v, want OutTrapped", out.Kind)
	}
	if out.Code != ir.TrapBadCall {
		t.Fatalf("trap code = %d, want TrapBadCall (%d)", out.Code, ir.TrapBadCall)
	}
}

// TestResolvedCallFastPath: after New, OpCall instructions carry direct
// *ir.Func pointers and OpGlobalAddr direct *ir.Global pointers.
func TestResolvedCallFastPath(t *testing.T) {
	prog := ir.NewProgram()
	prog.AddGlobal("g", 8, nil)
	callee := leafFunc("callee", 3, 0)
	prog.AddFunc(callee)
	main := &ir.Func{Name: "main", NumRegs: 2}
	mb := main.NewBlock("entry")
	mb.Instrs = []ir.Instr{
		{Op: ir.OpGlobalAddr, Dst: 1, Name: "g"},
		{Op: ir.OpCall, Dst: 0, Name: "callee"},
		{Op: ir.OpRet, A: 0},
	}
	prog.AddFunc(main)

	m := newTestMachine(t, prog, nil)
	got := m.Prog.Funcs["main"].Blocks[0].Instrs
	if got[0].Global == nil || got[0].Global != m.Prog.Global("g") {
		t.Errorf("OpGlobalAddr not resolved to this program's global")
	}
	if got[1].Callee != m.Prog.Funcs["callee"] {
		t.Errorf("OpCall not resolved to this program's callee")
	}
	if out := m.Run(0); out.Kind != OutExited || out.Code != 3 {
		t.Fatalf("run = %+v, want exit 3", out)
	}
}

// TestReturnRestoresStackPointer: popping a frame must restore sp exactly.
// Frame sizes are chosen non-multiples of 16 so the old inexact
// `f.FP + f.Fn.FrameSize` exit path (which skipped the alignment fix-up)
// would leave sp drifted below mem.StackTop at program exit.
func TestReturnRestoresStackPointer(t *testing.T) {
	prog := ir.NewProgram()
	prog.AddFunc(leafFunc("helper", 9, 8))
	main := &ir.Func{Name: "main", NumRegs: 1, FrameSize: 24}
	mb := main.NewBlock("entry")
	mb.Instrs = []ir.Instr{
		{Op: ir.OpCall, Dst: 0, Name: "helper"},
		{Op: ir.OpRet, A: 0},
	}
	prog.AddFunc(main)

	m := newTestMachine(t, prog, nil)
	mainFP := m.frames[0].FP

	// Run up to (but not past) main's ret: 2 steps in helper + the call.
	if out := m.Run(3); out.Kind != OutStepLimit {
		t.Fatalf("outcome = %v, want OutStepLimit", out.Kind)
	}
	if len(m.frames) != 1 {
		t.Fatalf("depth = %d after helper returned, want 1", len(m.frames))
	}
	if m.sp != mainFP {
		t.Errorf("sp after inner return = %#x, want caller FP %#x", m.sp, mainFP)
	}

	if out := m.Run(0); out.Kind != OutExited || out.Code != 9 {
		t.Fatalf("run = %+v, want exit 9", out)
	}
	if m.sp != mem.StackTop {
		t.Errorf("sp at exit = %#x, want mem.StackTop %#x (drift = %d bytes)",
			m.sp, int64(mem.StackTop), int64(mem.StackTop)-m.sp)
	}
}

// TestUnlimitedRunDoesNotTrackBudget: with maxSteps == 0 the machine must
// not count a budget down (the old code decremented it every step, which
// underflows int64 on very long runs). The budget field is only touched
// by limited runs.
func TestUnlimitedRunDoesNotTrackBudget(t *testing.T) {
	build := func() *Machine {
		prog := ir.NewProgram()
		main := &ir.Func{Name: "main", NumRegs: 2}
		b0 := main.NewBlock("entry")
		b0.Instrs = []ir.Instr{
			{Op: ir.OpConst, Dst: 0, Imm: 0},
			{Op: ir.OpJmp, Then: 1},
		}
		b1 := main.NewBlock("loop")
		b1.Instrs = []ir.Instr{
			{Op: ir.OpConst, Dst: 1, Imm: 1},
			{Op: ir.OpBin, Bin: ir.BinAdd, Dst: 0, A: 0, B: 1},
			{Op: ir.OpConst, Dst: 1, Imm: 50},
			{Op: ir.OpBin, Bin: ir.BinLt, Dst: 1, A: 0, B: 1},
			{Op: ir.OpBr, A: 1, Then: 1, Else: 2},
		}
		b2 := main.NewBlock("done")
		b2.Instrs = []ir.Instr{{Op: ir.OpRet, A: 0}}
		prog.AddFunc(main)
		return newTestMachine(t, prog, nil)
	}

	m := build()
	if out := m.Run(0); out.Kind != OutExited {
		t.Fatalf("outcome = %v, want OutExited", out.Kind)
	}
	if m.Steps < 100 {
		t.Fatalf("Steps = %d, want a few hundred (loop must actually run)", m.Steps)
	}
	if m.budget != 0 {
		t.Errorf("budget after unlimited run = %d, want 0 (untouched)", m.budget)
	}

	// A limited run still enforces its budget.
	m = build()
	if out := m.Run(10); out.Kind != OutStepLimit {
		t.Fatalf("outcome = %v, want OutStepLimit", out.Kind)
	}
	if m.Steps != 10 {
		t.Errorf("Steps after Run(10) = %d, want 10", m.Steps)
	}
}

// restoreRT restores a snapshot from *inside* LibCall, modelling the
// hazard documented at the OpLib handler: the machine must write the
// return register into the restored top frame, not through a stale frame
// pointer captured before the restore.
type restoreRT struct {
	Direct
	snap     *Snapshot
	kicks    int
	restored bool
	captured bool
	topFn    string
	topReg1  int64
}

func (r *restoreRT) LibCall(m *Machine, name string, args []int64, site int) (int64, error) {
	switch name {
	case "probe":
		if r.snap == nil {
			r.snap = m.Snapshot() // depth 2, positioned at this probe
		}
		return 5, nil
	case "kick":
		r.kicks++
		if r.kicks == 1 {
			m.Restore(r.snap) // depth 1 -> 2: the top frame changes
			r.restored = true
			return 99, nil
		}
		return 7, nil
	}
	return m.OS.Call(name, args)
}

// Tick fires right after the step in which the restore happened; it
// observes where the machine actually wrote the libcall's return value.
func (r *restoreRT) Tick(m *Machine, n int64) error {
	if r.restored && !r.captured {
		r.captured = true
		f := &m.frames[len(m.frames)-1]
		r.topFn = f.Fn.Name
		r.topReg1 = f.Regs[1]
	}
	return nil
}

// TestRestoreDuringLibCallWritesRestoredFrame is the regression test for
// the snapshot-restore-during-libcall hazard: a snapshot taken at depth 2
// is restored while a depth-1 libcall is in flight, so the frame the
// machine must write the return value into is a different stack slot than
// the one it dispatched from.
func TestRestoreDuringLibCallWritesRestoredFrame(t *testing.T) {
	prog := ir.NewProgram()
	prog.AddGlobal("g", 8, nil)

	helper := &ir.Func{Name: "helper", NumRegs: 4}
	hb := helper.NewBlock("entry")
	hb.Instrs = []ir.Instr{
		{Op: ir.OpLib, Dst: 0, Name: "probe"},
		{Op: ir.OpGlobalAddr, Dst: 1, Name: "g"},
		{Op: ir.OpLoad, Dst: 2, A: 1, Width: 8},
		{Op: ir.OpConst, Dst: 3, Imm: 1},
		{Op: ir.OpBin, Bin: ir.BinAdd, Dst: 2, A: 2, B: 3},
		{Op: ir.OpStore, A: 1, B: 2, Width: 8},
		{Op: ir.OpRet, A: 0},
	}
	prog.AddFunc(helper)

	main := &ir.Func{Name: "main", NumRegs: 2}
	mb := main.NewBlock("entry")
	mb.Instrs = []ir.Instr{
		{Op: ir.OpCall, Dst: 0, Name: "helper"},
		{Op: ir.OpLib, Dst: 1, Name: "kick"},
		{Op: ir.OpRet, A: 0},
	}
	prog.AddFunc(main)

	rt := &restoreRT{}
	m := newTestMachine(t, prog, rt)
	out := m.Run(0)
	if out.Kind != OutExited {
		t.Fatalf("outcome = %+v, want OutExited", out)
	}
	// The restored helper frame had r0 = 0 (snapshot predates probe's
	// return value), so helper returns 0 the second time through.
	if out.Code != 0 {
		t.Errorf("exit code = %d, want 0 (restored r0)", out.Code)
	}
	if !rt.captured {
		t.Fatal("runtime never observed the post-restore write")
	}
	if rt.topFn != "helper" {
		t.Errorf("post-restore top frame = %s, want helper (the restored frame)", rt.topFn)
	}
	if rt.topReg1 != 99 {
		t.Errorf("post-restore top frame r1 = %d, want 99 (the libcall return value)", rt.topReg1)
	}
	if rt.kicks != 2 {
		t.Errorf("kick executed %d times, want 2", rt.kicks)
	}
	// Memory is not rolled back by Restore: helper's body ran twice.
	if g, err := m.Space.Load(m.GlobalAddr("g"), 8); err != nil || g != 2 {
		t.Errorf("global g = %d (err %v), want 2", g, err)
	}
}

// TestBytecodeResumeAfterSameFrameRestore: after a runtime event the
// bytecode executor continues at the next stream instruction only when
// the event left the top frame there. Here the first "kick" restores a
// snapshot of the same frame (same function, same depth) taken at an
// earlier "probe", so the frame is at a different position and the
// executor must re-derive it. Continuing at pc+1 instead would skip the
// re-executed add and return 109 rather than 18.
func TestBytecodeResumeAfterSameFrameRestore(t *testing.T) {
	type result struct {
		out           Outcome
		steps, cycles int64
		topFn         string
		topReg1       int64
		kicks         int
	}
	run := func(bytecode, ticksLive bool) result {
		prog := ir.NewProgram()
		main := &ir.Func{Name: "main", NumRegs: 4}
		mb := main.NewBlock("entry")
		mb.Instrs = []ir.Instr{
			{Op: ir.OpConst, Dst: 2, Imm: 10},
			{Op: ir.OpLib, Dst: 0, Name: "probe"}, // snapshot here: r2 = 10
			{Op: ir.OpConst, Dst: 3, Imm: 1},
			{Op: ir.OpBin, Bin: ir.BinAdd, Dst: 2, A: 2, B: 3},
			{Op: ir.OpLib, Dst: 1, Name: "kick"}, // first: restore; second: 7
			{Op: ir.OpBin, Bin: ir.BinAdd, Dst: 0, A: 2, B: 1},
			{Op: ir.OpRet, A: 0},
		}
		prog.AddFunc(main)
		rt := &liveRestoreRT{}
		var mrt Runtime = rt
		if !ticksLive {
			mrt = &rt.restoreRT
		}
		m := newTestMachine(t, prog, mrt)
		if bytecode {
			if err := UseBytecode(m); err != nil {
				t.Fatal(err)
			}
		}
		out := m.Run(0)
		return result{out, m.Steps, m.Cycles, rt.topFn, rt.topReg1, rt.kicks}
	}
	tree := run(false, true)
	if tree.out.Kind != OutExited || tree.out.Code != 18 {
		t.Fatalf("tree-walker outcome = %+v, want exit 18", tree.out)
	}
	if tree.topFn != "main" || tree.topReg1 != 99 || tree.kicks != 2 {
		t.Fatalf("tree-walker: restored frame %s r1=%d after %d kicks, want main r1=99 after 2",
			tree.topFn, tree.topReg1, tree.kicks)
	}
	if bc := run(true, true); !reflect.DeepEqual(bc, tree) {
		t.Errorf("bytecode, ticks live = %+v\ntree = %+v", bc, tree)
	}
	// With ticks dead the executor sees no tick to capture at, but its
	// outcome and accounting must still match.
	dead := run(true, false)
	dead.topFn, dead.topReg1 = tree.topFn, tree.topReg1
	if !reflect.DeepEqual(dead, tree) {
		t.Errorf("bytecode, ticks dead = %+v\ntree = %+v", dead, tree)
	}
}

// liveRestoreRT is restoreRT with ticks live, so the bytecode executor
// delivers the post-restore tick that restoreRT captures at, as the
// tree-walker does.
type liveRestoreRT struct{ restoreRT }

func (*liveRestoreRT) TickLive() bool { return true }

// TestFramePoolingPreservesSnapshots: register slices recycled through the
// frame pool must never alias a snapshot's copies — restoring the same
// snapshot repeatedly after deep call activity must reproduce identical
// state.
func TestFramePoolingPreservesSnapshots(t *testing.T) {
	prog := ir.NewProgram()
	prog.AddFunc(leafFunc("leaf", 21, 8))
	main := &ir.Func{Name: "main", NumRegs: 3}
	mb := main.NewBlock("entry")
	mb.Instrs = []ir.Instr{
		{Op: ir.OpConst, Dst: 1, Imm: 1111},
		{Op: ir.OpConst, Dst: 2, Imm: 2222},
		{Op: ir.OpCall, Dst: 0, Name: "leaf"},
		{Op: ir.OpCall, Dst: 0, Name: "leaf"},
		{Op: ir.OpRet, A: 0},
	}
	prog.AddFunc(main)

	m := newTestMachine(t, prog, nil)
	if out := m.Run(2); out.Kind != OutStepLimit { // r1, r2 set
		t.Fatalf("outcome = %v, want OutStepLimit", out.Kind)
	}
	snap := m.Snapshot()

	// Churn the pool: two call/returns recycle register slices.
	if out := m.Run(0); out.Kind != OutExited {
		t.Fatalf("outcome = %v, want OutExited", out.Kind)
	}

	for round := 0; round < 2; round++ {
		m.Restore(snap)
		f := &m.frames[len(m.frames)-1]
		if f.Regs[1] != 1111 || f.Regs[2] != 2222 {
			t.Fatalf("round %d: restored regs = %v, want r1=1111 r2=2222", round, f.Regs)
		}
		// Scribble over the live frame; the snapshot must be unaffected.
		f.Regs[1] = -1
		f.Regs[2] = -2
	}
	if snap.frames[0].Regs[1] != 1111 || snap.frames[0].Regs[2] != 2222 {
		t.Fatal("snapshot registers were clobbered through a pooled slice")
	}
}
