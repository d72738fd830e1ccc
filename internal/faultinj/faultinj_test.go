package faultinj_test

import (
	"testing"

	"github.com/firestarter-go/firestarter/internal/faultinj"
	"github.com/firestarter-go/firestarter/internal/interp"
	"github.com/firestarter-go/firestarter/internal/ir"
	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/mem"
	"github.com/firestarter-go/firestarter/internal/minic"
)

const target = `
int helper(int x) {
	int y = x * 3;
	if (y > 10) {
		return y - 1;
	}
	return y + 1;
}
int main() {
	int total = 0;
	for (int i = 0; i < 5; i++) {
		total += helper(i);
	}
	return total;
}`

func compileTarget(t *testing.T) *ir.Program {
	t.Helper()
	prog, err := minic.Compile(target, minic.Config{KnownLib: libsim.Known})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func runProg(t *testing.T, prog *ir.Program) (int64, interp.Outcome) {
	t.Helper()
	o := libsim.New(mem.NewSpace())
	m, err := interp.New(prog, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := m.Run(1_000_000)
	return m.ExitCode(), out
}

func TestBaselineResult(t *testing.T) {
	// helper(i) for i=0..4: y=0,3,6,9,12 → 1,4,7,10,11 → 33. Anchors the corruption tests.
	code, out := runProg(t, compileTarget(t))
	if out.Kind != interp.OutExited || code != 33 {
		t.Fatalf("baseline = %d (%v), want 33", code, out.Kind)
	}
}

func TestFailStopFaultCrashes(t *testing.T) {
	prog := compileTarget(t)
	fault := faultinj.Fault{ID: 1, Kind: faultinj.FailStop, Func: "helper", Block: 0, Index: 1}
	fp, err := faultinj.Apply(prog, fault)
	if err != nil {
		t.Fatal(err)
	}
	_, out := runProg(t, fp)
	if out.Kind != interp.OutTrapped || out.Code != ir.TrapInjected {
		t.Fatalf("outcome = %+v, want injected trap", out)
	}
	// The original program is untouched.
	if code, out := runProg(t, prog); out.Kind != interp.OutExited || code != 33 {
		t.Fatalf("original mutated: %d (%v)", code, out.Kind)
	}
}

func TestFailSilentFaultsCorruptWithoutCrash(t *testing.T) {
	prog := compileTarget(t)
	// Find a binop in helper for WrongOperator.
	f := prog.Funcs["helper"]
	var blk, idx int
	found := false
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpBin && b.Instrs[i].Bin == ir.BinMul {
				blk, idx = b.ID, i
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no multiply found in helper")
	}
	fp, err := faultinj.Apply(prog, faultinj.Fault{
		ID: 1, Kind: faultinj.WrongOperator, Func: "helper", Block: blk, Index: idx,
	})
	if err != nil {
		t.Fatal(err)
	}
	code, out := runProg(t, fp)
	if out.Kind != interp.OutExited {
		t.Fatalf("fail-silent fault crashed: %+v", out)
	}
	if code == 33 {
		t.Fatal("fault did not corrupt the result")
	}
}

func TestFlipBranchChangesBehaviour(t *testing.T) {
	prog := compileTarget(t)
	f := prog.Funcs["helper"]
	var blk, idx int
	found := false
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpBr {
				blk, idx = b.ID, i
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no branch in helper")
	}
	fp, err := faultinj.Apply(prog, faultinj.Fault{
		ID: 1, Kind: faultinj.FlipBranch, Func: "helper", Block: blk, Index: idx,
	})
	if err != nil {
		t.Fatal(err)
	}
	code, out := runProg(t, fp)
	if out.Kind != interp.OutExited || code == 33 {
		t.Fatalf("flip-branch: code=%d out=%v", code, out.Kind)
	}
}

func TestApplyValidatesTargets(t *testing.T) {
	prog := compileTarget(t)
	cases := []faultinj.Fault{
		{Kind: faultinj.FailStop, Func: "nope", Block: 0, Index: 0},
		{Kind: faultinj.FailStop, Func: "helper", Block: 99, Index: 0},
		{Kind: faultinj.FailStop, Func: "helper", Block: 0, Index: 99},
		{Kind: faultinj.FlipBranch, Func: "helper", Block: 0, Index: 0}, // not a branch
	}
	for _, f := range cases {
		if _, err := faultinj.Apply(prog, f); err == nil {
			t.Errorf("Apply(%v) succeeded, want error", f)
		}
	}
}

// Negative coordinates are errors, not index panics: a replay manifest
// may carry any integers.
func TestPlantRejectsNegativeCoordinates(t *testing.T) {
	prog := compileTarget(t)
	for _, f := range []faultinj.Fault{
		{Kind: faultinj.FailStop, Func: "helper", Block: -1, Index: 0},
		{Kind: faultinj.FailStop, Func: "helper", Block: 0, Index: -1},
		{Kind: faultinj.OffByOne, Func: "helper", Block: -3, Index: -3},
	} {
		if _, err := faultinj.Plant(prog, f); err == nil {
			t.Errorf("Plant(%v) succeeded, want error", f)
		}
		if _, err := faultinj.Apply(prog, f); err == nil {
			t.Errorf("Apply(%v) succeeded, want error", f)
		}
	}
}

// Plant only reads the program: the planted function is a new one whose
// faulted block is a copy and whose other blocks are the program's, and
// the program dumps as before.
func TestPlantSharesUnfaultedBlocks(t *testing.T) {
	prog := compileTarget(t)
	before := prog.Dump()
	f := faultinj.Fault{ID: 1, Kind: faultinj.FailStop, Func: "helper", Block: 0, Index: 1}
	fn, err := faultinj.Plant(prog, f)
	if err != nil {
		t.Fatal(err)
	}
	orig := prog.Funcs["helper"]
	if fn == orig {
		t.Fatal("Plant returned the program's own function")
	}
	for i, b := range fn.Blocks {
		if shared := b == orig.Blocks[i]; shared != (i != f.Block) {
			t.Errorf("block %d shared=%v, want %v", i, shared, i != f.Block)
		}
	}
	if got := fn.Blocks[0].Instrs[len(fn.Blocks[0].Instrs)-1]; got.Op != ir.OpTrap {
		t.Errorf("faulted block ends in %v, want a trap", got.String())
	}
	if prog.Dump() != before {
		t.Error("Plant changed the program")
	}
}

func TestProfileSeparatesPhases(t *testing.T) {
	prog := compileTarget(t)
	o := libsim.New(mem.NewSpace())
	m, err := interp.New(prog, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := faultinj.NewProfile()
	m.BlockHook = p.HookFunc
	// Run a few steps as "startup", then the rest as "serving".
	m.Run(10)
	p.MarkServing()
	m.Run(0)

	blocks := p.ServingBlocks("main")
	if len(blocks) == 0 {
		t.Fatal("no serving-phase candidate blocks")
	}
	for _, b := range blocks {
		if b.Func == "main" {
			t.Errorf("entry-function block %v offered as candidate", b)
		}
	}
}

func TestPlanFaultsDeterministic(t *testing.T) {
	prog := compileTarget(t)
	cands := []faultinj.BlockRef{
		{Func: "helper", Block: 0},
		{Func: "helper", Block: 1},
		{Func: "helper", Block: 2},
		{Func: "helper", Block: 3},
	}
	a := faultinj.PlanFaults(prog, cands, faultinj.FailStop, 3, 42)
	b := faultinj.PlanFaults(prog, cands, faultinj.FailStop, 3, 42)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("plans differ in size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plans differ at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Disjoint seeds must be able to produce distinct plans: across a
	// seed sweep at least one plan must differ from seed 42's (a fixed,
	// deterministic check — no randomness in the test itself).
	distinct := false
	for seed := int64(43); seed < 53 && !distinct; seed++ {
		c := faultinj.PlanFaults(prog, cands, faultinj.FailStop, 3, seed)
		if len(c) != len(a) {
			distinct = true
			break
		}
		for i := range a {
			if a[i] != c[i] {
				distinct = true
				break
			}
		}
	}
	if !distinct {
		t.Error("seeds 42..52 all produced the identical plan: planning ignores the seed")
	}
}

func TestApplyFailStopOnGatelessBlock(t *testing.T) {
	// The target program calls no library function, so every planted
	// fail-stop fault lands in a block with no injectable gate (the
	// hardened runtime cannot divert it — the case the escalation ladder
	// sheds or reboots through). Apply must still produce a valid
	// program that traps with the injected code.
	prog := compileTarget(t)
	blk := prog.Funcs["helper"].Blocks[0]
	for i := range blk.Instrs {
		if blk.Instrs[i].Op == ir.OpLib {
			t.Fatalf("target block unexpectedly contains a lib call")
		}
	}
	fp, err := faultinj.Apply(prog, faultinj.Fault{
		ID: 1, Kind: faultinj.FailStop, Func: "helper", Block: 0, Index: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, out := runProg(t, fp)
	if out.Kind != interp.OutTrapped || out.Code != ir.TrapInjected {
		t.Fatalf("outcome = %+v, want injected trap", out)
	}
}

func TestPlanSkipsIneligibleBlocks(t *testing.T) {
	prog := compileTarget(t)
	// FlipBranch in blocks with no branch: plan must be empty rather
	// than invalid.
	cands := []faultinj.BlockRef{{Func: "main", Block: 0}}
	faults := faultinj.PlanFaults(prog, cands, faultinj.FlipBranch, 5, 1)
	for _, f := range faults {
		if _, err := faultinj.Apply(prog, f); err != nil {
			t.Errorf("planned fault %v does not apply: %v", f, err)
		}
	}
}

func TestKindAndFaultStrings(t *testing.T) {
	kinds := []faultinj.Kind{
		faultinj.FailStop, faultinj.FlipBranch, faultinj.CorruptConst,
		faultinj.WrongOperator, faultinj.OffByOne, faultinj.Kind(42),
	}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("Kind(%d).String() empty", k)
		}
	}
	f := faultinj.Fault{ID: 3, Kind: faultinj.OffByOne, Func: "g", Block: 2, Index: 1}
	if got := f.String(); got != "#3 off-by-one at g.b2.1" {
		t.Errorf("Fault.String() = %q", got)
	}
}

func TestCorruptConstAndOffByOne(t *testing.T) {
	src := `
int main() {
	int buf[4];
	buf[0] = 10; buf[1] = 20; buf[2] = 30; buf[3] = 40;
	int idx = 1;
	return buf[idx] + 100;
}`
	prog, err := minic.Compile(src, minic.Config{KnownLib: libsim.Known})
	if err != nil {
		t.Fatal(err)
	}
	if code, out := runProg(t, prog); out.Kind != interp.OutExited || code != 120 {
		t.Fatalf("baseline = %d (%v)", code, out.Kind)
	}

	// CorruptConst: find the constant 100 and bump it.
	f := prog.Funcs["main"]
	corrupted := false
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpConst && b.Instrs[i].Imm == 100 {
				fp, err := faultinj.Apply(prog, faultinj.Fault{
					ID: 1, Kind: faultinj.CorruptConst, Func: "main", Block: b.ID, Index: i,
				})
				if err != nil {
					t.Fatal(err)
				}
				code, out := runProg(t, fp)
				if out.Kind != interp.OutExited || code != 121 {
					t.Fatalf("corrupt-const run = %d (%v), want 121", code, out.Kind)
				}
				corrupted = true
			}
		}
	}
	if !corrupted {
		t.Fatal("constant 100 not found")
	}

	// OffByOne: shift a load/store offset; the result must change (or
	// the program crash), never silently validate-fail.
	planted := false
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := b.Instrs[i]
			if in.Op == ir.OpLoad || in.Op == ir.OpStore {
				fp, err := faultinj.Apply(prog, faultinj.Fault{
					ID: 2, Kind: faultinj.OffByOne, Func: "main", Block: b.ID, Index: i,
				})
				if err != nil {
					t.Fatalf("off-by-one apply: %v", err)
				}
				runProg(t, fp) // must not panic the simulator
				planted = true
			}
		}
	}
	if !planted {
		t.Fatal("no memory access found")
	}
}

func TestWrongOperatorCoversComparisons(t *testing.T) {
	// Each comparison flips to its adjacent operator; verify through the
	// program's observable behaviour for < vs <=.
	src := `
int main() {
	int hits = 0;
	for (int i = 0; i < 10; i++) { hits++; }
	return hits;
}`
	prog, err := minic.Compile(src, minic.Config{KnownLib: libsim.Known})
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Funcs["main"]
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpBin && b.Instrs[i].Bin == ir.BinLt {
				fp, err := faultinj.Apply(prog, faultinj.Fault{
					ID: 1, Kind: faultinj.WrongOperator, Func: "main", Block: b.ID, Index: i,
				})
				if err != nil {
					t.Fatal(err)
				}
				code, out := runProg(t, fp)
				if out.Kind != interp.OutExited || code != 11 {
					t.Fatalf("< → <= run = %d (%v), want 11 iterations", code, out.Kind)
				}
				return
			}
		}
	}
	t.Fatal("no < comparison found")
}

// AtLibCall counts calls, not blocks: the nth call to lib may share a
// block with an earlier one.
func TestAtLibCall(t *testing.T) {
	prog, err := minic.Compile(`
int main() {
	int a = atoi("1");
	int b = atoi("2");
	if (a < b) {
		a = atoi("3");
	}
	return a;
}`, minic.Config{KnownLib: libsim.Known})
	if err != nil {
		t.Fatal(err)
	}
	first, err := faultinj.AtLibCall(prog, "main", "atoi", 1)
	if err != nil {
		t.Fatal(err)
	}
	second, err := faultinj.AtLibCall(prog, "main", "atoi", 2)
	if err != nil {
		t.Fatal(err)
	}
	third, err := faultinj.AtLibCall(prog, "main", "atoi", 3)
	if err != nil {
		t.Fatal(err)
	}
	want := faultinj.Fault{ID: 1, Kind: faultinj.FailStop, Func: "main", Block: first.Block}
	if first != want || second != want {
		t.Errorf("calls 1 and 2 = %v, %v; want both %v", first, second, want)
	}
	if third.Block == first.Block {
		t.Errorf("call 3 in block %d, want the branch's block", third.Block)
	}
	for _, c := range []struct {
		fn, lib string
		nth     int
	}{{"nope", "atoi", 1}, {"main", "atoi", 4}, {"main", "malloc", 1}} {
		if f, err := faultinj.AtLibCall(prog, c.fn, c.lib, c.nth); err == nil {
			t.Errorf("AtLibCall(%s, %s, %d) = %v, want an error", c.fn, c.lib, c.nth, f)
		}
	}
}
