package bytecode

import (
	"math"
	"testing"

	"github.com/firestarter-go/firestarter/internal/ir"
)

// buildLoopProgram mirrors the interp package's fusion test program: a
// counting loop whose head fuses to cmp+br and whose body contains a
// load-bin-store and a const+bin.
func buildLoopProgram(t *testing.T) *ir.Program {
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
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	return p
}

func ops(c *Code, from, to int) []Op {
	var out []Op
	for _, in := range c.Insts[from:to] {
		out = append(out, in.Op)
	}
	return out
}

func TestCompileFusesSuperinstructions(t *testing.T) {
	p := buildLoopProgram(t)
	bp, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	c := bp.Code(p.Funcs["main"])
	if c == nil {
		t.Fatal("no code for main")
	}
	want := []Op{
		// entry
		OpGlobalAddr, OpConst, OpConst, OpJmp,
		// head: bin+br fused
		OpCmpBr,
		// body: const (unfusable: next op is a load), load+bin+store,
		// const+bin, jmp
		OpConst, OpLoadBinStore, OpConstBin, OpJmp,
		// exit
		OpLoad, OpEvent,
	}
	got := ops(c, 0, len(c.Insts))
	if len(got) != len(want) {
		t.Fatalf("inst stream = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("inst %d = %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}

	// Jump targets were rewritten to pcs.
	if c.Insts[3].Then != c.EntryPC(1) {
		t.Errorf("entry jmp -> pc %d, want head entry %d", c.Insts[3].Then, c.EntryPC(1))
	}
	cb := c.Insts[4]
	if cb.Then != c.EntryPC(2) || cb.Else != c.EntryPC(3) {
		t.Errorf("cmp+br targets = %d/%d, want %d/%d", cb.Then, cb.Else, c.EntryPC(2), c.EntryPC(3))
	}

	// Component counts and source coordinates.
	lbs := c.Insts[6]
	if lbs.N != 3 || lbs.Blk != 2 || lbs.Idx != 1 {
		t.Errorf("load-bin-store N/Blk/Idx = %d/%d/%d, want 3/2/1", lbs.N, lbs.Blk, lbs.Idx)
	}
	if lbs.Stm {
		t.Errorf("plain store marked stm")
	}
}

func TestPCAtAlignment(t *testing.T) {
	p := buildLoopProgram(t)
	bp, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	c := bp.Code(p.Funcs["main"])

	// Every source coordinate maps to its covering instruction; only
	// first components are aligned.
	f := p.Funcs["main"]
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			pc, aligned := c.PCAt(b.ID, i)
			in := c.Insts[pc]
			if in.Blk != b.ID || i < in.Idx || i >= in.Idx+in.N {
				t.Fatalf("PCAt(%d,%d) -> pc %d covering b%d.%d+%d", b.ID, i, pc, in.Blk, in.Idx, in.N)
			}
			if aligned != (i == in.Idx) {
				t.Fatalf("PCAt(%d,%d) aligned=%v, covering starts at %d", b.ID, i, aligned, in.Idx)
			}
		}
	}

	// Out-of-range coordinates are never aligned.
	if _, aligned := c.PCAt(-1, 0); aligned {
		t.Error("negative block aligned")
	}
	if _, aligned := c.PCAt(99, 0); aligned {
		t.Error("unknown block aligned")
	}
	if _, aligned := c.PCAt(0, 99); aligned {
		t.Error("past-end index aligned")
	}
}

func TestCompileStmCloneFusesIdentically(t *testing.T) {
	// An HTM block and its STM clone (store -> stmstore) must fuse at the
	// same boundaries, or the interpreter's same-index flow switches would
	// land mid-superinstruction.
	p := ir.NewProgram()
	p.AddGlobal("g", 8, nil)
	f := &ir.Func{Name: "main", NumRegs: 8}
	mk := func(label string, stm bool) *ir.Block {
		b := f.NewBlock(label)
		st := ir.OpStore
		if stm {
			st = ir.OpStmStore
		}
		b.Instrs = []ir.Instr{
			{Op: ir.OpGlobalAddr, Dst: 0, Name: "g"},
			{Op: ir.OpLoad, Dst: 4, A: 0, Width: 8},
			{Op: ir.OpBin, Dst: 5, A: 4, B: 4, Bin: ir.BinAdd},
			{Op: st, A: 0, B: 5, Width: 8},
			{Op: ir.OpRet, A: 5},
		}
		return b
	}
	mk("htm", false)
	mk("stm", true)
	p.AddFunc(f)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	bp, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	c := bp.Code(f)
	htm := ops(c, c.EntryPC(0), c.EntryPC(1))
	stm := ops(c, c.EntryPC(1), len(c.Insts))
	if len(htm) != len(stm) {
		t.Fatalf("clone streams differ in length: %v vs %v", htm, stm)
	}
	for i := range htm {
		hin := c.Insts[c.EntryPC(0)+i]
		sin := c.Insts[c.EntryPC(1)+i]
		if hin.Idx != sin.Idx || hin.N != sin.N {
			t.Fatalf("clone boundary mismatch at %d: %d+%d vs %d+%d", i, hin.Idx, hin.N, sin.Idx, sin.N)
		}
	}
	// The fused store kind is preserved.
	var sawPlain, sawStm bool
	for _, in := range c.Insts {
		if in.Op == OpLoadBinStore {
			if in.Stm {
				sawStm = true
			} else {
				sawPlain = true
			}
		}
	}
	if !sawPlain || !sawStm {
		t.Errorf("expected one plain and one stm load-bin-store fusion")
	}
}

func TestCompileNeverFusesDivRem(t *testing.T) {
	p := ir.NewProgram()
	f := &ir.Func{Name: "main", NumRegs: 4}
	b := f.NewBlock("entry")
	b.Instrs = []ir.Instr{
		{Op: ir.OpConst, Dst: 0, Imm: 10},
		{Op: ir.OpBin, Dst: 1, A: 0, B: 0, Bin: ir.BinDiv},
		{Op: ir.OpBin, Dst: 2, A: 1, B: 0, Bin: ir.BinRem},
		{Op: ir.OpBr, A: 2, Then: 1, Else: 1},
	}
	ex := f.NewBlock("exit")
	ex.Instrs = []ir.Instr{{Op: ir.OpRet, A: 2}}
	p.AddFunc(f)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bp, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range bp.Code(f).Insts {
		switch in.Op {
		case OpConstBin, OpCmpBr, OpLoadBinStore:
			t.Fatalf("div/rem fused into %v", in.Op)
		}
	}
}

func TestCompileRejectsUnresolved(t *testing.T) {
	p := ir.NewProgram()
	p.AddGlobal("g", 8, nil)
	f := &ir.Func{Name: "main", NumRegs: 2}
	b := f.NewBlock("entry")
	b.Instrs = []ir.Instr{
		{Op: ir.OpGlobalAddr, Dst: 0, Name: "g"},
		{Op: ir.OpRet, A: 0},
	}
	p.AddFunc(f)
	// Deliberately skip Resolve: Compile must refuse rather than emit an
	// instruction with a nil global pointer.
	if _, err := Compile(p); err == nil {
		t.Fatal("Compile accepted an unresolved program")
	}
}

func TestOpString(t *testing.T) {
	for op := OpConst; op <= OpLoadBinStore; op++ {
		if s := op.String(); s == "" {
			t.Errorf("Op(%d).String() empty", int(op))
		}
	}
	if Op(math.MaxUint8).String() == "" {
		t.Error("unknown op string empty")
	}
}
