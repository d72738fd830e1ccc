package bytecode

import (
	"math"
	"testing"

	"github.com/firestarter-go/firestarter/internal/ir"
)

// buildLoopProgram mirrors the interp package's loop test program: a
// counting loop that adds 3 to a global on every iteration.
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

// TestPCAtMapsSourceCoordinates: every source instruction (blk, i) is the
// instruction at EntryPC(blk)+i and carries those coordinates, branch
// targets are block entry pcs, and coordinates outside the function
// report false.
func TestPCAtMapsSourceCoordinates(t *testing.T) {
	p := buildLoopProgram(t)
	bp, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	f := p.Funcs["main"]
	c := bp.Code(f)
	n := 0
	for _, b := range f.Blocks {
		for i, src := range b.Instrs {
			pc, ok := c.PCAt(b.ID, i)
			if !ok || pc != c.EntryPC(b.ID)+i {
				t.Fatalf("PCAt(%d,%d) = %d/%v, want %d/true", b.ID, i, pc, ok, c.EntryPC(b.ID)+i)
			}
			in := &c.Insts[pc]
			if in.Blk != b.ID || in.Idx != i || c.Src(in) != &b.Instrs[i] {
				t.Fatalf("pc %d is b%d.%d, want b%d.%d", pc, in.Blk, in.Idx, b.ID, i)
			}
			switch src.Op {
			case ir.OpJmp:
				if in.Then != c.EntryPC(src.Then) {
					t.Errorf("b%d.%d: jmp -> pc %d, want %d", b.ID, i, in.Then, c.EntryPC(src.Then))
				}
			case ir.OpBr:
				if in.Then != c.EntryPC(src.Then) || in.Else != c.EntryPC(src.Else) {
					t.Errorf("b%d.%d: br -> pcs %d/%d, want %d/%d", b.ID, i,
						in.Then, in.Else, c.EntryPC(src.Then), c.EntryPC(src.Else))
				}
			}
			n++
		}
	}
	if n != len(c.Insts) {
		t.Fatalf("%d source instructions lowered to %d", n, len(c.Insts))
	}

	for _, pos := range [][2]int{{-1, 0}, {99, 0}, {0, -1}, {0, 4}, {1, 2}, {3, 2}} {
		if _, ok := c.PCAt(pos[0], pos[1]); ok {
			t.Errorf("PCAt(%d,%d) reported an instruction outside the function", pos[0], pos[1])
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
	for op := OpConst; op <= OpEvent; op++ {
		if s := op.String(); s == "" {
			t.Errorf("Op(%d).String() empty", int(op))
		}
	}
	if Op(math.MaxUint8).String() == "" {
		t.Error("unknown op string empty")
	}
}
