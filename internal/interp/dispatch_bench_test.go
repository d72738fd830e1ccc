package interp_test

import (
	"testing"

	"github.com/firestarter-go/firestarter/internal/interp"
	"github.com/firestarter-go/firestarter/internal/ir"
	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/mem"
)

// buildHotLoop returns a program spinning an arithmetic loop over a
// global counter, nine instructions per iteration (a compare and branch,
// a load-add-store, a constant increment and a jump): the dispatch-bound
// shape, with no runtime event inside the loop.
func buildHotLoop(iters int64) *ir.Program {
	p := ir.NewProgram()
	p.AddGlobal("g", 8, nil)
	f := &ir.Func{Name: "main", NumRegs: 8}
	b0 := f.NewBlock("entry")
	b0.Instrs = []ir.Instr{
		{Op: ir.OpGlobalAddr, Dst: 0, Name: "g"},
		{Op: ir.OpConst, Dst: 1, Imm: 0},
		{Op: ir.OpConst, Dst: 2, Imm: iters},
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
	return p
}

// tickingRT keeps per-instruction ticks live with a 64-instruction
// batching budget, so the ticking dispatch benchmarks run the executor's
// tick tail on every instruction.
type tickingRT struct{ interp.Direct }

func (tickingRT) TickLive() bool    { return true }
func (tickingRT) TickBudget() int64 { return 64 }

func benchDispatch(b *testing.B, bytecode bool, rt interp.Runtime) {
	prog := buildHotLoop(200_000)
	if err := prog.Validate(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := interp.New(prog.Clone(), libsim.New(mem.NewSpace()), rt)
		if err != nil {
			b.Fatal(err)
		}
		if bytecode {
			if err := interp.UseBytecode(m); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if out := m.Run(0); out.Kind != interp.OutExited {
			b.Fatalf("outcome %v", out.Kind)
		}
	}
}

func BenchmarkDispatchTree(b *testing.B)            { benchDispatch(b, false, nil) }
func BenchmarkDispatchBytecode(b *testing.B)        { benchDispatch(b, true, nil) }
func BenchmarkDispatchTreeTicking(b *testing.B)     { benchDispatch(b, false, tickingRT{}) }
func BenchmarkDispatchBytecodeTicking(b *testing.B) { benchDispatch(b, true, tickingRT{}) }
