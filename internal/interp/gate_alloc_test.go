package interp_test

import (
	"testing"

	"github.com/firestarter-go/firestarter/internal/interp"
	"github.com/firestarter-go/firestarter/internal/ir"
	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/mem"
)

// buildGateLoop hand-assembles an endless transaction loop in the shape
// the transform pass emits: txend + boundary libcall + gate, then
// regsave + txbegin + store + txend in the chosen variant's clone, back
// to the top. The call nests one frame deep so a gate snapshot spans two
// frames.
func buildGateLoop(t testing.TB) *ir.Program {
	t.Helper()
	p := ir.NewProgram()
	p.AddGlobal("g", 8, nil)

	f := &ir.Func{Name: "serve", NumRegs: 4}
	f.NewBlock("entry").Instrs = []ir.Instr{{Op: ir.OpJmp, Then: 1}}
	f.NewBlock("loop").Instrs = []ir.Instr{
		{Op: ir.OpTxEnd},
		{Op: ir.OpLib, Dst: 0, Name: "getpid", Site: 1},
		{Op: ir.OpGate, Site: 1, Dst: 0, Then: 2, Else: 3},
	}
	for i, v := range []int64{ir.TxHTM, ir.TxSTM} {
		store := ir.OpStore
		if v == ir.TxSTM {
			store = ir.OpStmStore
		}
		b := f.NewBlock("cont")
		b.Variant = int(v)
		b.Counterpart = 3 - i
		b.Instrs = []ir.Instr{
			{Op: ir.OpRegSave},
			{Op: ir.OpTxBegin, Site: 1, Imm: v},
			{Op: ir.OpGlobalAddr, Dst: 1, Name: "g"},
			{Op: store, A: 1, B: 0, Width: 8},
			{Op: ir.OpTxEnd},
			{Op: ir.OpJmp, Then: 1},
		}
	}
	p.AddFunc(f)

	main := &ir.Func{Name: "main", NumRegs: 1}
	main.NewBlock("entry").Instrs = []ir.Instr{
		{Op: ir.OpCall, Dst: 0, Name: "serve"},
		{Op: ir.OpRet, A: 0},
	}
	p.AddFunc(main)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// keepRT is a pass-through runtime that, like core, keeps every gate
// snapshot for rollback and restores it on request.
type keepRT struct {
	interp.Direct
	variant int64
	gates   int
	snap    *interp.Snapshot
}

func (r *keepRT) Gate(_ *interp.Machine, _ int, snap *interp.Snapshot) (int64, bool, int64) {
	r.gates++
	r.snap = snap
	return r.variant, false, 0
}

// gateLoopMachine boots the gate loop on the named backend.
func gateLoopMachine(t testing.TB, backend string, rt interp.Runtime) *interp.Machine {
	t.Helper()
	m, err := interp.New(buildGateLoop(t), libsim.New(mem.NewSpace()), rt)
	if err != nil {
		t.Fatal(err)
	}
	if backend == "bytecode" {
		if err := interp.UseBytecode(m); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestGateSnapshotAllocFree pins the steady-state gate path: once the
// machine-owned gate buffer has grown to the gated stack depth, a
// gate → txbegin → store → txend iteration allocates nothing, on both
// backends and in both transaction variants.
func TestGateSnapshotAllocFree(t *testing.T) {
	for _, backend := range []string{"tree", "bytecode"} {
		for _, variant := range []int64{ir.TxHTM, ir.TxSTM} {
			rt := &keepRT{variant: variant}
			m := gateLoopMachine(t, backend, rt)
			if out := m.Run(1000); out.Kind != interp.OutStepLimit { // warm-up
				t.Fatalf("%s/%d: warm-up outcome %v", backend, variant, out.Kind)
			}
			before := rt.gates
			const runs = 50
			allocs := testing.AllocsPerRun(runs, func() {
				if out := m.Run(1000); out.Kind != interp.OutStepLimit {
					t.Fatalf("outcome %v", out.Kind)
				}
			})
			gates := rt.gates - before
			if gates < runs*50 {
				t.Fatalf("%s/%d: only %d gates in %d runs", backend, variant, gates, runs)
			}
			if allocs != 0 {
				t.Errorf("%s/%d: %.2f allocs per 1000-step run (~%d gates), want 0",
					backend, variant, allocs, gates/(runs+1))
			}
		}
	}
}

// TestSnapshotIndependentOfGates is the contract the checkpoint ring,
// the quiesce point and replay rely on: a Snapshot taken before further
// gates still restores the same state after them, while the snapshot
// handed to Runtime.Gate is the machine's reused buffer and never one
// Snapshot returned.
func TestSnapshotIndependentOfGates(t *testing.T) {
	for _, backend := range []string{"tree", "bytecode"} {
		rt := &keepRT{variant: ir.TxHTM}
		m := gateLoopMachine(t, backend, rt)
		if out := m.Run(25); out.Kind != interp.OutStepLimit {
			t.Fatalf("%s: outcome %v", backend, out.Kind)
		}
		kept := m.Snapshot()
		want := kept.Digest()
		gateBuf := rt.snap
		gatesBefore := rt.gates

		if out := m.Run(500); out.Kind != interp.OutStepLimit {
			t.Fatalf("%s: outcome %v", backend, out.Kind)
		}
		if rt.gates == gatesBefore {
			t.Fatalf("%s: no gates ran after the snapshot", backend)
		}
		if rt.snap != gateBuf {
			t.Errorf("%s: gate snapshot buffer was not reused across gates", backend)
		}
		if rt.snap == kept {
			t.Fatalf("%s: Snapshot returned the machine's gate buffer", backend)
		}
		if got := kept.Digest(); got != want {
			t.Fatalf("%s: kept snapshot changed under later gates: %#x, want %#x", backend, got, want)
		}
		m.Restore(kept)
		if got := m.Snapshot().Digest(); got != want {
			t.Fatalf("%s: restored state digests %#x, want %#x", backend, got, want)
		}
		// The restored machine keeps running from the kept position.
		if out := m.Run(500); out.Kind != interp.OutStepLimit {
			t.Fatalf("%s: outcome after restore %v", backend, out.Kind)
		}
	}
}
