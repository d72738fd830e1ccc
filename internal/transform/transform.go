// Package transform implements FIRestarter's compiler transformation
// pipeline (Fig. 1 of the paper) as IR-to-IR passes:
//
//  1. Library Interface Analyzer (package analysis + package libmodel):
//     assigns site IDs and classifies every library call site as a
//     transaction Gate, an Embedded call, or a transaction Break.
//  2. Adaptive Transaction Shaper: splits basic blocks so that every Gate
//     call ends its block, inserts a transaction-end before every Gate and
//     Break call, and plants a transaction entry gate (ir.OpGate) right
//     after each Gate call.
//  3. Checkpoint Manager: clones every function into an HTM variant and an
//     STM variant (stores become undo-logged OpStmStore in the latter),
//     prepends register-save + transaction-begin instrumentation to each
//     gate target, and wires the gates to dispatch between the variants —
//     the code layout of the paper's Fig. 2/4. The clones are instruction-
//     parallel, which is what lets the interpreter's return-site flow
//     switch move between variants at the same index.
//  4. Fault Injector: instrumentation-wise this is the gate's inject path
//     (the gate writes the library call's documented error value into its
//     return register); the decision logic lives in the recovery runtime
//     (package core).
//
// The input program is left untouched; Apply returns an instrumented deep
// copy, so the vanilla program remains available as the benchmark baseline.
package transform

import (
	"fmt"

	"github.com/firestarter-go/firestarter/internal/analysis"
	"github.com/firestarter-go/firestarter/internal/ir"
	"github.com/firestarter-go/firestarter/internal/libmodel"
)

// Result is the transformed program plus the metadata the recovery runtime
// needs at execution time.
type Result struct {
	// Prog is the instrumented program.
	Prog *ir.Program

	// Analysis is the site analysis of the instrumented program.
	Analysis *analysis.Result

	// Model is the library model used.
	Model *libmodel.Model
}

// Apply runs the full pipeline over a deep copy of prog.
func Apply(prog *ir.Program, model *libmodel.Model) (*Result, error) {
	if model == nil {
		model = libmodel.Default()
	}
	p := prog.Clone()

	// Pass 1: Library Interface Analyzer.
	res := analysis.Analyze(p, model)

	// Passes 2+3 per function.
	for _, name := range p.FuncNames() {
		f := p.Funcs[name]
		shapeFunc(f, res.ByID)
		cloneFunc(f)
	}

	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("transform: instrumented program invalid: %w", err)
	}
	// Pre-resolve call and global references so instrumented programs hit
	// the interpreter's load-time fast path without another pass.
	if err := p.Resolve(); err != nil {
		return nil, fmt.Errorf("transform: resolving instrumented program: %w", err)
	}
	return &Result{Prog: p, Analysis: res, Model: model}, nil
}

// shapeFunc is the Adaptive Transaction Shaper: it splits blocks at Gate
// calls and inserts transaction ends. After this pass every Gate call site
// is the second-to-last instruction of its block, followed only by an
// OpGate terminator whose Then/Else both point at the continuation block
// (retargeted to the variant clones by cloneFunc).
func shapeFunc(f *ir.Func, sites []*analysis.Site) {
	// Iterate with an explicit index: blocks appended during splitting
	// must themselves be scanned.
	for bi := 0; bi < len(f.Blocks); bi++ {
		b := f.Blocks[bi]
		for i := 0; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			if in.Op != ir.OpLib {
				continue
			}
			site := sites[in.Site]
			if site == nil {
				continue
			}
			switch site.Role {
			case analysis.RoleEmbed:
				continue
			case analysis.RoleBreak:
				// Commit the running transaction before the
				// irrecoverable call; execution continues unprotected.
				b.Instrs = insertAt(b.Instrs, i, ir.Instr{Op: ir.OpTxEnd})
				i++ // skip over the call we just shifted
			case analysis.RoleGate:
				// Split: continuation moves to a fresh block.
				cont := f.NewBlock(fmt.Sprintf("%s.post%d", b.Label, in.Site))
				cont.Counterpart = -1
				cont.Instrs = append(cont.Instrs, b.Instrs[i+1:]...)
				kept := b.Instrs[:i+1]
				// [... txend, lib, gate]
				kept = insertAt(kept, i, ir.Instr{Op: ir.OpTxEnd})
				kept = append(kept, ir.Instr{
					Op:   ir.OpGate,
					Site: in.Site,
					Dst:  in.Dst,
					Then: cont.ID,
					Else: cont.ID,
				})
				b.Instrs = kept
				// Prepend the checkpoint instrumentation to the
				// continuation; the STM clone's copy becomes the
				// STM variant of it.
				cont.Instrs = append([]ir.Instr{
					{Op: ir.OpRegSave},
					{Op: ir.OpTxBegin, Site: in.Site, Imm: ir.TxHTM},
				}, cont.Instrs...)
				// The rest of this block is the gate terminator;
				// continue scanning in the continuation block (it is
				// appended, so the outer loop reaches it).
				i = len(b.Instrs)
			}
		}
	}
}

func insertAt(instrs []ir.Instr, i int, in ir.Instr) []ir.Instr {
	instrs = append(instrs, ir.Instr{})
	copy(instrs[i+1:], instrs[i:])
	instrs[i] = in
	return instrs
}

// cloneFunc is the Checkpoint Manager's code-cloning pass: the function's
// N blocks (the HTM variant) are duplicated into N STM-variant blocks with
// undo-log instrumentation, and gates/branches are wired so that a dynamic
// transaction stays on one variant until its gate decides otherwise.
func cloneFunc(f *ir.Func) {
	n := len(f.Blocks)
	for i := 0; i < n; i++ {
		orig := f.Blocks[i]
		orig.Variant = ir.TxHTM
		orig.Counterpart = i + n

		clone := &ir.Block{
			ID:          i + n,
			Label:       orig.Label + ".stm",
			Variant:     ir.TxSTM,
			Counterpart: i,
			Instrs:      make([]ir.Instr, len(orig.Instrs)),
		}
		copy(clone.Instrs, orig.Instrs)
		for j := range clone.Instrs {
			in := &clone.Instrs[j]
			if in.Args != nil {
				in.Args = append([]int(nil), in.Args...)
			}
			switch in.Op {
			case ir.OpStore:
				in.Op = ir.OpStmStore
			case ir.OpTxBegin:
				in.Imm = ir.TxSTM
			case ir.OpJmp:
				in.Then += n
			case ir.OpBr:
				in.Then += n
				in.Else += n
			case ir.OpGate:
				// Gates dispatch across variants: Then stays in the
				// HTM set, Else moves to the STM set — in both copies.
			}
		}
		f.Blocks = append(f.Blocks, clone)
	}
	// Retarget every gate's Else to the STM clone of its continuation.
	for i := 0; i < n; i++ {
		for j := range f.Blocks[i].Instrs {
			in := &f.Blocks[i].Instrs[j]
			if in.Op == ir.OpGate {
				in.Else = in.Then + n
				// Mirror into the STM copy (same index).
				cl := &f.Blocks[i+n].Instrs[j]
				cl.Then = in.Then
				cl.Else = in.Else
			}
		}
	}
	f.Cloned = true
	f.EntryHTM = 0
	f.EntrySTM = n
}
