// Package bytecode lowers ir programs to a flat register bytecode: every
// function's basic blocks are threaded into a single instruction stream
// with precomputed jump targets, adjacent instructions are fused into
// superinstructions (compare-and-branch, const-into-bin, load-op-store),
// and call/global references are resolved to direct pointers. Every
// instruction that calls into the runtime or leaves the function — library
// calls, returns, traps, gates, txbegin/txend, regsave — compiles to one
// OpEvent, which the executor runs on the tree-walker's own definition of
// the source instruction (Code.Src). The
// interpreter's bytecode backend (interp.NewBytecodeBackend) executes this
// format; the tree-walking interpreter remains the reference semantics.
//
// The lowering is a pure representation change. Every source instruction
// is still retired individually by the executor — one step-budget unit,
// one Steps increment, one cost-model charge and one runtime Tick per
// component — so cycle counts, HTM interrupt boundaries, snapshots and
// trap positions are bit-identical to the tree-walker. Fusion never
// crosses an instruction that can interact with the runtime's control
// flow: OpCall, OpEvent and div/rem (which can trap mid-pattern) always
// compile to single bytecode instructions.
//
// Every bytecode instruction records the (block, index) coordinates of its
// first source instruction, and Code.PCAt maps coordinates back to the
// covering instruction. Frame positions therefore stay in source
// coordinates: snapshots taken under one execution strategy restore under
// the other, and a position in the middle of a fused region (a step budget
// can expire between components) is simply not a bytecode boundary — the
// backend finishes the region one source instruction at a time and
// re-enters the stream at the next boundary.
//
// Compile reads the program once and resolves against its current shape;
// programs mutated after compilation (a test replacing a callee, say) must
// use the tree-walker.
package bytecode

import (
	"fmt"

	"github.com/firestarter-go/firestarter/internal/ir"
)

// Op enumerates bytecode opcodes: the ir opcodes plus the fused
// superinstructions.
type Op uint8

// Bytecode opcodes.
const (
	OpInvalid Op = iota
	OpConst
	OpMov
	OpBin
	OpNeg
	OpNot
	OpLoad
	OpStore
	OpStmStore
	OpFrameAddr
	OpGlobalAddr
	OpCall
	OpJmp
	OpBr
	// OpEvent is a source instruction that calls into the runtime or
	// leaves the function (ir.OpLib, OpRet, OpTrap, OpTxBegin, OpTxEnd,
	// OpRegSave, OpGate); the executor runs Code.Src(in) on the
	// tree-walker.
	OpEvent

	// OpCmpBr fuses OpBin (any operator except div/rem) with the block's
	// terminating OpBr branching on the bin's destination register.
	OpCmpBr
	// OpConstBin fuses OpConst with an immediately following OpBin (not
	// div/rem) reading the constant's register.
	OpConstBin
	// OpLoadBinStore fuses OpLoad + OpBin (not div/rem) + OpStore (or
	// OpStmStore) where the store writes the bin result back through the
	// load's address register, offset and width.
	OpLoadBinStore
)

var opNames = map[Op]string{
	OpConst: "const", OpMov: "mov", OpBin: "bin", OpNeg: "neg", OpNot: "not",
	OpLoad: "load", OpStore: "store", OpStmStore: "stmstore",
	OpFrameAddr: "frameaddr", OpGlobalAddr: "globaladdr", OpCall: "call",
	OpJmp: "jmp", OpBr: "br", OpEvent: "event", OpCmpBr: "cmp+br",
	OpConstBin: "const+bin", OpLoadBinStore: "load+bin+store",
}

// String returns the opcode's mnemonic.
func (op Op) String() string {
	if s, ok := opNames[op]; ok {
		return s
	}
	return fmt.Sprintf("bcop(%d)", int(op))
}

// Inst is one flat-stream instruction. Fields are interpreted per-opcode:
//
//   - single instructions carry their ir.Instr fields under the same
//     names (Dst/A/B/Imm/Width/Bin), with Then/Else rewritten from block
//     IDs to instruction-stream pcs, OpGlobalAddr's resolved address baked
//     into Imm, and OpCall's argument list and target interned into the
//     owning Code's side tables;
//   - OpEvent carries only its coordinates: the executor reads the source
//     instruction through Code.Src;
//   - OpCmpBr: Dst/A/B/Bin are the compare, Then/Else the branch pcs
//     (the branch register is the compare's Dst);
//   - OpConstBin: C/Imm are the constant's register and value, Dst/A/B/Bin
//     the bin;
//   - OpLoadBinStore: A/Imm/Width address the memory cell, Dst is the
//     load's destination, C/D/Bin the bin operands and operator, B the bin
//     destination (the value stored back), Stm marks an OpStmStore.
//
// Inst is deliberately pointer-free: a compiled stream is noscan memory
// the garbage collector never walks, so holding many compiled programs
// live (one per booted machine) adds no GC scan work.
type Inst struct {
	Op    Op
	Dst   int
	A, B  int
	C, D  int
	Imm   int64
	Width int
	Bin   ir.BinKind
	Then  int // pc target (OpJmp/OpBr/OpCmpBr)
	Else  int
	Stm   bool // OpLoadBinStore: store component is undo-logged

	// OpCall's interned references, resolved through the owning Code's
	// side tables: CalleeIdx indexes Code.callFns/callCodes, ArgOff/ArgN
	// slice Code.argPool.
	CalleeIdx int32
	ArgOff    int32
	ArgN      int32

	// Blk/Idx are the source coordinates of the first component; N is the
	// number of source instructions this instruction retires (1 unless
	// fused). BlockStart marks instructions whose first component opens a
	// basic block (the block-profiling hook point).
	Blk, Idx   int
	N          int
	BlockStart bool
}

// Code is one function's compiled stream.
type Code struct {
	Fn    *ir.Func
	Insts []Inst

	// Side tables for Inst's interned references (see Inst). Keeping the
	// pointers here, out of the instruction stream, makes Insts noscan.
	callFns   []*ir.Func
	callCodes []*Code // parallel to callFns, linked by Compile's second pass
	argPool   []int

	blockPC []int     // block ID -> pc of the block's first instruction
	pcAt    [][]int32 // [block][source idx] -> pc of the covering instruction
}

// Args returns in's interned argument registers.
func (c *Code) Args(in *Inst) []int { return c.argPool[in.ArgOff : in.ArgOff+in.ArgN] }

// Callee returns in's interned call target.
func (c *Code) Callee(in *Inst) *ir.Func { return c.callFns[in.CalleeIdx] }

// CalleeCode returns the compiled stream of in's call target.
func (c *Code) CalleeCode(in *Inst) *Code { return c.callCodes[in.CalleeIdx] }

// Src returns in's first source instruction: for OpEvent, the instruction
// the executor runs on the tree-walker.
func (c *Code) Src(in *Inst) *ir.Instr { return &c.Fn.Blocks[in.Blk].Instrs[in.Idx] }

func (c *Code) internCall(fn *ir.Func) int32 {
	for i, f := range c.callFns {
		if f == fn {
			return int32(i)
		}
	}
	c.callFns = append(c.callFns, fn)
	return int32(len(c.callFns) - 1)
}

func (c *Code) internArgs(args []int) (off, n int32) {
	off = int32(len(c.argPool))
	c.argPool = append(c.argPool, args...)
	return off, int32(len(args))
}

// EntryPC returns the pc of the given block's first instruction.
func (c *Code) EntryPC(blk int) int { return c.blockPC[blk] }

// PCAt maps source coordinates to the covering instruction's pc. aligned
// reports whether the position is an instruction boundary (the first
// component); a mid-fusion position, or one outside the function, returns
// aligned=false and the caller must fall back to source-level stepping.
func (c *Code) PCAt(blk, idx int) (pc int, aligned bool) {
	if blk < 0 || blk >= len(c.pcAt) {
		return 0, false
	}
	row := c.pcAt[blk]
	if idx < 0 || idx >= len(row) {
		return 0, false
	}
	pc = int(row[idx])
	return pc, c.Insts[pc].Idx == idx && c.Insts[pc].Blk == blk
}

// Program is a compiled ir.Program.
type Program struct {
	// Src is the source program; the executor validates that a machine
	// runs the same program instance the bytecode was compiled from.
	Src *ir.Program

	codes []*Code // indexed by ir.Func.Index
}

// Code returns the compiled stream for f (nil for functions the compiled
// program does not know, e.g. after post-compile mutation).
func (p *Program) Code(f *ir.Func) *Code {
	if uint(f.Index) < uint(len(p.codes)) {
		if c := p.codes[f.Index]; c.Fn == f {
			return c
		}
	}
	return nil
}

// Compile lowers a resolved program (see ir.Program.Resolve) to bytecode.
func Compile(src *ir.Program) (*Program, error) {
	names := src.FuncNames()
	p := &Program{Src: src, codes: make([]*Code, len(names))}
	for i, name := range names {
		f := src.Funcs[name]
		if f.Index != i {
			return nil, fmt.Errorf("bytecode: %s: unresolved function index (run ir.Program.Resolve before Compile)", name)
		}
		c, err := compileFunc(src, f)
		if err != nil {
			return nil, fmt.Errorf("bytecode: %s: %w", name, err)
		}
		p.codes[i] = c
	}
	// Second pass: cross-function call targets become direct Code
	// pointers so the executor switches streams without a lookup.
	for _, c := range p.codes {
		c.callCodes = make([]*Code, len(c.callFns))
		for i, fn := range c.callFns {
			cc := p.Code(fn)
			if cc == nil {
				return nil, fmt.Errorf("bytecode: %s calls %q outside the program", c.Fn.Name, fn.Name)
			}
			c.callCodes[i] = cc
		}
	}
	return p, nil
}

func compileFunc(src *ir.Program, f *ir.Func) (*Code, error) {
	c := &Code{
		Fn:      f,
		blockPC: make([]int, len(f.Blocks)),
		pcAt:    make([][]int32, len(f.Blocks)),
	}
	for bi, b := range f.Blocks {
		if b.ID != bi {
			return nil, fmt.Errorf("block %d has ID %d (layout requires ID == index)", bi, b.ID)
		}
		c.blockPC[bi] = len(c.Insts)
		row := make([]int32, len(b.Instrs))
		for i := 0; i < len(b.Instrs); {
			pc := len(c.Insts)
			inst, n, err := translate(c, src, b, i)
			if err != nil {
				return nil, fmt.Errorf("b%d.%d: %w", b.ID, i, err)
			}
			inst.Blk, inst.Idx, inst.N = b.ID, i, n
			inst.BlockStart = i == 0
			c.Insts = append(c.Insts, inst)
			for k := 0; k < n; k++ {
				row[i+k] = int32(pc)
			}
			i += n
		}
		c.pcAt[bi] = row
	}
	// Patch branch targets from block IDs to stream pcs.
	for i := range c.Insts {
		in := &c.Insts[i]
		switch in.Op {
		case OpJmp:
			in.Then = c.blockPC[in.Then]
		case OpBr, OpCmpBr:
			in.Then = c.blockPC[in.Then]
			in.Else = c.blockPC[in.Else]
		}
	}
	return c, nil
}

// fusableBin reports whether a binary operator is safe inside a fused
// superinstruction: div/rem can trap between components, so they always
// compile alone.
func fusableBin(b ir.BinKind) bool { return b != ir.BinDiv && b != ir.BinRem }

// translate compiles the instruction at b.Instrs[i], fusing with its
// successors when a superinstruction pattern matches. HTM/STM variant
// clones are instruction-parallel with only OpStore<->OpStmStore (and
// branch-target) differences, and the matcher treats the two store kinds
// identically, so both clones fuse at the same boundaries — which keeps
// the interpreter's same-index flow switches landing on boundaries.
func translate(c *Code, src *ir.Program, b *ir.Block, i int) (Inst, int, error) {
	ins := b.Instrs
	in := &ins[i]

	// load-op-store: read-modify-write of one memory cell.
	if in.Op == ir.OpLoad && i+2 < len(ins) {
		bn, st := &ins[i+1], &ins[i+2]
		if bn.Op == ir.OpBin && fusableBin(bn.Bin) &&
			(st.Op == ir.OpStore || st.Op == ir.OpStmStore) &&
			st.A == in.A && st.Imm == in.Imm && st.Width == in.Width &&
			st.B == bn.Dst {
			return Inst{
				Op: OpLoadBinStore, A: in.A, Imm: in.Imm, Width: in.Width,
				Dst: in.Dst, C: bn.A, D: bn.B, Bin: bn.Bin, B: bn.Dst,
				Stm: st.Op == ir.OpStmStore,
			}, 3, nil
		}
	}

	// compare-and-branch: a bin feeding the block's terminator.
	if in.Op == ir.OpBin && fusableBin(in.Bin) && i+1 == len(ins)-1 &&
		ins[i+1].Op == ir.OpBr && ins[i+1].A == in.Dst {
		br := &ins[i+1]
		return Inst{
			Op: OpCmpBr, Dst: in.Dst, A: in.A, B: in.B, Bin: in.Bin,
			Then: br.Then, Else: br.Else,
		}, 2, nil
	}

	// const-into-bin: an immediate operand materialized just before use.
	if in.Op == ir.OpConst && i+1 < len(ins) {
		bn := &ins[i+1]
		if bn.Op == ir.OpBin && fusableBin(bn.Bin) &&
			(bn.A == in.Dst || bn.B == in.Dst) {
			return Inst{
				Op: OpConstBin, C: in.Dst, Imm: in.Imm,
				Dst: bn.Dst, A: bn.A, B: bn.B, Bin: bn.Bin,
			}, 2, nil
		}
	}

	inst, err := single(c, src, in)
	return inst, 1, err
}

func single(c *Code, src *ir.Program, in *ir.Instr) (Inst, error) {
	switch in.Op {
	case ir.OpConst:
		return Inst{Op: OpConst, Dst: in.Dst, Imm: in.Imm}, nil
	case ir.OpMov:
		return Inst{Op: OpMov, Dst: in.Dst, A: in.A}, nil
	case ir.OpBin:
		return Inst{Op: OpBin, Dst: in.Dst, A: in.A, B: in.B, Bin: in.Bin}, nil
	case ir.OpNeg:
		return Inst{Op: OpNeg, Dst: in.Dst, A: in.A}, nil
	case ir.OpNot:
		return Inst{Op: OpNot, Dst: in.Dst, A: in.A}, nil
	case ir.OpLoad:
		return Inst{Op: OpLoad, Dst: in.Dst, A: in.A, Imm: in.Imm, Width: in.Width}, nil
	case ir.OpStore:
		return Inst{Op: OpStore, A: in.A, B: in.B, Imm: in.Imm, Width: in.Width}, nil
	case ir.OpStmStore:
		return Inst{Op: OpStmStore, A: in.A, B: in.B, Imm: in.Imm, Width: in.Width}, nil
	case ir.OpFrameAddr:
		return Inst{Op: OpFrameAddr, Dst: in.Dst, Imm: in.Imm}, nil
	case ir.OpGlobalAddr:
		if in.Global == nil {
			return Inst{}, fmt.Errorf("unresolved global %q (run ir.Program.Resolve before Compile)", in.Name)
		}
		return Inst{Op: OpGlobalAddr, Dst: in.Dst, Imm: in.Global.Addr}, nil
	case ir.OpCall:
		callee := src.Callee(in)
		if callee == nil {
			return Inst{}, fmt.Errorf("unresolved callee %q (run ir.Program.Resolve before Compile)", in.Name)
		}
		off, n := c.internArgs(in.Args)
		return Inst{Op: OpCall, Dst: in.Dst, CalleeIdx: c.internCall(callee), ArgOff: off, ArgN: n}, nil
	case ir.OpJmp:
		return Inst{Op: OpJmp, Then: in.Then}, nil
	case ir.OpBr:
		return Inst{Op: OpBr, A: in.A, Then: in.Then, Else: in.Else}, nil
	case ir.OpLib, ir.OpRet, ir.OpTrap, ir.OpTxBegin, ir.OpTxEnd, ir.OpRegSave, ir.OpGate:
		return Inst{Op: OpEvent}, nil
	default:
		return Inst{}, fmt.Errorf("unknown opcode %d", int(in.Op))
	}
}
