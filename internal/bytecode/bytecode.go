// Package bytecode lowers ir programs to a flat register bytecode: every
// function's basic blocks are threaded into a single instruction stream
// with precomputed jump targets, one bytecode instruction per source
// instruction, and call/global references are resolved to direct
// pointers. Every instruction that calls into the runtime or leaves the
// function — library calls, returns, traps, gates, txbegin/txend,
// regsave — compiles to one OpEvent, which the executor runs on the
// tree-walker's own definition of the source instruction (Code.Src). The
// interpreter's bytecode backend (interp.NewBytecodeBackend) executes this
// format; the tree-walking interpreter remains the reference semantics.
//
// The lowering is a pure representation change: the executor retires
// each instruction with one step-budget unit, one Steps increment, one
// cost-model charge and one runtime Tick, so cycle counts, HTM interrupt
// boundaries, snapshots and trap positions are bit-identical to the
// tree-walker.
//
// Every bytecode instruction records the (block, index) coordinates of its
// source instruction, and a block's instructions are contiguous in the
// stream, so Code.PCAt maps coordinates back to a pc by offsetting the
// block's entry. Frame positions therefore stay in source coordinates:
// snapshots taken under one execution strategy restore under the other.
//
// Compile reads the program once and resolves against its current shape;
// programs mutated after compilation (a test replacing a callee, say) must
// use the tree-walker.
package bytecode

import (
	"fmt"

	"github.com/firestarter-go/firestarter/internal/ir"
)

// Op enumerates bytecode opcodes: the ir opcodes that run in the stream,
// plus OpEvent for the ones that run on the tree-walker.
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
)

var opNames = map[Op]string{
	OpConst: "const", OpMov: "mov", OpBin: "bin", OpNeg: "neg", OpNot: "not",
	OpLoad: "load", OpStore: "store", OpStmStore: "stmstore",
	OpFrameAddr: "frameaddr", OpGlobalAddr: "globaladdr", OpCall: "call",
	OpJmp: "jmp", OpBr: "br", OpEvent: "event",
}

// String returns the opcode's mnemonic.
func (op Op) String() string {
	if s, ok := opNames[op]; ok {
		return s
	}
	return fmt.Sprintf("bcop(%d)", int(op))
}

// Inst is one flat-stream instruction. It carries its ir.Instr's fields
// under the same names (Dst/A/B/Imm/Width/Bin), with Then/Else rewritten
// from block IDs to instruction-stream pcs, OpGlobalAddr's resolved
// address baked into Imm, and OpCall's argument list and target interned
// into the owning Code's side tables. OpEvent carries only its
// coordinates: the executor reads the source instruction through
// Code.Src.
//
// Inst is deliberately pointer-free: a compiled stream is noscan memory
// the garbage collector never walks, so holding many compiled programs
// live (one per booted machine) adds no GC scan work.
type Inst struct {
	Op    Op
	Dst   int
	A, B  int
	Imm   int64
	Width int
	Bin   ir.BinKind
	Then  int // pc target (OpJmp/OpBr)
	Else  int

	// OpCall's interned references, resolved through the owning Code's
	// side tables: CalleeIdx indexes Code.callFns/callCodes, ArgOff/ArgN
	// slice Code.argPool.
	CalleeIdx int32
	ArgOff    int32
	ArgN      int32

	// Blk/Idx are the source instruction's coordinates; Idx 0 opens a
	// basic block (the block-profiling hook point).
	Blk, Idx int
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

	// blockPC maps a block ID to the pc of the block's first instruction;
	// its last entry is len(Insts).
	blockPC []int
}

// Args returns in's interned argument registers.
func (c *Code) Args(in *Inst) []int { return c.argPool[in.ArgOff : in.ArgOff+in.ArgN] }

// Callee returns in's interned call target.
func (c *Code) Callee(in *Inst) *ir.Func { return c.callFns[in.CalleeIdx] }

// CalleeCode returns the compiled stream of in's call target.
func (c *Code) CalleeCode(in *Inst) *Code { return c.callCodes[in.CalleeIdx] }

// Src returns in's source instruction: for OpEvent, the instruction the
// executor runs on the tree-walker.
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

// PCAt maps source coordinates to their instruction's pc. ok is false for
// coordinates outside the function; the caller must then fall back to
// source-level stepping.
func (c *Code) PCAt(blk, idx int) (pc int, ok bool) {
	if blk < 0 || blk >= len(c.blockPC)-1 || idx < 0 {
		return 0, false
	}
	pc = c.blockPC[blk] + idx
	return pc, pc < c.blockPC[blk+1]
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
	c := &Code{Fn: f, blockPC: make([]int, len(f.Blocks)+1)}
	for bi, b := range f.Blocks {
		if b.ID != bi {
			return nil, fmt.Errorf("block %d has ID %d (layout requires ID == index)", bi, b.ID)
		}
		c.blockPC[bi+1] = c.blockPC[bi] + len(b.Instrs)
	}
	c.Insts = make([]Inst, 0, c.blockPC[len(f.Blocks)])
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			inst, err := single(c, src, &b.Instrs[i])
			if err != nil {
				return nil, fmt.Errorf("b%d.%d: %w", b.ID, i, err)
			}
			inst.Blk, inst.Idx = b.ID, i
			c.Insts = append(c.Insts, inst)
		}
	}
	return c, nil
}

// single lowers one source instruction.
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
		return Inst{Op: OpJmp, Then: c.blockPC[in.Then]}, nil
	case ir.OpBr:
		return Inst{Op: OpBr, A: in.A, Then: c.blockPC[in.Then], Else: c.blockPC[in.Else]}, nil
	case ir.OpLib, ir.OpRet, ir.OpTrap, ir.OpTxBegin, ir.OpTxEnd, ir.OpRegSave, ir.OpGate:
		return Inst{Op: OpEvent}, nil
	default:
		return Inst{}, fmt.Errorf("unknown opcode %d", int(in.Op))
	}
}
