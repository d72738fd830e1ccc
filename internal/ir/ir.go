// Package ir defines the intermediate representation that the mini-C
// frontend compiles to and that the FIRestarter transformation passes
// operate on.
//
// The IR is a conventional register machine: each function owns a set of
// 64-bit virtual registers and a list of basic blocks; the last instruction
// of every block is a terminator (jmp/br/ret/trap). Memory is accessed
// through explicit load/store instructions against the simulated address
// space (package mem). Interaction with the environment happens exclusively
// through OpLib instructions, which name a simulated library function
// (package libsim) — these are the seams where FIRestarter plants its
// transaction boundaries.
//
// The representation is deliberately non-SSA: registers are mutable. This
// keeps the Checkpoint Manager's code-cloning pass (which must merge local
// state between the HTM and STM variants of a region, §IV-B of the paper)
// a straightforward block-level transformation.
package ir

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Opcode enumerates IR instruction kinds.
type Opcode int

// Instruction opcodes. The first group is produced by the frontend; the
// second group (Tx*, StmStore, RegSave, Gate) is inserted only by the
// FIRestarter transformation passes.
const (
	OpConst      Opcode = iota + 1 // Dst = Imm
	OpMov                          // Dst = A
	OpBin                          // Dst = A <Bin> B
	OpNeg                          // Dst = -A
	OpNot                          // Dst = (A == 0) ? 1 : 0
	OpLoad                         // Dst = mem[A + Imm] (Width bytes, zero-extended)
	OpStore                        // mem[A + Imm] = B (Width bytes)
	OpFrameAddr                    // Dst = frame pointer + Imm
	OpGlobalAddr                   // Dst = address of global Name
	OpCall                         // Dst = Name(Args...)
	OpLib                          // Dst = library call Name(Args...)
	OpJmp                          // goto Then
	OpBr                           // if A != 0 goto Then else goto Else
	OpRet                          // return A (A < 0 means no value)
	OpTrap                         // fatal fault (fail-stop crash); Imm = trap code

	// Instrumentation opcodes (inserted by internal/transform).
	OpTxBegin  // begin transaction at gate Site; Imm = variant (TxHTM/TxSTM)
	OpTxEnd    // commit the current transaction
	OpStmStore // like OpStore, but logs the old value to the undo log first
	OpRegSave  // snapshot registers for STM rollback (setjmp analog)
	OpGate     // transaction entry gate for Site: dispatch on gate state
)

// Trap codes carried in the Imm field of OpTrap.
const (
	TrapInjected  = 1 // planted by the fault injector (persistent fatal fault)
	TrapAssert    = 2 // application assertion failure
	TrapDivZero   = 3 // division by zero
	TrapBadAccess = 4 // set by the interpreter on unmapped memory access
	TrapBadCall   = 5 // OpCall whose callee cannot be resolved at run time
	TrapDomain    = 6 // cross-domain access under heap-domain isolation
)

// BinKind enumerates binary operators for OpBin.
type BinKind int

// Binary operators.
const (
	BinAdd BinKind = iota + 1
	BinSub
	BinMul
	BinDiv
	BinRem
	BinAnd
	BinOr
	BinXor
	BinShl
	BinShr
	BinEq
	BinNe
	BinLt
	BinLe
	BinGt
	BinGe
)

var binNames = map[BinKind]string{
	BinAdd: "+", BinSub: "-", BinMul: "*", BinDiv: "/", BinRem: "%",
	BinAnd: "&", BinOr: "|", BinXor: "^", BinShl: "<<", BinShr: ">>",
	BinEq: "==", BinNe: "!=", BinLt: "<", BinLe: "<=", BinGt: ">", BinGe: ">=",
}

// String returns the operator's source-level spelling.
func (b BinKind) String() string {
	if s, ok := binNames[b]; ok {
		return s
	}
	return fmt.Sprintf("bin(%d)", int(b))
}

// Eval applies the operator to two signed 64-bit operands. Comparison
// operators yield 0 or 1. Division and remainder by zero are reported via
// ok=false so the interpreter can raise a trap.
func (b BinKind) Eval(x, y int64) (v int64, ok bool) {
	switch b {
	case BinAdd:
		return x + y, true
	case BinSub:
		return x - y, true
	case BinMul:
		return x * y, true
	case BinDiv:
		if y == 0 {
			return 0, false
		}
		return x / y, true
	case BinRem:
		if y == 0 {
			return 0, false
		}
		return x % y, true
	case BinAnd:
		return x & y, true
	case BinOr:
		return x | y, true
	case BinXor:
		return x ^ y, true
	case BinShl:
		return x << (uint64(y) & 63), true
	case BinShr:
		return x >> (uint64(y) & 63), true
	case BinEq:
		return b2i(x == y), true
	case BinNe:
		return b2i(x != y), true
	case BinLt:
		return b2i(x < y), true
	case BinLe:
		return b2i(x <= y), true
	case BinGt:
		return b2i(x > y), true
	case BinGe:
		return b2i(x >= y), true
	default:
		return 0, false
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Transaction variant selectors carried in the Imm field of OpTxBegin.
const (
	TxHTM = 1
	TxSTM = 2
)

// Instr is a single IR instruction. Fields are interpreted per-opcode; see
// the Opcode constants. A flat struct (rather than an interface hierarchy)
// keeps the interpreter's dispatch loop allocation-free.
type Instr struct {
	Op    Opcode
	Dst   int     // destination register (-1 if unused)
	A, B  int     // register operands
	Imm   int64   // immediate / offset / variant / trap code
	Width int     // access width in bytes for OpLoad/OpStore/OpStmStore
	Bin   BinKind // operator for OpBin
	Name  string  // callee (OpCall), library function (OpLib), global (OpGlobalAddr)
	Args  []int   // argument registers for OpCall/OpLib
	Then  int     // target block for OpJmp/OpBr, gate block for OpGate
	Else  int     // false target for OpBr

	// Site is a program-unique library-call-site identifier assigned by
	// the Library Interface Analyzer. It links an OpLib instruction with
	// the OpGate/OpTxBegin instrumentation derived from it. Zero means
	// unassigned.
	Site int

	// Pos is the source position (line number) carried from the frontend
	// for diagnostics; zero when synthesized.
	Pos int32

	// Lib (for OpLib) is the library function's dense ID, a resolution
	// cache filled by Program.Link from the loader's library symbol
	// table. Name stays authoritative here too: the library re-resolves
	// a call whose ID does not name its function. Lib shares a word with
	// Pos, so the cache does not grow the instruction.
	Lib int32

	// Callee (for OpCall) and Global (for OpGlobalAddr) are resolution
	// caches filled by Program.Resolve so the interpreter's hot loop can
	// skip per-instruction map lookups. Name stays authoritative. Callee
	// is one plus the called function's Index, 0 while unresolved: an
	// index, not a pointer, because a call resolves per program
	// (Program.Callee), so an instruction shared by a program and one
	// derived from it (Program.Derive) calls each program's own function
	// of that name. Global must point at a global of the owning program
	// (Clone remaps it; a derived program shares its base's globals). The
	// interpreter falls back to a by-name lookup — trapping with
	// TrapBadCall on failure — whenever Callee is 0.
	Callee int32
	Global *Global
}

// Block is a basic block: a straight-line instruction sequence ending in a
// terminator. ID is the block's index in its function's Blocks slice.
type Block struct {
	ID     int
	Label  string
	Instrs []Instr

	// Variant tags blocks produced by the Checkpoint Manager's cloning
	// pass: 0 for original/shared blocks, TxHTM or TxSTM for clones.
	// Counterpart holds the block ID of the same code in the other
	// variant (used by flow switches at return sites), or -1.
	Variant     int
	Counterpart int
}

// Terminator returns the block's final instruction, or nil if the block is
// empty or ends in a non-terminator (which Validate reports as an error).
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := &b.Instrs[len(b.Instrs)-1]
	switch t.Op {
	case OpJmp, OpBr, OpRet, OpTrap, OpGate:
		// OpGate is a two-way terminator: Then is the HTM clone of the
		// following region, Else the STM clone.
		return t
	}
	return nil
}

// Func is an IR function.
type Func struct {
	Name    string
	Params  int // parameters arrive in registers 0..Params-1
	NumRegs int // total virtual registers (>= Params)
	Blocks  []*Block

	// FrameSize is the number of bytes of simulated stack memory the
	// function needs for address-taken locals and arrays.
	FrameSize int64

	// Cloned marks functions already processed by the Checkpoint
	// Manager (they have HTM/STM variants and an entry flow switch).
	Cloned bool

	// EntryHTM and EntrySTM are the entry block IDs of the two variants
	// of a cloned function. The interpreter's call dispatch acts as the
	// paper's function-entry flow switch: it enters the variant matching
	// the caller's current transaction type. Both are 0 for un-cloned
	// functions.
	EntryHTM int
	EntrySTM int

	// Index is the function's dense index in its program, in name order
	// (FuncNames), filled by Program.Resolve so per-function tables are
	// slices rather than maps keyed by *Func. A program and the programs
	// derived from it hold the same names, so a shared function's index
	// is the same in all of them.
	Index int
}

// NewBlock appends a fresh block with the given label and returns it.
func (f *Func) NewBlock(label string) *Block {
	b := &Block{ID: len(f.Blocks), Label: label, Counterpart: -1}
	f.Blocks = append(f.Blocks, b)
	return b
}

// NewReg allocates a fresh virtual register and returns its index.
func (f *Func) NewReg() int {
	r := f.NumRegs
	f.NumRegs++
	return r
}

// Global is a program global: a named, fixed-size region in the data
// segment, optionally initialized with Data (zero-filled beyond it).
type Global struct {
	Name string
	Size int64
	Data []byte
	Addr int64 // assigned by Link
}

// Extent is the number of bytes a loader maps for g: its Size, or one
// 8-byte word for a global declared without one.
func (g *Global) Extent() int64 {
	if g.Size <= 0 {
		return 8
	}
	return g.Size
}

// Program is a complete compilation unit.
type Program struct {
	Funcs   map[string]*Func
	Globals []*Global
	Entry   string // entry function name, normally "main"

	// NumSites is one past the highest Site assigned by the Library
	// Interface Analyzer; gate state arrays are sized by it.
	NumSites int

	// funcs holds the functions in name order, indexed by Func.Index
	// (and by OpCall's Callee, less one); Resolve builds it.
	funcs []*Func

	// base is the program this one was derived from (Derive), nil for a
	// program that owns all its functions. A derived program owns only
	// the functions its base does not hold.
	base *Program

	// link runs Link's work once; linkErr is its verdict.
	link    sync.Once
	linkErr error
}

// NewProgram returns an empty program with entry point "main".
func NewProgram() *Program {
	return &Program{Funcs: make(map[string]*Func), Entry: "main"}
}

// AddFunc registers f, replacing any previous function of the same name.
func (p *Program) AddFunc(f *Func) {
	p.Funcs[f.Name] = f
}

// AddGlobal appends a global and returns it. Size defaults to len(data)
// when zero.
func (p *Program) AddGlobal(name string, size int64, data []byte) *Global {
	if size == 0 {
		size = int64(len(data))
	}
	g := &Global{Name: name, Size: size, Data: data}
	p.Globals = append(p.Globals, g)
	return g
}

// Global looks up a global by name.
func (p *Program) Global(name string) *Global {
	for _, g := range p.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// FuncNames returns the program's function names in sorted order.
func (p *Program) FuncNames() []string {
	names := make([]string, 0, len(p.Funcs))
	for n := range p.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// InstrCount returns the total number of instructions across all functions.
// The benchmark harness uses it as the code-size (binary-size) metric for
// the Fig. 9 memory-overhead comparison.
func (p *Program) InstrCount() int {
	n := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}

// Validate checks structural invariants: every block ends in exactly one
// terminator, branch targets are in range, register indices are within the
// function's register file, and called functions exist. It returns a
// combined error describing every violation found. A derived program
// (Derive) checks only the functions it owns; its base checked the rest.
func (p *Program) Validate() error {
	var problems []string
	addf := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	if p.Entry != "" {
		if _, ok := p.Funcs[p.Entry]; !ok {
			addf("entry function %q not defined", p.Entry)
		}
	}
	names := p.FuncNames()
	for _, name := range names {
		f := p.Funcs[name]
		if !p.Owns(f) {
			continue
		}
		if f.NumRegs < f.Params {
			addf("%s: NumRegs %d < Params %d", name, f.NumRegs, f.Params)
		}
		for _, b := range f.Blocks {
			if b.Terminator() == nil {
				addf("%s.b%d: missing terminator", name, b.ID)
				continue
			}
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if i != len(b.Instrs)-1 {
					switch in.Op {
					case OpJmp, OpBr, OpRet, OpTrap, OpGate:
						addf("%s.b%d.%d: terminator %s in mid-block", name, b.ID, i, opName(in.Op))
					}
				}
				if err := checkInstr(p, names, f, in); err != nil {
					addf("%s.b%d.%d: %v", name, b.ID, i, err)
				}
			}
		}
	}
	if len(problems) == 0 {
		return nil
	}
	return fmt.Errorf("ir: invalid program:\n  %s", strings.Join(problems, "\n  "))
}

// Resolve fills the resolution caches: every function gets its dense
// Index, OpCall its callee's index and OpGlobalAddr a direct *Global
// pointer, so the interpreter needs no map lookups on the hot path. It
// is idempotent and cheap; Link runs it once before a program's first
// load, and the transformation and fault-injection passes run it on their
// outputs so instrumented programs arrive pre-resolved. A derived program
// resolves only the functions it owns and needs its base resolved first.
// Resolution never changes observable semantics or the cost model — it
// only removes lookups.
func (p *Program) Resolve() error {
	names := p.FuncNames()
	p.funcs = make([]*Func, len(names))
	for i, name := range names {
		f := p.Funcs[name]
		switch {
		case p.Owns(f):
			f.Index = i
		case f.Index != i:
			return fmt.Errorf("ir: resolve: shared function %s has index %d, want %d (resolve the base first)", name, f.Index, i)
		}
		p.funcs[i] = f
	}
	for _, f := range p.funcs {
		if !p.Owns(f) {
			continue
		}
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				switch in.Op {
				case OpCall:
					j := sort.SearchStrings(names, in.Name)
					if j == len(names) || names[j] != in.Name {
						return fmt.Errorf("ir: resolve: call to undefined function %q in %s.b%d", in.Name, f.Name, b.ID)
					}
					in.Callee = int32(j + 1)
				case OpGlobalAddr:
					g := p.Global(in.Name)
					if g == nil {
						return fmt.Errorf("ir: resolve: unknown global %q in %s.b%d", in.Name, f.Name, b.ID)
					}
					in.Global = g
				}
			}
		}
	}
	return nil
}

// Callee returns the function in, an OpCall, calls in p: the function at
// its resolved index, so shared code calls each program's own function.
// It returns nil while in or p is unresolved.
func (p *Program) Callee(in *Instr) *Func {
	if i := int(in.Callee) - 1; uint(i) < uint(len(p.funcs)) {
		return p.funcs[i]
	}
	return nil
}

// Derive returns a program that shares p's entry, NumSites, globals and
// functions, except that each function of owned replaces p's function of
// the same name. The derived program owns only those: Validate, Resolve
// and Link check, resolve and link them alone and write nothing into
// what it shares with p, so any number of programs derived from one p
// may be linked and loaded on any goroutines. Link links p first. Every
// owned function must replace one of p's, because shared calls resolve
// by index into the name-ordered function list.
func (p *Program) Derive(owned ...*Func) *Program {
	d := &Program{
		Funcs:    make(map[string]*Func, len(p.Funcs)),
		Globals:  p.Globals,
		Entry:    p.Entry,
		NumSites: p.NumSites,
		base:     p,
	}
	for name, f := range p.Funcs {
		d.Funcs[name] = f
	}
	for _, f := range owned {
		if p.Funcs[f.Name] == nil {
			panic(fmt.Sprintf("ir: Derive: %q replaces no function", f.Name))
		}
		d.Funcs[f.Name] = f
	}
	return d
}

// Owns reports whether f is one of p's own functions rather than one p
// shares with the program it was derived from.
func (p *Program) Owns(f *Func) bool {
	return p.base == nil || p.base.Funcs[f.Name] != f
}

// Link readies p for loading, once: it validates p, resolves its
// references (Resolve), gives every OpLib its library ID (lib maps a
// library function's name to it) and lays its globals out from base, each
// at the next 16-byte boundary past the previous one's Extent. Every
// later call returns the first call's verdict and writes nothing, so any
// number of machines, on any number of goroutines, may load one linked
// program. A linked program is immutable: passes that change a program
// work on a Clone, or on copies of the functions they change in a
// derived program (Derive), and either starts unlinked. A derived
// program links its base, then only the functions it owns; its globals
// are its base's.
func (p *Program) Link(base int64, lib func(name string) int32) error {
	p.link.Do(func() {
		if p.base != nil {
			if p.linkErr = p.base.Link(base, lib); p.linkErr != nil {
				return
			}
		}
		if p.linkErr = p.Validate(); p.linkErr != nil {
			return
		}
		if p.linkErr = p.Resolve(); p.linkErr != nil {
			return
		}
		for _, f := range p.funcs {
			if !p.Owns(f) {
				continue
			}
			for _, b := range f.Blocks {
				for i := range b.Instrs {
					if in := &b.Instrs[i]; in.Op == OpLib {
						in.Lib = lib(in.Name)
					}
				}
			}
		}
		if p.base != nil {
			return
		}
		addr := base
		for _, g := range p.Globals {
			g.Addr = addr
			addr += (g.Extent() + 15) &^ 15
		}
	})
	return p.linkErr
}

func checkInstr(p *Program, names []string, f *Func, in *Instr) error {
	checkReg := func(r int, what string) error {
		if r < 0 || r >= f.NumRegs {
			return fmt.Errorf("%s register %d out of range [0,%d)", what, r, f.NumRegs)
		}
		return nil
	}
	checkBlock := func(id int, what string) error {
		if id < 0 || id >= len(f.Blocks) {
			return fmt.Errorf("%s block %d out of range [0,%d)", what, id, len(f.Blocks))
		}
		return nil
	}
	switch in.Op {
	case OpConst:
		return checkReg(in.Dst, "dst")
	case OpMov, OpNeg, OpNot:
		if err := checkReg(in.Dst, "dst"); err != nil {
			return err
		}
		return checkReg(in.A, "src")
	case OpBin:
		if err := checkReg(in.Dst, "dst"); err != nil {
			return err
		}
		if err := checkReg(in.A, "lhs"); err != nil {
			return err
		}
		if err := checkReg(in.B, "rhs"); err != nil {
			return err
		}
		if _, ok := binNames[in.Bin]; !ok {
			return fmt.Errorf("unknown binary operator %d", int(in.Bin))
		}
		return nil
	case OpLoad:
		if err := checkReg(in.Dst, "dst"); err != nil {
			return err
		}
		if err := checkReg(in.A, "addr"); err != nil {
			return err
		}
		return checkWidth(in.Width)
	case OpStore, OpStmStore:
		if err := checkReg(in.A, "addr"); err != nil {
			return err
		}
		if err := checkReg(in.B, "value"); err != nil {
			return err
		}
		return checkWidth(in.Width)
	case OpFrameAddr:
		if err := checkReg(in.Dst, "dst"); err != nil {
			return err
		}
		if in.Imm < 0 || in.Imm >= f.FrameSize {
			return fmt.Errorf("frame offset %d outside frame of %d bytes", in.Imm, f.FrameSize)
		}
		return nil
	case OpGlobalAddr:
		if err := checkReg(in.Dst, "dst"); err != nil {
			return err
		}
		g := p.Global(in.Name)
		if g == nil {
			return fmt.Errorf("unknown global %q", in.Name)
		}
		if in.Global != nil && in.Global != g {
			return fmt.Errorf("stale resolved global for %q (points outside this program)", in.Name)
		}
		return nil
	case OpCall:
		callee, ok := p.Funcs[in.Name]
		if !ok {
			return fmt.Errorf("call to undefined function %q", in.Name)
		}
		if i := int(in.Callee) - 1; i >= 0 && (i >= len(names) || names[i] != in.Name) {
			return fmt.Errorf("stale resolved callee for %q (index %d names another function)", in.Name, i)
		}
		if len(in.Args) != callee.Params {
			return fmt.Errorf("call to %q with %d args, want %d", in.Name, len(in.Args), callee.Params)
		}
		for _, a := range in.Args {
			if err := checkReg(a, "arg"); err != nil {
				return err
			}
		}
		if in.Dst >= 0 {
			return checkReg(in.Dst, "dst")
		}
		return nil
	case OpLib:
		for _, a := range in.Args {
			if err := checkReg(a, "arg"); err != nil {
				return err
			}
		}
		if in.Dst >= 0 {
			return checkReg(in.Dst, "dst")
		}
		return nil
	case OpJmp:
		return checkBlock(in.Then, "target")
	case OpBr:
		if err := checkReg(in.A, "cond"); err != nil {
			return err
		}
		if err := checkBlock(in.Then, "then"); err != nil {
			return err
		}
		return checkBlock(in.Else, "else")
	case OpRet:
		if in.A >= 0 {
			return checkReg(in.A, "result")
		}
		return nil
	case OpTrap:
		return nil
	case OpTxBegin:
		if in.Imm != TxHTM && in.Imm != TxSTM {
			return fmt.Errorf("txbegin with variant %d", in.Imm)
		}
		return nil
	case OpTxEnd, OpRegSave:
		return nil
	case OpGate:
		if err := checkBlock(in.Then, "gate htm target"); err != nil {
			return err
		}
		if err := checkBlock(in.Else, "gate stm target"); err != nil {
			return err
		}
		if in.Dst >= 0 {
			return checkReg(in.Dst, "gate return register")
		}
		return nil
	default:
		return fmt.Errorf("unknown opcode %d", int(in.Op))
	}
}

func checkWidth(w int) error {
	switch w {
	case 1, 2, 4, 8:
		return nil
	}
	return fmt.Errorf("invalid access width %d", w)
}

var opNames = map[Opcode]string{
	OpConst: "const", OpMov: "mov", OpBin: "bin", OpNeg: "neg", OpNot: "not",
	OpLoad: "load", OpStore: "store", OpFrameAddr: "frameaddr",
	OpGlobalAddr: "globaladdr", OpCall: "call", OpLib: "lib", OpJmp: "jmp",
	OpBr: "br", OpRet: "ret", OpTrap: "trap", OpTxBegin: "txbegin",
	OpTxEnd: "txend", OpStmStore: "stmstore", OpRegSave: "regsave",
	OpGate: "gate",
}

func opName(op Opcode) string {
	if s, ok := opNames[op]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// String renders the instruction in a readable assembly-like form.
func (in *Instr) String() string {
	switch in.Op {
	case OpConst:
		return fmt.Sprintf("r%d = const %d", in.Dst, in.Imm)
	case OpMov:
		return fmt.Sprintf("r%d = r%d", in.Dst, in.A)
	case OpBin:
		return fmt.Sprintf("r%d = r%d %s r%d", in.Dst, in.A, in.Bin, in.B)
	case OpNeg:
		return fmt.Sprintf("r%d = -r%d", in.Dst, in.A)
	case OpNot:
		return fmt.Sprintf("r%d = !r%d", in.Dst, in.A)
	case OpLoad:
		return fmt.Sprintf("r%d = load%d [r%d%+d]", in.Dst, in.Width, in.A, in.Imm)
	case OpStore:
		return fmt.Sprintf("store%d [r%d%+d] = r%d", in.Width, in.A, in.Imm, in.B)
	case OpStmStore:
		return fmt.Sprintf("stmstore%d [r%d%+d] = r%d", in.Width, in.A, in.Imm, in.B)
	case OpFrameAddr:
		return fmt.Sprintf("r%d = frame%+d", in.Dst, in.Imm)
	case OpGlobalAddr:
		return fmt.Sprintf("r%d = &%s", in.Dst, in.Name)
	case OpCall, OpLib:
		kind := "call"
		if in.Op == OpLib {
			kind = "lib"
		}
		args := make([]string, len(in.Args))
		for i, a := range in.Args {
			args[i] = fmt.Sprintf("r%d", a)
		}
		site := ""
		if in.Site != 0 {
			site = fmt.Sprintf(" #site%d", in.Site)
		}
		if in.Dst >= 0 {
			return fmt.Sprintf("r%d = %s %s(%s)%s", in.Dst, kind, in.Name, strings.Join(args, ", "), site)
		}
		return fmt.Sprintf("%s %s(%s)%s", kind, in.Name, strings.Join(args, ", "), site)
	case OpJmp:
		return fmt.Sprintf("jmp b%d", in.Then)
	case OpBr:
		return fmt.Sprintf("br r%d ? b%d : b%d", in.A, in.Then, in.Else)
	case OpRet:
		if in.A >= 0 {
			return fmt.Sprintf("ret r%d", in.A)
		}
		return "ret"
	case OpTrap:
		return fmt.Sprintf("trap %d", in.Imm)
	case OpTxBegin:
		v := "htm"
		if in.Imm == TxSTM {
			v = "stm"
		}
		return fmt.Sprintf("txbegin %s #site%d", v, in.Site)
	case OpTxEnd:
		return "txend"
	case OpRegSave:
		return "regsave"
	case OpGate:
		return fmt.Sprintf("gate #site%d -> b%d", in.Site, in.Then)
	default:
		return opName(in.Op)
	}
}

// Dump renders the whole program as readable pseudo-assembly, useful in
// tests and the firec tool.
func (p *Program) Dump() string {
	var sb strings.Builder
	for _, g := range p.Globals {
		fmt.Fprintf(&sb, "global %s [%d bytes]\n", g.Name, g.Size)
	}
	for _, name := range p.FuncNames() {
		f := p.Funcs[name]
		fmt.Fprintf(&sb, "\nfunc %s(params=%d regs=%d frame=%d)\n", f.Name, f.Params, f.NumRegs, f.FrameSize)
		for _, b := range f.Blocks {
			variant := ""
			switch b.Variant {
			case TxHTM:
				variant = " [htm]"
			case TxSTM:
				variant = " [stm]"
			}
			fmt.Fprintf(&sb, "b%d: %s%s\n", b.ID, b.Label, variant)
			for i := range b.Instrs {
				fmt.Fprintf(&sb, "    %s\n", b.Instrs[i].String())
			}
		}
	}
	return sb.String()
}

// Clone returns a deep copy of the program, which owns all its
// functions. The transformation passes operate on copies so the vanilla
// program remains available as the baseline for the benchmark harness.
func (p *Program) Clone() *Program {
	funcs := make([]*Func, 0, len(p.Funcs))
	for _, f := range p.Funcs {
		funcs = append(funcs, f.Clone())
	}
	cp := p.Rebuild(funcs...)
	// Keep resolved-ness: callee indexes hold in the clone as they are
	// (it has the same names).
	if p.funcs != nil {
		cp.funcs = make([]*Func, len(p.funcs))
		for i, f := range p.funcs {
			cp.funcs[i] = cp.Funcs[f.Name]
		}
	}
	return cp
}

// Rebuild returns a program of funcs, which it takes as they are and
// owns, with p's entry, p's NumSites and copies of p's globals. A
// resolved OpGlobalAddr in funcs is pointed at the copy of its global:
// left alone, it would refer to p's.
func (p *Program) Rebuild(funcs ...*Func) *Program {
	cp := &Program{
		Funcs:    make(map[string]*Func, len(funcs)),
		Globals:  make([]*Global, len(p.Globals)),
		Entry:    p.Entry,
		NumSites: p.NumSites,
	}
	for i, g := range p.Globals {
		ng := *g
		ng.Data = append([]byte(nil), g.Data...)
		cp.Globals[i] = &ng
	}
	for _, f := range funcs {
		cp.Funcs[f.Name] = f
		for _, b := range f.Blocks {
			for j := range b.Instrs {
				if in := &b.Instrs[j]; in.Global != nil {
					in.Global = cp.Global(in.Name)
				}
			}
		}
	}
	return cp
}

// Clone returns a deep copy of f: blocks, instructions and argument
// lists of its own. Its resolution caches are f's.
func (f *Func) Clone() *Func {
	nf := *f
	nf.Blocks = make([]*Block, len(f.Blocks))
	for i, b := range f.Blocks {
		nb := *b
		nb.Instrs = make([]Instr, len(b.Instrs))
		copy(nb.Instrs, b.Instrs)
		for j := range nb.Instrs {
			if b.Instrs[j].Args != nil {
				nb.Instrs[j].Args = append([]int(nil), b.Instrs[j].Args...)
			}
		}
		nf.Blocks[i] = &nb
	}
	return &nf
}
