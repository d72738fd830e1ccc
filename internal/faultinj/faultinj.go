// Package faultinj is the reproduction's analog of HSFI (van der Kouwe &
// Tanenbaum, DSN'16), the fault injection framework the paper's §VI-B
// survivability evaluation uses.
//
// Following the paper's methodology:
//
//   - The target program is first profiled under its standard workload to
//     find basic blocks that actually execute, so every planted fault is
//     exercised.
//   - Faults go into *non-critical* paths: request-handling code rather
//     than the event loop and startup sequence (critical paths retry or
//     exit and are assumed test-covered; §VI-B).
//   - One fault is planted per experiment, into a randomly selected
//     candidate block, in the *vanilla* program — FIRestarter's
//     instrumentation is applied afterwards, emulating residual bugs
//     surviving in shipped source.
//
// Two fault families are supported: fail-stop faults (an injected fatal
// trap, the paper's main fault model) and fail-silent software faults
// (flipped branches, corrupted constants, wrong operators, off-by-one
// offsets — HSFI's fault types), most of which corrupt results without
// crashing.
package faultinj

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"github.com/firestarter-go/firestarter/internal/ir"
)

// Kind is a fault type.
type Kind int

// Fault kinds. FailStop is the paper's primary model; the rest are HSFI's
// fail-silent software fault types.
const (
	FailStop Kind = iota + 1
	FlipBranch
	CorruptConst
	WrongOperator
	OffByOne
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case FailStop:
		return "fail-stop"
	case FlipBranch:
		return "flip-branch"
	case CorruptConst:
		return "corrupt-const"
	case WrongOperator:
		return "wrong-operator"
	case OffByOne:
		return "off-by-one"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// MarshalJSON encodes the kind by its stable String name, so recorded
// fault plans (internal/replay manifests) survive enum reordering.
func (k Kind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON decodes a kind from its String name.
func (k *Kind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for c := FailStop; c <= OffByOne; c++ {
		if c.String() == s {
			*k = c
			return nil
		}
	}
	return fmt.Errorf("faultinj: unknown fault kind %q", s)
}

// Fault is one planted fault. The json encoding (name-encoded Kind,
// stable field names) is the wire format of recorded fault plans.
type Fault struct {
	ID    int    `json:"id"`
	Kind  Kind   `json:"kind"`
	Func  string `json:"func"`
	Block int    `json:"block"`
	Index int    `json:"index"` // instruction index within the block
}

// String identifies the fault in reports.
func (f Fault) String() string {
	return fmt.Sprintf("#%d %s at %s.b%d.%d", f.ID, f.Kind, f.Func, f.Block, f.Index)
}

// Profile records block execution, split into a startup phase (critical)
// and a serving phase.
type Profile struct {
	startup      map[string]map[int]bool
	serving      map[string]map[int]bool
	servingPhase bool
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{
		startup: map[string]map[int]bool{},
		serving: map[string]map[int]bool{},
	}
}

// MarkServing switches recording from the startup phase to the serving
// phase (call it once the server has booted and blocked for the first
// time).
func (p *Profile) MarkServing() { p.servingPhase = true }

// HookFunc is the machine BlockHook; pair with MarkServing.
func (p *Profile) HookFunc(fn string, blk int) {
	m := p.startup
	if p.servingPhase {
		m = p.serving
	}
	set, ok := m[fn]
	if !ok {
		set = map[int]bool{}
		m[fn] = set
	}
	set[blk] = true
}

// ServingBlocks returns the blocks executed only during the serving phase
// (the non-critical candidates), excluding the entry function entirely
// (event loop = critical path), in deterministic order.
func (p *Profile) ServingBlocks(entryFunc string) []BlockRef {
	var out []BlockRef
	fns := make([]string, 0, len(p.serving))
	for fn := range p.serving {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	for _, fn := range fns {
		if fn == entryFunc {
			continue
		}
		blks := make([]int, 0, len(p.serving[fn]))
		for b := range p.serving[fn] {
			if p.startup[fn][b] {
				continue // also runs at startup: critical
			}
			blks = append(blks, b)
		}
		sort.Ints(blks)
		for _, b := range blks {
			out = append(out, BlockRef{Func: fn, Block: b})
		}
	}
	return out
}

// BlockRef names one basic block.
type BlockRef struct {
	Func  string
	Block int
}

// AtLibCall returns a fail-stop fault planted at the start of the block
// of fn that holds its nth (1-based) call to lib — the targeted placement
// of the paper's §VI-F case studies: the crash lands in the code region
// following that library call, so recovery diverts it by injecting an
// error into the call.
func AtLibCall(prog *ir.Program, fn, lib string, nth int) (Fault, error) {
	f := prog.Funcs[fn]
	if f == nil {
		return Fault{}, fmt.Errorf("faultinj: no function %q", fn)
	}
	seen := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpLib && b.Instrs[i].Name == lib {
				if seen++; seen == nth {
					return Fault{ID: 1, Kind: FailStop, Func: fn, Block: b.ID}, nil
				}
			}
		}
	}
	return Fault{}, fmt.Errorf("faultinj: %s has no call %d to %s", fn, nth, lib)
}

// PlanFaults selects up to max candidate blocks (seeded, deterministic)
// and assigns one fault of the given kind to a random instruction of each.
// Blocks too small to host the fault kind are skipped.
func PlanFaults(prog *ir.Program, candidates []BlockRef, kind Kind, max int, seed int64) []Fault {
	rng := rand.New(rand.NewSource(seed))
	shuffled := append([]BlockRef(nil), candidates...)
	rng.Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	var faults []Fault
	for _, c := range shuffled {
		if len(faults) >= max {
			break
		}
		f := prog.Funcs[c.Func]
		if f == nil || c.Block >= len(f.Blocks) {
			continue
		}
		blk := f.Blocks[c.Block]
		idx, ok := pickIndex(blk, kind, rng)
		if !ok {
			continue
		}
		faults = append(faults, Fault{
			ID:    len(faults) + 1,
			Kind:  kind,
			Func:  c.Func,
			Block: c.Block,
			Index: idx,
		})
	}
	return faults
}

// pickIndex chooses an instruction the fault kind can target.
func pickIndex(blk *ir.Block, kind Kind, rng *rand.Rand) (int, bool) {
	var eligible []int
	for i := range blk.Instrs {
		in := &blk.Instrs[i]
		switch kind {
		case FailStop:
			// Anywhere before the terminator.
			if i < len(blk.Instrs)-1 || len(blk.Instrs) == 1 {
				eligible = append(eligible, i)
			}
		case FlipBranch:
			if in.Op == ir.OpBr {
				eligible = append(eligible, i)
			}
		case CorruptConst:
			if in.Op == ir.OpConst {
				eligible = append(eligible, i)
			}
		case WrongOperator:
			if in.Op == ir.OpBin {
				eligible = append(eligible, i)
			}
		case OffByOne:
			if in.Op == ir.OpLoad || in.Op == ir.OpStore {
				eligible = append(eligible, i)
			}
		}
	}
	if len(eligible) == 0 {
		return 0, false
	}
	return eligible[rng.Intn(len(eligible))], true
}

// Apply plants the fault into a deep copy of the program and returns it.
func Apply(prog *ir.Program, f Fault) (*ir.Program, error) {
	p := prog.Clone()
	fn, err := Plant(p, f)
	if err != nil {
		return nil, err
	}
	p.AddFunc(fn)
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("faultinj: fault %s broke the program: %w", f, err)
	}
	// Keep the planted program pre-resolved: the clone kept existing
	// caches, but a FailStop truncation may have synthesized instructions.
	if err := p.Resolve(); err != nil {
		return nil, fmt.Errorf("faultinj: resolving planted program: %w", err)
	}
	return p, nil
}

// Plant returns prog's function f.Func with the fault planted: a new
// function whose faulted block is a copy and whose other blocks are
// prog's. prog is only read, so its functions may be shared, and so is
// the planted function: a planted program is prog with it in place of
// prog's own (ir.Program.Derive), and whoever writes into it, linking
// it for one, writes into a copy (ir.Func.Clone).
func Plant(prog *ir.Program, f Fault) (*ir.Func, error) {
	fn := prog.Funcs[f.Func]
	if fn == nil {
		return nil, fmt.Errorf("faultinj: no function %q", f.Func)
	}
	if f.Block < 0 || f.Block >= len(fn.Blocks) {
		return nil, fmt.Errorf("faultinj: %s has no block %d", f.Func, f.Block)
	}
	if f.Index < 0 || f.Index >= len(fn.Blocks[f.Block].Instrs) {
		return nil, fmt.Errorf("faultinj: %s.b%d has no instruction %d", f.Func, f.Block, f.Index)
	}
	planted := *fn
	planted.Blocks = append([]*ir.Block(nil), fn.Blocks...)
	blk := new(ir.Block)
	*blk = *fn.Blocks[f.Block]
	blk.Instrs = append([]ir.Instr(nil), blk.Instrs...)
	planted.Blocks[f.Block] = blk
	in := &blk.Instrs[f.Index]
	switch f.Kind {
	case FailStop:
		// Truncate the block at the fault point: execution reaching it
		// crashes fail-stop (the code after the trap is the "lost"
		// remainder of the faulty region).
		blk.Instrs = append(blk.Instrs[:f.Index:f.Index], ir.Instr{Op: ir.OpTrap, Imm: ir.TrapInjected})
	case FlipBranch:
		if in.Op != ir.OpBr {
			return nil, fmt.Errorf("faultinj: %s is not a branch", f)
		}
		in.Then, in.Else = in.Else, in.Then
	case CorruptConst:
		if in.Op != ir.OpConst {
			return nil, fmt.Errorf("faultinj: %s is not a const", f)
		}
		in.Imm++
	case WrongOperator:
		if in.Op != ir.OpBin {
			return nil, fmt.Errorf("faultinj: %s is not a binop", f)
		}
		in.Bin = wrongOp(in.Bin)
	case OffByOne:
		if in.Op != ir.OpLoad && in.Op != ir.OpStore {
			return nil, fmt.Errorf("faultinj: %s is not a memory access", f)
		}
		in.Imm++
	default:
		return nil, fmt.Errorf("faultinj: unknown kind %v", f.Kind)
	}
	return &planted, nil
}

// wrongOp maps an operator to HSFI's "wrong operator" substitution.
func wrongOp(b ir.BinKind) ir.BinKind {
	switch b {
	case ir.BinAdd:
		return ir.BinSub
	case ir.BinSub:
		return ir.BinAdd
	case ir.BinMul:
		return ir.BinAdd
	case ir.BinLt:
		return ir.BinLe
	case ir.BinLe:
		return ir.BinLt
	case ir.BinGt:
		return ir.BinGe
	case ir.BinGe:
		return ir.BinGt
	case ir.BinEq:
		return ir.BinNe
	case ir.BinNe:
		return ir.BinEq
	case ir.BinAnd:
		return ir.BinOr
	case ir.BinOr:
		return ir.BinAnd
	default:
		return ir.BinAdd
	}
}
