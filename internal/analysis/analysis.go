// Package analysis implements the static analyses of the Library Interface
// Analyzer (§V-A of the paper): it enumerates library call sites, assigns
// program-unique site IDs, and determines — by tracing the use of each
// call's return value — whether the site is followed by error-handling code
// and is therefore suitable for fault-injection-based execution diversion.
//
// The trace is interprocedural in the one way real server code requires:
// thin wrappers that forward a library call's return value to their caller
// (Nginx's ngx_close_socket pattern from the paper's Listing 1) are
// resolved by a fixpoint over "is this function's return value checked
// anywhere".
//
// Combining the per-site error-check result with the per-function
// recoverability model (package libmodel) yields each site's role in the
// transaction layout:
//
//	Gate  — recoverable class and error-checked: a crash transaction
//	        starts right after it and a fault can be injected into it.
//	Embed — recoverable class, not checked: the site is embedded inside
//	        the enclosing transaction; its effects are deferred or
//	        compensated on rollback.
//	Break — irrecoverable class: the transaction ends before the call and
//	        code runs unprotected until the next Gate site.
package analysis

import (
	"fmt"

	"github.com/firestarter-go/firestarter/internal/ir"
	"github.com/firestarter-go/firestarter/internal/libmodel"
	"github.com/firestarter-go/firestarter/internal/libsim"
)

// Role classifies a library call site's part in the transaction layout.
type Role int

// Site roles.
const (
	RoleGate Role = iota + 1
	RoleEmbed
	RoleBreak
)

// String returns the role name.
func (r Role) String() string {
	switch r {
	case RoleGate:
		return "gate"
	case RoleEmbed:
		return "embed"
	case RoleBreak:
		return "break"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// Site describes one library call site.
type Site struct {
	ID      int
	Func    string
	Block   int
	Index   int
	Name    string
	Checked bool // return value flows into a conditional branch
	Role    Role
	Entry   *libmodel.Entry

	// Lib is Name's library ID, resolved once here so the runtime
	// dispatches the call and reads its entry by index (see
	// libsim.FuncID).
	Lib libsim.FuncID

	// Gate numbers a RoleGate site among the program's gates, densely in
	// ID order, so per-gate state is a slice of the gates alone.
	Gate int
}

// Result is the analysis output.
type Result struct {
	Sites []*Site // in ID order
	// ByID indexes the sites by ID: ByID[s.ID] == s, and ByID[0] is nil
	// (no site has ID 0).
	ByID []*Site
	// Funcs holds, per function in name order, what numbering and
	// classifying its sites takes from the rest of the program.
	Funcs []FuncSites
}

// FuncSites is what a function's sites take from outside the function:
// the functions before it number the sites, and its callers decide
// whether a forwarded return value is checked. Two analyses under one
// model that give a function with the same body equal FuncSites give its
// sites the same IDs and roles.
type FuncSites struct {
	First   int  // ID of the function's first site (the next ID if it has none)
	Checked bool // some caller checks the function's return value
}

// Counts returns the number of sites per role.
func (r *Result) Counts() (gates, embeds, breaks int) {
	for _, s := range r.Sites {
		switch s.Role {
		case RoleGate:
			gates++
		case RoleEmbed:
			embeds++
		case RoleBreak:
			breaks++
		}
	}
	return gates, embeds, breaks
}

// Analyze assigns a unique Site ID to every OpLib instruction in the
// program (mutating the instructions' Site fields) and classifies each
// site. Unknown library functions (no model entry) are treated
// conservatively as irrecoverable Break sites.
func Analyze(prog *ir.Program, model *libmodel.Model) *Result {
	res := Classify(prog, model)
	for i, name := range prog.FuncNames() {
		res.Number(i, prog.Funcs[name])
	}
	prog.NumSites = len(res.ByID)
	return res
}

// Classify numbers and classifies every site of prog as Analyze does but
// writes nothing into prog, so prog may share its functions: the IDs
// reach a function's instructions only through Number, on a copy.
func Classify(prog *ir.Program, model *libmodel.Model) *Result {
	funcChecked := computeFuncChecked(prog)
	names := prog.FuncNames()
	res := &Result{Funcs: make([]FuncSites, len(names))}
	next, gates := 1, 0
	for fi, fname := range names {
		f := prog.Funcs[fname]
		res.Funcs[fi] = FuncSites{First: next, Checked: funcChecked[fname]}
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op != ir.OpLib {
					continue
				}
				lib := libsim.Lookup(in.Name)
				site := &Site{
					ID:    next,
					Func:  fname,
					Block: b.ID,
					Index: i,
					Name:  in.Name,
					Entry: model.Entry(lib),
					Lib:   lib,
				}
				next++
				switch traceUse(f, b, i, in.Dst) {
				case useChecked:
					site.Checked = true
				case useReturned:
					site.Checked = funcChecked[fname]
				}
				site.Role = classify(site)
				if site.Role == RoleGate {
					site.Gate = gates
					gates++
				}
				res.Sites = append(res.Sites, site)
			}
		}
	}
	res.ByID = append([]*Site{nil}, res.Sites...)
	return res
}

// Number writes the IDs the analysis gave the sites of f, the program's
// i-th function in name order, into f's OpLib instructions.
func (r *Result) Number(i int, f *ir.Func) {
	id := r.Funcs[i].First
	for _, b := range f.Blocks {
		for j := range b.Instrs {
			if in := &b.Instrs[j]; in.Op == ir.OpLib {
				in.Site = id
				id++
			}
		}
	}
}

func classify(s *Site) Role {
	if s.Entry == nil || s.Entry.Class == libmodel.Irrecoverable {
		return RoleBreak
	}
	if s.Entry.Divertable && s.Checked {
		return RoleGate
	}
	return RoleEmbed
}

// computeFuncChecked determines, per function, whether its return value is
// checked at some call site. A call site that merely forwards the value to
// its own caller (useReturned) contributes via a fixpoint, resolving
// wrapper chains.
func computeFuncChecked(prog *ir.Program) map[string]bool {
	type callUse struct {
		callee string
		caller string
		use    useKind
	}
	var uses []callUse
	for _, fname := range prog.FuncNames() {
		f := prog.Funcs[fname]
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op != ir.OpCall {
					continue
				}
				uses = append(uses, callUse{
					callee: in.Name,
					caller: fname,
					use:    traceUse(f, b, i, in.Dst),
				})
			}
		}
	}
	checked := map[string]bool{}
	for changed := true; changed; {
		changed = false
		for _, u := range uses {
			if checked[u.callee] {
				continue
			}
			if u.use == useChecked || (u.use == useReturned && checked[u.caller]) {
				checked[u.callee] = true
				changed = true
			}
		}
	}
	return checked
}

type useKind int

const (
	useUnchecked useKind = iota
	useChecked
	useReturned
)

// traceUse follows the value in register dst forward through its basic
// block (tracking register copies and comparisons) and reports how it is
// consumed. The scan covers the remainder of the block and, when the block
// ends with an unconditional jump, one successor block: this matches every
// error-check idiom the mini-C compiler emits, including
//
//	rc = call(); if (rc == -1) ...     (copy, compare, branch)
//	if ((rc = call()) < 0) ...         (compare, branch)
//	p = malloc(n); if (!p) ...         (logical not, branch)
//	return call();                     (wrapper forwarding, useReturned)
func traceUse(f *ir.Func, b *ir.Block, callIdx, dst int) useKind {
	if dst < 0 {
		return useUnchecked
	}
	aliases := map[int]bool{dst: true}
	blocks := 0
	blk := b
	i := callIdx + 1
	for blocks < 2 {
		for ; i < len(blk.Instrs); i++ {
			in := &blk.Instrs[i]
			switch in.Op {
			case ir.OpMov:
				if aliases[in.A] {
					aliases[in.Dst] = true
					continue
				}
			case ir.OpBin:
				switch in.Bin {
				case ir.BinEq, ir.BinNe, ir.BinLt, ir.BinLe, ir.BinGt, ir.BinGe:
					if aliases[in.A] || aliases[in.B] {
						aliases[in.Dst] = true
						continue
					}
				}
			case ir.OpNot:
				if aliases[in.A] {
					aliases[in.Dst] = true
					continue
				}
			case ir.OpBr:
				if aliases[in.A] {
					return useChecked
				}
				return useUnchecked
			case ir.OpRet:
				if in.A >= 0 && aliases[in.A] {
					return useReturned
				}
				return useUnchecked
			case ir.OpTrap, ir.OpGate:
				return useUnchecked
			case ir.OpJmp:
				// Follow one unconditional edge (if-conditions are
				// normally emitted in the same block, but a call used
				// as a loop condition lands one hop away).
				blocks++
				blk = f.Blocks[in.Then]
				i = -1 // restarts at 0 after i++
				continue
			}
			// Any instruction overwriting an alias kills that alias.
			if w := destOf(in); w >= 0 && aliases[w] {
				delete(aliases, w)
				if len(aliases) == 0 {
					return useUnchecked
				}
			}
		}
		break
	}
	return useUnchecked
}

// destOf returns the register an instruction writes, or -1.
func destOf(in *ir.Instr) int {
	switch in.Op {
	case ir.OpConst, ir.OpMov, ir.OpBin, ir.OpNeg, ir.OpNot, ir.OpLoad,
		ir.OpFrameAddr, ir.OpGlobalAddr, ir.OpCall, ir.OpLib:
		return in.Dst
	}
	return -1
}
