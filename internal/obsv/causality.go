package obsv

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// RecoveryKind reports whether a span kind marks recovery machinery
// acting on the request it references (vs the ordinary begin/commit
// transaction flow): the kinds that put a request in the
// recovery-touched half of the latency split.
func RecoveryKind(kind string) bool {
	switch kind {
	case SpanAbort, SpanCrash, SpanRetry, SpanInject,
		SpanLatchSTM, SpanRecovered, SpanUnrecovered, SpanShed,
		SpanLatchDomains, SpanDomainDiscard, SpanDomainViolation:
		return true
	}
	return false
}

// Causality is the streaming trace-causality checker: the one rule set
// behind obsvlint -causality, firetrace -strict and every campaign's
// in-process reconciliation. Feed it a span log in order with Observe,
// then read Errors.
//
// Request chains: every req-start reaches exactly one terminal (req-done
// or req-lost), a req-done never appears for a request that was never
// started, and no other span references a trace with no req-start. A
// req-lost without a req-start is legal — the request was delivered but
// the server died before reading it.
//
// Heap-domain ordering (rewind-and-discard): a domain-discard's domain
// must have been switched to first (dom=0 is exempt — a crash before the
// request's first allocation discards an empty arena); a discard is
// legal on a thread only while that thread's most recent transaction
// boundary is a crash, so a discard can never follow the same
// transaction's commit; and a domain-violation's very next span on that
// thread must be the crash, shed or unrecovered it becomes. Threads are
// told apart per fleet replica.
type Causality struct {
	started   map[int64]int
	terminals map[int64]int
	lostOnly  map[int64]bool // a terminal was req-lost (legal without a start)
	refs      map[int64]bool

	switched map[int64]bool        // domains a domain-switch has made current
	boundary map[spanThread]string // last transaction-boundary kind
	pending  map[spanThread]int    // domain-violation position awaiting its crash
	ordering []string              // order-sensitive findings, in log order
}

// spanThread identifies one guest thread across a fleet trace.
type spanThread struct{ replica, thread int }

// NewCausality returns an empty checker.
func NewCausality() *Causality {
	return &Causality{
		started:   map[int64]int{},
		terminals: map[int64]int{},
		lostOnly:  map[int64]bool{},
		refs:      map[int64]bool{},
		switched:  map[int64]bool{},
		boundary:  map[spanThread]string{},
		pending:   map[spanThread]int{},
	}
}

// CheckCausality runs the checker over a whole span log, numbering spans
// from 1 like the lines of its JSONL export.
func CheckCausality(spans []SpanEvent) []string {
	c := NewCausality()
	for i, e := range spans {
		c.Observe(i+1, e)
	}
	return c.Errors()
}

// Observe folds the span at position pos (its line number in a JSONL
// export) into the checker.
func (c *Causality) Observe(pos int, e SpanEvent) {
	switch e.Kind {
	case SpanReqStart:
		c.started[e.Trace]++
	case SpanReqDone:
		c.terminals[e.Trace]++
	case SpanReqLost:
		c.terminals[e.Trace]++
		c.lostOnly[e.Trace] = true
	default:
		if e.Trace != 0 {
			c.refs[e.Trace] = true
		}
	}

	th := spanThread{e.Replica, e.Thread}
	if from, ok := c.pending[th]; ok {
		switch e.Kind {
		case SpanCrash, SpanShed, SpanUnrecovered:
		default:
			c.report("line %d: domain-violation (line %d) followed by %q, want crash/shed/unrecovered",
				pos, from, e.Kind)
		}
		delete(c.pending, th)
	}
	switch e.Kind {
	case SpanBegin, SpanCommit, SpanAbort, SpanCrash:
		c.boundary[th] = e.Kind
	case SpanDomainSwitch:
		if dom, ok := detailDom(e.Detail); ok {
			c.switched[dom] = true
		}
	case SpanDomainDiscard:
		if b := c.boundary[th]; b != SpanCrash {
			if b == "" {
				b = "no transaction boundary"
			}
			c.report("line %d: domain-discard after %q, want crash", pos, b)
		}
		if dom, ok := detailDom(e.Detail); ok && dom != 0 && !c.switched[dom] {
			c.report("line %d: domain-discard of dom %d with no prior domain-switch", pos, dom)
		}
	case SpanDomainViolation:
		c.pending[th] = pos
	}
}

func (c *Causality) report(format string, args ...any) {
	c.ordering = append(c.ordering, fmt.Sprintf(format, args...))
}

// Orphans returns the traces other spans reference but no req-start
// opened, ascending.
func (c *Causality) Orphans() []int64 {
	var out []int64
	for tr := range c.refs {
		if c.started[tr] == 0 {
			out = append(out, tr)
		}
	}
	slices.Sort(out)
	return out
}

// Errors returns every violation seen so far: the ordering findings in
// log order, then domain-violations still awaiting their crash, then the
// request-chain findings in ascending trace order.
func (c *Causality) Errors() []string {
	errs := append([]string(nil), c.ordering...)
	var dangling []int
	for _, pos := range c.pending {
		dangling = append(dangling, pos)
	}
	slices.Sort(dangling)
	for _, pos := range dangling {
		errs = append(errs, fmt.Sprintf("line %d: domain-violation with no following span", pos))
	}
	for _, tr := range sortedKeys(c.started) {
		if n := c.started[tr]; n != 1 {
			errs = append(errs, fmt.Sprintf("trace %d: %d req-start spans, want 1", tr, n))
		}
		if n := c.terminals[tr]; n != 1 {
			errs = append(errs, fmt.Sprintf("trace %d: %d terminal spans, want 1", tr, n))
		}
	}
	for _, tr := range sortedKeys(c.terminals) {
		if c.started[tr] == 0 && !c.lostOnly[tr] {
			errs = append(errs, fmt.Sprintf("trace %d: req-done without req-start", tr))
		}
	}
	for _, tr := range c.Orphans() {
		errs = append(errs, fmt.Sprintf("trace %d: orphaned trace reference (no req-start)", tr))
	}
	return errs
}

// detailDom extracts the dom=N token of a domain span's detail field.
func detailDom(detail string) (int64, bool) {
	for _, field := range strings.Fields(detail) {
		if rest, ok := strings.CutPrefix(field, "dom="); ok {
			dom, err := strconv.ParseInt(rest, 10, 64)
			return dom, err == nil
		}
	}
	return 0, false
}

func sortedKeys(m map[int64]int) []int64 {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
