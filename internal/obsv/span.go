package obsv

import (
	"fmt"
	"io"
)

// Span event kinds. A crash transaction's life is a sequence of spans:
// begin → (abort | crash → retry/inject → recovered | commit), with
// latch-stm/unrecovered as terminal policy events. The escalation-ladder
// rungs above injection emit shed (drop the offending request, resume at
// the quiesce point), reboot (supervised restart of a fresh incarnation)
// and breaker-open (the crash-loop breaker gave up).
const (
	SpanBegin       = "begin"
	SpanCommit      = "commit"
	SpanAbort       = "abort"
	SpanCrash       = "crash"
	SpanRetry       = "retry"
	SpanInject      = "inject"
	SpanLatchSTM    = "latch-stm"
	SpanRecovered   = "recovered"
	SpanUnrecovered = "unrecovered"
	SpanShed        = "shed"
	SpanReboot      = "reboot"
	SpanBreakerOpen = "breaker-open"
	SpanTruncated   = "truncated"
)

// Fleet-tier span kinds. The L4 balancer emits replica-up when a replica
// incarnation boots (including the first boot), replica-down when one
// dies, and handoff when a live connection migrates between replicas —
// on fail-over from a dead replica or when draining one whose crash-loop
// breaker window is filling up.
const (
	SpanHandoff     = "handoff"
	SpanReplicaUp   = "replica-up"
	SpanReplicaDown = "replica-down"
)

// Request-lifecycle span kinds (span schema v2). A request's causal chain
// is bracketed by req-start (the server consumed its first bytes) and
// exactly one terminal req-done (a validated — or rejected — response
// reached the client) or req-lost (the request can never complete: its
// connection died, the server died, or the run ended with it in flight).
const (
	SpanReqStart = "req-start"
	SpanReqDone  = "req-done"
	SpanReqLost  = "req-lost"
)

// Heap-domain span kinds (the rewind-and-discard checkpoint strategy).
// domain-switch marks a request's protection domain becoming current
// (its first arena allocation); domain-discard marks a crash rolling the
// domain's arena back in O(1) (rollback discards only — request-end
// retires are counters, not spans, so a discard never follows the same
// transaction's commit); domain-violation marks a cross-domain access
// trapping as a fail-stop crash cause (the containment guarantee: the
// next span on that thread is the crash/shed/unrecovered it becomes).
// latch-domains is the §IV-C policy latching a gate to the rewind
// strategy.
const (
	SpanDomainSwitch    = "domain-switch"
	SpanDomainDiscard   = "domain-discard"
	SpanDomainViolation = "domain-violation"
	SpanLatchDomains    = "latch-domains"
)

// SpanEvent is one structured transaction event, timestamped in cost-model
// cycles. Field order is the JSONL column order; json.Marshal preserves
// it, so encoded output is byte-deterministic.
type SpanEvent struct {
	Seq     int64  `json:"seq"`
	Cycles  int64  `json:"cycles"`
	Thread  int    `json:"thread"`
	Replica int    `json:"replica,omitempty"` // 1-based fleet replica (0 = not a fleet run)
	Inc     int    `json:"inc,omitempty"`     // 1-based supervisor incarnation on that replica
	Trace   int64  `json:"trace,omitempty"`   // causal request trace ID (0 = none)
	Kind    string `json:"kind"`
	Site    int    `json:"site,omitempty"`
	Call    string `json:"call,omitempty"`
	Variant string `json:"variant,omitempty"` // "htm", "stm" or "domain"
	Cause   string `json:"cause,omitempty"`   // abort cause
	Detail  string `json:"detail,omitempty"`
}

// DefaultSpanLimit bounds a span log (crash storms, §VII of the paper).
const DefaultSpanLimit = 50_000

// Span-log block sizes: a log's first block holds spanBlockMin events and
// each further block doubles, up to spanBlockMax. Blocks are never
// regrown, so a log allocates about its final size once.
const (
	spanBlockMin = 64
	spanBlockMax = 4096
)

// SpanLog is a bounded, deterministic event buffer. Once Limit events are
// recorded a single terminal "truncated" marker is appended and further
// events only increment the dropped counter — truncation is never silent.
// Events live in never-regrown blocks (see spanBlockMin); the marker is
// kept apart from them.
type SpanLog struct {
	// Limit caps recorded events (<= 0 means DefaultSpanLimit).
	Limit int

	blocks  [][]SpanEvent
	n       int       // events in blocks
	marker  SpanEvent // the truncated marker, once dropped > 0
	dropped int64
	seq     int64
}

// limit resolves the effective cap.
func (l *SpanLog) limit() int {
	if l.Limit <= 0 {
		return DefaultSpanLimit
	}
	return l.Limit
}

// Full reports whether the log is at its cap: every further event is
// dropped. An emitter that checks Full can count a drop (Drop) without
// building the event.
func (l *SpanLog) Full() bool { return l.n >= l.limit() }

// Append records an event (stamping Seq) and reports whether it was
// stored. At the cap the event is dropped (see Drop).
func (l *SpanLog) Append(e SpanEvent) bool {
	if l.Full() {
		l.Drop(e.Cycles, e.Thread)
		return false
	}
	l.seq++
	e.Seq = l.seq
	l.push(e)
	return true
}

// Drop counts one event refused at the cap (call it only when Full),
// emitted at cycles by thread. The first drop stores the terminal
// truncated marker, stamped with that event's cycles and thread; later
// ones only count and allocate nothing. The marker's Detail (the dropped
// count) is rendered where the log is read, and only Drop changes the
// count, so every read of the same log state sees the same bytes.
func (l *SpanLog) Drop(cycles int64, thread int) {
	l.dropped++
	if l.dropped > 1 {
		return
	}
	l.seq++
	l.marker = SpanEvent{Seq: l.seq, Cycles: cycles, Thread: thread, Kind: SpanTruncated}
}

// push stores e in the open block, starting a new block when it is full.
// A new block is never larger than the cap leaves room for.
func (l *SpanLog) push(e SpanEvent) {
	last := len(l.blocks) - 1
	if last < 0 || len(l.blocks[last]) == cap(l.blocks[last]) {
		size := spanBlockMin
		if last >= 0 {
			size = min(2*cap(l.blocks[last]), spanBlockMax)
		}
		size = min(size, l.limit()-l.n)
		l.blocks = append(l.blocks, make([]SpanEvent, 0, size))
		last++
	}
	l.blocks[last] = append(l.blocks[last], e)
	l.n++
}

// Len returns the number of stored events (including a truncated marker).
func (l *SpanLog) Len() int {
	if l.dropped > 0 {
		return l.n + 1
	}
	return l.n
}

// Dropped returns how many events were discarded past the cap.
func (l *SpanLog) Dropped() int64 { return l.dropped }

// Events returns a copy of the stored events, allocated at its final
// length. The truncated marker's Detail carries the dropped count.
func (l *SpanLog) Events() []SpanEvent {
	if l.Len() == 0 {
		return nil
	}
	out := make([]SpanEvent, l.Len())
	l.copyTo(out)
	return out
}

// copyTo copies the stored events into dst (at least Len long), the
// truncated marker last.
func (l *SpanLog) copyTo(dst []SpanEvent) {
	at := 0
	for _, b := range l.blocks {
		at += copy(dst[at:], b)
	}
	if l.dropped > 0 {
		dst[at] = l.truncated()
	}
}

// truncated returns the truncated marker with its Detail rendered from
// the dropped count.
func (l *SpanLog) truncated() SpanEvent {
	m := l.marker
	m.Detail = fmt.Sprintf("dropped=%d limit=%d", l.dropped, l.limit())
	return m
}

// WriteJSONL writes one JSON object per event (see WriteSpans).
func (l *SpanLog) WriteJSONL(w io.Writer) error {
	for _, b := range l.blocks {
		if err := WriteSpans(w, b); err != nil {
			return err
		}
	}
	if l.dropped > 0 {
		return WriteSpans(w, []SpanEvent{l.truncated()})
	}
	return nil
}
