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

// SpanLog is a bounded, deterministic event buffer. Once Limit events are
// recorded a single terminal "truncated" marker is appended and further
// events only increment the dropped counter — truncation is never silent.
type SpanLog struct {
	// Limit caps recorded events (<= 0 means DefaultSpanLimit).
	Limit int

	events  []SpanEvent
	dropped int64
	seq     int64
	fp      uint64 // incremental hash chain (see fingerprint.go)
}

// limit resolves the effective cap.
func (l *SpanLog) limit() int {
	if l.Limit <= 0 {
		return DefaultSpanLimit
	}
	return l.Limit
}

// Append records an event (stamping Seq) and reports whether it was
// stored. At the cap the first refused event appends the terminal
// truncated marker; subsequent ones only count. The marker's Detail is
// stamped here — never on read — so Events, WriteJSONL and any direct
// consumer observe the same bytes no matter when they look.
func (l *SpanLog) Append(e SpanEvent) bool {
	if len(l.events) >= l.limit() {
		l.dropped++
		if l.dropped == 1 {
			l.seq++
			marker := SpanEvent{
				Seq:    l.seq,
				Cycles: e.Cycles,
				Thread: e.Thread,
				Kind:   SpanTruncated,
			}
			l.chain(marker)
			l.events = append(l.events, marker)
		}
		l.stampMarker()
		return false
	}
	l.seq++
	e.Seq = l.seq
	l.chain(e)
	l.events = append(l.events, e)
	return true
}

// chain folds a stored event into the incremental fingerprint.
func (l *SpanLog) chain(e SpanEvent) {
	if l.seq == 1 {
		l.fp = FingerprintSeed
	}
	l.fp = ChainFingerprint(l.fp, e)
}

// Len returns the number of stored events (including a truncated marker).
func (l *SpanLog) Len() int { return len(l.events) }

// Dropped returns how many events were discarded past the cap.
func (l *SpanLog) Dropped() int64 { return l.dropped }

// Events returns a copy of the stored events. The truncated marker's
// Detail carries the dropped count as of the last Append — reading is a
// pure copy and never rewrites stored state.
func (l *SpanLog) Events() []SpanEvent {
	return append([]SpanEvent(nil), l.events...)
}

// stampMarker refreshes the stored truncated marker's Detail with the
// current dropped count (called from Append only).
func (l *SpanLog) stampMarker() {
	if l.dropped == 0 || len(l.events) == 0 {
		return
	}
	last := &l.events[len(l.events)-1]
	if last.Kind == SpanTruncated {
		last.Detail = fmt.Sprintf("dropped=%d limit=%d", l.dropped, l.limit())
	}
}

// WriteJSONL writes one JSON object per event (see WriteSpans).
func (l *SpanLog) WriteJSONL(w io.Writer) error { return WriteSpans(w, l.events) }
