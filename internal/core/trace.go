package core

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/obsv"
)

// EnableTrace turns on recovery-event span recording (aborts, crashes,
// retries, injections, the recovery policy's verdicts and the requests
// they touched); RenderTrace prints them.
func (rt *Runtime) EnableTrace() { rt.tracing = true }

// EnableSpans turns on full structured span recording: everything
// EnableTrace records plus a begin/commit event for every transaction,
// suitable for JSONL export via WriteTrace.
func (rt *Runtime) EnableSpans() {
	rt.tracing = true
	rt.spanAll = true
}

// Spans returns a copy of the recorded structured span events,
// including the terminal truncated marker when the log overflowed.
func (rt *Runtime) Spans() []obsv.SpanEvent { return rt.spans.Events() }

// SpanLog returns the runtime's span log itself, not a copy. Span-stream
// holders (the supervised campaign, the fleet) keep a finished
// incarnation's log and copy it once, when they assemble their stream;
// the log is allocated apart from the runtime, so holding it does not
// keep the dead incarnation's machine and memory alive.
func (rt *Runtime) SpanLog() *obsv.SpanLog { return rt.spans }

// TraceDropped returns how many events were discarded once the trace
// buffer filled (crash storms past obsv.DefaultSpanLimit).
func (rt *Runtime) TraceDropped() int64 { return rt.spans.Dropped() }

// SpanFingerprint returns the span log's incremental hash-chain value
// (obsv.FingerprintSeed while empty) — the divergence detector of the
// record/replay layer.
func (rt *Runtime) SpanFingerprint() uint64 { return rt.spans.Fingerprint() }

// WriteTrace writes the recorded spans as JSONL, one event per line.
func (rt *Runtime) WriteTrace(w io.Writer) error { return rt.spans.WriteJSONL(w) }

// RenderTrace formats the recorded span events, one line per event: the
// cycle stamp, the kind (an abort renders as htm-abort), the site and its
// library call, then the detail led by the cause. A truncated span log
// ends with its truncated marker, whose detail carries the dropped count.
func (rt *Runtime) RenderTrace() string {
	var sb strings.Builder
	for _, e := range rt.spans.Events() {
		kind := e.Kind
		if kind == obsv.SpanAbort {
			kind = "htm-abort"
		}
		fmt.Fprintf(&sb, "[%12d] %-11s site=%d", e.Cycles, kind, e.Site)
		if e.Call != "" {
			sb.WriteString(" call=" + e.Call)
		}
		if e.Cause != "" {
			sb.WriteString(" cause=" + e.Cause)
		}
		if e.Detail != "" {
			sb.WriteString(" " + e.Detail)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// spanDetail is a span's Detail before rendering: literal text, or a
// printf format with up to two integer operands. emitSpanTrace renders it
// only for a span the log keeps, so a span dropped past the cap costs no
// formatting and no allocation.
type spanDetail struct {
	format string
	n      int // operands in args; 0 means format is literal text
	args   [2]int64
}

// detailText is a literal span detail.
func detailText(text string) spanDetail { return spanDetail{format: text} }

// detailf is a span detail rendered as fmt.Sprintf(format, args...); it
// takes one or two operands.
func detailf(format string, args ...int64) spanDetail {
	d := spanDetail{format: format, n: len(args)}
	copy(d.args[:], args)
	return d
}

// String renders the detail.
func (d spanDetail) String() string {
	switch d.n {
	case 0:
		return d.format
	case 1:
		return fmt.Sprintf(d.format, d.args[0])
	default:
		return fmt.Sprintf(d.format, d.args[0], d.args[1])
	}
}

// emitSpan records one structured span event, attaching the trace ID of
// the request currently being served (the serving connection's active
// trace). Recovery-machinery kinds additionally mark that trace as
// touched-by-recovery so the driver can split latency clean vs recovered.
func (rt *Runtime) emitSpan(kind string, site int, variant, cause string, detail spanDetail) {
	if !rt.tracing {
		return
	}
	var trace int64
	if rt.os != nil {
		trace = rt.os.CurrentTrace()
	}
	if trace != 0 && obsv.RecoveryKind(kind) {
		rt.markTouched(trace)
	}
	rt.emitSpanTrace(kind, site, trace, variant, cause, detail)
}

// markTouched records a trace as touched by recovery (no-op for trace 0
// or when tracing is off — the nil-observer fast path allocates nothing).
func (rt *Runtime) markTouched(trace int64) {
	if !rt.tracing || trace == 0 {
		return
	}
	if rt.touched == nil {
		rt.touched = make(map[int64]bool)
	}
	rt.touched[trace] = true
}

// WasTouched reports whether recovery machinery touched the traced
// request. The fleet balancer consults it when it terminates requests on
// behalf of a replica (fail-over, drain) so the clean-vs-recovery
// latency split survives connection migration.
func (rt *Runtime) WasTouched(trace int64) bool { return rt.touched[trace] }

// TouchedTraces returns the recovery-touched trace IDs in ascending
// order. The fleet balancer harvests them when an incarnation dies so
// touch state outlives the runtime that recorded it.
func (rt *Runtime) TouchedTraces() []int64 {
	if len(rt.touched) == 0 {
		return nil
	}
	out := make([]int64, 0, len(rt.touched))
	for tr := range rt.touched {
		out = append(out, tr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// emitSpanTrace records one structured span event with an explicit trace
// ID. The call name resolves through the site table, so events at every
// site role carry their library-call name. Past the span log's cap the
// event is counted as dropped without being built: neither its call name
// nor its detail is resolved.
func (rt *Runtime) emitSpanTrace(kind string, site int, trace int64, variant, cause string, detail spanDetail) {
	if !rt.tracing {
		return
	}
	var cycles int64
	if rt.m != nil {
		cycles = rt.m.Cycles
	}
	if rt.spans.Full() {
		rt.spans.Drop(cycles, rt.tid)
		return
	}
	call := ""
	if s := rt.site(site); s != nil {
		call = s.Name
	}
	rt.spans.Append(obsv.SpanEvent{
		Cycles:  cycles,
		Thread:  rt.tid,
		Trace:   trace,
		Kind:    kind,
		Site:    site,
		Call:    call,
		Variant: variant,
		Cause:   cause,
		Detail:  detail.String(),
	})
}

// traceStart is the libsim trace-activation hook: the server consumed the
// first bytes of a newly delivered traced request. It charges no cycles
// and, with tracing off, allocates nothing.
func (rt *Runtime) traceStart(trace int64) {
	rt.stats.ReqStarts++
	rt.emitSpanTrace(obsv.SpanReqStart, 0, trace, "", "", spanDetail{})
}

// TraceHook exposes the activation hook so the scheduler can re-point the
// shared OS at the running thread's runtime on context switch (the same
// pattern as StoreFunc).
func (rt *Runtime) TraceHook() libsim.TraceFunc { return rt.traceStart }

// ReqDone implements workload.TraceSink: the driver validated (ok) or
// rejected (!ok) a response to the traced request. It emits the terminal
// req-done span and reports whether recovery machinery touched the
// request — the driver's clean-vs-recovery latency split.
func (rt *Runtime) ReqDone(trace int64, ok bool) bool {
	rt.stats.ReqsDone++
	verdict := detailText("ok")
	if !ok {
		verdict = detailText("bad")
	}
	rt.emitSpanTrace(obsv.SpanReqDone, 0, trace, "", "", verdict)
	return rt.touched[trace]
}

// ReqLost implements workload.TraceSink: the traced request can never
// complete (connection died mid-request, server died, or the run ended
// with it in flight). Emits the terminal req-lost span.
func (rt *Runtime) ReqLost(trace int64, cause string) {
	rt.stats.ReqsLost++
	rt.emitSpanTrace(obsv.SpanReqLost, 0, trace, "", cause, spanDetail{})
}
