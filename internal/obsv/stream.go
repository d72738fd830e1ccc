package obsv

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// Span-stream assembly. A supervised campaign, a fleet or a whole
// experiment reports one span stream built from many span logs (one per
// incarnation, replica or campaign). Each log is rebased onto the outer
// clock and trace-ID space (Rebase), the pieces are put in cycle order
// (Merge), and the assembled stream is densely re-sequenced (Sequence)
// before it is fingerprinted or exported (WriteSpans; ReadSpans reads it
// back). An assembled stream carries no sequence numbers until Sequence
// stamps them.

// Rebase appends spans to dst with cycles shifted by clock and every
// nonzero trace ID shifted by traceBase (trace 0 means "no request" and
// stays 0). Seq is cleared.
func Rebase(dst, spans []SpanEvent, clock, traceBase int64) []SpanEvent {
	for _, e := range spans {
		e.Seq = 0
		e.Cycles += clock
		if e.Trace != 0 {
			e.Trace += traceBase
		}
		dst = append(dst, e)
	}
	return dst
}

// Merge appends src to dst and returns the result stably sorted by
// cycles: on equal cycles dst's events come before src's, and events of
// one input keep their order. Seq is cleared. The sort runs in place on
// the appended slice, so dst's spare capacity is reused.
func Merge(dst, src []SpanEvent) []SpanEvent {
	out := append(dst, src...)
	for i := range out {
		out[i].Seq = 0
	}
	slices.SortStableFunc(out, func(a, b SpanEvent) int { return cmp.Compare(a.Cycles, b.Cycles) })
	return out
}

// Sequence returns a log holding spans re-sequenced densely from 1: the
// exported form of an assembled stream. Its cap is the stream's length,
// so nothing is truncated or dropped however long the stream is, and its
// Fingerprint commits to every byte its WriteJSONL writes.
func Sequence(spans []SpanEvent) *SpanLog {
	l := &SpanLog{Limit: len(spans), events: make([]SpanEvent, 0, len(spans))}
	for _, e := range spans {
		l.Append(e)
	}
	return l
}

// WriteSpans writes a span stream as JSONL, one event per line. It is the
// one span encoder: span logs, exported traces and replay companion files
// all go through it, so any two of them compare with cmp.
func WriteSpans(w io.Writer, spans []SpanEvent) error {
	enc := json.NewEncoder(w)
	for _, e := range spans {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}

// ReadSpans decodes a JSONL span stream written by WriteSpans, skipping
// blank lines. A malformed line fails with its 1-based line number.
func ReadSpans(r io.Reader) ([]SpanEvent, error) {
	var spans []SpanEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e SpanEvent
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		spans = append(spans, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return spans, nil
}
