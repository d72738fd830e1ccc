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
// experiment reports one span stream built from many pieces: span logs
// (one per incarnation, supervisor or balancer) or streams assembled one
// level down (one per campaign). Assemble copies every piece once into a
// stream allocated at its final length, rebasing it onto the outer clock
// and trace-ID space on the way; Merge puts an assembled stream in cycle
// order in place; and Sequence densely re-sequences it before it is
// exported (WriteSpans; ReadSpans reads it back), as SequenceFingerprint
// does on the fly to fingerprint it. An assembled stream carries no
// sequence numbers until Sequence stamps them.

// Piece is one input of Assemble: a span log (Log) or, when Log is nil,
// an assembled stream (Spans). Its cycles are shifted by Clock and its
// nonzero trace IDs by TraceBase (trace 0 means "no request" and stays
// 0); a nonzero Replica or Inc overwrites that field of every event.
type Piece struct {
	Log       *SpanLog
	Spans     []SpanEvent
	Clock     int64
	TraceBase int64
	Replica   int
	Inc       int
}

// len returns the number of events the piece contributes.
func (p *Piece) len() int {
	if p.Log != nil {
		return p.Log.Len()
	}
	return len(p.Spans)
}

// Assemble returns the pieces' events, in piece order, in one slice
// allocated once at their total length (its cap equals its length), each
// event rebased and stamped as its piece says and with Seq cleared. The
// pieces are only read. Besides that slice, only a truncated log's marker
// Detail allocates.
func Assemble(pieces ...Piece) []SpanEvent {
	n := 0
	for i := range pieces {
		n += pieces[i].len()
	}
	if n == 0 {
		return nil
	}
	out := make([]SpanEvent, n)
	at := 0
	for i := range pieces {
		p := &pieces[i]
		dst := out[at : at+p.len()]
		at += len(dst)
		if p.Log != nil {
			p.Log.copyTo(dst)
		} else {
			copy(dst, p.Spans)
		}
		for j := range dst {
			e := &dst[j]
			e.Seq = 0
			e.Cycles += p.Clock
			if e.Trace != 0 {
				e.Trace += p.TraceBase
			}
			if p.Replica != 0 {
				e.Replica = p.Replica
			}
			if p.Inc != 0 {
				e.Inc = p.Inc
			}
		}
	}
	return out
}

// Merge stably sorts an assembled stream by cycles in place: on equal
// cycles events keep their assembled order, so an earlier piece's events
// come first and events of one piece keep their order.
func Merge(spans []SpanEvent) {
	slices.SortStableFunc(spans, func(a, b SpanEvent) int { return cmp.Compare(a.Cycles, b.Cycles) })
}

// Sequence returns a log holding spans re-sequenced densely from 1: the
// exported form of an assembled stream. Its cap is the stream's length,
// so nothing is truncated or dropped however long the stream is, and its
// Fingerprint commits to every byte its WriteJSONL writes. The log is one
// block of exactly that length.
func Sequence(spans []SpanEvent) *SpanLog {
	l := &SpanLog{Limit: len(spans)}
	if len(spans) > 0 {
		l.blocks = [][]SpanEvent{make([]SpanEvent, 0, len(spans))}
	}
	for _, e := range spans {
		l.Append(e)
	}
	return l
}

// SequenceFingerprint returns Sequence(spans).Fingerprint() without
// building the log: it folds the chain over spans in place, each event
// stamped with its dense Seq as it goes, and allocates nothing.
func SequenceFingerprint(spans []SpanEvent) uint64 {
	h := FingerprintSeed
	for i, e := range spans {
		e.Seq = int64(i + 1)
		h = ChainFingerprint(h, e)
	}
	return h
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
