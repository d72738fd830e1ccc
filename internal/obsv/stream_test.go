package obsv

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestSpanJSONLRoundTrip: WriteSpans → ReadSpans gives back the exact
// events, both with every field set and with every omitempty field at its
// zero value, and re-encoding the decoded stream gives the same bytes.
func TestSpanJSONLRoundTrip(t *testing.T) {
	in := []SpanEvent{
		{Seq: 1, Cycles: 10, Thread: 2, Replica: 3, Inc: 4, Trace: 5, Kind: SpanCrash,
			Site: 6, Call: "malloc", Variant: "stm", Cause: "segv", Detail: "attempt=1"},
		{Seq: 2, Cycles: 11, Kind: SpanReqStart},
		{},
		{Seq: 4, Cycles: 12, Thread: 1, Kind: SpanTruncated, Detail: "dropped=3 limit=3"},
	}
	var buf bytes.Buffer
	if err := WriteSpans(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadSpans(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", out, in)
	}
	var again bytes.Buffer
	if err := WriteSpans(&again, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Errorf("re-encoding changed the bytes:\n%s\nvs\n%s", again.String(), buf.String())
	}
}

// TestReadSpansReportsLine: blank lines are skipped, a malformed line
// fails with its 1-based line number.
func TestReadSpansReportsLine(t *testing.T) {
	in := "{\"seq\":1,\"cycles\":0,\"thread\":0,\"kind\":\"begin\"}\n\nnot json\n"
	_, err := ReadSpans(bytes.NewReader([]byte(in)))
	if err == nil || !strings.HasPrefix(err.Error(), "line 3:") {
		t.Fatalf("err = %v, want a line 3 error", err)
	}
}

// TestAssembleShiftsNonzeroTraces: cycles move onto the outer clock, a
// nonzero trace ID onto the outer ID space, trace 0 stays 0, Seq is
// cleared, a nonzero Replica/Inc stamps every event of its piece, pieces
// keep their order, and the inputs are not modified.
func TestAssembleShiftsNonzeroTraces(t *testing.T) {
	in := []SpanEvent{
		{Seq: 1, Cycles: 5, Trace: 0, Kind: SpanAbort},
		{Seq: 2, Cycles: 7, Trace: 3, Kind: SpanReqDone},
	}
	var log SpanLog
	log.Append(SpanEvent{Cycles: 1, Inc: 9, Kind: SpanReboot})
	got := Assemble(
		Piece{Log: &log, Replica: 2},
		Piece{Spans: in, Clock: 100, TraceBase: 40},
		Piece{Spans: in[1:], Inc: 4, Replica: 1},
	)
	want := []SpanEvent{
		{Cycles: 1, Replica: 2, Inc: 9, Kind: SpanReboot},
		{Cycles: 105, Trace: 0, Kind: SpanAbort},
		{Cycles: 107, Trace: 43, Kind: SpanReqDone},
		{Cycles: 7, Trace: 3, Replica: 1, Inc: 4, Kind: SpanReqDone},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Assemble:\n got %+v\nwant %+v", got, want)
	}
	if cap(got) != len(got) {
		t.Errorf("cap %d != len %d", cap(got), len(got))
	}
	if in[0].Seq != 1 || in[1].Cycles != 7 || in[1].Trace != 3 {
		t.Errorf("Assemble modified its input: %+v", in)
	}
	if e := log.Events()[0]; e.Seq != 1 || e.Replica != 0 {
		t.Errorf("Assemble modified its input log: %+v", e)
	}
	if Assemble() != nil || Assemble(Piece{}, Piece{Log: &SpanLog{}}) != nil {
		t.Error("an empty assembly is not nil")
	}
}

// randomStream returns n events with cycles drawn from a small range (so
// ties are common) and a per-stream tag in Detail; sorted puts them in
// non-decreasing cycle order.
func randomStream(rng *rand.Rand, n int, tag string, sorted bool) []SpanEvent {
	s := make([]SpanEvent, n)
	for i := range s {
		s[i] = SpanEvent{Seq: int64(i + 1), Cycles: rng.Int63n(8), Kind: SpanCrash, Detail: tag, Site: i}
	}
	if sorted {
		sort.SliceStable(s, func(i, j int) bool { return s[i].Cycles < s[j].Cycles })
	}
	return s
}

// TestMergeTieOrder: Assemble then Merge orders equal cycles exactly as
// the two mergers they replaced did. The supervised campaign merged a
// runtime stream and a supervisor stream, both cycle-ordered, taking the
// runtime event first on a tie; the fleet stable-sorted its replica spans
// (in harvest order, not cycle order) followed by its own events.
func TestMergeTieOrder(t *testing.T) {
	ladder := func(a, b []SpanEvent) []SpanEvent {
		out := make([]SpanEvent, 0, len(a)+len(b))
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			if b[j].Cycles < a[i].Cycles {
				out = append(out, b[j])
				j++
			} else {
				out = append(out, a[i])
				i++
			}
		}
		out = append(out, a[i:]...)
		return append(out, b[j:]...)
	}
	fleet := func(reps, own []SpanEvent) []SpanEvent {
		all := append(append([]SpanEvent(nil), reps...), own...)
		sort.SliceStable(all, func(i, j int) bool { return all[i].Cycles < all[j].Cycles })
		return all
	}
	noSeq := func(s []SpanEvent) []SpanEvent { return Assemble(Piece{Spans: s}) }
	merged := func(a, b []SpanEvent) []SpanEvent {
		out := Assemble(Piece{Spans: a}, Piece{Spans: b})
		Merge(out)
		return out
	}

	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		a := randomStream(rng, rng.Intn(20), "runtime", true)
		b := randomStream(rng, rng.Intn(6), "supervisor", true)
		want := noSeq(ladder(a, b))
		if got := merged(a, b); !reflect.DeepEqual(got, want) {
			t.Fatalf("campaign merge:\n got %+v\nwant %+v", got, want)
		}
		reps := randomStream(rng, rng.Intn(20), "replica", false)
		own := randomStream(rng, rng.Intn(6), "fleet", true)
		want = noSeq(fleet(reps, own))
		if got := merged(reps, own); !reflect.DeepEqual(got, want) {
			t.Fatalf("fleet merge:\n got %+v\nwant %+v", got, want)
		}
	}
}

// TestSequenceUncapped: the log Sequence builds takes a stream longer
// than DefaultSpanLimit whole — no truncated marker, nothing dropped,
// Seq dense from 1 — and its Fingerprint equals Fingerprint of the
// events decoded from its JSONL export.
func TestSequenceUncapped(t *testing.T) {
	n := DefaultSpanLimit + 10_000
	spans := make([]SpanEvent, n)
	for i := range spans {
		spans[i] = SpanEvent{Seq: 7, Cycles: int64(i), Thread: i % 3, Trace: int64(i % 11), Kind: SpanBegin, Variant: "htm"}
	}
	// A per-incarnation log that overflowed contributes its truncated
	// marker as an ordinary event.
	spans[n/2] = SpanEvent{Cycles: int64(n / 2), Kind: SpanTruncated, Detail: "dropped=1 limit=8"}

	log := Sequence(spans)
	if log.Len() != n || log.Dropped() != 0 {
		t.Fatalf("Len %d Dropped %d, want %d and 0", log.Len(), log.Dropped(), n)
	}
	events := log.Events()
	for i, e := range events {
		if e.Seq != int64(i+1) {
			t.Fatalf("event %d: Seq %d, want %d", i, e.Seq, i+1)
		}
	}
	if last := events[n-1]; last.Kind == SpanTruncated {
		t.Fatalf("uncapped log ends in a truncated marker: %+v", last)
	}
	var buf bytes.Buffer
	if err := log.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != n {
		t.Fatalf("decoded %d events, want %d", len(decoded), n)
	}
	if got, want := log.Fingerprint(), Fingerprint(decoded); got != want {
		t.Errorf("Fingerprint %016x, decoded export fingerprints to %016x", got, want)
	}
}

// rebaseLoop is the append-and-grow assembly Assemble replaced: each
// piece read out as a copy, rebased, stamped and appended to a growing
// slice, then stably sorted by cycles.
func rebaseLoop(pieces []Piece, merge bool) []SpanEvent {
	var out []SpanEvent
	for _, p := range pieces {
		spans := p.Spans
		if p.Log != nil {
			spans = p.Log.Events()
		}
		for _, e := range spans {
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
			out = append(out, e)
		}
	}
	if merge {
		sort.SliceStable(out, func(i, j int) bool { return out[i].Cycles < out[j].Cycles })
	}
	return out
}

// randomPieces returns up to eight pieces: span logs (some truncated, some
// past a block boundary) and plain streams, with random clocks, trace
// bases and stamps.
func randomPieces(rng *rand.Rand) []Piece {
	pieces := make([]Piece, rng.Intn(9))
	for i := range pieces {
		p := Piece{Clock: rng.Int63n(50), TraceBase: rng.Int63n(30)}
		if rng.Intn(2) == 0 {
			p.Replica, p.Inc = rng.Intn(3), rng.Intn(3)
		}
		n := rng.Intn(200)
		if rng.Intn(2) == 0 {
			p.Log = &SpanLog{Limit: 1 + rng.Intn(150)}
			for j := 0; j < n; j++ {
				e := spanAt(j)
				e.Cycles = rng.Int63n(40)
				p.Log.Append(e)
			}
		} else {
			p.Spans = randomStream(rng, n, fmt.Sprintf("piece%d", i), false)
			for j := range p.Spans {
				p.Spans[j].Trace = rng.Int63n(4)
			}
		}
		pieces[i] = p
	}
	return pieces
}

// TestAssembleMatchesRebaseLoop: Assemble (and Assemble then Merge)
// writes the same JSONL bytes as the append-and-grow loop it replaced.
func TestAssembleMatchesRebaseLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		pieces := randomPieces(rng)
		for _, merge := range []bool{false, true} {
			got := Assemble(pieces...)
			if merge {
				Merge(got)
			}
			want := rebaseLoop(pieces, merge)
			var gb, wb bytes.Buffer
			if err := WriteSpans(&gb, got); err != nil {
				t.Fatal(err)
			}
			if err := WriteSpans(&wb, want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
				t.Fatalf("iter %d (merge %v): Assemble differs from the rebase loop", iter, merge)
			}
			if len(got) != cap(got) {
				t.Fatalf("iter %d: cap %d != len %d", iter, cap(got), len(got))
			}
		}
	}
}

// TestAssembleAllocatesOnce: assembling any number of pieces (logs across
// several blocks and plain streams) allocates once, the result, and the
// in-place Merge allocates nothing.
func TestAssembleAllocatesOnce(t *testing.T) {
	var pieces []Piece
	for i := 0; i < 6; i++ {
		l := &SpanLog{}
		for j := 0; j < 100*i+37; j++ {
			l.Append(spanAt(j))
		}
		pieces = append(pieces,
			Piece{Log: l, Clock: int64(i), Replica: i, Inc: 1},
			Piece{Spans: l.Events(), TraceBase: int64(i)})
	}
	if allocs := testing.AllocsPerRun(20, func() { Assemble(pieces...) }); allocs != 1 {
		t.Errorf("Assemble of %d pieces: %v allocs, want 1", len(pieces), allocs)
	}
	spans := Assemble(pieces...)
	if allocs := testing.AllocsPerRun(20, func() { Merge(spans) }); allocs != 0 {
		t.Errorf("Merge: %v allocs, want 0", allocs)
	}
}

// TestSequenceFingerprintMatchesSequence: the in-place fingerprint equals
// the sequenced log's, for an assembled stream holding a truncated marker
// (whose Detail stays out of the chain) and for the empty stream, and it
// allocates nothing.
func TestSequenceFingerprintMatchesSequence(t *testing.T) {
	full := &SpanLog{Limit: 5}
	for j := 0; j < 9; j++ {
		full.Append(spanAt(j))
	}
	other := &SpanLog{}
	for j := 0; j < 40; j++ {
		other.Append(spanAt(j))
	}
	spans := Assemble(Piece{Log: full, Clock: 3, TraceBase: 2}, Piece{Log: other, Clock: 100, TraceBase: 9})
	at := full.Len() - 1
	if spans[at].Kind != SpanTruncated || spans[at].Detail == "" {
		t.Fatalf("event %d = %+v, want the truncated marker", at, spans[at])
	}
	want := Sequence(spans).Fingerprint()
	if got := SequenceFingerprint(spans); got != want {
		t.Errorf("SequenceFingerprint %016x, Sequence(...).Fingerprint() %016x", got, want)
	}
	spans[at].Detail = "dropped=999 limit=5"
	if got := SequenceFingerprint(spans); got != want {
		t.Errorf("the marker's Detail entered the chain: %016x, want %016x", got, want)
	}
	if got := SequenceFingerprint(nil); got != FingerprintSeed || got != Sequence(nil).Fingerprint() {
		t.Errorf("empty stream: %016x, want FingerprintSeed %016x", got, FingerprintSeed)
	}
	if allocs := testing.AllocsPerRun(20, func() { SequenceFingerprint(spans) }); allocs != 0 {
		t.Errorf("SequenceFingerprint: %v allocs, want 0", allocs)
	}
}
