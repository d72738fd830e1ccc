package obsv

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// flatLog is the reference span log: one flat slice, the truncated
// marker's Detail stamped on every drop. Block storage must be
// indistinguishable from it through every reader.
type flatLog struct {
	limit   int
	events  []SpanEvent
	dropped int64
	seq     int64
	fp      uint64
}

func (l *flatLog) append(e SpanEvent) {
	if len(l.events) >= l.limit {
		l.dropped++
		if l.dropped == 1 {
			l.seq++
			marker := SpanEvent{Seq: l.seq, Cycles: e.Cycles, Thread: e.Thread, Kind: SpanTruncated}
			l.chain(marker)
			l.events = append(l.events, marker)
		}
		l.events[len(l.events)-1].Detail = fmt.Sprintf("dropped=%d limit=%d", l.dropped, l.limit)
		return
	}
	l.seq++
	e.Seq = l.seq
	l.chain(e)
	l.events = append(l.events, e)
}

func (l *flatLog) chain(e SpanEvent) {
	if l.seq == 1 {
		l.fp = FingerprintSeed
	}
	l.fp = ChainFingerprint(l.fp, e)
}

func (l *flatLog) fingerprint() uint64 {
	if l.seq == 0 {
		return FingerprintSeed
	}
	return l.fp
}

// spanAt is the i-th event of a deterministic test stream with every
// field varying.
func spanAt(i int) SpanEvent {
	kinds := []string{SpanBegin, SpanCrash, SpanReqDone}
	return SpanEvent{
		Seq: 99, Cycles: int64(3 * i), Thread: i % 4, Replica: i % 3, Inc: i % 2,
		Trace: int64(i % 7), Kind: kinds[i%3], Site: i % 5, Call: "read",
		Variant: "htm", Cause: "segv", Detail: fmt.Sprintf("i=%d", i),
	}
}

func jsonl(t *testing.T, write func(*bytes.Buffer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSpanLogBlocksMatchFlatReference: a block-backed log reads exactly
// like the flat reference (Events, Len, Dropped, WriteJSONL bytes,
// Fingerprint, marker Detail) at limits on and next to block boundaries,
// filled short of the cap, to it, and past it.
func TestSpanLogBlocksMatchFlatReference(t *testing.T) {
	for _, limit := range []int{1, 63, 64, 65, 4096, 4097, 10_000} {
		for _, n := range []int{limit - 1, limit, limit + 1, limit + 2, limit + 300} {
			l := &SpanLog{Limit: limit}
			ref := &flatLog{limit: limit}
			for i := 0; i < n; i++ {
				e := spanAt(i)
				stored := l.Append(e)
				ref.append(e)
				if stored != (i < limit) {
					t.Fatalf("limit %d: Append #%d stored=%v", limit, i, stored)
				}
			}
			name := fmt.Sprintf("limit %d, %d appends", limit, n)
			if l.Len() != len(ref.events) || l.Dropped() != ref.dropped {
				t.Fatalf("%s: Len %d Dropped %d, want %d and %d",
					name, l.Len(), l.Dropped(), len(ref.events), ref.dropped)
			}
			events := l.Events()
			if !reflect.DeepEqual(events, ref.events) {
				t.Fatalf("%s: Events differ from the flat reference", name)
			}
			if cap(events) != len(events) {
				t.Errorf("%s: Events cap %d != len %d", name, cap(events), len(events))
			}
			got := jsonl(t, func(b *bytes.Buffer) error { return l.WriteJSONL(b) })
			want := jsonl(t, func(b *bytes.Buffer) error { return WriteSpans(b, ref.events) })
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: WriteJSONL bytes differ from the flat reference", name)
			}
			if l.Fingerprint() != ref.fingerprint() || Fingerprint(events) != l.Fingerprint() {
				t.Fatalf("%s: Fingerprint %016x, reference %016x, batch %016x",
					name, l.Fingerprint(), ref.fingerprint(), Fingerprint(events))
			}
			if ref.dropped > 0 {
				if d := events[len(events)-1].Detail; d != fmt.Sprintf("dropped=%d limit=%d", ref.dropped, limit) {
					t.Fatalf("%s: marker Detail %q", name, d)
				}
			}
			// Storage is never regrown and is about the final size.
			held := 0
			for _, b := range l.blocks {
				held += cap(b)
			}
			if held > l.Len()+spanBlockMax {
				t.Errorf("%s: blocks hold %d events for %d stored", name, held, l.Len())
			}
		}
	}
}

// TestSpanLogDropAllocatesNothing: past the cap an Append only counts.
func TestSpanLogDropAllocatesNothing(t *testing.T) {
	l := &SpanLog{Limit: 8}
	for i := 0; i < 9; i++ {
		l.Append(spanAt(i))
	}
	e := spanAt(42)
	if allocs := testing.AllocsPerRun(1000, func() { l.Append(e) }); allocs != 0 {
		t.Errorf("Append past the cap: %v allocs, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { l.Drop(7, 1) }); allocs != 0 {
		t.Errorf("Drop: %v allocs, want 0", allocs)
	}
}

// TestSpanLogMarkerPinned: the exported bytes and Fingerprint of a
// truncated log after 1, 2 and 100k drops are those of the flat log that
// stamped the marker's Detail on every drop (values pinned from it).
func TestSpanLogMarkerPinned(t *testing.T) {
	for _, c := range []struct {
		drops  int
		marker string
		sha    string
		fp     uint64
	}{
		{1, `{"seq":65,"cycles":192,"thread":0,"kind":"truncated","detail":"dropped=1 limit=64"}`, "61fec20e53d3af8298daee02bae77ec854ad4c22a50b281d6473d3dab5d45ea5", 0x65d200dac2c9a210},
		{2, `{"seq":65,"cycles":192,"thread":0,"kind":"truncated","detail":"dropped=2 limit=64"}`, "0526c74a59fb83ea70d81790fe289ff63e65847bcfdbdf6c0ecb6d7115052d3d", 0x65d200dac2c9a210},
		{100_000, `{"seq":65,"cycles":192,"thread":0,"kind":"truncated","detail":"dropped=100000 limit=64"}`, "173f6fa38d0fd561f56747fe82d0c986cfa54693482ecb9f716fc5a9e34d04dc", 0x65d200dac2c9a210},
	} {
		l := &SpanLog{Limit: 64}
		for i := 0; i < 64+c.drops; i++ {
			l.Append(spanAt(i))
		}
		out := jsonl(t, func(b *bytes.Buffer) error { return l.WriteJSONL(b) })
		lines := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")
		if got := lines[len(lines)-1]; got != c.marker {
			t.Errorf("%d drops: marker %s, want %s", c.drops, got, c.marker)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(out)); got != c.sha {
			t.Errorf("%d drops: export sha256 %s, want %s", c.drops, got, c.sha)
		}
		if got := l.Fingerprint(); got != c.fp {
			t.Errorf("%d drops: Fingerprint %#x, want %#x", c.drops, got, c.fp)
		}
	}
}

// BenchmarkSpanLogAppend times one Append: stored (a fresh log every
// DefaultSpanLimit events, so block allocation amortises as in a real
// incarnation) and dropped past the cap.
func BenchmarkSpanLogAppend(b *testing.B) {
	e := SpanEvent{Cycles: 7, Thread: 1, Trace: 3, Kind: SpanBegin, Site: 2, Call: "read", Variant: "htm"}
	b.Run("stored", func(b *testing.B) {
		b.ReportAllocs()
		l := &SpanLog{}
		for i := 0; i < b.N; i++ {
			if l.Len() == DefaultSpanLimit {
				l = &SpanLog{}
			}
			l.Append(e)
		}
	})
	b.Run("dropped", func(b *testing.B) {
		l := &SpanLog{Limit: 1}
		l.Append(e)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l.Append(e)
		}
	})
}
