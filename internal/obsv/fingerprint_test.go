package obsv

import "testing"

func fpEvents(n int) []SpanEvent {
	evs := make([]SpanEvent, 0, n)
	for i := 0; i < n; i++ {
		evs = append(evs, SpanEvent{
			Cycles: int64(100 * (i + 1)),
			Thread: i % 3,
			Trace:  int64(i),
			Kind:   SpanBegin,
			Site:   i,
			Call:   "malloc",
		})
	}
	return evs
}

func TestFingerprintIncrementalMatchesBatch(t *testing.T) {
	var l SpanLog
	if l.Fingerprint() != FingerprintSeed {
		t.Fatalf("empty log fingerprint = %#x, want seed", l.Fingerprint())
	}
	for _, e := range fpEvents(10) {
		l.Append(e)
	}
	if got, want := l.Fingerprint(), Fingerprint(l.Events()); got != want {
		t.Errorf("log %#x != batch-over-Events %#x", got, want)
	}
}

func TestFingerprintDeterministicAndOrderSensitive(t *testing.T) {
	var a, b SpanLog
	for _, e := range fpEvents(6) {
		a.Append(e)
		b.Append(e)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("identical append sequences disagree: %#x vs %#x",
			a.Fingerprint(), b.Fingerprint())
	}

	// Swapping two events must change the chain: the fingerprint is a
	// stream identity, not a multiset hash.
	evs := fpEvents(6)
	evs[2], evs[3] = evs[3], evs[2]
	var c SpanLog
	for _, e := range evs {
		c.Append(e)
	}
	if c.Fingerprint() == a.Fingerprint() {
		t.Error("reordered stream produced the same fingerprint")
	}
}

// The truncated marker's Detail changes as later events are dropped; the
// chain must exclude it so the log's value keeps matching a batch
// recomputation over Events().
func TestFingerprintStableAcrossTruncation(t *testing.T) {
	l := SpanLog{Limit: 4}
	for _, e := range fpEvents(10) {
		l.Append(e)
	}
	if l.Dropped() == 0 {
		t.Fatal("expected drops")
	}
	after := l.Fingerprint()
	if got := Fingerprint(l.Events()); got != after {
		t.Errorf("batch %#x != log %#x after truncation", got, after)
	}
	// Further drops rewrite the marker Detail but never move the chain.
	l.Append(SpanEvent{Kind: SpanCrash})
	if l.Fingerprint() != after {
		t.Error("dropped event moved the fingerprint")
	}
	if got := Fingerprint(l.Events()); got != after {
		t.Errorf("batch %#x != log %#x after more drops", got, after)
	}
}
