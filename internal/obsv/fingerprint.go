package obsv

// Span-stream fingerprinting. The fingerprint of a span stream is an
// FNV-1a hash chain over its events: after event i the chain value is
// ChainFingerprint(chain_{i-1}, e_i), with chain_{-1} = FingerprintSeed.
// A SpanLog folds its stored events, then its truncated marker, when
// Fingerprint is called, so appending costs no hashing and
// Fingerprint(log.Events()) always equals log.Fingerprint(). A truncated
// marker's Detail is rendered from the dropped count, which later drops
// change, so it is excluded from the chain.
//
// The chain is the divergence detector of the record/replay layer
// (internal/replay): a recording stores the per-span chain values, and a
// replayed run that produces a different event at position i differs at
// chain value i — the first mismatch names the exact span.

// FingerprintSeed is the chain's initial value (the FNV-1a 64-bit offset
// basis).
const FingerprintSeed uint64 = 14695981039346656037

const fnvPrime uint64 = 1099511628211

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnvInt(h uint64, v int64) uint64 {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(u>>(8*i)))
	}
	return h
}

func fnvStr(h uint64, s string) uint64 {
	h = fnvInt(h, int64(len(s)))
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// ChainFingerprint folds one event into the chain. Every field
// participates except a truncated marker's Detail (it carries the dropped
// count, which later drops change, so it cannot be hashed at append
// time).
func ChainFingerprint(h uint64, e SpanEvent) uint64 {
	h = fnvInt(h, e.Seq)
	h = fnvInt(h, e.Cycles)
	h = fnvInt(h, int64(e.Thread))
	h = fnvInt(h, int64(e.Replica))
	h = fnvInt(h, int64(e.Inc))
	h = fnvInt(h, e.Trace)
	h = fnvStr(h, e.Kind)
	h = fnvInt(h, int64(e.Site))
	h = fnvStr(h, e.Call)
	h = fnvStr(h, e.Variant)
	h = fnvStr(h, e.Cause)
	if e.Kind != SpanTruncated {
		h = fnvStr(h, e.Detail)
	}
	return h
}

// Fingerprint computes the chain value of an event stream from scratch.
// For any SpanLog l, Fingerprint(l.Events()) == l.Fingerprint().
func Fingerprint(events []SpanEvent) uint64 {
	h := FingerprintSeed
	for _, e := range events {
		h = ChainFingerprint(h, e)
	}
	return h
}

// Fingerprint returns the hash-chain value over every event appended so
// far, the truncated marker last (FingerprintSeed for an empty log). It
// folds the stored events on every call: O(Len).
func (l *SpanLog) Fingerprint() uint64 {
	h := FingerprintSeed
	for _, b := range l.blocks {
		for _, e := range b {
			h = ChainFingerprint(h, e)
		}
	}
	if l.dropped > 0 {
		h = ChainFingerprint(h, l.marker)
	}
	return h
}
