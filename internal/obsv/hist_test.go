package obsv

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestHistExactSmallValues(t *testing.T) {
	h := NewHist()
	for v := int64(0); v < histSubCount; v++ {
		h.Observe(v)
	}
	if h.Count() != histSubCount {
		t.Fatalf("count = %d", h.Count())
	}
	// Small values are bucketed exactly, so every quantile is the exact
	// nearest-rank sample.
	if got := h.Quantile(0.5); got != 15 {
		t.Errorf("p50 = %d, want 15", got)
	}
	if got := h.Quantile(1.0); got != 31 {
		t.Errorf("p100 = %d, want 31", got)
	}
	if h.Min() != 0 || h.Max() != 31 {
		t.Errorf("min/max = %d/%d", h.Min(), h.Max())
	}
}

func TestHistQuantileErrorBoundAndClamp(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewHist()
	var samples []int64
	for i := 0; i < 5000; i++ {
		v := rng.Int63n(1_000_000)
		samples = append(samples, v)
		h.Observe(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1.0} {
		rank := int(q * float64(len(samples)))
		if rank > 0 {
			rank--
		}
		exact := samples[rank]
		got := h.Quantile(q)
		// Log-linear bucketing guarantees <= 1/histSubCount relative error
		// above the exact value, and the clamp keeps it under the max.
		hi := exact + exact/histSubCount + 1
		if got < exact-exact/histSubCount-1 || got > hi {
			t.Errorf("q=%v: got %d, exact %d (allowed up to %d)", q, got, exact, hi)
		}
		if got > h.Max() {
			t.Errorf("q=%v: %d exceeds observed max %d", q, got, h.Max())
		}
	}
	var sum int64
	for _, v := range samples {
		sum += v
	}
	if h.Sum() != sum {
		t.Errorf("sum = %d, want %d", h.Sum(), sum)
	}
}

func TestHistOrderIndependent(t *testing.T) {
	vals := []int64{9, 100000, 3, 77, 77, 2048, 0, 55555, 1}
	a, b := NewHist(), NewHist()
	for _, v := range vals {
		a.Observe(v)
	}
	for i := len(vals) - 1; i >= 0; i-- {
		b.Observe(vals[i])
	}
	if a.Percentiles() != b.Percentiles() {
		t.Errorf("order-dependent percentiles: %+v vs %+v", a.Percentiles(), b.Percentiles())
	}
	if a.Sum() != b.Sum() || a.Count() != b.Count() || a.Max() != b.Max() || a.Min() != b.Min() {
		t.Errorf("order-dependent aggregates")
	}
}

func TestHistEmptyAndNegative(t *testing.T) {
	h := NewHist()
	if h.Quantile(0.99) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Errorf("empty histogram not all-zero")
	}
	h.Observe(-5)
	if h.Min() != 0 || h.Max() != 0 || h.Count() != 1 {
		t.Errorf("negative sample not clamped: %+v", h)
	}
}

func TestHistBucketContinuity(t *testing.T) {
	// Every value maps into a bucket whose upper bound is >= the value,
	// and indices are non-decreasing in the value.
	last := -1
	for v := int64(0); v < 5000; v++ {
		i := histIndex(v)
		if i < last {
			t.Fatalf("index regressed at v=%d: %d < %d", v, i, last)
		}
		if histUpper(i) < v {
			t.Fatalf("upper(%d)=%d < v=%d", i, histUpper(i), v)
		}
		last = i
	}
}

// TestHistRankMatchesSortedOracle is the property test for the integer
// nearest-rank computation: for adversarial sample counts (around
// per-mille boundaries, where ceil(q*n) used to mis-round through float
// arithmetic) and small exactly-bucketed values, Quantile must return
// precisely the sorted-slice nearest-rank sample.
func TestHistRankMatchesSortedOracle(t *testing.T) {
	quantiles := []float64{0.001, 0.5, 0.9, 0.99, 0.999, 1.0}
	// Counts chosen adversarially: multiples of 1000 (exact per-mille
	// boundaries), off-by-one around them, powers of two, and primes.
	counts := []int{1, 2, 3, 7, 31, 100, 127, 999, 1000, 1001, 2000, 2048, 4999, 5000, 5001, 10000}
	for _, n := range counts {
		h := NewHist()
		samples := make([]int64, 0, n)
		// Keep every sample below histSubCount so bucketing is exact and
		// the only possible error is the rank computation itself.
		for i := 0; i < n; i++ {
			v := int64(i % histSubCount)
			samples = append(samples, v)
			h.Observe(v)
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		for _, q := range quantiles {
			// Oracle: 1-based nearest rank ceil(q*n), computed safely in
			// big-enough float math for these small n and cross-checked by
			// construction (q*1000 is integral for every q above).
			num := int64(math.Round(q * 1000))
			rank := (num*int64(n) + 999) / 1000
			if rank < 1 {
				rank = 1
			}
			if rank > int64(n) {
				rank = int64(n)
			}
			want := samples[rank-1]
			if got := h.Quantile(q); got != want {
				t.Errorf("n=%d q=%v: Quantile=%d, oracle rank %d -> %d", n, q, got, rank, want)
			}
		}
	}
}

// TestHistRankIntegerExact pins histRank against exact integer ceil for
// counts where float rounding of q*count is known to land on the wrong
// side of the boundary in at least one direction.
func TestHistRankIntegerExact(t *testing.T) {
	for _, q := range []float64{0.001, 0.5, 0.9, 0.99, 0.999} {
		num := int64(math.Round(q * 1000))
		for _, n := range []int64{1, 3, 999, 1000, 1001, 10_000, 1 << 20, 1 << 40, math.MaxInt64 / 2, math.MaxInt64} {
			want := oracleCeilMul(num, n)
			if got := histRank(q, n); got != want {
				t.Errorf("histRank(%v, %d) = %d, want %d", q, n, got, want)
			}
		}
	}
	if got := histRank(1.0, 77); got != 77 {
		t.Errorf("histRank(1, 77) = %d", got)
	}
}

// oracleCeilMul computes ceil(num*n/1000) without overflow (num < 1000),
// as an independent oracle for histRank's 128-bit path.
func oracleCeilMul(num, n int64) int64 {
	nq := n / 1000
	nr := n % 1000
	// num*n = num*nq*1000 + num*nr, so the ceil-division splits cleanly.
	return num*nq + (num*nr+999)/1000
}

// TestHistUpperNearMaxDoesNotOverflow is the regression test for the
// histUpper int64 overflow: a sample in the top octave used to compute a
// negative bucket upper bound ((sub+1)<<shift - 1 wraps), which made
// Quantile fall through the min-clamp and report Min instead of a
// top-octave value.
func TestHistUpperNearMaxDoesNotOverflow(t *testing.T) {
	near := int64(math.MaxInt64 - 10)
	i := histIndex(near)
	if up := histUpper(i); up < near {
		t.Fatalf("histUpper(%d) = %d < sample %d (overflow wrap)", i, up, near)
	}
	h := NewHist()
	h.Observe(1)
	h.Observe(near)
	if got := h.Quantile(1.0); got != near {
		t.Errorf("p100 with near-max sample = %d, want %d (max clamp)", got, near)
	}
	if got := h.Quantile(0.999); got != near {
		t.Errorf("p999 with near-max sample = %d, want %d", got, near)
	}
	// The top bucket's bound itself saturates rather than wrapping.
	top := histIndex(math.MaxInt64)
	if up := histUpper(top); up != math.MaxInt64 {
		t.Errorf("histUpper(top) = %d, want MaxInt64", up)
	}
}

// TestSpanLogMarkerStampedAtAppend is the regression test for the old
// mutating-copy asymmetry: the truncated marker's Detail used to be
// rewritten on every Events() call, so a reader could observe different
// bytes depending on when it looked relative to concurrent Appends. The
// marker's Detail is now rendered on read from the dropped count, which
// only Append changes, and reads never write the log.
func TestSpanLogMarkerStampedAtAppend(t *testing.T) {
	l := &SpanLog{Limit: 2}
	for i := 0; i < 4; i++ {
		l.Append(SpanEvent{Cycles: int64(i), Kind: SpanCrash})
	}
	first := l.Events()
	if got := first[len(first)-1].Detail; got != "dropped=2 limit=2" {
		t.Fatalf("marker detail after 2 drops = %q", got)
	}
	// Reading must not mutate: a second read sees identical bytes.
	second := l.Events()
	if first[len(first)-1] != second[len(second)-1] {
		t.Errorf("Events() mutated the marker between reads")
	}
	// Further drops move the count the marker reports.
	l.Append(SpanEvent{Cycles: 9, Kind: SpanCrash})
	third := l.Events()
	if got := third[len(third)-1].Detail; got != "dropped=3 limit=2" {
		t.Errorf("marker detail after 3rd drop = %q", got)
	}
	// The returned copies are detached from the log's storage.
	third[0].Kind = "tampered"
	if l.Events()[0].Kind == "tampered" {
		t.Errorf("Events() returned aliased storage")
	}
}
