package obsv

import "fmt"

// Row declares one value of a Stats struct S as a registry metric: its
// name, whether it is a gauge (a level that keeps its peak across
// publishes) or a counter (which adds), how to read it from S, and
// optionally the span kind whose count in a complete span log must equal
// it. A Table of rows is compiled once beside the struct it reads;
// publishing, summing across incarnations or replicas, and reconciling
// all loop over it, so adding a counter means adding one row.
type Row[S any] struct {
	Name  string
	Gauge bool
	Get   func(*S) int64
	Span  string
}

// Table is one Stats struct's accounting schema.
type Table[S any] []Row[S]

// Publish copies every row's value in s into reg under labels: counters
// add, gauges keep the peak. Publishing is a collection-time operation —
// no hot path ever touches the registry.
func (t Table[S]) Publish(reg *Registry, s *S, labels ...Label) {
	for _, r := range t {
		if r.Gauge {
			reg.Gauge(r.Name, labels...).SetMax(r.Get(s))
		} else {
			reg.Counter(r.Name, labels...).Add(r.Get(s))
		}
	}
}

// AddTo folds s into tot, one Total per row (created on first use).
func (t Table[S]) AddTo(tot *Totals, s *S) {
	for _, r := range t {
		tot.add(r.Name, r.Span, r.Get(s))
	}
}

// Flag reads a boolean stat as a 0/1 row value.
func Flag(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Total is one row summed across every snapshot added to a Totals.
type Total struct {
	Name  string
	Span  string
	Value int64
}

// Totals sums table rows across the Stats snapshots that were published
// into one registry: the values that registry, and a span log that
// dropped nothing, must then hold. Rows keep first-added order, so every
// report is deterministic. Gauges sum too, which matches the registry as
// long as each label set publishes a given gauge once.
type Totals []Total

func (tot *Totals) add(name, span string, v int64) {
	for i := range *tot {
		if (*tot)[i].Name == name {
			(*tot)[i].Value += v
			return
		}
	}
	*tot = append(*tot, Total{Name: name, Span: span, Value: v})
}

// Get returns the named row's total (0 for a row never added).
func (tot Totals) Get(name string) int64 {
	for _, t := range tot {
		if t.Name == name {
			return t.Value
		}
	}
	return 0
}

// CheckMetrics reports every row whose registry total (summed across
// label sets) differs from its summed stat.
func (tot Totals) CheckMetrics(reg *Registry) []string {
	var errs []string
	for _, t := range tot {
		if got := reg.Total(t.Name); got != t.Value {
			errs = append(errs, fmt.Sprintf("%s: metric %d != stat %d", t.Name, got, t.Value))
		}
	}
	return errs
}

// CheckSpans reports every declared span kind whose count in spans
// differs from the sum of the rows that declare it. Only a span log that
// dropped nothing can be checked this way.
func (tot Totals) CheckSpans(spans []SpanEvent) []string {
	want := map[string]int64{}
	var kinds []string
	for _, t := range tot {
		if t.Span == "" {
			continue
		}
		if _, ok := want[t.Span]; !ok {
			kinds = append(kinds, t.Span)
		}
		want[t.Span] += t.Value
	}
	if len(kinds) == 0 {
		return nil
	}
	got := map[string]int64{}
	for _, e := range spans {
		got[e.Kind]++
	}
	var errs []string
	for _, k := range kinds {
		if got[k] != want[k] {
			errs = append(errs, fmt.Sprintf("span %s: count %d != stat %d", k, got[k], want[k]))
		}
	}
	return errs
}
