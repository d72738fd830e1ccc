// Package obsv is FIRestarter's cycle-domain observability layer: a
// deterministic metrics registry, structured transaction spans, and a
// guest profiler. Everything in this package is timestamped in cost-model
// cycles — never wall-clock time — so for a fixed seed every output is
// byte-identical across hosts, runs and harness parallelism.
//
// The three pieces mirror what the paper's evaluation (§VI) actually
// measures:
//
//   - Registry: counters, gauges and fixed-bucket histograms keyed by
//     name + labels (site, thread). The runtime packages (core, htm, stm,
//     sched, workload) publish their counters into a registry at
//     collection time, so the hot paths charge no extra cycles and
//     allocate nothing while the program runs. Each counter is declared
//     once, as a Table row beside the Stats struct it reads; the same
//     rows publish, sum (Totals) and reconcile it.
//   - SpanLog: begin/abort(cause)/commit/recovery events of every crash
//     transaction, emitted as JSONL. This is the structured superset of
//     the old flat recovery trace (which survives as a rendering).
//     Causality is the one checker of a span log's request chains and
//     heap-domain ordering rules.
//   - Profile: attributes retired instructions and charged cycles to
//     guest functions and library-call sites (flat + cumulative), with
//     zero cost when no profiler is attached.
package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Label is one key=value dimension of a metric (site, thread, app, ...).
type Label struct {
	Key   string
	Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// MetricKind distinguishes registry entry types.
type MetricKind int

// Metric kinds.
const (
	KindCounter MetricKind = iota + 1
	KindGauge
	KindHistogram
)

// String returns the kind name used in JSONL output.
func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Metric is one registry entry. Counters and gauges use Value; histograms
// use Buckets/Counts/Sum/Count (Counts has len(Buckets)+1 entries, the
// last one the overflow bucket).
type Metric struct {
	Name   string
	Labels []Label
	Kind   MetricKind

	Value int64

	Buckets []int64
	Counts  []int64
	Sum     int64
	Count   int64
}

// Add increments a counter (or gauge) by n.
func (m *Metric) Add(n int64) { m.Value += n }

// Inc increments a counter by one.
func (m *Metric) Inc() { m.Value++ }

// Set sets a gauge's value.
func (m *Metric) Set(v int64) { m.Value = v }

// SetMax raises a gauge to v if v is larger (peak tracking).
func (m *Metric) SetMax(v int64) {
	if v > m.Value {
		m.Value = v
	}
}

// Observe records one histogram sample.
func (m *Metric) Observe(v int64) {
	if m.Kind != KindHistogram {
		panic("obsv: Observe on non-histogram " + m.Name)
	}
	i := sort.Search(len(m.Buckets), func(i int) bool { return v <= m.Buckets[i] })
	m.Counts[i]++
	m.Sum += v
	m.Count++
}

// key builds the registry map key: name plus sorted labels.
func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	for _, l := range labels {
		sb.WriteByte('|')
		sb.WriteString(l.Key)
		sb.WriteByte('=')
		sb.WriteString(l.Value)
	}
	return sb.String()
}

// Registry is a deterministic metrics registry. The zero value is not
// usable; create with NewRegistry. Lookups are by (name, labels); all
// rendering orders entries by that key, so output order never depends on
// map iteration.
type Registry struct {
	byKey map[string]*Metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*Metric)}
}

// get fetches or creates the metric, checking kind consistency.
func (r *Registry) get(name string, kind MetricKind, labels []Label) *Metric {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	k := key(name, ls)
	m := r.byKey[k]
	if m == nil {
		m = &Metric{Name: name, Labels: ls, Kind: kind}
		r.byKey[k] = m
	}
	if m.Kind != kind {
		panic(fmt.Sprintf("obsv: metric %s registered as %s, requested as %s", k, m.Kind, kind))
	}
	return m
}

// Counter fetches or creates a counter.
func (r *Registry) Counter(name string, labels ...Label) *Metric {
	return r.get(name, KindCounter, labels)
}

// Gauge fetches or creates a gauge.
func (r *Registry) Gauge(name string, labels ...Label) *Metric {
	return r.get(name, KindGauge, labels)
}

// Histogram fetches or creates a fixed-bucket histogram. The bucket bounds
// are upper bounds, ascending; samples above the last bound land in an
// implicit overflow bucket. Bounds are fixed at creation — re-requesting
// with different bounds panics, keeping series comparable across runs.
func (r *Registry) Histogram(name string, buckets []int64, labels ...Label) *Metric {
	m := r.get(name, KindHistogram, labels)
	if m.Buckets == nil {
		m.Buckets = append([]int64(nil), buckets...)
		m.Counts = make([]int64, len(buckets)+1)
	} else if len(m.Buckets) != len(buckets) {
		panic("obsv: histogram " + name + " re-registered with different buckets")
	}
	return m
}

// Metrics returns all entries ordered by (name, labels).
func (r *Registry) Metrics() []*Metric {
	keys := make([]string, 0, len(r.byKey))
	for k := range r.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Metric, len(keys))
	for i, k := range keys {
		out[i] = r.byKey[k]
	}
	return out
}

// Total sums the Value of every counter/gauge with the given name across
// all label sets (per-thread registries aggregate this way).
func (r *Registry) Total(name string) int64 {
	var sum int64
	for _, m := range r.byKey {
		if m.Name == name && m.Kind != KindHistogram {
			sum += m.Value
		}
	}
	return sum
}

// Len returns the number of registered series.
func (r *Registry) Len() int { return len(r.byKey) }

// jsonMetric is the stable JSONL encoding of a metric.
type jsonMetric struct {
	Type    string            `json:"type"`
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Value   *int64            `json:"value,omitempty"`
	Buckets []int64           `json:"buckets,omitempty"`
	Counts  []int64           `json:"counts,omitempty"`
	Sum     *int64            `json:"sum,omitempty"`
	Count   *int64            `json:"count,omitempty"`
}

// WriteJSONL writes one JSON object per metric, ordered by (name, labels).
func (r *Registry) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, m := range r.Metrics() {
		jm := jsonMetric{Type: m.Kind.String(), Name: m.Name}
		if len(m.Labels) > 0 {
			jm.Labels = make(map[string]string, len(m.Labels))
			for _, l := range m.Labels {
				jm.Labels[l.Key] = l.Value
			}
		}
		if m.Kind == KindHistogram {
			jm.Buckets = m.Buckets
			jm.Counts = m.Counts
			sum, count := m.Sum, m.Count
			jm.Sum, jm.Count = &sum, &count
		} else {
			v := m.Value
			jm.Value = &v
		}
		if err := enc.Encode(jm); err != nil {
			return err
		}
	}
	return nil
}

// Render formats the registry as a human-readable table, one series per
// line, in the same deterministic order as WriteJSONL.
func (r *Registry) Render() string {
	var sb strings.Builder
	for _, m := range r.Metrics() {
		sb.WriteString(m.Name)
		if len(m.Labels) > 0 {
			sb.WriteByte('{')
			for i, l := range m.Labels {
				if i > 0 {
					sb.WriteByte(',')
				}
				sb.WriteString(l.Key + "=" + l.Value)
			}
			sb.WriteByte('}')
		}
		if m.Kind == KindHistogram {
			fmt.Fprintf(&sb, " count=%d sum=%d", m.Count, m.Sum)
		} else {
			fmt.Fprintf(&sb, " %d", m.Value)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Standard fixed bucket sets. Fixed bounds (rather than adaptive ones)
// keep histogram series comparable across runs and threads.
var (
	// CycleBuckets grades cycle-valued samples (recovery latency,
	// transaction windows) on a coarse log scale.
	CycleBuckets = []int64{100, 300, 1_000, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000}

	// CountBuckets grades small cardinalities (write-set lines, undo-log
	// entries, instructions per transaction).
	CountBuckets = []int64{1, 4, 16, 64, 256, 1_024, 4_096}
)
