package bench

import (
	"fmt"
	"strings"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/faultinj"
	"github.com/firestarter-go/firestarter/internal/obsv"
	"github.com/firestarter-go/firestarter/internal/replay"
)

// The campaign experiments (Chaos, Containment, Fleet, OpenLoop) score
// many supervised runs together. Each run is a cell: a ladder run or a
// fleet run, checked the same way (runCells) and stacked into the
// experiment's span stream and replay recordings the same way (reduce).
// An experiment keeps only its job list and its row fold.

// cell is what every supervised run reports to its campaign.
type cell struct {
	// Totals sums the run's accounting tables (runtime, supervisor and,
	// for a fleet, balancer) exactly as they were published into
	// Registry.
	Totals   obsv.Totals
	Registry *obsv.Registry

	// Spans is the run's merged span stream on its own clock; Dropped
	// counts the events its bounded logs refused.
	Spans   []obsv.SpanEvent
	Dropped int64

	// Wall is the run's clock at its end and Traces the trace IDs it
	// consumed ([1, Traces]): the reducer starts the next cell after both.
	Wall   int64
	Traces int64

	// Recordings holds the flight-recorder captures of the run's failures
	// (Runner.RecordDir set), written out by the reducer.
	Recordings []replay.Recording

	// Leaks are the corruption-reach verdicts over the run's connection
	// writes (heap-domain runs); any one fails the cell.
	Leaks []faultinj.Leak

	// ids are the cross-surface identities the run adds to zero silent
	// deaths.
	ids []identity
}

// identity is one cross-surface equality a cell must hold.
type identity struct {
	name      string
	got, want int64
}

// base returns the cell a ladder or fleet run embeds.
func (c *cell) base() *cell { return c }

// cellRun is a supervised run that embeds a cell.
type cellRun interface{ base() *cell }

// reconcile cross-checks the run's three accounting surfaces — summed
// stats, the published metrics registry and the span stream — and returns
// every discrepancy. Zero silent deaths: every incarnation death is
// attributed to a reboot or to an opened breaker. The span checks are
// skipped when a bounded log overflowed.
func (c *cell) reconcile() []string {
	errs := c.Totals.CheckMetrics(c.Registry)
	silent := identity{"silent deaths (state_lost vs restarts+breakers)",
		c.Totals.Get("supervisor.state_lost"),
		c.Totals.Get("supervisor.restarts") + c.Totals.Get("supervisor.breaker_open")}
	for _, id := range append([]identity{silent}, c.ids...) {
		if id.got != id.want {
			errs = append(errs, fmt.Sprintf("%s: %d != %d", id.name, id.got, id.want))
		}
	}
	if c.Dropped == 0 {
		errs = append(errs, c.Totals.CheckSpans(c.Spans)...)
		errs = append(errs, obsv.CheckCausality(c.Spans)...)
	}
	return errs
}

// check fails a cell whose accounting does not reconcile, then one whose
// writes leaked another request's bytes.
func (c *cell) check() error {
	if errs := c.reconcile(); len(errs) > 0 {
		return fmt.Errorf("accounting did not reconcile:\n  %s", strings.Join(errs, "\n  "))
	}
	if len(c.Leaks) > 0 {
		return fmt.Errorf("cross-request corruption leaked:\n  %v", c.Leaks)
	}
	return nil
}

// runCells runs cells 0..n-1 on the worker pool and checks each. It
// fails on the lowest-indexed run error or failed check, prefixed with
// that cell's label, so the error is the same at any Parallelism.
func runCells[C cellRun](r Runner, n int, label func(i int) string, run func(i int) (C, error)) ([]C, error) {
	cells := make([]C, n)
	err := r.forEach(n, func(i int) error {
		c, err := run(i)
		if err == nil {
			err = c.base().check()
		}
		if err != nil {
			return fmt.Errorf("%s: %w", label(i), err)
		}
		cells[i] = c
		return nil
	})
	return cells, err
}

// stream is a campaign experiment's span stream.
type stream struct {
	// Spans is every cell's span stream, in cell order, on one
	// experiment-global clock and trace-ID space (obsvlint trace schema,
	// causality-clean).
	Spans []obsv.SpanEvent

	// Traces is the number of traced requests across all cells; rebasing
	// gives them the global IDs 1..Traces, and every one reaches exactly
	// one terminal span in Spans.
	Traces int64
}

// Fingerprint returns the hash-chain value of the stream in its exported
// (densely re-sequenced) form — one number that commits to every byte
// -trace-out would write. Identical for a fixed seed at any Parallelism.
func (s stream) Fingerprint() uint64 { return obsv.SequenceFingerprint(s.Spans) }

// reduce stacks the cells, in order, into one stream: cell i's cycles and
// nonzero trace IDs shift by the Wall and Traces of the cells before it.
// It writes the cells' recordings into dir as <prefix>-000, <prefix>-001,
// … in cell order, so the stream and the files are identical at any
// Parallelism.
func reduce[C cellRun](dir, prefix string, cells ...C) (stream, error) {
	var s stream
	var clock int64
	pieces := make([]obsv.Piece, len(cells))
	n := 0
	for i, cr := range cells {
		c := cr.base()
		for _, rec := range c.Recordings {
			if _, err := rec.Write(dir, fmt.Sprintf("%s-%03d", prefix, n)); err != nil {
				return s, fmt.Errorf("%s: recording: %w", prefix, err)
			}
			n++
		}
		pieces[i] = obsv.Piece{Spans: c.Spans, Clock: clock, TraceBase: s.Traces}
		clock += c.Wall
		s.Traces += c.Traces
	}
	s.Spans = obsv.Assemble(pieces...)
	return s, nil
}

// faultCell is one planted fault of an app x kind fault matrix.
type faultCell struct {
	app   *apps.App
	kind  faultinj.Kind
	fault faultinj.Fault
}

// matrixKey names a fault matrix row: one app and fault kind.
type matrixKey struct{ app, kind string }

func (f faultCell) key() matrixKey { return matrixKey{f.app.Name, f.kind.String()} }

// label names the cell in an experiment's errors.
func (f faultCell) label(exp string) string {
	return fmt.Sprintf("%s %s/%s fault %d", exp, f.app.Name, f.kind, f.fault.ID)
}

// planMatrix plans up to max(kind) faults of every kind in every app of
// list, app-major (planning is serial: it shares nothing and is cheap
// next to the supervised runs).
func (r Runner) planMatrix(exp string, list []*apps.App, kinds []faultinj.Kind, max func(faultinj.Kind) int) ([]faultCell, error) {
	var out []faultCell
	for _, app := range list {
		for _, kind := range kinds {
			faults, err := r.planFaults(app, kind, max(kind))
			if err != nil {
				return nil, fmt.Errorf("%s %s/%s: %w", exp, app.Name, kind, err)
			}
			for _, f := range faults {
				out = append(out, faultCell{app: app, kind: kind, fault: f})
			}
		}
	}
	return out, nil
}

// rowFold folds cells into rows kept in first-seen key order.
type rowFold[K comparable, R any] struct {
	rows []R
	idx  map[K]int
}

// row returns key's row, appending fresh() the first time key is seen.
func (f *rowFold[K, R]) row(key K, fresh func() R) *R {
	i, ok := f.idx[key]
	if !ok {
		if f.idx == nil {
			f.idx = map[K]int{}
		}
		i = len(f.rows)
		f.idx[key] = i
		f.rows = append(f.rows, fresh())
	}
	return &f.rows[i]
}
