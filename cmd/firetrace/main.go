// Command firetrace analyzes a firebench span trace (the -trace-out
// JSONL export from the observability or chaos experiments). It
// reconstructs every request's causal chain from its trace ID,
// attributes each request to the coarsest recovery-ladder rung that
// touched it, summarizes terminal outcomes and tail latency, and can
// re-export the trace as Chrome trace_event JSON or the guest profile
// as flamegraph folded stacks.
//
// Usage:
//
//	firetrace [-breakdown] [-timeline N] [-strict]
//	          [-chrome FILE] [-folded FILE] [-profile FILE] TRACE
//	firetrace -manifest MANIFEST
//	firetrace -replay MANIFEST [-stop-at-cycle N] [-reverse-step]
//	          [-ckpt-every N] [-ckpt-ring N] [-replay-spans FILE]
//
// The summary always prints: span/request totals, terminal outcomes
// (done-ok / done-bad / lost / unterminated), orphaned trace
// references, and the per-rung request counts. -breakdown adds the
// per-rung tail-latency table — completed count, offered count (every
// request attributed to the rung, lost ones included, so open-loop
// sheds stay visible), and p50/p90/p99/p999 in cycles — and the
// campaign cycle breakdown (tx-committed, tx-aborted, rollback,
// reboot-wait). -timeline N prints the N slowest terminated requests
// with their full span sequences. -strict exits non-zero on any finding
// of obsv.Causality, the one causality checker that obsvlint -causality
// and every firebench campaign also run: a request without exactly one
// start and one terminal, a req-done without a req-start, an orphaned
// trace reference, or a broken heap-domain ordering rule.
//
// -chrome writes Chrome trace_event JSON (load via chrome://tracing or
// https://ui.perfetto.dev): requests are "X" slices on pid 1, crash
// transactions are "X" slices per thread on pid 0, recovery events are
// instants. -folded converts a -profile JSONL export into single-frame
// folded stacks ("name cycles", library models prefixed lib:) whose
// counts sum to the machine's total cycles.
//
// -manifest pretty-prints a flight-recorder manifest (the firebench
// -record-out output). -replay re-executes one: the recorded world is
// rebuilt from the manifest and re-driven, verifying the live span
// hash chain against the recording — the first divergent span is a
// hard error naming both sides. By default the replay halts at the
// recorded faulting instruction and dumps the guest state (registers,
// backtrace, memory digest, open fds); -stop-at-cycle 0 verifies the
// whole run instead, -stop-at-cycle N halts at cycle N. -reverse-step
// additionally re-executes to the boundary one retired instruction
// earlier (rr-style: deterministic re-execution from boot, with the
// -ckpt-every periodic checkpoint ring cross-checked between the two
// passes as determinism anchors). -replay-spans writes the replayed
// span stream as JSONL, byte-identical to the recording's companion
// file when verification passes.
//
// All output is byte-deterministic for a given input.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"github.com/firestarter-go/firestarter/internal/obsv"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		breakdown = flag.Bool("breakdown", false, "print the per-rung latency table and cycle breakdown")
		timeline  = flag.Int("timeline", 0, "print the N slowest completed requests as span timelines")
		strict    = flag.Bool("strict", false, "exit non-zero on any causality violation (the obsvlint -causality rules)")
		chrome    = flag.String("chrome", "", "write Chrome trace_event JSON to this file")
		folded    = flag.String("folded", "", "write flamegraph folded stacks to this file (needs -profile)")
		profile   = flag.String("profile", "", "guest profile JSONL (firebench -profile export) for -folded")

		manifest    = flag.String("manifest", "", "pretty-print this flight-recorder manifest and exit")
		replayF     = flag.String("replay", "", "re-execute this flight-recorder manifest, verifying the span chain")
		stopAt      = flag.Int64("stop-at-cycle", -1, "replay halt point: -1 the recorded faulting instruction, 0 run to completion, N cycle N")
		reverseStep = flag.Bool("reverse-step", false, "after stopping, re-execute to the boundary one instruction earlier")
		ckptEvery   = flag.Int64("ckpt-every", 250_000, "checkpoint-ring capture period in cycles during replay (0 disables)")
		ckptRing    = flag.Int("ckpt-ring", 64, "checkpoint-ring depth during replay")
		replaySpans = flag.String("replay-spans", "", "write the replayed span stream as JSONL to this file")
	)
	flag.Parse()
	if *manifest != "" {
		return printManifest(*manifest)
	}
	if *replayF != "" {
		return runReplay(*replayF, *stopAt, *reverseStep, *ckptEvery, *ckptRing, *replaySpans)
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "firetrace: exactly one trace file required")
		return 2
	}
	if *folded != "" && *profile == "" {
		fmt.Fprintln(os.Stderr, "firetrace: -folded requires -profile")
		return 2
	}
	path := flag.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "firetrace: %v\n", err)
		return 2
	}
	spans, err := obsv.ReadSpans(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "firetrace: %s: %v\n", path, err)
		return 2
	}

	rep := analyze(spans)
	fmt.Print(rep.summary(path))
	if *breakdown {
		fmt.Print("\n" + rep.breakdown())
	}
	if *timeline > 0 {
		fmt.Print("\n" + rep.timeline(*timeline))
	}
	if *chrome != "" {
		if err := writeFile(*chrome, rep.writeChrome); err != nil {
			fmt.Fprintf(os.Stderr, "firetrace: %v\n", err)
			return 2
		}
	}
	if *folded != "" {
		pf, err := os.Open(*profile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "firetrace: %v\n", err)
			return 2
		}
		err = writeFile(*folded, func(w io.Writer) error { return writeFolded(w, pf) })
		pf.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "firetrace: %v\n", err)
			return 2
		}
	}
	if *strict {
		if errs := rep.violations(); len(errs) > 0 {
			for _, e := range errs {
				fmt.Fprintf(os.Stderr, "firetrace: %s: %s\n", path, e)
			}
			return 1
		}
	}
	return 0
}

// writeFile writes through render to path, propagating close errors.
func writeFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Request outcomes.
const (
	outDoneOK       = "done-ok"
	outDoneBad      = "done-bad"
	outLost         = "lost"
	outUnterminated = "unterminated"
)

// Rung attribution, coarsest first: the priority order firetrace uses
// when several recovery mechanisms touched one request.
var rungOrder = []string{"shed", "injected", "recovered", "aborted", "clean"}

// rungOf maps a span kind to the attribution rung it implies (empty:
// the kind does not affect attribution).
func rungOf(kind string) string {
	switch kind {
	case obsv.SpanShed:
		return "shed"
	case obsv.SpanInject:
		return "injected"
	case obsv.SpanCrash, obsv.SpanRetry, obsv.SpanRecovered, obsv.SpanUnrecovered:
		return "recovered"
	case obsv.SpanAbort, obsv.SpanLatchSTM:
		return "aborted"
	}
	return ""
}

// rungRank orders rungs coarsest-first for attribution.
func rungRank(r string) int {
	for i, name := range rungOrder {
		if name == r {
			return i
		}
	}
	return len(rungOrder)
}

// request is one reconstructed causal chain.
type request struct {
	Trace   int64
	Start   int64 // req-start cycles (-1: server never read it)
	End     int64 // terminal cycles (-1: unterminated)
	Outcome string
	Cause   string // req-lost cause
	Rung    string
	Replica int              // serving replica at req-start (0: not a fleet trace)
	Spans   []obsv.SpanEvent // every span referencing the trace, in order
}

// Latency returns the request's req-start→terminal latency in cycles,
// or -1 if either end is missing.
func (r *request) Latency() int64 {
	if r.Start < 0 || r.End < 0 {
		return -1
	}
	return r.End - r.Start
}

// report is the analyzed trace.
type report struct {
	Spans    []obsv.SpanEvent
	Requests []*request // first-appearance order
	Orphans  []int64    // traces referenced by non-request spans but never started
	causal   *obsv.Causality
}

// analyze reconstructs every request chain from the span stream.
func analyze(spans []obsv.SpanEvent) *report {
	rep := &report{Spans: spans, causal: obsv.NewCausality()}
	byTrace := map[int64]*request{}
	get := func(tr int64) *request {
		r := byTrace[tr]
		if r == nil {
			r = &request{Trace: tr, Start: -1, End: -1, Outcome: outUnterminated, Rung: "clean"}
			byTrace[tr] = r
			rep.Requests = append(rep.Requests, r)
		}
		return r
	}
	for i, e := range spans {
		rep.causal.Observe(i+1, e)
		switch e.Kind {
		case obsv.SpanReqStart:
			r := get(e.Trace)
			r.Start = e.Cycles
			r.Replica = e.Replica
			r.Spans = append(r.Spans, e)
		case obsv.SpanReqDone, obsv.SpanReqLost:
			r := get(e.Trace)
			r.End = e.Cycles
			if e.Kind == obsv.SpanReqLost {
				r.Outcome = outLost
				r.Cause = e.Cause
			} else if e.Detail == "ok" {
				r.Outcome = outDoneOK
			} else {
				r.Outcome = outDoneBad
			}
			r.Spans = append(r.Spans, e)
		default:
			if e.Trace == 0 {
				continue
			}
			r := get(e.Trace)
			r.Spans = append(r.Spans, e)
			if rung := rungOf(e.Kind); rung != "" && rungRank(rung) < rungRank(r.Rung) {
				r.Rung = rung
			}
		}
	}
	rep.Orphans = rep.causal.Orphans()
	// A trace that was only ever referenced is an orphan, not a request:
	// it has no lifecycle of its own to report an outcome for.
	kept := rep.Requests[:0]
	for _, r := range rep.Requests {
		if r.Start >= 0 || r.End >= 0 {
			kept = append(kept, r)
		}
	}
	rep.Requests = kept
	return rep
}

// violations returns the findings -strict fails on: everything the
// shared causality checker reports.
func (rep *report) violations() []string { return rep.causal.Errors() }

// outcomes tallies terminal outcomes.
func (rep *report) outcomes() map[string]int {
	out := map[string]int{}
	for _, r := range rep.Requests {
		out[r.Outcome]++
	}
	return out
}

// summary renders the header block every invocation prints.
func (rep *report) summary(path string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "firetrace: %s: %d spans, %d requests\n", path, len(rep.Spans), len(rep.Requests))
	o := rep.outcomes()
	fmt.Fprintf(&sb, "outcomes: done-ok=%d done-bad=%d lost=%d unterminated=%d; orphaned trace refs: %d\n",
		o[outDoneOK], o[outDoneBad], o[outLost], o[outUnterminated], len(rep.Orphans))
	rungs := map[string]int{}
	for _, r := range rep.Requests {
		rungs[r.Rung]++
	}
	sb.WriteString("rungs:")
	for i := len(rungOrder) - 1; i >= 0; i-- {
		fmt.Fprintf(&sb, " %s=%d", rungOrder[i], rungs[rungOrder[i]])
	}
	sb.WriteString("\n")
	return sb.String()
}

// breakdown renders the per-rung latency table and the campaign cycle
// breakdown.
func (rep *report) breakdown() string {
	var sb strings.Builder
	sb.WriteString("Request latency by rung (cycles, req-start to terminal; offered counts every attributed request, lost included):\n")
	fmt.Fprintf(&sb, "%-10s %7s %8s %10s %10s %10s %10s %10s\n",
		"rung", "count", "offered", "p50", "p90", "p99", "p999", "max")
	hists := map[string]*obsv.Hist{}
	offered := map[string]int{}
	all := obsv.NewHist()
	for _, r := range rep.Requests {
		offered[r.Rung]++
		lat := r.Latency()
		if lat < 0 || r.Outcome == outLost {
			continue
		}
		h := hists[r.Rung]
		if h == nil {
			h = obsv.NewHist()
			hists[r.Rung] = h
		}
		h.Observe(lat)
		all.Observe(lat)
	}
	row := func(name string, h *obsv.Hist, off int) {
		if off == 0 && (h == nil || h.Count() == 0) {
			return
		}
		if h == nil {
			h = obsv.NewHist()
		}
		p := h.Percentiles()
		fmt.Fprintf(&sb, "%-10s %7d %8d %10d %10d %10d %10d %10d\n",
			name, h.Count(), off, p.P50, p.P90, p.P99, p.P999, h.Max())
	}
	for i := len(rungOrder) - 1; i >= 0; i-- {
		row(rungOrder[i], hists[rungOrder[i]], offered[rungOrder[i]])
	}
	row("all-done", all, len(rep.Requests))

	// Per-replica attribution (fleet traces only): which replica served
	// each request's start, and which replicas absorbed migrated
	// connections. Hand-offs count against the destination replica — the
	// one that picked up the work.
	type repRow struct {
		started, doneOK, lost, handoffsIn int
		h                                 *obsv.Hist
	}
	byRep := map[int]*repRow{}
	getRep := func(id int) *repRow {
		row := byRep[id]
		if row == nil {
			row = &repRow{h: obsv.NewHist()}
			byRep[id] = row
		}
		return row
	}
	for _, r := range rep.Requests {
		if r.Replica == 0 {
			continue
		}
		row := getRep(r.Replica)
		row.started++
		switch r.Outcome {
		case outDoneOK:
			row.doneOK++
		case outLost:
			row.lost++
		}
		if lat := r.Latency(); lat >= 0 && r.Outcome != outLost {
			row.h.Observe(lat)
		}
	}
	for _, e := range rep.Spans {
		if e.Kind == obsv.SpanHandoff && e.Replica != 0 {
			getRep(e.Replica).handoffsIn++
		}
	}
	if len(byRep) > 0 {
		ids := make([]int, 0, len(byRep))
		for id := range byRep {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		sb.WriteString("\nRequests by serving replica (req-start attribution; handoffs land on the destination):\n")
		fmt.Fprintf(&sb, "%-8s %8s %8s %6s %9s %10s %10s %10s\n",
			"replica", "started", "done-ok", "lost", "handoffs", "p50", "p99", "p999")
		for _, id := range ids {
			row := byRep[id]
			p := row.h.Percentiles()
			fmt.Fprintf(&sb, "%-8d %8d %8d %6d %9d %10d %10d %10d\n",
				id, row.started, row.doneOK, row.lost, row.handoffsIn, p.P50, p.P99, p.P999)
		}
	}

	// Cycle breakdown: where the campaign's time went. Transaction spans
	// pair begin→commit/abort/crash per thread; rollback cost is the
	// trap→resume latency the recovered span reports; reboot-wait is the
	// supervisor's restart backoff.
	var committed, aborted, rollback, rebootWait int64
	var commits, aborts, rollbacks, reboots int64
	lastBegin := map[int]int64{}
	for _, e := range rep.Spans {
		switch e.Kind {
		case obsv.SpanBegin:
			lastBegin[e.Thread] = e.Cycles
		case obsv.SpanCommit:
			if at, ok := lastBegin[e.Thread]; ok {
				committed += e.Cycles - at
				commits++
				delete(lastBegin, e.Thread)
			}
		case obsv.SpanAbort, obsv.SpanCrash:
			if at, ok := lastBegin[e.Thread]; ok {
				aborted += e.Cycles - at
				aborts++
				delete(lastBegin, e.Thread)
			}
		case obsv.SpanRecovered:
			rollback += detailInt(e.Detail, "latency=")
			rollbacks++
		case obsv.SpanReboot:
			rebootWait += detailInt(e.Detail, "backoff=")
			reboots++
		}
	}
	sb.WriteString("\nCycle breakdown:\n")
	fmt.Fprintf(&sb, "%-14s %12s %8s\n", "category", "cycles", "events")
	fmt.Fprintf(&sb, "%-14s %12d %8d\n", "tx-committed", committed, commits)
	fmt.Fprintf(&sb, "%-14s %12d %8d\n", "tx-aborted", aborted, aborts)
	fmt.Fprintf(&sb, "%-14s %12d %8d\n", "rollback", rollback, rollbacks)
	fmt.Fprintf(&sb, "%-14s %12d %8d\n", "reboot-wait", rebootWait, reboots)
	return sb.String()
}

// detailInt parses "key=<int>" out of a span detail string (0 if absent).
func detailInt(detail, key string) int64 {
	for _, field := range strings.Fields(detail) {
		if v, ok := strings.CutPrefix(field, key); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err == nil {
				return n
			}
		}
	}
	return 0
}

// timeline renders the n slowest terminated requests (including lost
// ones — their delivery-to-loss span is often the interesting tail)
// with their span sequences, ties broken by trace ID for determinism.
func (rep *report) timeline(n int) string {
	var done []*request
	for _, r := range rep.Requests {
		if r.Latency() >= 0 {
			done = append(done, r)
		}
	}
	sort.Slice(done, func(i, j int) bool {
		if li, lj := done[i].Latency(), done[j].Latency(); li != lj {
			return li > lj
		}
		return done[i].Trace < done[j].Trace
	})
	if n > len(done) {
		n = len(done)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Slowest %d terminated requests:\n", n)
	for _, r := range done[:n] {
		fmt.Fprintf(&sb, "trace %d: %d cycles, %s, rung=%s", r.Trace, r.Latency(), r.Outcome, r.Rung)
		if r.Replica != 0 {
			fmt.Fprintf(&sb, ", replica=%d", r.Replica)
		}
		sb.WriteString("\n")
		for _, e := range r.Spans {
			fmt.Fprintf(&sb, "  @%-10d %s", e.Cycles, e.Kind)
			if e.Replica != 0 {
				fmt.Fprintf(&sb, " replica=%d", e.Replica)
				if e.Inc != 0 {
					fmt.Fprintf(&sb, " inc=%d", e.Inc)
				}
			}
			if e.Call != "" {
				fmt.Fprintf(&sb, " call=%s", e.Call)
			}
			if e.Variant != "" {
				fmt.Fprintf(&sb, " variant=%s", e.Variant)
			}
			if e.Cause != "" {
				fmt.Fprintf(&sb, " cause=%s", e.Cause)
			}
			if e.Detail != "" {
				fmt.Fprintf(&sb, " %s", e.Detail)
			}
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

// chromeEvent is one trace_event entry (the subset of fields the Chrome
// tracing and Perfetto viewers read).
type chromeEvent struct {
	Name  string `json:"name"`
	Cat   string `json:"cat"`
	Phase string `json:"ph"`
	TS    int64  `json:"ts"`
	Dur   int64  `json:"dur,omitempty"`
	PID   int    `json:"pid"`
	TID   int    `json:"tid"`
	Scope string `json:"s,omitempty"`
}

// writeChrome renders the trace as Chrome trace_event JSON: requests as
// duration slices on pid 1 (tid = serving thread at req-start),
// transactions as duration slices per thread on pid 0, recovery events
// as thread-scoped instants. Cycles map 1:1 onto the viewer's
// microsecond axis.
func (rep *report) writeChrome(w io.Writer) error {
	var events []chromeEvent
	lastBegin := map[int][]obsv.SpanEvent{}
	for _, e := range rep.Spans {
		switch e.Kind {
		case obsv.SpanBegin:
			lastBegin[e.Thread] = append(lastBegin[e.Thread][:0], e)
		case obsv.SpanCommit, obsv.SpanAbort, obsv.SpanCrash:
			if open := lastBegin[e.Thread]; len(open) > 0 {
				b := open[0]
				name := "tx-" + e.Kind
				if b.Call != "" {
					name += " " + b.Call
				}
				events = append(events, chromeEvent{
					Name: name, Cat: "tx", Phase: "X",
					TS: b.Cycles, Dur: e.Cycles - b.Cycles, PID: 0, TID: e.Thread,
				})
				lastBegin[e.Thread] = open[:0]
			}
		}
		if rung := rungOf(e.Kind); rung != "" || e.Kind == obsv.SpanReboot || e.Kind == obsv.SpanBreakerOpen {
			name := e.Kind
			if e.Cause != "" {
				name += " (" + e.Cause + ")"
			}
			events = append(events, chromeEvent{
				Name: name, Cat: "recovery", Phase: "i",
				TS: e.Cycles, PID: 0, TID: e.Thread, Scope: "t",
			})
		}
	}
	for _, r := range rep.Requests {
		if r.Latency() < 0 {
			continue
		}
		tid := 0
		if len(r.Spans) > 0 {
			tid = r.Spans[0].Thread
		}
		events = append(events, chromeEvent{
			Name: fmt.Sprintf("req %d (%s)", r.Trace, r.Outcome), Cat: "request", Phase: "X",
			TS: r.Start, Dur: r.Latency(), PID: 1, TID: tid,
		})
	}
	var sb strings.Builder
	sb.WriteString("{\"traceEvents\":[")
	for i, e := range events {
		if i > 0 {
			sb.WriteString(",")
		}
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		sb.Write(b)
	}
	sb.WriteString("]}\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

// profileRow is the subset of the guest-profile JSONL schema -folded
// reads.
type profileRow struct {
	Type string `json:"type"`
	Name string `json:"name"`
	Lib  bool   `json:"lib"`
	Flat int64  `json:"flat_cycles"`
}

// writeFolded converts a guest-profile JSONL stream to folded stacks:
// one line per function, "name flat_cycles", library models prefixed
// lib: — the flamegraph weights sum to the machine's total cycles.
// Zero-flat rows are skipped (they would render as empty frames).
func writeFolded(w io.Writer, profile io.Reader) error {
	sc := bufio.NewScanner(profile)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	lineNo := 0
	var out strings.Builder
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var row profileRow
		if err := json.Unmarshal(line, &row); err != nil {
			return fmt.Errorf("profile line %d: %v", lineNo, err)
		}
		if row.Type != "func" || row.Flat == 0 {
			continue
		}
		name := row.Name
		if row.Lib {
			name = "lib:" + name
		}
		fmt.Fprintf(&out, "%s %d\n", name, row.Flat)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	_, err := io.WriteString(w, out.String())
	return err
}
