// Command obsvlint validates firebench's observability JSONL exports.
// CI runs it over -trace-out/-metrics-out/-profile files so a schema
// regression (unparseable line, missing field, non-monotonic cycles)
// fails the build instead of silently shipping broken telemetry.
//
// Usage:
//
//	obsvlint -schema trace|metrics|profile [-causality] FILE...
//
// Every non-empty line must be a JSON object. Per schema:
//
//	trace:   "seq" (dense, increasing from 1), "cycles" (non-decreasing),
//	         "kind" (non-empty string)
//	metrics: "type" and "name" non-empty; histograms carry counts with
//	         len(buckets)+1 entries
//	profile: "type" one of func/libsite/total, exactly one terminal total
//
// Errors are reported per line (capped at 25 per file) and linting
// continues past each one, so a corrupt line cannot mask later damage;
// any error makes the exit status non-zero.
//
// -causality additionally runs the trace through obsv.Causality, the
// one causality checker: the trace-ID chain rules (every req-start
// reaches exactly one terminal, no req-done without a req-start, no
// orphaned trace reference) and the heap-domain ordering rules (a
// discard only after a crash and only of a domain switched to, every
// domain-violation followed by its crash). firetrace -strict and every
// firebench campaign run the same checker, so all three enforce the same
// rules and report them in the same words.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"github.com/firestarter-go/firestarter/internal/obsv"
)

// maxErrors caps the per-file error report so a thoroughly corrupt file
// stays readable; the suppressed remainder is summarized in one line.
const maxErrors = 25

func main() {
	os.Exit(run())
}

func run() int {
	schema := flag.String("schema", "", "expected schema: trace, metrics or profile")
	causality := flag.Bool("causality", false, "validate trace-ID causal chains and heap-domain ordering (trace schema only)")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "obsvlint: no files given")
		return 2
	}
	if *causality && *schema != "trace" {
		fmt.Fprintln(os.Stderr, "obsvlint: -causality requires -schema trace")
		return 2
	}
	bad := 0
	for _, path := range flag.Args() {
		errs := lintFile(path, *schema, *causality)
		if len(errs) > 0 {
			for _, e := range errs {
				fmt.Fprintf(os.Stderr, "obsvlint: %s: %s\n", path, e)
			}
			bad++
		} else {
			fmt.Printf("obsvlint: %s: ok\n", path)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// lintFile validates one file and returns every finding (nil = clean).
// It never stops at the first bad line: schema state resynchronizes past
// each error so the rest of the file is still checked.
func lintFile(path, schema string, causality bool) []string {
	f, err := os.Open(path)
	if err != nil {
		return []string{err.Error()}
	}
	defer f.Close()

	var (
		errs       []string
		suppressed int
	)
	report := func(format string, args ...any) {
		if len(errs) >= maxErrors {
			suppressed++
			return
		}
		errs = append(errs, fmt.Sprintf(format, args...))
	}

	var (
		lineNo     int
		objects    int
		lastSeq    int64
		lastCycles int64
		totals     int
	)
	causal := obsv.NewCausality()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var obj map[string]any
		if err := json.Unmarshal(line, &obj); err != nil {
			report("line %d: invalid JSON: %v", lineNo, err)
			continue
		}
		objects++
		switch schema {
		case "trace":
			seq, ok := num(obj["seq"])
			if !ok || seq != lastSeq+1 {
				report("line %d: seq = %v, want %d", lineNo, obj["seq"], lastSeq+1)
			}
			if ok {
				lastSeq = seq // resync so one gap doesn't cascade
			} else {
				lastSeq++
			}
			cyc, ok := num(obj["cycles"])
			if !ok || cyc < lastCycles {
				report("line %d: cycles = %v went backwards (last %d)", lineNo, obj["cycles"], lastCycles)
			}
			if ok && cyc > lastCycles {
				lastCycles = cyc
			}
			kind, _ := obj["kind"].(string)
			if kind == "" {
				report("line %d: missing kind", lineNo)
			}
			if causality {
				trace, _ := num(obj["trace"])
				thread, _ := num(obj["thread"])
				replica, _ := num(obj["replica"])
				detail, _ := obj["detail"].(string)
				causal.Observe(lineNo, obsv.SpanEvent{
					Kind: kind, Trace: trace, Thread: int(thread), Replica: int(replica), Detail: detail,
				})
			}
		case "metrics":
			typ, _ := obj["type"].(string)
			name, _ := obj["name"].(string)
			if typ == "" || name == "" {
				report("line %d: missing type/name", lineNo)
			}
			if typ == "histogram" {
				buckets, _ := obj["buckets"].([]any)
				counts, _ := obj["counts"].([]any)
				if len(counts) != len(buckets)+1 {
					report("line %d: %d counts for %d buckets", lineNo, len(counts), len(buckets))
				}
			}
		case "profile":
			switch typ, _ := obj["type"].(string); typ {
			case "func", "libsite":
			case "total":
				totals++
			default:
				report("line %d: unknown profile row type %q", lineNo, obj["type"])
			}
		case "":
			// Schema-less: any JSON object stream passes.
		default:
			return []string{fmt.Sprintf("unknown schema %q", schema)}
		}
	}
	if err := sc.Err(); err != nil {
		report("%v", err)
	}
	if objects == 0 {
		report("no JSONL objects")
	}
	if schema == "profile" && totals != 1 {
		report("%d total rows, want exactly 1", totals)
	}
	if causality {
		for _, e := range causal.Errors() {
			report("%s", e)
		}
	}
	if suppressed > 0 {
		errs = append(errs, fmt.Sprintf("... %d more errors suppressed", suppressed))
	}
	return errs
}

// num coerces a decoded JSON number to int64.
func num(v any) (int64, bool) {
	f, ok := v.(float64)
	if !ok {
		return 0, false
	}
	return int64(f), true
}
