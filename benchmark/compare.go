package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"strings"
)

// spec is the part of BENCHMARK.json -compare reads: every metric's
// direction, and each end-to-end metric's bound on worsening.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the repository root, whether the
// benchmark runs from there or from its own directory.
func loadSpec() (*spec, error) {
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		var s spec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, errors.New("BENCHMARK.json not found in . or ..")
}

// readRecords reads the JSON records the all-workloads mode prints, one
// per line; other lines are skipped.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var rec record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Workload != "" {
			recs = append(recs, rec)
		}
	}
	return recs, sc.Err()
}

type groupKey struct {
	workload string
	trace    int
}

func groupRecords(recs []record) (map[groupKey][]result, []groupKey) {
	groups := map[groupKey][]result{}
	var order []groupKey
	for _, r := range recs {
		k := groupKey{r.Workload, r.Trace}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r.Result)
	}
	return groups, order
}

// compareFiles compares run set A (the parent) with run set B (the change)
// per (workload, metric): quartiles, the change of the median, and the
// share of pairs B wins (the i-th runs of a workload pair up; ties count
// for neither side). It flags any end-to-end metric whose median worsens
// by more than its BENCHMARK.json bound and any rise in the share of
// failed ops, and reports whether anything was flagged.
func compareFiles(pathA, pathB string, out io.Writer) (bool, error) {
	s, err := loadSpec()
	if err != nil {
		return false, err
	}
	recsA, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	recsB, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	groupsA, order := groupRecords(recsA)
	groupsB, _ := groupRecords(recsB)
	metrics := append(append([]specMetric(nil), s.EndToEnd...), s.PerLayer...)

	flagged := false
	for _, k := range order {
		a, b := groupsA[k], groupsB[k]
		fmt.Fprintf(out, "== %s (trace %d): A %d runs, B %d runs\n", k.workload, k.trace, len(a), len(b))
		if len(b) == 0 {
			fmt.Fprintln(out, "   FLAG: no B runs")
			flagged = true
			continue
		}
		fa, fb := failedShare(a), failedShare(b)
		fmt.Fprintf(out, "   failed ops: A %.4f, B %.4f\n", fa, fb)
		if fb > fa {
			fmt.Fprintln(out, "   FLAG: failed-op share rose")
			flagged = true
		}
		fmt.Fprintf(out, "   %-24s %-7s %-32s %-32s %8s %6s %6s  %s\n",
			"metric", "unit", "A q1/median/q3", "B q1/median/q3", "change", "B wins", "bound", "verdict")
		for _, m := range metrics {
			xa, xb := values(a, m.Name), values(b, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			line, flag := compareMetric(m, xa, xb)
			fmt.Fprintln(out, "   "+line)
			flagged = flagged || flag
		}
	}
	return flagged, nil
}

func failedShare(rs []result) float64 {
	var failed, attempted int
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func values(rs []result, name string) []float64 {
	var xs []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// compareMetric renders one metric's row. The verdict follows the
// benchmark's rule: "REGRESSION" when B's median is worse than A's by more
// than the bound; "unresolved" when A's own interquartile spread exceeds
// the bound and B does not beat every A run; "gain" when B wins at least
// 9/10 of the pairs and the medians differ by more than A's spread.
func compareMetric(m specMetric, a, b []float64) (string, bool) {
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	sign := 1.0 // positive "worse" means B is worse than A
	if m.Better == "higher" {
		sign = -1
	}
	change := math.NaN()
	if ma != 0 {
		change = (mb - ma) / math.Abs(ma)
	}
	pairs, wins := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if sign*(b[i]-a[i]) < 0 {
			wins++
		}
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}

	verdict, flag := "", false
	switch worse := sign * change; {
	case m.Bound > 0 && worse > m.Bound:
		verdict, flag = "REGRESSION", true
	case m.Bound > 0 && ma != 0 && (q3a-q1a)/math.Abs(ma) > m.Bound && !allBetter:
		verdict = "unresolved"
	case pairs > 0 && wins*10 >= 9*pairs && math.Abs(mb-ma) > q3a-q1a:
		verdict = "gain"
	}
	bound := "-"
	if m.Bound > 0 {
		bound = fmt.Sprintf("%.0f%%", m.Bound*100)
	}
	return fmt.Sprintf("%-24s %-7s %-32s %-32s %+7.2f%% %3d/%-2d %6s  %s",
		m.Name, m.Unit,
		fmt.Sprintf("%.4g/%.4g/%.4g", q1a, ma, q3a),
		fmt.Sprintf("%.4g/%.4g/%.4g", q1b, mb, q3b),
		change*100, wins, pairs, bound, verdict), flag
}
