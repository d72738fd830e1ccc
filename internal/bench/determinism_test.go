package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/boot"
	"github.com/firestarter-go/firestarter/internal/core"
	"github.com/firestarter-go/firestarter/internal/htm"
	"github.com/firestarter-go/firestarter/internal/obsv"
)

// TestRunsAreDeterministic is the reproducibility guarantee behind every
// number in EXPERIMENTS.md: identical configuration and seed must yield
// bit-identical cycles and statistics, even with the interrupt process and
// recovery machinery active.
func TestRunsAreDeterministic(t *testing.T) {
	r := Runner{Requests: 120, Concurrency: 4, Seed: 9}
	cfg := core.Config{
		Threshold:  0.01,
		SampleSize: 4,
		HTM:        htm.Config{MeanInstrsPerInterrupt: 50_000, Seed: 9},
	}
	type fingerprint struct {
		cycles    int64
		completed int
		stats     string
	}
	run := func() fingerprint {
		inst, res, err := r.measure(apps.Nginx(), boot.Options{Core: cfg})
		if err != nil {
			t.Fatal(err)
		}
		st := inst.RT.Stats()
		st.LatencyCycles = nil
		st.GateSites, st.EmbedSites, st.BreakSites = nil, nil, nil
		return fingerprint{
			cycles:    inst.M.Cycles,
			completed: res.Completed,
			stats:     statsKey(st),
		}
	}
	a := run()
	b := run()
	if a != b {
		t.Fatalf("two identical runs diverged:\n  a=%+v\n  b=%+v", a, b)
	}
	// A different interrupt seed must (almost surely) change something.
	cfg.HTM.Seed = 10
	inst, _, err := r.measure(apps.Nginx(), boot.Options{Core: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if inst.M.Cycles == a.cycles {
		t.Log("warning: different interrupt seed produced identical cycles (possible, unlikely)")
	}
}

func statsKey(st core.Stats) string {
	return fmt.Sprintf("g=%d hb=%d ha=%d sb=%d c=%d i=%d u=%d",
		st.GateExecs, st.HTMBegins, st.HTMAborts, st.STMBegins,
		st.Crashes, st.Injections, st.Unrecovered)
}

// TestObservabilityOutputIsByteDeterministic renders all three
// observability exports of a full observed run twice and requires the
// bytes to match — the cycle-domain guarantee firebench's
// -trace-out/-metrics-out/-profile files rely on.
func TestObservabilityOutputIsByteDeterministic(t *testing.T) {
	r := Runner{Requests: 80, Concurrency: 4, Seed: 9}
	run := func() [3]string {
		res, err := r.Observe("nginx")
		if err != nil {
			t.Fatal(err)
		}
		var trace, metrics, profile bytes.Buffer
		if err := obsv.Sequence(res.Spans).WriteJSONL(&trace); err != nil {
			t.Fatal(err)
		}
		if err := res.WriteMetrics(&metrics); err != nil {
			t.Fatal(err)
		}
		if err := res.WriteProfile(&profile); err != nil {
			t.Fatal(err)
		}
		if trace.Len() == 0 || metrics.Len() == 0 || profile.Len() == 0 {
			t.Fatal("empty observability export")
		}
		return [3]string{trace.String(), metrics.String(), profile.String()}
	}
	a := run()
	b := run()
	for i, name := range []string{"trace", "metrics", "profile"} {
		if a[i] != b[i] {
			t.Errorf("%s output differs between identical runs", name)
		}
	}
}

// detOutput is what one experiment exports: its rendered tables and, for
// experiments with a span log, the JSONL trace writer.
type detOutput struct {
	render string
	trace  func(io.Writer) error
}

// TestSerialEqualsParallel is the determinism contract of the parallel
// harness: for a fixed seed, fanning an experiment's runs across a worker
// pool must render byte-identical tables and write a byte-identical span
// trace, and every trace must pass the shared causality checker (what
// `obsvlint -schema trace -causality` enforces on the exported file).
// Figure 6 covers the flattened multi-stage sweep, Figure 7 (with the
// Figures 8 and 9 it gives) the per-server/per-variant fan-out, Table IV
// (with Figure 5) the fault-campaign reduction, the windows runs (with
// Table III) the per-server fan-out, threads the registry aggregation,
// and chaos/domains/fleet/openloop the experiment-global span logs
// rebased across campaigns.
func TestSerialEqualsParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	paper := Runner{Requests: 60, Concurrency: 4, Seed: 5, FaultsPerServer: 3}
	rows := []struct {
		name string
		r    Runner
		run  func(Runner) (detOutput, error)
	}{
		{"figure6", paper, func(r Runner) (detOutput, error) {
			res, err := r.Figure6()
			return detOutput{render: res.Render()}, err
		}},
		{"figure7", paper, func(r Runner) (detOutput, error) {
			res, err := r.Figure7()
			return detOutput{render: res.Render() + res.RenderFigure8() + res.RenderFigure9()}, err
		}},
		{"tableIV", paper, func(r Runner) (detOutput, error) {
			res, err := r.TableIV()
			return detOutput{render: res.Render() + res.RenderFigure5()}, err
		}},
		{"windows", paper, func(r Runner) (detOutput, error) {
			res, err := r.TxWindows()
			return detOutput{render: res.Render() + res.TableIII().Render()}, err
		}},
		{"threads", Runner{Requests: 40, Concurrency: 4, Seed: 9}, func(r Runner) (detOutput, error) {
			res, err := r.Threads()
			return detOutput{render: res.Render()}, err
		}},
		{"chaos", chaosRunner(), func(r Runner) (detOutput, error) {
			res, err := r.Chaos()
			return detOutput{res.Render(), obsv.Sequence(res.Spans).WriteJSONL}, err
		}},
		{"domains", domainsRunner(), func(r Runner) (detOutput, error) {
			ab, err := r.AblationDomains()
			if err != nil {
				return detOutput{}, err
			}
			ct, err := r.Containment()
			return detOutput{ab.Render() + ct.Render(), obsv.Sequence(ct.Spans).WriteJSONL}, err
		}},
		{"fleet", Runner{Requests: 30, Concurrency: 2, Seed: 3}, func(r Runner) (detOutput, error) {
			res, err := r.Fleet(1, 2)
			return detOutput{res.Render(), obsv.Sequence(res.Spans).WriteJSONL}, err
		}},
		{"openloop", Runner{Requests: 60, Seed: 1}, func(r Runner) (detOutput, error) {
			res, err := r.OpenLoop()
			return detOutput{res.Render(), obsv.Sequence(res.Spans).WriteJSONL}, err
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			run := func(parallelism int) (string, []byte) {
				r := row.r
				r.Parallelism = parallelism
				out, err := row.run(r)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if out.trace != nil {
					if err := out.trace(&buf); err != nil {
						t.Fatal(err)
					}
				}
				return out.render, buf.Bytes()
			}
			sr, st := run(1)
			pr, pt := run(4)
			if sr != pr {
				t.Errorf("render differs between -parallel 1 and 4:\n--- serial\n%s\n--- parallel\n%s", sr, pr)
			}
			if !bytes.Equal(st, pt) {
				t.Error("span trace differs between -parallel 1 and 4")
			}
			var spans []obsv.SpanEvent
			for _, line := range bytes.Split(bytes.TrimSpace(st), []byte("\n")) {
				if len(line) == 0 {
					continue
				}
				var e obsv.SpanEvent
				if err := json.Unmarshal(line, &e); err != nil {
					t.Fatalf("trace line %d: %v", len(spans)+1, err)
				}
				spans = append(spans, e)
			}
			if errs := obsv.CheckCausality(spans); len(errs) > 0 {
				if len(errs) > 10 {
					errs = errs[:10]
				}
				t.Errorf("trace violates causality:\n  %s", strings.Join(errs, "\n  "))
			}
		})
	}
}
