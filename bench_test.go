// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark runs the corresponding experiment end to end and reports
// the headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. The rendered tables are printed once per
// benchmark via b.Log (visible with -v); EXPERIMENTS.md records
// paper-vs-measured for each experiment.
package firestarter_test

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/firestarter-go/firestarter/internal/bench"
	"github.com/firestarter-go/firestarter/internal/libmodel"
)

// benchRunner returns the standard experiment configuration used for the
// recorded results.
func benchRunner() bench.Runner {
	return bench.Runner{Requests: 300, Concurrency: 4, Seed: 1, FaultsPerServer: 12}
}

func BenchmarkTableII(b *testing.B) {
	var res bench.TableIIResult
	for i := 0; i < b.N; i++ {
		res = bench.TableII()
	}
	div := 0
	for _, c := range res.Counts {
		div += c[0]
	}
	b.ReportMetric(float64(res.Total), "functions")
	b.ReportMetric(float64(div), "divertable")
	b.Log("\n" + res.Render())
}

// BenchmarkTableIV times the fault campaigns Table IV and Figure 5 both
// render from.
func BenchmarkTableIV(b *testing.B) {
	r := benchRunner()
	var res bench.TableIVResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = r.TableIV()
		if err != nil {
			b.Fatal(err)
		}
	}
	injected, recovered := 0, 0
	for _, row := range res.Rows {
		injected += row.FSInjected
		recovered += row.FSRecovered
	}
	b.ReportMetric(float64(injected), "failstop_injected")
	b.ReportMetric(float64(recovered), "failstop_recovered")
	for _, row := range res.Latency {
		b.ReportMetric(row.P50us, row.Server+"_p50_us")
	}
	b.Log("\n" + res.Render() + "\n" + res.RenderFigure5())
}

func BenchmarkFigure3(b *testing.B) {
	r := benchRunner()
	var res bench.Figure3Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = r.Figure3()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		switch {
		case row.Policy[:5] == "naive":
			b.ReportMetric(row.DegradationPct, "naive_degr_%")
		case row.Policy[:6] == "manual":
			b.ReportMetric(row.DegradationPct, "manual_degr_%")
		default:
			b.ReportMetric(row.DegradationPct, "dynamic_degr_%")
		}
	}
	b.Log("\n" + res.Render())
}

func BenchmarkFigure6(b *testing.B) {
	r := bench.Runner{Requests: 120, Concurrency: 4, Seed: 1}
	var res bench.Figure6Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = r.Figure6()
		if err != nil {
			b.Fatal(err)
		}
	}
	// Spread across the sweep per server: the paper's finding is
	// insensitivity, so report min and max degradation.
	for _, name := range res.Order {
		lo, hi := 1e18, -1e18
		for _, c := range res.Servers[name] {
			if c.DegradationPct < lo {
				lo = c.DegradationPct
			}
			if c.DegradationPct > hi {
				hi = c.DegradationPct
			}
		}
		b.ReportMetric(hi-lo, name+"_sweep_spread_%")
	}
	b.Log("\n" + res.Render())
}

// BenchmarkFigure7 times the runs Figures 7, 8 and 9 all render from.
func BenchmarkFigure7(b *testing.B) {
	r := benchRunner()
	var res bench.Figure7Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = r.Figure7()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.FIRestarterPct, row.Server+"_overhead_%")
		b.ReportMetric(row.HTMOnlyAbortPct, row.Server+"_htmonly_abort_%")
		b.ReportMetric(row.FIRestarterAbortPct, row.Server+"_fir_abort_%")
		b.ReportMetric(row.FIRestarterMemPct, row.Server+"_mem_overhead_%")
	}
	b.Log("\n" + res.Render() + "\n" + res.RenderFigure8() + "\n" + res.RenderFigure9())
}

// BenchmarkFigure7Bytecode runs the same campaign with guests executing
// on the bytecode backend instead of the tree-walker. Results are
// byte-identical to BenchmarkFigure7 (the differential tests in
// internal/bench enforce this); only wall-clock changes.
func BenchmarkFigure7Bytecode(b *testing.B) {
	r := benchRunner()
	r.Backend = "bytecode"
	var res bench.Figure7Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = r.Figure7()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.FIRestarterPct, row.Server+"_overhead_%")
	}
}

// BenchmarkFigure7Parallel runs the same campaign with the worker pool
// sized to the host; output is byte-identical to the serial run (see
// TestSerialEqualsParallel), only wall-clock changes.
func BenchmarkFigure7Parallel(b *testing.B) {
	r := benchRunner()
	r.Parallelism = runtime.NumCPU()
	var res bench.Figure7Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = r.Figure7()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.FIRestarterPct, row.Server+"_overhead_%")
	}
}

func BenchmarkRealWorldBugs(b *testing.B) {
	r := benchRunner()
	var res bench.RealWorldResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = r.RealWorld()
		if err != nil {
			b.Fatal(err)
		}
	}
	survived := 0
	for _, cs := range res.Cases {
		if cs.Survived && cs.FollowupOK {
			survived++
		}
	}
	b.ReportMetric(float64(survived), "cases_survived")
	b.Log("\n" + res.Render())
}

func BenchmarkAblationDivert(b *testing.B) {
	r := benchRunner()
	var res bench.DivertResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = r.AblationDivert()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		name := "episode"
		if row.Policy[:6] == "sticky" {
			name = "sticky"
		}
		b.ReportMetric(float64(row.Crashes), name+"_crashes")
	}
	b.Log("\n" + res.Render())
}

func BenchmarkAblationRetry(b *testing.B) {
	r := benchRunner()
	var res bench.RetryResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = r.AblationRetry()
		if err != nil {
			b.Fatal(err)
		}
	}
	if n := len(res.Rows); n > 0 {
		b.ReportMetric(float64(res.Rows[n-1].RetryExecs), "reexecs_at_8_retries")
	}
	b.Log("\n" + res.Render())
}

func BenchmarkAblationGeometry(b *testing.B) {
	r := benchRunner()
	var res bench.GeometryResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = r.AblationGeometry()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.OverheadPct, fmt.Sprintf("l1_%dkib_overhead_%%", row.CacheKiB))
	}
	b.Log("\n" + res.Render())
}

func BenchmarkExtensionMaskedWrites(b *testing.B) {
	r := benchRunner()
	var res bench.MaskedResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = r.AblationMaskedWrites()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.MaskedRecoverablePct, row.Server+"_masked_surface_%")
	}
	b.Log("\n" + res.Render())
}

func BenchmarkRestartBaseline(b *testing.B) {
	r := benchRunner()
	var res bench.RestartResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = r.AblationRestartBaseline()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		name := "restart"
		if row.Strategy == "FIRestarter" {
			name = "firestarter"
		}
		b.ReportMetric(float64(row.Failed), name+"_failed")
		b.ReportMetric(float64(row.Restarts), name+"_restarts")
	}
	b.Log("\n" + res.Render())
}

// BenchmarkTxWindows times the runs the window profile and Table III
// both render from.
func BenchmarkTxWindows(b *testing.B) {
	r := benchRunner()
	var res bench.WindowResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = r.TxWindows()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(float64(row.StepsP50), row.Server+"_window_p50_steps")
		b.ReportMetric(row.PerRequest, row.Server+"_tx_per_req")
	}
	table3 := res.TableIII()
	for _, row := range table3.Rows {
		b.ReportMetric(row.RecoverablePct, row.Server+"_recoverable_%")
	}
	b.Log("\n" + res.Render() + "\n" + table3.Render())
}

// BenchmarkTableI is a placeholder for the paper's Table I, which surveys
// prior systems' published numbers and is not reproducible by running
// code; the README reproduces it as a citation table.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = libmodel.Default()
	}
	b.Log("Table I is a literature survey (see README.md); nothing to measure")
}
