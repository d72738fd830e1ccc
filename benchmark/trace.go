package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"github.com/firestarter-go/firestarter/internal/bench"
)

// profileDir keeps the traced runs' raw profiles for go tool pprof; it lies
// under the build directory, which version control ignores.
const profileDir = ".bench_build/profiles"

// selfLayers and allocLayers are the layers whose CPU self time and bytes
// the traced run reports (see layerOfPackage for the package mapping).
var (
	selfLayers = []string{"interp", "bytecode", "mem", "htm", "stm", "core", "libsim",
		"workload", "fleet", "supervisor", "obsv", "faultinj", "compile", "bench"}
	allocLayers = []string{"interp", "core", "obsv", "libsim", "workload", "fleet",
		"bench", "compile", "supervisor", "htm", "stm", "mem"}
)

// traced is the per-layer run: set-up, one untraced rep (the reference for
// the digest and the tracing overhead), one rep under the CPU profiler with
// allocation profiles around it, then the core-seam probe.
func traced(w *workloadDef, seed int64, out io.Writer) (result, error) {
	r := w.runner(seed)
	prep, _, st, err := setUp(w, r)
	if err != nil {
		return result{}, err
	}
	vals := map[string]float64{
		"minic.compile_ms":   ms(st.compile),
		"transform.apply_ms": ms(st.apply),
		"bytecode.lower_ms":  ms(st.lower),
		"faultinj.plan_ms":   ms(st.plan),
	}

	plain := timeRep(w, r)
	if err := os.MkdirAll(profileDir, 0o755); err != nil {
		return result{}, err
	}
	stem := filepath.Join(profileDir, fmt.Sprintf("%s-seed%d", w.name, seed))
	prof, err := profiledRep(w, r, stem)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "profiles: %s.{cpu,allocs.base,allocs}.pb.gz\n", stem)
	failed := verify(w, seed, []rep{plain, prof.rep}, out)

	cpu, err := parseProfile(prof.cpu)
	if err != nil {
		return result{}, err
	}
	vi, err := cpu.valueIndex("cpu")
	if err != nil {
		return result{}, err
	}
	self := fold(cpu, vi)
	var total int64
	for _, ns := range self {
		total += ns
	}
	for _, l := range selfLayers {
		vals[l+".self_s"] = float64(self[l]) / 1e9
	}
	vals["go-runtime.gc_s"] = float64(self[layerRuntime]) / 1e9
	if total > 0 {
		vals["trace.coverage"] = 1 - float64(self[layerOther])/float64(total)
	}
	vals["go-runtime.gc_assist_s"] = prof.gcAssist
	vals["go-runtime.gc_cycles"] = prof.gcCycles

	bytesBy, err := allocDelta(prof.allocsBase, prof.allocs)
	if err != nil {
		return result{}, err
	}
	for _, l := range allocLayers {
		vals[l+".alloc_mb"] = float64(bytesBy[l]) / (1 << 20)
	}
	vals["trace.overhead_ratio"] = prof.rep.wall / plain.wall
	vals["bench.jobs"] = float64(plain.campaign.jobs)

	seam := &seamCalls{}
	pr, err := w.probe(r, prep, plain.campaign, seam)
	if err != nil {
		return result{}, fmt.Errorf("probe: %w", err)
	}
	seamMetrics(seam, vals)
	pr.countMetrics(vals)

	fmt.Fprintf(out, "%s seed %d (campaign seed %d): untraced rep %.3fs, traced rep %.3fs\n",
		w.name, seed, r.Seed, plain.wall, prof.rep.wall)
	res, err := newResult(perLayer, vals, 2, failed)
	if err == nil {
		fmt.Fprint(out, res.render())
	}
	return res, err
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// profiled is one rep taken under the profilers.
type profiled struct {
	rep                     rep
	cpu, allocsBase, allocs []byte // gzipped pprof protobufs
	gcAssist, gcCycles      float64
}

// profiledRep runs one rep under the CPU profiler, bracketed by allocation
// profiles (cumulative, so their difference is the rep's), and writes all
// three next to stem.
func profiledRep(w *workloadDef, r bench.Runner, stem string) (*profiled, error) {
	p := &profiled{}
	runtime.GC()
	var err error
	if p.allocsBase, err = allocsProfile(); err != nil {
		return nil, err
	}
	gc := []metrics.Sample{
		{Name: "/cpu/classes/gc/mark/assist:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(gc)
	assist0, cycles0 := gc[0].Value.Float64(), gc[1].Value.Uint64()

	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		return nil, err
	}
	p.rep = timeRep(w, r)
	pprof.StopCPUProfile()
	p.cpu = cpu.Bytes()

	metrics.Read(gc)
	p.gcAssist = gc[0].Value.Float64() - assist0
	p.gcCycles = float64(gc[1].Value.Uint64() - cycles0)

	// The allocation profile reflects the heap as of the last completed
	// collection.
	runtime.GC()
	if p.allocs, err = allocsProfile(); err != nil {
		return nil, err
	}
	for suffix, data := range map[string][]byte{".cpu.pb.gz": p.cpu, ".allocs.base.pb.gz": p.allocsBase, ".allocs.pb.gz": p.allocs} {
		if err := os.WriteFile(stem+suffix, data, 0o644); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func allocsProfile() ([]byte, error) {
	var b bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&b, 0); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// allocDelta folds two cumulative allocation profiles by layer and returns
// the bytes allocated between them.
func allocDelta(base, after []byte) (map[string]int64, error) {
	out := map[string]int64{}
	for sign, data := range map[int64][]byte{-1: base, 1: after} {
		p, err := parseProfile(data)
		if err != nil {
			return nil, err
		}
		vi, err := p.valueIndex("alloc_space")
		if err != nil {
			return nil, err
		}
		for l, b := range fold(p, vi) {
			out[l] += sign * b
		}
	}
	return out, nil
}
