package core_test

import (
	"testing"

	"github.com/firestarter-go/firestarter/internal/analysis"
	"github.com/firestarter-go/firestarter/internal/core"
	"github.com/firestarter-go/firestarter/internal/interp"
	"github.com/firestarter-go/firestarter/internal/ir"
	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/mem"
	"github.com/firestarter-go/firestarter/internal/minic"
	"github.com/firestarter-go/firestarter/internal/transform"
)

// BenchmarkRuntimeLibCall drives core.Runtime.LibCall over the three
// kinds of site a hardened program has. One op is one request-shaped
// cycle: a gate's boundary call (malloc, recorded for compensation), then
// inside the STM transaction the gate opens an embedded call (strlen,
// executed) and a deferrable one (free, queued), and the commit that runs
// the deferred free.
func BenchmarkRuntimeLibCall(b *testing.B) {
	prog, err := minic.Compile(`
int main() {
	char *p = malloc(16);
	if (!p) { return 1; }
	int n = strlen(p);
	free(p);
	return n;
}
`, minic.Config{KnownLib: libsim.Known})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := transform.Apply(prog, nil)
	if err != nil {
		b.Fatal(err)
	}
	site := map[string]*analysis.Site{}
	for _, s := range tr.Analysis.Sites {
		site[s.Name] = s
	}
	if site["malloc"].Role != analysis.RoleGate || site["strlen"].Role != analysis.RoleEmbed ||
		site["free"].Role != analysis.RoleEmbed {
		b.Fatalf("site roles: malloc %v, strlen %v, free %v", site["malloc"].Role, site["strlen"].Role, site["free"].Role)
	}
	osim := libsim.New(mem.NewSpace())
	rt := core.New(tr, osim, core.Config{Mode: core.ModeSTMOnly})
	m, err := interp.New(tr.Prog, osim, rt)
	if err != nil {
		b.Fatal(err)
	}
	rt.Attach(m)
	snap := m.Snapshot()
	gate := site["malloc"].ID
	size, ptr := []int64{16}, []int64{0}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := rt.LibCall(m, "malloc", size, gate)
		if err != nil || p == 0 {
			b.Fatalf("malloc = %d, %v", p, err)
		}
		if variant, inject, _ := rt.Gate(m, gate, snap); variant != ir.TxSTM || inject {
			b.Fatalf("gate chose variant %d (inject %v)", variant, inject)
		}
		if err := rt.TxBegin(m, gate, ir.TxSTM); err != nil {
			b.Fatal(err)
		}
		ptr[0] = p
		if _, err := rt.LibCall(m, "strlen", ptr, site["strlen"].ID); err != nil {
			b.Fatal(err)
		}
		if _, err := rt.LibCall(m, "free", ptr, site["free"].ID); err != nil {
			b.Fatal(err)
		}
		if err := rt.TxEnd(m); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := rt.Stats(); st.DeferredRuns != int64(b.N) {
		b.Fatalf("DeferredRuns = %d, want %d", st.DeferredRuns, b.N)
	}
}
