package sched

import (
	"testing"

	"github.com/firestarter-go/firestarter/internal/core"
	"github.com/firestarter-go/firestarter/internal/htm"
	"github.com/firestarter-go/firestarter/internal/interp"
	"github.com/firestarter-go/firestarter/internal/ir"
	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/mem"
	"github.com/firestarter-go/firestarter/internal/minic"
	"github.com/firestarter-go/firestarter/internal/transform"
)

// mustCompile compiles a mini-C snippet against the simulated library.
func mustCompile(t *testing.T, src string) *transform.Result {
	t.Helper()
	prog, err := minic.Compile(src, minic.Config{KnownLib: libsim.Known})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	tr, err := transform.Apply(prog, nil)
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	return tr
}

// protectedSched boots a transformed program under the scheduler with one
// recovery runtime (and TSX instance) per thread, all joined through a
// shared conflict domain.
func protectedSched(t *testing.T, tr *transform.Result, cfg core.Config, quantum int64) (*Sched, *[]*core.Runtime) {
	t.Helper()
	osim := libsim.New(mem.NewSpace())
	domain := htm.NewDomain()
	rts := &[]*core.Runtime{}
	factory := func(tid int) ThreadRuntime {
		c := cfg
		c.HTM.Seed = cfg.HTM.Seed + int64(tid)*1_000_003
		rt := core.New(tr, osim, c)
		rt.SetDomain(domain, tid)
		*rts = append(*rts, rt)
		return rt
	}
	main := factory(0)
	m, err := interp.New(tr.Prog, osim, main)
	if err != nil {
		t.Fatalf("interp.New: %v", err)
	}
	main.Attach(m)
	s, err := New(m, factory, Options{Quantum: quantum})
	if err != nil {
		t.Fatalf("sched.New: %v", err)
	}
	return s, rts
}

// directSched boots an unprotected program under the scheduler.
func directSched(t *testing.T, prog *ir.Program, opts Options) *Sched {
	t.Helper()
	m, err := interp.New(prog, libsim.New(mem.NewSpace()), Direct{})
	if err != nil {
		t.Fatalf("interp.New: %v", err)
	}
	s, err := New(m, nil, opts)
	if err != nil {
		t.Fatalf("sched.New: %v", err)
	}
	return s
}

// A racy two-thread counter: each iteration opens a transaction at the
// malloc gate and stores to g_x inside it. Both threads write the same
// cache line, so suspending one mid-transaction and running the other
// must produce genuine AbortConflict aborts — and, because every abort
// rolls back and re-executes the iteration, the final count is still
// exact.
const racySrc = `
int g_x = 0;

int worker(int id) {
	int i = 0;
	while (i < 200) {
		char *p = malloc(16);
		if (p == 0) {
			return 1;
		}
		g_x = g_x + 1;
		free(p);
		i = i + 1;
	}
	return 0;
}

int main() {
	int a = thread_create("worker", 0);
	if (a < 0) {
		return 1;
	}
	int b = thread_create("worker", 1);
	if (b < 0) {
		return 2;
	}
	if (thread_join(a) != 0) {
		return 3;
	}
	if (thread_join(b) != 0) {
		return 4;
	}
	return 0;
}
`

func runRacy(t *testing.T, quantum int64) (*Sched, *[]*core.Runtime) {
	t.Helper()
	tr := mustCompile(t, racySrc)
	cfg := core.Config{
		// Keep the adaptive policy out of the way: no interrupt aborts,
		// and a threshold high enough that gates stay on HTM (an early
		// STM latch would serialize on the commit lock and stop the
		// very conflicts this test measures).
		Threshold:  0.95,
		SampleSize: 1 << 30,
	}
	s, rts := protectedSched(t, tr, cfg, quantum)
	out := s.Run(0)
	if !s.Main().Exited() || out.Code != 0 {
		t.Fatalf("program did not exit cleanly: %+v (sched: %s)", out, s)
	}
	return s, rts
}

// TestConflictAbortsAcrossThreads is the tentpole's acceptance test: two
// threads writing the same cache line inside hardware transactions must
// organically generate AbortConflict, and recovery must keep the counter
// exact despite the aborts.
func TestConflictAbortsAcrossThreads(t *testing.T) {
	s, rts := runRacy(t, 64)

	var confl, aborts int64
	for _, rt := range *rts {
		st := rt.HTMStats()
		confl += st.ByConfl
		aborts += st.Aborts
	}
	if confl == 0 {
		t.Fatalf("no conflict aborts despite racing transactions (aborts=%d)", aborts)
	}
	addr := s.Main().GlobalAddr("g_x")
	v, err := s.Main().Space.Load(addr, 8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 400 {
		t.Fatalf("g_x = %d after recovery, want 400 (conflicts=%d)", v, confl)
	}
	t.Logf("conflict aborts: %d (total aborts %d)", confl, aborts)
}

// TestSchedulingIsDeterministic locks in the reproducibility contract:
// identical programs, seeds and quanta must produce bit-identical
// per-thread cycle counts and abort statistics.
func TestSchedulingIsDeterministic(t *testing.T) {
	type fp struct {
		cycles []int64
		confl  int64
		begins int64
	}
	run := func() fp {
		s, rts := runRacy(t, 64)
		var f fp
		for _, th := range s.Threads() {
			f.cycles = append(f.cycles, th.M.Cycles)
		}
		for _, rt := range *rts {
			st := rt.HTMStats()
			f.confl += st.ByConfl
			f.begins += st.Begins
		}
		return f
	}
	a, b := run(), run()
	if a.confl != b.confl || a.begins != b.begins || len(a.cycles) != len(b.cycles) {
		t.Fatalf("runs diverged: %+v vs %+v", a, b)
	}
	for i := range a.cycles {
		if a.cycles[i] != b.cycles[i] {
			t.Fatalf("thread %d cycles diverged: %d vs %d", i, a.cycles[i], b.cycles[i])
		}
	}
}

// TestMutexProtectsCounter exercises lock/unlock + join under the plain
// (unprotected) runtime: mutual exclusion and FIFO-ish wakeup, no
// transactions involved.
func TestMutexProtectsCounter(t *testing.T) {
	const src = `
int g_n = 0;

int worker(int id) {
	int i = 0;
	while (i < 100) {
		if (mutex_lock(7) != 0) {
			return 1;
		}
		g_n = g_n + 1;
		if (mutex_unlock(7) != 0) {
			return 2;
		}
		i = i + 1;
	}
	return 0;
}

int main() {
	int a = thread_create("worker", 0);
	int b = thread_create("worker", 1);
	int c = thread_create("worker", 2);
	if (a < 0 || b < 0 || c < 0) {
		return 1;
	}
	thread_join(a);
	thread_join(b);
	thread_join(c);
	return 0;
}
`
	prog, err := minic.Compile(src, minic.Config{KnownLib: libsim.Known})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	s := directSched(t, prog, Options{Quantum: 37})
	out := s.Run(0)
	if out.Kind != interp.OutExited || out.Code != 0 {
		t.Fatalf("unexpected outcome: %+v (sched: %s)", out, s)
	}
	v, err := s.Main().Space.Load(s.Main().GlobalAddr("g_n"), 8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 300 {
		t.Fatalf("g_n = %d, want 300", v)
	}
	for _, th := range s.Threads()[1:] {
		if !th.Exited() || th.ExitCode() != 0 {
			t.Fatalf("thread %d: exited=%v code=%d", th.ID, th.Exited(), th.ExitCode())
		}
	}
}

// TestThreadErrors covers the error paths of the pthread-style calls.
func TestThreadErrors(t *testing.T) {
	const src = `
int main() {
	int bad = thread_create("nosuch", 0);
	if (bad != -1) {
		return 1;
	}
	if (thread_join(99) != -1) {
		return 2;
	}
	if (mutex_unlock(3) == 0) {
		return 3;
	}
	if (mutex_lock(3) != 0) {
		return 4;
	}
	if (mutex_lock(3) == 0) {
		return 5;
	}
	if (mutex_unlock(3) != 0) {
		return 6;
	}
	return 0;
}
`
	prog, err := minic.Compile(src, minic.Config{KnownLib: libsim.Known})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	s := directSched(t, prog, Options{})
	out := s.Run(0)
	if out.Code != 0 {
		t.Fatalf("exit code %d, want 0 (%+v)", out.Code, out)
	}
}

// TestStmCommitLockSerializes drives one gate into the STM fallback and
// checks that hardware transactions of the other thread are doomed by the
// commit lock (lock elision) rather than committing concurrently.
func TestStmCommitLockSerializes(t *testing.T) {
	tr := mustCompile(t, racySrc)
	cfg := core.Config{
		// Latch aggressively: the first sampled abort flips the gate to
		// STM, after which the commit lock serializes everything.
		Threshold:  0.0001,
		SampleSize: 1,
	}
	s, rts := protectedSched(t, tr, cfg, 64)
	out := s.Run(0)
	if !s.Main().Exited() || out.Code != 0 {
		t.Fatalf("program did not exit cleanly: %+v (sched: %s)", out, s)
	}
	var stmBegins int64
	for _, rt := range *rts {
		stmBegins += rt.Stats().STMBegins
	}
	if stmBegins == 0 {
		t.Skip("no STM fallback triggered (no aborts at this quantum)")
	}
	v, err := s.Main().Space.Load(s.Main().GlobalAddr("g_x"), 8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 400 {
		t.Fatalf("g_x = %d under STM serialization, want 400", v)
	}
}
