package minic

import (
	"testing"

	"github.com/firestarter-go/firestarter/internal/interp"
	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/mem"
)

// FuzzBackendEquivalence is the differential fuzz target for the bytecode
// backend (go test -fuzz=FuzzBackendEquivalence ./internal/minic): every
// corpus program that compiles is executed on the tree-walker and the
// bytecode backend in lockstep, one instruction per Run call, and the
// machines must agree on outcome, steps, cycles, stack shape and exit
// code after every single instruction. In normal test runs it exercises
// the seed corpus.
func FuzzBackendEquivalence(f *testing.F) {
	seeds := []string{
		"int main() { return 0; }",
		"int f(int n) { if (n < 2) { return n; } return f(n-1) + f(n-2); } int main() { return f(10); }",
		"int main() { int s = 0; for (int i = 0; i < 50; i++) { s = s + i; } return s; }",
		"int g = 0; int main() { for (int i = 0; i < 20; i++) { g = g + 3; } return g; }",
		`char msg[6] = "hello"; int main() { return strlen(msg); }`,
		"int main() { int *p = malloc(16); if (!p) { return -1; } p[0] = 7; p[1] = p[0] * 6; int r = p[1]; free(p); return r; }",
		"int main() { int a = 100; int b = 7; return a / b + a % b; }",
		"int main() { int i = 0; while (1) { i++; if (i > 1000) { break; } } return i; }",
		"struct s { int a; int b; }; int main() { struct s v; v.a = 3; v.b = 4; return v.a * v.b; }",
		"int main() { int x = 0; return 1 / x; }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Compile(src, Config{})
		if err != nil || prog == nil || prog.Validate() != nil {
			t.Skip()
		}
		mt, err := interp.New(prog, libsim.New(mem.NewSpace()), nil)
		if err != nil {
			t.Skip()
		}
		mb, err := interp.New(prog.Clone(), libsim.New(mem.NewSpace()), nil)
		if err != nil {
			t.Skip()
		}
		if berr := interp.UseBytecode(mb); berr != nil {
			t.Fatalf("bytecode compile failed on valid program: %v", berr)
		}

		check := func(stage string) {
			if mt.Steps != mb.Steps || mt.Cycles != mb.Cycles {
				t.Fatalf("%s: steps/cycles diverged: tree %d/%d, bytecode %d/%d\nsrc: %s",
					stage, mt.Steps, mt.Cycles, mb.Steps, mb.Cycles, truncate(src))
			}
			if mt.Depth() != mb.Depth() || mt.CurrentFunc() != mb.CurrentFunc() {
				t.Fatalf("%s: stack diverged: tree %d@%q, bytecode %d@%q\nsrc: %s",
					stage, mt.Depth(), mt.CurrentFunc(), mb.Depth(), mb.CurrentFunc(), truncate(src))
			}
			if mt.Exited() != mb.Exited() || mt.ExitCode() != mb.ExitCode() {
				t.Fatalf("%s: exit diverged: tree %v/%d, bytecode %v/%d\nsrc: %s",
					stage, mt.Exited(), mt.ExitCode(), mb.Exited(), mb.ExitCode(), truncate(src))
			}
		}

		// Lockstep phase: single-instruction quanta so every instruction
		// boundary is also a stop/resume point.
		const lockstepSteps = 3000
		done := false
		for i := 0; i < lockstepSteps && !done; i++ {
			ot := mt.Run(1)
			ob := mb.Run(1)
			if ot.Kind != ob.Kind || ot.Code != ob.Code {
				t.Fatalf("lockstep: outcomes diverged: tree %v/%d, bytecode %v/%d\nsrc: %s",
					ot.Kind, ot.Code, ob.Kind, ob.Code, truncate(src))
			}
			check("lockstep")
			done = ot.Kind != interp.OutStepLimit
		}
		// Tail phase: run out longer programs in big quanta (bounded — fuzz
		// inputs may loop forever).
		for i := 0; i < 50 && !done; i++ {
			ot := mt.Run(20_000)
			ob := mb.Run(20_000)
			if ot.Kind != ob.Kind || ot.Code != ob.Code {
				t.Fatalf("tail: outcomes diverged: tree %v/%d, bytecode %v/%d\nsrc: %s",
					ot.Kind, ot.Code, ob.Kind, ob.Code, truncate(src))
			}
			check("tail")
			done = ot.Kind != interp.OutStepLimit
		}
	})
}
