package boot_test

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/boot"
	"github.com/firestarter-go/firestarter/internal/interp"
	"github.com/firestarter-go/firestarter/internal/ir"
	"github.com/firestarter-go/firestarter/internal/minic"
	"github.com/firestarter-go/firestarter/internal/workload"
)

// quiesced is the machine state a boot reaches at its first block on I/O.
type quiesced struct {
	digest uint64
	cycles int64
	steps  int64
}

// Every app boots vanilla and hardened on both backends; the two backends
// reach the same state at the quiesce point.
func TestBootMatrix(t *testing.T) {
	for _, app := range append(apps.All(), apps.PoolApps()...) {
		for _, vanilla := range []bool{true, false} {
			var ref *quiesced
			for _, backend := range []string{"tree", "bytecode"} {
				name := fmt.Sprintf("%s/vanilla=%v/%s", app.Name, vanilla, backend)
				inst, err := boot.App(app, boot.Options{Vanilla: vanilla, Backend: backend})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if inst.App != app {
					t.Errorf("%s: Instance.App not set", name)
				}
				if vanilla {
					if inst.RT != nil || inst.TR != nil {
						t.Errorf("%s: vanilla boot has a runtime or transform", name)
					}
					// Vanilla boots arm nothing; run to the first block.
					if err := inst.ArmQuiesce(); err != nil {
						t.Fatalf("%s: ArmQuiesce on vanilla: %v", name, err)
					}
					if out := inst.M.Run(5_000_000); out.Kind != interp.OutBlocked {
						t.Fatalf("%s: startup ended %v", name, out.Kind)
					}
				} else {
					if inst.RT == nil || inst.TR == nil {
						t.Fatalf("%s: hardened boot without runtime", name)
					}
					if err := inst.ArmQuiesce(); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if fn := inst.M.CurrentFunc(); fn != app.QuiesceFunc {
						t.Errorf("%s: quiesced in %q, want %q", name, fn, app.QuiesceFunc)
					}
				}
				got := &quiesced{inst.M.Snapshot().Digest(), inst.M.Cycles, inst.M.Steps}
				if ref == nil {
					ref = got
				} else if *got != *ref {
					t.Errorf("%s: quiesce state %+v, tree reached %+v", name, *got, *ref)
				}
			}
		}
	}
}

func TestArmQuiesceWrongFunctionIsAnError(t *testing.T) {
	app := *apps.Nginx()
	app.QuiesceFunc = "no_such_loop"
	inst, err := boot.App(&app, boot.Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = inst.ArmQuiesce()
	if err == nil || !strings.Contains(err.Error(), `quiesce point is "no_such_loop"`) {
		t.Fatalf("ArmQuiesce = %v, want a wrong-quiesce-point error", err)
	}
}

// A watchpoint that fires during startup stops the boot there; it is not
// a failure to reach the quiesce point.
func TestArmQuiesceStopsAtWatch(t *testing.T) {
	inst, err := boot.App(apps.Nginx(), boot.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	inst.M.WatchCycles(100, func(*interp.Machine) { fired = true })
	if err := inst.ArmQuiesce(); err != nil {
		t.Fatalf("ArmQuiesce with an early watch: %v", err)
	}
	if !fired {
		t.Fatal("watch did not fire")
	}
}

// Image.SetBackend installs a known backend and rejects an unknown one,
// as a boot does.
func TestSetBackend(t *testing.T) {
	img, err := boot.Build(apps.Nginx(), boot.Options{Vanilla: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "tree", "bytecode"} {
		if err := boot.CheckBackend(name); err != nil {
			t.Errorf("CheckBackend(%q) = %v", name, err)
		}
		inst, err := img.Boot(boot.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := img.SetBackend(inst.M, name); err != nil {
			t.Errorf("SetBackend(%q) = %v", name, err)
		}
	}
	if err := boot.CheckBackend("jit"); err == nil {
		t.Error(`CheckBackend("jit") accepted an unknown backend`)
	}
	if _, err := img.Boot(boot.Options{Backend: "jit"}); err == nil {
		t.Error("Boot accepted an unknown backend")
	}
}

// A fleet replica boots hardened, with its quiesce point armed; a vanilla
// image cannot back a fleet.
func TestReplica(t *testing.T) {
	img, err := boot.Build(apps.Nginx(), boot.Options{})
	if err != nil {
		t.Fatal(err)
	}
	be, err := img.Replica(boot.Options{})(0, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	if be.RT == nil || be.OS == nil || be.Exec == nil {
		t.Fatalf("replica backend incomplete: %+v", be)
	}
	vanilla, err := boot.Build(apps.Nginx(), boot.Options{Vanilla: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vanilla.Replica(boot.Options{})(0, 0, 42); err == nil {
		t.Error("a vanilla image booted a fleet replica")
	}
}

// TestUnknownLibraryCallFailsAtCallTime: a library name the simulator
// does not implement links, and fails only when called, with the same
// error text by name and through the runtimes' bound dispatch, and the
// same trap, on both backends, vanilla and hardened. The names cover an
// unknown function, a model-only gate (opendir) and a model-only
// deferrable call (closedir) that fails when its transaction commits.
// The pinned outcomes are the ones from before library calls were bound
// at link time.
func TestUnknownLibraryCallFailsAtCallTime(t *testing.T) {
	type want struct {
		pc            string
		steps, cycles int64
	}
	for _, c := range []struct {
		call, src         string
		vanilla, hardened want
	}{
		{"no_such_call", `int main() { int a = getpid(); int r = no_such_call(a); if (r < 0) { return 1; } return 2; }`,
			want{"main.b0.2", 3, 61}, want{"main.b0.3", 4, 61}},
		{"opendir", `int main() { int d = opendir(0); if (d < 0) { return 1; } return 2; }`,
			want{"main.b0.1", 2, 31}, want{"main.b0.2", 3, 31}},
		{"closedir", `int main() { int p = malloc(16); if (p == 0) { return 1; } closedir(p); write(1, p, 0); return 2; }`,
			want{"main.b2.0", 7, 65}, want{"main.b2.3", 14, 90}},
	} {
		prog, err := minic.Compile(c.src, minic.Config{})
		if err != nil {
			t.Fatal(err)
		}
		wantErr := fmt.Sprintf("libsim: unknown library function %q", c.call)
		for _, vanilla := range []bool{true, false} {
			w := c.hardened
			if vanilla {
				w = c.vanilla
			}
			for _, backend := range []string{"tree", "bytecode"} {
				name := fmt.Sprintf("%s/vanilla=%v/%s", c.call, vanilla, backend)
				inst, err := boot.Program(prog, nil, boot.Options{Vanilla: vanilla, Backend: backend})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				out := inst.M.Run(0)
				if out.Kind != interp.OutTrapped || out.Trap == nil || out.Trap.Code != ir.TrapBadAccess ||
					out.Trap.PC != w.pc || inst.M.Steps != w.steps || inst.M.Cycles != w.cycles {
					t.Errorf("%s: %+v (trap %+v) after %d steps, %d cycles; want a bad-access trap at %s after %d, %d",
						name, out, out.Trap, inst.M.Steps, inst.M.Cycles, w.pc, w.steps, w.cycles)
				}
				var rt interp.Runtime = interp.Direct{}
				site := 0
				if !vanilla {
					rt = inst.RT
					for _, s := range inst.TR.Analysis.Sites {
						if s.Name == c.call {
							site = s.ID
						}
					}
					if st := inst.RT.Stats(); st.Unrecovered != 1 {
						t.Errorf("%s: Unrecovered = %d, want 1", name, st.Unrecovered)
					}
				}
				if _, err := inst.OS.Call(c.call, nil); err == nil || err.Error() != wantErr {
					t.Errorf("%s: by name: %v, want %q", name, err, wantErr)
				}
				if _, err := rt.LibCall(inst.M, c.call, nil, site); err == nil || err.Error() != wantErr {
					t.Errorf("%s: through the runtime: %v, want %q", name, err, wantErr)
				}
			}
		}
	}
}

// TestHardenedRunSiteSets: the Table III site sets a hardened run
// exports are the ones pinned from before the runtime kept them as
// bitsets, and each Stats call returns fresh maps a caller may change.
func TestHardenedRunSiteSets(t *testing.T) {
	want := map[string][3][]int{
		"nginx": {{10, 12, 15, 20, 24, 27, 30, 32, 34, 38, 42, 47, 51, 57, 58, 60, 63, 66, 73, 74, 77, 81},
			{1, 2, 6, 7, 8, 9, 29, 37, 50, 55, 56, 69, 70, 71, 72, 80, 85, 86}, {45}},
		"apache": {{1, 3, 6, 15, 17, 20, 23, 26, 28, 30, 33, 44, 51, 52, 55, 59, 65, 69},
			{32, 34, 36, 37, 40, 41, 42, 43, 48, 49, 50, 58, 63, 64, 68, 72, 73}, {13, 46, 47}},
		"lighttpd": {{1, 3, 6, 13, 23, 25, 28, 31, 34, 36, 38, 39, 43, 48, 49, 51, 53, 59, 60, 62, 66},
			{15, 16, 17, 18, 21, 22, 37, 42, 46, 47, 56, 57, 58, 65, 69, 70}, {19, 20}},
		"redis": {{1, 3, 6, 12, 19, 40, 42, 44, 47, 49, 50, 52, 56},
			{15, 16, 17, 18, 20, 25, 26, 28, 29, 30, 32, 33, 34, 37, 39, 51, 53, 55, 57}, {31, 38, 54}},
		"postgres": {{5, 9, 12, 14, 16, 17, 19, 22, 24, 25, 27, 43, 45, 48, 51},
			{4, 7, 8, 26, 28, 29, 31, 32, 33, 34, 35, 36, 37, 40, 41}, {30, 38, 39, 54, 56}},
	}
	keys := func(m map[int]bool) []int {
		out := []int{}
		for k, v := range m {
			if v {
				out = append(out, k)
			}
		}
		sort.Ints(out)
		return out
	}
	for _, app := range apps.All() {
		inst, err := boot.App(app, boot.Options{Backend: "bytecode"})
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.ArmQuiesce(); err != nil {
			t.Fatal(err)
		}
		d := &workload.Driver{OS: inst.OS, M: inst.M, Port: app.Port,
			Gen: workload.ForProtocol(app.Protocol), Concurrency: 2, Seed: 1}
		d.Run(30)
		st := inst.RT.Stats()
		got := [3][]int{keys(st.GateSites), keys(st.EmbedSites), keys(st.BreakSites)}
		if !reflect.DeepEqual(got, want[app.Name]) {
			t.Errorf("%s: site sets (gate, embed, break) = %v, want %v", app.Name, got, want[app.Name])
		}
		for _, m := range []map[int]bool{st.GateSites, st.EmbedSites, st.BreakSites} {
			m[1000] = true
			for k := range m {
				if k != 1000 {
					delete(m, k)
					break
				}
			}
		}
		again := inst.RT.Stats()
		if got := [3][]int{keys(again.GateSites), keys(again.EmbedSites), keys(again.BreakSites)}; !reflect.DeepEqual(got, want[app.Name]) {
			t.Errorf("%s: mutating one Stats' site sets changed the next: %v", app.Name, got)
		}
	}
}
