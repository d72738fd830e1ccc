package boot_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/boot"
	"github.com/firestarter-go/firestarter/internal/interp"
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
