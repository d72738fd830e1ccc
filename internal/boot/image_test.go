package boot_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/boot"
	"github.com/firestarter-go/firestarter/internal/core"
	"github.com/firestarter-go/firestarter/internal/htm"
	"github.com/firestarter-go/firestarter/internal/ir"
	"github.com/firestarter-go/firestarter/internal/workload"
)

// ran is everything a driven boot leaves behind that a shared image could
// perturb: the machine's counters, the recovery statistics and the final
// memory image.
type ran struct {
	steps, cycles int64
	stats         core.Stats
	digest        uint64
	completed     int
}

// drive boots img (or, with img nil, builds app afresh and boots that)
// and runs a fixed closed-loop workload against it.
func drive(img *boot.Image, app *apps.App, o boot.Options) (ran, error) {
	var inst *boot.Instance
	var err error
	if img != nil {
		inst, err = img.Boot(o)
	} else {
		inst, err = boot.App(app, o)
	}
	if err != nil {
		return ran{}, err
	}
	return driveInstance(inst, 30), nil
}

// driveInstance runs a fixed closed-loop workload of the given number of
// requests against a booted instance.
func driveInstance(inst *boot.Instance, requests int) ran {
	d := &workload.Driver{
		OS: inst.OS, M: inst.M, Port: inst.App.Port,
		Gen:         workload.ForProtocol(inst.App.Protocol),
		Concurrency: 2,
		Seed:        5,
	}
	res := d.Run(requests)
	out := ran{steps: inst.M.Steps, cycles: inst.M.Cycles, digest: inst.OS.Space.Digest(), completed: res.Completed}
	if inst.RT != nil {
		out.stats = inst.RT.Stats()
	}
	return out
}

// programKey renders everything a run could write into a shared program:
// its code, and its globals' layout and initial bytes.
func programKey(p *ir.Program) string {
	var sb strings.Builder
	sb.WriteString(p.Dump())
	for _, g := range p.Globals {
		fmt.Fprintf(&sb, "%s@%#x=%x\n", g.Name, g.Addr, g.Data)
	}
	return sb.String()
}

func modeConfig(mode core.Mode) core.Config {
	return core.Config{
		Mode:       mode,
		Threshold:  0.01,
		SampleSize: 4,
		HTM:        htm.Config{MeanInstrsPerInterrupt: 20_000, Seed: 7},
	}
}

// Booting from an image is booting: for every app, in every protection
// mode and on both backends, two boots from one image each match a fresh
// build-and-boot step for step, and the runs leave the image's program
// as they found it.
func TestImageBootEqualsFreshBoot(t *testing.T) {
	variants := []struct {
		name string
		o    boot.Options
	}{
		{"vanilla", boot.Options{Vanilla: true}},
		{"htm-only", boot.Options{Core: modeConfig(core.ModeHTMOnly)}},
		{"stm-only", boot.Options{Core: modeConfig(core.ModeSTMOnly)}},
		{"hybrid", boot.Options{Core: modeConfig(core.ModeHybrid)}},
	}
	for _, app := range append(apps.All(), apps.PoolApps()...) {
		for _, v := range variants {
			img, err := boot.Build(app, v.o)
			if err != nil {
				t.Fatalf("%s/%s: %v", app.Name, v.name, err)
			}
			before := programKey(img.Prog)
			for _, backend := range []string{"tree", "bytecode"} {
				name := fmt.Sprintf("%s/%s/%s", app.Name, v.name, backend)
				o := v.o
				o.Backend = backend
				fresh, err := drive(nil, app, o)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if fresh.completed == 0 {
					t.Fatalf("%s: no request completed", name)
				}
				for i := 0; i < 2; i++ {
					got, err := drive(img, app, o)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !reflect.DeepEqual(got, fresh) {
						t.Errorf("%s: boot %d from the image diverged from a fresh boot:\n  image %+v\n  fresh %+v",
							name, i+1, got, fresh)
					}
				}
			}
			if programKey(img.Prog) != before {
				t.Errorf("%s/%s: running instances changed the image's program", app.Name, v.name)
			}
		}
	}
}

// One image boots from many goroutines at once, on either backend (the
// first bytecode boots race to lower it), and every instance runs as if
// it were alone. Run under -race.
func TestImageSharedAcrossGoroutines(t *testing.T) {
	const goroutines = 4
	app := apps.Nginx()
	img, err := boot.Build(app, boot.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{"tree", "bytecode"} {
		o := boot.Options{Core: modeConfig(core.ModeHybrid), Backend: backend}
		runs := make([]ran, goroutines)
		errs := make([]error, goroutines)
		var wg sync.WaitGroup
		for g := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runs[g], errs[g] = drive(img, app, o)
			}()
		}
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Fatalf("%s: goroutine %d: %v", backend, g, err)
			}
		}
		for g := 1; g < goroutines; g++ {
			if !reflect.DeepEqual(runs[g], runs[0]) {
				t.Errorf("%s: goroutine %d diverged:\n  %+v\n  %+v", backend, g, runs[g], runs[0])
			}
		}
	}
}
