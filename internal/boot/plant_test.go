package boot_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/firestarter-go/firestarter/internal/analysis"
	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/boot"
	"github.com/firestarter-go/firestarter/internal/core"
	"github.com/firestarter-go/firestarter/internal/faultinj"
	"github.com/firestarter-go/firestarter/internal/interp"
	"github.com/firestarter-go/firestarter/internal/ir"
	"github.com/firestarter-go/firestarter/internal/transform"
)

// wholeBuild is the planted image the way it was built before Plant: a
// copy of the whole program with the fault planted, then hardened whole
// (unless vanilla) and linked. It returns the program and, when
// hardened, its transform.
func wholeBuild(t testing.TB, prog *ir.Program, f faultinj.Fault, vanilla bool) (*ir.Program, *transform.Result) {
	t.Helper()
	fp, err := faultinj.Apply(prog, f)
	if err != nil {
		t.Fatalf("%s: %v", f, err)
	}
	var tr *transform.Result
	if !vanilla {
		if tr, err = transform.Apply(fp, nil); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		fp = tr.Prog
	}
	if err := interp.Link(fp); err != nil {
		t.Fatalf("%s: %v", f, err)
	}
	return fp, tr
}

// bootWhole boots a whole-program build the way Image.Boot boots an
// image, on an OS set up as img's.
func bootWhole(img *boot.Image, prog *ir.Program, tr *transform.Result, o boot.Options) (*boot.Instance, error) {
	inst := &boot.Instance{App: img.App, OS: img.NewOS(), TR: tr}
	var err error
	if tr == nil {
		inst.M, err = interp.New(prog, inst.OS, nil)
	} else {
		inst.RT = core.New(tr, inst.OS, o.Core)
		inst.M, err = interp.New(prog, inst.OS, inst.RT)
	}
	if err != nil {
		return nil, err
	}
	if inst.RT != nil {
		inst.RT.Attach(inst.M)
	}
	return inst, nil
}

// siteKey is what a site's identity and role are made of.
type siteKey struct {
	ID, Gate, Block, Index int
	Func                   string
	Role                   analysis.Role
}

func siteKeys(res *analysis.Result) []siteKey {
	keys := make([]siteKey, len(res.Sites))
	for i, s := range res.Sites {
		keys[i] = siteKey{s.ID, s.Gate, s.Block, s.Index, s.Func, s.Role}
	}
	return keys
}

// owned counts the functions a planted program holds of its own.
func owned(p *ir.Program) int {
	n := 0
	for _, f := range p.Funcs {
		if p.Owns(f) {
			n++
		}
	}
	return n
}

// nonLocal are fail-stop faults whose planting changes the hardening of
// functions besides the faulted one (the truncated block held a library
// call or a checked call, so later site IDs or a callers-check flag
// move), with the number of functions the planted image re-hardens.
var nonLocal = []struct {
	app   string
	fault faultinj.Fault
	owned int
}{
	{"nginx", faultinj.Fault{Kind: faultinj.FailStop, Func: "handle_request"}, 10},
	{"postgres", faultinj.Fault{Kind: faultinj.FailStop, Func: "insert_row", Block: 9}, 9},
}

// plantDriveSteps bounds each driven boot of TestPlantMatchesWholeProgramBuild.
const plantDriveSteps = 500_000

// A planted image is the image a whole-program build of the planted
// program makes: for every app, fault kind and the fault plans of seeds
// 1-8, hardened and vanilla, the two dump alike, number and classify
// every site alike, and a boot of each, driven alike, ends in the same
// steps, cycles, recovery statistics (Table III's site sets among them)
// and memory. Planting leaves the base image as it was. Under -race
// only one fault per kind of seed 1's plans is planted: the matrix runs
// on one goroutine, and TestPlantSharedAcrossGoroutines is the race test.
func TestPlantMatchesWholeProgramBuild(t *testing.T) {
	kinds := []faultinj.Kind{faultinj.FailStop, faultinj.FlipBranch, faultinj.CorruptConst, faultinj.WrongOperator, faultinj.OffByOne}
	o := boot.Options{Core: modeConfig(core.ModeHybrid)}
	planted, nonLocalSeen := 0, 0
	for _, app := range apps.All() {
		prog, err := app.Compile()
		if err != nil {
			t.Fatal(err)
		}
		// Plans of different seeds share faults; plant each once. The
		// vanilla images take the plans of seed 1.
		var faults, vanillaFaults []faultinj.Fault
		seen := map[faultinj.Fault]bool{}
		add := func(f faultinj.Fault, seed int64) {
			f.ID = 0
			if !seen[f] {
				seen[f] = true
				faults = append(faults, f)
				if seed == 1 {
					vanillaFaults = append(vanillaFaults, f)
				}
			}
		}
		seeds, perKind := int64(8), 4
		if raceEnabled {
			seeds, perKind = 1, 1
		}
		for seed := int64(1); seed <= seeds; seed++ {
			profile, err := boot.Profile(app, prog, 20, 2, seed, "")
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range kinds {
				for _, f := range profile.Plan(kind, perKind, seed) {
					add(f, seed)
				}
			}
		}
		for _, c := range nonLocal {
			if c.app == app.Name {
				add(c.fault, 1)
			}
		}
		for _, vanilla := range []bool{false, true} {
			base, err := boot.BuildCompiled(app, prog, boot.Options{Vanilla: vanilla})
			if err != nil {
				t.Fatal(err)
			}
			before := programKey(base.Prog)
			list := faults
			if vanilla {
				list = vanillaFaults
			}
			for _, f := range list {
				name := fmt.Sprintf("%s/vanilla=%v/%s", app.Name, vanilla, f)
				img, err := base.Plant(f)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				wantProg, wantTR := wholeBuild(t, prog, f, vanilla)
				if img.Prog.Dump() != wantProg.Dump() {
					t.Fatalf("%s: planted program dumps differently from the whole-program build", name)
				}
				if img.Prog.NumSites != wantProg.NumSites {
					t.Errorf("%s: NumSites %d, want %d", name, img.Prog.NumSites, wantProg.NumSites)
				}
				if !vanilla {
					wantRes := wantTR.Analysis
					if got, want := siteKeys(img.TR.Analysis), siteKeys(wantRes); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: sites differ:\n  plant %v\n  whole %v", name, got, want)
					}
					g1, e1, b1 := img.TR.Analysis.Counts()
					g2, e2, b2 := wantRes.Counts()
					if g1 != g2 || e1 != e2 || b1 != b2 {
						t.Errorf("%s: site counts %d/%d/%d, want %d/%d/%d", name, g1, e1, b1, g2, e2, b2)
					}
					n := owned(img.Prog)
					if n > 1 {
						nonLocalSeen++
					}
					for _, c := range nonLocal {
						if c.app == app.Name && c.fault == f && n != c.owned {
							t.Errorf("%s: planted image re-hardens %d functions, want %d", name, n, c.owned)
						}
					}
				}
				inst, err := img.Boot(o)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				wantInst, err := bootWhole(img, wantProg, wantTR, o)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				// A fault that livelocks would run each drive to the
				// driver's stall limit; both stop at one step instead.
				inst.M.WatchSteps(plantDriveSteps, nil)
				wantInst.M.WatchSteps(plantDriveSteps, nil)
				got, want := driveInstance(inst, 8), driveInstance(wantInst, 8)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: planted image ran differently:\n  plant %+v\n  whole %+v", name, got, want)
				}
				planted++
			}
			if programKey(base.Prog) != before {
				t.Errorf("%s/vanilla=%v: planting changed the base image's program", app.Name, vanilla)
			}
		}
	}
	t.Logf("%d planted images, %d hardened ones re-harden more than the faulted function", planted, nonLocalSeen)
}

// Images planted into one base, on several goroutines at once, boot and
// run as if each were alone, on either backend, and leave the base as it
// was: planting, linking and lowering write nothing the base or another
// planted image shares. Run under -race.
func TestPlantSharedAcrossGoroutines(t *testing.T) {
	const goroutines = 4
	app := apps.Nginx()
	prog, err := app.Compile()
	if err != nil {
		t.Fatal(err)
	}
	profile, err := boot.Profile(app, prog, 20, 2, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	faults := append(profile.Plan(faultinj.FailStop, 2, 1), profile.Plan(faultinj.FlipBranch, 2, 1)...)
	faults = append(faults, nonLocal[0].fault)
	for _, vanilla := range []bool{false, true} {
		base, err := boot.BuildCompiled(app, prog, boot.Options{Vanilla: vanilla})
		if err != nil {
			t.Fatal(err)
		}
		before := programKey(base.Prog)
		for _, backend := range []string{"tree", "bytecode"} {
			o := boot.Options{Core: modeConfig(core.ModeHybrid), Backend: backend}
			runs := make([][]ran, goroutines)
			errs := make([]error, goroutines)
			var wg sync.WaitGroup
			for g := range runs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, f := range faults {
						img, err := base.Plant(f)
						if err != nil {
							errs[g] = err
							return
						}
						r, err := drive(img, app, o)
						if err != nil {
							errs[g] = err
							return
						}
						runs[g] = append(runs[g], r)
					}
				}()
			}
			wg.Wait()
			for g, err := range errs {
				if err != nil {
					t.Fatalf("vanilla=%v/%s: goroutine %d: %v", vanilla, backend, g, err)
				}
			}
			for g := 1; g < goroutines; g++ {
				if !reflect.DeepEqual(runs[g], runs[0]) {
					t.Errorf("vanilla=%v/%s: goroutine %d diverged:\n  %+v\n  %+v", vanilla, backend, g, runs[g], runs[0])
				}
			}
		}
		if programKey(base.Prog) != before {
			t.Errorf("vanilla=%v: planting changed the base image's program", vanilla)
		}
	}
}
