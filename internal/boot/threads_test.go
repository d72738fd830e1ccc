package boot_test

import (
	"testing"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/boot"
	"github.com/firestarter-go/firestarter/internal/core"
	"github.com/firestarter-go/firestarter/internal/htm"
	"github.com/firestarter-go/firestarter/internal/sched"
	"github.com/firestarter-go/firestarter/internal/workload"
)

// A program that calls thread_create boots under the scheduler, with one
// recovery runtime per thread joined through one conflict domain; a
// single-threaded one boots as a lone machine.
func TestThreadedBoot(t *testing.T) {
	app := apps.NginxMT(4)
	img, err := boot.Build(app, boot.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := img.Boot(boot.Options{Core: core.Config{
		Mode:       core.ModeHybrid,
		Threshold:  0.25,
		SampleSize: 256,
		HTM:        htm.Config{MeanInstrsPerInterrupt: 250_000, Seed: 3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Sched == nil {
		t.Fatal("hardened nginx-mt booted without a scheduler")
	}
	res := inst.Drive(workload.Schedule{Kind: workload.ClosedLoop, Proto: app.Protocol, Seed: 1, Requests: 100, Concurrency: 8})
	if res.Completed == 0 || res.ServerDied || res.Stalled {
		t.Fatalf("drive: %+v", res)
	}
	threads := inst.Sched.Threads()
	if len(threads) != 5 {
		t.Fatalf("%d threads, want main plus 4 workers", len(threads))
	}
	seen := map[*core.Runtime]bool{}
	var confl int64
	for _, th := range threads {
		rt, ok := th.RT.(*core.Runtime)
		if !ok || seen[rt] {
			t.Fatalf("thread %d: runtime %T is not a recovery runtime of its own", th.ID, th.RT)
		}
		seen[rt] = true
		confl += rt.HTMStats().ByConfl
	}
	if threads[0].RT != inst.RT || threads[0].M != inst.M {
		t.Error("the main thread is not the instance's machine and runtime")
	}
	if confl == 0 {
		t.Error("no conflict aborts across the threads")
	}

	vanillaMT, err := boot.App(apps.NginxMT(2), boot.Options{Vanilla: true})
	if err != nil {
		t.Fatal(err)
	}
	if vanillaMT.Sched == nil {
		t.Fatal("vanilla nginx-mt booted without a scheduler")
	}
	if res := vanillaMT.Drive(workload.Schedule{Kind: workload.ClosedLoop, Proto: "http", Seed: 1, Requests: 20}); res.Completed != 20 {
		t.Errorf("vanilla drive: %+v", res)
	}

	for _, vanilla := range []bool{false, true} {
		single, err := boot.App(apps.Nginx(), boot.Options{Vanilla: vanilla})
		if err != nil {
			t.Fatal(err)
		}
		if single.Sched != nil {
			t.Errorf("nginx (vanilla=%v) booted with a scheduler", vanilla)
		}
		if !vanilla {
			continue
		}
		// A vanilla single-threaded machine runs interp.Direct.
		if _, err := sched.New(single.M, nil, sched.Options{}); err == nil {
			t.Error("sched.New accepted a machine whose runtime is not a ThreadRuntime")
		}
	}
}
