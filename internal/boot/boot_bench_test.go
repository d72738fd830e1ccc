package boot_test

import (
	"testing"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/boot"
	"github.com/firestarter-go/firestarter/internal/faultinj"
)

// BenchmarkBoot times booting a hardened nginx image, as every
// microreboot, fleet replica and campaign run does: Image.Boot alone
// (OS and setup, runtime, machine with its stack and globals mapped),
// and Image.Boot run on to the quiesce point (the startup code's stores
// included). Read B/op: a boot's host memory is what its guest writes.
func BenchmarkBoot(b *testing.B) {
	img, err := boot.Build(apps.Nginx(), boot.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("image", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := img.Boot(boot.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("quiesced", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			inst, err := img.Boot(boot.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if err := inst.ArmQuiesce(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPlant times deriving a planted hardened nginx image, as every
// fault campaign run does, for one fail-stop fault whose planting changes
// only the faulted function: Image.Plant into the built image ("plant"),
// against the whole-program build a planted image took before it
// ("whole": a copy of the program with the fault planted, hardened whole
// and linked). Read B/op.
func BenchmarkPlant(b *testing.B) {
	app := apps.Nginx()
	prog, err := app.Compile()
	if err != nil {
		b.Fatal(err)
	}
	fault := faultinj.Fault{ID: 1, Kind: faultinj.FailStop, Func: "serve_ssi", Block: 8, Index: 4}
	base, err := boot.BuildCompiled(app, prog, boot.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("plant", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := base.Plant(fault); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("whole", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			wholeBuild(b, prog, fault, false)
		}
	})
}
