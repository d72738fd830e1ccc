package boot_test

import (
	"testing"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/boot"
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
