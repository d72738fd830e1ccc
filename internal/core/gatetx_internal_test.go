package core

import (
	"testing"

	"github.com/firestarter-go/firestarter/internal/libsim"
)

// BenchmarkGateTx times one protected region per strategy through the
// seam the interpreter drives at every gate: Gate → RegSave → TxBegin →
// gateTxStores program stores → TxEnd. The stores hit distinct cache
// sets, so the HTM write set stays within the L1 model and never aborts.
func BenchmarkGateTx(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"raw", Config{Mode: ModeHTMOnly}},
		{"htm", Config{Mode: ModeHybrid}},
		{"stm", Config{Mode: ModeSTMOnly}},
		{"domain", Config{Mode: ModeRewind}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rt, m := newLadderRuntime(b, bc.cfg)
			site := gateSite(b, rt)
			buf, err := rt.os.CallFunc(libsim.NoFunc, "malloc", []int64{gateTxStores * 64})
			if err != nil || buf == 0 {
				b.Fatalf("malloc: %#x %v", buf, err)
			}
			snap := m.Snapshot()
			raw := bc.cfg.Mode == ModeHTMOnly
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if raw {
					// The state an HTM abort leaves in HTM-only mode.
					rt.state(site).retry = stratRaw
				}
				variant, _, _ := rt.Gate(m, site, snap)
				rt.RegSave(m)
				if err := rt.TxBegin(m, site, variant); err != nil {
					b.Fatal(err)
				}
				for j := int64(0); j < gateTxStores; j++ {
					if err := rt.Store(m, buf+j*64, j, 8, false); err != nil {
						b.Fatal(err)
					}
				}
				if err := rt.TxEnd(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// gateTxStores is the number of program stores per region in
// BenchmarkGateTx.
const gateTxStores = 16
