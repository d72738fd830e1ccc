package fleet

import (
	"testing"

	"github.com/firestarter-go/firestarter/internal/obsv"
)

// BenchmarkFinish times a fleet's span assembly from finished span logs
// to the frozen stream: eight incarnation logs of 16k spans (two
// replicas, four incarnations each) are harvested, then Finish assembles
// them with the supervisors' and the balancer's logs and merges the
// stream by cycles.
func BenchmarkFinish(b *testing.B) {
	const incarnations, spans = 8, 16_000
	logs := make([]*obsv.SpanLog, incarnations)
	for i := range logs {
		logs[i] = &obsv.SpanLog{}
		for j := 0; j < spans; j++ {
			logs[i].Append(obsv.SpanEvent{Cycles: int64(8 * j), Thread: i, Trace: int64(j), Kind: obsv.SpanBegin})
		}
	}
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		f := New(Config{Replicas: 2}, nil)
		b.StartTimer()
		for i, l := range logs {
			f.harvests = append(f.harvests, obsv.Piece{
				Log: l, Clock: int64(i/2) * 100_000, Replica: i%2 + 1, Inc: i/2 + 1,
			})
		}
		f.Finish()
	}
}
