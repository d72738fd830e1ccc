package main

import (
	"runtime"
	"sort"
	"time"
)

// The host this benchmark runs on is shared: its speed drifts with the
// neighbours' load, by up to ~2x within minutes, and memory-bound code like
// the simulator drifts most. Every host time the benchmark reports is
// therefore adjusted to a nominal host speed: it is multiplied by
// nominalReference over the time a fixed reference kernel took next to the
// measurement. The kernel is the benchmark's own code, so no change to the
// repository moves it; on a quiet host the adjustment is close to 1.
const nominalReference = 50 * time.Millisecond

// refNode is one cell of the kernel's pointer-chasing heap.
type refNode struct {
	next *refNode
	val  int64
	_    [6]int64 // one node per cache line
}

// refSink keeps the kernel's results live.
var refSink int64

// referenceTime runs the reference kernel from a collected heap and returns
// how long it took. The kernel mixes what the simulator spends its time on:
// map inserts with small allocations, a sort, and pointer chasing over a
// heap larger than the caches.
func referenceTime() time.Duration {
	runtime.GC()
	start := time.Now()

	m := make(map[int64][]byte)
	for i := int64(0); i < 100_000; i++ {
		m[i*7919%1_000_003] = make([]byte, 64+i%64)
	}
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	const n = 1 << 17
	nodes := make([]refNode, n)
	x := uint64(88172645463325252)
	for i := range nodes {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		nodes[i].val = int64(i)
		nodes[i].next = &nodes[x%n]
	}
	p, sum := &nodes[0], keys[len(keys)/2]
	for i := 0; i < 1_000_000; i++ {
		sum += p.val
		p = p.next
	}
	refSink = sum

	d := time.Since(start)
	runtime.GC()
	return d
}

// hostFactor converts seconds measured next to a reference run of ref into
// seconds at the nominal host speed.
func hostFactor(ref time.Duration) float64 {
	return float64(nominalReference) / float64(ref)
}
