package bench

import (
	"errors"
	"sync/atomic"
	"testing"
)

// TestForEach covers the pool mechanics: order-independent completion,
// full coverage, and lowest-index error reporting.
func TestForEach(t *testing.T) {
	for _, par := range []int{0, 1, 3, 16} {
		r := Runner{Parallelism: par}
		const n = 37
		var ran [n]int32
		if err := r.forEach(n, func(i int) error {
			atomic.AddInt32(&ran[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		for i, c := range ran {
			if c != 1 {
				t.Fatalf("par=%d: job %d ran %d times", par, i, c)
			}
		}
	}

	// With workers, the reported error must be the lowest-indexed one —
	// what a serial run would have hit first.
	r := Runner{Parallelism: 4}
	errLow, errHigh := errors.New("low"), errors.New("high")
	err := r.forEach(20, func(i int) error {
		switch i {
		case 3:
			return errLow
		case 17:
			return errHigh
		}
		return nil
	})
	if err != errLow {
		t.Fatalf("err = %v, want the lowest-indexed error", err)
	}

	if err := r.forEach(0, func(int) error { t.Fatal("job ran for n=0"); return nil }); err != nil {
		t.Fatal(err)
	}
}
