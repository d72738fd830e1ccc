package libsim

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/firestarter-go/firestarter/internal/mem"
)

func newHeapT(t *testing.T) *Heap {
	t.Helper()
	return newHeap(mem.NewSpace())
}

func TestHeapAlignment(t *testing.T) {
	h := newHeapT(t)
	for _, size := range []int64{1, 15, 16, 17, 100} {
		p := h.Alloc(size)
		if p%16 != 0 {
			t.Errorf("Alloc(%d) = %#x, not 16-aligned", size, p)
		}
	}
}

func TestHeapZeroSizeAlloc(t *testing.T) {
	h := newHeapT(t)
	p := h.Alloc(0)
	if p == 0 {
		t.Fatal("Alloc(0) failed; C malloc(0) returns a unique pointer")
	}
	q := h.Alloc(0)
	if q == p {
		t.Fatal("two zero-size allocations aliased")
	}
}

func TestHeapExhaustion(t *testing.T) {
	h := newHeapT(t)
	total := int64(mem.HeapLimit - mem.HeapBase)
	if p := h.Alloc(total + 1); p != 0 {
		t.Fatalf("oversized alloc succeeded: %#x", p)
	}
	// A sane allocation still works afterwards.
	if p := h.Alloc(64); p == 0 {
		t.Fatal("allocation after failed oversize request")
	}
}

func TestAllocAlignedValidation(t *testing.T) {
	h := newHeapT(t)
	if h.AllocAligned(3, 64) != 0 {
		t.Error("non-power-of-two alignment accepted")
	}
	if h.AllocAligned(0, 64) != 0 {
		t.Error("zero alignment accepted")
	}
	p := h.AllocAligned(1<<16, 64)
	if p == 0 || p%(1<<16) != 0 {
		t.Errorf("64 KiB alignment: %#x", p)
	}
}

// TestHeapNoOverlapProperty drives random alloc/free interleavings and
// checks the allocator's core invariants: live chunks never overlap,
// LiveBytes equals the sum of live chunk sizes, and double frees are
// rejected.
func TestHeapNoOverlapProperty(t *testing.T) {
	f := func(seed int64) bool {
		h := newHeap(mem.NewSpace())
		rng := rand.New(rand.NewSource(seed))
		live := map[int64]int64{} // addr → requested size
		for op := 0; op < 300; op++ {
			if rng.Intn(3) != 0 || len(live) == 0 {
				size := int64(rng.Intn(900) + 1)
				p := h.Alloc(size)
				if p == 0 {
					return false // heap exhausted far too early
				}
				// Overlap check against every live chunk (sizes are
				// rounded to 16 inside the allocator).
				rsize := (size + 15) &^ 15
				for q, qs := range live {
					qr := (qs + 15) &^ 15
					if p < q+qr && q < p+rsize {
						t.Logf("overlap: [%#x,+%d) vs [%#x,+%d)", p, rsize, q, qr)
						return false
					}
				}
				live[p] = size
			} else {
				// Free a random live chunk.
				for p := range live {
					if !h.Free(p) {
						t.Logf("free of live chunk %#x rejected", p)
						return false
					}
					if h.Free(p) {
						t.Logf("double free of %#x accepted", p)
						return false
					}
					delete(live, p)
					break
				}
			}
			var want int64
			for _, s := range live {
				want += (s + 15) &^ 15
			}
			if h.LiveBytes() != want {
				t.Logf("LiveBytes = %d, want %d", h.LiveBytes(), want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestHeapPeakTracking(t *testing.T) {
	h := newHeapT(t)
	a := h.Alloc(1000)
	b := h.Alloc(1000)
	h.Free(a)
	h.Free(b)
	if h.PeakBytes() < 2000 {
		t.Errorf("PeakBytes = %d, want >= 2000", h.PeakBytes())
	}
	if h.LiveBytes() != 0 {
		t.Errorf("LiveBytes = %d after freeing all", h.LiveBytes())
	}
	if h.AllocCount() != 2 {
		t.Errorf("AllocCount = %d", h.AllocCount())
	}
}

func TestReallocShrinkKeepsChunk(t *testing.T) {
	h := newHeapT(t)
	p := h.Alloc(256)
	q := h.Realloc(p, 64)
	if q != p {
		t.Errorf("shrinking realloc moved the chunk: %#x -> %#x", p, q)
	}
}

func TestReallocWild(t *testing.T) {
	h := newHeapT(t)
	if r := h.Realloc(0xdead0, 64); r != -1 {
		t.Errorf("wild realloc = %#x, want -1 (corruption)", r)
	}
}

func TestSizeOf(t *testing.T) {
	h := newHeapT(t)
	p := h.Alloc(100)
	if got := h.SizeOf(p); got != 112 { // rounded to 16
		t.Errorf("SizeOf = %d, want 112", got)
	}
	if h.SizeOf(p+16) != -1 {
		t.Error("interior pointer reported as chunk")
	}
}

// TestHeapAllocReturnsZeroedChunks checks that Alloc's scrub, which skips
// memory never mapped before, still returns every chunk zeroed: chunks
// are dirtied (and written past their end up to the mapped page end, as
// an overflow would), freed (as a rollback's compensation frees them)
// and re-taken from the free list, from brk and past aligned gaps.
func TestHeapAllocReturnsZeroedChunks(t *testing.T) {
	f := func(seed int64) bool {
		s := mem.NewSpace()
		h := newHeap(s)
		rng := rand.New(rand.NewSource(seed))
		var live []int64
		for op := 0; op < 200; op++ {
			switch r := rng.Intn(8); {
			case r < 4 || len(live) == 0:
				size := int64(1 + rng.Intn(3*mem.PageSize))
				var p int64
				if r == 0 {
					p = h.AllocAligned(int64(mem.PageSize), size)
				} else {
					p = h.Alloc(size)
				}
				if p == 0 {
					t.Logf("allocation of %d bytes failed", size)
					return false
				}
				got, err := s.ReadBytes(p, h.SizeOf(p))
				if err != nil || !bytes.Equal(got, make([]byte, len(got))) {
					t.Logf("op %d: chunk %#x (+%d) not zeroed (err %v)", op, p, h.SizeOf(p), err)
					return false
				}
				// Dirty the chunk and the rest of its last page.
				end := (p + h.SizeOf(p) + mem.PageSize - 1) &^ (mem.PageSize - 1)
				junk := make([]byte, end-p)
				rng.Read(junk)
				if err := s.WriteBytes(p, junk); err != nil {
					t.Logf("dirty %#x: %v", p, err)
					return false
				}
				live = append(live, p)
			default:
				i := rng.Intn(len(live))
				if !h.Free(live[i]) {
					t.Logf("free of live chunk %#x rejected", live[i])
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
