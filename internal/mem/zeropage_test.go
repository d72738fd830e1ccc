package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// eagerMap is the reference Map: every page it maps gets storage of its
// own at once, as every page did before pages shared zeroPage. A space
// mapped only through it never reaches the shared-page branches of the
// write paths, so it is the eager semantics the sharing must reproduce.
func eagerMap(s *Space, addr, size int64) error {
	if err := s.Map(addr, size); err != nil {
		return err
	}
	for idx, p := range s.pages {
		if p == &zeroPage {
			s.pages[idx] = new([PageSize]byte)
		}
	}
	return nil
}

// errText renders an error for comparison ("" for nil).
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// zeroPageWindow is the pages the property test plays in: few enough
// that maps, unmaps, stores and loads keep meeting each other.
const zeroPageWindow = 12

// Random Map/Unmap/Store/StoreRange/WriteBytes/Load/ReadBytes sequences,
// with protection domains on and off, behave the same on a space whose
// pages share zeroPage as on one that allocates every page eagerly: equal
// loads, reads and errors, equal page accounting and digest after every
// step, and zeroPage itself is never written.
func TestZeroPageMatchesEagerPages(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		domains := seed%2 == 0
		t.Run(fmt.Sprintf("seed%d/domains=%v", seed, domains), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			lazy, ref := NewSpace(), NewSpace()
			if domains {
				lazy.EnableDomains()
				ref.EnableDomains()
			}
			addr := func() int64 {
				if rng.Intn(40) == 0 {
					return -int64(rng.Intn(16)) - 1
				}
				a := HeapBase + rng.Int63n(zeroPageWindow*PageSize)
				if rng.Intn(3) == 0 { // near a page end, to straddle
					a = a&^(PageSize-1) + PageSize - int64(rng.Intn(12))
				}
				return a
			}
			data := func() []byte {
				b := make([]byte, rng.Intn(3*PageSize/2))
				if rng.Intn(2) == 0 {
					rng.Read(b)
				}
				return b
			}
			for step := 0; step < 150; step++ {
				var what string
				var got, want string
				switch op := rng.Intn(12); {
				case op < 2:
					a, n := addr(), int64(1+rng.Intn(3*PageSize))
					what = fmt.Sprintf("Map(%#x, %d)", a, n)
					got, want = errText(lazy.Map(a, n)), errText(eagerMap(ref, a, n))
				case op < 3:
					a, n := addr(), int64(1+rng.Intn(3*PageSize))
					what = fmt.Sprintf("Unmap(%#x, %d)", a, n)
					got, want = errText(lazy.Unmap(a, n)), errText(ref.Unmap(a, n))
				case op < 6:
					a, v, w := addr(), rng.Int63(), []int{1, 2, 4, 8, 3}[rng.Intn(5)]
					what = fmt.Sprintf("Store(%#x, %#x, %d)", a, v, w)
					got, want = errText(lazy.Store(a, v, w)), errText(ref.Store(a, v, w))
				case op < 7:
					a, b := addr(), data()
					what = fmt.Sprintf("StoreRange(%#x, %d bytes)", a, len(b))
					n1, e1 := lazy.StoreRange(a, b)
					n2, e2 := ref.StoreRange(a, b)
					got, want = fmt.Sprint(n1, errText(e1)), fmt.Sprint(n2, errText(e2))
				case op < 8:
					a, b := addr(), data()
					what = fmt.Sprintf("WriteBytes(%#x, %d bytes)", a, len(b))
					got, want = errText(lazy.WriteBytes(a, b)), errText(ref.WriteBytes(a, b))
				case op < 10:
					a, w := addr(), []int{1, 2, 4, 8}[rng.Intn(4)]
					what = fmt.Sprintf("Load(%#x, %d)", a, w)
					v1, e1 := lazy.Load(a, w)
					v2, e2 := ref.Load(a, w)
					got, want = fmt.Sprint(v1, errText(e1)), fmt.Sprint(v2, errText(e2))
				case op < 11:
					a, n := addr(), int64(rng.Intn(2*PageSize))
					what = fmt.Sprintf("ReadBytes(%#x, %d)", a, n)
					b1, e1 := lazy.ReadBytes(a, n)
					b2, e2 := ref.ReadBytes(a, n)
					got, want = errText(e1), errText(e2)
					if !bytes.Equal(b1, b2) {
						got += " (bytes differ)"
					}
				default:
					if !domains {
						continue
					}
					a, n, d := addr(), int64(1+rng.Intn(PageSize)), int32(rng.Intn(3))
					what = fmt.Sprintf("TagDomain(%#x, %d, %d) + SetDomain", a, n, d)
					got, want = errText(lazy.TagDomain(a, n, d)), errText(ref.TagDomain(a, n, d))
					cur := int32(rng.Intn(3))
					lazy.SetDomain(cur)
					ref.SetDomain(cur)
				}
				if got != want {
					t.Fatalf("step %d %s: shared pages %q, eager pages %q", step, what, got, want)
				}
				if lazy.MappedPages() != ref.MappedPages() || lazy.PeakPages() != ref.PeakPages() || lazy.RSS() != ref.RSS() {
					t.Fatalf("step %d %s: pages %d/%d/%d, eager %d/%d/%d", step, what,
						lazy.MappedPages(), lazy.PeakPages(), lazy.RSS(), ref.MappedPages(), ref.PeakPages(), ref.RSS())
				}
				if lazy.Digest() != ref.Digest() {
					t.Fatalf("step %d %s: digest differs from eager pages", step, what)
				}
			}
		})
	}
	if zeroPage != [PageSize]byte{} {
		t.Fatal("the shared zero page was written")
	}
}

// Mapping the machine's 512 KiB stack allocates no page storage: its
// allocations are those of the page map's entries alone.
func TestMapAllocatesNoPages(t *testing.T) {
	const stackBytes = 512 * 1024
	const pages = stackBytes / PageSize
	entries := testing.AllocsPerRun(20, func() {
		m := make(map[int64]*[PageSize]byte)
		for p := int64(0); p < pages; p++ {
			m[p] = &zeroPage
		}
	})
	got := testing.AllocsPerRun(20, func() {
		s := NewSpace()
		if err := s.Map(StackTop-stackBytes, stackBytes); err != nil {
			t.Fatal(err)
		}
	})
	if got > entries+1 { // +1: the Space itself
		t.Fatalf("Map of %d pages: %.0f allocations, want at most %.0f (the page map's entries)", pages, got, entries+1)
	}
	s := NewSpace()
	if err := s.Map(StackTop-stackBytes, stackBytes); err != nil {
		t.Fatal(err)
	}
	if err := s.Store(StackTop-8, 1, 8); err != nil {
		t.Fatal(err)
	}
	private := 0
	for _, p := range s.pages {
		if p != &zeroPage {
			private++
		}
	}
	if s.MappedPages() != pages || private != 1 {
		t.Fatalf("after one store: %d pages mapped, %d with storage; want %d and 1", s.MappedPages(), private, pages)
	}
}
