package libsim

import (
	"sort"

	"github.com/firestarter-go/firestarter/internal/mem"
)

// Heap is a first-fit, address-ordered free-list allocator over the
// simulated heap segment. Chunk metadata lives Go-side (the simulated
// program cannot corrupt it, matching a hardened allocator); freeing an
// address the allocator never handed out reports heap corruption, which
// the interpreter converts into a fail-stop crash.
type Heap struct {
	space *mem.Space
	brk   int64 // next never-used address
	// mapEnd is the end of the highest heap page ever mapped. Memory
	// at or above it has never been mapped, so it still reads as zero
	// (mem's shared zero page) and needs no scrub. It only grows:
	// frees, compensation and rollback never unmap a heap page.
	mapEnd int64
	live   map[int64]int64
	free   []span // address-ordered

	// accounting
	liveBytes  int64
	peakBytes  int64
	allocCount int64
	failNext   *int64 // points at OS.OOMAfter
}

type span struct {
	addr, size int64
}

const heapAlign = 16

// zeroPage is the scrub source for recycled chunks: writing from a shared
// static buffer page by page avoids allocating a size-length zero slice on
// every guest malloc.
var zeroPage [mem.PageSize]byte

// scrub zeroes [addr, addr+size) in the space.
func (h *Heap) scrub(addr, size int64) error {
	for size > 0 {
		n := size
		if n > mem.PageSize {
			n = mem.PageSize
		}
		if err := h.space.WriteBytes(addr, zeroPage[:n]); err != nil {
			return err
		}
		addr += n
		size -= n
	}
	return nil
}

func newHeap(space *mem.Space) *Heap {
	return &Heap{
		space:  space,
		brk:    mem.HeapBase,
		mapEnd: mem.HeapBase,
		live:   make(map[int64]int64),
	}
}

// LiveBytes returns currently allocated bytes.
func (h *Heap) LiveBytes() int64 { return h.liveBytes }

// PeakBytes returns the allocation high-water mark.
func (h *Heap) PeakBytes() int64 { return h.peakBytes }

// AllocCount returns the number of successful allocations.
func (h *Heap) AllocCount() int64 { return h.allocCount }

// SizeOf returns the size of a live allocation, or -1 if addr is not a
// live chunk start.
func (h *Heap) SizeOf(addr int64) int64 {
	if sz, ok := h.live[addr]; ok {
		return sz
	}
	return -1
}

func align(n int64) int64 {
	return (n + heapAlign - 1) &^ (heapAlign - 1)
}

// Alloc returns the address of a fresh chunk of at least size bytes, or 0
// if the heap is exhausted (ENOMEM). Returned memory is zeroed, so calloc
// and malloc coincide (fresh pages are zero and recycled chunks are
// scrubbed here — a deliberate simplification, noted in DESIGN.md).
func (h *Heap) Alloc(size int64) int64 {
	if size <= 0 {
		size = heapAlign
	}
	size = align(size)
	addr := h.take(size)
	if addr == 0 {
		return 0
	}
	mapped := h.mapEnd
	if err := h.mapChunk(addr, size); err != nil {
		return 0
	}
	// Scrub the part of the chunk that was mapped before, which a past
	// owner (or an overflow from a neighbour) may have written, so
	// allocations are deterministic.
	if addr < mapped {
		if err := h.scrub(addr, min(size, mapped-addr)); err != nil {
			return 0
		}
	}
	h.live[addr] = size
	h.liveBytes += size
	if h.liveBytes > h.peakBytes {
		h.peakBytes = h.liveBytes
	}
	h.allocCount++
	return addr
}

// AllocAligned allocates with the given power-of-two alignment
// (posix_memalign). Returns 0 on exhaustion or bad alignment.
func (h *Heap) AllocAligned(alignment, size int64) int64 {
	if alignment <= 0 || alignment&(alignment-1) != 0 {
		return 0
	}
	if alignment <= heapAlign {
		return h.Alloc(size)
	}
	// Allocate from the bump region, rounded up to the alignment.
	aligned := (h.brk + alignment - 1) &^ (alignment - 1)
	end := aligned + align(size)
	if end > mem.HeapLimit {
		return 0
	}
	h.brk = end
	if err := h.mapChunk(aligned, align(size)); err != nil {
		return 0
	}
	h.live[aligned] = align(size)
	h.liveBytes += align(size)
	if h.liveBytes > h.peakBytes {
		h.peakBytes = h.liveBytes
	}
	h.allocCount++
	return aligned
}

// mapChunk maps the pages covering a chunk about to be handed out and
// raises mapEnd past them.
func (h *Heap) mapChunk(addr, size int64) error {
	if err := h.space.Map(addr, size); err != nil {
		return err
	}
	if end := (addr + size + mem.PageSize - 1) &^ (mem.PageSize - 1); end > h.mapEnd {
		h.mapEnd = end
	}
	return nil
}

// take finds space in the free list or bumps brk.
func (h *Heap) take(size int64) int64 {
	for i, s := range h.free {
		if s.size >= size {
			addr := s.addr
			if s.size == size {
				h.free = append(h.free[:i], h.free[i+1:]...)
			} else {
				h.free[i] = span{addr: s.addr + size, size: s.size - size}
			}
			return addr
		}
	}
	if h.brk+size > mem.HeapLimit {
		return 0
	}
	addr := h.brk
	h.brk += size
	return addr
}

// Free releases a chunk. It reports false for a pointer that is not a live
// chunk start (double free / wild free), which callers treat as heap
// corruption — a fail-stop crash.
func (h *Heap) Free(addr int64) bool {
	size, ok := h.live[addr]
	if !ok {
		return false
	}
	delete(h.live, addr)
	h.liveBytes -= size
	h.insertFree(span{addr: addr, size: size})
	return true
}

func (h *Heap) insertFree(s span) {
	i := sort.Search(len(h.free), func(i int) bool { return h.free[i].addr >= s.addr })
	h.free = append(h.free, span{})
	copy(h.free[i+1:], h.free[i:])
	h.free[i] = s
	// Coalesce with neighbours.
	if i+1 < len(h.free) && h.free[i].addr+h.free[i].size == h.free[i+1].addr {
		h.free[i].size += h.free[i+1].size
		h.free = append(h.free[:i+1], h.free[i+2:]...)
	}
	if i > 0 && h.free[i-1].addr+h.free[i-1].size == h.free[i].addr {
		h.free[i-1].size += h.free[i].size
		h.free = append(h.free[:i], h.free[i+1:]...)
	}
}

// Realloc grows or shrinks a chunk, copying the payload. Returns the new
// address, 0 on exhaustion, or -1 for a wild pointer.
func (h *Heap) Realloc(addr, size int64) int64 {
	if addr == 0 {
		return h.Alloc(size)
	}
	old, ok := h.live[addr]
	if !ok {
		return -1
	}
	size = align(size)
	if size <= old {
		return addr
	}
	naddr := h.Alloc(size)
	if naddr == 0 {
		return 0
	}
	data, err := h.space.ReadBytes(addr, old)
	if err != nil {
		return 0
	}
	if err := h.space.WriteBytes(naddr, data); err != nil {
		return 0
	}
	h.Free(addr)
	return naddr
}

// FreeListLen returns the number of free spans (for tests of coalescing).
func (h *Heap) FreeListLen() int { return len(h.free) }
