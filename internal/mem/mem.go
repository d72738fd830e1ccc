// Package mem implements the simulated 64-bit address space that protected
// programs execute against.
//
// The space is paged (4 KiB pages) and sparse: Map makes pages accessible
// and any access to an unmapped page raises ErrUnmapped, which the
// interpreter converts into a fail-stop crash (the SIGSEGV of the paper's
// fault model). A freshly mapped page shares one never-written zero page and
// gets storage of its own at its first store, so a mapping costs the host
// only what the guest writes into it; every count the guest can see
// (MappedPages, PeakPages, RSS, Digest) is of mapped pages.
// Three conventional segments are laid out by Layout: globals, a heap
// managed by the allocator in package libsim, and a downward-growing stack.
//
// The address space also keeps the resident-set accounting used by the
// Fig. 9 memory-overhead experiment.
package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// PageSize is the size of a simulated page in bytes.
const PageSize = 4096

// Conventional segment base addresses. Address 0 is never mapped so null
// dereferences always trap.
const (
	GlobalBase = 0x0001_0000
	HeapBase   = 0x1000_0000
	HeapLimit  = 0x5000_0000
	StackTop   = 0x7fff_f000 // stack grows down from here
	StackLimit = 0x7ff0_0000 // lowest mappable stack address
)

// ErrUnmapped is returned for any access touching an unmapped page. The
// interpreter turns it into a fail-stop trap.
var ErrUnmapped = errors.New("mem: access to unmapped address")

// ErrBadRange is returned for zero/negative-length or overflowing ranges.
var ErrBadRange = errors.New("mem: invalid address range")

// AccessError describes a faulting access; it wraps ErrUnmapped so callers
// can match with errors.Is while still recovering the faulting address.
type AccessError struct {
	Addr  int64
	Width int
	Write bool
}

// Error implements error.
func (e *AccessError) Error() string {
	kind := "read"
	if e.Write {
		kind = "write"
	}
	return fmt.Sprintf("mem: %s of %d bytes at unmapped address %#x", kind, e.Width, e.Addr)
}

// Unwrap makes errors.Is(err, ErrUnmapped) hold.
func (e *AccessError) Unwrap() error { return ErrUnmapped }

// Space is a sparse paged address space. The zero value is ready to use.
// Space is not safe for concurrent use; the simulation is single-threaded,
// matching the paper's fault model (§VII defers multithreading).
type Space struct {
	// pages maps each mapped page index to its storage: &zeroPage until
	// the page's first store (see writable), then a page of its own.
	pages map[int64]*[PageSize]byte

	// tlb is a small direct-mapped translation cache in front of the
	// page map: interpreter memory traffic alternates between a handful
	// of pages (stack, heap object, globals), so most accesses skip the
	// map lookup entirely. An entry may point at zeroPage, which every
	// write path checks before it writes. Entries are invalidated on
	// Unmap and repointed when a store gives a page its own storage
	// (writable); Map only adds pages, which cannot stale an entry.
	tlb [tlbSize]tlbEntry

	// peakPages tracks the high-water mark of mapped pages for RSS
	// accounting (Fig. 9).
	peakPages int

	// Protection domains (see domain.go). domOn gates every check so a
	// space that never calls EnableDomains pays one predictable branch
	// per access and no map lookups.
	domOn   bool
	curDom  int32
	pageDom map[int64]int32
}

// tlbSize must be a power of two.
const tlbSize = 8

type tlbEntry struct {
	page *[PageSize]byte // nil = invalid
	idx  int64
}

// lookup translates a page index, consulting the cache first.
func (s *Space) lookup(pageIdx int64) *[PageSize]byte {
	e := &s.tlb[pageIdx&(tlbSize-1)]
	if e.page != nil && e.idx == pageIdx {
		return e.page
	}
	p, ok := s.pages[pageIdx]
	if !ok {
		return nil
	}
	e.page, e.idx = p, pageIdx
	return p
}

// zeroPage backs every mapped page that has not been stored to. It is
// never written: each write path swaps it for a private page first.
var zeroPage [PageSize]byte

// writable gives page idx, which maps zeroPage, storage of its own and
// points the translation cache at it. The new page is zero, as the
// shared one is.
func (s *Space) writable(idx int64) *[PageSize]byte {
	p := new([PageSize]byte)
	s.pages[idx] = p
	s.tlb[idx&(tlbSize-1)] = tlbEntry{page: p, idx: idx}
	return p
}

// NewSpace returns an empty address space.
func NewSpace() *Space {
	return &Space{pages: make(map[int64]*[PageSize]byte)}
}

// Map maps all pages covering [addr, addr+size), each reading as zero and
// sharing zeroPage until its first store. Already-mapped pages are left
// untouched. size must be positive.
func (s *Space) Map(addr, size int64) error {
	if size <= 0 || addr < 0 || addr+size < addr {
		return fmt.Errorf("%w: map [%#x, +%d)", ErrBadRange, addr, size)
	}
	if s.pages == nil {
		s.pages = make(map[int64]*[PageSize]byte)
	}
	first := addr / PageSize
	last := (addr + size - 1) / PageSize
	for p := first; p <= last; p++ {
		if _, ok := s.pages[p]; !ok {
			s.pages[p] = &zeroPage
		}
	}
	if len(s.pages) > s.peakPages {
		s.peakPages = len(s.pages)
	}
	return nil
}

// Unmap removes all pages fully contained in [addr, addr+size). Partial
// pages at the edges are kept mapped (mirroring munmap page rounding).
func (s *Space) Unmap(addr, size int64) error {
	if size <= 0 || addr < 0 || addr+size < addr {
		return fmt.Errorf("%w: unmap [%#x, +%d)", ErrBadRange, addr, size)
	}
	first := (addr + PageSize - 1) / PageSize
	last := (addr + size) / PageSize // exclusive
	for p := first; p < last; p++ {
		delete(s.pages, p)
		e := &s.tlb[p&(tlbSize-1)]
		if e.page != nil && e.idx == p {
			*e = tlbEntry{}
		}
		if s.pageDom != nil {
			delete(s.pageDom, p)
		}
	}
	return nil
}

// Mapped reports whether every byte of [addr, addr+size) is mapped.
func (s *Space) Mapped(addr, size int64) bool {
	if size <= 0 || addr < 0 || addr+size < addr {
		return false
	}
	first := addr / PageSize
	last := (addr + size - 1) / PageSize
	for p := first; p <= last; p++ {
		if s.lookup(p) == nil {
			return false
		}
	}
	return true
}

// MappedPages returns the number of currently mapped pages.
func (s *Space) MappedPages() int { return len(s.pages) }

// PeakPages returns the high-water mark of mapped pages.
func (s *Space) PeakPages() int { return s.peakPages }

// RSS returns the current resident set size in bytes.
func (s *Space) RSS() int64 { return int64(len(s.pages)) * PageSize }

// Digest returns an FNV-1a hash over the mapped pages — indices in
// sorted order, then contents — identifying the guest-visible memory
// image. Domain tags and the translation cache are excluded: two spaces
// holding the same bytes at the same addresses digest equal. Read-only;
// used by the record/replay layer to compare checkpointed states.
func (s *Space) Digest() uint64 {
	idx := make([]int64, 0, len(s.pages))
	for k := range s.pages {
		idx = append(idx, k)
	}
	sort.Slice(idx, func(i, j int) bool { return idx[i] < idx[j] })
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, k := range idx {
		u := uint64(k)
		for i := 0; i < 8; i++ {
			h = (h ^ (u>>(8*i))&0xff) * prime
		}
		pg := s.pages[k]
		for _, b := range pg {
			h = (h ^ uint64(b)) * prime
		}
	}
	return h
}

// Load reads width (1, 2, 4 or 8) bytes at addr, zero-extending to int64.
func (s *Space) Load(addr int64, width int) (int64, error) {
	// Fast path: the access sits inside a single page, which is every
	// access except the rare page-straddling one (scalars are at most
	// 8 bytes).
	if off := addr % PageSize; addr >= 0 && off <= PageSize-int64(width) {
		page := s.lookup(addr / PageSize)
		if page == nil {
			return 0, &AccessError{Addr: addr, Width: width}
		}
		if s.domOn {
			if d, deny := s.domDeny(addr / PageSize); deny {
				return 0, &DomainError{Addr: addr, Width: width, Dom: d, Cur: s.curDom}
			}
		}
		switch width {
		case 1:
			return int64(page[off]), nil
		case 2:
			return int64(binary.LittleEndian.Uint16(page[off : off+2])), nil
		case 4:
			return int64(binary.LittleEndian.Uint32(page[off : off+4])), nil
		case 8:
			return int64(binary.LittleEndian.Uint64(page[off : off+8])), nil
		default:
			return 0, fmt.Errorf("%w: load width %d", ErrBadRange, width)
		}
	}
	var buf [8]byte
	switch width {
	case 1, 2, 4, 8:
	default:
		return 0, fmt.Errorf("%w: load width %d", ErrBadRange, width)
	}
	if s.domOn && addr >= 0 {
		if err := s.domCheckRange(addr, width, false); err != nil {
			return 0, err
		}
	}
	if err := s.read(addr, buf[:width]); err != nil {
		return 0, &AccessError{Addr: addr, Width: width}
	}
	return int64(binary.LittleEndian.Uint64(buf[:8])), nil
}

// Store writes the low width bytes of val at addr.
func (s *Space) Store(addr int64, val int64, width int) error {
	switch width {
	case 1, 2, 4, 8:
	default:
		return fmt.Errorf("%w: store width %d", ErrBadRange, width)
	}
	// Fast path: single-page access (see Load).
	if off := addr % PageSize; addr >= 0 && off <= PageSize-int64(width) {
		idx := addr / PageSize
		page := s.lookup(idx)
		if page == nil {
			return &AccessError{Addr: addr, Width: width, Write: true}
		}
		if s.domOn {
			if d, deny := s.domDeny(idx); deny {
				return &DomainError{Addr: addr, Width: width, Write: true, Dom: d, Cur: s.curDom}
			}
		}
		if page == &zeroPage {
			page = s.writable(idx)
		}
		switch width {
		case 1:
			page[off] = byte(val)
		case 2:
			binary.LittleEndian.PutUint16(page[off:off+2], uint16(val))
		case 4:
			binary.LittleEndian.PutUint32(page[off:off+4], uint32(val))
		case 8:
			binary.LittleEndian.PutUint64(page[off:off+8], uint64(val))
		}
		return nil
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(val))
	if s.domOn && addr >= 0 {
		if err := s.domCheckRange(addr, width, true); err != nil {
			return err
		}
	}
	if err := s.write(addr, buf[:width]); err != nil {
		return &AccessError{Addr: addr, Width: width, Write: true}
	}
	return nil
}

// StoreRange writes data at addr as the library's store units (see
// StoreUnits) and returns how many units it attempted. When the whole
// range is mapped and domains are off it copies once per page; otherwise
// it runs the per-unit loop, which faults at the exact unit.
func (s *Space) StoreRange(addr int64, data []byte) (int, error) {
	if s.domOn || !s.Mapped(addr, int64(len(data))) {
		return StoreUnits(addr, data, s.Store)
	}
	s.write(addr, data) // cannot fail: every page is mapped
	return Units(len(data)), nil
}

// StoreUnits is the library's per-unit store loop and the reference every
// range store must match: data is written at addr as 8-byte words from
// addr, then single bytes for the tail, each through store, stopping at
// the first error. It returns how many units it attempted, the failing
// one included. The range fast paths of mem, htm and stm fall back to it
// in every case they do not prove equal to it (an unmapped or
// domain-checked page, a doomed, finished or conflict-domain transaction).
func StoreUnits(addr int64, data []byte, store func(addr, val int64, width int) error) (int, error) {
	units := 0
	i := 0
	for ; i+8 <= len(data); i += 8 {
		units++
		if err := store(addr+int64(i), int64(binary.LittleEndian.Uint64(data[i:])), 8); err != nil {
			return units, err
		}
	}
	for ; i < len(data); i++ {
		units++
		if err := store(addr+int64(i), int64(data[i]), 1); err != nil {
			return units, err
		}
	}
	return units, nil
}

// Units returns how many store units an n-byte range decomposes into.
func Units(n int) int { return n/8 + n%8 }

// UnitAt returns the index of the store unit holding byte off of an
// n-byte range.
func UnitAt(off, n int) int {
	if words := n / 8; off < words*8 {
		return off / 8
	}
	return n/8 + off%8
}

// ReadBytes copies size bytes starting at addr into a fresh slice.
func (s *Space) ReadBytes(addr, size int64) ([]byte, error) {
	if size < 0 {
		return nil, fmt.Errorf("%w: read %d bytes", ErrBadRange, size)
	}
	out := make([]byte, size)
	if err := s.read(addr, out); err != nil {
		return nil, &AccessError{Addr: addr, Width: int(size)}
	}
	return out, nil
}

// ReadInto copies len(dst) bytes starting at addr into dst. It is the
// allocation-free variant of ReadBytes for callers that reuse a buffer.
func (s *Space) ReadInto(addr int64, dst []byte) error {
	if err := s.read(addr, dst); err != nil {
		return &AccessError{Addr: addr, Width: len(dst)}
	}
	return nil
}

// WriteBytes copies data into the space starting at addr.
func (s *Space) WriteBytes(addr int64, data []byte) error {
	if err := s.write(addr, data); err != nil {
		return &AccessError{Addr: addr, Width: len(data), Write: true}
	}
	return nil
}

// ReadCString reads a NUL-terminated string starting at addr, up to max
// bytes (a safety bound against runaway reads of corrupted memory).
func (s *Space) ReadCString(addr int64, max int) (string, error) {
	out, err := s.AppendCString(make([]byte, 0, 32), addr, max)
	if err != nil {
		return "", err
	}
	return string(out), nil
}

// AppendCString appends the NUL-terminated string starting at addr to dst
// and returns the extended slice, with ReadCString's limit and errors. It
// is the allocation-free variant for callers that own a buffer. On error
// it returns nil; bytes past len(dst) may have been overwritten.
func (s *Space) AppendCString(dst []byte, addr int64, max int) ([]byte, error) {
	for i := 0; i < max; i++ {
		b, err := s.Load(addr+int64(i), 1)
		if err != nil {
			return nil, err
		}
		if b == 0 {
			return dst, nil
		}
		dst = append(dst, byte(b))
	}
	return nil, fmt.Errorf("mem: unterminated string at %#x (limit %d)", addr, max)
}

func (s *Space) read(addr int64, dst []byte) error {
	if addr < 0 {
		return ErrUnmapped
	}
	for len(dst) > 0 {
		page := s.lookup(addr / PageSize)
		if page == nil {
			return ErrUnmapped
		}
		off := int(addr % PageSize)
		n := copy(dst, page[off:])
		dst = dst[n:]
		addr += int64(n)
	}
	return nil
}

func (s *Space) write(addr int64, src []byte) error {
	if addr < 0 {
		return ErrUnmapped
	}
	for len(src) > 0 {
		idx := addr / PageSize
		page := s.lookup(idx)
		if page == nil {
			return ErrUnmapped
		}
		if page == &zeroPage {
			page = s.writable(idx)
		}
		off := int(addr % PageSize)
		n := copy(page[off:], src)
		src = src[n:]
		addr += int64(n)
	}
	return nil
}

// CacheLineSize is the cache-line granularity (64 B) the HTM model tracks
// write sets at.
const CacheLineSize = 64

// LineAddr returns addr rounded down to its cache line.
func LineAddr(addr int64) int64 { return addr &^ (CacheLineSize - 1) }

// LinesTouched returns the cache lines covered by an access of width bytes
// at addr (one or two lines; simulated accesses are at most 8 bytes).
func LinesTouched(addr int64, width int) (first, second int64, spans bool) {
	first = LineAddr(addr)
	last := LineAddr(addr + int64(width) - 1)
	if last != first {
		return first, last, true
	}
	return first, 0, false
}
