package libsim

// Per-request bump-pointer arenas over protection domains (the
// rewind-and-discard checkpoint backend's memory half).
//
// When arenas are enabled, the application routes request-scoped
// allocations through the arena_alloc library call (the apache
// request-pool idiom) and delimits request scope with arena_reset. Each
// request's arena is a fixed-size slab carved from the dedicated arena
// segment (mem.ArenaBase), mapped on first use, tagged with a fresh
// monotonically increasing domain ID, and torn down through
// mem.Space.Unmap — the same path ordinary unmaps take, so TLB entries
// and domain tags are invalidated together. Slab base addresses are
// recycled LIFO, which keeps the address stream (and therefore every
// downstream cycle count) deterministic.
//
// The arena manager also keeps the fail-silent containment record: every
// connection write is audited against the domain tags of its source
// range (see WriteTaint), and every discarded domain is remembered, so
// the faultinj corruption-reach checker can prove that no post-recovery
// response bytes derive from a discarded request's memory.

import "github.com/firestarter-go/firestarter/internal/mem"

// ArenaSlabSize is the fixed per-request arena capacity (16 pages).
// Requests that outgrow it fall back to the ordinary heap — counted, and
// the dynamic policy backs off from the rewind strategy when fallbacks
// make O(1) discard ineffective.
const ArenaSlabSize = 16 * mem.PageSize

// Arena is one request's bump allocator.
type Arena struct {
	base int64
	size int64
	used int64
	dom  int32
	fd   int64           // owning connection descriptor
	sz   map[int64]int64 // chunk start -> aligned size (realloc support)
}

// Dom returns the arena's protection domain ID.
func (a *Arena) Dom() int32 { return a.dom }

// ArenaStats is the arena manager's accounting, reconciled against the
// core.arena_* metrics.
type ArenaStats struct {
	Allocs    int64 // successful arena_alloc bumps
	Fallbacks int64 // arena_alloc requests served by the heap instead
	Retires   int64 // arenas discarded at request end (arena_reset/close)
	Slabs     int64 // distinct slabs ever mapped
}

// WriteTaint records the domain provenance of one connection write while
// arenas are enabled. Doms holds the distinct non-zero domain tags of
// the source range's pages; Stale is the subset that had already been
// discarded when the write happened. The faultinj corruption-reach
// checker turns these into leak verdicts.
type WriteTaint struct {
	Seq     int64 // write sequence number (per OS, from 1)
	FD      int64
	Trace   int64 // active trace of the written connection (0 untraced)
	Addr    int64 // guest source buffer
	Len     int64
	Serving int32 // current domain register at write time
	Doms    []int32
	Stale   []int32
}

// arenaState is the OS-level arena manager.
type arenaState struct {
	on        bool
	cur       *Arena
	freeSlabs []int64 // recycled slab bases, LIFO
	nextSlab  int64
	nextDom   int32
	stats     ArenaStats

	discarded map[int32]bool
	order     []int32 // discard order (deterministic reporting)

	taintSeq int64
	taints   []WriteTaint

	onEnter  func(dom int32)
	onRetire func(dom int32)
}

// EnableArenas switches on per-request arenas (and domain checking on
// the underlying space). Idempotent.
func (o *OS) EnableArenas() {
	if o.arena.on {
		return
	}
	o.arena.on = true
	o.arena.nextSlab = mem.ArenaBase
	o.arena.nextDom = 1
	o.arena.discarded = make(map[int32]bool)
	o.Space.EnableDomains()
}

// ArenasEnabled reports whether per-request arenas are on.
func (o *OS) ArenasEnabled() bool { return o.arena.on }

// SetArenaHooks installs the runtime's domain lifecycle observers:
// enter fires when a request's domain becomes current (first
// arena_alloc), retire when it is discarded at request end. Like the
// trace hook, neither charges cycles.
func (o *OS) SetArenaHooks(enter, retire func(dom int32)) {
	o.arena.onEnter = enter
	o.arena.onRetire = retire
}

// ArenaStats returns the manager's counters.
func (o *OS) ArenaStats() ArenaStats { return o.arena.stats }

// ActiveArenaDom returns the live arena's domain, or 0.
func (o *OS) ActiveArenaDom() int32 {
	if o.arena.cur == nil {
		return 0
	}
	return o.arena.cur.dom
}

// WriteTaints returns the containment audit trail: one record per
// connection write performed while arenas were enabled.
func (o *OS) WriteTaints() []WriteTaint { return o.arena.taints }

// DiscardedDoms returns every discarded domain ID in discard order.
func (o *OS) DiscardedDoms() []int32 { return o.arena.order }

// arenaOwns reports whether addr lies in the arena segment. Frees of
// arena addresses are no-ops (bump arenas reclaim wholesale), including
// stale pointers into already-discarded slabs — the access itself traps,
// but a free must not be misdiagnosed as heap corruption.
func (o *OS) arenaOwns(addr int64) bool {
	return o.arena.on && addr >= mem.ArenaBase && addr < mem.ArenaLimit
}

// arenaOpen maps and tags a fresh arena for the serving connection,
// switching the current-domain register to it.
func (o *OS) arenaOpen(fd int64) *Arena {
	st := &o.arena
	var base int64
	if n := len(st.freeSlabs); n > 0 {
		base = st.freeSlabs[n-1]
		st.freeSlabs = st.freeSlabs[:n-1]
	} else {
		if st.nextSlab+ArenaSlabSize > mem.ArenaLimit {
			return nil // segment exhausted: callers fall back to the heap
		}
		base = st.nextSlab
		st.nextSlab += ArenaSlabSize
		st.stats.Slabs++
	}
	if err := o.Space.Map(base, ArenaSlabSize); err != nil {
		return nil
	}
	dom := st.nextDom
	st.nextDom++
	if err := o.Space.TagDomain(base, ArenaSlabSize, dom); err != nil {
		return nil
	}
	a := &Arena{base: base, size: ArenaSlabSize, dom: dom, fd: fd, sz: make(map[int64]int64)}
	st.cur = a
	o.Space.SetDomain(dom)
	if st.onEnter != nil {
		st.onEnter(dom)
	}
	return a
}

// arenaRetire discards the live arena: the slab is unmapped (clearing
// its pages, TLB entries and domain tags in one pass), its base recycled
// and its domain recorded as discarded forever. O(1) in the cost model —
// no undo replay, no per-chunk work.
func (o *OS) arenaRetire() {
	st := &o.arena
	a := st.cur
	if a == nil {
		return
	}
	st.cur = nil
	st.discarded[a.dom] = true
	st.order = append(st.order, a.dom)
	st.stats.Retires++
	_ = o.Space.Unmap(a.base, a.size)
	st.freeSlabs = append(st.freeSlabs, a.base)
	o.Space.SetDomain(0)
	if st.onRetire != nil {
		st.onRetire(a.dom)
	}
}

// ArenaAlloc is the arena_alloc implementation. With arenas off it is
// exactly malloc, so the pool apps run unchanged (and comparably) under
// the HTM/STM strategies. With arenas on it bumps the serving request's
// arena, opening one on first use and retiring a stale one if the
// serving connection changed without an arena_reset.
func (o *OS) ArenaAlloc(size int64) (int64, error) {
	if !o.arena.on {
		return o.alloc(size)
	}
	if o.oomNow() {
		o.Errno = ENOMEM
		return 0, nil
	}
	a := o.arena.cur
	if a != nil && a.fd != o.servingFD {
		o.arenaRetire()
		a = nil
	}
	if a == nil {
		a = o.arenaOpen(o.servingFD)
	}
	if size <= 0 {
		size = heapAlign
	}
	size = align(size)
	if a == nil || a.used+size > a.size {
		// Oversized request (or exhausted segment): heap fallback. The
		// chunk escapes O(1) discard, which the rewind policy's back-off
		// watches through this counter.
		o.arena.stats.Fallbacks++
		addr := o.heap.Alloc(size)
		if addr == 0 {
			o.Errno = ENOMEM
		}
		return addr, nil
	}
	addr := a.base + a.used
	a.used += size
	a.sz[addr] = size
	o.arena.stats.Allocs++
	return addr, nil
}

// ArenaReset is the arena_reset implementation: the application's
// request-end marker. Discards the serving request's arena (no-op when
// arenas are off or none is live).
func (o *OS) ArenaReset() {
	if o.arena.on {
		o.arenaRetire()
	}
}

// arenaRealloc regrows an arena chunk by bump-allocating a copy (bump
// arenas never free). Returns the new address, 0 on ENOMEM.
func (o *OS) arenaRealloc(addr, size int64) (int64, error) {
	a := o.arena.cur
	var old int64
	if a != nil {
		old = a.sz[addr]
	}
	naddr, err := o.ArenaAlloc(size)
	if err != nil || naddr == 0 {
		return naddr, err
	}
	if old > 0 {
		if size < old {
			old = size
		}
		data, err := o.Space.ReadBytes(addr, old)
		if err != nil {
			return 0, err
		}
		if err := o.Space.WriteBytes(naddr, data); err != nil {
			return 0, err
		}
	}
	return naddr, nil
}

// ArenaTxMark returns the live arena's bump offset, the O(1) checkpoint
// the rewind strategy records at transaction entry (-1 when no arena is
// live — the transaction then has nothing to discard).
func (o *OS) ArenaTxMark() int64 {
	if !o.arena.on || o.arena.cur == nil {
		return -1
	}
	return o.arena.cur.used
}

// ArenaTxRewind discards everything the transaction bump-allocated:
// chunks above the mark are dropped and their bytes rezeroed so the
// retry re-allocates them byte-identically. Constant cost-model work —
// the Go-side rezero is host work, not simulated cycles (documented in
// docs/RUNTIME.md).
func (o *OS) ArenaTxRewind(mark int64) {
	a := o.arena.cur
	if !o.arena.on || a == nil || mark < 0 || mark >= a.used {
		return
	}
	for addr := range a.sz {
		if addr >= a.base+mark {
			delete(a.sz, addr)
		}
	}
	_ = o.heap.scrub(a.base+mark, a.used-mark)
	a.used = mark
}

// auditWrite records the domain provenance of a connection write (the
// containment audit). Called from doWrite with the serving connection's
// trace; charges nothing.
func (o *OS) auditWrite(fd, buf, n, trace int64) {
	st := &o.arena
	st.taintSeq++
	t := WriteTaint{
		Seq: st.taintSeq, FD: fd, Trace: trace,
		Addr: buf, Len: n,
		Serving: o.Space.CurrentDomain(),
	}
	first := buf / mem.PageSize
	last := (buf + n - 1) / mem.PageSize
	seen := int32(0)
	for p := first; p <= last; p++ {
		d := o.Space.PageDomain(p * mem.PageSize)
		if d == 0 || d == seen {
			continue
		}
		seen = d
		t.Doms = append(t.Doms, d)
		if st.discarded[d] {
			t.Stale = append(t.Stale, d)
		}
	}
	st.taints = append(st.taints, t)
}
