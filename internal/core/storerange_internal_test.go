package core

// The library store seam (routeStoreRange and the htm/stm/mem range fast
// paths behind it) must be indistinguishable from the per-unit loop it
// mirrors: one routed 8-byte store per word, then one per tail byte, with
// memset/memcpy charging their per-unit cost before each store. These
// tests build two identical worlds, drive one through the seam and the
// other through that loop, and compare everything a caller can observe.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/firestarter-go/firestarter/internal/htm"
	"github.com/firestarter-go/firestarter/internal/interp"
	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/mem"
	"github.com/firestarter-go/firestarter/internal/stm"
)

// Where the library write lands.
const (
	srDirect      = iota // no transaction: raw stores
	srHTM                // hardware transaction, small cache geometry
	srHTMConflict        // hardware transaction in a two-thread conflict domain
	srSTM                // software transaction (undo log)
	srDomainTx           // rewind-strategy transaction over protection domains
	srModes
)

// What the library does.
const (
	srWrite  = iota // writeBytes-shaped: the hook with a host buffer
	srMemset        // the memset call
	srMemcpy        // the memcpy call
	srOps
)

const srPages = 6

// srParams picks one case; every field is derived from fuzz input.
type srParams struct {
	mode, op  int
	flags     uint8 // bit 0: finish (HTM/STM) or doom (conflict) the transaction first
	holes     uint8 // bit i: page i of the region is unmapped
	deny      uint8 // bit i: page i belongs to a foreign protection domain
	sets      int
	addr, src int64
	n         int64
	seed      int64
}

func srParamsFrom(mode, op, flags, holes, deny, geom uint8, off, length, srcOff uint16, seed int64) srParams {
	span := int64(srPages * mem.PageSize)
	return srParams{
		mode:  int(mode) % srModes,
		op:    int(op) % srOps,
		flags: flags,
		holes: holes & (1<<srPages - 1),
		deny:  deny & (1<<srPages - 1),
		sets:  1 << (geom & 3),
		addr:  mem.HeapBase + int64(off)%span,
		src:   mem.HeapBase + int64(srcOff)%span,
		n:     int64(length) % (3*mem.PageSize + 1),
		seed:  seed,
	}
}

// srWorld is one address space with a runtime routing library writes.
type srWorld struct {
	space  *mem.Space
	os     *libsim.OS
	rt     *Runtime
	m      *interp.Machine
	tsx    *htm.TSX
	tx     *htm.Tx
	peer   *htm.TSX // conflict mode: the other thread's core
	peerTx *htm.Tx
	dom    *htm.Domain
	data   []byte // srWrite payload
}

// noThreads stands in for the scheduler: under it memcpy copies one unit
// at a time, since a store may doom another thread's transaction.
type noThreads struct{}

func (noThreads) Create(string, int64) (int64, error) { return -1, nil }
func (noThreads) Join(int64) (int64, error)           { return -1, nil }
func (noThreads) MutexLock(int64) (int64, error)      { return 0, nil }
func (noThreads) MutexUnlock(int64) (int64, error)    { return 0, nil }
func (noThreads) Cancel(int64) bool                   { return false }

func newSRWorld(p srParams) *srWorld {
	rng := rand.New(rand.NewSource(p.seed))
	space := mem.NewSpace()
	base := int64(mem.HeapBase)
	if err := space.Map(base, srPages*mem.PageSize); err != nil {
		panic(err)
	}
	fill := make([]byte, srPages*mem.PageSize)
	rng.Read(fill)
	if err := space.WriteBytes(base, fill); err != nil {
		panic(err)
	}
	for i := 0; i < srPages; i++ {
		if p.holes&(1<<i) != 0 {
			space.Unmap(base+int64(i)*mem.PageSize, mem.PageSize)
		}
	}
	if p.deny != 0 || p.mode == srDomainTx {
		space.EnableDomains()
		space.SetDomain(1)
		for i := 0; i < srPages; i++ {
			pg := base + int64(i)*mem.PageSize
			if p.deny&(1<<i) != 0 && space.Mapped(pg, mem.PageSize) {
				if err := space.TagDomain(pg, mem.PageSize, 2); err != nil {
					panic(err)
				}
			}
		}
	}

	w := &srWorld{space: space, os: libsim.New(space), m: &interp.Machine{}}
	w.rt = &Runtime{os: w.os, m: w.m, undo: stm.New(space)}
	w.os.SetCycleSink(&w.m.Cycles)
	w.os.SetStore(w.rt.routeStoreRange)
	w.data = make([]byte, p.n)
	rng.Read(w.data)

	// A few earlier stores give the transaction a write set (or undo
	// log) to extend; their outcome is the same in both worlds.
	prior := func(store func(addr, val int64, width int) error) (last int64) {
		for i := 0; i < 4; i++ {
			last = base + rng.Int63n(srPages*mem.PageSize-8)
			_ = store(last, rng.Int63(), 8)
		}
		return last
	}
	cfg := htm.Config{Sets: p.sets}
	switch p.mode {
	case srHTM:
		w.tsx = htm.New(cfg)
		w.tx = w.tsx.Begin(space)
		prior(w.tx.Store)
		if p.flags&1 != 0 {
			_ = w.tx.Commit()
		}
		w.rt.cur = &txState{strat: stratHTM, htmTx: w.tx}
	case srHTMConflict:
		w.dom = htm.NewDomain()
		w.tsx, w.peer = htm.New(cfg), htm.New(cfg)
		w.tsx.AttachDomain(w.dom, 0)
		w.peer.AttachDomain(w.dom, 1)
		w.peerTx = w.peer.Begin(space)
		prior(w.peerTx.Store)
		for i := 0; i < 4; i++ {
			_, _ = w.peerTx.Load(base+rng.Int63n(srPages*mem.PageSize-8), 8)
		}
		w.tx = w.tsx.Begin(space)
		last := prior(w.tx.Store)
		if p.flags&1 != 0 {
			// The peer writes the line our last prior store hit: we are
			// doomed before the library write starts.
			_ = w.peerTx.Store(last, 1, 8)
		}
		w.os.SetThreads(noThreads{})
		w.rt.cur = &txState{strat: stratHTM, htmTx: w.tx}
	case srSTM:
		w.rt.undo.Begin()
		prior(w.rt.undo.Store)
		if p.flags&1 != 0 {
			_ = w.rt.undo.Commit()
		}
		w.rt.cur = &txState{strat: stratSTM}
	case srDomainTx:
		w.rt.cur = &txState{strat: stratDomain}
	}
	return w
}

// srOutcome is everything observable after a library write and after
// the transaction is rolled back.
type srOutcome struct {
	Units  int
	Err    error
	Cycles int64
	Digest uint64

	HTM, Peer   htm.Stats
	WriteSet    int
	PeerPending error
	Conflicts   int64

	STM      stm.Stats
	STMLen   int
	STMBytes int64

	RolledBack  uint64
	UndoneN     int
	UndoneErr   error
	HTMAfter    htm.Stats
	STMAfter    stm.Stats
	PeerAfter   htm.Stats
	PeerWriteTo int
}

func (w *srWorld) outcome(units int, err error) srOutcome {
	o := srOutcome{Units: units, Err: err, Cycles: w.m.Cycles, Digest: w.space.Digest()}
	if w.tx != nil {
		o.HTM, o.WriteSet = w.tsx.Stats(), w.tx.WriteSetLines()
	}
	if w.peerTx != nil {
		o.Peer, o.PeerPending, o.Conflicts = w.peer.Stats(), w.peerTx.PendingAbort(), w.dom.Conflicts
		o.PeerWriteTo = w.peerTx.WriteSetLines()
	}
	o.STM, o.STMLen, o.STMBytes = w.rt.undo.Stats(), w.rt.undo.Len(), w.rt.undo.MemoryBytes()

	if w.tx != nil {
		w.tx.Abort(htm.AbortExplicit)
		o.HTMAfter = w.tsx.Stats()
	}
	if w.peerTx != nil {
		w.peerTx.Abort(htm.AbortExplicit)
		o.PeerAfter = w.peer.Stats()
	}
	if w.rt.undo.Active() {
		o.UndoneN, o.UndoneErr = w.rt.undo.Rollback()
	}
	o.STMAfter = w.rt.undo.Stats()
	o.RolledBack = w.space.Digest()
	return o
}

// viaRange drives the library write through the range seam.
func (w *srWorld) viaRange(p srParams) srOutcome {
	switch p.op {
	case srMemset:
		_, err := w.os.Call("memset", []int64{p.addr, p.seed, p.n})
		return w.outcome(-1, err)
	case srMemcpy:
		_, err := w.os.Call("memcpy", []int64{p.addr, p.src, p.n})
		return w.outcome(-1, err)
	}
	units, err := w.rt.routeStoreRange(p.addr, w.data)
	return w.outcome(units, err)
}

// viaUnits drives the same write through the per-unit reference: one
// routed store per unit.
func (w *srWorld) viaUnits(p srParams) srOutcome {
	dst, n := p.addr, p.n
	switch p.op {
	case srMemset:
		splat := p.seed & 0xff
		word := splat | splat<<8 | splat<<16 | splat<<24 | splat<<32 | splat<<40 | splat<<48 | splat<<56
		return w.outcome(-1, w.perUnit(dst, n, 2, func(i int64, width int) (int64, error) {
			if width == 8 {
				return word, nil
			}
			return splat, nil
		}))
	case srMemcpy:
		return w.outcome(-1, w.perUnit(dst, n, 3, func(i int64, width int) (int64, error) {
			return w.space.Load(p.src+i, width)
		}))
	}
	units, err := mem.StoreUnits(dst, w.data, w.rt.routeStore)
	return w.outcome(units, err)
}

// perUnit is the reference memset/memcpy loop: per unit, produce the
// value, charge cost cycles, then store it.
func (w *srWorld) perUnit(dst, n, cost int64, value func(i int64, width int) (int64, error)) error {
	unit := func(i int64, width int) error {
		v, err := value(i, width)
		if err != nil {
			return err
		}
		w.m.Cycles += cost
		return w.rt.routeStore(dst+i, v, width)
	}
	i := int64(0)
	for ; i+8 <= n; i += 8 {
		if err := unit(i, 8); err != nil {
			return err
		}
	}
	for ; i < n; i++ {
		if err := unit(i, 1); err != nil {
			return err
		}
	}
	return nil
}

// checkStoreRange compares the two paths on twin worlds, each set up by
// newSRWorld and then by prep, if given.
func checkStoreRange(t *testing.T, p srParams, prep func(*srWorld)) {
	t.Helper()
	world := func() *srWorld {
		w := newSRWorld(p)
		if prep != nil {
			prep(w)
		}
		return w
	}
	got := world().viaRange(p)
	want := world().viaUnits(p)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%+v\nrange path:    %s\nper-unit loop: %s", p, describe(got), describe(want))
	}
}

func describe(o srOutcome) string {
	return fmt.Sprintf("%+v (err %v, peer pending %v, undo err %v)", o, o.Err, o.PeerPending, o.UndoneErr)
}

// FuzzStoreRangeEquivalence checks the range seam against the per-unit
// loop in every place a library write can land, over unaligned addresses,
// lengths up to three pages, unmapped holes and domain-denied pages.
func FuzzStoreRangeEquivalence(f *testing.F) {
	const pg = mem.PageSize
	for mode := uint8(0); mode < srModes; mode++ {
		for op := uint8(0); op < srOps; op++ {
			f.Add(mode, op, uint8(0), uint8(0), uint8(0), uint8(0x0b), uint16(100), uint16(3000), uint16(20), int64(mode)*7+int64(op))
			// Straddle into a hole after page 1.
			f.Add(mode, op, uint8(0), uint8(1<<2), uint8(0), uint8(0x0f), uint16(2*pg-4), uint16(40), uint16(0), int64(3))
			// Domain-denied page 1 in the middle of the range.
			f.Add(mode, op, uint8(0), uint8(0), uint8(1<<1), uint8(0x0f), uint16(pg-100), uint16(pg+300), uint16(9), int64(5))
			// Finished / doomed transaction.
			f.Add(mode, op, uint8(1), uint8(0), uint8(0), uint8(0x05), uint16(77), uint16(500), uint16(3), int64(11))
		}
		// Small geometry (one set of eight lines): a capacity abort lands
		// mid-range.
		f.Add(mode, uint8(srWrite), uint8(0), uint8(0), uint8(0), uint8(0x00), uint16(60), uint16(700), uint16(0), int64(13))
		// memcpy whose source runs into a hole: the load faults mid-copy.
		f.Add(mode, uint8(srMemcpy), uint8(0), uint8(1<<1), uint8(0), uint8(0x0f), uint16(3*pg), uint16(900), uint16(pg-300), int64(17))
		// memcpy with dst in (src, src+n): the forward copy smears.
		f.Add(mode, uint8(srMemcpy), uint8(0), uint8(0), uint8(0), uint8(0x0f), uint16(1003), uint16(2500), uint16(1000), int64(19))
		f.Add(mode, uint8(srMemcpy), uint8(0), uint8(0), uint8(0), uint8(0x0f), uint16(1021), uint16(2500), uint16(1000), int64(23))
	}
	f.Fuzz(func(t *testing.T, mode, op, flags, holes, deny, geom uint8, off, length, srcOff uint16, seed int64) {
		checkStoreRange(t, srParamsFrom(mode, op, flags, holes, deny, geom, off, length, srcOff, seed), nil)
	})
}

// TestStoreRangeTraps pins, with concrete values, the three behaviours
// of the per-unit loop that a range fast path most easily gets wrong.
func TestStoreRangeTraps(t *testing.T) {
	const pg = mem.PageSize
	base := int64(mem.HeapBase)
	var accessErr *mem.AccessError

	// A word straddling into an unmapped page: raw and HTM stores write
	// the mapped half before faulting; STM faults on its undo-log load
	// and writes nothing.
	for _, mode := range []int{srDirect, srHTM, srSTM} {
		p := srParams{mode: mode, op: srWrite, holes: 1 << 1, sets: 64, addr: base + pg - 4, n: 16, seed: 1}
		w := newSRWorld(p)
		before, _ := w.space.ReadBytes(base+pg-4, 4)
		logged := w.rt.undo.Len()
		units, err := w.rt.routeStoreRange(p.addr, w.data)
		after, _ := w.space.ReadBytes(base+pg-4, 4)
		if units != 1 || !errors.As(err, &accessErr) || accessErr.Addr != p.addr || accessErr.Width != 8 {
			t.Fatalf("mode %d: units %d, err %v; want 1 unit and an 8-byte fault at %#x", mode, units, err, p.addr)
		}
		wrote := string(after) == string(w.data[:4])
		if want := mode != srSTM; wrote != want || accessErr.Write != want {
			t.Errorf("mode %d: wrote mapped half %v, write fault %v; want %v", mode, wrote, accessErr.Write, want)
		}
		if mode == srSTM && (string(after) != string(before) || w.rt.undo.Len() != logged) {
			t.Errorf("STM logged or wrote the faulting unit")
		}
	}

	// A capacity abort is charged through the unit holding the first byte
	// of the line that overflowed: one set of eight ways holds lines base
	// to base+448; the line at base+512 overflows, and its first byte is
	// byte 452 of a range starting at base+60, in unit 56.
	p := srParams{mode: srHTM, op: srWrite, sets: 1, addr: base + 60, n: 600, seed: 2}
	w := newSRWorld(p)
	w.tx.Abort(htm.AbortExplicit) // drop the prior stores
	w.tx = w.tsx.Begin(w.space)
	w.rt.cur.htmTx = w.tx
	image := w.space.Digest()
	units, err := w.rt.routeStoreRange(p.addr, w.data)
	var abort *htm.AbortError
	if units != 57 || !errors.As(err, &abort) || abort.Cause != htm.AbortCapacity {
		t.Fatalf("capacity: units %d, err %v; want 57 units and a capacity abort", units, err)
	}
	if w.space.Digest() != image {
		t.Error("capacity abort left the range's writes in memory")
	}
	checkStoreRange(t, p, nil)

	// A memcpy whose source faults at unit k is charged k units: units
	// 0..2 load the last 24 bytes of page 0, unit 3 loads from the hole.
	p = srParams{mode: srDirect, op: srMemcpy, holes: 1 << 1, addr: base + 3*pg, src: base + pg - 24, n: 40}
	w = newSRWorld(p)
	if _, err := w.os.Call("memcpy", []int64{p.addr, p.src, p.n}); !errors.As(err, &accessErr) ||
		accessErr.Addr != base+pg || accessErr.Write {
		t.Fatalf("memcpy source fault: %v", err)
	}
	if w.m.Cycles != 3*3 {
		t.Errorf("memcpy charged %d cycles for 3 units, want 9", w.m.Cycles)
	}

	// Under the scheduler a store may doom another thread's transaction,
	// whose rollback rewrites memcpy's source mid-copy: the peer dirtied
	// the source's third line and read the destination's first, so the
	// copy's first unit dooms it and later units must load the restored
	// source.
	p = srParams{mode: srHTMConflict, op: srMemcpy, sets: 8, addr: base + 2*pg, src: base, n: 256, seed: 4}
	checkStoreRange(t, p, func(w *srWorld) {
		w.tx.Abort(htm.AbortExplicit)
		w.peerTx.Abort(htm.AbortExplicit)
		w.peerTx = w.peer.Begin(w.space)
		w.tx = w.tsx.Begin(w.space)
		w.rt.cur.htmTx = w.tx
		if err := w.peerTx.Store(p.src+128, -1, 8); err != nil {
			t.Fatal(err)
		}
		if _, err := w.peerTx.Load(p.addr, 8); err != nil {
			t.Fatal(err)
		}
	})
	checkStoreRange(t, p, nil)
}
