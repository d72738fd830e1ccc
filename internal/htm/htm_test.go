package htm

import (
	"errors"
	"testing"
	"testing/quick"

	"github.com/firestarter-go/firestarter/internal/mem"
)

func newSpace(t *testing.T) *mem.Space {
	t.Helper()
	s := mem.NewSpace()
	if err := s.Map(mem.HeapBase, 1<<20); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCommitKeepsStores(t *testing.T) {
	s := newSpace(t)
	h := New(Config{})
	tx := h.Begin(s)
	if err := tx.Store(mem.HeapBase, 99, 8); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	v, err := s.Load(mem.HeapBase, 8)
	if err != nil || v != 99 {
		t.Fatalf("after commit: %d, %v", v, err)
	}
	st := h.Stats()
	if st.Begins != 1 || st.Commits != 1 || st.Aborts != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAbortRestoresMemory(t *testing.T) {
	s := newSpace(t)
	if err := s.Store(mem.HeapBase+8, 1234, 8); err != nil {
		t.Fatal(err)
	}
	h := New(Config{})
	tx := h.Begin(s)
	if err := tx.Store(mem.HeapBase+8, 777, 8); err != nil {
		t.Fatal(err)
	}
	if err := tx.Store(mem.HeapBase+256, 888, 8); err != nil {
		t.Fatal(err)
	}
	tx.Abort(AbortExplicit)
	v1, _ := s.Load(mem.HeapBase+8, 8)
	v2, _ := s.Load(mem.HeapBase+256, 8)
	if v1 != 1234 || v2 != 0 {
		t.Fatalf("after abort: %d, %d; want 1234, 0", v1, v2)
	}
	if st := h.Stats(); st.ByExplcit != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCapacityAbortOnTotalLines(t *testing.T) {
	s := newSpace(t)
	h := New(Config{Sets: 1}) // tiny cache: 8 lines
	tx := h.Begin(s)
	var abortErr *AbortError
	for i := 0; i < 100; i++ {
		err := tx.Store(mem.HeapBase+int64(i)*mem.CacheLineSize, int64(i), 8)
		if err != nil {
			if !errors.As(err, &abortErr) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
	}
	if abortErr == nil || abortErr.Cause != AbortCapacity {
		t.Fatalf("expected capacity abort, got %v", abortErr)
	}
	// All stores rolled back.
	for i := 0; i < 8; i++ {
		v, _ := s.Load(mem.HeapBase+int64(i)*mem.CacheLineSize, 8)
		if v != 0 {
			t.Fatalf("line %d not rolled back: %d", i, v)
		}
	}
}

func TestAssociativityAbort(t *testing.T) {
	s := mem.NewSpace()
	if err := s.Map(mem.HeapBase, 1<<22); err != nil {
		t.Fatal(err)
	}
	h := New(Config{Sets: 64})
	tx := h.Begin(s)
	// Hammer one set: addresses that differ by Sets*LineSize map to the
	// same set.
	stride := int64(64 * mem.CacheLineSize)
	var abortErr *AbortError
	for i := 0; i < 10; i++ {
		err := tx.Store(mem.HeapBase+int64(i)*stride, 1, 8)
		if err != nil {
			if !errors.As(err, &abortErr) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
	}
	if abortErr == nil || abortErr.Cause != AbortCapacity {
		t.Fatalf("expected associativity(capacity) abort, got %v", abortErr)
	}
	if h.Stats().ByCapac != 1 {
		t.Errorf("stats = %+v", h.Stats())
	}
}

func TestDefaultCapacityIs512Lines(t *testing.T) {
	s := mem.NewSpace()
	if err := s.Map(mem.HeapBase, 1<<22); err != nil {
		t.Fatal(err)
	}
	h := New(Config{})
	tx := h.Begin(s)
	// 512 sequential lines fit exactly (64 sets × 8 ways, sequential
	// lines spread evenly across sets).
	for i := 0; i < 512; i++ {
		if err := tx.Store(mem.HeapBase+int64(i)*mem.CacheLineSize, 1, 8); err != nil {
			t.Fatalf("store %d aborted early: %v", i, err)
		}
	}
	err := tx.Store(mem.HeapBase+512*mem.CacheLineSize, 1, 8)
	var abortErr *AbortError
	if !errors.As(err, &abortErr) || abortErr.Cause != AbortCapacity {
		t.Fatalf("store 513 should capacity-abort, got %v", err)
	}
}

func TestInterruptAborts(t *testing.T) {
	s := newSpace(t)
	h := New(Config{MeanInstrsPerInterrupt: 100, Seed: 1})
	aborted := 0
	for i := 0; i < 50; i++ {
		tx := h.Begin(s)
		if err := tx.Store(mem.HeapBase, int64(i), 8); err != nil {
			t.Fatal(err)
		}
		if err := tx.Tick(200); err != nil {
			var abortErr *AbortError
			if !errors.As(err, &abortErr) || abortErr.Cause != AbortInterrupt {
				t.Fatalf("unexpected tick error: %v", err)
			}
			aborted++
			continue
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if aborted == 0 {
		t.Fatal("no interrupt aborts with mean gap 100 and ticks of 200")
	}
	if h.Stats().ByIntr != int64(aborted) {
		t.Errorf("stats = %+v, want %d interrupt aborts", h.Stats(), aborted)
	}
}

func TestInterruptDisabled(t *testing.T) {
	s := newSpace(t)
	h := New(Config{})
	tx := h.Begin(s)
	if err := tx.Tick(1 << 40); err != nil {
		t.Fatalf("tick with interrupts disabled: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestSpanningStoreTouchesTwoLines(t *testing.T) {
	s := newSpace(t)
	h := New(Config{})
	tx := h.Begin(s)
	if err := tx.Store(mem.HeapBase+mem.CacheLineSize-4, 0x1122334455667788, 8); err != nil {
		t.Fatal(err)
	}
	if got := tx.WriteSetLines(); got != 2 {
		t.Fatalf("WriteSetLines = %d, want 2", got)
	}
	tx.Abort(AbortExplicit)
	v, _ := s.Load(mem.HeapBase+mem.CacheLineSize-4, 8)
	if v != 0 {
		t.Fatalf("spanning store not rolled back: %#x", v)
	}
}

func TestStoreToUnmappedDoesNotGrowWriteSet(t *testing.T) {
	s := newSpace(t)
	h := New(Config{})
	tx := h.Begin(s)
	err := tx.Store(0x40, 1, 8)
	if !errors.Is(err, mem.ErrUnmapped) {
		t.Fatalf("expected unmapped error, got %v", err)
	}
	if tx.WriteSetLines() != 0 {
		t.Fatalf("write set grew on faulting store")
	}
	// The transaction is still live; it can be explicitly aborted.
	tx.Abort(AbortExplicit)
}

func TestFinishedTransactionRejectsOps(t *testing.T) {
	s := newSpace(t)
	h := New(Config{})
	tx := h.Begin(s)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Store(mem.HeapBase, 1, 8); err == nil {
		t.Error("store on finished tx should fail")
	}
	if err := tx.Commit(); err == nil {
		t.Error("double commit should fail")
	}
	tx.Abort(AbortExplicit) // must be a no-op
	if st := h.Stats(); st.Aborts != 0 {
		t.Errorf("abort after commit counted: %+v", st)
	}
}

func TestAbortRateAndPeak(t *testing.T) {
	s := newSpace(t)
	h := New(Config{})
	for i := 0; i < 4; i++ {
		tx := h.Begin(s)
		if err := tx.Store(mem.HeapBase+int64(i*128), 1, 8); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		} else {
			tx.Abort(AbortExplicit)
		}
	}
	st := h.Stats()
	if st.AbortRate() != 0.5 {
		t.Errorf("AbortRate = %f, want 0.5", st.AbortRate())
	}
	if st.PeakWriteLines != 1 {
		t.Errorf("PeakWriteLines = %d, want 1", st.PeakWriteLines)
	}
	h.ResetStats()
	if h.Stats().Begins != 0 {
		t.Error("ResetStats did not clear")
	}
}

// Property: for any sequence of 8-byte stores within one transaction that
// then aborts, memory is byte-identical to the pre-transaction state.
func TestAbortRestoresExactlyProperty(t *testing.T) {
	s := newSpace(t)
	// Pre-fill deterministic baseline.
	for i := int64(0); i < 4096; i += 8 {
		if err := s.Store(mem.HeapBase+i, i*3+1, 8); err != nil {
			t.Fatal(err)
		}
	}
	h := New(Config{})
	f := func(offsets []uint16, vals []int64) bool {
		tx := h.Begin(s)
		n := len(offsets)
		if len(vals) < n {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			addr := mem.HeapBase + int64(offsets[i]%4096)
			if err := tx.Store(addr, vals[i], 8); err != nil {
				return false
			}
		}
		tx.Abort(AbortExplicit)
		for i := int64(0); i < 4096; i += 8 {
			v, err := s.Load(mem.HeapBase+i, 8)
			if err != nil || v != i*3+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConflictAbortAccounting(t *testing.T) {
	s := newSpace(t)
	h := New(Config{})
	tx := h.Begin(s)
	if err := tx.Store(mem.HeapBase, 5, 8); err != nil {
		t.Fatal(err)
	}
	// A conflicting writer on another core (injected by the caller in
	// simulation) aborts the transaction with the conflict cause.
	tx.Abort(AbortConflict)
	st := h.Stats()
	if st.ByConfl != 1 || st.Aborts != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if v, _ := s.Load(mem.HeapBase, 8); v != 0 {
		t.Fatalf("conflict abort did not roll back: %d", v)
	}
}

func TestAbortCauseStrings(t *testing.T) {
	for _, c := range []AbortCause{AbortNone, AbortCapacity, AbortInterrupt, AbortConflict, AbortExplicit, AbortCause(99)} {
		if c.String() == "" {
			t.Errorf("cause %d has empty string", c)
		}
	}
	e := &AbortError{Cause: AbortCapacity}
	if e.Error() == "" {
		t.Error("AbortError.Error empty")
	}
}

func TestInterruptClockSpansTransactions(t *testing.T) {
	// The interrupt process keeps ticking across transactions, like a
	// real timer: with a mean gap of 1000 and ticks of 400, an abort
	// must eventually hit even though no single transaction exceeds the
	// mean.
	s := newSpace(t)
	h := New(Config{MeanInstrsPerInterrupt: 1000, Seed: 5})
	aborted := false
	for i := 0; i < 100 && !aborted; i++ {
		tx := h.Begin(s)
		if err := tx.Tick(400); err != nil {
			aborted = true
			continue
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if !aborted {
		t.Fatal("interrupt never fired across 100 transactions × 400 instructions")
	}
}

// TestRecycledTxForgetsWriteSet pins the tag table's reset: a recycled
// transaction starts with every set empty and snapshots lines afresh, so
// refilling the set a previous transaction filled neither aborts nor
// restores the previous transaction's snapshot.
func TestRecycledTxForgetsWriteSet(t *testing.T) {
	s := newSpace(t)
	h := New(Config{Sets: 4})
	stride := int64(4 * mem.CacheLineSize) // same set
	tx := h.Begin(s)
	for i := int64(0); i < Ways; i++ {
		if err := tx.Store(mem.HeapBase+i*stride, 7, 8); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx = h.Begin(s)
	for i := int64(0); i < Ways; i++ {
		if err := tx.Store(mem.HeapBase+i*stride, 9, 8); err != nil {
			t.Fatalf("recycled transaction: %v", err)
		}
	}
	if n := tx.WriteSetLines(); n != Ways {
		t.Fatalf("write set = %d lines, want %d", n, Ways)
	}
	tx.Abort(AbortExplicit)
	if v, _ := s.Load(mem.HeapBase+stride, 8); v != 7 {
		t.Fatalf("rollback restored %d, want the committed 7", v)
	}
}

// TestStoreRangeTouchesEachLineOnce checks the range fast path's write
// set: a range over n lines dirties n lines and rolls back exactly.
func TestStoreRangeTouchesEachLineOnce(t *testing.T) {
	s := newSpace(t)
	h := New(Config{})
	before := s.Digest()
	tx := h.Begin(s)
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i)
	}
	units, err := tx.StoreRange(mem.HeapBase+30, data)
	if err != nil || units != mem.Units(len(data)) {
		t.Fatalf("StoreRange = %d, %v", units, err)
	}
	// Bytes 30..1029 cover lines 0..16.
	if n := tx.WriteSetLines(); n != 17 {
		t.Errorf("write set = %d lines, want 17", n)
	}
	if got, _ := s.ReadBytes(mem.HeapBase+30, int64(len(data))); string(got) != string(data) {
		t.Error("range not written")
	}
	tx.Abort(AbortExplicit)
	if s.Digest() != before {
		t.Error("rollback did not restore the range")
	}
}
