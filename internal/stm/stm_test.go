package stm

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/firestarter-go/firestarter/internal/mem"
)

func newSpace(t *testing.T) *mem.Space {
	t.Helper()
	s := mem.NewSpace()
	if err := s.Map(mem.HeapBase, 1<<16); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCommitKeepsStores(t *testing.T) {
	s := newSpace(t)
	l := New(s)
	l.Begin()
	if err := l.Store(mem.HeapBase, 5, 8); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	v, _ := s.Load(mem.HeapBase, 8)
	if v != 5 {
		t.Fatalf("after commit: %d", v)
	}
	if l.Active() {
		t.Error("log still active after commit")
	}
}

func TestRollbackRestoresReverseOrder(t *testing.T) {
	s := newSpace(t)
	if err := s.Store(mem.HeapBase, 10, 8); err != nil {
		t.Fatal(err)
	}
	l := New(s)
	l.Begin()
	// Two stores to the same address: rollback must restore the
	// *original* value, which only reverse-order replay achieves.
	if err := l.Store(mem.HeapBase, 20, 8); err != nil {
		t.Fatal(err)
	}
	if err := l.Store(mem.HeapBase, 30, 8); err != nil {
		t.Fatal(err)
	}
	n, err := l.Rollback()
	if err != nil || n != 2 {
		t.Fatalf("Rollback = %d, %v", n, err)
	}
	v, _ := s.Load(mem.HeapBase, 8)
	if v != 10 {
		t.Fatalf("after rollback: %d, want 10", v)
	}
}

func TestMixedWidthRollback(t *testing.T) {
	s := newSpace(t)
	if err := s.Store(mem.HeapBase, 0x1111111111111111, 8); err != nil {
		t.Fatal(err)
	}
	l := New(s)
	l.Begin()
	if err := l.Store(mem.HeapBase+2, 0xff, 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Store(mem.HeapBase+4, 0xabcd, 2); err != nil {
		t.Fatal(err)
	}
	if err := l.Store(mem.HeapBase, 0, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Rollback(); err != nil {
		t.Fatal(err)
	}
	v, _ := s.Load(mem.HeapBase, 8)
	if v != 0x1111111111111111 {
		t.Fatalf("after rollback: %#x", v)
	}
}

func TestStoreOutsideTransaction(t *testing.T) {
	s := newSpace(t)
	l := New(s)
	if err := l.Store(mem.HeapBase, 1, 8); err == nil {
		t.Error("store outside transaction should fail")
	}
	if err := l.Commit(); err == nil {
		t.Error("commit outside transaction should fail")
	}
	if _, err := l.Rollback(); err == nil {
		t.Error("rollback outside transaction should fail")
	}
}

func TestNestedBeginPanics(t *testing.T) {
	s := newSpace(t)
	l := New(s)
	l.Begin()
	defer func() {
		if recover() == nil {
			t.Error("nested Begin did not panic")
		}
	}()
	l.Begin()
}

func TestFaultingStoreKeepsLogConsistent(t *testing.T) {
	s := newSpace(t)
	if err := s.Store(mem.HeapBase, 7, 8); err != nil {
		t.Fatal(err)
	}
	l := New(s)
	l.Begin()
	if err := l.Store(mem.HeapBase, 8, 8); err != nil {
		t.Fatal(err)
	}
	// Store to unmapped memory: the access error surfaces, the log keeps
	// only the successful store.
	if err := l.Store(0x10, 1, 8); !errors.Is(err, mem.ErrUnmapped) {
		t.Fatalf("expected unmapped error, got %v", err)
	}
	if l.Len() != 1 {
		t.Fatalf("log length = %d, want 1", l.Len())
	}
	if _, err := l.Rollback(); err != nil {
		t.Fatal(err)
	}
	v, _ := s.Load(mem.HeapBase, 8)
	if v != 7 {
		t.Fatalf("after rollback: %d", v)
	}
}

func TestRollbackSkipsUnmappedEntries(t *testing.T) {
	s := newSpace(t)
	l := New(s)
	l.Begin()
	if err := l.Store(mem.HeapBase+mem.PageSize, 9, 8); err != nil {
		t.Fatal(err)
	}
	// Program unmaps the page mid-transaction (e.g., via an embedded
	// munmap libcall). Rollback must not fault.
	if err := s.Unmap(mem.HeapBase+mem.PageSize, mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Rollback(); err != nil {
		t.Fatalf("rollback over unmapped entry: %v", err)
	}
}

func TestStats(t *testing.T) {
	s := newSpace(t)
	l := New(s)
	for i := 0; i < 3; i++ {
		l.Begin()
		for j := 0; j < 5; j++ {
			if err := l.Store(mem.HeapBase+int64(j*8), int64(j), 8); err != nil {
				t.Fatal(err)
			}
		}
		if i == 2 {
			if _, err := l.Rollback(); err != nil {
				t.Fatal(err)
			}
		} else if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Begins != 3 || st.Commits != 2 || st.Rollbacks != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.TotalStores != 15 || st.PeakLogLen != 5 {
		t.Errorf("stats = %+v", st)
	}
	if l.MemoryBytes() <= 0 {
		t.Error("MemoryBytes should be positive after use")
	}
	l.ResetStats()
	if l.Stats().Begins != 0 {
		t.Error("ResetStats did not clear")
	}
}

// Property: any store sequence followed by rollback leaves memory
// byte-identical to the pre-transaction state.
func TestRollbackRestoresExactlyProperty(t *testing.T) {
	s := newSpace(t)
	for i := int64(0); i < 2048; i += 8 {
		if err := s.Store(mem.HeapBase+i, i^0x55aa, 8); err != nil {
			t.Fatal(err)
		}
	}
	l := New(s)
	f := func(offsets []uint16, vals []int64, widths []uint8) bool {
		l.Begin()
		n := len(offsets)
		if len(vals) < n {
			n = len(vals)
		}
		if len(widths) < n {
			n = len(widths)
		}
		widthOf := []int{1, 2, 4, 8}
		for i := 0; i < n; i++ {
			addr := mem.HeapBase + int64(offsets[i]%2040)
			if err := l.Store(addr, vals[i], widthOf[widths[i]%4]); err != nil {
				return false
			}
		}
		if _, err := l.Rollback(); err != nil {
			return false
		}
		for i := int64(0); i < 2048; i += 8 {
			v, err := s.Load(mem.HeapBase+i, 8)
			if err != nil || v != i^0x55aa {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestStoreRangeLogsPerUnit pins that the range fast path leaves the log
// exactly as the per-unit loop does: one entry per unit, in unit order,
// with the same capacity growth (MemoryBytes feeds Fig. 9).
func TestStoreRangeLogsPerUnit(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 13, 255, 256, 257, 3000, 9001} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i*31 + 7)
		}
		var logs [2]*Log
		for k := range logs {
			s := newSpace(t)
			for i := 0; i < 1<<16; i += 8 {
				if err := s.Store(mem.HeapBase+int64(i), int64(i)*0x0101, 8); err != nil {
					t.Fatal(err)
				}
			}
			l := New(s)
			l.Begin()
			if err := l.Store(mem.HeapBase+40, 1, 8); err != nil {
				t.Fatal(err)
			}
			var units int
			var err error
			if k == 0 {
				units, err = l.StoreRange(mem.HeapBase+3, data)
			} else {
				units, err = mem.StoreUnits(mem.HeapBase+3, data, l.Store)
			}
			if err != nil || units != mem.Units(n) {
				t.Fatalf("n=%d path %d: %d units, %v", n, k, units, err)
			}
			logs[k] = l
		}
		r, u := logs[0], logs[1]
		if !reflect.DeepEqual(r.entries, u.entries) || cap(r.entries) != cap(u.entries) || r.Stats() != u.Stats() {
			t.Errorf("n=%d: range log (len %d cap %d, %+v) differs from per-unit log (len %d cap %d, %+v)",
				n, len(r.entries), cap(r.entries), r.Stats(), len(u.entries), cap(u.entries), u.Stats())
		}
	}
}
