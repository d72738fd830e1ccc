package libmodel

import (
	"sync"
	"testing"

	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/mem"
)

func TestTableIIMatchesPaper(t *testing.T) {
	m := Default()
	if got := m.CanonicalCount(); got != 101 {
		t.Fatalf("canonical function count = %d, want 101", got)
	}
	// Paper Table II: rows are (divertable, not divertable).
	want := map[Class][2]int{
		Reversible:    {23, 0},
		NoReversion:   {9, 26},
		Deferrable:    {5, 2},
		StateRestore:  {12, 8},
		Irrecoverable: {12, 4},
	}
	got := m.TableII()
	for class, w := range want {
		if got[class] != w {
			t.Errorf("%s: got %v, want %v", class, got[class], w)
		}
	}
	divert, noDivert := 0, 0
	for _, c := range got {
		divert += c[0]
		noDivert += c[1]
	}
	if divert != 61 || noDivert != 40 {
		t.Errorf("column totals = %d/%d, want 61/40", divert, noDivert)
	}
}

func TestInjectableRules(t *testing.T) {
	m := Default()
	tests := []struct {
		name       string
		injectable bool
	}{
		{"malloc", true},     // state-restore + error-checked
		{"open", true},       // reversible + error-checked
		{"epoll_wait", true}, // idempotent + error-checked
		{"strlen", false},    // cannot report errors
		{"free", false},      // void return
		{"write", false},     // irrecoverable
		{"fork", false},      // irrecoverable and unchecked
		{"memset", false},    // no error reporting
		{"pread", true},      // the paper's Nginx SSI case study
		{"close", true},      // deferrable + error-checked
	}
	for _, tt := range tests {
		e := m.Lookup(tt.name)
		if e == nil {
			t.Errorf("Lookup(%q) = nil", tt.name)
			continue
		}
		if e.Injectable() != tt.injectable {
			t.Errorf("%s.Injectable() = %v, want %v", tt.name, e.Injectable(), tt.injectable)
		}
	}
}

func TestRecoverableRules(t *testing.T) {
	m := Default()
	for _, name := range []string{"write", "send", "rename", "fsync", "fork"} {
		if m.Lookup(name).Recoverable() {
			t.Errorf("%s should be irrecoverable", name)
		}
	}
	for _, name := range []string{"malloc", "open", "free", "strlen", "getpid"} {
		if !m.Lookup(name).Recoverable() {
			t.Errorf("%s should be recoverable", name)
		}
	}
}

func TestErrorSpecs(t *testing.T) {
	m := Default()
	if e := m.Lookup("malloc"); e.ErrorReturn != 0 || e.Errno != libsim.ENOMEM {
		t.Errorf("malloc error spec = %d/%d", e.ErrorReturn, e.Errno)
	}
	if e := m.Lookup("pread"); e.ErrorReturn != -1 || e.Errno != libsim.EINVAL {
		// The paper's Nginx case study: pread returns -1, errno EINVAL.
		t.Errorf("pread error spec = %d/%d", e.ErrorReturn, e.Errno)
	}
	if e := m.Lookup("posix_memalign"); !e.ErrnoDirect || e.ErrorReturn != libsim.ENOMEM {
		t.Errorf("posix_memalign spec = %+v", e)
	}
}

func newOS(t *testing.T) *libsim.OS {
	t.Helper()
	s := mem.NewSpace()
	if err := s.Map(mem.GlobalBase, 1<<16); err != nil {
		t.Fatal(err)
	}
	return libsim.New(s)
}

func TestCompensateMalloc(t *testing.T) {
	o := newOS(t)
	m := Default()
	p, err := o.Call("malloc", []int64{64})
	if err != nil || p == 0 {
		t.Fatalf("malloc: %v", err)
	}
	m.Lookup("malloc").Compensate(o, Call{Name: "malloc", Args: []int64{64}, Ret: p}, nil)
	if o.Heap().SizeOf(p) >= 0 {
		t.Fatal("compensation did not free the block")
	}
}

func TestCompensateOpenClosesFD(t *testing.T) {
	o := newOS(t)
	o.FS().Add("/f", []byte("x"))
	if err := o.Space.WriteBytes(mem.GlobalBase, append([]byte("/f"), 0)); err != nil {
		t.Fatal(err)
	}
	fd, err := o.Call("open", []int64{mem.GlobalBase, libsim.ORdOnly})
	if err != nil || fd < 0 {
		t.Fatalf("open: %d, %v", fd, err)
	}
	Default().Lookup("open").Compensate(o, Call{Name: "open", Ret: fd}, nil)
	if o.OpenFDs() != 0 {
		t.Fatalf("OpenFDs = %d after compensation", o.OpenFDs())
	}
}

func TestCompensateBindReleasesPort(t *testing.T) {
	o := newOS(t)
	s, _ := o.Call("socket", nil)
	if r, _ := o.Call("bind", []int64{s, 8080}); r != 0 {
		t.Fatal("bind failed")
	}
	Default().Lookup("bind").Compensate(o, Call{Name: "bind", Args: []int64{s, 8080}, Ret: 0}, nil)
	if o.ListenerOn(8080) != nil {
		t.Fatal("port still bound after compensation")
	}
	// The fd itself must remain open for the app's error handler to close.
	if o.OpenFDs() != 1 {
		t.Fatalf("OpenFDs = %d, want 1", o.OpenFDs())
	}
}

func TestCompensateSetsockoptRestoresValue(t *testing.T) {
	o := newOS(t)
	s, _ := o.Call("socket", nil)
	if _, err := o.Call("setsockopt", []int64{s, 2, 10}); err != nil {
		t.Fatal(err)
	}
	e := Default().Lookup("setsockopt")
	c := Call{Name: "setsockopt", Args: []int64{s, 2, 99}}
	aux := e.Capture(o, c)
	if _, err := o.Call("setsockopt", []int64{s, 2, 99}); err != nil {
		t.Fatal(err)
	}
	c.Ret = 0
	e.Compensate(o, c, aux)
	v, _ := o.Call("getsockopt", []int64{s, 2})
	if v != 10 {
		t.Fatalf("option value = %d after compensation, want 10", v)
	}
}

func TestCompensateReadPushesBytesBack(t *testing.T) {
	o := newOS(t)
	s, _ := o.Call("socket", nil)
	_, _ = o.Call("bind", []int64{s, 80})
	_, _ = o.Call("listen", []int64{s, 4})
	conn := o.Connect(80)
	conn.ClientDeliver([]byte("abc"))
	fd, _ := o.Call("accept", []int64{s})
	n, _ := o.Call("read", []int64{fd, mem.GlobalBase, 64})
	if n != 3 {
		t.Fatalf("read = %d", n)
	}
	e := Default().Lookup("read")
	e.Compensate(o, Call{Name: "read", Args: []int64{fd, mem.GlobalBase, 64}, Ret: n}, nil)
	// Bytes must be readable again.
	n2, _ := o.Call("read", []int64{fd, mem.GlobalBase + 0x100, 64})
	if n2 != 3 {
		t.Fatalf("re-read = %d, want 3", n2)
	}
}

func TestCompensateLseekRestoresOffset(t *testing.T) {
	o := newOS(t)
	o.FS().Add("/f", []byte("0123456789"))
	if err := o.Space.WriteBytes(mem.GlobalBase, append([]byte("/f"), 0)); err != nil {
		t.Fatal(err)
	}
	fd, _ := o.Call("open", []int64{mem.GlobalBase, libsim.ORdOnly})
	if _, err := o.Call("lseek", []int64{fd, 3, libsim.SeekSet}); err != nil {
		t.Fatal(err)
	}
	e := Default().Lookup("lseek")
	c := Call{Name: "lseek", Args: []int64{fd, 8, libsim.SeekSet}}
	aux := e.Capture(o, c)
	if _, err := o.Call("lseek", []int64{fd, 8, libsim.SeekSet}); err != nil {
		t.Fatal(err)
	}
	c.Ret = 8
	e.Compensate(o, c, aux)
	pos, _ := o.Call("lseek", []int64{fd, 0, libsim.SeekCur})
	if pos != 3 {
		t.Fatalf("offset = %d after compensation, want 3", pos)
	}
}

func TestCompensateEpollCtl(t *testing.T) {
	o := newOS(t)
	ep, _ := o.Call("epoll_create", nil)
	s, _ := o.Call("socket", nil)
	if _, err := o.Call("epoll_ctl", []int64{ep, libsim.EpollCtlAdd, s}); err != nil {
		t.Fatal(err)
	}
	e := Default().Lookup("epoll_ctl")
	e.Compensate(o, Call{Name: "epoll_ctl", Args: []int64{ep, libsim.EpollCtlAdd, s}, Ret: 0}, nil)
	// After compensation (DEL), re-adding must succeed and the watch set
	// must behave as if never added: bind+listen, connect, epoll_wait
	// should block because s is no longer watched.
	_, _ = o.Call("bind", []int64{s, 80})
	_, _ = o.Call("listen", []int64{s, 4})
	o.Connect(80)
	_, err := o.Call("epoll_wait", []int64{ep, mem.GlobalBase, 8})
	if err != libsim.ErrBlocked {
		t.Fatalf("epoll_wait after compensation: %v, want ErrBlocked", err)
	}
}

func TestEveryDivertableRecoverableHasErrorSpec(t *testing.T) {
	m := Default()
	for _, name := range m.Names() {
		e := m.Lookup(name)
		if !e.Injectable() {
			continue
		}
		// Every injectable function must document a failure mode: either
		// an errno (with any return value, e.g. malloc returns 0) or an
		// errno-direct return.
		if e.Errno == 0 && !e.ErrnoDirect {
			t.Errorf("%s is injectable but has no errno spec", name)
		}
	}
}

func TestEveryImplementedCallHasModelEntry(t *testing.T) {
	// Every function libsim implements must be classified so the
	// transform pass never meets an unknown call in the example apps.
	m := Default()
	for _, name := range []string{
		"malloc", "calloc", "realloc", "posix_memalign", "free", "mmap",
		"munmap", "memset", "memcpy", "strlen", "strcmp", "strncmp",
		"strcpy", "atoi", "socket", "setsockopt", "getsockopt", "bind",
		"listen", "accept", "read", "recv", "write", "send", "close",
		"shutdown", "fcntl", "epoll_create", "epoll_ctl", "epoll_wait",
		"open", "open64", "fstat", "stat", "pread", "pwrite", "lseek",
		"unlink", "rename", "fsync", "getpid", "time", "clock_gettime",
		"gettimeofday", "usleep", "puts", "printf", "putint",
		"arena_alloc", "arena_reset",
	} {
		if m.Lookup(name) == nil {
			t.Errorf("no model entry for implemented call %q", name)
		}
	}
}

func TestDefaultMaskedReclassifiesSocketWrites(t *testing.T) {
	m := DefaultMasked()
	for _, name := range []string{"write", "send"} {
		e := m.Lookup(name)
		if e == nil || !e.Injectable() {
			t.Errorf("%s not injectable under the masked model", name)
			continue
		}
		if e.Class != StateRestore || e.Errno != libsim.EPIPE {
			t.Errorf("%s = class %v errno %d", name, e.Class, e.Errno)
		}
	}
	// The conservative model is untouched.
	if Default().Lookup("write").Injectable() {
		t.Error("Default model mutated by DefaultMasked")
	}
	// Other irrecoverables stay irrecoverable.
	if m.Lookup("fsync").Injectable() || m.Lookup("rename").Injectable() {
		t.Error("masking leaked beyond write/send")
	}
}

func TestMaskedWriteCompensationRetractsBytes(t *testing.T) {
	o := newOS(t)
	s, _ := o.Call("socket", nil)
	_, _ = o.Call("bind", []int64{s, 80})
	_, _ = o.Call("listen", []int64{s, 4})
	conn := o.Connect(80)
	fd, _ := o.Call("accept", []int64{s})

	if err := o.Space.WriteBytes(mem.GlobalBase, []byte("prefix|secret")); err != nil {
		t.Fatal(err)
	}
	// An earlier committed write stays; the masked one is retracted.
	if _, err := o.Call("write", []int64{fd, mem.GlobalBase, 7}); err != nil {
		t.Fatal(err)
	}
	e := DefaultMasked().Lookup("write")
	c := Call{Name: "write", Args: []int64{fd, mem.GlobalBase + 7, 6}}
	aux := e.Capture(o, c)
	if _, err := o.Call("write", []int64{fd, mem.GlobalBase + 7, 6}); err != nil {
		t.Fatal(err)
	}
	c.Ret = 6
	e.Compensate(o, c, aux)
	if got := string(conn.ClientTake()); got != "prefix|" {
		t.Fatalf("client sees %q after compensation, want only the committed prefix", got)
	}
}

func TestMaskedWriteOnFileIsNoopCompensation(t *testing.T) {
	o := newOS(t)
	o.FS().Add("/f", nil)
	if err := o.Space.WriteBytes(mem.GlobalBase, append([]byte("/f"), 0)); err != nil {
		t.Fatal(err)
	}
	fd, _ := o.Call("open", []int64{mem.GlobalBase, libsim.OWrOnly})
	if err := o.Space.WriteBytes(mem.GlobalBase+0x40, []byte("data")); err != nil {
		t.Fatal(err)
	}
	e := DefaultMasked().Lookup("write")
	c := Call{Name: "write", Args: []int64{fd, mem.GlobalBase + 0x40, 4}}
	aux := e.Capture(o, c)
	if aux != nil {
		t.Fatalf("Capture on a file descriptor = %v, want nil (not maskable)", aux)
	}
	if _, err := o.Call("write", []int64{fd, mem.GlobalBase + 0x40, 4}); err != nil {
		t.Fatal(err)
	}
	c.Ret = 4
	e.Compensate(o, c, aux) // must not panic or touch the file
	if f := o.FS().Lookup("/f"); string(f.Data) != "data" {
		t.Fatalf("file data = %q", f.Data)
	}
}

// TestEntriesByIDMatchByName: in each model, every entry is reachable by
// its library ID and by its name, as the same *Entry, and Lookup of a
// name is the lookup of its ID.
func TestEntriesByIDMatchByName(t *testing.T) {
	for _, c := range []struct {
		name string
		m    *Model
	}{{"Default", Default()}, {"DefaultMasked", DefaultMasked()}} {
		names := c.m.Names()
		if len(names) < 101 {
			t.Fatalf("%s: %d entries", c.name, len(names))
		}
		for _, name := range names {
			id := libsim.Lookup(name)
			e := c.m.Lookup(name)
			if id == libsim.NoFunc || e == nil || e.Name != name || c.m.Entry(id) != e {
				t.Errorf("%s: %s has ID %d, entry by name %p, by ID %p", c.name, name, id, e, c.m.Entry(id))
			}
		}
		if c.m.Entry(libsim.NoFunc) != nil || c.m.Lookup("no_such_call") != nil {
			t.Errorf("%s: an unknown function has an entry", c.name)
		}
	}
}

// TestModelsBuildConcurrently: models built on several goroutines at once
// declare their names into libsim's shared symbol table; every build
// sees one ID per name.
func TestModelsBuildConcurrently(t *testing.T) {
	const builders = 8
	models := make([]*Model, builders)
	var wg sync.WaitGroup
	for i := range models {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				models[i] = Default()
			} else {
				models[i] = DefaultMasked()
			}
		}(i)
	}
	wg.Wait()
	for i, m := range models {
		for _, name := range m.Names() {
			if e := m.Entry(libsim.Lookup(name)); e == nil || e.Name != name {
				t.Errorf("model %d: %s resolves to %+v", i, name, e)
			}
		}
	}
}
