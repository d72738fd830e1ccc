package libsim

import (
	"errors"
	"testing"

	"github.com/firestarter-go/firestarter/internal/mem"
)

func newOS(t *testing.T) *OS {
	t.Helper()
	s := mem.NewSpace()
	if err := s.Map(mem.GlobalBase, 1<<16); err != nil {
		t.Fatal(err)
	}
	return New(s)
}

// putStr writes a C string into the global segment and returns its address.
func putStr(t *testing.T, o *OS, off int64, s string) int64 {
	t.Helper()
	addr := mem.GlobalBase + off
	if err := o.Space.WriteBytes(addr, append([]byte(s), 0)); err != nil {
		t.Fatal(err)
	}
	return addr
}

func call(t *testing.T, o *OS, name string, args ...int64) int64 {
	t.Helper()
	v, err := o.Call(name, args)
	if err != nil {
		t.Fatalf("%s%v: %v", name, args, err)
	}
	return v
}

func TestMallocFree(t *testing.T) {
	o := newOS(t)
	p := call(t, o, "malloc", 100)
	if p == 0 {
		t.Fatal("malloc returned 0")
	}
	if err := o.Space.Store(p+50, 7, 8); err != nil {
		t.Fatalf("allocated memory not writable: %v", err)
	}
	call(t, o, "free", p)
	if o.Heap().LiveBytes() != 0 {
		t.Errorf("LiveBytes = %d after free", o.Heap().LiveBytes())
	}
}

func TestFreeNullIsNoop(t *testing.T) {
	o := newOS(t)
	call(t, o, "free", 0)
}

func TestWildFreeIsCorruption(t *testing.T) {
	o := newOS(t)
	_, err := o.Call("free", []int64{0x1234})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wild free: err = %v, want ErrCorrupt", err)
	}
}

func TestDoubleFreeIsCorruption(t *testing.T) {
	o := newOS(t)
	p := call(t, o, "malloc", 64)
	call(t, o, "free", p)
	_, err := o.Call("free", []int64{p})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("double free: err = %v, want ErrCorrupt", err)
	}
}

func TestHeapReuseAndCoalesce(t *testing.T) {
	o := newOS(t)
	h := o.Heap()
	a := h.Alloc(64)
	b := h.Alloc(64)
	c := h.Alloc(64)
	h.Free(a)
	h.Free(c)
	if h.FreeListLen() != 2 {
		t.Fatalf("free list = %d spans, want 2 (non-adjacent)", h.FreeListLen())
	}
	h.Free(b)
	if h.FreeListLen() != 1 {
		t.Fatalf("free list = %d spans after coalescing, want 1", h.FreeListLen())
	}
	d := h.Alloc(192)
	if d != a {
		t.Errorf("coalesced span not reused: got %#x, want %#x", d, a)
	}
}

func TestCallocZeroesRecycledMemory(t *testing.T) {
	o := newOS(t)
	p := call(t, o, "malloc", 64)
	if err := o.Space.Store(p, -1, 8); err != nil {
		t.Fatal(err)
	}
	call(t, o, "free", p)
	q := call(t, o, "calloc", 8, 8)
	if q != p {
		t.Fatalf("expected recycled chunk %#x, got %#x", p, q)
	}
	v, _ := o.Space.Load(q, 8)
	if v != 0 {
		t.Fatalf("calloc memory not zeroed: %#x", v)
	}
}

func TestReallocPreservesData(t *testing.T) {
	o := newOS(t)
	p := call(t, o, "malloc", 16)
	if err := o.Space.Store(p, 0xdeadbeef, 8); err != nil {
		t.Fatal(err)
	}
	q := call(t, o, "realloc", p, 256)
	if q == 0 {
		t.Fatal("realloc failed")
	}
	v, _ := o.Space.Load(q, 8)
	if v != 0xdeadbeef {
		t.Fatalf("realloc lost data: %#x", v)
	}
}

func TestPosixMemalign(t *testing.T) {
	o := newOS(t)
	out := int64(mem.GlobalBase + 0x100)
	r := call(t, o, "posix_memalign", out, 4096, 100)
	if r != 0 {
		t.Fatalf("posix_memalign = %d", r)
	}
	p, _ := o.Space.Load(out, 8)
	if p == 0 || p%4096 != 0 {
		t.Fatalf("pointer %#x not 4096-aligned", p)
	}
}

func TestOOMInjection(t *testing.T) {
	o := newOS(t)
	o.OOMAfter = 3
	if call(t, o, "malloc", 8) == 0 {
		t.Fatal("alloc 1 failed early")
	}
	if call(t, o, "malloc", 8) == 0 {
		t.Fatal("alloc 2 failed early")
	}
	if p := call(t, o, "malloc", 8); p != 0 {
		t.Fatalf("alloc 3 should fail, got %#x", p)
	}
	if o.Errno != ENOMEM {
		t.Errorf("errno = %d, want ENOMEM", o.Errno)
	}
}

func TestSocketLifecycle(t *testing.T) {
	o := newOS(t)
	s := call(t, o, "socket")
	if r := call(t, o, "setsockopt", s, 2, 1); r != 0 {
		t.Fatalf("setsockopt = %d", r)
	}
	if r := call(t, o, "bind", s, 8080); r != 0 {
		t.Fatalf("bind = %d", r)
	}
	if r := call(t, o, "listen", s, 16); r != 0 {
		t.Fatalf("listen = %d", r)
	}
	// Second bind to the same port: EADDRINUSE, per the paper's Listing 1.
	s2 := call(t, o, "socket")
	if r := call(t, o, "bind", s2, 8080); r != -1 {
		t.Fatalf("second bind = %d, want -1", r)
	}
	if o.Errno != EADDRINUSE {
		t.Errorf("errno = %d, want EADDRINUSE", o.Errno)
	}
	// Closing the first socket frees the port.
	call(t, o, "close", s)
	if r := call(t, o, "bind", s2, 8080); r != 0 {
		t.Fatalf("bind after close = %d", r)
	}
}

func TestAcceptReadWrite(t *testing.T) {
	o := newOS(t)
	s := call(t, o, "socket")
	call(t, o, "bind", s, 80)
	call(t, o, "listen", s, 16)

	if r := call(t, o, "accept", s); r != -1 || o.Errno != EAGAIN {
		t.Fatalf("accept on empty queue = %d errno=%d", r, o.Errno)
	}

	c := o.Connect(80)
	if c == nil {
		t.Fatal("Connect failed")
	}
	c.ClientDeliver([]byte("GET / HTTP/1.1\r\n\r\n"))

	fd := call(t, o, "accept", s)
	if fd < 0 {
		t.Fatalf("accept = %d", fd)
	}
	buf := int64(mem.GlobalBase + 0x1000)
	n := call(t, o, "read", fd, buf, 1024)
	if n != 18 {
		t.Fatalf("read = %d, want 18", n)
	}
	got, _ := o.Space.ReadBytes(buf, n)
	if string(got) != "GET / HTTP/1.1\r\n\r\n" {
		t.Fatalf("read data = %q", got)
	}

	resp := putStr(t, o, 0x2000, "HTTP/1.1 200 OK\r\n")
	if w := call(t, o, "write", fd, resp, 17); w != 17 {
		t.Fatalf("write = %d", w)
	}
	if string(c.ClientTake()) != "HTTP/1.1 200 OK\r\n" {
		t.Fatal("client did not receive response")
	}
}

func TestReadEOFAfterClientClose(t *testing.T) {
	o := newOS(t)
	s := call(t, o, "socket")
	call(t, o, "bind", s, 80)
	call(t, o, "listen", s, 4)
	c := o.Connect(80)
	fd := call(t, o, "accept", s)
	buf := int64(mem.GlobalBase + 0x1000)

	if r := call(t, o, "read", fd, buf, 64); r != -1 || o.Errno != EAGAIN {
		t.Fatalf("read with no data = %d errno=%d", r, o.Errno)
	}
	c.ClientClose()
	if r := call(t, o, "read", fd, buf, 64); r != 0 {
		t.Fatalf("read after FIN = %d, want 0 (EOF)", r)
	}
}

func TestUnreadCompensation(t *testing.T) {
	o := newOS(t)
	s := call(t, o, "socket")
	call(t, o, "bind", s, 80)
	call(t, o, "listen", s, 4)
	c := o.Connect(80)
	c.ClientDeliver([]byte("hello"))
	fd := call(t, o, "accept", s)
	buf := int64(mem.GlobalBase + 0x1000)
	call(t, o, "read", fd, buf, 64)

	rec := o.LastRead()
	if rec == nil || string(rec.Data) != "hello" {
		t.Fatalf("LastRead = %+v", rec)
	}
	if !o.Unread(fd, rec.Data) {
		t.Fatal("Unread failed")
	}
	if n := call(t, o, "read", fd, buf, 64); n != 5 {
		t.Fatalf("re-read after Unread = %d", n)
	}
}

func TestEpoll(t *testing.T) {
	o := newOS(t)
	s := call(t, o, "socket")
	call(t, o, "bind", s, 80)
	call(t, o, "listen", s, 4)
	ep := call(t, o, "epoll_create")
	call(t, o, "epoll_ctl", ep, EpollCtlAdd, s)

	evbuf := int64(mem.GlobalBase + 0x3000)
	if _, err := o.Call("epoll_wait", []int64{ep, evbuf, 8}); !errors.Is(err, ErrBlocked) {
		t.Fatalf("epoll_wait with nothing ready: %v, want ErrBlocked", err)
	}

	o.Connect(80)
	n := call(t, o, "epoll_wait", ep, evbuf, 8)
	if n != 1 {
		t.Fatalf("epoll_wait = %d, want 1", n)
	}
	fd0, _ := o.Space.Load(evbuf, 8)
	if fd0 != s {
		t.Fatalf("ready fd = %d, want %d", fd0, s)
	}

	call(t, o, "epoll_ctl", ep, EpollCtlDel, s)
	if _, err := o.Call("epoll_wait", []int64{ep, evbuf, 8}); !errors.Is(err, ErrBlocked) {
		t.Fatalf("epoll_wait after del: %v, want ErrBlocked", err)
	}
}

func TestFileIO(t *testing.T) {
	o := newOS(t)
	o.FS().Add("/www/index.html", []byte("<html>hi</html>"))

	path := putStr(t, o, 0, "/www/index.html")
	fd := call(t, o, "open", path, ORdOnly)
	if fd < 0 {
		t.Fatalf("open = %d", fd)
	}
	statBuf := int64(mem.GlobalBase + 0x500)
	call(t, o, "fstat", fd, statBuf)
	size, _ := o.Space.Load(statBuf, 8)
	if size != 15 {
		t.Fatalf("fstat size = %d, want 15", size)
	}
	buf := int64(mem.GlobalBase + 0x600)
	n := call(t, o, "pread", fd, buf, 1024, 6)
	if n != 9 {
		t.Fatalf("pread = %d, want 9", n)
	}
	got, _ := o.Space.ReadBytes(buf, n)
	if string(got) != "hi</html>" {
		t.Fatalf("pread data = %q", got)
	}
	call(t, o, "close", fd)
	if o.OpenFDs() != 0 {
		t.Errorf("OpenFDs = %d after close", o.OpenFDs())
	}
}

func TestOpenMissingAndCreate(t *testing.T) {
	o := newOS(t)
	path := putStr(t, o, 0, "/nope")
	if r := call(t, o, "open", path, ORdOnly); r != -1 || o.Errno != ENOENT {
		t.Fatalf("open missing = %d errno=%d", r, o.Errno)
	}
	fd := call(t, o, "open", path, OCreat|OWrOnly)
	if fd < 0 {
		t.Fatalf("open O_CREAT = %d", fd)
	}
	data := putStr(t, o, 0x100, "wal-entry")
	call(t, o, "write", fd, data, 9)
	if f := o.FS().Lookup("/nope"); f == nil || string(f.Data) != "wal-entry" {
		t.Fatalf("file content = %+v", f)
	}
	if len(o.FS().WriteLog) == 0 {
		t.Error("WriteLog empty after external-effect ops")
	}
}

func TestUnlinkRenameFsync(t *testing.T) {
	o := newOS(t)
	o.FS().Add("/a", []byte("x"))
	a := putStr(t, o, 0, "/a")
	b := putStr(t, o, 0x40, "/b")
	if r := call(t, o, "rename", a, b); r != 0 {
		t.Fatalf("rename = %d", r)
	}
	if o.FS().Lookup("/b") == nil || o.FS().Lookup("/a") != nil {
		t.Fatal("rename did not move the file")
	}
	fd := call(t, o, "open", b, ORdWr)
	if r := call(t, o, "fsync", fd); r != 0 {
		t.Fatalf("fsync = %d", r)
	}
	if r := call(t, o, "unlink", b); r != 0 {
		t.Fatalf("unlink = %d", r)
	}
	if r := call(t, o, "unlink", b); r != -1 || o.Errno != ENOENT {
		t.Fatalf("second unlink = %d errno=%d", r, o.Errno)
	}
}

func TestStringHelpers(t *testing.T) {
	o := newOS(t)
	a := putStr(t, o, 0, "hello")
	b := putStr(t, o, 0x40, "help")
	if n := call(t, o, "strlen", a); n != 5 {
		t.Errorf("strlen = %d", n)
	}
	if r := call(t, o, "strcmp", a, a); r != 0 {
		t.Errorf("strcmp equal = %d", r)
	}
	if r := call(t, o, "strcmp", a, b); r >= 0 {
		t.Errorf("strcmp(hello, help) = %d, want negative", r)
	}
	if r := call(t, o, "strncmp", a, b, 3); r != 0 {
		t.Errorf("strncmp 3 = %d", r)
	}
	dst := int64(mem.GlobalBase + 0x80)
	call(t, o, "strcpy", dst, a)
	got, _ := o.Space.ReadCString(dst, 32)
	if got != "hello" {
		t.Errorf("strcpy = %q", got)
	}
	num := putStr(t, o, 0xc0, "-473x")
	if v := call(t, o, "atoi", num); v != -473 {
		t.Errorf("atoi = %d", v)
	}
}

func TestMemsetMemcpyThroughStoreFunc(t *testing.T) {
	o := newOS(t)
	var stores int
	o.SetStore(func(addr int64, data []byte) (int, error) {
		units, err := o.Space.StoreRange(addr, data)
		stores += units
		return units, err
	})
	dst := int64(mem.GlobalBase + 0x100)
	call(t, o, "memset", dst, 'A', 10)
	// Word-granular instrumentation: one 8-byte unit plus two tail bytes.
	if stores != 3 {
		t.Errorf("memset issued %d tracked store units, want 3", stores)
	}
	got, _ := o.Space.ReadBytes(dst, 10)
	if string(got) != "AAAAAAAAAA" {
		t.Errorf("memset result = %q", got)
	}
	src := putStr(t, o, 0x200, "0123456789")
	stores = 0
	call(t, o, "memcpy", dst, src, 10)
	if stores != 3 {
		t.Errorf("memcpy issued %d tracked store units, want 3", stores)
	}
	o.SetStore(nil) // restore direct stores
	call(t, o, "memset", dst, 'B', 4)
	got, _ = o.Space.ReadBytes(dst, 10)
	if string(got) != "BBBB456789" {
		t.Errorf("after direct memset = %q", got)
	}
}

// TestMemcpyOverlapSmearsForward pins memcpy's behaviour when dst lies in
// (src, src+n): it is a forward copy of store units, each loading its
// source after the previous units stored, so the head of the source is
// smeared forward rather than moved as by memmove.
func TestMemcpyOverlapSmearsForward(t *testing.T) {
	o := newOS(t)
	src := putStr(t, o, 0x300, "ABCDEFGHIJKLMNOPQRSTUVWXYZ")
	call(t, o, "memcpy", src+3, src, 20)
	if got, _ := o.Space.ReadBytes(src, 26); string(got) != "ABCABCDEFGHFGHLMNOPNOPNXYZ" {
		t.Errorf("overlapping memcpy left %q", got)
	}

	// Longer copies cross chunk and page boundaries; compare with a model
	// of the per-unit forward copy.
	for _, c := range []struct{ d, n int }{{1, 13}, {5, 40}, {8, 100}, {13, 5000}, {100, 9000}, {4097, 9000}, {-9, 300}} {
		o := newOS(t)
		image := make([]byte, 1<<16)
		for i := range image {
			image[i] = byte(i*7 + i>>8)
		}
		if err := o.Space.WriteBytes(mem.GlobalBase, image); err != nil {
			t.Fatal(err)
		}
		srcOff := 0x1000 + 3
		call(t, o, "memcpy", mem.GlobalBase+int64(srcOff+c.d), mem.GlobalBase+int64(srcOff), int64(c.n))
		forwardUnitCopy(image, srcOff+c.d, srcOff, c.n)
		if got, _ := o.Space.ReadBytes(mem.GlobalBase, int64(len(image))); string(got) != string(image) {
			t.Errorf("memcpy(src%+d, src, %d) differs from the per-unit forward copy", c.d, c.n)
		}
	}
}

// forwardUnitCopy is the per-unit memcpy over a byte image: 8-byte words,
// then tail bytes, each loaded after the previous units stored.
func forwardUnitCopy(m []byte, dst, src, n int) {
	i := 0
	for ; i+8 <= n; i += 8 {
		var w [8]byte
		copy(w[:], m[src+i:])
		copy(m[dst+i:], w[:])
	}
	for ; i < n; i++ {
		m[dst+i] = m[src+i]
	}
}

func TestDeferFreeHook(t *testing.T) {
	o := newOS(t)
	p := call(t, o, "malloc", 32)
	deferred := []int64{}
	o.SetDeferFree(func(addr int64) bool {
		deferred = append(deferred, addr)
		return true
	})
	call(t, o, "free", p)
	if len(deferred) != 1 || deferred[0] != p {
		t.Fatalf("deferred = %v", deferred)
	}
	if o.Heap().SizeOf(p) < 0 {
		t.Fatal("chunk freed despite deferral")
	}
	o.SetDeferFree(nil)
	call(t, o, "free", p)
	if o.Heap().SizeOf(p) >= 0 {
		t.Fatal("chunk not freed after hook removed")
	}
}

func TestMiscCalls(t *testing.T) {
	o := newOS(t)
	if v := call(t, o, "getpid"); v != o.Pid() {
		t.Errorf("getpid = %d", v)
	}
	t0 := call(t, o, "clock_gettime")
	t1 := call(t, o, "clock_gettime")
	if t1 <= t0 {
		t.Errorf("clock not monotonic: %d then %d", t0, t1)
	}
	msg := putStr(t, o, 0, "boot ok")
	call(t, o, "puts", msg)
	call(t, o, "putint", 42)
	if o.Stdout() != "boot ok\n42" {
		t.Errorf("stdout = %q", o.Stdout())
	}
}

func TestUnknownCall(t *testing.T) {
	o := newOS(t)
	if _, err := o.Call("fork", nil); err == nil {
		t.Fatal("unknown call should error")
	}
	if Known("fork") {
		t.Error("Known(fork) = true")
	}
	if !Known("malloc") {
		t.Error("Known(malloc) = false")
	}
}

func TestBadFDErrors(t *testing.T) {
	o := newOS(t)
	cases := [][]any{
		{"bind", []int64{99, 80}},
		{"listen", []int64{99, 4}},
		{"accept", []int64{99}},
		{"read", []int64{99, 0, 0}},
		{"write", []int64{99, 0, 0}},
		{"close", []int64{99}},
		{"fstat", []int64{99, 0}},
		{"epoll_ctl", []int64{99, EpollCtlAdd, 1}},
	}
	for _, c := range cases {
		name := c[0].(string)
		args := c[1].([]int64)
		o.Errno = 0
		r, err := o.Call(name, args)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r != -1 || o.Errno != EBADF {
			t.Errorf("%s(bad fd) = %d errno=%d, want -1/EBADF", name, r, o.Errno)
		}
	}
}

func TestFcntlNonblock(t *testing.T) {
	o := newOS(t)
	s := call(t, o, "socket")
	if r := call(t, o, "fcntl", s, FSetFl, 1); r != 0 {
		t.Fatalf("fcntl F_SETFL = %d", r)
	}
	if r := call(t, o, "fcntl", s, FGetFl, 0); r != 1 {
		t.Fatalf("fcntl F_GETFL = %d, want 1", r)
	}
}

func TestLseek(t *testing.T) {
	o := newOS(t)
	o.FS().Add("/f", []byte("0123456789"))
	path := putStr(t, o, 0, "/f")
	fd := call(t, o, "open", path, ORdOnly)
	if r := call(t, o, "lseek", fd, 4, SeekSet); r != 4 {
		t.Fatalf("lseek SET = %d", r)
	}
	if r := call(t, o, "lseek", fd, 2, SeekCur); r != 6 {
		t.Fatalf("lseek CUR = %d", r)
	}
	if r := call(t, o, "lseek", fd, -1, SeekEnd); r != 9 {
		t.Fatalf("lseek END = %d", r)
	}
	buf := int64(mem.GlobalBase + 0x100)
	if n := call(t, o, "read", fd, buf, 8); n != 1 {
		t.Fatalf("read after seek = %d", n)
	}
}

func TestMmapMunmap(t *testing.T) {
	o := newOS(t)
	p := call(t, o, "mmap", 8192)
	if p <= 0 || p%mem.PageSize != 0 {
		t.Fatalf("mmap = %#x", p)
	}
	if err := o.Space.Store(p+4096, 1, 8); err != nil {
		t.Fatalf("mapped memory not writable: %v", err)
	}
	if r := call(t, o, "munmap", p, 8192); r != 0 {
		t.Fatalf("munmap = %d", r)
	}
	if r := call(t, o, "munmap", p, 8192); r != -1 || o.Errno != EINVAL {
		t.Fatalf("double munmap = %d errno=%d", r, o.Errno)
	}
}
