package libsim

import (
	"bytes"
	"strings"
	"testing"

	"github.com/firestarter-go/firestarter/internal/mem"
)

// TestDescriptorTableExhaustionEMFILE exercises the fd-table limit: every
// allocating call fails with EMFILE once 1024 descriptors are live, and a
// single close makes allocation work again (lowest-free-slot reuse).
func TestDescriptorTableExhaustionEMFILE(t *testing.T) {
	o := newOS(t)
	var last int64 = -1
	for i := 0; i < 1024; i++ {
		fd, err := o.Call("socket", nil)
		if err != nil {
			t.Fatalf("socket #%d: %v", i, err)
		}
		if fd < 0 {
			break
		}
		last = fd
	}
	if last < 0 {
		t.Fatal("no descriptors allocated at all")
	}
	fd := call(t, o, "socket")
	if fd != -1 {
		t.Fatalf("socket beyond the table limit returned %d, want -1", fd)
	}
	if o.Errno != EMFILE {
		t.Fatalf("errno = %d, want EMFILE (%d)", o.Errno, EMFILE)
	}
	// epoll_create and open allocate from the same table.
	if fd := call(t, o, "epoll_create"); fd != -1 || o.Errno != EMFILE {
		t.Fatalf("epoll_create at the limit: fd=%d errno=%d, want -1/EMFILE", fd, o.Errno)
	}
	call(t, o, "close", last)
	if fd := call(t, o, "socket"); fd != last {
		t.Fatalf("after close, socket = %d, want reused slot %d", fd, last)
	}
}

// resetConn builds a listener, connects a client, accepts it server-side,
// and returns the accepted fd plus the client end.
func resetConn(t *testing.T) (*OS, int64, *Conn) {
	t.Helper()
	o := newOS(t)
	s := call(t, o, "socket")
	if r := call(t, o, "bind", s, 9000); r != 0 {
		t.Fatalf("bind: %d (errno %d)", r, o.Errno)
	}
	if r := call(t, o, "listen", s, 8); r != 0 {
		t.Fatalf("listen: %d (errno %d)", r, o.Errno)
	}
	c := o.Connect(9000)
	if c == nil {
		t.Fatal("Connect returned nil")
	}
	fd := call(t, o, "accept", s)
	if fd < 0 {
		t.Fatalf("accept: %d (errno %d)", fd, o.Errno)
	}
	return o, fd, c
}

// TestReadAfterClientResetECONNRESET: an RST (client close with unread
// data / SO_LINGER 0) discards queued inbound bytes and makes the peer's
// reads fail with ECONNRESET — not the graceful drain-then-EOF of a FIN.
func TestReadAfterClientResetECONNRESET(t *testing.T) {
	o, fd, c := resetConn(t)
	c.ClientDeliver([]byte("half a request"))
	c.ClientReset()
	buf := putStr(t, o, 0, "xxxxxxxxxxxxxxxx")
	n := call(t, o, "read", fd, buf, 16)
	if n != -1 {
		t.Fatalf("read on reset connection = %d, want -1", n)
	}
	if o.Errno != ECONNRESET {
		t.Fatalf("errno = %d, want ECONNRESET (%d)", o.Errno, ECONNRESET)
	}
	if c.InboundLen() != 0 {
		t.Fatalf("%d queued bytes survived the reset", c.InboundLen())
	}
	// A reset connection still counts as readable so epoll reports it and
	// the server learns of the error instead of waiting forever.
	if !c.Readable() {
		t.Fatal("reset connection not readable")
	}
}

// TestWriteAfterClientResetECONNRESET: writes to a reset peer fail with
// ECONNRESET (the first failure is ECONNRESET; EPIPE is for FIN'd peers).
func TestWriteAfterClientResetECONNRESET(t *testing.T) {
	o, fd, c := resetConn(t)
	c.ClientReset()
	buf := putStr(t, o, 0, "response")
	n := call(t, o, "write", fd, buf, 8)
	if n != -1 {
		t.Fatalf("write on reset connection = %d, want -1", n)
	}
	if o.Errno != ECONNRESET {
		t.Fatalf("errno = %d, want ECONNRESET (%d)", o.Errno, ECONNRESET)
	}
}

// TestAcceptEAGAINOnEmptyQueue: accept on a non-blocking listener with an
// empty queue fails immediately with EAGAIN rather than blocking — the
// contract the event loops' accept-until-drained idiom relies on.
func TestAcceptEAGAINOnEmptyQueue(t *testing.T) {
	o := newOS(t)
	s := call(t, o, "socket")
	call(t, o, "bind", s, 9000)
	call(t, o, "listen", s, 8)
	fd := call(t, o, "accept", s)
	if fd != -1 {
		t.Fatalf("accept on empty queue = %d, want -1", fd)
	}
	if o.Errno != EAGAIN {
		t.Fatalf("errno = %d, want EAGAIN (%d)", o.Errno, EAGAIN)
	}
	// Drain exactly one pending connection, then EAGAIN again.
	if c := o.Connect(9000); c == nil {
		t.Fatal("Connect returned nil")
	}
	if fd := call(t, o, "accept", s); fd < 0 {
		t.Fatalf("accept with one pending connection: %d (errno %d)", fd, o.Errno)
	}
	if fd := call(t, o, "accept", s); fd != -1 || o.Errno != EAGAIN {
		t.Fatalf("second accept: fd=%d errno=%d, want -1/EAGAIN", fd, o.Errno)
	}
}

// TestCStringErrorsKeepStdout checks that puts and open report an
// unmapped or unterminated string with ReadCString's errors and leave
// stdout as it was.
func TestCStringErrorsKeepStdout(t *testing.T) {
	o := newOS(t)
	call(t, o, "puts", putStr(t, o, 0, "kept"))
	runOff := int64(mem.GlobalBase + 1<<16 - 8) // no NUL before the unmapped page
	if err := o.Space.WriteBytes(runOff, []byte("xxxxxxxx")); err != nil {
		t.Fatal(err)
	}
	long := putStr(t, o, 1024, strings.Repeat("y", 300)) // past open's limit
	limits := map[string]int{"puts": 4096, "printf": 4096, "open": 256}
	for name, limit := range limits {
		for _, addr := range []int64{runOff, 0x10, long} {
			_, want := o.Space.ReadCString(addr, limit)
			if want == nil {
				continue
			}
			args := []int64{addr}
			if name == "open" {
				args = append(args, ORdOnly)
			}
			if _, got := o.Call(name, args); got == nil || got.Error() != want.Error() {
				t.Errorf("%s(%#x) error %v, want %v", name, addr, got, want)
			}
		}
	}
	if got := o.Stdout(); got != "kept\n" {
		t.Fatalf("stdout = %q after failed prints, want %q", got, "kept\n")
	}
}

// TestFileWritesNeverReachSharedBytes adds one slice to two file systems,
// as every boot's setup does, and writes through one of them: the slice
// and the other file system keep the original bytes, spare capacity
// included, and only the written file changes.
func TestFileWritesNeverReachSharedBytes(t *testing.T) {
	shared := make([]byte, 4, 64)
	copy(shared, "abcd")
	orig := append([]byte(nil), shared[:cap(shared)]...)
	a, b := newOS(t), newOS(t)
	a.FS().Add("/f", shared)
	b.FS().Add("/f", shared)
	path := putStr(t, a, 0, "/f")
	data := putStr(t, a, 64, "XYZ")

	fd := call(t, a, "open", path, ORdWr)
	call(t, a, "pwrite", fd, data, 3, 1) // in place
	call(t, a, "close", fd)
	fd = call(t, a, "open", path, OWrOnly|OAppend)
	call(t, a, "write", fd, data, 3) // grows past the end
	call(t, a, "close", fd)

	if got := string(a.FS().Lookup("/f").Data); got != "aXYZXYZ" {
		t.Fatalf("written file = %q, want %q", got, "aXYZXYZ")
	}
	if got := string(b.FS().Lookup("/f").Data); got != "abcd" {
		t.Fatalf("other file system's file = %q, want %q", got, "abcd")
	}
	if !bytes.Equal(shared[:cap(shared)], orig) {
		t.Fatal("a file write reached the slice the file was added with")
	}
}
