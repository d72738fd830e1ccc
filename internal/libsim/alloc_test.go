package libsim

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/firestarter-go/firestarter/internal/mem"
)

// serveSetup binds a listener and an epoll instance the way the app
// servers do, returning (epfd, lfd, scratch buffer address).
func serveSetup(tb testing.TB, o *OS) (epfd, lfd, buf int64) {
	tb.Helper()
	lfd, err := o.Call("socket", nil)
	if err != nil || lfd < 0 {
		tb.Fatalf("socket: fd=%d err=%v", lfd, err)
	}
	if v, err := o.Call("bind", []int64{lfd, 80}); err != nil || v != 0 {
		tb.Fatalf("bind: v=%d err=%v", v, err)
	}
	if _, err := o.Call("listen", []int64{lfd, 16}); err != nil {
		tb.Fatal(err)
	}
	epfd, err = o.Call("epoll_create", nil)
	if err != nil || epfd < 0 {
		tb.Fatalf("epoll_create: fd=%d err=%v", epfd, err)
	}
	return epfd, lfd, buf
}

// cycleArgs holds pre-built argument slices for one request cycle, so
// the measurement below counts the library's allocations, not the test's
// own `[]int64{...}` literals escaping into the indirect call table.
type cycleArgs struct {
	accept, add, wait, read, write, del, close []int64
}

// requestCycle drives one full request through the library-call surface
// with full connection churn: connect + accept a fresh conn, epoll-watch
// it, read the request, write the response, close and drain it. The fd
// slot and therefore every descriptor number repeats each cycle (lowest
// free slot), which is what lets the caller pre-build the arg slices.
func requestCycle(o *OS, a *cycleArgs) {
	c := o.Connect(80)
	o.Call("accept", a.accept)
	o.Call("epoll_ctl", a.add)
	c.ClientDeliverTraced([]byte("GET /\n"), 7)
	o.Call("epoll_wait", a.wait)
	o.Call("read", a.read)
	o.Call("write", a.write)
	o.Call("epoll_ctl", a.del)
	o.Call("close", a.close)
	c.ClientTake()
}

func newCycle(tb testing.TB) (*OS, *cycleArgs) {
	tb.Helper()
	s := mem.NewSpace()
	if err := s.Map(mem.GlobalBase, 1<<16); err != nil {
		tb.Fatal(err)
	}
	o := New(s)
	epfd, lfd, buf := serveSetup(tb, o)
	buf = mem.GlobalBase

	// One probe cycle to learn the (stable) conn descriptor number.
	c := o.Connect(80)
	cfd, err := o.Call("accept", []int64{lfd})
	if err != nil || cfd < 0 {
		tb.Fatalf("accept: fd=%d err=%v", cfd, err)
	}
	o.Call("close", []int64{cfd})
	c.ClientTake()

	args := &cycleArgs{
		accept: []int64{lfd},
		add:    []int64{epfd, EpollCtlAdd, cfd},
		wait:   []int64{epfd, buf, 8},
		read:   []int64{cfd, buf + 64, 64},
		write:  []int64{cfd, buf + 64, 6},
		del:    []int64{epfd, EpollCtlDel, cfd},
		close:  []int64{cfd},
	}
	// Warm up: size the fd slab, the epoll bitmap, the lastRead buffer
	// and the write scratch.
	for i := 0; i < 4; i++ {
		requestCycle(o, args)
	}
	return o, args
}

// TestRequestCycleAllocFree pins the alloc-count regression contract for
// the per-request path: after warm-up, a full connect/accept/epoll/read/
// write/close cycle performs at most 3 Go allocations — the client-side
// Conn object and its in/out byte queues (inherent connection churn the
// test itself drives: ClientTake takes the outbound storage, so none is
// recycled), never anything per-request on the server side. The accept
// queue rewinds once drained, so it no longer reallocates per conn.
// Before the slab refactor this path also allocated an *FD per accept,
// an epoll map entry per watch, and a ReadRecord plus a fresh data copy
// per read (~4 more objects per cycle); this test fails if any of that
// churn comes back.
func TestRequestCycleAllocFree(t *testing.T) {
	o, args := newCycle(t)
	allocs := testing.AllocsPerRun(200, func() {
		requestCycle(o, args)
	})
	if allocs > 3 {
		t.Fatalf("request cycle allocates %.1f objects/run, want <= 3", allocs)
	}
}

// TestKeepAliveCycleAllocFree pins the steady state of a keep-alive
// connection, the closed-loop driver's shape: the client delivers a
// request, the server reads it and writes a response, and the client
// drains the response into its own reused buffer. Neither socket queue is
// reallocated — the drained inbound queue rewinds to the front of its
// backing array and ClientTakeAppend keeps the outbound one — so a
// request allocates nothing.
func TestKeepAliveCycleAllocFree(t *testing.T) {
	s := mem.NewSpace()
	if err := s.Map(mem.GlobalBase, 1<<16); err != nil {
		t.Fatal(err)
	}
	o := New(s)
	epfd, lfd, _ := serveSetup(t, o)
	buf := int64(mem.GlobalBase)
	c := o.Connect(80)
	cfd, err := o.Call("accept", []int64{lfd})
	if err != nil || cfd < 0 {
		t.Fatalf("accept: fd=%d err=%v", cfd, err)
	}
	if v, err := o.Call("epoll_ctl", []int64{epfd, EpollCtlAdd, cfd}); err != nil || v != 0 {
		t.Fatalf("epoll_ctl: v=%d err=%v", v, err)
	}
	req := []byte("GET /index.html\n")
	a := &cycleArgs{
		wait:  []int64{epfd, buf, 8},
		read:  []int64{cfd, buf + 64, 256},
		write: []int64{cfd, buf + 64, int64(len(req))},
	}
	var got []byte
	cycle := func() {
		c.ClientDeliver(req)
		o.Call("epoll_wait", a.wait)
		o.Call("read", a.read)
		o.Call("write", a.write)
		got = c.ClientTakeAppend(got[:0])
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(200, cycle)
	if string(got) != string(req) {
		t.Fatalf("echoed %q, want %q", got, req)
	}
	if allocs != 0 {
		t.Fatalf("keep-alive cycle allocates %.1f objects/request, want 0", allocs)
	}
}

// TestClientTakeAppendKeepsQueue checks the ownership split between the
// two drains: ClientTakeAppend copies into the caller's buffer and leaves
// the queue's storage with the connection, while ClientTake hands the
// storage itself to the caller.
func TestClientTakeAppendKeepsQueue(t *testing.T) {
	c := NewConn()
	c.ProxyDeliver([]byte("one\n"))
	dst := c.ClientTakeAppend([]byte("x:"))
	if string(dst) != "x:one\n" || c.OutboundLen() != 0 {
		t.Fatalf("ClientTakeAppend = %q (queue %d), want \"x:one\\n\" (queue 0)", dst, c.OutboundLen())
	}
	c.ProxyDeliver([]byte("two\n"))
	if string(dst) != "x:one\n" {
		t.Fatalf("a later write changed the drained copy: %q", dst)
	}
	taken := c.ClientTake()
	c.ProxyDeliver([]byte("three\n"))
	if string(taken) != "two\n" {
		t.Fatalf("a write after ClientTake changed the taken bytes: %q", taken)
	}
}

// TestSlowReaderCycleAllocFree pins the slow-reader steady state: the
// server writes a response and the client drains it three bytes at a
// time until the queue is empty. Partial drains advance the queue's head
// and the full drain rewinds it, so once warm the cycle reuses the same
// storage and allocates nothing.
func TestSlowReaderCycleAllocFree(t *testing.T) {
	s := mem.NewSpace()
	if err := s.Map(mem.GlobalBase, 1<<16); err != nil {
		t.Fatal(err)
	}
	o := New(s)
	_, lfd, _ := serveSetup(t, o)
	buf := int64(mem.GlobalBase)
	c := o.Connect(80)
	cfd, err := o.Call("accept", []int64{lfd})
	if err != nil || cfd < 0 {
		t.Fatalf("accept: fd=%d err=%v", cfd, err)
	}
	resp := []byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello")
	if err := s.WriteBytes(buf+64, resp); err != nil {
		t.Fatal(err)
	}
	write := []int64{cfd, buf + 64, int64(len(resp))}
	taken := 0
	cycle := func() {
		o.Call("write", write)
		for c.OutboundLen() > 0 {
			taken += len(c.ClientTakeN(3))
		}
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(200, cycle)
	if want := (4 + 201) * len(resp); taken != want {
		t.Fatalf("drained %d bytes, want %d", taken, want)
	}
	if allocs != 0 {
		t.Fatalf("slow-reader cycle allocates %.1f objects/response, want 0", allocs)
	}
}

// TestForwardOutKeepsBothQueues checks the proxy relay: ForwardOut
// appends the back's undrained bytes behind the front's backlog, empties
// the back in place, and leaves the two queues independent, so the
// back's next write reuses its storage without changing forwarded bytes.
func TestForwardOutKeepsBothQueues(t *testing.T) {
	back, front := NewConn(), NewConn()
	front.ProxyDeliver([]byte("old:"))
	front.ClientTakeN(2)
	back.ProxyDeliver([]byte("xxresp\n"))
	back.ClientTakeN(2)
	if n := back.ForwardOut(front); n != 5 || back.OutboundLen() != 0 {
		t.Fatalf("ForwardOut = %d (back queue %d), want 5 (0)", n, back.OutboundLen())
	}
	if n := back.ForwardOut(front); n != 0 {
		t.Fatalf("ForwardOut of an empty queue = %d", n)
	}
	if cap(back.out) == 0 {
		t.Fatal("ForwardOut handed the back's storage away")
	}
	back.ProxyDeliver([]byte("next\n"))
	if got := string(front.ClientTake()); got != "d:resp\n" {
		t.Fatalf("front = %q, want \"d:resp\\n\"", got)
	}
}

// takeSink keeps the benchmarked drains from being optimized away.
var takeSink []byte

// BenchmarkClientTakeNBacklog drains a backlog three bytes at a time,
// refilling it when empty; one op is one partial drain. With a
// head-offset queue ns/op does not depend on the backlog size.
func BenchmarkClientTakeNBacklog(b *testing.B) {
	for _, size := range []int{1 << 10, 8 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("backlog=%dKiB", size>>10), func(b *testing.B) {
			c := NewConn()
			backlog := bytes.Repeat([]byte("x"), size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.OutboundLen() == 0 {
					c.ProxyDeliver(backlog)
				}
				takeSink = c.ClientTakeN(3)
			}
		})
	}
}

// BenchmarkRequestCycle measures the slab-allocated per-request library
// path; run with -benchmem to see the allocation count the regression
// test above pins.
func BenchmarkRequestCycle(b *testing.B) {
	o, args := newCycle(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requestCycle(o, args)
	}
}

// churnCycle drives one short connection through the library-call
// surface: connect and accept, one server write, a client drain into its
// own reused buffer, then the client's close and the server's.
func churnCycle(o *OS, a *cycleArgs, got []byte) []byte {
	c := o.Connect(80)
	o.Call("accept", a.accept)
	o.Call("write", a.write)
	got = c.ClientTakeAppend(got[:0])
	c.ClientClose()
	o.Call("close", a.close)
	return got
}

func newChurn(tb testing.TB) (*OS, *cycleArgs) {
	tb.Helper()
	s := mem.NewSpace()
	if err := s.Map(mem.GlobalBase, 1<<16); err != nil {
		tb.Fatal(err)
	}
	o := New(s)
	_, lfd, _ := serveSetup(tb, o)
	buf := int64(mem.GlobalBase)
	resp := bytes.Repeat([]byte("r"), 512)
	if err := s.WriteBytes(buf, resp); err != nil {
		tb.Fatal(err)
	}
	// One probe cycle to learn the (stable) conn descriptor number.
	c := o.Connect(80)
	cfd, err := o.Call("accept", []int64{lfd})
	if err != nil || cfd < 0 {
		tb.Fatalf("accept: fd=%d err=%v", cfd, err)
	}
	c.ClientClose()
	o.Call("close", []int64{cfd})
	a := &cycleArgs{
		accept: []int64{lfd},
		write:  []int64{cfd, buf, int64(len(resp))},
		close:  []int64{cfd},
	}
	var got []byte
	for i := 0; i < 4; i++ {
		got = churnCycle(o, a, got)
	}
	if string(got) != string(resp) {
		tb.Fatalf("drained %d bytes, want the %d-byte response", len(got), len(resp))
	}
	return o, a
}

// TestConnChurnRecyclesQueue pins the connection-churn steady state: each
// cycle opens a conn, writes one response, drains it and closes both
// ends. The conn's outbound storage comes from the OS's pool and goes
// back at the second close, so the only allocation per cycle is the
// Conn object the client holds; the pool never holds more than the one
// slice the single live conn used.
func TestConnChurnRecyclesQueue(t *testing.T) {
	o, a := newChurn(t)
	var got []byte
	allocs := testing.AllocsPerRun(200, func() { got = churnCycle(o, a, got) })
	if allocs > 1 {
		t.Fatalf("churn cycle allocates %.1f objects/conn, want <= 1 (the Conn)", allocs)
	}
	if n := o.queues.Len(); n != 1 {
		t.Fatalf("pool holds %d slices after serial churn, want 1", n)
	}
}

// sockets is a bound OS whose server side the test drives by hand.
type sockets struct {
	t        *testing.T
	o        *OS
	lfd, buf int64
}

func newSockets(t *testing.T) *sockets {
	t.Helper()
	s := mem.NewSpace()
	if err := s.Map(mem.GlobalBase, 1<<16); err != nil {
		t.Fatal(err)
	}
	o := New(s)
	_, lfd, _ := serveSetup(t, o)
	return &sockets{t: t, o: o, lfd: lfd, buf: mem.GlobalBase}
}

// open connects a client and accepts it, returning the client end and
// the server's descriptor.
func (k *sockets) open() (*Conn, int64) {
	k.t.Helper()
	c := k.o.Connect(80)
	fd, err := k.o.Call("accept", []int64{k.lfd})
	if err != nil || fd < 0 {
		k.t.Fatalf("accept: fd=%d err=%v", fd, err)
	}
	return c, fd
}

func (k *sockets) write(fd int64, data string) {
	k.t.Helper()
	if err := k.o.Space.WriteBytes(k.buf, []byte(data)); err != nil {
		k.t.Fatal(err)
	}
	if n, err := k.o.Call("write", []int64{fd, k.buf, int64(len(data))}); err != nil || n != int64(len(data)) {
		k.t.Fatalf("write: n=%d err=%v", n, err)
	}
}

func (k *sockets) close(fd int64) {
	k.t.Helper()
	if v, err := k.o.Call("close", []int64{fd}); err != nil || v != 0 {
		k.t.Fatalf("close: v=%d err=%v", v, err)
	}
}

// TestQueuePoolNeverShared checks that storage moves only between conns
// that cannot both be live: a conn closed at one end keeps its queue, a
// conn closed at both ends hands it on (whichever end closes second),
// and the conn that takes it over writes nothing the old one can see.
func TestQueuePoolNeverShared(t *testing.T) {
	k := newSockets(t)
	pool := k.o.queues

	c1, fd1 := k.open()
	k.write(fd1, "one")
	c1.ClientClose()
	if pool.Len() != 0 || c1.OutboundLen() != 3 {
		t.Fatalf("client-closed conn: pool %d, queue %d; want 0, 3", pool.Len(), c1.OutboundLen())
	}
	c2, fd2 := k.open()
	k.write(fd2, "two")
	k.close(fd2)
	if pool.Len() != 0 {
		t.Fatalf("server-closed conn returned its storage: pool %d", pool.Len())
	}
	if got := string(c2.ClientTakeAppend(nil)); got != "two" {
		t.Fatalf("server-closed conn drained %q, want \"two\"", got)
	}

	k.close(fd1) // c1's second end
	if pool.Len() != 1 || c1.OutboundLen() != 0 {
		t.Fatalf("closed conn: pool %d, queue %d; want 1, 0", pool.Len(), c1.OutboundLen())
	}
	c3, fd3 := k.open()
	k.write(fd3, "three") // on c1's old storage
	if pool.Len() != 0 || c1.OutboundLen() != 0 {
		t.Fatalf("recycled write: pool %d, old conn's queue %d; want 0, 0", pool.Len(), c1.OutboundLen())
	}
	if got := string(c3.ClientTakeAppend(nil)); got != "three" {
		t.Fatalf("recycled conn drained %q, want \"three\"", got)
	}

	c2.ClientReset() // c2's second end
	if pool.Len() != 1 {
		t.Fatalf("reset after server close: pool %d, want 1", pool.Len())
	}
	c2.ClientClose()
	c2.CloseServer()
	c1.ClientClose()
	if pool.Len() != 1 {
		t.Fatalf("repeated closes returned storage again: pool %d, want 1", pool.Len())
	}
}

// TestQueuePoolKeepsQueueSemantics runs the queue operations that hand
// out or move storage on conns whose storage is recycled: ClientTake
// transfers ownership (nothing goes back to the pool and later writes do
// not touch the taken bytes), TruncateSockOut retracts a masked write,
// and ForwardOut moves a back's bytes onto its front.
func TestQueuePoolKeepsQueueSemantics(t *testing.T) {
	k := newSockets(t)
	pool := k.o.queues

	c, fd := k.open()
	k.write(fd, "take")
	taken := c.ClientTake()
	c.ClientClose()
	k.close(fd)
	if pool.Len() != 0 {
		t.Fatalf("ClientTake's storage went back to the pool: pool %d", pool.Len())
	}

	c, fd = k.open()
	k.write(fd, "abcdef")
	if !k.o.TruncateSockOut(fd, 2) || c.OutboundLen() != 2 {
		t.Fatalf("TruncateSockOut left %d bytes, want 2", c.OutboundLen())
	}
	if got := string(c.ClientTakeAppend(nil)); got != "ab" {
		t.Fatalf("truncated queue drained %q, want \"ab\"", got)
	}
	c.ClientClose()
	k.close(fd)
	c, fd = k.open()
	k.write(fd, "ghijkl") // recycled storage
	if !k.o.TruncateSockOut(fd, 3) || string(c.ClientTakeAppend(nil)) != "ghi" {
		t.Fatal("TruncateSockOut on recycled storage did not keep the first 3 bytes")
	}
	if string(taken) != "take" {
		t.Fatalf("later writes changed the taken bytes: %q", taken)
	}

	front := pool.NewConn()
	front.ProxyDeliver([]byte("old:"))
	c.ClientTakeAppend(nil)
	k.write(fd, "resp")
	if n := c.ForwardOut(front); n != 4 || c.OutboundLen() != 0 {
		t.Fatalf("ForwardOut = %d (back queue %d), want 4 (0)", n, c.OutboundLen())
	}
	c.ClientClose()
	k.close(fd)
	front.CloseServer()
	if got := string(front.ClientTakeAppend(nil)); got != "old:resp" {
		t.Fatalf("front = %q, want \"old:resp\"", got)
	}
	front.ClientClose()
	if pool.Len() != 2 {
		t.Fatalf("pool %d after both conns closed, want 2", pool.Len())
	}
}

// BenchmarkConnChurn measures one short connection through one OS:
// connect, accept, write, drain, close both ends. With -benchmem it
// shows the per-conn allocations TestConnChurnRecyclesQueue pins.
func BenchmarkConnChurn(b *testing.B) {
	o, a := newChurn(b)
	var got []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got = churnCycle(o, a, got)
	}
}

// TestProxyTakeCycleAllocFree pins the balancer's front-conn cycle: the
// client delivers a request and ProxyTake hands its bytes over as a view
// of the conn's inbound storage, which the conn keeps for the next
// delivery, so a request allocates nothing once the storage is sized.
func TestProxyTakeCycleAllocFree(t *testing.T) {
	c := NewConn()
	req := []byte("GET /index.html\n")
	var inflight []byte
	cycle := func() {
		c.ClientDeliverTraced(req, 7)
		data, trace := c.ProxyTake()
		if trace != 7 {
			t.Fatalf("ProxyTake trace = %d, want 7", trace)
		}
		inflight = append(inflight[:0], data...)
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("deliver/ProxyTake cycle allocates %.1f objects/request, want 0", allocs)
	}
	if string(inflight) != string(req) {
		t.Fatalf("took %q, want %q", inflight, req)
	}
	if data, trace := c.ProxyTake(); len(data) != 0 || trace != 0 {
		t.Fatalf("second ProxyTake = %q/%d, want nothing", data, trace)
	}
}

// TestOpenAndPutsAllocFree pins the C-string paths: open of an existing
// file looks its path up without building a Go string, and puts/printf
// append straight to stdout, so neither allocates once the buffers are
// sized.
func TestOpenAndPutsAllocFree(t *testing.T) {
	o := newOS(t)
	o.FS().Add("/www/index.html", []byte("<html></html>"))
	path := putStr(t, o, 0, "/www/index.html")
	line := putStr(t, o, 256, "hello")
	openArgs, putsArgs := []int64{path, ORdOnly}, []int64{line}
	var closeArgs []int64
	open := func() {
		fd, err := o.Call("open", openArgs)
		if err != nil || fd < 0 {
			t.Fatalf("open: fd=%d err=%v errno=%d", fd, err, o.Errno)
		}
		if closeArgs == nil {
			closeArgs = []int64{fd}
		}
		o.Call("close", closeArgs)
	}
	puts := func() {
		o.TruncateStdout(0)
		if n, err := o.Call("puts", putsArgs); err != nil || n != 6 {
			t.Fatalf("puts = %d, %v; want 6", n, err)
		}
		if n, err := o.Call("printf", putsArgs); err != nil || n != 5 {
			t.Fatalf("printf = %d, %v; want 5", n, err)
		}
	}
	for i := 0; i < 4; i++ {
		open()
		puts()
	}
	if allocs := testing.AllocsPerRun(200, open); allocs != 0 {
		t.Fatalf("open+close of an existing file allocates %.1f objects, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, puts); allocs != 0 {
		t.Fatalf("puts+printf allocates %.1f objects, want 0", allocs)
	}
	if got := o.Stdout(); got != "hello\nhello" {
		t.Fatalf("stdout = %q", got)
	}
}
