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
// write/close cycle performs at most 4 Go allocations — the client-side
// Conn object and its in/out byte queues (inherent connection churn the
// test itself drives), never anything per-request on the server side.
// Before the slab refactor this path also allocated an *FD per accept,
// an epoll map entry per watch, and a ReadRecord plus a fresh data copy
// per read (~4 more objects per cycle); this test fails if any of that
// churn comes back.
func TestRequestCycleAllocFree(t *testing.T) {
	o, args := newCycle(t)
	allocs := testing.AllocsPerRun(200, func() {
		requestCycle(o, args)
	})
	if allocs > 4 {
		t.Fatalf("request cycle allocates %.1f objects/run, want <= 4", allocs)
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
