package libsim

import (
	"strings"
	"testing"

	"github.com/firestarter-go/firestarter/internal/mem"
)

// acceptConn binds a listener on port, connects a client and accepts it,
// returning the client conn and the server-side fd.
func acceptConn(t *testing.T, o *OS, port int64) (*Conn, int64) {
	t.Helper()
	s := call(t, o, "socket")
	call(t, o, "bind", s, port)
	call(t, o, "listen", s, 16)
	c := o.Connect(port)
	if c == nil {
		t.Fatal("Connect failed")
	}
	fd := call(t, o, "accept", s)
	if fd < 0 {
		t.Fatalf("accept = %d", fd)
	}
	return c, fd
}

// TestSlowReaderBackpressure models a slow-loris-style reader: the server
// keeps writing while the client drains its end a few bytes at a time (or
// not at all). The undrained bytes must stay queued without perturbing the
// server's writes, partial takes must preserve byte order, and shedding
// the connection must not destroy responses already written — the client
// still drains them after the server side is gone.
func TestSlowReaderBackpressure(t *testing.T) {
	o := newOS(t)
	c, fd := acceptConn(t, o, 80)

	resp := putStr(t, o, 0x2000, "aaaabbbbccccdddd")
	if w := call(t, o, "write", fd, resp, 16); w != 16 {
		t.Fatalf("write = %d", w)
	}
	if c.OutboundLen() != 16 {
		t.Fatalf("outbound = %d, want 16", c.OutboundLen())
	}

	// Partial drains come out in order and shrink the backlog.
	if got := string(c.ClientTakeN(4)); got != "aaaa" {
		t.Fatalf("first take = %q", got)
	}
	if got := string(c.ClientTakeN(6)); got != "bbbbcc" {
		t.Fatalf("second take = %q", got)
	}
	if c.OutboundLen() != 6 {
		t.Fatalf("outbound after takes = %d, want 6", c.OutboundLen())
	}

	// A reader that never drains: the server's writes keep landing.
	if w := call(t, o, "write", fd, resp, 16); w != 16 {
		t.Fatalf("second write = %d", w)
	}
	if c.OutboundLen() != 22 {
		t.Fatalf("outbound with sleeping reader = %d, want 22", c.OutboundLen())
	}
	if got := c.ClientTakeN(0); got != nil {
		t.Fatalf("zero take = %q", got)
	}

	// Shed the connection mid-backlog: the server end closes, but the
	// bytes it already wrote still reach the slow client.
	o.SetServingFD(fd)
	if shed := o.ShedConn(); shed != fd {
		t.Fatalf("ShedConn = %d, want %d", shed, fd)
	}
	if !c.ServerClosed() {
		t.Fatal("shed did not close the server end")
	}
	if got := string(c.ClientTakeN(100)); got != "ccddddaaaabbbbccccdddd" {
		t.Fatalf("drain after shed = %q", got)
	}
	if c.OutboundLen() != 0 {
		t.Fatalf("outbound after full drain = %d", c.OutboundLen())
	}
}

// TestFragmentedRequestBoundaries delivers one request split across
// multiple client writes at every possible byte boundary: the server-side
// reads must reassemble the exact bytes, and a trace stamped on the first
// fragment must promote on the server's first read regardless of where
// the split falls.
func TestFragmentedRequestBoundaries(t *testing.T) {
	req := "GET /x\n"
	for cut := 1; cut < len(req); cut++ {
		o := newOS(t)
		c, fd := acceptConn(t, o, 80)

		c.ClientDeliverTraced([]byte(req[:cut]), 42)
		c.ClientDeliver([]byte(req[cut:]))
		if c.Trace() != 0 {
			t.Fatalf("cut=%d: trace active before any server read", cut)
		}

		buf := int64(mem.GlobalBase + 0x1000)
		var got strings.Builder
		for got.Len() < len(req) {
			n := call(t, o, "read", fd, buf, 4) // small reads: arbitrary regrouping
			if n <= 0 {
				t.Fatalf("cut=%d: read = %d with %d bytes assembled", cut, n, got.Len())
			}
			b, _ := o.Space.ReadBytes(buf, n)
			got.Write(b)
			if c.Trace() != 42 {
				t.Fatalf("cut=%d: trace not promoted on first read", cut)
			}
		}
		if got.String() != req {
			t.Fatalf("cut=%d: reassembled %q, want %q", cut, got.String(), req)
		}
	}
}

// TestPipelinedRequestsOneConnection sends two requests back-to-back on
// one connection before the server answers either: the server reads the
// concatenated bytes, answers in order, and the responses drain in FIFO
// order. The trace slot is single-entry, so the second request's ID is
// stamped only after the first promoted — the ordering contract the
// open-loop driver enforces before pipelining a traced request.
func TestPipelinedRequestsOneConnection(t *testing.T) {
	o := newOS(t)
	c, fd := acceptConn(t, o, 80)

	c.ClientDeliverTraced([]byte("one\n"), 7)
	buf := int64(mem.GlobalBase + 0x1000)
	if n := call(t, o, "read", fd, buf, 64); n != 4 {
		t.Fatalf("read = %d", n)
	}
	if c.Trace() != 7 {
		t.Fatal("first request's trace not promoted")
	}

	// First request started: the client may now pipeline the second one
	// even though no response has been written yet.
	c.ClientDeliverTraced([]byte("two\n"), 8)
	r1 := putStr(t, o, 0x2000, "ONE\n")
	if w := call(t, o, "write", fd, r1, 4); w != 4 {
		t.Fatalf("write = %d", w)
	}
	if n := call(t, o, "read", fd, buf, 64); n != 4 {
		t.Fatalf("second read = %d", n)
	}
	if c.Trace() != 8 {
		t.Fatal("second request's trace not promoted")
	}
	r2 := putStr(t, o, 0x3000, "TWO\n")
	if w := call(t, o, "write", fd, r2, 4); w != 4 {
		t.Fatalf("second write = %d", w)
	}

	// FIFO drain, also under a partial (slow) take.
	if got := string(c.ClientTakeN(5)); got != "ONE\nT" {
		t.Fatalf("pipelined drain = %q", got)
	}
	if got := string(c.ClientTake()); got != "WO\n" {
		t.Fatalf("pipelined tail = %q", got)
	}
}

// TestPipelinedRequestsShedMidStream sheds the connection between the two
// pipelined requests: the first response survives for the client to
// drain, the second request's bytes die with the connection (reads fail
// once the fd is gone), and the client observes the close.
func TestPipelinedRequestsShedMidStream(t *testing.T) {
	o := newOS(t)
	c, fd := acceptConn(t, o, 80)

	c.ClientDeliverTraced([]byte("one\n"), 7)
	buf := int64(mem.GlobalBase + 0x1000)
	call(t, o, "read", fd, buf, 64)
	r1 := putStr(t, o, 0x2000, "ONE\n")
	call(t, o, "write", fd, r1, 4)

	c.ClientDeliverTraced([]byte("two\n"), 8)
	o.SetServingFD(fd)
	if shed := o.ShedConn(); shed != fd {
		t.Fatalf("ShedConn = %d, want %d", shed, fd)
	}

	if !c.ServerClosed() {
		t.Fatal("client cannot see the shed")
	}
	if got := string(c.ClientTake()); got != "ONE\n" {
		t.Fatalf("response written before shed = %q", got)
	}
	// The shed fd is recycled: a further server read must not succeed.
	if r := call(t, o, "read", fd, buf, 64); r != -1 {
		t.Fatalf("read on shed fd = %d, want -1", r)
	}
	if c.InboundLen() == 0 {
		t.Fatal("unread pipelined request vanished without the close accounting for it")
	}
}

// slowReaderScript drives the outbound queue the way a slow reader meets
// it: server writes of growing size (so the queue's storage has to grow
// while a backlog is undrained) interleaved with small partial drains.
// step receives each take's bytes and the bytes the writes so far
// promised for that position.
func slowReaderScript(t *testing.T, step func(taken []byte, want string)) {
	t.Helper()
	o := newOS(t)
	c, fd := acceptConn(t, o, 80)
	var sent, drained strings.Builder
	for round := 0; round < 40; round++ {
		msg := strings.Repeat(string(rune('a'+round%26)), 1+round*7%53) + "\n"
		addr := putStr(t, o, 0x2000, msg)
		if w := call(t, o, "write", fd, addr, int64(len(msg))); w != int64(len(msg)) {
			t.Fatalf("round %d: write = %d", round, w)
		}
		sent.WriteString(msg)
		for k := 0; k < 1+round%3; k++ {
			taken := c.ClientTakeN(1 + (round+k)%5)
			off := drained.Len()
			drained.Write(taken)
			step(taken, sent.String()[off:drained.Len()])
		}
		if got, want := c.OutboundLen(), sent.Len()-drained.Len(); got != want {
			t.Fatalf("round %d: OutboundLen = %d, want %d", round, got, want)
		}
	}
	rest := c.ClientTakeN(1 << 20)
	drained.Write(rest)
	if drained.String() != sent.String() {
		t.Fatalf("drained %q,\nwant %q", drained.String(), sent.String())
	}
	if c.OutboundLen() != 0 {
		t.Fatalf("OutboundLen after full drain = %d", c.OutboundLen())
	}
}

// TestSlowReaderInterleavedOrder checks that partial drains interleaved
// with server writes return the written bytes in order, with no byte
// lost or repeated, while the queue's storage grows under a backlog.
func TestSlowReaderInterleavedOrder(t *testing.T) {
	slowReaderScript(t, func(taken []byte, want string) {
		if string(taken) != want {
			t.Fatalf("take = %q, want %q", taken, want)
		}
	})
}

// TestSlowReaderTakenBytesStable checks the ClientTakeN view contract:
// bytes a partial drain returned do not change when the server writes
// more, including writes that grow the queue's storage, as long as the
// queue has not been drained completely in between (no drain in the
// script empties it before the end).
func TestSlowReaderTakenBytesStable(t *testing.T) {
	type view struct {
		b    []byte
		want string
	}
	var views []view
	slowReaderScript(t, func(taken []byte, want string) {
		views = append(views, view{taken, want})
		for i, v := range views {
			if string(v.b) != v.want {
				t.Fatalf("take %d changed to %q after later writes, want %q", i, v.b, v.want)
			}
		}
	})
}

// TestSockOutAfterPartialDrain checks write masking (§V-A) against a
// slow reader: SockOutLen counts only the undrained bytes, and
// TruncateSockOut at a mark taken after a partial drain retracts only
// the bytes written after the mark.
func TestSockOutAfterPartialDrain(t *testing.T) {
	o := newOS(t)
	c, fd := acceptConn(t, o, 80)
	first := putStr(t, o, 0x2000, "0123456789")
	call(t, o, "write", fd, first, 10)
	if got := string(c.ClientTakeN(4)); got != "0123" {
		t.Fatalf("take = %q", got)
	}
	if n := o.SockOutLen(fd); n != 6 {
		t.Fatalf("SockOutLen after partial drain = %d, want 6", n)
	}

	mark := o.SockOutLen(fd)
	masked := putStr(t, o, 0x3000, "MASKED")
	call(t, o, "write", fd, masked, 6)
	if n := o.SockOutLen(fd); n != 12 {
		t.Fatalf("SockOutLen after masked write = %d, want 12", n)
	}
	if !o.TruncateSockOut(fd, mark) {
		t.Fatal("TruncateSockOut refused a connection fd")
	}
	if n := o.SockOutLen(fd); n != 6 {
		t.Fatalf("SockOutLen after truncate = %d, want 6", n)
	}
	o.TruncateSockOut(fd, 100) // past the end: nothing to retract
	if got := string(c.ClientTakeN(2)); got != "45" {
		t.Fatalf("take after truncate = %q", got)
	}
	o.TruncateSockOut(fd, 0)
	if n := o.SockOutLen(fd); n != 0 {
		t.Fatalf("SockOutLen after truncating to 0 = %d", n)
	}
	again := putStr(t, o, 0x2000, "next\n")
	call(t, o, "write", fd, again, 5)
	if got := string(c.ClientTake()); got != "next\n" {
		t.Fatalf("drain after truncation = %q, want \"next\\n\"", got)
	}
}
