package libsim

// Listener is a bound, listening socket with an accept queue.
type Listener struct {
	Port    int64
	backlog int
	queue   []*Conn
	closed  bool

	// Opts records setsockopt settings (so tests can assert on them and
	// compensation can be observed).
	Opts map[int64]int64
}

// Conn is one established connection. The server side reads from in and
// writes to out; the client endpoint (package netsim) does the reverse.
type Conn struct {
	in []byte

	// out is the outbound queue's storage; the undrained bytes are
	// out[outHead:]. A partial drain advances outHead instead of shifting
	// the backlog down, and a full drain rewinds both to the front of the
	// storage, so a slow reader costs O(bytes taken) per drain and keeps
	// no consumed prefix once it catches up.
	out          []byte
	outHead      int
	pool         *QueuePool // where out comes from and returns to; nil: not pooled
	clientClosed bool       // client sent FIN: reads drain then return 0
	serverClosed bool       // server closed its fd
	reset        bool       // client sent RST: reads/writes fail with ECONNRESET

	// trace is the causal trace ID of the request the server is currently
	// consuming on this connection; pendingTrace holds a delivered-but-
	// unread request's ID until the server's first read promotes it (so a
	// crash before the server touches the new request is never attributed
	// to a trace that hasn't started). 0 means untraced.
	trace        int64
	pendingTrace int64
}

// QueuePool is a free list of outbound queue storage. A conn drawn from
// a pool takes its queue's storage from the pool on its first write and
// gives it back at the call that closes its second end (CloseServer,
// ClientClose or ClientReset, whichever comes last). After that neither
// side reads or writes the conn: a closed server fd is gone and a write
// on a shut-down one fails with EPIPE, and a closed client no longer
// drains. close and shutdown are deferred to commit by the recovery
// runtime, so a rollback never reopens a conn whose storage went back.
//
// The pool holds at most as many slices as its conns ever held at once,
// so a workload that opens and closes many short connections keeps the
// storage of its peak concurrency instead of allocating per connection.
type QueuePool struct {
	free [][]byte
}

// NewConn returns a detached connection (see the package-level NewConn)
// whose queue storage comes from p.
func (p *QueuePool) NewConn() *Conn { return &Conn{pool: p} }

// Len returns the number of storage slices waiting in the pool.
func (p *QueuePool) Len() int { return len(p.free) }

func (p *QueuePool) get() []byte {
	n := len(p.free)
	if n == 0 {
		return nil
	}
	b := p.free[n-1]
	p.free = p.free[:n-1]
	return b
}

// release hands c's queue storage back to its pool once both ends are
// closed. It drops the pool too, so it runs once per conn and a later
// write (none is legal) could only allocate fresh storage, never share.
func (c *Conn) release() {
	if c.pool == nil || !c.serverClosed || !(c.clientClosed || c.reset) {
		return
	}
	if cap(c.out) > 0 {
		c.pool.free = append(c.pool.free, c.out[:0])
	}
	c.out, c.outHead, c.pool = nil, 0, nil
}

// CloseServer closes the server side of the connection.
func (c *Conn) CloseServer() {
	c.serverClosed = true
	c.release()
}

// ServerClosed reports whether the server closed its end.
func (c *Conn) ServerClosed() bool { return c.serverClosed }

// ClientDeliver appends bytes arriving from the client (netsim side).
func (c *Conn) ClientDeliver(data []byte) { c.in = append(c.in, data...) }

// ClientDeliverTraced delivers request bytes stamped with a causal trace
// ID. The ID becomes the connection's active trace when the server first
// reads the bytes (see OS.SetTraceHook); until then it is only pending.
func (c *Conn) ClientDeliverTraced(data []byte, trace int64) {
	c.in = append(c.in, data...)
	if trace != 0 {
		c.pendingTrace = trace
	}
}

// Trace returns the connection's active trace ID (0 = untraced).
func (c *Conn) Trace() int64 { return c.trace }

// PromoteTrace marks trace as this connection's active trace if it is the
// one still pending. A proxy that forwarded the request to a back-end
// whose first read promoted it there calls this to mirror the promotion
// onto the client-facing front, so a pipelining client can observe that
// the server has started consuming its request.
func (c *Conn) PromoteTrace(trace int64) {
	if trace != 0 && c.pendingTrace == trace {
		c.pendingTrace = 0
	}
	if trace != 0 {
		c.trace = trace
	}
}

// ClientClose marks the client end closed (FIN).
func (c *Conn) ClientClose() {
	c.clientClosed = true
	c.release()
}

// ClientReset aborts the connection from the client end (RST, the effect
// of closing with unread data or SO_LINGER 0). Queued inbound data is
// discarded and the peer's subsequent reads and writes fail with
// ECONNRESET, unlike the graceful drain-then-EOF of ClientClose.
func (c *Conn) ClientReset() {
	c.reset = true
	c.in = nil
	c.release()
}

// pushOut queues bytes toward the client. When the storage is full, the
// move to a larger array copies only the undrained bytes, so a reader
// that never drains completely retains its backlog but no consumed
// prefix. Bytes already returned by ClientTakeN stay in the old array.
// A pooled conn with no storage yet draws it from its pool.
func (c *Conn) pushOut(data []byte) {
	if c.out == nil && c.pool != nil {
		c.out = c.pool.get()
	}
	if c.outHead > 0 && len(c.out)+len(data) > cap(c.out) {
		c.out, c.outHead = append(c.out[c.outHead:], data...), 0
		return
	}
	c.out = append(c.out, data...)
}

// ClientTake drains and returns everything the server has written
// (netsim side). Ownership of the queue's backing array passes to the
// caller, so the server's next write starts a new one (drawn from the
// conn's pool, if it has one) and nothing goes back to the pool at close.
func (c *Conn) ClientTake() []byte {
	out := c.out[c.outHead:]
	c.out, c.outHead = nil, 0
	return out
}

// ClientTakeAppend drains everything the server has written by appending
// it to dst, and returns the extended slice. The queue keeps its backing
// array (truncated to empty) for the server's next writes, and the caller
// keeps dst: a client that drains every response into one reused buffer
// allocates nothing per response in steady state.
func (c *Conn) ClientTakeAppend(dst []byte) []byte {
	dst = append(dst, c.out[c.outHead:]...)
	c.out, c.outHead = c.out[:0], 0
	return dst
}

// ClientTakeN drains at most n response bytes, leaving the rest queued —
// a slow reader whose receive window admits only part of what the server
// wrote. The undrained remainder keeps exerting backpressure exactly like
// a real socket buffer: the server's writes still land, the client just
// hasn't consumed them.
//
// The returned bytes are a view of the queue's storage, not a copy. They
// stay unchanged until the queue has drained completely and the server
// writes again (a full drain rewinds the storage for reuse), or until
// the conn is closed at both ends (the storage goes back to its pool); a
// caller that keeps them longer copies them.
func (c *Conn) ClientTakeN(n int) []byte {
	live := len(c.out) - c.outHead
	if n <= 0 || live == 0 {
		return nil
	}
	n = min(n, live)
	out := c.out[c.outHead : c.outHead+n : c.outHead+n]
	if n == live {
		c.out, c.outHead = c.out[:0], 0
	} else {
		c.outHead += n
	}
	return out
}

// ForwardOut moves everything the server has written on c onto dst's
// outbound queue, as a proxy relaying a back-end's responses to its
// client, and returns the number of bytes moved. Both queues keep their
// storage: c is truncated in place for the server's next writes.
func (c *Conn) ForwardOut(dst *Conn) int {
	live := c.out[c.outHead:]
	if len(live) == 0 {
		return 0
	}
	dst.pushOut(live)
	c.out, c.outHead = c.out[:0], 0
	return len(live)
}

// OutboundLen returns bytes written by the server but not yet drained by
// the client — the slow-reader backlog.
func (c *Conn) OutboundLen() int { return len(c.out) - c.outHead }

// Readable reports whether a server-side read would make progress: data is
// queued, or the client closed (EOF and ECONNRESET are both readable).
func (c *Conn) Readable() bool { return len(c.in) > 0 || c.clientClosed || c.reset }

// NewConn returns a detached connection, not queued on any listener. The
// fleet balancer owns the listening endpoint Go-side: it hands detached
// conns to the workload driver as the client-facing front and proxies
// their bytes to a replica's real listener.
func NewConn() *Conn { return &Conn{} }

// ProxyTake drains the client→server direction from the balancer side:
// everything the client delivered, plus the pending (not yet active)
// trace ID stamped on it, which is cleared — the balancer re-stamps it
// on the back-end connection so the replica's first read still promotes
// it. data views the conn's inbound storage, which the conn keeps for the
// client's next delivery, so data is valid only until then. Returns an
// empty data and 0 when nothing is queued.
func (c *Conn) ProxyTake() (data []byte, trace int64) {
	data = c.in
	trace = c.pendingTrace
	c.in = c.in[:0]
	c.pendingTrace = 0
	return data, trace
}

// ProxyDeliver queues response bytes toward the client on behalf of a
// Go-side server (the mirror of a server write). A proxy relaying a
// back-end connection uses ForwardOut, which keeps both queues' storage.
func (c *Conn) ProxyDeliver(data []byte) { c.pushOut(data) }

// ClientGone reports whether the client end is gone (FIN or RST): the
// balancer drops such conns instead of failing them over.
func (c *Conn) ClientGone() bool { return c.clientClosed || c.reset }

// ClientResetSeen reports an abortive close specifically (RST).
func (c *Conn) ClientResetSeen() bool { return c.reset }

// InboundLen returns queued unread bytes (tests).
func (c *Conn) InboundLen() int { return len(c.in) }

// Connect establishes a client connection to a bound port, Go-side. It
// returns the connection to drive from the client end, or nil if no
// listener is bound or the accept queue is full. The conn's queue
// storage comes from and returns to the OS's pool.
func (o *OS) Connect(port int64) *Conn {
	l, ok := o.ports[port]
	if !ok || l.closed {
		return nil
	}
	if l.backlog > 0 && len(l.queue) >= l.backlog {
		return nil
	}
	c := o.queues.NewConn()
	l.queue = append(l.queue, c)
	return c
}

// SetQueuePool makes Connect's conns draw their queue storage from p and
// return it there. A fleet gives one pool to every incarnation of its
// replicas, so a rebooted replica's conns reuse the storage its
// predecessors' conns returned. Conns connected earlier keep the pool
// they came from.
func (o *OS) SetQueuePool(p *QueuePool) { o.queues = p }

// ListenerOn returns the listener bound to port, or nil (tests).
func (o *OS) ListenerOn(port int64) *Listener { return o.ports[port] }

// Unbind releases a bound port without closing the socket's descriptor —
// the compensation action for bind(2), which must revert the binding while
// leaving the fd for the application's own error handling to close.
func (o *OS) Unbind(port int64) bool {
	l, ok := o.ports[port]
	if !ok {
		return false
	}
	l.Port = 0
	delete(o.ports, port)
	return true
}

// SockOutLen returns the bytes queued toward the client on a connection
// descriptor, or -1 for non-connection descriptors. Together with
// TruncateSockOut it implements the paper's proposed write-masking
// extension (§V-A): a socket write's network-visible effect can be
// retracted while the bytes are still in flight, letting write/send join
// the recoverable classes.
func (o *OS) SockOutLen(fd int64) int64 {
	s := o.lookupFD(fd)
	if s == nil || s.Kind != FDConn {
		return -1
	}
	return int64(s.Conn.OutboundLen())
}

// TruncateSockOut drops bytes queued after position n on a connection
// (the compensation action for a masked write).
func (o *OS) TruncateSockOut(fd, n int64) bool {
	s := o.lookupFD(fd)
	if s == nil || s.Kind != FDConn {
		return false
	}
	if c := s.Conn; n >= 0 && n < int64(c.OutboundLen()) {
		c.out = c.out[:c.outHead+int(n)]
	}
	return true
}

// Epoll is an epoll instance: the watched-descriptor set as a bitmap
// indexed by fd. Descriptors are small ints from the slab, so the dense
// representation replaces the old map (one alloc per conn plus hash
// churn per wait) and makes the ready scan a naturally-ordered sweep.
type Epoll struct {
	watched []bool
}

// watch marks fd as watched, growing the bitmap as needed.
func (e *Epoll) watch(fd int64) {
	if fd < 0 {
		return
	}
	for int64(len(e.watched)) <= fd {
		e.watched = append(e.watched, false)
	}
	e.watched[fd] = true
}

// unwatch clears fd from the watched set.
func (e *Epoll) unwatch(fd int64) {
	if fd >= 0 && fd < int64(len(e.watched)) {
		e.watched[fd] = false
	}
}

// readyFDs returns watched descriptors that are currently readable, in
// ascending fd order (deterministic). The returned slice is the OS's
// reusable scratch buffer, valid until the next call.
func (o *OS) readyFDs(ep *Epoll) []int64 {
	ready := o.epready[:0]
	for i := range ep.watched {
		if !ep.watched[i] {
			continue
		}
		fd := int64(i)
		s := o.lookupFD(fd)
		if s == nil {
			continue
		}
		switch s.Kind {
		case FDListener:
			if len(s.Listener.queue) > 0 {
				ready = append(ready, fd)
			}
		case FDConn:
			if s.Conn.Readable() {
				ready = append(ready, fd)
			}
		case FDEventFD:
			ready = append(ready, fd)
		}
	}
	o.epready = ready
	return ready
}
