// Package libsim is the simulated operating system and C library that
// protected programs run against.
//
// Library calls are the heart of FIRestarter: they are the only way a
// program interacts with its environment, they report errors through
// documented return values and errno, and they define the boundaries of the
// crash transactions. This package provides executable semantics for the
// calls the example servers use — file descriptors, TCP-style sockets with
// an accept queue and byte streams, epoll, an in-memory filesystem, a heap
// allocator, time — plus the Go-side hooks the recovery runtime needs to
// run compensation actions (close an fd, free a block, restore a file
// offset) when it injects a fault.
//
// All writes the library performs into application memory (read(2) filling
// a buffer, memset, memcpy, ...) go through a pluggable store function so
// that the active crash transaction captures them: in HTM mode they join
// the hardware write set (and can abort it — the paper's Fig. 3 shows
// exactly this for post-malloc initialization), in STM mode they are undo-
// logged, and on rollback they are reverted like any program store.
package libsim

import (
	"encoding/binary"
	"fmt"

	"github.com/firestarter-go/firestarter/internal/mem"
)

// Errno values (Linux numbering) reported by simulated calls.
const (
	EPERM      = 1
	ENOENT     = 2
	EINTR      = 4
	EBADF      = 9
	EAGAIN     = 11
	ENOMEM     = 12
	EACCES     = 13
	EFAULT     = 14
	EINVAL     = 22
	EMFILE     = 24
	ENOSPC     = 28
	EPIPE      = 32
	EDEADLK    = 35
	ENOTCONN   = 107
	EADDRINUSE = 98
	ECONNRESET = 104
)

// FDKind distinguishes descriptor flavours in the fd table.
type FDKind int

// Descriptor kinds.
const (
	FDFree FDKind = iota
	FDFile
	FDListener
	FDConn
	FDEpoll
	FDEventFD
	FDPipe
)

// FD is one slot in the descriptor table.
type FD struct {
	Kind     FDKind
	File     *OpenFile
	Listener *Listener
	Conn     *Conn
	Epoll    *Epoll
	NonBlock bool
}

// StoreFunc writes data into application memory at addr on behalf of a
// library call and returns how many store units it attempted, the failing
// one included. A unit is what word-granular store instrumentation emits:
// 8-byte words from addr, then single bytes for the tail (see
// mem.StoreUnits); library calls charge their per-unit cost from the
// count. The recovery runtime points the hook at the active transaction
// so library writes are checkpointed like program stores.
type StoreFunc func(addr int64, data []byte) (units int, err error)

// TraceFunc observes the activation of a request trace ID: the server
// just consumed the first bytes of a newly delivered traced request. The
// recovery runtime installs one to emit the req-start span; the scheduler
// re-points it at the running thread's runtime on context switch, exactly
// like the store hook.
type TraceFunc func(trace int64)

// ErrBlocked is returned by a call that would block (e.g. epoll_wait with
// nothing ready); the interpreter yields to the workload driver and retries
// the call on resume.
var ErrBlocked = fmt.Errorf("libsim: call would block")

// ThreadOps is the scheduler's side of the pthread-style library calls
// (thread_create, thread_join, mutex_lock, mutex_unlock). The OS only
// dispatches; thread and mutex state live in the scheduler. Blocking
// operations return ErrBlocked and are retried when the scheduler wakes
// the calling thread. Implementations set o.Errno on failure themselves.
type ThreadOps interface {
	// Create spawns a thread running the named function with one integer
	// argument and returns its id (>= 1), or -1 with errno set.
	Create(fn string, arg int64) (int64, error)
	// Join waits for a thread to exit; returns 0 on success, -1 with
	// errno set for an unknown id, or ErrBlocked while it still runs.
	Join(tid int64) (int64, error)
	// MutexLock/MutexUnlock return 0 or a pthread-style error code
	// directly (EDEADLK for a recursive lock, EPERM for unlocking a
	// mutex the caller does not hold). Lock returns ErrBlocked while
	// another thread holds the mutex.
	MutexLock(id int64) (int64, error)
	MutexUnlock(id int64) (int64, error)
	// Cancel tears down a thread that should not have been created (the
	// compensation action for a rolled-back thread_create).
	Cancel(tid int64) bool
}

// OS is a simulated operating system instance bound to one address space.
// It is single-threaded, like the paper's protected servers (§VII).
type OS struct {
	Space *mem.Space
	Errno int64

	fds    []FD // value slab: slots are reused in place, never freed to the GC
	heap   *Heap
	fs     *FS
	clock  int64  // nanoseconds, advanced by Tick and time calls
	stdout []byte // bytes written to fd 1/2 (program log)

	store     StoreFunc
	onTrace   TraceFunc
	threads   ThreadOps
	deferFree DeferFreeFunc
	cycles    *int64
	wscratch  []byte  // reusable buffer for doWrite payloads and open's path (never escapes)
	stage     []byte  // memset/memcpy staging, at most one page (never escapes)
	word      [8]byte // scalar store staging (a stack buffer would escape through the hook)
	epready   []int64 // reusable ready-list for readyFDs (never escapes)

	// lastRead is held by value and its Data buffer is reused across
	// reads: only the most recent record is ever reachable (LastRead),
	// and the read/recv compensation copies the bytes out via Unread
	// before the next read can overwrite them. FD -1 means no read yet.
	lastRead ReadRecord

	// servingFD is the connection descriptor most recently read from or
	// written to — the request the server is currently handling. The
	// recovery runtime's shed rung closes it when it drops a request
	// (-1 when no connection has been touched yet).
	servingFD int64

	// ports maps bound port → listener for the client side (netsim).
	ports map[int64]*Listener

	// queues recycles the outbound queue storage of Connect's conns: it
	// is &ownQueues unless SetQueuePool shares another pool.
	queues    *QueuePool
	ownQueues QueuePool

	// arena is the per-request bump-arena manager (see arena.go);
	// inert until EnableArenas.
	arena arenaState

	// OOMAfter, when positive, makes the allocator fail with ENOMEM
	// after that many more successful allocations (fault-injection aid).
	OOMAfter int64

	// Trace, when non-nil, receives one line per library call (used by
	// the profiling experiments).
	Trace func(name string)
}

// New returns an OS bound to the given address space.
func New(space *mem.Space) *OS {
	o := &OS{
		Space:     space,
		heap:      newHeap(space),
		fs:        NewFS(),
		ports:     make(map[int64]*Listener),
		servingFD: -1,
	}
	o.store = space.StoreRange
	o.queues = &o.ownQueues
	o.lastRead.FD = -1
	// Reserve stdin/stdout/stderr so application fds start at 3.
	o.fds = []FD{{Kind: FDFile}, {Kind: FDFile}, {Kind: FDFile}}
	return o
}

// FS returns the in-memory filesystem (for preloading a document root).
func (o *OS) FS() *FS { return o.fs }

// Heap exposes the allocator (for tests and compensation actions).
func (o *OS) Heap() *Heap { return o.heap }

// SetCycleSink points the library's cost accounting at the machine's
// cycle counter, so bulk operations (memcpy, read, pread, ...) cost the
// same under every runtime. A nil sink disables charging.
func (o *OS) SetCycleSink(c *int64) { o.cycles = c }

// charge adds n cycles of library-internal work.
func (o *OS) charge(n int64) {
	if o.cycles != nil {
		*o.cycles += n
	}
}

// SetStore installs the transaction-aware store function. A nil store
// restores direct writes.
func (o *OS) SetStore(s StoreFunc) {
	if s == nil {
		o.store = o.Space.StoreRange
		return
	}
	o.store = s
}

// SetTraceHook installs the request-trace activation hook (nil disables
// it). The hook fires from doRead when a pending trace ID is promoted to
// the connection's active trace — no cycles are charged for it, so
// enabling tracing never perturbs the cost model.
func (o *OS) SetTraceHook(f TraceFunc) { o.onTrace = f }

// CurrentTrace returns the trace ID of the request being served — the
// active trace of the serving connection — or 0 when there is none.
func (o *OS) CurrentTrace() int64 {
	s := o.lookupFD(o.servingFD)
	if s == nil || s.Kind != FDConn {
		return 0
	}
	return s.Conn.trace
}

// ServingFD returns the raw serving descriptor (scheduler save/restore;
// unlike ServingConnFD it does not validate liveness).
func (o *OS) ServingFD() int64 { return o.servingFD }

// SetServingFD restores a previously saved serving descriptor. The
// scheduler swaps it per thread on context switch so each thread's notion
// of "the request being served" survives preemption.
func (o *OS) SetServingFD(fd int64) { o.servingFD = fd }

// SetThreads installs the scheduler hook behind the pthread-style calls.
// Without one (the single-threaded default) those calls fail with EINVAL.
func (o *OS) SetThreads(t ThreadOps) { o.threads = t }

// Threads returns the installed scheduler hook (compensation actions).
func (o *OS) Threads() ThreadOps { return o.threads }

// Stdout returns everything the program wrote to stdout/stderr.
func (o *OS) Stdout() string { return string(o.stdout) }

// StdoutLen returns the current length of the program's output; the
// recovery runtime snapshots it at transaction begin so log lines written
// by embedded printf/puts calls can be compensated on rollback.
func (o *OS) StdoutLen() int { return len(o.stdout) }

// TruncateStdout discards output written after position n (rollback
// compensation for embedded output calls).
func (o *OS) TruncateStdout(n int) {
	if n >= 0 && n < len(o.stdout) {
		o.stdout = o.stdout[:n]
	}
}

// pid is the simulated process id; every OS runs one process.
const pid = 4242

// Pid returns the simulated process id.
func (o *OS) Pid() int64 { return pid }

// Now returns the simulated clock in nanoseconds.
func (o *OS) Now() int64 { return o.clock }

// allocFD finds the lowest free descriptor slot, appends if necessary.
// The table is a value slab: the FD is copied into the slot, so the
// steady state (slot reuse after CloseFD) allocates nothing.
func (o *OS) allocFD(fd FD) int64 {
	for i := range o.fds {
		if s := &o.fds[i]; s.Kind == FDFree {
			if fd.Kind == FDFile && fd.File == nil {
				fd.File = s.File // the OpenFile a closed file parked here
			}
			*s = fd
			return int64(i)
		}
	}
	if len(o.fds) >= 1024 {
		return -1
	}
	o.fds = append(o.fds, fd)
	return int64(len(o.fds) - 1)
}

// lookupFD returns a pointer into the descriptor slab, or nil. The
// pointer is only valid until the next allocFD (which may grow the
// slab); no handler holds one across an allocation.
func (o *OS) lookupFD(fd int64) *FD {
	if fd < 0 || fd >= int64(len(o.fds)) {
		return nil
	}
	if o.fds[fd].Kind == FDFree {
		return nil
	}
	return &o.fds[fd]
}

// CloseFD closes a descriptor Go-side (used by compensation actions). It
// returns false for an invalid descriptor.
func (o *OS) CloseFD(fd int64) bool {
	s := o.lookupFD(fd)
	if s == nil {
		return false
	}
	switch s.Kind {
	case FDListener:
		delete(o.ports, s.Listener.Port)
		s.Listener.closed = true
	case FDConn:
		s.Conn.CloseServer()
		// The owning request is over (close or shed): discard its arena
		// so the slab never leaks across connections.
		if o.arena.cur != nil && o.arena.cur.fd == fd {
			o.arenaRetire()
		}
	}
	if fd >= 3 {
		// A file's OpenFile stays parked in the free slot for the next
		// open to reuse; nothing else holds it past the close.
		var parked *OpenFile
		if s.Kind == FDFile && s.File != nil {
			parked = s.File
			*parked = OpenFile{}
		}
		o.fds[fd] = FD{Kind: FDFree, File: parked}
	}
	return true
}

// ServingConnFD returns the connection descriptor most recently read from
// or written to — the runtime's best guess at "the request being served" —
// or -1 when there is none (never touched, closed, or not a connection).
func (o *OS) ServingConnFD() int64 {
	s := o.lookupFD(o.servingFD)
	if s == nil || s.Kind != FDConn {
		return -1
	}
	return o.servingFD
}

// ShedConn force-closes the connection currently being served — the
// connection-reset half of the recovery runtime's shed rung. It returns
// the closed descriptor, or -1 if no live connection was being served.
// The client side observes the close (ServerClosed) and reconnects; the
// epoll ready scan skips the freed slot automatically.
func (o *OS) ShedConn() int64 {
	fd := o.ServingConnFD()
	o.servingFD = -1
	if fd < 0 {
		return -1
	}
	o.CloseFD(fd)
	return fd
}

// OpenFDs counts live descriptors (excluding std streams); tests use it to
// detect descriptor leaks across recovery.
func (o *OS) OpenFDs() int {
	n := 0
	for i := range o.fds {
		if i >= 3 && o.fds[i].Kind != FDFree {
			n++
		}
	}
	return n
}

// String names the descriptor kind for diagnostics.
func (k FDKind) String() string {
	switch k {
	case FDFree:
		return "free"
	case FDFile:
		return "file"
	case FDListener:
		return "listener"
	case FDConn:
		return "conn"
	case FDEpoll:
		return "epoll"
	case FDEventFD:
		return "eventfd"
	case FDPipe:
		return "pipe"
	default:
		return fmt.Sprintf("fdkind(%d)", int(k))
	}
}

// OpenFDList renders the live descriptor table (excluding std streams) as
// "fd=N kind" strings in fd order — the open-FD section of a replay
// state dump.
func (o *OS) OpenFDList() []string {
	var out []string
	for i := range o.fds {
		if i >= 3 && o.fds[i].Kind != FDFree {
			out = append(out, fmt.Sprintf("fd=%d %s", i, o.fds[i].Kind))
		}
	}
	return out
}

// writeBytes pushes a byte slice into application memory through the
// transaction-aware store, charging 2 cycles per store unit attempted.
func (o *OS) writeBytes(addr int64, data []byte) error {
	units, err := o.store(addr, data)
	o.charge(2 * int64(units))
	return err
}

// storeScalar writes the low width bytes of val at addr through the
// transaction-aware store as one store unit; callers do any charging.
func (o *OS) storeScalar(addr, val int64, width int) error {
	binary.LittleEndian.PutUint64(o.word[:], uint64(val))
	_, err := o.store(addr, o.word[:width])
	return err
}

// memcpy copies n bytes from src to dst as a forward copy of store units,
// charging 3 cycles per unit attempted. Unit k loads its source after
// units 0..k-1 have stored, so a dst inside (src, src+n) smears the head
// of the source forward, and a fault loading unit k's source ends the
// copy with k units charged. Each chunk is loaded before it is stored,
// which keeps that order as long as no unit of a chunk stores into bytes
// a later unit of the same chunk loads: a smearing copy's chunks are
// capped at dst-src bytes. Under the scheduler a store may doom another
// thread's transaction, whose rollback may rewrite the source, so there
// every chunk is one unit.
func (o *OS) memcpy(dst, src, n int64) error {
	limit := int64(mem.PageSize)
	if d := dst - src; d > 0 && d < n {
		limit = min(limit, d)
	}
	if o.threads != nil {
		limit = 1
	}
	buf := o.staging(n)
	for i := int64(0); i < n; {
		chunk := buf[:unitsWithin(n-i, limit)]
		loaded, loadErr := o.loadUnits(src+i, chunk)
		if loaded > 0 {
			units, err := o.store(dst+i, chunk[:loaded])
			o.charge(3 * int64(units))
			if err != nil {
				return err
			}
		}
		if loadErr != nil {
			return loadErr
		}
		i += int64(len(chunk))
	}
	return nil
}

// unitsWithin returns the length of the longest run of whole store units
// at the head of a rest-byte range that fits in limit bytes, but at least
// one unit. Runs end on a word boundary or in the tail, so a range cut
// into runs splits into the same units as the whole.
func unitsWithin(rest, limit int64) int64 {
	if words := rest &^ 7; limit < words {
		return max(limit&^7, 8)
	}
	return max(min(limit, rest), 1)
}

// loadUnits fills dst from application memory at addr, unit by unit (see
// StoreFunc), with the checks of a guest load. It returns how many bytes
// it loaded, which ends on a unit boundary, and the fault of the first
// unit it could not load.
func (o *OS) loadUnits(addr int64, dst []byte) (int, error) {
	if !o.Space.DomainsEnabled() && o.Space.Mapped(addr, int64(len(dst))) {
		return len(dst), o.Space.ReadInto(addr, dst)
	}
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		w, err := o.Space.Load(addr+int64(i), 8)
		if err != nil {
			return i, err
		}
		binary.LittleEndian.PutUint64(dst[i:], uint64(w))
	}
	for ; i < len(dst); i++ {
		b, err := o.Space.Load(addr+int64(i), 1)
		if err != nil {
			return i, err
		}
		dst[i] = byte(b)
	}
	return len(dst), nil
}

// staging returns the memset/memcpy staging buffer cut to n bytes, at
// most one page; it is never sized by a guest length beyond that.
func (o *OS) staging(n int64) []byte {
	n = min(n, mem.PageSize)
	if int64(cap(o.stage)) < n {
		o.stage = make([]byte, mem.PageSize)
	}
	return o.stage[:n]
}
