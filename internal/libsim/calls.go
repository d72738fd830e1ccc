package libsim

import (
	"fmt"
	"sort"
	"sync"

	"github.com/firestarter-go/firestarter/internal/mem"
)

// Fcntl and epoll command numbers (Linux values).
const (
	FGetFl = 3
	FSetFl = 4

	EpollCtlAdd = 1
	EpollCtlDel = 2

	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// DeferFreeFunc lets the recovery runtime defer a free() that executes
// inside a live transaction until the transaction commits (the paper's
// "operation deferrable" class). It returns true when the free has been
// queued; false means no transaction is active and the free should happen
// immediately.
type DeferFreeFunc func(addr int64) bool

// SetDeferFree installs the runtime's deferred-free hook (nil to clear).
func (o *OS) SetDeferFree(f DeferFreeFunc) { o.deferFree = f }

// ReadRecord describes the most recent data-consuming read, kept so the
// compensation action for read/recv can push the bytes back into the
// source queue ("state restoration needed" class).
type ReadRecord struct {
	FD   int64
	Data []byte
}

// LastRead returns the most recent consuming read's record (nil if none).
// The record and its Data buffer are reused by the next read; consumers
// (the read/recv compensation) only ever inspect the latest record and
// copy the bytes out via Unread, so the aliasing is invisible.
func (o *OS) LastRead() *ReadRecord {
	if o.lastRead.FD < 0 {
		return nil
	}
	return &o.lastRead
}

// setLastRead records a consuming read, reusing the Data buffer so the
// per-request read path allocates nothing in steady state.
func (o *OS) setLastRead(fd int64, data []byte) {
	o.lastRead.FD = fd
	o.lastRead.Data = append(o.lastRead.Data[:0], data...)
}

// Unread pushes data back to the front of a connection's inbound queue,
// used by the read/recv compensation action.
func (o *OS) Unread(fd int64, data []byte) bool {
	s := o.lookupFD(fd)
	if s == nil || s.Kind != FDConn {
		return false
	}
	s.Conn.in = append(append([]byte(nil), data...), s.Conn.in...)
	return true
}

type handler struct {
	args int
	fn   func(o *OS, a []int64) (int64, error)
}

// FuncID is a library function's dense index in the library's symbol
// table. It is a resolution cache beside the function's name, filled
// once at link time so a library call indexes a slice instead of hashing
// a name; the name stays authoritative (see CallFunc).
//
// The functions libsim simulates hold IDs 0..n-1, in name order. Declare
// gives the names a library model describes without a simulation the IDs
// after them, so one name has one ID in every table indexed by it.
type FuncID int32

// NoFunc is the ID of a name the symbol table does not hold.
const NoFunc FuncID = -1

// funcs holds the simulated functions' handlers and names, indexed by
// FuncID. It is filled at package initialization and never changes.
var funcs, funcIDs = buildFuncs()

// declared holds the symbol table's unsimulated names (see Declare).
var declared struct {
	sync.Mutex
	ids map[string]FuncID
}

// libFunc is one simulated function: its name and its handler.
type libFunc struct {
	name string
	handler
}

func buildFuncs() ([]libFunc, map[string]FuncID) {
	t := buildCallTable()
	names := make([]string, 0, len(t))
	for name := range t {
		names = append(names, name)
	}
	sort.Strings(names)
	fs := make([]libFunc, len(names))
	ids := make(map[string]FuncID, len(names))
	for i, name := range names {
		fs[i].name, fs[i].handler = name, t[name]
		ids[name] = FuncID(i)
	}
	return fs, ids
}

// Lookup returns name's ID, or NoFunc for a name neither simulated nor
// declared.
func Lookup(name string) FuncID {
	if id, ok := funcIDs[name]; ok {
		return id
	}
	declared.Lock()
	defer declared.Unlock()
	if id, ok := declared.ids[name]; ok {
		return id
	}
	return NoFunc
}

// Declare returns name's ID, first adding name to the symbol table as an
// unsimulated function if it holds no such name. A call to a declared
// function fails exactly like a call to an unknown name.
func Declare(name string) FuncID {
	if id, ok := funcIDs[name]; ok {
		return id
	}
	declared.Lock()
	defer declared.Unlock()
	if id, ok := declared.ids[name]; ok {
		return id
	}
	if declared.ids == nil {
		declared.ids = make(map[string]FuncID)
	}
	id := FuncID(len(funcs) + len(declared.ids))
	declared.ids[name] = id
	return id
}

// Call executes the named library function. It returns the call's result
// and sets o.Errno on failure. The error return is reserved for simulation-
// level conditions: ErrBlocked (the interpreter should yield and retry),
// memory access errors from transaction-aware stores (which the runtime
// turns into aborts/crashes), and ErrCorrupt for operations that real libc
// would abort the process for (wild free).
func (o *OS) Call(name string, args []int64) (int64, error) {
	return o.CallFunc(Lookup(name), name, args)
}

// CallFunc executes library function id, which callers resolved from
// name once, at link time; it behaves exactly like Call(name, args). The
// name stays authoritative: an id that does not name a simulated function
// called name is resolved again from name, so a stale or missing cache
// costs a lookup, never a wrong call.
func (o *OS) CallFunc(id FuncID, name string, args []int64) (int64, error) {
	if uint(id) >= uint(len(funcs)) || funcs[id].name != name {
		if id = Lookup(name); uint(id) >= uint(len(funcs)) {
			return 0, fmt.Errorf("libsim: unknown library function %q", name)
		}
	}
	h := &funcs[id]
	if h.args >= 0 && len(args) != h.args {
		return 0, fmt.Errorf("libsim: %s called with %d args, want %d", name, len(args), h.args)
	}
	if o.Trace != nil {
		o.Trace(name)
	}
	return h.fn(o, args)
}

// Known reports whether name is an implemented library function.
func Known(name string) bool { return uint(Lookup(name)) < uint(len(funcs)) }

// ErrCorrupt reports heap corruption (wild/double free): real allocators
// abort the process, so the interpreter converts this into a fail-stop
// crash inside the application.
var ErrCorrupt = fmt.Errorf("libsim: heap corruption detected")

func buildCallTable() map[string]handler {
	t := map[string]handler{}

	// --- memory management -------------------------------------------------
	t["malloc"] = handler{1, func(o *OS, a []int64) (int64, error) {
		return o.alloc(a[0])
	}}
	t["calloc"] = handler{2, func(o *OS, a []int64) (int64, error) {
		return o.alloc(a[0] * a[1])
	}}
	t["realloc"] = handler{2, func(o *OS, a []int64) (int64, error) {
		if o.arenaOwns(a[0]) {
			return o.arenaRealloc(a[0], a[1])
		}
		if o.oomNow() {
			o.Errno = ENOMEM
			return 0, nil
		}
		r := o.heap.Realloc(a[0], a[1])
		if r == -1 {
			return 0, ErrCorrupt
		}
		if r == 0 {
			o.Errno = ENOMEM
		}
		return r, nil
	}}
	t["posix_memalign"] = handler{3, func(o *OS, a []int64) (int64, error) {
		// posix_memalign(outptr, alignment, size): returns an errno
		// value directly, 0 on success.
		if o.oomNow() {
			return ENOMEM, nil
		}
		addr := o.heap.AllocAligned(a[1], a[2])
		if addr == 0 {
			return ENOMEM, nil
		}
		if err := o.storeScalar(a[0], addr, 8); err != nil {
			return 0, err
		}
		return 0, nil
	}}
	t["free"] = handler{1, func(o *OS, a []int64) (int64, error) {
		if a[0] == 0 {
			return 0, nil
		}
		if o.arenaOwns(a[0]) {
			return 0, nil // bump arenas reclaim wholesale at request end
		}
		if o.deferFree != nil && o.deferFree(a[0]) {
			return 0, nil
		}
		if !o.heap.Free(a[0]) {
			return 0, ErrCorrupt
		}
		return 0, nil
	}}
	t["arena_alloc"] = handler{1, func(o *OS, a []int64) (int64, error) {
		return o.ArenaAlloc(a[0])
	}}
	t["arena_reset"] = handler{0, func(o *OS, a []int64) (int64, error) {
		o.ArenaReset()
		return 0, nil
	}}
	t["mmap"] = handler{1, func(o *OS, a []int64) (int64, error) {
		// Anonymous mapping of a[0] bytes (page-aligned chunk from the
		// allocator's aligned path).
		if o.oomNow() {
			o.Errno = ENOMEM
			return -1, nil
		}
		addr := o.heap.AllocAligned(mem.PageSize, a[0])
		if addr == 0 {
			o.Errno = ENOMEM
			return -1, nil
		}
		return addr, nil
	}}
	t["munmap"] = handler{2, func(o *OS, a []int64) (int64, error) {
		if !o.heap.Free(a[0]) {
			o.Errno = EINVAL
			return -1, nil
		}
		return 0, nil
	}}

	// --- string/memory helpers (embedded libcalls) --------------------------
	t["memset"] = handler{3, func(o *OS, a []int64) (int64, error) {
		dst, c, n := a[0], a[1], a[2]
		if n < 0 {
			return dst, nil
		}
		// One staged page of the fill byte serves every chunk; a page is
		// a multiple of 8 bytes, so chunking keeps the range's unit split.
		buf := o.staging(n)
		if len(buf) > 0 {
			buf[0] = byte(c)
			for k := 1; k < len(buf); k *= 2 {
				copy(buf[k:], buf[:k])
			}
		}
		for i := int64(0); i < n; i += int64(len(buf)) {
			units, err := o.store(dst+i, buf[:min(n-i, int64(len(buf)))])
			o.charge(2 * int64(units))
			if err != nil {
				return 0, err
			}
		}
		return dst, nil
	}}
	t["memcpy"] = handler{3, func(o *OS, a []int64) (int64, error) {
		dst, src, n := a[0], a[1], a[2]
		if n < 0 {
			return dst, nil
		}
		if err := o.memcpy(dst, src, n); err != nil {
			return 0, err
		}
		return dst, nil
	}}
	t["strlen"] = handler{1, func(o *OS, a []int64) (int64, error) {
		n := int64(0)
		for {
			b, err := o.Space.Load(a[0]+n, 1)
			if err != nil {
				return 0, err
			}
			o.charge(1)
			if b == 0 {
				return n, nil
			}
			n++
		}
	}}
	t["strcmp"] = handler{2, func(o *OS, a []int64) (int64, error) {
		return o.strncmp(a[0], a[1], -1)
	}}
	t["strncmp"] = handler{3, func(o *OS, a []int64) (int64, error) {
		return o.strncmp(a[0], a[1], a[2])
	}}
	t["strcpy"] = handler{2, func(o *OS, a []int64) (int64, error) {
		dst, src := a[0], a[1]
		for i := int64(0); ; i++ {
			b, err := o.Space.Load(src+i, 1)
			if err != nil {
				return 0, err
			}
			o.charge(3)
			if err := o.storeScalar(dst+i, b, 1); err != nil {
				return 0, err
			}
			if b == 0 {
				return dst, nil
			}
		}
	}}
	t["atoi"] = handler{1, func(o *OS, a []int64) (int64, error) {
		s, err := o.Space.ReadCString(a[0], 64)
		if err != nil {
			return 0, err
		}
		var v int64
		neg := false
		for i, ch := range []byte(s) {
			if i == 0 && ch == '-' {
				neg = true
				continue
			}
			if ch < '0' || ch > '9' {
				break
			}
			v = v*10 + int64(ch-'0')
		}
		if neg {
			v = -v
		}
		return v, nil
	}}

	// --- sockets -------------------------------------------------------------
	t["socket"] = handler{0, func(o *OS, a []int64) (int64, error) {
		fd := o.allocFD(FD{Kind: FDListener, Listener: &Listener{Opts: map[int64]int64{}}})
		if fd < 0 {
			o.Errno = EMFILE
			return -1, nil
		}
		return fd, nil
	}}
	t["setsockopt"] = handler{3, func(o *OS, a []int64) (int64, error) {
		s := o.lookupFD(a[0])
		if s == nil || s.Kind != FDListener {
			o.Errno = EBADF
			return -1, nil
		}
		s.Listener.Opts[a[1]] = a[2]
		return 0, nil
	}}
	t["getsockopt"] = handler{2, func(o *OS, a []int64) (int64, error) {
		s := o.lookupFD(a[0])
		if s == nil || s.Kind != FDListener {
			o.Errno = EBADF
			return -1, nil
		}
		return s.Listener.Opts[a[1]], nil
	}}
	t["bind"] = handler{2, func(o *OS, a []int64) (int64, error) {
		s := o.lookupFD(a[0])
		if s == nil || s.Kind != FDListener {
			o.Errno = EBADF
			return -1, nil
		}
		port := a[1]
		if _, taken := o.ports[port]; taken {
			o.Errno = EADDRINUSE
			return -1, nil
		}
		s.Listener.Port = port
		o.ports[port] = s.Listener
		return 0, nil
	}}
	t["listen"] = handler{2, func(o *OS, a []int64) (int64, error) {
		s := o.lookupFD(a[0])
		if s == nil || s.Kind != FDListener {
			o.Errno = EBADF
			return -1, nil
		}
		s.Listener.backlog = int(a[1])
		return 0, nil
	}}
	t["accept"] = handler{1, func(o *OS, a []int64) (int64, error) {
		s := o.lookupFD(a[0])
		if s == nil || s.Kind != FDListener {
			o.Errno = EBADF
			return -1, nil
		}
		if len(s.Listener.queue) == 0 {
			o.Errno = EAGAIN
			return -1, nil
		}
		q := s.Listener.queue
		c := q[0]
		q[0] = nil
		if len(q) == 1 {
			// Drained: rewind so the next Connect reuses the array.
			q = q[:0]
		} else {
			q = q[1:]
		}
		s.Listener.queue = q
		fd := o.allocFD(FD{Kind: FDConn, Conn: c})
		if fd < 0 {
			o.Errno = EMFILE
			return -1, nil
		}
		return fd, nil
	}}
	t["read"] = handler{3, func(o *OS, a []int64) (int64, error) {
		return o.doRead(a[0], a[1], a[2])
	}}
	t["recv"] = handler{3, func(o *OS, a []int64) (int64, error) {
		return o.doRead(a[0], a[1], a[2])
	}}
	t["write"] = handler{3, func(o *OS, a []int64) (int64, error) {
		return o.doWrite(a[0], a[1], a[2])
	}}
	t["send"] = handler{3, func(o *OS, a []int64) (int64, error) {
		return o.doWrite(a[0], a[1], a[2])
	}}
	t["close"] = handler{1, func(o *OS, a []int64) (int64, error) {
		if !o.CloseFD(a[0]) {
			o.Errno = EBADF
			return -1, nil
		}
		return 0, nil
	}}
	t["shutdown"] = handler{2, func(o *OS, a []int64) (int64, error) {
		s := o.lookupFD(a[0])
		if s == nil || s.Kind != FDConn {
			o.Errno = EBADF
			return -1, nil
		}
		s.Conn.CloseServer()
		return 0, nil
	}}
	t["fcntl"] = handler{3, func(o *OS, a []int64) (int64, error) {
		s := o.lookupFD(a[0])
		if s == nil {
			o.Errno = EBADF
			return -1, nil
		}
		switch a[1] {
		case FSetFl:
			s.NonBlock = a[2] != 0
			return 0, nil
		case FGetFl:
			if s.NonBlock {
				return 1, nil
			}
			return 0, nil
		default:
			o.Errno = EINVAL
			return -1, nil
		}
	}}

	// --- epoll ---------------------------------------------------------------
	t["epoll_create"] = handler{0, func(o *OS, a []int64) (int64, error) {
		fd := o.allocFD(FD{Kind: FDEpoll, Epoll: &Epoll{}})
		if fd < 0 {
			o.Errno = EMFILE
			return -1, nil
		}
		return fd, nil
	}}
	t["epoll_ctl"] = handler{3, func(o *OS, a []int64) (int64, error) {
		s := o.lookupFD(a[0])
		if s == nil || s.Kind != FDEpoll {
			o.Errno = EBADF
			return -1, nil
		}
		switch a[1] {
		case EpollCtlAdd:
			if o.lookupFD(a[2]) == nil {
				o.Errno = EBADF
				return -1, nil
			}
			s.Epoll.watch(a[2])
		case EpollCtlDel:
			s.Epoll.unwatch(a[2])
		default:
			o.Errno = EINVAL
			return -1, nil
		}
		return 0, nil
	}}
	t["epoll_wait"] = handler{3, func(o *OS, a []int64) (int64, error) {
		s := o.lookupFD(a[0])
		if s == nil || s.Kind != FDEpoll {
			o.Errno = EBADF
			return -1, nil
		}
		if a[2] <= 0 {
			o.Errno = EINVAL
			return -1, nil
		}
		ready := o.readyFDs(s.Epoll)
		if len(ready) == 0 {
			return 0, ErrBlocked
		}
		n := int64(len(ready))
		if n > a[2] {
			n = a[2]
		}
		for i := int64(0); i < n; i++ {
			if err := o.storeScalar(a[1]+i*8, ready[i], 8); err != nil {
				return 0, err
			}
		}
		return n, nil
	}}

	// --- files ---------------------------------------------------------------
	t["open"] = handler{2, func(o *OS, a []int64) (int64, error) {
		return o.doOpen(a[0], a[1])
	}}
	t["open64"] = handler{2, func(o *OS, a []int64) (int64, error) {
		return o.doOpen(a[0], a[1])
	}}
	t["fstat"] = handler{2, func(o *OS, a []int64) (int64, error) {
		s := o.lookupFD(a[0])
		if s == nil || s.Kind != FDFile || s.File == nil {
			o.Errno = EBADF
			return -1, nil
		}
		if err := o.storeScalar(a[1], int64(len(s.File.File.Data)), 8); err != nil {
			return 0, err
		}
		if err := o.storeScalar(a[1]+8, s.File.File.Mode, 8); err != nil {
			return 0, err
		}
		return 0, nil
	}}
	t["stat"] = handler{2, func(o *OS, a []int64) (int64, error) {
		path, err := o.Space.ReadCString(a[0], 256)
		if err != nil {
			return 0, err
		}
		f := o.fs.Lookup(path)
		if f == nil {
			o.Errno = ENOENT
			return -1, nil
		}
		if err := o.storeScalar(a[1], int64(len(f.Data)), 8); err != nil {
			return 0, err
		}
		if err := o.storeScalar(a[1]+8, f.Mode, 8); err != nil {
			return 0, err
		}
		return 0, nil
	}}
	t["pread"] = handler{4, func(o *OS, a []int64) (int64, error) {
		s := o.lookupFD(a[0])
		if s == nil || s.Kind != FDFile || s.File == nil {
			o.Errno = EBADF
			return -1, nil
		}
		off, n := a[3], a[2]
		data := s.File.File.Data
		if off < 0 || n < 0 {
			o.Errno = EINVAL
			return -1, nil
		}
		if off >= int64(len(data)) {
			return 0, nil
		}
		end := off + n
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		if err := o.writeBytes(a[1], data[off:end]); err != nil {
			return 0, err
		}
		return end - off, nil
	}}
	t["pwrite"] = handler{4, func(o *OS, a []int64) (int64, error) {
		s := o.lookupFD(a[0])
		if s == nil || s.Kind != FDFile || s.File == nil {
			o.Errno = EBADF
			return -1, nil
		}
		if a[2] < 0 || a[3] < 0 {
			o.Errno = EINVAL
			return -1, nil
		}
		buf, err := o.Space.ReadBytes(a[1], a[2])
		if err != nil {
			return 0, err
		}
		f := s.File.File
		off := a[3]
		f.writeAt(off, buf)
		o.fs.WriteLog = append(o.fs.WriteLog, fmt.Sprintf("pwrite %s %d@%d", f.Name, a[2], off))
		return a[2], nil
	}}
	t["lseek"] = handler{3, func(o *OS, a []int64) (int64, error) {
		s := o.lookupFD(a[0])
		if s == nil || s.Kind != FDFile || s.File == nil {
			o.Errno = EBADF
			return -1, nil
		}
		f := s.File
		switch a[2] {
		case SeekSet:
			f.Offset = a[1]
		case SeekCur:
			f.Offset += a[1]
		case SeekEnd:
			f.Offset = int64(len(f.File.Data)) + a[1]
		default:
			o.Errno = EINVAL
			return -1, nil
		}
		if f.Offset < 0 {
			f.Offset = 0
			o.Errno = EINVAL
			return -1, nil
		}
		return f.Offset, nil
	}}
	t["unlink"] = handler{1, func(o *OS, a []int64) (int64, error) {
		path, err := o.Space.ReadCString(a[0], 256)
		if err != nil {
			return 0, err
		}
		if !o.fs.Remove(path) {
			o.Errno = ENOENT
			return -1, nil
		}
		o.fs.WriteLog = append(o.fs.WriteLog, "unlink "+path)
		return 0, nil
	}}
	t["rename"] = handler{2, func(o *OS, a []int64) (int64, error) {
		from, err := o.Space.ReadCString(a[0], 256)
		if err != nil {
			return 0, err
		}
		to, err := o.Space.ReadCString(a[1], 256)
		if err != nil {
			return 0, err
		}
		if !o.fs.Rename(from, to) {
			o.Errno = ENOENT
			return -1, nil
		}
		o.fs.WriteLog = append(o.fs.WriteLog, "rename "+from+" "+to)
		return 0, nil
	}}
	t["fsync"] = handler{1, func(o *OS, a []int64) (int64, error) {
		s := o.lookupFD(a[0])
		if s == nil || s.Kind != FDFile || s.File == nil {
			o.Errno = EBADF
			return -1, nil
		}
		o.fs.WriteLog = append(o.fs.WriteLog, "fsync "+s.File.File.Name)
		return 0, nil
	}}

	// --- misc ----------------------------------------------------------------
	t["getpid"] = handler{0, func(o *OS, a []int64) (int64, error) {
		return pid, nil
	}}
	t["errno"] = handler{0, func(o *OS, a []int64) (int64, error) {
		return o.Errno, nil
	}}
	t["htons"] = handler{1, func(o *OS, a []int64) (int64, error) {
		v := a[0] & 0xffff
		return (v>>8 | v<<8) & 0xffff, nil
	}}
	t["ntohl"] = handler{1, func(o *OS, a []int64) (int64, error) {
		v := uint32(a[0])
		return int64(v>>24 | (v>>8)&0xff00 | (v<<8)&0xff0000 | v<<24), nil
	}}
	t["time"] = handler{0, func(o *OS, a []int64) (int64, error) {
		o.clock += 1000
		return o.clock / 1_000_000_000, nil
	}}
	t["clock_gettime"] = handler{0, func(o *OS, a []int64) (int64, error) {
		o.clock += 1000
		return o.clock, nil
	}}
	t["gettimeofday"] = handler{0, func(o *OS, a []int64) (int64, error) {
		o.clock += 1000
		return o.clock / 1000, nil
	}}
	t["usleep"] = handler{1, func(o *OS, a []int64) (int64, error) {
		o.clock += a[0] * 1000
		return 0, nil
	}}
	t["puts"] = handler{1, func(o *OS, a []int64) (int64, error) {
		n, err := o.printString(a[0])
		if err != nil {
			return 0, err
		}
		o.stdout = append(o.stdout, '\n')
		return n + 1, nil
	}}
	t["printf"] = handler{1, func(o *OS, a []int64) (int64, error) {
		return o.printString(a[0])
	}}
	t["putint"] = handler{1, func(o *OS, a []int64) (int64, error) {
		s := fmt.Sprintf("%d", a[0])
		o.stdout = append(o.stdout, s...)
		return int64(len(s)), nil
	}}

	// --- threads (pthread analogs, dispatched to the scheduler) --------------
	// thread_create(name, arg) spawns the named function as a thread and
	// returns its id; thread_join(tid) blocks until it exits. mutex_lock/
	// mutex_unlock return 0 or a pthread-style error code directly (no
	// errno), like the pthread_mutex_* family. All of them fail with
	// EINVAL when no scheduler is attached (single-threaded runs).
	t["thread_create"] = handler{2, func(o *OS, a []int64) (int64, error) {
		if o.threads == nil {
			o.Errno = EINVAL
			return -1, nil
		}
		name, err := o.Space.ReadCString(a[0], 128)
		if err != nil {
			return 0, err
		}
		o.charge(800) // clone + stack setup
		return o.threads.Create(name, a[1])
	}}
	t["thread_join"] = handler{1, func(o *OS, a []int64) (int64, error) {
		if o.threads == nil {
			o.Errno = EINVAL
			return -1, nil
		}
		o.charge(40)
		return o.threads.Join(a[0])
	}}
	t["mutex_lock"] = handler{1, func(o *OS, a []int64) (int64, error) {
		if o.threads == nil {
			return EINVAL, nil
		}
		o.charge(20)
		return o.threads.MutexLock(a[0])
	}}
	t["mutex_unlock"] = handler{1, func(o *OS, a []int64) (int64, error) {
		if o.threads == nil {
			return EINVAL, nil
		}
		o.charge(20)
		return o.threads.MutexUnlock(a[0])
	}}

	return t
}

func (o *OS) alloc(size int64) (int64, error) {
	if o.oomNow() {
		o.Errno = ENOMEM
		return 0, nil
	}
	addr := o.heap.Alloc(size)
	if addr == 0 {
		o.Errno = ENOMEM
	}
	return addr, nil
}

// oomNow consumes one tick of the OOMAfter countdown and reports whether
// this allocation should fail.
func (o *OS) oomNow() bool {
	if o.OOMAfter > 0 {
		o.OOMAfter--
		return o.OOMAfter == 0
	}
	return false
}

func (o *OS) strncmp(p, q, n int64) (int64, error) {
	for i := int64(0); n < 0 || i < n; i++ {
		o.charge(2)
		a, err := o.Space.Load(p+i, 1)
		if err != nil {
			return 0, err
		}
		b, err := o.Space.Load(q+i, 1)
		if err != nil {
			return 0, err
		}
		if a != b {
			if a < b {
				return -1, nil
			}
			return 1, nil
		}
		if a == 0 {
			return 0, nil
		}
	}
	return 0, nil
}

func (o *OS) doRead(fd, buf, n int64) (int64, error) {
	s := o.lookupFD(fd)
	if s == nil {
		o.Errno = EBADF
		return -1, nil
	}
	if n < 0 {
		o.Errno = EINVAL
		return -1, nil
	}
	switch s.Kind {
	case FDConn:
		c := s.Conn
		if c.reset {
			o.Errno = ECONNRESET
			return -1, nil
		}
		if len(c.in) == 0 {
			if c.clientClosed {
				return 0, nil // EOF
			}
			o.Errno = EAGAIN
			return -1, nil
		}
		take := n
		if take > int64(len(c.in)) {
			take = int64(len(c.in))
		}
		data := c.in[:take]
		if err := o.writeBytes(buf, data); err != nil {
			return 0, err
		}
		o.setLastRead(fd, data)
		o.servingFD = fd
		if c.pendingTrace != 0 {
			// First read of a traced request: promote the pending ID to
			// the connection's active trace and announce the activation.
			c.trace = c.pendingTrace
			c.pendingTrace = 0
			if o.onTrace != nil {
				o.onTrace(c.trace)
			}
		}
		if take == int64(len(c.in)) {
			// Drained: rewind to the front of the backing array so the
			// client's next delivery reuses it (setLastRead copied the
			// bytes, so nothing aliases them).
			c.in = c.in[:0]
		} else {
			c.in = c.in[take:]
		}
		return take, nil
	case FDFile:
		f := s.File
		if f == nil {
			o.Errno = EBADF
			return -1, nil
		}
		data := f.File.Data
		if f.Offset >= int64(len(data)) {
			return 0, nil
		}
		end := f.Offset + n
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		chunk := data[f.Offset:end]
		if err := o.writeBytes(buf, chunk); err != nil {
			return 0, err
		}
		o.setLastRead(fd, chunk)
		got := end - f.Offset
		f.Offset = end
		return got, nil
	default:
		o.Errno = EBADF
		return -1, nil
	}
}

func (o *OS) doWrite(fd, buf, n int64) (int64, error) {
	s := o.lookupFD(fd)
	if s == nil {
		o.Errno = EBADF
		return -1, nil
	}
	if n < 0 {
		o.Errno = EINVAL
		return -1, nil
	}
	// Every sink below copies the payload out (append or copy into the
	// target), so a reusable scratch buffer is safe and avoids one
	// allocation per write call.
	if int64(cap(o.wscratch)) < n {
		o.wscratch = make([]byte, n)
	}
	data := o.wscratch[:n]
	if err := o.Space.ReadInto(buf, data); err != nil {
		return 0, err
	}
	o.charge(n)
	switch s.Kind {
	case FDConn:
		c := s.Conn
		if c.reset {
			o.Errno = ECONNRESET
			return -1, nil
		}
		if c.serverClosed {
			o.Errno = EPIPE
			return -1, nil
		}
		if o.arena.on {
			o.auditWrite(fd, buf, n, c.trace)
		}
		c.pushOut(data)
		o.servingFD = fd
		return n, nil
	case FDFile:
		if fd <= 2 || s.File == nil {
			o.stdout = append(o.stdout, data...)
			return n, nil
		}
		f := s.File
		file := f.File
		if f.Flags&OAppend != 0 {
			f.Offset = int64(len(file.Data))
		}
		file.writeAt(f.Offset, data)
		f.Offset += n
		o.fs.WriteLog = append(o.fs.WriteLog, fmt.Sprintf("write %s %d", file.Name, n))
		return n, nil
	default:
		o.Errno = EBADF
		return -1, nil
	}
}

// printString appends the C string at addr to stdout (puts and printf)
// and returns its length. On error stdout is unchanged.
func (o *OS) printString(addr int64) (int64, error) {
	out, err := o.Space.AppendCString(o.stdout, addr, 4096)
	if err != nil {
		return 0, err
	}
	n := int64(len(out) - len(o.stdout))
	o.stdout = out
	return n, nil
}

func (o *OS) doOpen(pathAddr, flags int64) (int64, error) {
	// The path is read into the write scratch and looked up as bytes;
	// only creating a file allocates its name.
	path, err := o.Space.AppendCString(o.wscratch[:0], pathAddr, 256)
	if err != nil {
		return 0, err
	}
	o.wscratch = path[:0]
	f := o.fs.files[string(path)]
	if f == nil {
		if flags&OCreat == 0 {
			o.Errno = ENOENT
			return -1, nil
		}
		name := string(path)
		f = o.fs.Add(name, nil)
		o.fs.WriteLog = append(o.fs.WriteLog, "creat "+name)
	}
	if flags&OTrunc != 0 {
		f.Data = nil
		o.fs.WriteLog = append(o.fs.WriteLog, "trunc "+string(path))
	}
	fd := o.allocFD(FD{Kind: FDFile})
	if fd < 0 {
		o.Errno = EMFILE
		return -1, nil
	}
	s := &o.fds[fd]
	if s.File == nil {
		s.File = new(OpenFile)
	}
	*s.File = OpenFile{File: f, Flags: flags}
	return fd, nil
}
