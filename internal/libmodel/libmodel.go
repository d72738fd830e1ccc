// Package libmodel is the knowledge base of the Library Interface Analyzer
// (§III and §V-A of the paper): for every standard library function it
// records the recoverability class, whether fault-injection-based execution
// diversion is possible, the documented error return value and errno, and —
// for the recoverable classes — an executable compensation action that
// reverts the call's effects before a fault is injected into it.
//
// The canonical data set is the 101 functions of the paper's Table II,
// whose per-class and per-column totals this package reproduces exactly
// (23/35/7/20/16 rows; 61 divertable / 40 not). A handful of extra entries
// (marked InTable=false) cover simulation-only helpers so the runtime has
// semantics for every call the example servers make.
package libmodel

import (
	"fmt"
	"sort"

	"github.com/firestarter-go/firestarter/internal/libsim"
)

// Class is a recoverability class from Table II.
type Class int

// Recoverability classes (§V-A).
const (
	// Reversible: a revert operation exists (munmap reverts mmap,
	// close reverts open).
	Reversible Class = iota + 1
	// NoReversion: the call is idempotent and does not modify
	// application-visible state (getpid, stat).
	NoReversion
	// Deferrable: the call's effect can be deferred until the enclosing
	// transaction commits (free, close).
	Deferrable
	// StateRestore: reversible only if specific pre-call state is
	// restored (malloc needs the block freed, read needs the bytes
	// pushed back, lseek needs the old offset).
	StateRestore
	// Irrecoverable: externally visible side effects that process-local
	// operations cannot undo (write, send, rename).
	Irrecoverable
)

// String returns the class name as used in Table II.
func (c Class) String() string {
	switch c {
	case Reversible:
		return "Operation reversible"
	case NoReversion:
		return "No reversion needed"
	case Deferrable:
		return "Operation deferrable"
	case StateRestore:
		return "State restoration needed"
	case Irrecoverable:
		return "Irrecoverable"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Call records one executed library call: the runtime captures it at every
// transaction gate so the Fault Injector can compensate and divert.
type Call struct {
	Name string
	Args []int64
	Ret  int64
}

// Entry describes one library function.
type Entry struct {
	Name  string
	Class Class

	// Divertable reports whether fault-injection-based execution path
	// diversion is possible: the function documents an error return
	// that callers are expected to check (Table II's first column).
	Divertable bool

	// ErrorReturn and Errno describe the documented failure mode used
	// when injecting a fault. ErrnoDirect marks posix_memalign-style
	// functions that return the error number instead of setting errno.
	ErrorReturn int64
	Errno       int64
	ErrnoDirect bool

	// InTable marks the canonical 101 functions counted in Table II.
	InTable bool

	// Capture snapshots pre-call state needed by Compensate (e.g. the
	// file offset before lseek). It runs just before the call executes;
	// nil when no state is needed.
	Capture func(o *libsim.OS, c Call) any

	// Compensate reverts the call's effects prior to fault injection
	// (§V-B). nil for classes that need no compensation. aux is the
	// value Capture returned.
	Compensate func(o *libsim.OS, c Call, aux any)
}

// Recoverable reports whether a crash transaction starting after this call
// can be recovered at all (every class except Irrecoverable).
func (e *Entry) Recoverable() bool { return e.Class != Irrecoverable }

// Injectable reports whether the Fault Injector can divert execution at
// this call: the function must be both recoverable and divertable.
func (e *Entry) Injectable() bool { return e.Recoverable() && e.Divertable }

// Model is the complete knowledge base. Its entries are indexed by
// library ID (libsim.FuncID): every entry's name is declared in libsim's
// symbol table, so a caller that resolved a call's ID once reads the
// entry without hashing the name.
type Model struct {
	byID []*Entry
}

// Lookup returns the entry for a function, or nil if unknown.
func (m *Model) Lookup(name string) *Entry { return m.Entry(libsim.Lookup(name)) }

// Entry returns the entry for library function id, or nil if the model
// does not describe it.
func (m *Model) Entry(id libsim.FuncID) *Entry {
	if uint(id) >= uint(len(m.byID)) {
		return nil
	}
	return m.byID[id]
}

// Names returns all function names in sorted order.
func (m *Model) Names() []string {
	var names []string
	for _, e := range m.byID {
		if e != nil {
			names = append(names, e.Name)
		}
	}
	sort.Strings(names)
	return names
}

// TableII aggregates the canonical entries into the paper's Table II
// layout: counts[class][0] is the number of functions where diversion is
// possible, counts[class][1] where it is not.
func (m *Model) TableII() map[Class][2]int {
	counts := make(map[Class][2]int)
	for _, e := range m.byID {
		if e == nil || !e.InTable {
			continue
		}
		c := counts[e.Class]
		if e.Divertable {
			c[0]++
		} else {
			c[1]++
		}
		counts[e.Class] = c
	}
	return counts
}

// CanonicalCount returns the number of Table II functions (101).
func (m *Model) CanonicalCount() int {
	n := 0
	for _, e := range m.byID {
		if e != nil && e.InTable {
			n++
		}
	}
	return n
}

// Default builds the standard knowledge base. The function lists mirror
// Table II's totals exactly; see the package comment.
func Default() *Model {
	m := &Model{}

	compCloseRet := func(o *libsim.OS, c Call, _ any) {
		if c.Ret >= 0 {
			o.CloseFD(c.Ret)
		}
	}
	compFreeRet := func(o *libsim.OS, c Call, _ any) {
		if c.Ret > 0 {
			o.Heap().Free(c.Ret)
		}
	}

	// --- Operation reversible, diversion possible (23) ---------------------
	// Descriptor/region creators: reverted by closing/unmapping the result.
	for _, name := range []string{
		"open", "open64", "openat", "creat", "socket", "accept", "accept4",
		"epoll_create", "epoll_create1", "dup", "dup2", "pipe", "socketpair",
		"eventfd", "timerfd_create", "signalfd", "inotify_init",
		"memfd_create", "shm_open", "mkstemp", "fopen", "opendir",
	} {
		errno := int64(libsim.EMFILE)
		if name == "open" || name == "open64" || name == "openat" || name == "creat" || name == "fopen" || name == "opendir" {
			errno = libsim.EACCES
		}
		m.add(&Entry{
			Name: name, Class: Reversible, Divertable: true,
			ErrorReturn: -1, Errno: errno, InTable: true,
			Compensate: compCloseRet,
		})
	}
	m.add(&Entry{
		Name: "mmap", Class: Reversible, Divertable: true,
		ErrorReturn: -1, Errno: libsim.ENOMEM, InTable: true,
		Compensate: compFreeRet,
	})

	// --- No reversion needed, diversion possible (9) -----------------------
	for _, e := range []Entry{
		{Name: "stat", Errno: libsim.EACCES},
		{Name: "fstat", Errno: libsim.EBADF},
		{Name: "lstat", Errno: libsim.EACCES},
		{Name: "access", Errno: libsim.EACCES},
		{Name: "getsockname", Errno: libsim.EBADF},
		{Name: "getpeername", Errno: libsim.ENOTCONN},
		{Name: "getsockopt", Errno: libsim.EINVAL},
		{Name: "readlink", Errno: libsim.EINVAL},
		{Name: "epoll_wait", Errno: libsim.EINTR},
	} {
		e.Class = NoReversion
		e.Divertable = true
		e.ErrorReturn = -1
		e.InTable = true
		m.add(&e)
	}

	// --- No reversion needed, diversion NOT possible (26) ------------------
	// Calls that cannot report errors (strlen) or whose return values are
	// conventionally ignored (printf); their sites cannot start a
	// transaction but embed into the enclosing one.
	for _, name := range []string{
		"getpid", "getppid", "getuid", "geteuid", "getgid", "getegid",
		"time", "clock_gettime", "gettimeofday", "strlen", "strcmp",
		"strncmp", "memcmp", "htons", "ntohl", "isatty", "getenv",
		"sysconf", "getpagesize", "printf", "puts", "putchar", "snprintf",
		"random", "usleep", "atoi",
	} {
		m.add(&Entry{Name: name, Class: NoReversion, InTable: true})
	}

	// --- Operation deferrable, diversion possible (5) ----------------------
	// The deferred-action machinery (runtime) postpones the real effect to
	// commit time; at injection time there is nothing left to revert.
	for _, e := range []Entry{
		{Name: "close", Errno: libsim.EBADF},
		{Name: "fclose", Errno: libsim.EBADF},
		{Name: "closedir", Errno: libsim.EBADF},
		{Name: "munmap", Errno: libsim.EINVAL},
		{Name: "shutdown", Errno: libsim.ENOTCONN},
	} {
		e.Class = Deferrable
		e.Divertable = true
		e.ErrorReturn = -1
		e.InTable = true
		m.add(&e)
	}

	// --- Operation deferrable, diversion NOT possible (2) ------------------
	for _, name := range []string{"free", "cfree"} {
		m.add(&Entry{Name: name, Class: Deferrable, InTable: true})
	}

	// --- State restoration needed, diversion possible (12) -----------------
	for _, name := range []string{"malloc", "calloc", "realloc"} {
		m.add(&Entry{
			Name: name, Class: StateRestore, Divertable: true,
			ErrorReturn: 0, Errno: libsim.ENOMEM, InTable: true,
			Compensate: compFreeRet,
		})
	}
	m.add(&Entry{
		Name: "posix_memalign", Class: StateRestore, Divertable: true,
		ErrorReturn: libsim.ENOMEM, ErrnoDirect: true, InTable: true,
		Compensate: func(o *libsim.OS, c Call, _ any) {
			// The block address went through the out-pointer (arg 0).
			if c.Ret != 0 || len(c.Args) == 0 {
				return
			}
			if p, err := o.Space.Load(c.Args[0], 8); err == nil && p != 0 {
				o.Heap().Free(p)
			}
		},
	})
	for _, name := range []string{"read", "recv"} {
		m.add(&Entry{
			Name: name, Class: StateRestore, Divertable: true,
			ErrorReturn: -1, Errno: libsim.ECONNRESET, InTable: true,
			Compensate: func(o *libsim.OS, c Call, _ any) {
				// Push consumed bytes back so environment state matches
				// the pre-call checkpoint.
				if rec := o.LastRead(); rec != nil && len(c.Args) > 0 && rec.FD == c.Args[0] && c.Ret > 0 {
					o.Unread(rec.FD, rec.Data)
				}
			},
		})
	}
	m.add(&Entry{
		Name: "pread", Class: StateRestore, Divertable: true,
		ErrorReturn: -1, Errno: libsim.EINVAL, InTable: true,
		// pread does not move the offset: nothing to restore.
	})
	m.add(&Entry{
		Name: "setsockopt", Class: StateRestore, Divertable: true,
		ErrorReturn: -1, Errno: libsim.EINVAL, InTable: true,
		Capture: func(o *libsim.OS, c Call) any {
			if len(c.Args) < 2 {
				return nil
			}
			old, err := o.Call("getsockopt", []int64{c.Args[0], c.Args[1]})
			if err != nil {
				return nil
			}
			return old
		},
		Compensate: func(o *libsim.OS, c Call, aux any) {
			old, ok := aux.(int64)
			if !ok || len(c.Args) < 2 {
				return
			}
			_, _ = o.Call("setsockopt", []int64{c.Args[0], c.Args[1], old})
		},
	})
	m.add(&Entry{
		Name: "bind", Class: StateRestore, Divertable: true,
		ErrorReturn: -1, Errno: libsim.EACCES, InTable: true,
		Compensate: func(o *libsim.OS, c Call, _ any) {
			if c.Ret == 0 && len(c.Args) >= 2 {
				o.Unbind(c.Args[1])
			}
		},
	})
	m.add(&Entry{
		Name: "listen", Class: StateRestore, Divertable: true,
		ErrorReturn: -1, Errno: libsim.EADDRINUSE, InTable: true,
		// Re-listening is idempotent; the backlog value is harmless.
	})
	m.add(&Entry{
		Name: "epoll_ctl", Class: StateRestore, Divertable: true,
		ErrorReturn: -1, Errno: libsim.EBADF, InTable: true,
		Compensate: func(o *libsim.OS, c Call, _ any) {
			if c.Ret != 0 || len(c.Args) < 3 {
				return
			}
			switch c.Args[1] {
			case libsim.EpollCtlAdd:
				_, _ = o.Call("epoll_ctl", []int64{c.Args[0], libsim.EpollCtlDel, c.Args[2]})
			case libsim.EpollCtlDel:
				_, _ = o.Call("epoll_ctl", []int64{c.Args[0], libsim.EpollCtlAdd, c.Args[2]})
			}
		},
	})
	m.add(&Entry{
		Name: "lseek", Class: StateRestore, Divertable: true,
		ErrorReturn: -1, Errno: libsim.EINVAL, InTable: true,
		Capture: func(o *libsim.OS, c Call) any {
			if len(c.Args) < 1 {
				return nil
			}
			old, err := o.Call("lseek", []int64{c.Args[0], 0, libsim.SeekCur})
			if err != nil || old < 0 {
				return nil
			}
			return old
		},
		Compensate: func(o *libsim.OS, c Call, aux any) {
			old, ok := aux.(int64)
			if !ok || len(c.Args) < 1 {
				return
			}
			_, _ = o.Call("lseek", []int64{c.Args[0], old, libsim.SeekSet})
		},
	})

	// --- State restoration needed, diversion NOT possible (8) --------------
	// Memory writers whose stores the enclosing transaction captures (they
	// go through the transaction-aware store function), so rollback
	// restores them; they cannot report errors, so no diversion.
	for _, name := range []string{
		"memset", "memcpy", "memmove", "strcpy", "strncpy", "strcat",
		"sprintf", "fcntl",
	} {
		m.add(&Entry{Name: name, Class: StateRestore, InTable: true})
	}

	// --- Irrecoverable, diversion possible (12) ----------------------------
	// External effects: recovery windows end before these calls.
	for _, e := range []Entry{
		{Name: "write", Errno: libsim.EPIPE},
		{Name: "send", Errno: libsim.EPIPE},
		{Name: "pwrite", Errno: libsim.ENOSPC},
		{Name: "sendto", Errno: libsim.EPIPE},
		{Name: "sendfile", Errno: libsim.EPIPE},
		{Name: "writev", Errno: libsim.EPIPE},
		{Name: "ftruncate", Errno: libsim.EINVAL},
		{Name: "rename", Errno: libsim.EACCES},
		{Name: "unlink", Errno: libsim.EACCES},
		{Name: "mkdir", Errno: libsim.EACCES},
		{Name: "fsync", Errno: libsim.EBADF},
		{Name: "kill", Errno: libsim.EINVAL},
	} {
		e.Class = Irrecoverable
		e.Divertable = true
		e.ErrorReturn = -1
		e.InTable = true
		m.add(&e)
	}

	// --- Irrecoverable, diversion NOT possible (4) --------------------------
	for _, name := range []string{"fork", "execve", "exit", "abort"} {
		m.add(&Entry{Name: name, Class: Irrecoverable, InTable: true})
	}

	// --- Simulation-only helpers (not part of the canonical 101) -----------
	m.add(&Entry{Name: "putint", Class: NoReversion})
	m.add(&Entry{Name: "errno", Class: NoReversion})

	// --- Per-request arenas (not part of the canonical 101) ----------------
	// The rewind-and-discard backend's request pool. arena_alloc is
	// modelled exactly like malloc (state restoration needed, divertable,
	// NULL/ENOMEM on failure); its compensation routes through the free
	// handler, which treats arena addresses as no-ops (bump arenas reclaim
	// wholesale). arena_reset is the application's request-end marker: no
	// reversion, not divertable — it cannot fail.
	m.add(&Entry{
		Name: "arena_alloc", Class: StateRestore, Divertable: true,
		ErrorReturn: 0, Errno: libsim.ENOMEM,
		Compensate: func(o *libsim.OS, c Call, _ any) {
			if c.Ret > 0 {
				// Heap fallback chunks are really freed; arena chunks
				// are bump-allocated and the transaction's rewind (or
				// the request's discard) reclaims them.
				o.Call("free", []int64{c.Ret})
			}
		},
	})
	m.add(&Entry{Name: "arena_reset", Class: NoReversion})

	// --- Threads (pthread analogs; not part of the canonical 101) ----------
	// mutex_lock is a divertable boundary: pthread_mutex_lock documents
	// EINVAL, callers check it, and diverting into the error path simply
	// skips the critical section. Its compensation action releases the
	// lock, so a persistent crash inside a critical section can never
	// leak a held mutex into the injected error path (the "unlock
	// compensation" the transaction design requires).
	m.add(&Entry{
		Name: "mutex_lock", Class: StateRestore, Divertable: true,
		ErrorReturn: libsim.EINVAL, ErrnoDirect: true,
		Compensate: func(o *libsim.OS, c Call, _ any) {
			if c.Ret == 0 && o.Threads() != nil && len(c.Args) == 1 {
				o.Threads().MutexUnlock(c.Args[0]) //nolint:errcheck
			}
		},
	})
	// mutex_unlock publishes the critical section to other threads: once
	// another thread can acquire the lock the release cannot be undone,
	// so it breaks the transaction (like write); the preceding region
	// commits before the lock is dropped.
	m.add(&Entry{Name: "mutex_unlock", Class: Irrecoverable})
	// thread_create is divertable (EAGAIN, callers check for -1); its
	// compensation cancels the thread so a rolled-back create does not
	// leave a live twin running.
	m.add(&Entry{
		Name: "thread_create", Class: Reversible, Divertable: true,
		ErrorReturn: -1, Errno: libsim.EAGAIN,
		Compensate: func(o *libsim.OS, c Call, _ any) {
			if c.Ret >= 1 && o.Threads() != nil {
				o.Threads().Cancel(c.Ret)
			}
		},
	})
	// thread_join only observes another thread; re-joining after a
	// rollback is harmless (a second join on an exited thread returns
	// immediately).
	m.add(&Entry{
		Name: "thread_join", Class: NoReversion, Divertable: true,
		ErrorReturn: -1, Errno: libsim.EINVAL,
	})

	return m
}

// DefaultMasked builds the knowledge base with the paper's proposed
// write-masking extension (§V-A): socket write/send become recoverable —
// their network-visible effect is retracted by truncating the connection's
// outbound queue back to its pre-call length, and the injected EPIPE sends
// the application down its broken-connection error path. This converts the
// most common irrecoverable transaction breaks in server code into gates,
// enlarging the recovery surface; the AblationMaskedWrites experiment
// quantifies the gain.
//
// Masking reclassifies write/send, so a Table II computed over this model
// intentionally differs from the paper's conservative table (the paper
// itself frames masking as a "less-conservative approximation"). For
// non-socket descriptors the compensation is a no-op: the injected error
// stands but the durable effect does too — the file-write caveat of the
// approximation.
func DefaultMasked() *Model {
	m := Default()
	for _, name := range []string{"write", "send"} {
		id := libsim.Lookup(name)
		masked := *m.byID[id]
		masked.Class = StateRestore
		masked.Divertable = true
		masked.ErrorReturn = -1
		masked.Errno = libsim.EPIPE
		masked.Capture = func(o *libsim.OS, c Call) any {
			if len(c.Args) == 0 {
				return nil
			}
			if n := o.SockOutLen(c.Args[0]); n >= 0 {
				return n
			}
			return nil // not a socket: keep irrecoverable semantics
		}
		masked.Compensate = func(o *libsim.OS, c Call, aux any) {
			if mark, ok := aux.(int64); ok && len(c.Args) > 0 {
				o.TruncateSockOut(c.Args[0], mark)
			}
		}
		m.byID[id] = &masked
	}
	return m
}

func (m *Model) add(e *Entry) {
	id := libsim.Declare(e.Name)
	if n := int(id) + 1; n > len(m.byID) {
		m.byID = append(m.byID, make([]*Entry, n-len(m.byID))...)
	}
	if m.byID[id] != nil {
		panic("libmodel: duplicate entry " + e.Name)
	}
	m.byID[id] = e
}
