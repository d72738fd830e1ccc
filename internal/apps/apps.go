// Package apps contains the five event-driven server applications the
// paper evaluates — analogs of Nginx, Apache, Lighttpd, Redis and
// PostgreSQL — written in mini-C (package minic) against the simulated
// libc (package libsim).
//
// The servers are miniature but architecturally faithful: an epoll event
// loop with retry error handling (the critical path, §V-B), per-request
// allocation with checked malloc (the non-critical error paths the fault
// injection experiments target), static file serving with open/fstat/
// pread, response writes (irrecoverable transaction breaks), access
// logging through embedded printf calls, and the error-handling idioms of
// the paper's Listing 1. Each server speaks a small real protocol that the
// workload generators in package workload drive and validate.
package apps

import (
	"fmt"

	"github.com/firestarter-go/firestarter/internal/ir"
	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/minic"
)

// App describes one server application.
type App struct {
	// Name is the analog's name ("nginx", "apache", ...).
	Name string

	// Source is the mini-C program text.
	Source string

	// Port is the TCP port the server listens on.
	Port int64

	// Setup prepares the simulated OS (document root, data files).
	Setup func(o *libsim.OS)

	// Protocol selects the workload generator family: "http", "redis"
	// or "sql".
	Protocol string

	// QuiesceFunc names the function holding the app's quiesce point —
	// the accept/event loop the recovery runtime's request-shedding rung
	// may rewind to when the rest of the ladder is exhausted. Empty means
	// the app declares no safe quiesce point and shedding stays disabled.
	QuiesceFunc string
}

// Compile builds the app's IR program.
func (a *App) Compile() (*ir.Program, error) {
	prog, err := minic.Compile(a.Source, minic.Config{KnownLib: libsim.Known})
	if err != nil {
		return nil, fmt.Errorf("apps: compiling %s: %w", a.Name, err)
	}
	return prog, nil
}

// All returns the five servers in the paper's order.
func All() []*App {
	return []*App{Nginx(), Apache(), Lighttpd(), Redis(), Postgres()}
}

// ByName returns the named app (including the pool variants) or nil.
func ByName(name string) *App {
	for _, a := range append(All(), PoolApps()...) {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// WebServers returns the three HTTP servers (Table III's subjects).
func WebServers() []*App {
	return []*App{Nginx(), Apache(), Lighttpd()}
}

// docFiles is the standard document root used by the HTTP servers'
// workloads. Every boot's FS shares these bytes (FS.Add does not copy and
// a written file copies first), so nothing may modify them.
var docFiles = []struct {
	name string
	data []byte
}{
	{"/www/index.html", []byte("<html><body>welcome to the test suite</body></html>")},
	{"/www/about.html", []byte("<html><body>about page with somewhat longer content: " +
		"the quick brown fox jumps over the lazy dog</body></html>")},
	{"/www/small.txt", []byte("ok")},
	{"/www/data.bin", make([]byte, 16*1024)},
	{"/www/ssi.shtml", []byte("<html>header <!--#echo var=x--> footer</html>")},
	{"/www/big.bin", make([]byte, 48*1024)},
	{"/dav/notes.txt", []byte("dav resource content")},
}

// docRoot installs the standard document root.
func docRoot(o *libsim.OS) {
	fs := o.FS()
	for _, f := range docFiles {
		fs.Add(f.name, f.data)
	}
}
