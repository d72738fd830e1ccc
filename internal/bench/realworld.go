package bench

import (
	"fmt"
	"strings"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/boot"
	"github.com/firestarter-go/firestarter/internal/interp"
)

// CaseResult is one §VI-F real-world bug reproduction.
type CaseResult struct {
	Name          string
	Survived      bool
	FaultResponse string // first line of the response to the triggering request
	Injections    int64
	FollowupOK    bool // a normal request after recovery succeeds
}

// RealWorldResult carries both case studies.
type RealWorldResult struct {
	Cases []CaseResult
}

// RealWorld reproduces the paper's two production-bug case studies:
//
//   - Nginx SSI null-pointer dereference (ticket #1263): the crash sits in
//     the SSI substitution code after a successful pread; FIRestarter
//     rolls back, makes pread return -1/EINVAL, and the server answers
//     with an empty response.
//   - Lighttpd WebDAV use-after-free (#2780): the crash follows the
//     open64 of the DAV resource; the injected open64 failure turns into
//     a "403 - Forbidden" response.
//
// In both cases the server keeps serving subsequent requests.
func (r Runner) RealWorld() (RealWorldResult, error) {
	r = r.withDefaults()
	var out RealWorldResult

	nginx, err := r.runCase(apps.Nginx(), "serve_ssi", "memcpy", 1,
		"GET /ssi HTTP/1.1\r\n\r\n", "GET /index.html HTTP/1.1\r\n\r\n")
	if err != nil {
		return out, fmt.Errorf("nginx SSI case: %w", err)
	}
	nginx.Name = "nginx SSI null-deref (ticket #1263)"
	out.Cases = append(out.Cases, nginx)

	lighttpd, err := r.runCase(apps.Lighttpd(), "mod_webdav", "fstat", 1,
		"PROPFIND /dav/notes.txt HTTP/1.1\r\n\r\n", "GET /index.html HTTP/1.1\r\n\r\n")
	if err != nil {
		return out, fmt.Errorf("lighttpd WebDAV case: %w", err)
	}
	lighttpd.Name = "lighttpd WebDAV use-after-free (#2780)"
	out.Cases = append(out.Cases, lighttpd)
	return out, nil
}

// runCase plants a fail-stop fault at the start of the block containing
// the nth `lib` call inside `fn` (the code region the production bug
// crashes in), boots the hardened server, sends the triggering request,
// and then a follow-up request.
func (r Runner) runCase(app *apps.App, fn, lib string, nth int, trigger, followup string) (CaseResult, error) {
	var res CaseResult
	fault, err := r.libFault(app, fn, lib, nth)
	if err != nil {
		return res, err
	}
	inst, err := r.boot(app, boot.Options{Fault: &fault})
	if err != nil {
		return res, err
	}
	if out := inst.M.Run(10_000_000); out.Kind != interp.OutBlocked {
		return res, fmt.Errorf("server did not reach its event loop: %v", out.Kind)
	}

	conn := inst.OS.Connect(app.Port)
	if conn == nil {
		return res, fmt.Errorf("connect failed")
	}
	conn.ClientDeliver([]byte(trigger))
	out := inst.M.Run(50_000_000)
	if out.Kind == interp.OutTrapped {
		res.Survived = false
		return res, nil
	}
	res.Survived = true
	resp := string(conn.ClientTake())
	if i := strings.Index(resp, "\r\n"); i > 0 {
		res.FaultResponse = resp[:i]
	} else {
		res.FaultResponse = resp
	}
	res.Injections = inst.RT.Stats().Injections

	// The server must keep serving.
	conn2 := inst.OS.Connect(app.Port)
	if conn2 != nil {
		conn2.ClientDeliver([]byte(followup))
		if out := inst.M.Run(50_000_000); out.Kind != interp.OutTrapped {
			res.FollowupOK = strings.HasPrefix(string(conn2.ClientTake()), "HTTP/1.1 200")
		}
	}
	return res, nil
}

// Render prints the case-study outcomes.
func (c RealWorldResult) Render() string {
	var sb strings.Builder
	sb.WriteString("§VI-F: real-world bug reproductions\n")
	for _, cs := range c.Cases {
		fmt.Fprintf(&sb, "  %-45s survived=%v injections=%d response=%q followup200=%v\n",
			cs.Name, cs.Survived, cs.Injections, cs.FaultResponse, cs.FollowupOK)
	}
	return sb.String()
}
