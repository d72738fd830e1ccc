package workload

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/firestarter-go/firestarter/internal/interp"
	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/mem"
	"github.com/firestarter-go/firestarter/internal/minic"
)

func TestHTTPSplit(t *testing.T) {
	g := DefaultHTTPMix()
	full := []byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello")
	tests := []struct {
		name string
		buf  []byte
		want int
	}{
		{"empty", nil, 0},
		{"headers only", []byte("HTTP/1.1 200 OK\r\n"), 0},
		// The complete header fixes the length before the body is in.
		{"header complete body missing", []byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhe"), len(full)},
		{"malformed content length", []byte("HTTP/1.1 200 OK\r\nContent-Length: 5x\r\n\r\nhello"), 0},
		{"exact", full, len(full)},
		{"with trailing next response", append(append([]byte{}, full...), "HTTP/1.1 404"...), len(full)},
		{"zero length body", []byte("HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"), 38},
	}
	for _, tt := range tests {
		if got := g.Split(tt.buf); got != tt.want {
			t.Errorf("%s: Split = %d, want %d", tt.name, got, tt.want)
		}
	}
}

func TestHTTPCheck(t *testing.T) {
	g := DefaultHTTPMix()
	req := []byte("GET /missing.html HTTP/1.1\r\n\r\n")
	if !g.Check(req, []byte("HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n")) {
		t.Error("404 for /missing.html rejected")
	}
	if g.Check(req, []byte("HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")) {
		t.Error("200 for /missing.html accepted")
	}
	ok := []byte("GET /index.html HTTP/1.1\r\n\r\n")
	if !g.Check(ok, []byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi")) {
		t.Error("200 for /index.html rejected")
	}
}

// checkBySplit is HTTPGen.Check as it was written with bytes.SplitN and
// fmt.Sprintf: the reference the allocation-free Check must agree with.
func checkBySplit(g *HTTPGen, req, resp []byte) bool {
	var path []byte
	if parts := bytes.SplitN(req, []byte(" "), 3); len(parts) == 3 {
		path = parts[1]
	}
	want := 200
	for _, p := range g.Paths {
		if string(path) == p.Path {
			want = p.Status
			break
		}
	}
	return bytes.HasPrefix(resp, []byte(fmt.Sprintf("HTTP/1.1 %d", want)))
}

// Check gives the reference verdict for every path of the mix, an unknown
// path and malformed request lines, against right and wrong status lines,
// and allocates nothing.
func TestHTTPCheckMatchesReferenceWithoutAllocating(t *testing.T) {
	g := TestSuiteHTTPMix()
	reqs := []string{
		"GET /unknown.html HTTP/1.1\r\n\r\n",
		"GET /index.html", // one space: no path field
		"GET",
		"",
		"GET  /index.html HTTP/1.1\r\n\r\n", // empty second field
		"GET /missing.html HTTP/1.1 extra\r\n\r\n",
	}
	for _, p := range g.Paths {
		reqs = append(reqs, "GET "+p.Path+" HTTP/1.1\r\nHost: sim\r\n\r\n")
	}
	resps := []string{
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi",
		"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 500 Internal Server Error\r\n\r\n",
		"HTTP/1.1 2000 OK\r\n\r\n",
		"HTTP/1.0 200 OK\r\n\r\n",
		"HTTP/1.1 20",
		"HTTP/1.1 ",
		"",
	}
	accepted := 0
	for _, req := range reqs {
		for _, resp := range resps {
			got, want := g.Check([]byte(req), []byte(resp)), checkBySplit(g, []byte(req), []byte(resp))
			if got != want {
				t.Errorf("Check(%q, %q) = %v, reference %v", req, resp, got, want)
			}
			if got {
				accepted++
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no request/response pair was accepted")
	}
	req := []byte("GET /missing.html HTTP/1.1\r\n\r\n")
	resp := []byte("HTTP/1.1 404 Not Found\r\n\r\n")
	if n := testing.AllocsPerRun(100, func() { g.Check(req, resp) }); n != 0 {
		t.Errorf("Check allocates %v times per call, want 0", n)
	}
}

func TestHTTPNextIsWellFormed(t *testing.T) {
	g := TestSuiteHTTPMix()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		req := string(g.Next(0, rng))
		if !strings.HasPrefix(req, "GET /") || !strings.HasSuffix(req, "\r\n\r\n") {
			t.Fatalf("malformed request %q", req)
		}
	}
}

// Every path of the test-suite mix is requested with exactly these bytes,
// built in one allocation that the request fills.
func TestHTTPNextBytes(t *testing.T) {
	want := map[string]string{
		"/":             "GET / HTTP/1.1\r\nHost: sim\r\n\r\n",
		"/index.html":   "GET /index.html HTTP/1.1\r\nHost: sim\r\n\r\n",
		"/about.html":   "GET /about.html HTTP/1.1\r\nHost: sim\r\n\r\n",
		"/small.txt":    "GET /small.txt HTTP/1.1\r\nHost: sim\r\n\r\n",
		"/data.bin":     "GET /data.bin HTTP/1.1\r\nHost: sim\r\n\r\n",
		"/missing.html": "GET /missing.html HTTP/1.1\r\nHost: sim\r\n\r\n",
		"/ssi":          "GET /ssi HTTP/1.1\r\nHost: sim\r\n\r\n",
		"/big.bin":      "GET /big.bin HTTP/1.1\r\nHost: sim\r\n\r\n",
	}
	rng := rand.New(rand.NewSource(1))
	for _, p := range TestSuiteHTTPMix().Paths {
		g := &HTTPGen{Paths: []HTTPPath{p}}
		req := g.Next(0, rng)
		if string(req) != want[p.Path] {
			t.Errorf("%s: Next = %q, want %q", p.Path, req, want[p.Path])
		}
		if cap(req) != len(req) {
			t.Errorf("%s: request has cap %d for %d bytes", p.Path, cap(req), len(req))
		}
		if n := testing.AllocsPerRun(20, func() { g.Next(0, rng) }); n != 1 {
			t.Errorf("%s: Next made %.0f allocations, want 1", p.Path, n)
		}
	}
}

func TestRedisGen(t *testing.T) {
	g := &RedisGen{Keys: 4}
	rng := rand.New(rand.NewSource(2))
	counts := map[string]int{}
	for i := 0; i < 40; i++ {
		req := g.Next(0, rng)
		cmd, _, _ := strings.Cut(string(req), " ")
		cmd = strings.TrimSuffix(cmd, "\n")
		counts[cmd]++
		switch cmd {
		case "SET":
			if !g.Check(req, []byte("+OK\n")) {
				t.Errorf("SET response rejected")
			}
			if g.Check(req, []byte("-ERR\n")) {
				t.Errorf("SET error accepted")
			}
		case "GET":
			if !g.Check(req, []byte("$v1\n")) || !g.Check(req, []byte("$-1\n")) {
				t.Errorf("GET responses rejected")
			}
		case "INCR", "EXISTS", "DEL":
			if !g.Check(req, []byte(":1\n")) {
				t.Errorf("%s response rejected", cmd)
			}
			if g.Check(req, []byte("+OK\n")) {
				t.Errorf("%s accepted +OK", cmd)
			}
		default:
			t.Fatalf("unexpected request %q", req)
		}
	}
	for _, cmd := range []string{"SET", "GET", "INCR", "EXISTS", "DEL"} {
		if counts[cmd] == 0 {
			t.Errorf("mix missing %s", cmd)
		}
	}
	if g.Split([]byte("+OK")) != 0 || g.Split([]byte("+OK\nrest")) != 4 {
		t.Error("redis framing wrong")
	}
}

func TestSQLGen(t *testing.T) {
	g := &SQLGen{Keys: 4}
	rng := rand.New(rand.NewSource(3))
	ins := g.Next(0, rng)
	if !strings.HasPrefix(string(ins), "INSERT ") {
		t.Fatalf("first = %q", ins)
	}
	if !g.Check(ins, []byte("OK\n")) || g.Check(ins, []byte("ERR\n")) {
		t.Error("INSERT validation wrong")
	}
	sel := g.Next(0, rng)
	if !strings.HasPrefix(string(sel), "SELECT ") {
		t.Fatalf("second = %q", sel)
	}
	if !g.Check(sel, []byte("ROW 9\n")) || !g.Check(sel, []byte("NONE\n")) {
		t.Error("SELECT validation wrong")
	}
	// The extended statements appear and validate.
	sawDel, sawCount := false, false
	for i := 0; i < 20; i++ {
		req := g.Next(0, rng)
		if strings.HasPrefix(string(req), "DELETE ") {
			sawDel = true
			if !g.Check(req, []byte("OK\n")) || !g.Check(req, []byte("NONE\n")) {
				t.Error("DELETE validation wrong")
			}
		}
		if strings.HasPrefix(string(req), "COUNT") {
			sawCount = true
			if !g.Check(req, []byte("COUNT 4\n")) || g.Check(req, []byte("ROW x\n")) {
				t.Error("COUNT validation wrong")
			}
		}
	}
	if !sawDel || !sawCount {
		t.Errorf("mix missing DELETE/COUNT: %v %v", sawDel, sawCount)
	}
}

// TestCheckRejectsTruncatedResponses drives every generator's validator
// with responses cut off mid-frame: a reply truncated before the
// discriminating token must never validate, for any cut point.
func TestCheckRejectsTruncatedResponses(t *testing.T) {
	cases := []struct {
		name     string
		gen      Generator
		req      []byte
		resp     []byte
		keepOkAt int // shortest prefix length that may legally validate (-1: none)
	}{
		{"http status line", DefaultHTTPMix(),
			[]byte("GET /index.html HTTP/1.1\r\nHost: sim\r\n\r\n"),
			[]byte("HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"), len("HTTP/1.1 200")},
		{"http 404 status line", DefaultHTTPMix(),
			[]byte("GET /missing.html HTTP/1.1\r\nHost: sim\r\n\r\n"),
			[]byte("HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n"), len("HTTP/1.1 404")},
		{"redis set", &RedisGen{}, []byte("SET k1 v1\n"), []byte("+OK\n"), len("+OK\n")},
		{"redis incr", &RedisGen{}, []byte("INCR ctrk1\n"), []byte(":2\n"), len(":")},
		{"sql insert", &SQLGen{}, []byte("INSERT 1 2\n"), []byte("OK\n"), len("OK\n")},
		{"sql select none", &SQLGen{}, []byte("SELECT 1\n"), []byte("NONE\n"), len("NONE\n")},
		{"sql count", &SQLGen{}, []byte("COUNT\n"), []byte("COUNT 3\n"), len("COUNT ")},
	}
	for _, tt := range cases {
		if !tt.gen.Check(tt.req, tt.resp) {
			t.Errorf("%s: full response rejected", tt.name)
		}
		for cut := 0; cut < tt.keepOkAt; cut++ {
			if tt.gen.Check(tt.req, tt.resp[:cut]) {
				t.Errorf("%s: truncated response %q accepted", tt.name, tt.resp[:cut])
			}
		}
	}
}

// TestCheckRejectsInterleavedResponses feeds each validator the reply
// that belongs to a different request kind (cross-talk on a shared
// connection) or a frame preceded by another client's frame: none may
// validate.
func TestCheckRejectsInterleavedResponses(t *testing.T) {
	httpGen := DefaultHTTPMix()
	redis := &RedisGen{}
	sql := &SQLGen{}
	cases := []struct {
		name string
		gen  Generator
		req  []byte
		resp []byte
	}{
		{"http wrong status for path", httpGen,
			[]byte("GET /missing.html HTTP/1.1\r\nHost: sim\r\n\r\n"),
			[]byte("HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")},
		{"http other frame first", httpGen,
			[]byte("GET /index.html HTTP/1.1\r\nHost: sim\r\n\r\n"),
			[]byte("HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\nHTTP/1.1 200 OK\r\n\r\n")},
		{"redis set got get reply", redis, []byte("SET k1 v1\n"), []byte("$v1\n")},
		{"redis get got set reply", redis, []byte("GET k1\n"), []byte("+OK\n")},
		{"redis set frame prefixed", redis, []byte("SET k1 v1\n"), []byte("$v0\n+OK\n")},
		{"redis incr got set reply", redis, []byte("INCR ctrk1\n"), []byte("+OK\n")},
		{"sql insert got row", sql, []byte("INSERT 1 2\n"), []byte("ROW 1 2\n")},
		{"sql select got ok", sql, []byte("SELECT 1\n"), []byte("OK\n")},
		{"sql insert frame appended", sql, []byte("INSERT 1 2\n"), []byte("OK\nROW 1 2\n")},
		{"sql count got row", sql, []byte("COUNT\n"), []byte("ROW 1 2\n")},
	}
	for _, tt := range cases {
		if tt.gen.Check(tt.req, tt.resp) {
			t.Errorf("%s: interleaved response %q accepted", tt.name, tt.resp)
		}
	}
}

func TestForProtocol(t *testing.T) {
	if _, ok := ForProtocol("redis").(*RedisGen); !ok {
		t.Error("redis generator wrong type")
	}
	if _, ok := ForProtocol("sql").(*SQLGen); !ok {
		t.Error("sql generator wrong type")
	}
	if _, ok := ForProtocol("http").(*HTTPGen); !ok {
		t.Error("http generator wrong type")
	}
}

// echoSrc is a minimal line-echo server used to exercise the driver.
const echoSrc = `
int g_conns[64];
struct c { int fd; int rlen; char rbuf[256]; };
int main() {
	int s = socket();
	if (bind(s, 9000) == -1) { return 1; }
	if (listen(s, 16) == -1) { return 2; }
	int ep = epoll_create();
	epoll_ctl(ep, 1, s);
	int events[8];
	while (1) {
		int n = epoll_wait(ep, events, 8);
		if (n < 0) { continue; }
		for (int i = 0; i < n; i++) {
			int fd = events[i];
			if (fd == s) {
				int nf = accept(s);
				if (nf < 0) { continue; }
				struct c *cc = calloc(1, sizeof(struct c));
				if (!cc) { close(nf); continue; }
				cc->fd = nf;
				g_conns[nf] = cc;
				epoll_ctl(ep, 1, nf);
			} else {
				struct c *cc = g_conns[fd];
				if (!cc) { continue; }
				int got = read(fd, cc->rbuf + cc->rlen, 255 - cc->rlen);
				if (got == 0) {
					epoll_ctl(ep, 2, fd);
					close(fd);
					g_conns[fd] = 0;
					free(cc);
					continue;
				}
				if (got < 0) { continue; }
				cc->rlen = cc->rlen + got;
				int start = 0;
				for (int j = 0; j < cc->rlen; j++) {
					if (cc->rbuf[j] == '\n') {
						write(fd, cc->rbuf + start, j - start + 1);
						start = j + 1;
					}
				}
				int rest = cc->rlen - start;
				if (rest > 0 && start > 0) { memcpy(cc->rbuf, cc->rbuf + start, rest); }
				cc->rlen = rest;
			}
		}
	}
	return 0;
}`

// echoGen sends numbered lines and expects them back.
type echoGen struct{ n int }

func (g *echoGen) Next(i int, rng *rand.Rand) []byte {
	g.n++
	return []byte(strings.Repeat("x", g.n%5+1) + "\n")
}
func (g *echoGen) Split(buf []byte) int {
	for i, b := range buf {
		if b == '\n' {
			return i + 1
		}
	}
	return 0
}
func (g *echoGen) Check(req, resp []byte) bool { return string(req) == string(resp) }

func TestDriverAgainstEchoServer(t *testing.T) {
	prog, err := minic.Compile(echoSrc, minic.Config{KnownLib: libsim.Known})
	if err != nil {
		t.Fatal(err)
	}
	o := libsim.New(mem.NewSpace())
	m, err := interp.New(prog, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := &Driver{OS: o, M: m, Port: 9000, Gen: &echoGen{}, Concurrency: 3, Seed: 1}
	res := d.Run(30)
	if res.ServerDied || res.Stalled {
		t.Fatalf("result = %+v", res)
	}
	if res.Completed != 30 || res.BadResp != 0 {
		t.Fatalf("completed %d bad %d, want 30/0", res.Completed, res.BadResp)
	}
	if res.Cycles <= 0 || res.CyclesPerRequest() <= 0 {
		t.Error("no cycle accounting")
	}
}

func TestDriverReportsServerDeath(t *testing.T) {
	src := `
int main() {
	int s = socket();
	if (bind(s, 9000) == -1) { return 1; }
	if (listen(s, 16) == -1) { return 2; }
	int ep = epoll_create();
	epoll_ctl(ep, 1, s);
	int events[8];
	int n = epoll_wait(ep, events, 8);
	int *p = NULL;
	*p = n;   // dies on the first event
	return 0;
}`
	prog, err := minic.Compile(src, minic.Config{KnownLib: libsim.Known})
	if err != nil {
		t.Fatal(err)
	}
	o := libsim.New(mem.NewSpace())
	m, err := interp.New(prog, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := &Driver{OS: o, M: m, Port: 9000, Gen: &echoGen{}, Concurrency: 1, Seed: 1}
	res := d.Run(5)
	if !res.ServerDied {
		t.Fatalf("death not reported: %+v", res)
	}
}

func TestDriverOutstandingOnMidBurstDeath(t *testing.T) {
	// A tiny listen backlog lets only two of the eight clients connect
	// before the server dies on its first epoll event: the crash kills a
	// burst smaller than the client pool, and Outstanding must count
	// exactly the requests actually in flight — not Concurrency, not the
	// remaining workload.
	src := `
int main() {
	int s = socket();
	if (bind(s, 9000) == -1) { return 1; }
	if (listen(s, 2) == -1) { return 2; }
	int ep = epoll_create();
	epoll_ctl(ep, 1, s);
	int events[8];
	int n = epoll_wait(ep, events, 8);
	int *p = NULL;
	*p = n;   // dies on the first event
	return 0;
}`
	prog, err := minic.Compile(src, minic.Config{KnownLib: libsim.Known})
	if err != nil {
		t.Fatal(err)
	}
	o := libsim.New(mem.NewSpace())
	m, err := interp.New(prog, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := &Driver{OS: o, M: m, Port: 9000, Gen: &echoGen{}, Concurrency: 8, Seed: 1}
	res := d.Run(20)
	if !res.ServerDied {
		t.Fatalf("death not reported: %+v", res)
	}
	if res.Completed != 0 || res.BadResp != 0 {
		t.Errorf("requests answered by a dead server: %+v", res)
	}
	if res.Outstanding != 2 {
		t.Errorf("outstanding = %d, want 2 (the backlog-limited burst)", res.Outstanding)
	}
	if res.Outstanding >= d.Concurrency {
		t.Errorf("outstanding %d not below concurrency %d", res.Outstanding, d.Concurrency)
	}
}

func TestDriverStallsGracefully(t *testing.T) {
	// A server that accepts but never answers: the driver must give up
	// rather than loop forever.
	src := `
int main() {
	int s = socket();
	if (bind(s, 9000) == -1) { return 1; }
	if (listen(s, 16) == -1) { return 2; }
	int ep = epoll_create();
	epoll_ctl(ep, 1, s);
	int events[8];
	while (1) {
		int n = epoll_wait(ep, events, 8);
		if (n < 0) { continue; }
		for (int i = 0; i < n; i++) {
			if (events[i] == s) {
				int nf = accept(s);
				if (nf < 0) { continue; }
				// accepted, never added to epoll: silence
			}
		}
	}
	return 0;
}`
	prog, err := minic.Compile(src, minic.Config{KnownLib: libsim.Known})
	if err != nil {
		t.Fatal(err)
	}
	o := libsim.New(mem.NewSpace())
	m, err := interp.New(prog, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := &Driver{OS: o, M: m, Port: 9000, Gen: &echoGen{}, Concurrency: 2, Seed: 1}
	res := d.Run(5)
	if !res.Stalled {
		t.Fatalf("stall not detected: %+v", res)
	}
	if res.Completed != 0 {
		t.Fatalf("completed = %d on a mute server", res.Completed)
	}
}

// TestCyclesPerRequestDeadServerNotFree is the regression test for
// Result.CyclesPerRequest returning 0 when nothing completed: in a
// lower-is-better table a server that died before its first response
// rendered as infinitely fast. A dead run must report +Inf and render
// as "-".
func TestCyclesPerRequestDeadServerNotFree(t *testing.T) {
	dead := Result{Cycles: 12345, ServerDied: true}
	if cpr := dead.CyclesPerRequest(); !math.IsInf(cpr, 1) {
		t.Fatalf("dead server cycles/request = %v, want +Inf", cpr)
	}
	if s := FormatCPR(dead.CyclesPerRequest()); s != "-" {
		t.Errorf("dead server renders as %q, want -", s)
	}
	live := Result{Cycles: 100, Completed: 4}
	if cpr := live.CyclesPerRequest(); cpr != 25 {
		t.Errorf("live cycles/request = %v, want 25", cpr)
	}
	if s := FormatCPR(live.CyclesPerRequest()); s != "25" {
		t.Errorf("live renders as %q, want 25", s)
	}
	if s := FormatCPR(math.NaN()); s != "-" {
		t.Errorf("NaN renders as %q, want -", s)
	}
}

// TestDriverSurvivesComputeBurst is the regression test for the stall
// detector counting progress-free rounds instead of cycles: a request
// whose in-server handling burns more than stallRounds slice budgets of
// pure compute used to flip Stalled even though the server was making
// steady progress. The busy (step-limited) rounds must not count toward
// the blocked-round limit, and the cycle budget must be generous enough
// to absorb the burst.
func TestDriverSurvivesComputeBurst(t *testing.T) {
	src := `
int g_spin;
int g_conns[64];
struct c { int fd; int rlen; char rbuf[256]; };
int main() {
	int s = socket();
	if (bind(s, 9000) == -1) { return 1; }
	if (listen(s, 16) == -1) { return 2; }
	int ep = epoll_create();
	epoll_ctl(ep, 1, s);
	int events[8];
	while (1) {
		int n = epoll_wait(ep, events, 8);
		if (n < 0) { continue; }
		for (int i = 0; i < n; i++) {
			int fd = events[i];
			if (fd == s) {
				int nf = accept(s);
				if (nf < 0) { continue; }
				struct c *cc = calloc(1, sizeof(struct c));
				if (!cc) { close(nf); continue; }
				cc->fd = nf;
				g_conns[nf] = cc;
				epoll_ctl(ep, 1, nf);
			} else {
				struct c *cc = g_conns[fd];
				if (!cc) { continue; }
				int got = read(fd, cc->rbuf + cc->rlen, 255 - cc->rlen);
				if (got <= 0) { continue; }
				cc->rlen = cc->rlen + got;
				int start = 0;
				for (int j = 0; j < cc->rlen; j++) {
					if (cc->rbuf[j] == '\n') {
						for (int k = 0; k < 20000; k++) { g_spin = g_spin + k; }
						write(fd, cc->rbuf + start, j - start + 1);
						start = j + 1;
					}
				}
				cc->rlen = 0;
			}
		}
	}
	return 0;
}`
	prog, err := minic.Compile(src, minic.Config{KnownLib: libsim.Known})
	if err != nil {
		t.Fatal(err)
	}
	o := libsim.New(mem.NewSpace())
	m, err := interp.New(prog, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A tiny slice budget makes the 20k-iteration burn span dozens of
	// step-limited rounds with no client-visible progress.
	d := &Driver{OS: o, M: m, Port: 9000, Gen: &echoGen{}, Concurrency: 1, Seed: 1, StepBudget: 2000}
	res := d.Run(3)
	if res.Stalled {
		t.Fatalf("compute burst misdetected as stall: %+v", res)
	}
	if res.ServerDied || res.Completed != 3 || res.BadResp != 0 {
		t.Fatalf("result = %+v, want 3 clean completions", res)
	}
}

// rngGen derives each request's body from the rng stream and records the
// per-client sequences so two runs can be compared draw for draw.
type rngGen struct{ got map[int][]string }

func (g *rngGen) Next(i int, rng *rand.Rand) []byte {
	if g.got == nil {
		g.got = map[int][]string{}
	}
	req := fmt.Sprintf("r%d\n", rng.Int63())
	g.got[i] = append(g.got[i], req)
	return []byte(req)
}
func (g *rngGen) Split(buf []byte) int {
	for i, b := range buf {
		if b == '\n' {
			return i + 1
		}
	}
	return 0
}
func (g *rngGen) Check(req, resp []byte) bool { return string(req) == string(resp) }

// echoFake is a Go-side Server: every Slice echoes the inbound bytes of
// each accepted connection and advances a synthetic cycle clock. At the
// closeAt-th served request it closes that connection server-side
// (dropping the request) and refuses the next reconnect once — the
// connection-churn shape a crashing incarnation produces.
type echoFake struct {
	conns        []*libsim.Conn
	clock        int64
	served       int
	closeAt      int
	failConnects int
}

func (s *echoFake) Connect(port int64) *libsim.Conn {
	if s.failConnects > 0 {
		s.failConnects--
		return nil
	}
	c := libsim.NewConn()
	s.conns = append(s.conns, c)
	return c
}

func (s *echoFake) Slice(budget int64) interp.Outcome {
	s.clock += 1000
	for _, c := range s.conns {
		if c.ServerClosed() {
			continue
		}
		data, _ := c.ProxyTake()
		if len(data) == 0 {
			continue
		}
		s.served++
		if s.closeAt > 0 && s.served == s.closeAt {
			c.CloseServer()
			s.failConnects = 1
			continue
		}
		c.ProxyDeliver(data)
	}
	return interp.Outcome{Kind: interp.OutBlocked}
}

func (s *echoFake) Cycles() int64 { return s.clock }
func (s *echoFake) Steps() int64  { return s.clock }

// TestRequestStreamsStableUnderChurn is the regression test for request
// generation drawing from one shared rng in delivery order: a reconnect
// after connection churn made one client skip a round, shifting every
// later client's draws and changing the workload bytes as a function of
// failure timing. With per-client rngs the common prefix of every
// client's request stream must be identical with and without churn.
func TestRequestStreamsStableUnderChurn(t *testing.T) {
	run := func(closeAt int) map[int][]string {
		g := &rngGen{}
		d := &Driver{Srv: &echoFake{closeAt: closeAt}, Port: 9000, Gen: g, Concurrency: 4, Seed: 7}
		res := d.Run(40)
		if res.Stalled || res.ServerDied {
			t.Fatalf("closeAt=%d: run failed: %+v", closeAt, res)
		}
		return g.got
	}
	calm := run(0)
	churned := run(6)
	if len(calm) != 4 || len(churned) != 4 {
		t.Fatalf("client counts = %d/%d, want 4", len(calm), len(churned))
	}
	for i, want := range calm {
		got := churned[i]
		n := len(got)
		if len(want) < n {
			n = len(want)
		}
		if n == 0 {
			t.Fatalf("client %d drew no requests", i)
		}
		for j := 0; j < n; j++ {
			if got[j] != want[j] {
				t.Fatalf("client %d request %d changed under churn: %q vs %q", i, j, got[j], want[j])
			}
		}
	}
}
