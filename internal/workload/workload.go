// Package workload drives the simulated servers with closed-loop client
// load — the analog of the paper's wrk / ApacheBench / redis-benchmark /
// pgbench drivers — and validates responses.
//
// The driver interleaves with the single-threaded machine: it delivers
// request bytes into the simulated connections, runs the machine until it
// blocks in epoll_wait (or crashes), then drains and validates responses.
// Throughput is measured in cost-model cycles per completed request, which
// is deterministic and host-independent.
//
// A Driver can equally drive a multi-threaded server: set S to the
// scheduler instead of M, and each slice runs all runnable threads.
// Throughput then uses wall cycles — the maximum per-thread cycle count —
// so adding workers shows up as fewer cycles per request.
package workload

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"github.com/firestarter-go/firestarter/internal/interp"
	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/obsv"
	"github.com/firestarter-go/firestarter/internal/sched"
)

// Generator produces and validates protocol traffic.
type Generator interface {
	// Next returns the next request for client i.
	Next(i int, rng *rand.Rand) []byte

	// Split returns the length of the first complete response in buf, or
	// 0 if more bytes are needed.
	Split(buf []byte) int

	// Check validates a response to the given request. resp is a window
	// into the driver's reused receive buffer, valid only for the call.
	Check(req, resp []byte) bool
}

// Server abstracts the driven endpoint so the driver can front things
// other than one machine on one OS — the fleet balancer implements it
// over N supervised replicas. Connect returns a client connection to the
// served port (nil if nothing is accepting), Slice advances the whole
// backend until it blocks, and Cycles/Steps report the backend's
// throughput clock (wall cycles across replicas for a fleet).
type Server interface {
	Connect(port int64) *libsim.Conn
	Slice(budget int64) interp.Outcome
	Cycles() int64
	Steps() int64
}

// TraceSink receives request-lifecycle notifications from a tracing
// driver. core.Runtime implements it: terminals become req-done/req-lost
// spans and ReqDone reports whether recovery machinery touched the
// request, which drives the clean-vs-recovery latency split.
type TraceSink interface {
	// ReqDone records a validated (ok) or rejected (!ok) response for the
	// traced request and reports whether recovery touched it.
	ReqDone(trace int64, ok bool) bool
	// ReqLost records a traced request that can never complete, with the
	// cause ("conn-closed", "server-died", "stalled", "run-end").
	ReqLost(trace int64, cause string)
}

// Result summarizes one driven run.
type Result struct {
	Completed  int
	BadResp    int
	ServerDied bool
	TrapCode   int64
	Cycles     int64 // machine (or wall, see Driver.S) cycles consumed
	Steps      int64
	Stalled    bool // driver gave up waiting for progress

	// Outstanding counts requests that were sent but neither answered nor
	// failed when the run ended — the in-flight work a crash actually
	// kills, at most Concurrency but usually fewer near the end of a run.
	Outstanding int

	// Sent counts requests delivered to the server under tracing (the
	// number of trace IDs consumed from TraceBase); 0 without a Sink.
	Sent int

	// CleanLatency / RecoveryLatency split per-request latency — cycles
	// from delivery to validated response — by whether the recovery
	// machinery touched the request (per the Sink). Only populated under
	// tracing (Sink non-nil); requests that never complete appear in
	// neither histogram.
	CleanLatency    *obsv.Hist
	RecoveryLatency *obsv.Hist
}

// Metrics is the run outcome's accounting schema.
var Metrics = obsv.Table[Result]{
	{Name: "workload.completed", Get: func(r *Result) int64 { return int64(r.Completed) }},
	{Name: "workload.bad_resp", Get: func(r *Result) int64 { return int64(r.BadResp) }},
	{Name: "workload.outstanding", Get: func(r *Result) int64 { return int64(r.Outstanding) }},
	{Name: "workload.sent", Get: func(r *Result) int64 { return int64(r.Sent) }},
	{Name: "workload.cycles", Get: func(r *Result) int64 { return r.Cycles }},
	{Name: "workload.steps", Get: func(r *Result) int64 { return r.Steps }},
	{Name: "workload.server_died", Get: func(r *Result) int64 { return obsv.Flag(r.ServerDied) }},
	{Name: "workload.stalled", Get: func(r *Result) int64 { return obsv.Flag(r.Stalled) }},
}

// CyclesPerRequest is the throughput metric (lower is better). A run
// that completed nothing is infinitely slow, not infinitely fast — it
// returns +Inf, which FormatCPR renders as "-" so a dead server never
// shows up as the best row of a lower-is-better table.
func (r Result) CyclesPerRequest() float64 {
	if r.Completed == 0 {
		return math.Inf(1)
	}
	return float64(r.Cycles) / float64(r.Completed)
}

// FormatCPR renders a cycles-per-request value for a table cell:
// finite values keep the historical %.0f form, while the +Inf of a run
// that completed nothing prints as "-". Pad with %Ns to preserve
// column alignment.
func FormatCPR(v float64) string {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return "-"
	}
	return strconv.FormatFloat(v, 'f', 0, 64)
}

// Driver drives one machine with concurrent simulated clients.
type Driver struct {
	OS          *libsim.OS
	M           *interp.Machine
	Port        int64
	Gen         Generator
	Concurrency int
	Seed        int64

	// S, when non-nil, is a multi-threaded scheduler driven in place of M:
	// each slice runs every runnable thread and Cycles reports wall cycles
	// (max per-thread) rather than one machine's count.
	S *sched.Sched

	// Srv, when non-nil, is driven in place of OS/M/S entirely: the
	// driver connects, slices and reads the clock through the Server
	// interface. The fleet balancer plugs in here.
	Srv Server

	// StepBudget bounds each machine slice (default 2M instructions).
	StepBudget int64

	// StallCycles bounds the backend cycles the driver lets progress-free
	// rounds consume before declaring the run stalled (default
	// DefaultStallCycles). It replaces the old progress-free *round*
	// counter as the primary stall detector: a long in-server compute
	// burst — slices that exhaust their step budget without a response
	// ready yet — consumes cycles but is real work, and no longer trips
	// the detector until the budget is spent. A server that is *blocked*
	// with requests queued and nothing moving is stuck now (its clock
	// barely advances, so a cycle budget alone would never fire); that
	// zero-progress fixpoint still stalls after stallRounds consecutive
	// blocked rounds, matching the old closed-loop behavior.
	StallCycles int64

	// Metrics, when non-nil, receives the run's outcome counters (and,
	// under a scheduler, the per-thread cycle accounting) when Run
	// returns. Collection-time only: the drive loop never touches it.
	Metrics *obsv.Registry

	// Sink, when non-nil, turns on request tracing: every request is
	// stamped with a deterministic trace ID (TraceBase+1, TraceBase+2, …
	// in delivery order) and every terminal outcome is reported to the
	// sink. Nil (the default) leaves delivery byte-identical to the
	// untraced path.
	Sink TraceSink

	// TraceBase offsets this run's trace IDs so IDs stay unique across
	// incarnations of a supervised campaign (each run consumes Result.Sent
	// IDs above its base).
	TraceBase int64
}

// DefaultStallCycles is the default Driver.StallCycles: generous
// enough for any legitimate compute burst or supervised reboot wait,
// small enough that a livelocked server is still caught.
const DefaultStallCycles = 50_000_000

// stallRounds is the consecutive-blocked-round limit: a server that is
// blocked (not step-limited) while nothing progresses is already at a
// fixpoint, and this preserves the old detector's promptness there.
const stallRounds = 10

type clientState struct {
	conn    *libsim.Conn
	req     []byte
	resp    []byte
	pending bool

	// rng is the client's private request stream, seeded Seed^clientID:
	// request content depends only on (seed, client, position in the
	// client's own stream), never on cross-client delivery order, so a
	// reconnect or a recovery-induced reordering cannot reshuffle what
	// every *other* client is about to send.
	rng *rand.Rand

	trace  int64 // in-flight request's trace ID (0 = untraced)
	sentAt int64 // cycles() when the request was delivered
}

// Run completes `total` requests (or stops early on server death / stall).
// The server must already be running (or runnable); the driver first runs
// the machine until it blocks so startup completes.
func (d *Driver) Run(total int) Result {
	if d.Concurrency <= 0 {
		d.Concurrency = 4
	}
	if d.StepBudget <= 0 {
		d.StepBudget = 2_000_000
	}
	if d.StallCycles <= 0 {
		d.StallCycles = DefaultStallCycles
	}
	var res Result
	if d.Sink != nil {
		res.CleanLatency = obsv.NewHist()
		res.RecoveryLatency = obsv.NewHist()
	}
	nextTrace := d.TraceBase

	startCycles := d.cycles()
	startSteps := d.steps()

	// Let the server finish startup and block on epoll_wait.
	if ok, _ := d.slice(&res); !ok {
		res.Cycles = d.cycles() - startCycles
		res.Steps = d.steps() - startSteps
		if d.Metrics != nil {
			Metrics.Publish(d.Metrics, &res)
		}
		return res
	}

	clients := make([]*clientState, d.Concurrency)
	for i := range clients {
		clients[i] = &clientState{rng: rand.New(rand.NewSource(d.Seed ^ int64(i)))}
	}

	idleRounds := 0
	var idleCycles int64
	for res.Completed+res.BadResp < total {
		progressed := false
		roundStart := d.cycles()
		// Feed requests.
		for i, c := range clients {
			if c.conn == nil || c.conn.ServerClosed() {
				c.conn = d.connect()
				c.resp = c.resp[:0]
				c.pending = false
				if c.conn == nil {
					continue // port not bound (yet) or backlog full
				}
			}
			if !c.pending {
				c.req = d.Gen.Next(i, c.rng)
				if d.Sink != nil {
					nextTrace++
					c.trace = nextTrace
					c.sentAt = d.cycles()
					res.Sent++
					c.conn.ClientDeliverTraced(c.req, c.trace)
				} else {
					c.conn.ClientDeliver(c.req)
				}
				c.pending = true
				progressed = true
			}
		}

		ok, busy := d.slice(&res)
		if !ok {
			break
		}

		// Drain responses.
		for _, c := range clients {
			if c.conn == nil {
				continue
			}
			// Responses accumulate in the client's own buffer: validated
			// ones are compacted away in place, so neither the socket
			// queue nor this buffer is reallocated per response.
			had := len(c.resp)
			c.resp = c.conn.ClientTakeAppend(c.resp)
			if len(c.resp) > had {
				progressed = true
			}
			for c.pending {
				n := d.Gen.Split(c.resp)
				if n == 0 {
					break
				}
				ok := d.Gen.Check(c.req, c.resp[:n])
				c.resp = c.resp[:copy(c.resp, c.resp[n:])]
				if ok {
					res.Completed++
				} else {
					res.BadResp++
				}
				if d.Sink != nil {
					touched := d.Sink.ReqDone(c.trace, ok)
					lat := d.cycles() - c.sentAt
					if touched {
						res.RecoveryLatency.Observe(lat)
					} else {
						res.CleanLatency.Observe(lat)
					}
					c.trace = 0
				}
				c.pending = false
			}
			if c.conn.ServerClosed() && c.pending {
				// Connection died mid-request (server error path):
				// count and reconnect on the next round.
				res.BadResp++
				if d.Sink != nil {
					d.Sink.ReqLost(c.trace, "conn-closed")
					c.trace = 0
				}
				c.pending = false
				progressed = true
			}
		}

		if progressed {
			idleRounds, idleCycles = 0, 0
		} else {
			// Progress-free round. A busy server (slice exhausted its
			// step budget mid-computation) is doing real work: charge the
			// cycle budget only. A blocked one is at a fixpoint — more
			// rounds cost almost nothing and change nothing — so the
			// consecutive-round limit fires at the old promptness.
			idleCycles += d.cycles() - roundStart
			if busy {
				idleRounds = 0
			} else {
				idleRounds++
			}
			if idleRounds > stallRounds || idleCycles > d.StallCycles {
				res.Stalled = true
				break
			}
		}
	}
	for _, c := range clients {
		if c.pending {
			res.Outstanding++
			if d.Sink != nil {
				cause := "run-end"
				switch {
				case res.ServerDied:
					cause = "server-died"
				case res.Stalled:
					cause = "stalled"
				}
				d.Sink.ReqLost(c.trace, cause)
				c.trace = 0
			}
		}
	}
	res.Cycles = d.cycles() - startCycles
	res.Steps = d.steps() - startSteps
	if d.Metrics != nil {
		Metrics.Publish(d.Metrics, &res)
		if d.S != nil {
			d.S.PublishMetrics(d.Metrics)
		}
	}
	return res
}

// connect opens a new client connection to the served port.
func (d *Driver) connect() *libsim.Conn {
	if d.Srv != nil {
		return d.Srv.Connect(d.Port)
	}
	return d.OS.Connect(d.Port)
}

// cycles returns the throughput clock: the Server's clock when one is
// plugged in, wall cycles under a scheduler, the machine's cycle count
// otherwise.
func (d *Driver) cycles() int64 {
	if d.Srv != nil {
		return d.Srv.Cycles()
	}
	if d.S != nil {
		return d.S.WallCycles()
	}
	return d.M.Cycles
}

func (d *Driver) steps() int64 {
	if d.Srv != nil {
		return d.Srv.Steps()
	}
	if d.S != nil {
		return d.S.TotalSteps()
	}
	return d.M.Steps
}

// slice runs the machine (or all runnable threads, or the plugged-in
// Server) until it blocks; ok is false when the server died or exited,
// and busy reports a slice that exhausted its step budget mid-work (the
// stall detector must not count such rounds as idle).
func (d *Driver) slice(res *Result) (ok, busy bool) {
	for {
		var out interp.Outcome
		switch {
		case d.Srv != nil:
			out = d.Srv.Slice(d.StepBudget)
		case d.S != nil:
			out = d.S.Run(d.StepBudget)
		default:
			out = d.M.Run(d.StepBudget)
		}
		switch out.Kind {
		case interp.OutBlocked:
			return true, false
		case interp.OutStepLimit:
			// Long-running slice (an accept/handle burst); treat like a
			// block so the driver can drain and keep feeding.
			return true, true
		case interp.OutTrapped:
			res.ServerDied = true
			res.TrapCode = out.Code
			return false, false
		case interp.OutWatch:
			// A replay watchpoint froze the machine at its target
			// boundary. Terminal for the run, but not a death: the server
			// is intact, merely halted for inspection.
			return false, false
		case interp.OutExited:
			return false, false
		default:
			return false, false
		}
	}
}

// --- HTTP ---------------------------------------------------------------------

// HTTPPath describes one weighted request target.
type HTTPPath struct {
	Path   string
	Status int // expected status code
}

// HTTPGen generates keep-alive HTTP/1.1 traffic over a path mix.
type HTTPGen struct {
	Paths []HTTPPath
}

// DefaultHTTPMix is the standard static-file mix used by the web server
// benchmarks (ApacheBench/wrk analog).
func DefaultHTTPMix() *HTTPGen {
	return &HTTPGen{Paths: []HTTPPath{
		{Path: "/", Status: 200},
		{Path: "/index.html", Status: 200},
		{Path: "/about.html", Status: 200},
		{Path: "/small.txt", Status: 200},
		// The medium transfer dominates the byte volume (listed thrice
		// to weight it), and — because its post-malloc initialization
		// fits the modelled L1 — it is where HTM checkpointing pays.
		{Path: "/data.bin", Status: 200},
		{Path: "/data.bin", Status: 200},
		{Path: "/data.bin", Status: 200},
		{Path: "/missing.html", Status: 404},
	}}
}

// TestSuiteHTTPMix adds the feature paths (SSI, WebDAV, big files) so the
// profiled surface resembles a standard test-suite run (Table III/IV).
func TestSuiteHTTPMix() *HTTPGen {
	g := DefaultHTTPMix()
	g.Paths = append(g.Paths,
		HTTPPath{Path: "/ssi", Status: 200},
		HTTPPath{Path: "/big.bin", Status: 200},
	)
	return g
}

// The request line and headers around an HTTPGen request's path.
const httpReqHead, httpReqTail = "GET ", " HTTP/1.1\r\nHost: sim\r\n\r\n"

// Next implements Generator. The request is built in place, in one
// allocation of exactly its size.
func (g *HTTPGen) Next(i int, rng *rand.Rand) []byte {
	p := g.Paths[rng.Intn(len(g.Paths))]
	req := make([]byte, 0, len(httpReqHead)+len(p.Path)+len(httpReqTail))
	req = append(req, httpReqHead...)
	req = append(req, p.Path...)
	return append(req, httpReqTail...)
}

// Split implements Generator: HTTP framing via Content-Length.
func (g *HTTPGen) Split(buf []byte) int {
	head := bytes.Index(buf, []byte("\r\n\r\n"))
	if head < 0 {
		return 0
	}
	bodyStart := head + 4
	cl := 0
	for rest, more := buf[:head], true; more; {
		var line []byte
		line, rest, more = bytes.Cut(rest, []byte("\r\n"))
		if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
			n, err := strconv.Atoi(string(v))
			if err != nil {
				return 0
			}
			cl = n
		}
	}
	if len(buf) < bodyStart+cl {
		return 0
	}
	return bodyStart + cl
}

// Check implements Generator: the status line must match the expected
// status for the requested path.
func (g *HTTPGen) Check(req, resp []byte) bool {
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

// --- Redis ----------------------------------------------------------------------

// RedisGen alternates SET and GET over a small key space (the paper's
// SET/GET workload).
type RedisGen struct {
	Keys int
	seq  map[int]int // per-client statement counter (stream stability)
}

// Next implements Generator: a SET/GET-dominated mix with the secondary
// commands (INCR, EXISTS, DEL) redis-benchmark also exercises. The
// statement counter is keyed per client so a client's stream depends
// only on its own position, never on cross-client delivery order.
func (g *RedisGen) Next(i int, rng *rand.Rand) []byte {
	if g.Keys <= 0 {
		g.Keys = 16
	}
	if g.seq == nil {
		g.seq = map[int]int{}
	}
	g.seq[i]++
	seq := g.seq[i]
	key := fmt.Sprintf("k%d", rng.Intn(g.Keys))
	switch seq % 8 {
	case 1, 3, 5:
		return []byte(fmt.Sprintf("SET %s v%d\n", key, seq))
	case 7:
		return []byte("INCR ctr" + key + "\n")
	case 2:
		return []byte("EXISTS " + key + "\n")
	case 4:
		return []byte("DEL " + key + "\n")
	default:
		return []byte("GET " + key + "\n")
	}
}

// Split implements Generator: newline framing.
func (g *RedisGen) Split(buf []byte) int {
	if i := bytes.IndexByte(buf, '\n'); i >= 0 {
		return i + 1
	}
	return 0
}

// Check implements Generator.
func (g *RedisGen) Check(req, resp []byte) bool {
	switch {
	case bytes.HasPrefix(req, []byte("SET ")):
		return bytes.Equal(resp, []byte("+OK\n"))
	case bytes.HasPrefix(req, []byte("GET ")):
		// Either $-1 (miss) or $<value>; interleaved clients race on the
		// key space, so any well-formed reply is accepted.
		return bytes.HasPrefix(resp, []byte("$"))
	case bytes.HasPrefix(req, []byte("INCR ")),
		bytes.HasPrefix(req, []byte("EXISTS ")),
		bytes.HasPrefix(req, []byte("DEL ")):
		return bytes.HasPrefix(resp, []byte(":"))
	default:
		return false
	}
}

// --- SQL-ish (PostgreSQL analog) ---------------------------------------------------

// SQLGen drives the PostgreSQL analog with INSERT/SELECT statements.
type SQLGen struct {
	Keys int
	seq  map[int]int // per-client statement counter (stream stability)
}

// Next implements Generator: INSERT/SELECT-dominated with occasional
// DELETE and COUNT statements, sequenced per client like RedisGen.
func (g *SQLGen) Next(i int, rng *rand.Rand) []byte {
	if g.Keys <= 0 {
		g.Keys = 16
	}
	if g.seq == nil {
		g.seq = map[int]int{}
	}
	g.seq[i]++
	seq := g.seq[i]
	key := rng.Intn(g.Keys)
	switch seq % 8 {
	case 1, 3, 5:
		return []byte(fmt.Sprintf("INSERT %d %d\n", key, seq))
	case 6:
		return []byte(fmt.Sprintf("DELETE %d\n", key))
	case 7:
		return []byte("COUNT\n")
	default:
		return []byte(fmt.Sprintf("SELECT %d\n", key))
	}
}

// Split implements Generator.
func (g *SQLGen) Split(buf []byte) int {
	if i := bytes.IndexByte(buf, '\n'); i >= 0 {
		return i + 1
	}
	return 0
}

// Check implements Generator.
func (g *SQLGen) Check(req, resp []byte) bool {
	switch {
	case bytes.HasPrefix(req, []byte("INSERT")):
		return bytes.Equal(resp, []byte("OK\n"))
	case bytes.HasPrefix(req, []byte("DELETE")):
		return bytes.Equal(resp, []byte("OK\n")) || bytes.Equal(resp, []byte("NONE\n"))
	case bytes.HasPrefix(req, []byte("COUNT")):
		return bytes.HasPrefix(resp, []byte("COUNT "))
	default:
		return bytes.HasPrefix(resp, []byte("ROW ")) || bytes.Equal(resp, []byte("NONE\n"))
	}
}

// ForProtocol returns the standard generator for an app protocol.
func ForProtocol(proto string) Generator {
	switch proto {
	case "redis":
		return &RedisGen{}
	case "sql":
		return &SQLGen{}
	default:
		return TestSuiteHTTPMix()
	}
}
