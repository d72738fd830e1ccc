package workload

import (
	"bytes"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/firestarter-go/firestarter/internal/interp"
	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/mem"
	"github.com/firestarter-go/firestarter/internal/minic"
)

// newEchoDriver compiles the line-echo server and wraps it in a driver.
func newEchoDriver(tb testing.TB) *Driver {
	tb.Helper()
	prog, err := minic.Compile(echoSrc, minic.Config{KnownLib: libsim.Known})
	if err != nil {
		tb.Fatal(err)
	}
	o := libsim.New(mem.NewSpace())
	m, err := interp.New(prog, o, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return &Driver{OS: o, M: m, Port: 9000, Gen: &echoGen{}, Seed: 1}
}

// checkOpenIdentity asserts the open-loop conservation law: every offered
// arrival reaches exactly one terminal.
func checkOpenIdentity(t *testing.T, res OpenResult) {
	t.Helper()
	terminals := res.Completed + res.BadResp + res.Shed + res.ConnLost +
		res.Outstanding + res.Abandoned
	if terminals != res.Offered {
		t.Errorf("terminals %d != offered %d (%+v)", terminals, res.Offered, res.Result)
	}
}

func TestOpenLoopAgainstEchoServer(t *testing.T) {
	d := newEchoDriver(t)
	res := d.RunOpen(OpenConfig{Total: 60, Clients: 16, RatePerMcycle: 200})
	if res.ServerDied || res.Stalled {
		t.Fatalf("result = %+v", res.Result)
	}
	if res.Offered != 60 {
		t.Fatalf("offered = %d, want 60", res.Offered)
	}
	if res.Completed != 60 || res.BadResp != 0 {
		t.Fatalf("completed %d bad %d, want 60/0", res.Completed, res.BadResp)
	}
	if res.Wall <= 0 || res.Cycles <= 0 {
		t.Errorf("no clock accounting: wall=%d cycles=%d", res.Wall, res.Cycles)
	}
	checkOpenIdentity(t, res)
}

// TestOpenLoopQuietPeriodNotAStall is the second regression case for the
// stall detector's round counting (the first is the compute burst in
// workload_test.go): an open-loop run whose arrival gaps dwarf the
// blocked-round limit spends many consecutive rounds with nothing to do
// — the server healthy and blocked, the next arrival far in the future.
// A round-counting detector declares that quiet period a stall; the
// driver must instead fast-forward the virtual clock to the next arrival
// and finish every request un-stalled.
func TestOpenLoopQuietPeriodNotAStall(t *testing.T) {
	d := newEchoDriver(t)
	// Mean gap 100M cycles — twice the whole DefaultStallCycles budget
	// per arrival, and far beyond anything stallRounds-many blocked
	// rounds would survive if quiet periods were charged as idle.
	res := d.RunOpen(OpenConfig{Total: 6, Clients: 4, RatePerMcycle: 0.01})
	if res.Stalled {
		t.Fatalf("quiet period misdetected as stall: %+v", res.Result)
	}
	if res.ServerDied || res.Completed != 6 {
		t.Fatalf("result = %+v, want 6 clean completions", res.Result)
	}
	if res.Shed != 0 {
		t.Errorf("idle-load run shed %d requests", res.Shed)
	}
	checkOpenIdentity(t, res)
}

// TestOpenLoopDeterministic runs the same configuration twice on fresh
// servers: every counter and both clocks must match exactly, for every
// arrival shape.
func TestOpenLoopDeterministic(t *testing.T) {
	for _, shape := range []ArrivalShape{ShapePoisson, ShapeBursty, ShapeDiurnal} {
		cfg := OpenConfig{
			Shape: shape, Total: 80, Clients: 24, RatePerMcycle: 300,
			MaxConns: 8, PipelineDepth: 2, ChurnEvery: 7,
			SlowEvery: 3, FragmentEvery: 5,
		}
		a := newEchoDriver(t).RunOpen(cfg)
		b := newEchoDriver(t).RunOpen(cfg)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: repeat runs diverge:\n a=%+v\n b=%+v", shape, a, b)
		}
		if a.Offered != 80 {
			t.Errorf("%s: offered = %d, want 80", shape, a.Offered)
		}
		checkOpenIdentity(t, a)
	}
}

// slowFake is a Go-side Server that answers at most one request per
// slice, each slice costing a fat tranche of cycles — a fixed service
// rate the arrival schedule can outrun.
type slowFake struct {
	conns []*libsim.Conn
	clock int64
	bufs  map[*libsim.Conn][]byte
}

func (s *slowFake) Connect(port int64) *libsim.Conn {
	c := libsim.NewConn()
	s.conns = append(s.conns, c)
	return c
}

func (s *slowFake) Slice(budget int64) interp.Outcome {
	s.clock += 20_000
	if s.bufs == nil {
		s.bufs = map[*libsim.Conn][]byte{}
	}
	for _, c := range s.conns {
		if c.ServerClosed() || c.ClientGone() {
			continue
		}
		data, _ := c.ProxyTake()
		buf := append(s.bufs[c], data...)
		for i, b := range buf {
			if b == '\n' {
				c.ProxyDeliver(buf[:i+1])
				s.bufs[c] = append([]byte(nil), buf[i+1:]...)
				return interp.Outcome{Kind: interp.OutBlocked}
			}
		}
		s.bufs[c] = buf
	}
	return interp.Outcome{Kind: interp.OutBlocked}
}

func (s *slowFake) Cycles() int64 { return s.clock }
func (s *slowFake) Steps() int64  { return s.clock }

// TestOpenLoopShedsUnderOverload offers load well past the server's
// service rate: the closed-loop driver would simply slow down, the
// open-loop driver must keep offering, build a backlog, and shed the
// arrivals whose patience expires — while still completing a healthy
// share. This is the shedding knee the bench campaign sweeps for.
func TestOpenLoopShedsUnderOverload(t *testing.T) {
	d := &Driver{Srv: &slowFake{}, Port: 9000, Gen: &echoGen{}, Seed: 3}
	// Service: 1 request / 20k cycles. Offered: 1 / 2k cycles — 10x.
	res := d.RunOpen(OpenConfig{
		Total: 200, Clients: 64, RatePerMcycle: 500,
		MaxConns: 4, Patience: 100_000,
	})
	if res.ServerDied || res.Stalled {
		t.Fatalf("result = %+v", res.Result)
	}
	if res.Offered != 200 {
		t.Fatalf("offered = %d, want 200 — open loop must not throttle", res.Offered)
	}
	if res.Shed == 0 {
		t.Fatal("10x overload shed nothing")
	}
	if res.Completed == 0 {
		t.Fatal("overloaded server completed nothing")
	}
	if res.PeakQueue <= res.Shed/200 {
		t.Errorf("peak queue %d implausibly small for %d sheds", res.PeakQueue, res.Shed)
	}
	checkOpenIdentity(t, res)
}

// countSink counts terminals per trace so tests can assert the causal
// contract: every trace ID reaches exactly one terminal.
type countSink struct {
	done, lost int
	causes     map[string]int
	terminals  map[int64]int
}

func (s *countSink) seen(trace int64) {
	if s.terminals == nil {
		s.terminals = map[int64]int{}
	}
	s.terminals[trace]++
}

func (s *countSink) ReqDone(trace int64, ok bool) bool {
	s.done++
	s.seen(trace)
	return false
}

func (s *countSink) ReqLost(trace int64, cause string) {
	s.lost++
	if s.causes == nil {
		s.causes = map[string]int{}
	}
	s.causes[cause]++
	s.seen(trace)
}

// TestOpenLoopTracedTerminals drives the full feature mix — pipelining,
// fragmentation, slow readers, churn — under tracing and checks zero
// silent deaths: done + lost == Sent == Offered, with every trace ID
// reaching exactly one terminal.
func TestOpenLoopTracedTerminals(t *testing.T) {
	sink := &countSink{}
	d := newEchoDriver(t)
	d.Sink = sink
	d.TraceBase = 1000
	res := d.RunOpen(OpenConfig{
		Total: 120, Clients: 32, RatePerMcycle: 400,
		MaxConns: 8, PipelineDepth: 3, ChurnEvery: 9,
		SlowEvery: 4, FragmentEvery: 6,
	})
	if res.ServerDied || res.Stalled {
		t.Fatalf("result = %+v", res.Result)
	}
	if res.Sent != res.Offered || res.Offered != 120 {
		t.Fatalf("sent %d offered %d, want 120/120", res.Sent, res.Offered)
	}
	if sink.done+sink.lost != res.Sent {
		t.Fatalf("silent deaths: done %d + lost %d != sent %d (causes %v)",
			sink.done, sink.lost, res.Sent, sink.causes)
	}
	if len(sink.terminals) != res.Sent {
		t.Fatalf("distinct traces terminated = %d, want %d", len(sink.terminals), res.Sent)
	}
	for tr, n := range sink.terminals {
		if n != 1 {
			t.Fatalf("trace %d reached %d terminals", tr, n)
		}
		if tr <= d.TraceBase || tr > d.TraceBase+int64(res.Sent) {
			t.Fatalf("trace %d outside [%d, %d]", tr, d.TraceBase+1, d.TraceBase+int64(res.Sent))
		}
	}
	if sink.done != res.Completed+res.BadResp {
		t.Errorf("done %d != completed %d + bad %d", sink.done, res.Completed, res.BadResp)
	}
	lat := res.CleanLatency.Count() + res.RecoveryLatency.Count()
	if lat != int64(res.Completed+res.BadResp) {
		t.Errorf("latency observations %d != %d answered", lat, res.Completed+res.BadResp)
	}
	checkOpenIdentity(t, res)
}

// TestOpenLoopRunEndAccounting stops the schedule while requests are
// still queued and in flight on a server that never answers: every one
// of them must reach a loss terminal with the right cause split.
func TestOpenLoopRunEndAccounting(t *testing.T) {
	prog, err := minic.Compile(`
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
				// accepted, never served: black hole
			}
		}
	}
	return 0;
}`, minic.Config{KnownLib: libsim.Known})
	if err != nil {
		t.Fatal(err)
	}
	o := libsim.New(mem.NewSpace())
	m, err := interp.New(prog, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	sink := &countSink{}
	d := &Driver{OS: o, M: m, Port: 9000, Gen: &echoGen{}, Seed: 2, Sink: sink}
	res := d.RunOpen(OpenConfig{
		Total: 20, Clients: 8, RatePerMcycle: 1000,
		MaxConns: 4, Patience: 1 << 40, // never shed: losses come from the stall
	})
	if !res.Stalled {
		t.Fatalf("mute server not detected: %+v", res.Result)
	}
	if res.Completed != 0 || res.Shed != 0 {
		t.Fatalf("result = %+v, want nothing completed or shed", res.Result)
	}
	if sink.lost != res.Offered {
		t.Fatalf("lost %d != offered %d (causes %v)", sink.lost, res.Offered, sink.causes)
	}
	if sink.causes["stalled"] != res.Outstanding+res.Abandoned {
		t.Errorf("stalled causes %d != outstanding %d + abandoned %d",
			sink.causes["stalled"], res.Outstanding, res.Abandoned)
	}
	if res.Outstanding == 0 {
		t.Error("no requests were in flight at the stall")
	}
	checkOpenIdentity(t, res)
}

// crowdConfig turns every driver feature on at the population size the
// open-loop campaign runs: 20k modelled clients, slow readers, fragmented
// requests, churn and pipelining, offered past the echo server's knee so
// a share of the arrivals shed.
var crowdConfig = OpenConfig{
	Total: 1000, Clients: 20000, RatePerMcycle: 2500,
	MaxConns: 16, PipelineDepth: 2, Patience: 60_000,
	ChurnEvery: 5, SlowEvery: 7, FragmentEvery: 11,
}

// orderSink hashes every terminal in the order the driver emits it.
type orderSink struct{ h hash.Hash64 }

func (s *orderSink) ReqDone(trace int64, ok bool) bool {
	fmt.Fprintf(s.h, "done %d %t\n", trace, ok)
	return false
}

func (s *orderSink) ReqLost(trace int64, cause string) {
	fmt.Fprintf(s.h, "lost %d %s\n", trace, cause)
}

// TestOpenLoopCrowdPinned pins the driver's observable behaviour on
// crowdConfig to fixed values, so a change to how a round finds its
// clients (the active set) cannot reorder deliveries, drains or sheds
// unnoticed: the repeat-run tests compare the driver only with itself.
// Traced, the order of every terminal is pinned as well.
func TestOpenLoopCrowdPinned(t *testing.T) {
	type counters struct {
		Completed, Shed, ConnLost, Abandoned, Outstanding, PeakQueue int
		Wall, Cycles                                                 int64
	}
	for _, tc := range []struct {
		traced    bool
		want      counters
		terminals uint64
		cleanSum  int64
	}{
		{want: counters{Completed: 779, Shed: 221, PeakQueue: 162, Wall: 458054, Cycles: 457244}},
		{traced: true, want: counters{Completed: 777, Shed: 223, PeakQueue: 162, Wall: 456912, Cycles: 456102},
			terminals: 0x306ee4cbf98a8eb2, cleanSum: 40260685},
	} {
		d := newEchoDriver(t)
		sink := &orderSink{h: fnv.New64a()}
		if tc.traced {
			d.Sink = sink
			d.TraceBase = 1000
		}
		res := d.RunOpen(crowdConfig)
		got := counters{res.Completed, res.Shed, res.ConnLost, res.Abandoned,
			res.Outstanding, res.PeakQueue, res.Wall, res.Cycles}
		if got != tc.want {
			t.Errorf("traced=%t: counters\n got %+v\nwant %+v", tc.traced, got, tc.want)
		}
		if res.BadResp != 0 || res.ServerDied || res.Stalled {
			t.Errorf("traced=%t: result = %+v", tc.traced, res.Result)
		}
		if tc.traced {
			if h := sink.h.Sum64(); h != tc.terminals {
				t.Errorf("terminal order hash = %#x, want %#x", h, tc.terminals)
			}
			if n, sum := res.CleanLatency.Count(), res.CleanLatency.Sum(); n != int64(tc.want.Completed) || sum != tc.cleanSum {
				t.Errorf("clean latency count %d sum %d, want %d / %d", n, sum, tc.want.Completed, tc.cleanSum)
			}
		}
		checkOpenIdentity(t, res)
	}
}

// BenchmarkRunOpen times the open-loop driver on crowdConfig against the
// echo server, a fresh server per run: the workload driver's own cost
// per open-loop sweep (arrivals, deliveries, drains, sheds).
func BenchmarkRunOpen(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := newEchoDriver(b)
		b.StartTimer()
		res := d.RunOpen(crowdConfig)
		if res.Offered != crowdConfig.Total {
			b.Fatalf("offered %d, want %d", res.Offered, crowdConfig.Total)
		}
	}
}

// bigHTTPFake is a Go-side HTTP server that answers every request with a
// 200 whose body is far longer than a slow reader drains in a round.
type bigHTTPFake struct {
	conns []*libsim.Conn
	resp  []byte
	clock int64
}

func newBigHTTPFake(body int) *bigHTTPFake {
	head := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", body)
	return &bigHTTPFake{resp: append([]byte(head), make([]byte, body)...)}
}

func (s *bigHTTPFake) Connect(port int64) *libsim.Conn {
	c := libsim.NewConn()
	s.conns = append(s.conns, c)
	return c
}

func (s *bigHTTPFake) Slice(budget int64) interp.Outcome {
	s.clock += 1000
	s.conns = slices.DeleteFunc(s.conns, (*libsim.Conn).ClientGone)
	for _, c := range s.conns {
		data, _ := c.ProxyTake()
		for n := bytes.Count(data, []byte("\r\n\r\n")); n > 0; n-- {
			c.ProxyDeliver(s.resp)
		}
	}
	return interp.Outcome{Kind: interp.OutBlocked}
}

func (s *bigHTTPFake) Cycles() int64 { return s.clock }
func (s *bigHTTPFake) Steps() int64  { return s.clock }

// splitCounter counts the Split calls a driver makes.
type splitCounter struct {
	*HTTPGen
	calls int
}

func (g *splitCounter) Split(buf []byte) int {
	g.calls++
	return g.HTTPGen.Split(buf)
}

// slowHTTPConfig has one slow reader fetch responses one after another.
var slowHTTPConfig = OpenConfig{Total: 4, Clients: 1, SlowEvery: 1, Patience: 1 << 40}

// TestSlowReaderFramesEachResponseOnce checks that a slow reader frames a
// response once its header is in: Split runs while the header trickles in
// and once more when the body is complete, whatever the body size.
func TestSlowReaderFramesEachResponseOnce(t *testing.T) {
	for _, body := range []int{16 << 10, 48 << 10} {
		srv := newBigHTTPFake(body)
		g := &splitCounter{HTTPGen: &HTTPGen{Paths: []HTTPPath{{Path: "/big.bin", Status: 200}}}}
		d := &Driver{Srv: srv, Port: 80, Gen: g, Seed: 1}
		res := d.RunOpen(slowHTTPConfig)
		if res.Completed != slowHTTPConfig.Total {
			t.Fatalf("body %d: completed %d of %d: %+v", body, res.Completed, slowHTTPConfig.Total, res.Result)
		}
		header := len(srv.resp) - body
		if limit := res.Completed * (header/slowBytes + 2); g.calls > limit {
			t.Errorf("body %d: %d Split calls for %d responses, want at most %d", body, g.calls, res.Completed, limit)
		}
	}
}

// BenchmarkRunOpenSlowHTTP times the open-loop driver on a slow reader
// fetching 48 KB HTTP responses: the driver's cost per byte moved when a
// response takes thousands of rounds to drain.
func BenchmarkRunOpenSlowHTTP(b *testing.B) {
	b.ReportAllocs()
	gen := &HTTPGen{Paths: []HTTPPath{{Path: "/big.bin", Status: 200}}}
	for i := 0; i < b.N; i++ {
		d := &Driver{Srv: newBigHTTPFake(48 << 10), Port: 80, Gen: gen, Seed: 1}
		if res := d.RunOpen(slowHTTPConfig); res.Completed != slowHTTPConfig.Total {
			b.Fatalf("completed %d of %d", res.Completed, slowHTTPConfig.Total)
		}
	}
}

// rejectReq draws one request from rng: three bytes from Read, whose
// unused bytes carry over to the client's next request, and an Intn with
// a bound just past 2^30, which rejection-samples a second source step
// about half the time.
func rejectReq(rng *rand.Rand) string {
	var b [3]byte
	rng.Read(b[:])
	return fmt.Sprintf("r%d-%x\n", rng.Intn(1<<30+1), b)
}

// rejectGen records every client's requests in order.
type rejectGen struct{ got map[int][]string }

func (g *rejectGen) Next(i int, rng *rand.Rand) []byte {
	if g.got == nil {
		g.got = map[int][]string{}
	}
	req := rejectReq(rng)
	g.got[i] = append(g.got[i], req)
	return []byte(req)
}
func (g *rejectGen) Split(buf []byte) int        { return (&echoGen{}).Split(buf) }
func (g *rejectGen) Check(req, resp []byte) bool { return string(req) == string(resp) }

// TestOpenLoopRngHandOn checks that clients handing their rng sources on
// while idle leaves every client's request stream exactly the one a
// fresh rand.NewSource(Seed ^ id) gives. Arrivals are far apart, so each
// request completes and its client goes idle before the next arrival:
// every return takes over a source another client handed on. With two
// clients a client draws past handOnSteps and keeps its source instead.
func TestOpenLoopRngHandOn(t *testing.T) {
	for _, tc := range []struct {
		clients, total int
		keeps          bool // some client draws past handOnSteps
	}{
		{clients: 12, total: 300},
		{clients: 2, total: 1000, keeps: true},
	} {
		g := &rejectGen{}
		d := &Driver{Srv: &echoFake{}, Port: 9000, Gen: g, Seed: 11}
		res := d.RunOpen(OpenConfig{Total: tc.total, Clients: tc.clients, RatePerMcycle: 100})
		if res.Completed != tc.total {
			t.Fatalf("clients=%d: completed %d of %d: %+v", tc.clients, res.Completed, tc.total, res.Result)
		}
		if len(g.got) != tc.clients {
			t.Fatalf("clients=%d: %d clients drew requests", tc.clients, len(g.got))
		}
		var maxSteps int64
		for id, reqs := range g.got {
			if len(reqs) < 2 {
				t.Fatalf("clients=%d: client %d never returned", tc.clients, id)
			}
			src := &stepSource{Source64: rand.NewSource(d.Seed ^ int64(id)).(rand.Source64)}
			rng := rand.New(src)
			for j, got := range reqs {
				if want := rejectReq(rng); got != want {
					t.Fatalf("clients=%d: client %d request %d = %q, want %q", tc.clients, id, j, got, want)
				}
			}
			maxSteps = max(maxSteps, src.steps)
		}
		if keeps := maxSteps > handOnSteps; keeps != tc.keeps {
			t.Errorf("clients=%d: most steps of a client %d, want past %d: %t", tc.clients, maxSteps, handOnSteps, tc.keeps)
		}
	}
}
