package fleet

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/firestarter-go/firestarter/internal/interp"
	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/mem"
	"github.com/firestarter-go/firestarter/internal/obsv"
	"github.com/firestarter-go/firestarter/internal/supervisor"
	"github.com/firestarter-go/firestarter/internal/workload"
)

// fakeRep is a scripted replica: a newline-framed server driven Go-side
// through the real library-call surface (socket/bind/listen/accept/read/
// write), so the balancer's byte plumbing, trace promotion and errno
// propagation are exercised exactly as with an interpreted app, while the
// test scripts crashes, sheds, held and partial responses.
type fakeRep struct {
	os    *libsim.OS
	sp    *mem.Space
	lfd   int64
	buf   int64
	cyc   int64
	steps int64
	fds   []int64
	acc   map[int64][]byte

	// mode: "echo" answers each line with itself; "hold" reads requests
	// and never answers; "partial" answers with half the line then holds;
	// "shed" closes the conn server-side upon a full request; "sheddie"
	// sheds and then traps in the same run; "deaf" never even accepts.
	mode string
	die  bool // trap at the start of the next Run
}

func newFake(t *testing.T, port int64, mode string) *fakeRep {
	t.Helper()
	sp := mem.NewSpace()
	if err := sp.Map(mem.GlobalBase, 1<<16); err != nil {
		t.Fatal(err)
	}
	o := libsim.New(sp)
	r := &fakeRep{os: o, sp: sp, buf: mem.GlobalBase, acc: map[int64][]byte{}, mode: mode, cyc: 1000}
	lfd, err := o.Call("socket", nil)
	if err != nil || lfd < 0 {
		t.Fatalf("socket: fd=%d err=%v", lfd, err)
	}
	if rv, err := o.Call("bind", []int64{lfd, port}); err != nil || rv != 0 {
		t.Fatalf("bind: rv=%d err=%v", rv, err)
	}
	if rv, err := o.Call("listen", []int64{lfd, 64}); err != nil || rv != 0 {
		t.Fatalf("listen: rv=%d err=%v", rv, err)
	}
	r.lfd = lfd
	return r
}

func (r *fakeRep) send(fd int64, data []byte) {
	if err := r.sp.WriteBytes(r.buf, data); err != nil {
		panic(err)
	}
	r.os.Call("write", []int64{fd, r.buf, int64(len(data))})
	r.cyc += int64(len(data))
}

func (r *fakeRep) Run(int64) interp.Outcome {
	r.steps++
	r.cyc += 100
	if r.die {
		return interp.Outcome{Kind: interp.OutTrapped, Code: 7}
	}
	if r.mode == "deaf" {
		return interp.Outcome{Kind: interp.OutBlocked}
	}
	for {
		fd, _ := r.os.Call("accept", []int64{r.lfd})
		if fd < 0 {
			break
		}
		r.fds = append(r.fds, fd)
	}
	trap := false
	var closed []int64
	for _, fd := range r.fds {
		gone := false
		for {
			n, _ := r.os.Call("read", []int64{fd, r.buf, 4096})
			if n < 0 {
				if r.os.Errno == libsim.ECONNRESET {
					gone = true
				}
				break // EAGAIN: drained
			}
			if n == 0 { // EOF: client closed
				gone = true
				break
			}
			r.cyc += n
			data, err := r.sp.ReadBytes(r.buf, n)
			if err != nil {
				panic(err)
			}
			r.acc[fd] = append(r.acc[fd], data...)
		}
		if gone {
			r.os.Call("close", []int64{fd})
			closed = append(closed, fd)
			continue
		}
		for {
			i := bytes.IndexByte(r.acc[fd], '\n')
			if i < 0 {
				break
			}
			line := append([]byte(nil), r.acc[fd][:i+1]...)
			r.acc[fd] = r.acc[fd][i+1:]
			switch r.mode {
			case "hold":
				// swallow: the request started but never answers
			case "shed", "sheddie":
				r.os.Call("shutdown", []int64{fd, 1})
				r.os.Call("close", []int64{fd})
				closed = append(closed, fd)
				if r.mode == "sheddie" {
					trap = true
				}
			case "partial":
				r.send(fd, line[:len(line)/2])
				r.mode = "hold" // the rest never comes
			default:
				r.send(fd, line)
			}
		}
	}
	for _, fd := range closed {
		for i, have := range r.fds {
			if have == fd {
				r.fds = append(r.fds[:i], r.fds[i+1:]...)
				break
			}
		}
		delete(r.acc, fd)
	}
	if trap {
		return interp.Outcome{Kind: interp.OutTrapped, Code: 9}
	}
	return interp.Outcome{Kind: interp.OutBlocked}
}

func (r *fakeRep) Cycles() int64 { return r.cyc }
func (r *fakeRep) Steps() int64  { return r.steps }

// quickSup is a supervision policy whose breaker window never forgives.
func quickSup() supervisor.Config {
	return supervisor.Config{Seed: 1, MaxRestarts: 8, WindowCycles: 1 << 40}
}

// fleetOf builds a fleet whose replica incarnations are fakeReps with
// per-(replica, incarnation) modes, records every booted fake, and runs
// the first Slice so all replicas are up.
func fleetOf(t *testing.T, cfg Config, mode func(rep, inc int) string) (*Fleet, *[]*fakeRep) {
	t.Helper()
	if cfg.Port == 0 {
		cfg.Port = 80
	}
	if cfg.Sup == (supervisor.Config{}) {
		cfg.Sup = quickSup()
	}
	var fakes []*fakeRep
	f := New(cfg, func(rep, inc int, seed int64) (*Backend, error) {
		fr := newFake(t, cfg.Port, mode(rep, inc))
		fakes = append(fakes, fr)
		return &Backend{OS: fr.os, Exec: fr}, nil
	})
	if out := f.Slice(0); out.Kind != interp.OutBlocked {
		t.Fatalf("first slice = %+v", out)
	}
	return f, &fakes
}

func echoMode(int, int) string { return "echo" }

// send delivers one traced request line on a front conn and slices.
func send(t *testing.T, f *Fleet, front *libsim.Conn, line string, trace int64) {
	t.Helper()
	front.ClientDeliverTraced([]byte(line), trace)
	if out := f.Slice(0); out.Kind != interp.OutBlocked {
		t.Fatalf("slice = %+v", out)
	}
}

func wantResp(t *testing.T, front *libsim.Conn, want string) {
	t.Helper()
	if got := string(front.ClientTake()); got != want {
		t.Fatalf("response = %q, want %q", got, want)
	}
}

func TestEchoThroughBalancer(t *testing.T) {
	f, _ := fleetOf(t, Config{Replicas: 1}, echoMode)
	front := f.Connect(80)
	if front == nil {
		t.Fatal("connect failed")
	}
	send(t, f, front, "ping\n", 7)
	wantResp(t, front, "ping\n")
	if f.ReqDone(7, true) {
		t.Error("clean request reported touched")
	}
	f.Finish()
	st := f.Stats()
	if st.Boots != 1 || st.Deaths != 0 || st.Handoffs != 0 || st.ReqsDone != 1 {
		t.Errorf("stats = %+v", st)
	}
	var ups, dones int
	for _, e := range f.Spans() {
		switch e.Kind {
		case obsv.SpanReplicaUp:
			ups++
			if e.Replica != 1 || e.Inc != 1 {
				t.Errorf("replica-up stamped %d/%d", e.Replica, e.Inc)
			}
		case obsv.SpanReqDone:
			dones++
		}
	}
	if ups != 1 || dones != 1 {
		t.Errorf("spans: %d replica-up, %d req-done", ups, dones)
	}
}

func TestConnectRejectsWrongPort(t *testing.T) {
	f, _ := fleetOf(t, Config{Replicas: 1}, echoMode)
	if f.Connect(81) != nil {
		t.Error("connect on the wrong port succeeded")
	}
}

func TestRoundRobinSpreadsConns(t *testing.T) {
	f, _ := fleetOf(t, Config{Replicas: 2}, echoMode)
	for i := 0; i < 4; i++ {
		if f.Connect(80) == nil {
			t.Fatal("connect failed")
		}
	}
	want := []int{0, 1, 0, 1}
	for i, vc := range f.conns {
		if vc.rep != want[i] {
			t.Errorf("conn %d on replica %d, want %d", i, vc.rep, want[i])
		}
	}
}

// A replica death mid-request fails the conn over: the buffered request
// replays on a healthy replica. The request had started (the dying server
// read it), so the replay is untraced — its one req-start already
// happened — and the handoff span carries the trace ID.
func TestFailoverReplaysStartedRequest(t *testing.T) {
	f, fakes := fleetOf(t, Config{Replicas: 2}, func(rep, inc int) string {
		if rep == 0 && inc == 0 {
			return "hold"
		}
		return "echo"
	})
	front := f.Connect(80) // round-robin: replica 0
	send(t, f, front, "ping\n", 7)
	if got := string(front.ClientTake()); got != "" {
		t.Fatalf("held request answered: %q", got)
	}
	(*fakes)[0].die = true
	if out := f.Slice(0); out.Kind != interp.OutBlocked {
		t.Fatalf("slice = %+v", out)
	}
	wantResp(t, front, "ping\n")
	st := f.Stats()
	if st.Deaths != 1 || st.Failovers != 1 || st.Handoffs != 1 || st.ConnsLost != 0 {
		t.Errorf("stats = %+v", st)
	}
	if !f.touched[7] {
		t.Error("failed-over request not marked touched")
	}
	f.Finish()
	for _, e := range f.Spans() {
		if e.Kind == obsv.SpanHandoff {
			if e.Cause != CauseFailover || e.Trace != 7 || e.Replica != 2 {
				t.Errorf("handoff span = %+v", e)
			}
		}
	}
}

// A death before the server ever read the request also fails over, but
// the replay is re-stamped with the trace (the req-start must fire on the
// new replica) and the handoff span carries no trace ID yet.
func TestFailoverReplaysUnstartedRequestTraced(t *testing.T) {
	f, fakes := fleetOf(t, Config{Replicas: 2}, func(rep, inc int) string {
		if rep == 0 && inc == 0 {
			return "deaf"
		}
		return "echo"
	})
	front := f.Connect(80)
	send(t, f, front, "ping\n", 7)
	(*fakes)[0].die = true
	if out := f.Slice(0); out.Kind != interp.OutBlocked {
		t.Fatalf("slice = %+v", out)
	}
	wantResp(t, front, "ping\n")
	vc := f.conns[0]
	if vc.rep != 1 || vc.back.Trace() != 7 {
		t.Errorf("replayed conn: rep=%d back trace=%d, want 1/7", vc.rep, vc.back.Trace())
	}
	f.Finish()
	for _, e := range f.Spans() {
		if e.Kind == obsv.SpanHandoff && e.Trace != 0 {
			t.Errorf("unstarted handoff carries trace %d", e.Trace)
		}
	}
}

// A connection the dying server had already shed is closed toward the
// client, never failed over: the drop was deliberate, replaying it would
// resurrect a request the ladder chose to sacrifice.
func TestShedConnNeverFailsOver(t *testing.T) {
	f, _ := fleetOf(t, Config{Replicas: 2}, func(rep, inc int) string {
		if rep == 0 && inc == 0 {
			return "sheddie"
		}
		return "echo"
	})
	front := f.Connect(80)
	send(t, f, front, "ping\n", 7) // shed + trap in one run, before any pump
	if !front.ServerClosed() {
		t.Fatal("shed not propagated to the client")
	}
	st := f.Stats()
	if st.Deaths != 1 || st.Failovers != 0 || st.Handoffs != 0 || st.ConnsLost != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// The plain shed path (no death): the server closes the conn, the
// balancer propagates it, the client reconnects through the balancer.
func TestShedPropagatesWithoutDeath(t *testing.T) {
	f, _ := fleetOf(t, Config{Replicas: 1}, func(int, int) string { return "shed" })
	front := f.Connect(80)
	send(t, f, front, "ping\n", 7)
	if !front.ServerClosed() {
		t.Fatal("shed not propagated")
	}
	if st := f.Stats(); st.Deaths != 0 || st.ConnsClosed != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// A fresh request arriving on a draining replica moves to a healthy one
// at the request boundary, before any bytes reach the old back.
func TestDrainBoundaryMovesFreshRequest(t *testing.T) {
	f, _ := fleetOf(t, Config{Replicas: 2}, echoMode)
	front := f.Connect(80) // replica 0
	send(t, f, front, "a\n", 1)
	wantResp(t, front, "a\n")
	f.reps[0].state = repDraining
	f.reps[0].drainStart = f.wall
	front.ClientDeliverTraced([]byte("b\n"), 2)
	f.pump()
	vc := f.conns[0]
	if vc.rep != 1 {
		t.Fatalf("conn still on replica %d after drain boundary", vc.rep)
	}
	st := f.Stats()
	if st.Drains != 1 || st.Handoffs != 1 {
		t.Errorf("stats = %+v", st)
	}
	if f.touched[2] {
		t.Error("boundary move marked the request touched (no bytes were forwarded)")
	}
}

// With no healthy peer, a draining replica keeps serving: degraded beats
// stalled, and the drain deadline extends rather than forcing conns off.
func TestDrainWithoutPeerKeepsServing(t *testing.T) {
	f, fakes := fleetOf(t, Config{Replicas: 1}, echoMode)
	front := f.Connect(80)
	// Drive the balancer internals directly: a Slice's health check would
	// end a zero-occupancy drain immediately, but the boundary and expiry
	// logic must still hold while the state is draining.
	f.reps[0].state = repDraining
	f.reps[0].drainStart = f.wall
	front.ClientDeliverTraced([]byte("a\n"), 1)
	f.pump() // boundary check: no healthy peer, so the request stays put
	if st := f.Stats(); st.Drains != 0 || st.Handoffs != 0 {
		t.Errorf("stats = %+v", st)
	}
	f.expireDrain(f.reps[0])
	if f.conns[0].closed {
		t.Fatal("drain expiry with no peer closed the conn")
	}
	(*fakes)[0].Run(0)
	f.pump()
	wantResp(t, front, "a\n")
}

// Drain deadline expiry: an unanswered request is forced off and replays
// on a healthy replica (satellite: drain deadline expiry).
func TestDrainExpiryReplaysUnansweredRequest(t *testing.T) {
	f, _ := fleetOf(t, Config{Replicas: 2}, func(rep, inc int) string {
		if rep == 0 && inc == 0 {
			return "hold"
		}
		return "echo"
	})
	front := f.Connect(80)
	send(t, f, front, "ping\n", 7) // read by replica 0, never answered
	f.reps[0].state = repDraining
	f.reps[0].drainStart = f.wall
	f.expireDrain(f.reps[0])
	if out := f.Slice(0); out.Kind != interp.OutBlocked {
		t.Fatalf("slice = %+v", out)
	}
	wantResp(t, front, "ping\n")
	st := f.Stats()
	if st.DrainExpired != 1 || st.Handoffs != 1 {
		t.Errorf("stats = %+v", st)
	}
	if !f.touched[7] {
		t.Error("forced-off request not marked touched")
	}
}

// A conn already mid-response at the drain deadline cannot be replayed
// (response bytes already reached the client): it closes and the client
// reconnects.
func TestDrainExpiryClosesMidResponseConn(t *testing.T) {
	f, _ := fleetOf(t, Config{Replicas: 2}, func(rep, inc int) string {
		if rep == 0 && inc == 0 {
			return "partial"
		}
		return "echo"
	})
	front := f.Connect(80)
	send(t, f, front, "ping\n", 7)
	if got := string(front.ClientTake()); got != "pi" {
		t.Fatalf("partial response = %q", got)
	}
	f.reps[0].state = repDraining
	f.reps[0].drainStart = f.wall
	f.expireDrain(f.reps[0])
	if !front.ServerClosed() {
		t.Fatal("mid-response conn not closed at drain expiry")
	}
	if st := f.Stats(); st.DrainExpired != 0 || st.Handoffs != 0 || st.ConnsClosed != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// A client that resets mid-drain is dropped from the drain set: the reset
// propagates to the replica (its read sees ECONNRESET) and the conn is
// neither handed off nor counted lost (satellite: client reset mid-drain).
func TestClientResetMidDrain(t *testing.T) {
	f, fakes := fleetOf(t, Config{Replicas: 2}, func(rep, inc int) string {
		if rep == 0 && inc == 0 {
			return "hold"
		}
		return "echo"
	})
	front := f.Connect(80)
	send(t, f, front, "ping\n", 7)
	f.reps[0].state = repDraining
	f.reps[0].drainStart = f.wall
	front.ClientReset()
	if out := f.Slice(0); out.Kind != interp.OutBlocked {
		t.Fatalf("slice = %+v", out)
	}
	if !f.conns[0].closed {
		t.Error("reset conn not closed")
	}
	if st := f.Stats(); st.Handoffs != 0 || st.ConnsLost != 0 || st.ConnsClosed != 1 {
		t.Errorf("stats = %+v", st)
	}
	if len((*fakes)[0].fds) != 0 {
		t.Error("replica did not observe the reset (conn fd still open)")
	}
	f.expireDrain(f.reps[0])
	if st := f.Stats(); st.DrainExpired != 0 {
		t.Error("reset conn was still in the drain set at expiry")
	}
}

// With one replica, a death parks in-flight-capable conns until the
// supervisor's backoff is served; the wall fast-forwards through the idle
// gap and the replay lands on the next incarnation.
func TestParkedConnReplaysAfterReboot(t *testing.T) {
	f, fakes := fleetOf(t, Config{Replicas: 1}, func(rep, inc int) string {
		if inc == 0 {
			return "hold"
		}
		return "echo"
	})
	front := f.Connect(80)
	send(t, f, front, "ping\n", 7)
	rebootEarliest := f.wall + 50_000 // the first restart's backoff
	(*fakes)[0].die = true
	if out := f.Slice(0); out.Kind != interp.OutBlocked {
		t.Fatalf("slice = %+v", out)
	}
	wantResp(t, front, "ping\n")
	st := f.Stats()
	if st.Parked != 1 || st.Failovers != 1 || st.Boots != 2 {
		t.Errorf("stats = %+v", st)
	}
	if f.wall < rebootEarliest {
		t.Errorf("wall %d did not fast-forward past the backoff point %d", f.wall, rebootEarliest)
	}
}

// A replica crashing its way through the breaker window goes broken; with
// every replica broken the fleet itself traps and refuses connections.
func TestBreakerExhaustionTrapsFleet(t *testing.T) {
	sup := quickSup()
	sup.MaxRestarts = 2
	var fakes []*fakeRep
	f := New(Config{Replicas: 1, Port: 80, Sup: sup}, func(rep, inc int, seed int64) (*Backend, error) {
		fr := newFake(t, 80, "echo")
		fr.die = true
		fakes = append(fakes, fr)
		return &Backend{OS: fr.os, Exec: fr}, nil
	})
	out := f.Slice(0)
	if out.Kind != interp.OutTrapped || out.Code != 7 {
		t.Fatalf("slice = %+v", out)
	}
	if f.Connect(80) != nil {
		t.Error("broken fleet accepted a connection")
	}
	st := f.Stats()
	if st.Boots != 3 || st.Deaths != 3 || st.BreakersOpen != 1 {
		t.Errorf("stats = %+v", st)
	}
	if ph := f.ReplicaPhase(0); ph != supervisor.PhaseBreakerOpen {
		t.Errorf("phase = %v", ph)
	}
}

// The occupancy-driven drain lifecycle end to end: a death fills the
// breaker window to the drain threshold, the reboot comes back draining,
// and the occupancy decaying below the threshold returns it to rotation.
func TestDrainFollowsWindowOccupancy(t *testing.T) {
	sup := quickSup()
	sup.MaxRestarts = 2 // drains at window occupancy 1
	sup.WindowCycles = 100_000
	f, fakes := fleetOf(t, Config{Replicas: 2, Sup: sup}, echoMode)
	(*fakes)[0].die = true
	if out := f.Slice(0); out.Kind != interp.OutBlocked {
		t.Fatalf("slice = %+v", out)
	}
	// The wall reaching the backoff point reboots the replica; it comes
	// back with window occupancy 1 and the health check drains it.
	draining := false
	for i := 0; i < 1000 && !draining; i++ {
		if out := f.Slice(0); out.Kind != interp.OutBlocked {
			t.Fatalf("slice = %+v", out)
		}
		draining = f.Draining(0)
	}
	if !draining {
		t.Fatal("rebooted replica not draining at window occupancy 1")
	}
	if st := f.Stats(); st.DrainsStarted != 1 {
		t.Errorf("stats = %+v", st)
	}
	// The shared clock advancing past the window forgives the restart:
	// occupancy decays to zero and the replica rejoins the rotation.
	back := false
	for i := 0; i < 2000 && !back; i++ {
		if out := f.Slice(0); out.Kind != interp.OutBlocked {
			t.Fatalf("slice = %+v", out)
		}
		back = !f.Draining(0)
	}
	if !back {
		t.Fatal("replica never left the draining state as the window decayed")
	}
	if f.reps[0].state != repUp {
		t.Fatalf("state = %v", f.reps[0].state)
	}
}

func TestFinishFreezesOrderedSpansAndMetrics(t *testing.T) {
	f, fakes := fleetOf(t, Config{Replicas: 2}, func(rep, inc int) string {
		if rep == 0 && inc == 0 {
			return "hold"
		}
		return "echo"
	})
	front := f.Connect(80)
	send(t, f, front, "ping\n", 7)
	(*fakes)[0].die = true
	f.Slice(0)
	wantResp(t, front, "ping\n")
	if f.ReqDone(7, true) != true {
		t.Error("failed-over request not reported touched at ReqDone")
	}
	f.Finish()
	f.Finish() // idempotent
	spans := f.Spans()
	for i := 1; i < len(spans); i++ {
		if spans[i].Cycles < spans[i-1].Cycles {
			t.Fatalf("span %d out of order: %d after %d", i, spans[i].Cycles, spans[i-1].Cycles)
		}
	}
	st := f.Stats()
	counts := map[string]int{}
	for _, e := range spans {
		counts[e.Kind]++
	}
	if counts[obsv.SpanReplicaUp] != st.Boots || counts[obsv.SpanReplicaDown] != st.Deaths ||
		counts[obsv.SpanHandoff] != st.Handoffs || counts[obsv.SpanReqDone] != int(st.ReqsDone) {
		t.Errorf("span counts %v vs stats %+v", counts, st)
	}
	reg := f.Registry()
	for name, want := range map[string]int64{
		"fleet.boots": int64(st.Boots), "fleet.deaths": int64(st.Deaths),
		"fleet.handoffs": int64(st.Handoffs), "fleet.failovers": int64(st.Failovers),
		"fleet.req_done": st.ReqsDone, "fleet.replicas": int64(st.Replicas),
		"supervisor.incarnations": int64(st.Boots),
		"supervisor.state_lost":   int64(st.Deaths),
	} {
		if got := reg.Total(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// The same scripted scenario replays byte-identically: stats, spans and
// the wall clock are pure functions of the seed and the script.
func TestDeterministicReplay(t *testing.T) {
	run := func() (Stats, []obsv.SpanEvent, int64) {
		f, fakes := fleetOf(t, Config{Replicas: 2}, func(rep, inc int) string {
			if rep == 0 && inc == 0 {
				return "hold"
			}
			return "echo"
		})
		fronts := make([]*libsim.Conn, 3)
		for i := range fronts {
			fronts[i] = f.Connect(80)
		}
		for i, fr := range fronts {
			send(t, f, fr, "ping\n", int64(i+1))
		}
		(*fakes)[0].die = true
		f.Slice(0)
		for _, fr := range fronts {
			fr.ClientTake()
		}
		f.Finish()
		return f.Stats(), f.Spans(), f.Cycles()
	}
	s1, sp1, w1 := run()
	s2, sp2, w2 := run()
	if !reflect.DeepEqual(s1, s2) || w1 != w2 {
		t.Errorf("stats/wall diverged: %+v @%d vs %+v @%d", s1, w1, s2, w2)
	}
	if !reflect.DeepEqual(sp1, sp2) {
		t.Error("span logs diverged across identical runs")
	}
}

// TestSpansPinnedAcrossDrainAndFailover: a scripted run with a drain
// hand-off at a request boundary, a death that fails two connections
// over, and the dead replica's reboot assembles the same span stream,
// byte for byte, as the rebase-and-append loop Finish used to run
// (digest pinned from it). Spans returns the frozen stream itself, and
// its cap equals its length.
func TestSpansPinnedAcrossDrainAndFailover(t *testing.T) {
	f, fakes := fleetOf(t, Config{Replicas: 2}, func(rep, inc int) string {
		if rep == 1 && inc == 0 {
			return "hold"
		}
		return "echo"
	})
	a := f.Connect(80) // replica 0
	b := f.Connect(80) // replica 1
	send(t, f, a, "a1\n", 1)
	wantResp(t, a, "a1\n")
	send(t, f, b, "b1\n", 2) // held by replica 1
	f.reps[0].state = repDraining
	f.reps[0].drainStart = f.wall
	a.ClientDeliverTraced([]byte("a2\n"), 3)
	f.pump() // boundary: a's fresh request moves to replica 1
	f.reps[0].state = repUp
	(*fakes)[1].die = true
	// Replica 1 dies (both conns fail over to replica 0) and reboots once
	// its backoff has passed.
	for i := 0; i < 10_000 && f.stats.Boots < 3; i++ {
		f.Slice(0)
	}
	wantResp(t, a, "a2\n")
	wantResp(t, b, "b1\n")
	for tr := int64(1); tr <= 3; tr++ {
		f.ReqDone(tr, true)
	}
	f.Finish()
	st := f.Stats()
	if st.Drains == 0 || st.Failovers == 0 || st.Boots <= 2 {
		t.Fatalf("scenario lacks a drain, a fail-over or a reboot: %+v", st)
	}
	spans := f.Spans()
	var buf bytes.Buffer
	if err := obsv.Sequence(spans).WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())), "7f590b81b74a1b7e58d653e0bf577b04919b3882aa8ae2984d31643c5680c85a"; got != want {
		t.Errorf("%d spans export to %s, want %s", len(spans), got, want)
	}
	if cap(spans) != len(spans) {
		t.Errorf("Spans cap %d != len %d", cap(spans), len(spans))
	}
	if again := f.Spans(); &again[0] != &spans[0] {
		t.Error("Spans copied the frozen stream")
	}
	grown := append(spans, obsv.SpanEvent{Kind: "appended"})
	if &grown[0] == &spans[0] || len(f.Spans()) != len(spans) {
		t.Error("an append to Spans wrote into the fleet's stream")
	}
}

// lineGen sends numbered lines and expects each echoed back.
type lineGen struct{ n int }

func (g *lineGen) Next(i int, rng *rand.Rand) []byte {
	g.n++
	return []byte(fmt.Sprintf("c%d-%d-%s\n", i, g.n, strings.Repeat("x", rng.Intn(200))))
}

func (g *lineGen) Split(buf []byte) int { return bytes.IndexByte(buf, '\n') + 1 }

func (g *lineGen) Check(req, resp []byte) bool { return bytes.Equal(req, resp) }

// TestOpenLoopChurnBoundsQueuePools drives an open-loop crowd with
// forced connection churn through two echo replicas. Every conn ends
// closed at both ends (the client closes the front, the balancer closes
// the front's server end and the back's client end, the replica closes
// the back), so each hands its queue storage back: the front and back
// pools end up holding about as many slices as conns were live at once,
// not one per conn opened.
func TestOpenLoopChurnBoundsQueuePools(t *testing.T) {
	f, _ := fleetOf(t, Config{Replicas: 2}, echoMode)
	cfg := workload.OpenConfig{
		Total: 400, Clients: 50, RatePerMcycle: 2000,
		MaxConns: 4, ChurnEvery: 2, Patience: 1 << 40,
	}
	d := &workload.Driver{Srv: f, Port: 80, Gen: &lineGen{}, Seed: 5}
	res := d.RunOpen(cfg)
	if res.Completed != cfg.Total || res.Stalled {
		t.Fatalf("completed %d of %d: %+v", res.Completed, cfg.Total, res.Result)
	}
	f.Finish()
	opened := f.Stats().ConnsClosed
	if opened < 10*cfg.MaxConns {
		t.Fatalf("only %d conns closed: no churn to recycle", opened)
	}
	for _, p := range []struct {
		name string
		n    int
	}{{"front", f.fronts.Len()}, {"back", f.backs.Len()}} {
		if p.n == 0 || p.n > 2*cfg.MaxConns {
			t.Errorf("%s pool holds %d slices after %d conns, want 1..%d", p.name, p.n, opened, 2*cfg.MaxConns)
		}
	}
}

// The drain threshold is one restart short of the supervisor's resolved
// breaker bound (at least 1), so it follows the supervisor's default.
func TestDrainWindowFollowsSupervisor(t *testing.T) {
	for _, mr := range []int{0, 1, 3} {
		f := New(Config{Replicas: 2, Port: 80, Sup: supervisor.Config{MaxRestarts: mr}}, nil)
		want := max(supervisor.New(supervisor.Config{MaxRestarts: mr}).MaxRestarts()-1, 1)
		if f.drainWindow != want {
			t.Errorf("MaxRestarts %d: drain window %d, want %d", mr, f.drainWindow, want)
		}
	}
	if f := New(Config{Port: 80}, nil); f.drainWindow != 7 {
		t.Errorf("default drain window %d, want 7 (supervisor default 8 - 1)", f.drainWindow)
	}
}
