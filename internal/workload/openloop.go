package workload

import (
	"cmp"
	"math"
	"math/rand"
	"slices"

	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/obsv"
)

// This file is the open-loop workload tier. The closed-loop Driver.Run
// stops offering load the moment the server stops answering — exactly the
// backlog a real population builds during a stall or a microreboot is the
// thing it cannot see. RunOpen offers load on a deterministic arrival
// schedule instead: arrivals keep coming whether or not the server keeps
// up, queue while it is busy, and are abandoned (shed client-side) when
// their patience runs out. The latency-vs-offered-load curve and the
// shedding knee fall straight out.

// ArrivalShape selects the deterministic arrival process of an open-loop
// run. All shapes are seeded from the driver seed and live entirely in
// the cycle domain — repeat runs are byte-identical.
type ArrivalShape string

const (
	// ShapePoisson draws exponential inter-arrival gaps — the memoryless
	// baseline of every queueing model.
	ShapePoisson ArrivalShape = "poisson"
	// ShapeBursty clusters arrivals into back-to-back groups of eight
	// separated by long lulls, preserving the configured mean rate.
	ShapeBursty ArrivalShape = "bursty"
	// ShapeDiurnal modulates a Poisson process sinusoidally (a compressed
	// day/night cycle): the instantaneous rate swings ±80% of the mean.
	ShapeDiurnal ArrivalShape = "diurnal"
)

// OpenConfig parameterizes an open-loop run. The zero value of every
// field selects a sane default, so tests can set only what they probe.
// The json tags make OpenConfig part of a recording's manifest
// (internal/replay): a recorded open-loop run is re-drawn from these
// parameters plus the driver seed.
type OpenConfig struct {
	Shape ArrivalShape `json:"shape"` // arrival process (default poisson)

	// RatePerMcycle is the offered load: mean arrivals per million
	// virtual cycles (default 50).
	RatePerMcycle float64 `json:"rate_per_mcycle"`

	// Total is the number of arrivals to offer (default 1000). Every
	// arrival reaches exactly one terminal: completed, bad response,
	// shed, conn-closed, or a run-end cause.
	Total int `json:"total"`

	// Clients is the modeled client population (default 10000). Each
	// arrival is assigned a client; a client's request stream depends
	// only on (seed, client id), never on delivery timing.
	Clients int `json:"clients"`

	// MaxConns bounds concurrently open connections — the population is
	// huge, the socket budget is not (default 32). Arrivals for clients
	// that cannot get a connection wait, and shed when Patience expires.
	MaxConns int `json:"max_conns"`

	// PipelineDepth is the maximum number of requests in flight on one
	// connection (default 1; >1 enables pipelining). Under tracing a
	// follow-up request is delivered only after the previous one was
	// started by the server (its trace promoted) and its bytes drained,
	// because the connection carries a single pending-trace slot.
	PipelineDepth int `json:"pipeline_depth"`

	// Patience is how many virtual cycles an undelivered arrival waits
	// before the client gives up and it is shed (default 2M).
	Patience int64 `json:"patience"`

	// ChurnEvery forces connection churn: every Nth arrival closes its
	// connection after its response (0 = close only when idle).
	ChurnEvery int `json:"churn_every,omitempty"`

	// SlowEvery marks every Nth distinct client a slow reader that
	// drains at most slowBytes per round instead of everything — the
	// slow-loris shape (0 = no slow readers).
	SlowEvery int `json:"slow_every,omitempty"`

	// FragmentEvery delivers every Nth arrival's request in fragSize byte
	// fragments across consecutive rounds instead of one write (0 = no
	// fragmentation). Oversized requests exercise the same path: any
	// request longer than fragSize is split when selected.
	FragmentEvery int `json:"fragment_every,omitempty"`
}

const (
	slowBytes = 3 // bytes a slow reader drains per round
	fragSize  = 4 // bytes per fragment of a fragmented request
)

func (cfg *OpenConfig) defaults() {
	if cfg.Shape == "" {
		cfg.Shape = ShapePoisson
	}
	if cfg.RatePerMcycle <= 0 {
		cfg.RatePerMcycle = 50
	}
	if cfg.Total <= 0 {
		cfg.Total = 1000
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 10000
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 32
	}
	if cfg.PipelineDepth <= 0 {
		cfg.PipelineDepth = 1
	}
	if cfg.Patience <= 0 {
		cfg.Patience = 2_000_000
	}
}

// OpenResult extends the closed-loop Result with open-loop accounting.
// CleanLatency / RecoveryLatency measure from *arrival* (offer time), not
// delivery — queueing delay is the signal an open-loop run exists to
// expose.
type OpenResult struct {
	Result

	Offered   int   // arrivals offered (== Sent under tracing)
	Shed      int   // arrivals abandoned undelivered after Patience
	ConnLost  int   // delivered requests lost to a server-side close
	Abandoned int   // queued arrivals terminated by run end / death / stall
	PeakQueue int   // peak undelivered backlog — the knee shows here first
	Wall      int64 // virtual cycles from run start to the last terminal
}

// openScheduleSeed decorrelates the arrival schedule's rng from the
// per-client request rngs (which use Seed ^ clientID).
const openScheduleSeed = 0x6f6c6f6f70 // "oloop"

// arrivalClock generates the deterministic arrival schedule.
type arrivalClock struct {
	rng   *rand.Rand
	shape ArrivalShape
	mean  float64 // mean inter-arrival gap in cycles
	t     float64 // absolute time of the last arrival
	n     int
}

func (a *arrivalClock) next() int64 {
	var gap float64
	switch a.shape {
	case ShapeBursty:
		// Bursts of eight with jittered short gaps, then a long lull;
		// the expected gap stays exactly a.mean.
		j := 0.5 + a.rng.Float64()
		if a.n%8 == 7 {
			gap = 5 * a.mean * j
		} else {
			gap = (3.0 / 7.0) * a.mean * j
		}
	case ShapeDiurnal:
		// A compressed day: the rate swings sinusoidally over a period
		// of 200 mean gaps.
		phase := 2 * math.Pi * a.t / (200 * a.mean)
		gap = a.rng.ExpFloat64() * a.mean / (1 + 0.8*math.Sin(phase))
	default:
		gap = a.rng.ExpFloat64() * a.mean
	}
	a.n++
	a.t += gap
	return int64(a.t)
}

// openArrival is one offered request on its way to a terminal.
type openArrival struct {
	at    int64 // arrival (offer) time on the virtual clock
	idx   int   // global arrival index
	trace int64 // 0 when untraced
	req   []byte
	frag  bool // deliver in fragments
}

// stepSource is an open-loop client's rng source: math/rand's generator,
// held while the client is active (see handOnSteps for past that), plus
// the number of steps the client has taken from it. Int63 and Uint64
// each take one step, and every draw of a rand.Rand (Intn's rejection
// sampling included) reaches the source only through them, so steps is
// exactly how far the client's stream has advanced.
type stepSource struct {
	rand.Source64
	steps int64
}

func (s *stepSource) Int63() int64 {
	s.steps++
	return s.Source64.Int63()
}

func (s *stepSource) Uint64() uint64 {
	s.steps++
	return s.Source64.Uint64()
}

// handOnSteps bounds the steps of a source an idle client hands on.
// Resuming a stream costs one Seed (about 12 µs on a 2-vCPU Xeon) plus a
// replay of its steps (about 4 ns each), so up to this bound the replay
// costs less than the Seed every resume pays anyway. A client that drew
// more keeps its source while idle: a returning client's resume never
// grows with its request count.
const handOnSteps = 1024

// resume gives s a generator positioned where a fresh
// rand.NewSource(seed) is after s.steps steps: a handed-on one from
// spare when there is one, else a new one. It returns the shortened
// spare list.
func (s *stepSource) resume(seed int64, spare []rand.Source64) []rand.Source64 {
	if n := len(spare); n > 0 {
		s.Source64, spare = spare[n-1], spare[:n-1]
		s.Source64.Seed(seed)
	} else {
		s.Source64 = rand.NewSource(seed).(rand.Source64)
	}
	for i := int64(0); i < s.steps; i++ {
		s.Source64.Uint64()
	}
	return spare
}

// openClient is the per-client connection state. Request content comes
// from the client's own rng; connections come and go underneath it.
type openClient struct {
	id       int
	order    int        // first-touch index: the order every sweep visits clients in
	rng      rand.Rand  // over src: the stream of rand.NewSource(Seed ^ id)
	src      stepSource // its generator comes and goes; rng keeps Read's buffered bytes
	conn     *libsim.Conn
	queue    []*openArrival // offered, not yet fully delivered (FIFO)
	inflight []*openArrival // delivered, awaiting response (FIFO)
	resp     []byte         // drained, not yet matched response bytes
	scanned  int            // resp[:scanned] holds no complete response
	fragLeft []byte         // undelivered tail of queue[0]
	last     int64          // trace of the most recently delivered request
	slow     bool           // drains slowBytes per round
	churn    bool           // close the connection after the next drain
	active   bool           // in the round's active set
}

// idle reports whether c has nothing queued, nothing in flight and no
// connection: no sweep of a round can change it until its next arrival.
func (c *openClient) idle() bool {
	return len(c.queue) == 0 && len(c.inflight) == 0 && c.conn == nil
}

// activate adds c to the active set, which is kept in first-touch order
// so a round visits clients exactly as a sweep over every client would.
func activate(active []*openClient, c *openClient) []*openClient {
	c.active = true
	if n := len(active); n == 0 || active[n-1].order < c.order {
		return append(active, c)
	}
	i, _ := slices.BinarySearchFunc(active, c.order, func(a *openClient, order int) int {
		return cmp.Compare(a.order, order)
	})
	return slices.Insert(active, i, c)
}

// RunOpen drives the server open-loop. It shares every seam with Run —
// OS/M or a Server such as the fleet balancer — plus the trace
// sink: every arrival consumes a trace ID in arrival order, so shed
// arrivals reach a req-lost terminal without a req-start (legal
// causality: the server never saw them).
//
// A round costs O(active clients + bytes moved), not O(population): the
// sweeps walk only clients with a queued arrival, a request in flight or
// an open connection, in first-touch order. An offer activates its
// client; a client leaves the set at the end of the round that left it
// idle, and hands its empty response buffer and its rng's generator on
// to the next client that needs one. A client that takes a generator
// re-seeds it and replays the steps it had drawn, so its request stream
// is the one a fresh rand.NewSource(Seed ^ id) gives.
func (d *Driver) RunOpen(cfg OpenConfig) OpenResult {
	cfg.defaults()
	if d.StepBudget <= 0 {
		d.StepBudget = 2_000_000
	}

	var res OpenResult
	if d.Sink != nil {
		res.CleanLatency = obsv.NewHist()
		res.RecoveryLatency = obsv.NewHist()
	}

	startCycles, startSteps := d.cycles(), d.steps()

	// Let the server finish startup and block on its event loop.
	if ok, _ := d.slice(&res.Result); !ok {
		d.finish(&res.Result, startCycles, startSteps)
		return res
	}

	clock := &arrivalClock{
		rng:   rand.New(rand.NewSource(d.Seed ^ openScheduleSeed)),
		shape: cfg.Shape,
		mean:  1e6 / cfg.RatePerMcycle,
	}

	var (
		now       int64 // virtual wall clock, 0 = run start
		nextAt    = clock.next()
		offered   int
		terminals int
		queued    int // undelivered arrivals across all clients
		conns     int
		nextTrace = d.TraceBase
		byID      = map[int]*openClient{} // every client ever touched
		active    []*openClient           // the non-idle ones, first-touch order
		spareResp [][]byte                // empty response buffers of idle clients
		spareSrc  []rand.Source64         // rng sources handed on by idle clients
	)

	lose := func(a *openArrival, cause string) {
		terminals++
		if d.Sink != nil {
			d.Sink.ReqLost(a.trace, cause)
		}
	}
	closeConn := func(c *openClient) {
		if c.conn != nil {
			c.conn.ClientClose()
			c.conn = nil
			conns--
		}
	}

	var stall stallDetector
	for terminals < cfg.Total {
		progressed := false
		roundStart := d.cycles()

		// Offer every arrival that is due.
		for offered < cfg.Total && nextAt <= now {
			id := clock.rng.Intn(cfg.Clients)
			c := byID[id]
			if c == nil {
				c = &openClient{id: id, order: len(byID)}
				c.rng = *rand.New(&c.src)
				if cfg.SlowEvery > 0 && (c.order+1)%cfg.SlowEvery == 0 {
					c.slow = true
				}
				byID[id] = c
			}
			if !c.active {
				active = activate(active, c)
			}
			if c.src.Source64 == nil {
				spareSrc = c.src.resume(d.Seed^int64(id), spareSrc)
			}
			a := &openArrival{at: nextAt, idx: offered}
			a.req = d.Gen.Next(id, &c.rng)
			if cfg.FragmentEvery > 0 && (offered+1)%cfg.FragmentEvery == 0 && len(a.req) > fragSize {
				a.frag = true
			}
			if d.Sink != nil {
				nextTrace++
				a.trace = nextTrace
				res.Sent++
			}
			c.queue = append(c.queue, a)
			queued++
			offered++
			res.Offered++
			if queued > res.PeakQueue {
				res.PeakQueue = queued
			}
			nextAt = clock.next()
			progressed = true
		}

		// Deliver what the connection rules allow, in first-touch client
		// order (deterministic).
		for _, c := range active {
			if len(c.queue) == 0 && len(c.inflight) == 0 {
				continue
			}
			if c.conn != nil && c.conn.ServerClosed() {
				// The server closed underneath us (shed, crash, reboot):
				// everything on the wire is gone.
				for _, a := range c.inflight {
					res.ConnLost++
					lose(a, "conn-closed")
				}
				c.inflight = c.inflight[:0]
				c.resp, c.scanned = c.resp[:0], 0
				if len(c.fragLeft) > 0 {
					// queue[0] was half-delivered; its prefix died with
					// the connection.
					res.ConnLost++
					lose(c.queue[0], "conn-closed")
					c.queue = c.queue[1:]
					queued--
					c.fragLeft = nil
				}
				// Close our end too, as a client does after EOF: the conn
				// is then closed at both ends and its storage recycled.
				closeConn(c)
				progressed = true
			}
			if c.conn == nil {
				if len(c.queue) == 0 || conns >= cfg.MaxConns {
					continue
				}
				c.conn = d.connect()
				if c.conn == nil {
					continue // listener down or backlog full; retry
				}
				conns++
				c.last = 0
			}
			// A half-delivered request owns the connection until its
			// last fragment lands.
			if len(c.fragLeft) > 0 {
				n := min(fragSize, len(c.fragLeft))
				c.conn.ClientDeliver(c.fragLeft[:n])
				c.fragLeft = c.fragLeft[n:]
				progressed = true
				if len(c.fragLeft) > 0 {
					continue
				}
				a := c.queue[0]
				c.queue = c.queue[1:]
				queued--
				c.inflight = append(c.inflight, a)
			}
			for len(c.queue) > 0 && len(c.inflight) < cfg.PipelineDepth && len(c.fragLeft) == 0 {
				if d.Sink != nil && len(c.inflight) > 0 &&
					(c.conn.Trace() != c.last || c.conn.InboundLen() != 0) {
					// Pipelining under tracing: wait until the previous
					// request was started and its bytes consumed — the
					// conn's pending-trace slot holds one ID.
					break
				}
				a := c.queue[0]
				body := a.req
				if a.frag {
					body = a.req[:fragSize]
					c.fragLeft = a.req[fragSize:]
				}
				if d.Sink != nil {
					c.conn.ClientDeliverTraced(body, a.trace)
				} else {
					c.conn.ClientDeliver(body)
				}
				c.last = a.trace
				progressed = true
				if len(c.fragLeft) > 0 {
					break // rest of the request goes out next rounds
				}
				c.queue = c.queue[1:]
				queued--
				c.inflight = append(c.inflight, a)
			}
		}

		ok, busy := d.slice(&res.Result)
		now += d.cycles() - roundStart
		if !ok {
			break
		}

		// Drain and match responses; apply churn and idle-close.
		for _, c := range active {
			if c.conn == nil {
				continue
			}
			// Responses accumulate in the client's buffer and matched ones
			// are shifted out in place, so neither it nor the front conn's
			// queue is reallocated per response. Idle clients hand their
			// empty buffers on, so storage is held per active client.
			if c.resp == nil && len(spareResp) > 0 {
				c.resp, spareResp = spareResp[len(spareResp)-1], spareResp[:len(spareResp)-1]
			}
			had := len(c.resp)
			if c.slow {
				c.resp = append(c.resp, c.conn.ClientTakeN(slowBytes)...)
			} else {
				c.resp = c.conn.ClientTakeAppend(c.resp)
			}
			if len(c.resp) > had {
				progressed = true
			}
			// Split is a pure function of the buffer: rescan only once it
			// has grown past the last prefix that held no response.
			for len(c.inflight) > 0 && len(c.resp) > c.scanned {
				n := d.Gen.Split(c.resp)
				if n == 0 {
					c.scanned = len(c.resp)
					break
				}
				a := c.inflight[0]
				c.inflight = c.inflight[1:]
				okResp := d.Gen.Check(a.req, c.resp[:n])
				c.resp, c.scanned = c.resp[:copy(c.resp, c.resp[n:])], 0
				if okResp {
					res.Completed++
				} else {
					res.BadResp++
				}
				terminals++
				if d.Sink != nil {
					touched := d.Sink.ReqDone(a.trace, okResp)
					lat := max(now-a.at, 0)
					if touched {
						res.RecoveryLatency.Observe(lat)
					} else {
						res.CleanLatency.Observe(lat)
					}
				}
				if cfg.ChurnEvery > 0 && (a.idx+1)%cfg.ChurnEvery == 0 {
					c.churn = true
				}
				progressed = true
			}
			if len(c.inflight) == 0 && len(c.fragLeft) == 0 &&
				(c.churn || len(c.queue) == 0) {
				// Keep-alive ends here: forced churn, or nothing left for
				// this client — free the socket for the population.
				closeConn(c)
				c.churn = false
			}
		}

		// Patience: the oldest undelivered arrivals abandon the queue.
		// Clients left idle by this round leave the active set.
		kept := active[:0]
		for _, c := range active {
			for len(c.queue) > 0 && len(c.fragLeft) == 0 {
				a := c.queue[0]
				if now-a.at <= cfg.Patience {
					break // FIFO: everything behind is younger
				}
				c.queue = c.queue[1:]
				queued--
				res.Shed++
				lose(a, "shed")
				progressed = true
			}
			if c.idle() {
				c.active = false
				if c.resp != nil && len(c.resp) == 0 {
					spareResp, c.resp = append(spareResp, c.resp), nil
				}
				if c.src.Source64 != nil && c.src.steps <= handOnSteps {
					spareSrc, c.src.Source64 = append(spareSrc, c.src.Source64), nil
				}
			} else {
				kept = append(kept, c)
			}
		}
		active = kept

		if progressed {
			stall = stallDetector{}
			continue
		}
		if offered < cfg.Total && nextAt > now {
			// Quiet period: nothing in flight can move and the next
			// arrival is in the future — real time passes without server
			// work, so jump the virtual clock. Never a stall.
			now = nextAt
			stall = stallDetector{}
			continue
		}
		if stall.idle(d.cycles()-roundStart, busy) {
			res.Stalled = true
			break
		}
	}

	// Terminal accounting for everything still in the system.
	cause := res.endCause()
	for _, c := range active {
		for _, a := range c.inflight {
			res.Outstanding++
			lose(a, cause)
		}
		c.inflight = nil
		for _, a := range c.queue {
			res.Abandoned++
			queued--
			lose(a, cause)
		}
		c.queue = nil
		c.fragLeft = nil
	}
	res.Wall = now
	d.finish(&res.Result, startCycles, startSteps)
	return res
}
