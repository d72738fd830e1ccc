package workload

// Schedule kinds.
const (
	ClosedLoop = "closed" // Driver.Run
	OpenLoop   = "open"   // Driver.RunOpen
)

// Schedule is the serializable description of the workload a run
// consumes — enough, together with the program and fault plan, to
// re-drive the identical run (the cycle domain is deterministic, so
// recording the schedule's parameters records the schedule). A campaign
// builds its driver from the schedule (Driver) and the flight recorder
// stores that same value, so a manifest's schedule is what the run was
// driven from, not a copy written afterwards. A
// closed-loop schedule is its driver parameters; an open-loop schedule
// is the OpenConfig plus the seed its arrival clock was drawn from — the
// pre-drawn arrival times are a pure function of both.
type Schedule struct {
	// Kind is ClosedLoop or OpenLoop.
	Kind string `json:"kind"`

	// Proto selects the request generator via ForProtocol.
	Proto string `json:"proto"`

	// Seed is the driver seed (per-client rngs are Seed^clientID; the
	// open-loop arrival clock is Seed^openScheduleSeed).
	Seed int64 `json:"seed"`

	// Requests is the closed-loop request total (Driver.Run argument).
	Requests int `json:"requests,omitempty"`

	// Concurrency mirrors Driver.Concurrency; zero means the driver
	// default, recorded as zero so a replayed driver resolves the same
	// default.
	Concurrency int `json:"concurrency,omitempty"`

	// TraceBase is the driver's trace-ID base for this run (supervised
	// campaigns thread it across incarnations).
	TraceBase int64 `json:"trace_base,omitempty"`

	// Open holds the open-loop parameters when Kind is OpenLoop.
	Open *OpenConfig `json:"open,omitempty"`
}

// Driver builds a closed-loop driver configured exactly as the schedule
// records (OS, machine/server wiring is the caller's). Open-loop
// schedules configure the same driver; the caller passes Open to RunOpen.
func (sc Schedule) Driver() Driver {
	return Driver{
		Gen:         ForProtocol(sc.Proto),
		Concurrency: sc.Concurrency,
		Seed:        sc.Seed,
		TraceBase:   sc.TraceBase,
	}
}
