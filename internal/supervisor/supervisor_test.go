package supervisor

import (
	"errors"
	"reflect"
	"testing"

	"github.com/firestarter-go/firestarter/internal/obsv"
)

func TestBackoffIsExponentialAndCapped(t *testing.T) {
	s := New(Config{})
	want := []int64{50_000, 100_000, 200_000, 400_000, 800_000, 1_600_000, 3_200_000, 5_000_000, 5_000_000}
	for i, w := range want {
		if got := s.backoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestSuperviseRestartsUntilDone(t *testing.T) {
	s := New(Config{Seed: 10})
	var seeds []int64
	err := s.Supervise(func(inc int, seed int64) (RunResult, error) {
		seeds = append(seeds, seed)
		if inc < 3 {
			return RunResult{Died: true, Cycles: 50, ConnsLost: 2}, nil
		}
		return RunResult{Done: true, Cycles: 50}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seeds, []int64{10, 11, 12, 13}) {
		t.Errorf("seeds = %v", seeds)
	}
	st := s.Stats()
	if st.Incarnations != 4 || st.Restarts != 3 || st.StateLost != 3 || st.ConnsLost != 6 {
		t.Errorf("stats = %+v", st)
	}
	if st.BreakerOpen {
		t.Error("breaker opened on a completing campaign")
	}
	// Campaign clock: 4 incarnations x 50 cycles + backoffs 50k+100k+200k.
	if st.BackoffCycles != 350_000 || st.ClockCycles != 200+350_000 {
		t.Errorf("backoff = %d, clock = %d", st.BackoffCycles, st.ClockCycles)
	}
	if len(st.Reboots) != 3 {
		t.Fatalf("reboots = %+v", st.Reboots)
	}
	// The reboot timeline is deterministic in the cycle domain.
	wantAt := []int64{50, 50_100, 150_150} // death stamps on the campaign clock
	for i, rb := range st.Reboots {
		if rb.Incarnation != i || rb.AtCycles != wantAt[i] {
			t.Errorf("reboot %d = %+v, want at %d", i, rb, wantAt[i])
		}
	}
	// Spans mirror the reboots one-to-one.
	var reboots int
	for _, e := range s.Spans() {
		if e.Kind == obsv.SpanReboot {
			reboots++
		}
	}
	if reboots != st.Restarts {
		t.Errorf("%d reboot spans for %d restarts", reboots, st.Restarts)
	}
}

func TestBreakerOpensOnCrashLoop(t *testing.T) {
	s := New(Config{MaxRestarts: 3, WindowCycles: 1 << 40})
	err := s.Supervise(func(inc int, seed int64) (RunResult, error) {
		return RunResult{Died: true, Cycles: 10}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if !st.BreakerOpen {
		t.Fatal("breaker never opened")
	}
	// 3 restarts, then the 4th death trips the breaker.
	if st.Restarts != 3 || st.Incarnations != 4 || st.StateLost != 4 {
		t.Errorf("stats = %+v", st)
	}
	var opens int
	for _, e := range s.Spans() {
		if e.Kind == obsv.SpanBreakerOpen {
			opens++
		}
	}
	if opens != 1 {
		t.Errorf("%d breaker-open spans", opens)
	}
}

func TestBreakerWindowForgivesSpacedCrashes(t *testing.T) {
	// Deaths spaced wider than the window never accumulate: the campaign
	// keeps restarting (and here eventually completes).
	s := New(Config{MaxRestarts: 2, WindowCycles: 100})
	err := s.Supervise(func(inc int, seed int64) (RunResult, error) {
		if inc < 10 {
			return RunResult{Died: true, Cycles: 500}, nil
		}
		return RunResult{Done: true}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.BreakerOpen {
		t.Fatalf("breaker opened despite spaced crashes: %+v", st)
	}
	if st.Restarts != 10 {
		t.Errorf("restarts = %d", st.Restarts)
	}
}

func TestSuperviseTreatsHangAsDeath(t *testing.T) {
	s := New(Config{})
	calls := 0
	err := s.Supervise(func(inc int, seed int64) (RunResult, error) {
		calls++
		if calls == 1 {
			return RunResult{Cycles: 10}, nil // neither done nor died: hang
		}
		return RunResult{Done: true}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Restarts != 1 || st.StateLost != 1 {
		t.Errorf("stats = %+v", s.Stats())
	}
}

func TestSupervisePropagatesRunError(t *testing.T) {
	s := New(Config{})
	boom := errors.New("boot failed")
	if err := s.Supervise(func(int, int64) (RunResult, error) {
		return RunResult{}, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestPublishMetricsReconcilesWithStats(t *testing.T) {
	s := New(Config{MaxRestarts: 2, WindowCycles: 1 << 40})
	if err := s.Supervise(func(inc int, seed int64) (RunResult, error) {
		return RunResult{Died: true, Cycles: 7, ConnsLost: 1}, nil
	}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	reg := obsv.NewRegistry()
	s.PublishMetrics(reg)
	checks := map[string]int64{
		"supervisor.incarnations":         int64(st.Incarnations),
		"supervisor.restarts":             int64(st.Restarts),
		"supervisor.state_lost":           int64(st.StateLost),
		"supervisor.conns_lost":           int64(st.ConnsLost),
		"supervisor.backoff_cycles_total": st.BackoffCycles,
		"supervisor.breaker_open":         1,
		// Health-surface gauges reconcile with the Stats snapshot.
		"supervisor.backoff_cycles": st.LastBackoff,
		"supervisor.breaker_window": int64(st.Window),
	}
	for name, want := range checks {
		if got := reg.Total(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

func TestPhaseAndHealthSurface(t *testing.T) {
	s := New(Config{MaxRestarts: 2, WindowCycles: 1 << 40})
	if s.Phase() != PhaseIdle {
		t.Fatalf("phase = %v before first incarnation", s.Phase())
	}
	inc, seed := s.BeginIncarnation()
	if inc != 0 || seed != 0 || s.Phase() != PhaseRunning {
		t.Fatalf("BeginIncarnation = (%d, %d), phase %v", inc, seed, s.Phase())
	}
	s.Advance(50)
	if s.Clock() != 50 {
		t.Fatalf("clock = %d", s.Clock())
	}
	backoff, open := s.RecordDeath(inc, 3)
	if open || backoff != 50_000 {
		t.Fatalf("RecordDeath = (%d, %v)", backoff, open)
	}
	if s.Phase() != PhaseBackoff || s.CurrentBackoff() != 50_000 || s.WindowOccupancy() != 1 {
		t.Fatalf("phase %v backoff %d window %d", s.Phase(), s.CurrentBackoff(), s.WindowOccupancy())
	}
	if s.Clock() != 50_050 {
		t.Fatalf("clock = %d after backoff charge", s.Clock())
	}

	inc, _ = s.BeginIncarnation()
	if s.Phase() != PhaseRunning {
		t.Fatalf("phase = %v after restart", s.Phase())
	}
	s.Advance(10)
	if backoff, open = s.RecordDeath(inc, 0); open || backoff != 100_000 {
		t.Fatalf("RecordDeath = (%d, %v)", backoff, open)
	}
	if s.WindowOccupancy() != 2 {
		t.Fatalf("window = %d", s.WindowOccupancy())
	}

	// Third death inside the window trips the breaker (MaxRestarts 2).
	inc, _ = s.BeginIncarnation()
	s.Advance(10)
	if _, open = s.RecordDeath(inc, 0); !open {
		t.Fatal("breaker did not open")
	}
	if s.Phase() != PhaseBreakerOpen || !s.BreakerOpen() {
		t.Fatalf("phase %v, BreakerOpen %v", s.Phase(), s.BreakerOpen())
	}
	st := s.Stats()
	if st.LastBackoff != 100_000 || st.Window != 2 {
		t.Fatalf("stats health fields = %+v", st)
	}
}

func TestWindowOccupancyDecaysWithClock(t *testing.T) {
	s := New(Config{MaxRestarts: 8, WindowCycles: 100_000})
	inc, _ := s.BeginIncarnation()
	s.Advance(10)
	s.RecordDeath(inc, 0)
	if s.WindowOccupancy() != 1 {
		t.Fatalf("window = %d right after death", s.WindowOccupancy())
	}
	// The clock moving past the window forgives the restart without any
	// further death: occupancy is a pure function of clock and stamps.
	s.Advance(200_000)
	if s.WindowOccupancy() != 0 {
		t.Fatalf("window = %d after decay", s.WindowOccupancy())
	}
}

func TestSuperviseEndsInDonePhase(t *testing.T) {
	s := New(Config{})
	if err := s.Supervise(func(int, int64) (RunResult, error) {
		return RunResult{Done: true, Cycles: 1}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if s.Phase() != PhaseDone {
		t.Fatalf("phase = %v", s.Phase())
	}
}

func TestStatsSnapshotDoesNotAliasReboots(t *testing.T) {
	s := New(Config{})
	s.stats.Reboots = []Reboot{{Incarnation: 0, AtCycles: 5}}
	snap := s.Stats()
	s.stats.Reboots[0].AtCycles = 99
	if snap.Reboots[0].AtCycles != 5 {
		t.Error("snapshot aliases the live reboot slice")
	}
}
