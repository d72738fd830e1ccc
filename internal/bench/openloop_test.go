package bench

import "testing"

// TestOpenLoopShowsKneeAtFullOffer checks the sweep's shape: the knee
// must be visible (the top rungs offer multiples of the calibrated
// service rate, so shedding must appear), and the overload rungs must
// still offer their full schedule.
func TestOpenLoopShowsKneeAtFullOffer(t *testing.T) {
	serial := Runner{Requests: 60, Seed: 1}
	a, err := serial.OpenLoop()
	if err != nil {
		t.Fatal(err)
	}
	if a.ServiceRate <= 0 {
		t.Fatalf("service rate = %v", a.ServiceRate)
	}
	if a.Knee == 0 {
		t.Errorf("no shedding knee in a sweep reaching %.2fx the service rate:\n%s",
			openLoopMults[len(openLoopMults)-1], a.Render())
	}
	for _, row := range a.Rows {
		if row.Offered != serial.Requests {
			t.Errorf("%.2fx: offered %d, want %d — open loop must not throttle", row.Mult, row.Offered, serial.Requests)
		}
		if row.Done+row.Shed+row.Lost != row.Offered {
			t.Errorf("%.2fx: done %d + shed %d + lost %d != offered %d",
				row.Mult, row.Done, row.Shed, row.Lost, row.Offered)
		}
	}
}
