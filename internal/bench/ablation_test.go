package bench

import "testing"

func TestAblationDivert(t *testing.T) {
	res, err := testRunner().AblationDivert()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	episode, sticky := res.Rows[0], res.Rows[1]
	// Sticky diversion crashes at most once per gate; per-episode crashes
	// on every poisoned request.
	if sticky.Crashes >= episode.Crashes {
		t.Errorf("sticky crashes %d >= per-episode %d", sticky.Crashes, episode.Crashes)
	}
	// Both must keep the server alive and serving.
	for _, row := range res.Rows {
		if row.Completed == 0 {
			t.Errorf("%s: nothing served", row.Policy)
		}
		if row.Injections == 0 {
			t.Errorf("%s: no injections", row.Policy)
		}
	}
	t.Logf("\n%s", res.Render())
}

func TestAblationRetry(t *testing.T) {
	res, err := testRunner().AblationRetry()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// More retries → more wasted re-executions per injection.
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if first.Injections == 0 || last.Injections == 0 {
		t.Fatalf("no injections: %+v", res.Rows)
	}
	perInjFirst := float64(first.RetryExecs) / float64(first.Injections)
	perInjLast := float64(last.RetryExecs) / float64(last.Injections)
	if perInjLast <= perInjFirst {
		t.Errorf("retry executions per injection did not grow: %.1f → %.1f", perInjFirst, perInjLast)
	}
	t.Logf("\n%s", res.Render())
}

func TestAblationGeometry(t *testing.T) {
	res, err := testRunner().AblationGeometry()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// A bigger transactional buffer must never raise the STM share.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].STMLatchedTx > res.Rows[i-1].STMLatchedTx {
			t.Errorf("STM transactions grew with cache size: %d KiB=%d, %d KiB=%d",
				res.Rows[i-1].CacheKiB, res.Rows[i-1].STMLatchedTx,
				res.Rows[i].CacheKiB, res.Rows[i].STMLatchedTx)
		}
	}
	// The smallest cache must be the most abort/STM-prone configuration.
	if res.Rows[0].STMLatchedTx <= res.Rows[len(res.Rows)-1].STMLatchedTx {
		t.Errorf("8 KiB STM txs (%d) not above 128 KiB (%d)",
			res.Rows[0].STMLatchedTx, res.Rows[len(res.Rows)-1].STMLatchedTx)
	}
	t.Logf("\n%s", res.Render())
}

func TestAblationRestartBaseline(t *testing.T) {
	res, err := testRunner().AblationRestartBaseline()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	restart, fir, full := res.Rows[0], res.Rows[1], res.Rows[2]
	// FIRestarter must never restart or lose state; the baseline must
	// restart at least once (the fault is persistent and recurring).
	if fir.Restarts != 0 || fir.StateLost != 0 {
		t.Errorf("FIRestarter restarted: %+v", fir)
	}
	if restart.Restarts == 0 {
		t.Errorf("vanilla baseline never crashed: %+v", restart)
	}
	// And FIRestarter loses fewer requests.
	if fir.Failed >= restart.Failed+restart.Restarts {
		t.Errorf("FIRestarter failed %d vs baseline %d(+%d lost)",
			fir.Failed, restart.Failed, restart.Restarts)
	}
	// The full ladder serves the whole workload: the in-process rungs
	// absorb the persistent fault, so the supervisor never fires, and no
	// request is silently dropped.
	if full.Completed+full.Failed != testRunner().withDefaults().Requests {
		t.Errorf("ladder row drops requests: %+v", full)
	}
	if full.Failed > restart.Failed {
		t.Errorf("full ladder failed %d vs vanilla restart %d", full.Failed, restart.Failed)
	}
	if full.StateLost > 0 && full.Restarts == 0 {
		t.Errorf("state lost without an attributed reboot: %+v", full)
	}
	t.Logf("\n%s", res.Render())
}

func TestTxWindows(t *testing.T) {
	res, err := testWindows()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Transactions == 0 {
			t.Errorf("%s: no transactions profiled", row.Server)
		}
		// "Small and frequent": several windows per request, and the
		// median window must be far below the step budget of a request.
		if row.PerRequest < 1 {
			t.Errorf("%s: %.1f transactions/request, want >= 1", row.Server, row.PerRequest)
		}
		if row.StepsP50 > 5000 {
			t.Errorf("%s: median window %d steps — not small", row.Server, row.StepsP50)
		}
		if row.StepsMax < row.StepsP50 || row.WriteLinesMax < row.WriteLinesP50 {
			t.Errorf("%s: inconsistent percentiles %+v", row.Server, row)
		}
	}
	t.Logf("\n%s", res.Render())
}
