package bench

import (
	"sort"
	"testing"

	"github.com/firestarter-go/firestarter/internal/apps"
	"github.com/firestarter-go/firestarter/internal/boot"
)

// sortedCopy returns the samples in ascending order.
func sortedCopy(samples []int64) []int64 {
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// TestTxWindowPercentilesPinned pins every percentile column of the
// TxWindows table against an independent recomputation from the raw
// window samples (before this test they were only sanity-checked for
// ordering, max >= p50), and requires the whole table to reproduce
// byte-identically on a re-run. The table is part of the default suite,
// so its rank rule (sorted[n/2], sorted[n*9/10], sorted[n-1]) is part of
// the byte-for-byte output contract and must match exactly — not merely
// within a histogram error bound.
func TestTxWindowPercentilesPinned(t *testing.T) {
	res, err := testRunner().TxWindows()
	if err != nil {
		t.Fatal(err)
	}
	again, err := testRunner().TxWindows()
	if err != nil {
		t.Fatal(err)
	}
	if res.Render() != again.Render() {
		t.Fatalf("TxWindows render differs across identical runs:\n%s\nvs\n%s",
			res.Render(), again.Render())
	}

	pin := func(server, col string, got, want int64) {
		if got != want {
			t.Errorf("%s %s = %d, want %d", server, col, got, want)
		}
	}
	r := testRunner().withDefaults()
	for _, row := range res.Rows {
		app := apps.ByName(row.Server)
		if app == nil {
			t.Fatalf("unknown server %q in window rows", row.Server)
		}
		inst, _, err := r.measure(app, boot.Options{})
		if err != nil {
			t.Fatalf("%s: %v", row.Server, err)
		}
		st := inst.RT.Stats()
		if len(st.TxSteps) != row.Transactions {
			t.Errorf("%s: re-measured %d transactions, row has %d",
				row.Server, len(st.TxSteps), row.Transactions)
			continue
		}
		steps := sortedCopy(st.TxSteps)
		n := len(steps)
		pin(row.Server, "steps p50", row.StepsP50, steps[n/2])
		pin(row.Server, "steps p90", row.StepsP90, steps[n*9/10])
		pin(row.Server, "steps max", row.StepsMax, steps[n-1])
		lines := sortedCopy(st.TxWriteLines)
		m := len(lines)
		pin(row.Server, "wset p50", row.WriteLinesP50, lines[m/2])
		pin(row.Server, "wset max", row.WriteLinesMax, lines[m-1])
	}
}
