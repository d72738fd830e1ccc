package bench

import (
	"bytes"
	"strings"
	"testing"

	"github.com/firestarter-go/firestarter/internal/obsv"
)

// domainsRunner keeps the heap-domain campaigns small enough for unit
// tests: one fault per fail-silent kind per pool app. (Seed 1 avoids the
// seed-3 plant that crash-loops an incarnation through its whole breaker
// window — legal, but it burns hundreds of millions of simulated steps.)
func domainsRunner() Runner {
	return Runner{Requests: 24, Concurrency: 2, Seed: 1, FaultsPerServer: 1}
}

// ablationRunner is big enough that both planted case-study faults fire
// (the redis GET-reply copy needs a workload long enough to hit existing
// keys).
func ablationRunner() Runner {
	return Runner{Requests: 60, Concurrency: 4, Seed: 1, FaultsPerServer: 1}
}

// TestAblationDomainsShowsDiscardWin pins the experiment's reason to
// exist: under the same planted fault, the rewind strategy must recover
// through O(1) arena discards with (near-)zero per-store undo logging,
// while the pure-STM strategy pays an undo entry per store.
func TestAblationDomainsShowsDiscardWin(t *testing.T) {
	res, err := ablationRunner().AblationDomains()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	byStrategy := map[string][]DomainsRow{}
	for _, row := range res.Rows {
		byStrategy[row.Strategy] = append(byStrategy[row.Strategy], row)
	}
	for app := 0; app < 2; app++ {
		stm := byStrategy["stm (per-store undo)"][app]
		rew := byStrategy["rewind (O(1) discard)"][app]
		if stm.Crashes == 0 || rew.Crashes == 0 {
			t.Fatalf("%s: planted fault never fired (stm %d, rewind %d crashes)",
				stm.App, stm.Crashes, rew.Crashes)
		}
		if stm.UndoStores == 0 {
			t.Errorf("%s: STM strategy logged no undo stores", stm.App)
		}
		if rew.Discards != rew.Crashes {
			t.Errorf("%s: rewind crashes %d != discards %d", rew.App, rew.Crashes, rew.Discards)
		}
		if rew.UndoStores >= stm.UndoStores {
			t.Errorf("%s: rewind undo stores %d not below STM's %d",
				rew.App, rew.UndoStores, stm.UndoStores)
		}
		if rew.DomainTxs == 0 || stm.DomainTxs != 0 {
			t.Errorf("%s: domain txs stm=%d rewind=%d, want 0/>0",
				stm.App, stm.DomainTxs, rew.DomainTxs)
		}
	}
	// The capacity sub-table must show the cliff moving: at the smallest
	// geometry, enabling domains shifts latched gates from STM to the
	// rewind strategy and cuts the undo-store volume.
	if len(res.Capacity) != 6 {
		t.Fatalf("capacity rows = %d, want 6", len(res.Capacity))
	}
	off, on := res.Capacity[0], res.Capacity[1]
	if off.Domains || !on.Domains || off.CacheKiB != on.CacheKiB {
		t.Fatalf("capacity row order wrong: %+v / %+v", off, on)
	}
	if off.STMTxs == 0 {
		t.Errorf("smallest geometry latched no STM transactions: %+v", off)
	}
	if on.DomainTxs == 0 {
		t.Errorf("domains on but the capacity cliff latched none: %+v", on)
	}
	if on.UndoStores >= off.UndoStores {
		t.Errorf("domains did not cut undo stores: %d vs %d", on.UndoStores, off.UndoStores)
	}
	t.Logf("\n%s", res.Render())
}

// TestContainmentZeroLeaks runs the fail-silent matrix and checks the
// table's headline claims: every campaign's writes audited with zero
// cross-request leaks, zero silent deaths, and a merged span log that
// satisfies the trace schema and causality (Containment itself fails on
// any reconcile drift or leak, so reaching assertions means all three
// surfaces already agreed).
func TestContainmentZeroLeaks(t *testing.T) {
	res, err := domainsRunner().Containment()
	if err != nil {
		t.Fatal(err)
	}
	if res.Campaigns == 0 {
		t.Fatal("no campaigns planned")
	}
	if res.Writes == 0 {
		t.Fatal("no connection writes audited")
	}
	retires := int64(0)
	for _, row := range res.Rows {
		if row.Leaks != 0 {
			t.Errorf("%s/%s: %d leaks", row.App, row.Kind, row.Leaks)
		}
		if row.Silent != 0 {
			t.Errorf("%s/%s: %d silent deaths", row.App, row.Kind, row.Silent)
		}
		retires += row.Retires
	}
	if retires == 0 {
		t.Error("no arenas retired across the whole matrix")
	}
	for i, e := range res.Spans {
		if e.Kind == "" {
			t.Fatalf("span %d has no kind", i)
		}
		if i > 0 && e.Cycles < res.Spans[i-1].Cycles {
			t.Fatalf("span %d cycles %d < previous %d", i, e.Cycles, res.Spans[i-1].Cycles)
		}
	}
	if errs := obsv.CheckCausality(res.Spans); len(errs) > 0 {
		if len(errs) > 10 {
			errs = errs[:10]
		}
		t.Errorf("merged containment spans violate trace causality:\n  %s", strings.Join(errs, "\n  "))
	}
	var buf bytes.Buffer
	if err := obsv.Sequence(res.Spans).WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != len(res.Spans) {
		t.Errorf("trace has %d lines, %d spans", got, len(res.Spans))
	}
	t.Logf("\n%s", res.Render())
}
