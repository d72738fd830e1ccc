package core

// TestStrategyPolicyPinned characterizes the per-gate checkpoint-strategy
// policy (§IV-C extended with the rewind-and-discard strategy) end to end
// in every protection mode. One scripted run drives a single gate through
// the runtime's real entry points — Gate, RegSave, TxBegin, Store, Tick,
// Handle, TxEnd — and records, at every gate execution, the strategy the
// gate chose (read from the begin counters, so the record does not depend
// on how the runtime stores its decision), whether it injected, how the
// region ended, the latch spans emitted and the exported latch answers,
// then the run's counters and cycles. A change to these tables is a
// change of the policy itself.

import (
	"fmt"
	"strings"
	"testing"

	"github.com/firestarter-go/firestarter/internal/htm"
	"github.com/firestarter-go/firestarter/internal/interp"
	"github.com/firestarter-go/firestarter/internal/ir"
	"github.com/firestarter-go/firestarter/internal/libsim"
	"github.com/firestarter-go/firestarter/internal/obsv"
)

// policyEvent is what the region between a gate and its commit does.
type policyEvent byte

const (
	evCommit policyEvent = 'c' // the region commits
	evCrash  policyEvent = 'x' // a fail-stop trap inside the region
	evIntr   policyEvent = 'i' // an interrupt-length tick, then commit if still live
	evHeavy  policyEvent = 'h' // 64 stores to one cache set: a capacity abort under HTM, 64 undo entries under STM
	evSpill  policyEvent = 's' // an arena allocation larger than a slab (heap fallback), then commit
)

// policyScript walks HTM aborts of every cause (explicit, interrupt,
// capacity) to an STM latch, a transient and then a persistent crash
// (injection) under STM, undo volume to a domain latch, a crash under
// domains, and arena overflow to the domain back-off.
const policyScript = "cxcicxch" + "cxxc" + "hhhhxc" + "ssssc"

// capacityScript latches straight to domains on capacity-dominant aborts,
// crashes under domains, backs off to STM, and returns to domains over
// the doubled undo bar.
const capacityScript = "hchchchh" + "xc" + "ssss" + "hhhhc"

// heavyStores is the store count of evHeavy: more than the L1 ways of one
// set and more than twice domainUndoMin.
const heavyStores = 64

func TestStrategyPolicyPinned(t *testing.T) {
	for _, tc := range []struct {
		name, script string
		cfg          Config
		want         string
	}{
		{"hybrid", policyScript, Config{Mode: ModeHybrid}, `
htm c commit
htm x recover
stm c commit
htm i recover
stm c commit
htm x recover
stm c commit
htm h recover latch-stm L=stm
stm c commit L=stm
stm x recover L=stm
stm x recover L=stm
stm+inject c commit L=stm
stm h commit L=stm
stm h commit L=stm
stm h commit L=stm
stm h commit L=stm
stm x recover L=stm
stm c commit L=stm
stm s commit L=stm
stm s commit L=stm
stm s commit L=stm
stm s commit L=stm
stm c commit L=stm
end cycles=8110 htm=5/1/4 stm=18/15 dom=0/0/0 raw=0 crashes=3 retries=2 injections=1 unrecovered=0 latched=[1] rates=[{Site:1 Call:malloc Execs:23 Aborts:4 Latched:true}]`},
		{"hybrid-domains", policyScript, Config{Mode: ModeHybrid, EnableDomains: true}, `
htm c commit
htm x recover
stm c commit
htm i recover
stm c commit
htm x recover
stm c commit
htm h recover latch-stm L=stm
stm c commit L=stm
stm x recover L=stm
stm x recover L=stm
stm+inject c commit L=stm
stm h commit L=stm
stm h commit latch-domains L=stm,domain
domain h commit L=stm,domain
domain h commit L=stm,domain
domain x recover L=stm,domain
domain c commit L=stm,domain
domain s commit L=stm,domain
domain s commit L=stm,domain
domain s commit L=stm,domain
domain s commit latch-stm/backoff L=stm
stm c commit L=stm
end cycles=7516 htm=5/1/4 stm=10/8 dom=8/7/1 raw=0 crashes=3 retries=2 injections=1 unrecovered=0 latched=[1] rates=[{Site:1 Call:malloc Execs:23 Aborts:4 Latched:true}]`},
		{"hybrid-domains-capacity", capacityScript, Config{Mode: ModeHybrid, EnableDomains: true}, `
htm h recover
stm c commit
htm h recover
stm c commit
htm h recover
stm c commit
htm h recover latch-domains L=domain
domain h commit L=domain
domain x recover L=domain
domain c commit L=domain
domain s commit L=domain
domain s commit L=domain
domain s commit L=domain
domain s commit latch-stm/backoff L=stm
stm h commit L=stm
stm h commit L=stm
stm h commit L=stm
stm h commit latch-domains L=stm,domain
domain c commit L=stm,domain
end cycles=3940 htm=4/0/4 stm=7/7 dom=8/7/2 raw=0 crashes=1 retries=1 injections=0 unrecovered=0 latched=[1] rates=[{Site:1 Call:malloc Execs:19 Aborts:4 Latched:true}]`},
		{"hybrid-capacity", capacityScript, Config{Mode: ModeHybrid}, `
htm h recover
stm c commit
htm h recover
stm c commit
htm h recover
stm c commit
htm h recover latch-stm L=stm
stm h commit L=stm
stm x recover L=stm
stm c commit L=stm
stm s commit L=stm
stm s commit L=stm
stm s commit L=stm
stm s commit L=stm
stm h commit L=stm
stm h commit L=stm
stm h commit L=stm
stm h commit L=stm
stm c commit L=stm
end cycles=4278 htm=4/0/4 stm=15/14 dom=0/0/0 raw=0 crashes=1 retries=1 injections=0 unrecovered=0 latched=[1] rates=[{Site:1 Call:malloc Execs:19 Aborts:4 Latched:true}]`},
		{"htm-only", policyScript, Config{Mode: ModeHTMOnly}, `
htm c commit
htm x recover
raw c commit
htm i recover
raw c commit
htm x recover
raw c commit
htm h recover
raw c commit
htm x recover
raw x die
htm c commit
htm h recover
raw h commit
htm h recover
raw h commit
htm x recover
raw c commit
htm s commit
htm s commit
htm s commit
htm s commit
htm c commit
end cycles=1420 htm=15/7/8 stm=0/0 dom=0/0/0 raw=8 crashes=0 retries=0 injections=0 unrecovered=1 latched=[] rates=[{Site:1 Call:malloc Execs:23 Aborts:8 Latched:false}]`},
		{"stm-only", policyScript, Config{Mode: ModeSTMOnly}, `
stm c commit
stm x recover
stm c commit
stm i commit
stm c commit
stm x recover
stm c commit
stm h commit
stm c commit
stm x recover
stm x recover
stm+inject c commit
stm h commit
stm h commit
stm h commit
stm h commit
stm x recover
stm c commit
stm s commit
stm s commit
stm s commit
stm s commit
stm c commit
end cycles=11822 htm=0/0/0 stm=23/18 dom=0/0/0 raw=0 crashes=5 retries=4 injections=1 unrecovered=0 latched=[] rates=[]`},
		{"rewind", policyScript, Config{Mode: ModeRewind}, `
domain c commit
domain x recover
domain c commit
domain i commit
domain c commit
domain x recover
domain c commit
domain h commit
domain c commit
domain x recover
domain x recover
stm+inject c commit
domain h commit
domain h commit
domain h commit
domain h commit
domain x recover
domain c commit
domain s commit
domain s commit
domain s commit
domain s commit
domain c commit
end cycles=10384 htm=0/0/0 stm=1/1 dom=22/17/0 raw=0 crashes=5 retries=4 injections=1 unrecovered=0 latched=[] rates=[]`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := runPolicyScript(t, tc.script, tc.cfg); got != strings.TrimPrefix(tc.want, "\n") {
				t.Errorf("policy trace:\n%s\nwant:\n%s", got, strings.TrimPrefix(tc.want, "\n"))
			}
		})
	}
}

// runPolicyScript runs a script against a fresh ladder runtime and
// returns one line per gate execution plus a closing counter line.
func runPolicyScript(t *testing.T, script string, cfg Config) string {
	t.Helper()
	cfg.HTM = htm.Config{MeanInstrsPerInterrupt: 1000, Seed: 1}
	rt, m := newLadderRuntime(t, cfg)
	rt.EnableTrace()
	site := gateSite(t, rt)
	buf, err := rt.os.CallFunc(libsim.NoFunc, "malloc", []int64{heavyStores * 4096})
	if err != nil || buf == 0 {
		t.Fatalf("malloc: %#x %v", buf, err)
	}

	var out strings.Builder
	seen := 0
	for step, ev := range script {
		before := rt.Stats()
		variant, inject, _ := rt.Gate(m, site, m.Snapshot())
		rt.RegSave(m)
		if err := rt.TxBegin(m, site, variant); err != nil {
			t.Fatalf("TxBegin: %v", err)
		}
		after := rt.Stats()
		chosen := "none"
		switch {
		case after.Unprotected > before.Unprotected:
			chosen = "raw"
		case after.HTMBegins > before.HTMBegins:
			chosen = "htm"
		case after.STMBegins > before.STMBegins:
			chosen = "stm"
		case after.DomainBegins > before.DomainBegins:
			chosen = "domain"
		}
		// Only STM runs the STM clone; raw and domain run the HTM-shaped one.
		if want := map[string]int64{"raw": ir.TxHTM, "htm": ir.TxHTM, "domain": ir.TxHTM, "stm": ir.TxSTM}[chosen]; variant != want || rt.Variant() != want {
			t.Fatalf("step %d: %s chosen, gate variant %d, Variant() %d", step, chosen, variant, rt.Variant())
		}
		if inject {
			chosen += "+inject"
		}

		end := "commit"
		var fault error
		switch policyEvent(ev) {
		case evCrash:
			fault = &interp.Trap{Code: ir.TrapBadAccess, Addr: 0x10}
		case evIntr:
			fault = rt.Tick(m, 1<<40)
		case evHeavy:
			for i := int64(0); i < heavyStores && fault == nil; i++ {
				fault = rt.Store(m, buf+i*4096, i, 8, false)
			}
		case evSpill:
			if _, err := rt.os.ArenaAlloc(2 * libsim.ArenaSlabSize); err != nil {
				t.Fatal(err)
			}
		}
		if fault != nil {
			end = map[interp.Action]string{interp.ActionContinue: "recover", interp.ActionDie: "die"}[rt.Handle(m, fault)]
		} else if err := rt.TxEnd(m); err != nil {
			t.Fatalf("TxEnd: %v", err)
		}

		fmt.Fprintf(&out, "%s %c %s", chosen, ev, end)
		spans := rt.Spans()
		for _, e := range spans[seen:] {
			if e.Kind == obsv.SpanLatchSTM || e.Kind == obsv.SpanLatchDomains {
				out.WriteString(" " + e.Kind)
				if e.Cause != "" {
					out.WriteString("/" + e.Cause)
				}
			}
		}
		seen = len(spans)
		switch {
		case rt.GateLatchedSTM(site) && rt.GateLatchedDomains(site):
			out.WriteString(" L=stm,domain")
		case rt.GateLatchedSTM(site):
			out.WriteString(" L=stm")
		case rt.GateLatchedDomains(site):
			out.WriteString(" L=domain")
		}
		out.WriteByte('\n')
	}
	s := rt.Stats()
	rates := rt.SiteAbortRates()
	fmt.Fprintf(&out, "end cycles=%d htm=%d/%d/%d stm=%d/%d dom=%d/%d/%d raw=%d crashes=%d retries=%d injections=%d unrecovered=%d latched=%v rates=%+v",
		m.Cycles, s.HTMBegins, s.HTMCommits, s.HTMAborts, s.STMBegins, s.STMCommits,
		s.DomainBegins, s.DomainCommits, s.DomainLatches, s.Unprotected,
		s.Crashes, s.Retries, s.Injections, s.Unrecovered, rt.LatchedSites(), rates)
	return out.String()
}
