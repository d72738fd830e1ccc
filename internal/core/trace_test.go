package core_test

import (
	"strings"
	"testing"

	"github.com/firestarter-go/firestarter/internal/core"
	"github.com/firestarter-go/firestarter/internal/obsv"
)

func TestTraceRecordsRecoveryStory(t *testing.T) {
	src := `
int main() {
	char *p = malloc(64);
	if (!p) {
		puts("handled");
		return 9;
	}
	int *q = NULL;
	*q = 1;
	free(p);
	return 0;
}`
	h := newHarness(t, src, core.Config{})
	h.rt.EnableTrace()
	h.runToExit(t, 9)

	events := h.rt.Spans()
	if len(events) == 0 {
		t.Fatal("no trace events recorded")
	}
	// Expected story: crash in HTM → abort, crash under STM, retry,
	// crash again, inject.
	var kinds []string
	for _, e := range events {
		kinds = append(kinds, e.Kind)
	}
	story := strings.Join(kinds, " ")
	for _, want := range []string{obsv.SpanAbort, obsv.SpanCrash, obsv.SpanRetry, obsv.SpanInject} {
		if !strings.Contains(story, want) {
			t.Errorf("trace %v missing %q", kinds, want)
		}
	}
	// The inject event names the gate's library call.
	found := false
	for _, e := range events {
		if e.Kind == obsv.SpanInject {
			found = true
			if e.Call != "malloc" {
				t.Errorf("inject call = %q, want malloc", e.Call)
			}
			if !strings.Contains(e.Detail, "errno=12") {
				t.Errorf("inject detail = %q, want ENOMEM", e.Detail)
			}
		}
	}
	if !found {
		t.Fatal("no inject event")
	}
	// Cycles are monotonically non-decreasing.
	for i := 1; i < len(events); i++ {
		if events[i].Cycles < events[i-1].Cycles {
			t.Fatalf("trace cycles went backwards at %d: %v", i, events)
		}
	}
	// Rendering produces one line per event.
	rendered := h.rt.RenderTrace()
	if strings.Count(rendered, "\n") != len(events) {
		t.Errorf("rendered %d lines for %d events", strings.Count(rendered, "\n"), len(events))
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	src := `
int main() {
	char *p = malloc(64);
	if (!p) { return 9; }
	int *q = NULL;
	*q = 1;
	free(p);
	return 0;
}`
	h := newHarness(t, src, core.Config{})
	h.runToExit(t, 9)
	if len(h.rt.Spans()) != 0 {
		t.Fatal("trace recorded without EnableTrace")
	}
}

func TestTraceUnrecoveredEvent(t *testing.T) {
	src := `
int main() {
	int *q = NULL;
	*q = 1;
	return 0;
}`
	h := newHarness(t, src, core.Config{})
	h.rt.EnableTrace()
	h.m.Run(1_000_000)
	events := h.rt.Spans()
	if len(events) != 1 || events[0].Kind != obsv.SpanUnrecovered {
		t.Fatalf("events = %v, want one unrecovered", events)
	}
}
