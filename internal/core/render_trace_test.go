package core_test

import (
	"testing"

	"github.com/firestarter-go/firestarter/internal/core"
)

// TestRenderTraceBytes pins the rendered recovery trace of a fixed
// program whose fault runs the whole story: HTM abort, STM crash, retry,
// crash again, gate injection. An abort span renders as htm-abort and a
// cause leads the detail.
func TestRenderTraceBytes(t *testing.T) {
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
	const want = `[          52] htm-abort   site=1 call=malloc cause=explicit aborts=1 execs=1
[         239] crash       site=1 call=malloc
[        2239] retry       site=1 call=malloc attempt=1
[        2239] recovered   site=1 call=malloc latency=2000
[        2276] crash       site=1 call=malloc
[        4276] recovered   site=1 call=malloc latency=2000
[        4376] inject      site=1 call=malloc ret=0 errno=12
`
	if got := h.rt.RenderTrace(); got != want {
		t.Errorf("RenderTrace =\n%s\nwant\n%s", got, want)
	}
}
