package main

import (
	"bytes"
	"strings"
	"testing"
)

// An unknown -backend is rejected before any experiment runs — including
// table2, which boots no machine and would otherwise print and exit 0,
// and the default suite, which would print table2 before fig7's first
// boot failed.
func TestUnknownBackendRejectedUpFront(t *testing.T) {
	for _, args := range [][]string{
		{"-backend", "foo", "-experiment", "table2"},
		{"-backend", "foo"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %d bytes before failing:\n%s", args, stdout.Len(), stdout.String())
		}
		if !strings.Contains(stderr.String(), `unknown backend "foo"`) {
			t.Errorf("%v: stderr %q does not name the bad backend", args, stderr.String())
		}
	}
}

func TestKnownBackendsRunTable2(t *testing.T) {
	for _, backend := range []string{"tree", "bytecode"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-backend", backend, "-experiment", "table2"}, &stdout, &stderr); code != 0 {
			t.Fatalf("-backend %s: exit %d: %s", backend, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), "Table II") {
			t.Errorf("-backend %s: no Table II in output:\n%s", backend, stdout.String())
		}
	}
}
