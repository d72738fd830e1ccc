//go:build !race

// The reduced default suite takes a few seconds serially but close to a
// minute under the race detector, so this file builds only without it.

package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/suite.golden from the current output")

// suiteArgs are the bench-smoke arguments: every default-suite
// experiment at reduced scale, parallel harness on.
var suiteArgs = []string{"-requests", "40", "-faults", "4", "-concurrency", "2", "-parallel", "4"}

// The default suite's output is pinned byte for byte. Only
// `go test ./cmd/firebench -update` rewrites the golden.
func TestDefaultSuiteGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(suiteArgs, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	path := filepath.Join("testdata", "suite.golden")
	if *update {
		if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("default suite output differs from %s (rerun with -update only for an intended change):\n%s",
			path, stdout.String())
	}
}
