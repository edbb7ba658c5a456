package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMalformedTraceExits1 runs the built command on the pinned trace
// whose one event names tid 400000000000. traceview once died out of
// memory on it; it must exit 1 naming the event, as it does for other
// malformed traces.
func TestMalformedTraceExits1(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "traceview")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, args := range [][]string{{}, {"-spans"}} {
		var stderr strings.Builder
		cmd := exec.Command(bin, append(args, "../../internal/obs/testdata/huge_tid.json")...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 1 {
			t.Fatalf("traceview %v: %v, want exit 1", args, err)
		}
		if want := `trace event 0 ("wakeup"): tid 400000000000 outside`; !strings.Contains(stderr.String(), want) {
			t.Fatalf("traceview %v: stderr %q lacks %q", args, stderr.String(), want)
		}
	}
}
