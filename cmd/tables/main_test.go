package main

import (
	"context"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// buildTables compiles this command into a temporary directory.
func buildTables(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "tables")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestRejectsBadArguments runs tables on argument lists: a -scale that
// is not a finite factor > 0 giving every paper workload a run of at
// least 1 ns exits 2 naming the flag, before any table runs, and so
// does an unknown table. Each command gets a timeout, because the bad
// scales used to run forever.
func TestRejectsBadArguments(t *testing.T) {
	bin := buildTables(t)
	tests := []struct {
		args    string
		wantErr string // stderr substring of an exit-2 rejection; empty means valid
	}{
		{"-table 1 -scale 0.01", ""},
		{"-table 2 -scale 1e-10", ""},
		{"-table 3 -iters 10 -scale 0", ""}, // tables 1 and 2 alone read -scale
		{"-table 1 -scale 0", "-scale 0: want a finite factor > 0"},
		{"-table 1 -scale -1", "-scale -1: want a finite factor > 0"},
		{"-table 2 -scale NaN", "-scale NaN: want a finite factor > 0"},
		{"-table 1 -scale Inf", "-scale +Inf: want a finite factor > 0"},
		{"-table 1 -scale 1e-300", "-scale 1e-300: want a finite factor > 0"},
		{"-table all -scale 1e300", "-scale 1e+300: want a finite factor > 0"},
		{"-table bogus", `unknown table "bogus"`},
	}
	for _, tc := range tests {
		t.Run(tc.args, func(t *testing.T) {
			timeout := time.Minute
			if tc.wantErr != "" {
				timeout = 10 * time.Second // a rejection comes before any table runs
			}
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			var stderr strings.Builder
			cmd := exec.CommandContext(ctx, bin, strings.Fields(tc.args)...)
			cmd.Stderr = &stderr
			err := cmd.Run()
			if ctx.Err() != nil {
				t.Fatalf("still running after %v", timeout)
			}
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("want the tables, got %v: %s", err, stderr.String())
				}
				return
			}
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 2 {
				t.Fatalf("want exit 2 naming %q, got %v", tc.wantErr, err)
			}
			if !strings.Contains(stderr.String(), tc.wantErr) {
				t.Fatalf("stderr %q does not contain %q", stderr.String(), tc.wantErr)
			}
		})
	}
}

// TestTablesGolden pins every simulated table at the default flags: the
// paper's numbers are the fixed reference and must not drift, so a
// refactor of a path the paper runs leaves them byte-identical.
// gonative measures the host, and the figure2 and device traces have
// their own golden (internal/experiments TestTransferTraceGolden).
// Regenerate, only for an intended output change, with:
// go test ./cmd/tables -run TestTablesGolden -update-golden
func TestTablesGolden(t *testing.T) {
	bin := buildTables(t)
	for _, table := range []string{"1", "2", "3", "4", "5", "firefly"} {
		t.Run(table, func(t *testing.T) {
			got, err := exec.Command(bin, "-table", table).Output()
			if err != nil {
				t.Fatalf("tables -table %s: %v", table, err)
			}
			path := filepath.Join("testdata", "golden", "table-"+table+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update-golden)", err)
			}
			if string(got) != string(want) {
				t.Errorf("tables -table %s differs from golden %s:\n--- want\n%s--- got\n%s", table, path, want, got)
			}
		})
	}
}
