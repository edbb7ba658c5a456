package main

import (
	"errors"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestValidateWorkloadFlags covers the flag-combination matrix machsim
// rejects with exit 2 before booting anything: mtload sizing flags on
// other workloads, the pair/fault flags on mtload, and impossible mtload
// cluster shapes.
func TestValidateWorkloadFlags(t *testing.T) {
	tests := []struct {
		name     string
		workload string
		machines int
		tenants  int
		sessions int
		set      []string
		wantErr  string // substring; empty means valid
	}{
		{name: "defaults compile", workload: "compile", machines: 8, tenants: 4},
		{name: "defaults mtload", workload: "mtload", machines: 8, tenants: 4},
		{name: "mtload explicit sizes", workload: "mtload", machines: 256, tenants: 8,
			sessions: 500, set: []string{"machines", "tenants", "sessions"}},
		{name: "mtload with parallel and check", workload: "mtload", machines: 8, tenants: 4,
			set: []string{"parallel", "check", "trace"}},

		{name: "machines on netrpc", workload: "netrpc", machines: 8, tenants: 4,
			set: []string{"machines"}, wantErr: "-machines only applies"},
		{name: "tenants on kv", workload: "kv", machines: 8, tenants: 4,
			set: []string{"tenants"}, wantErr: "-tenants only applies"},
		{name: "sessions on compile", workload: "compile", machines: 8, tenants: 4,
			set: []string{"sessions"}, wantErr: "-sessions only applies"},

		{name: "pairs on mtload", workload: "mtload", machines: 8, tenants: 4,
			set: []string{"pairs"}, wantErr: "-pairs does not apply"},
		{name: "clients on mtload", workload: "mtload", machines: 8, tenants: 4,
			set: []string{"clients"}, wantErr: "-clients does not apply"},
		{name: "failover on mtload", workload: "mtload", machines: 8, tenants: 4,
			set: []string{"failover"}, wantErr: "-failover does not apply"},
		{name: "faults on mtload", workload: "mtload", machines: 8, tenants: 4,
			set: []string{"faults"}, wantErr: "-faults does not apply"},
		{name: "crash on mtload", workload: "mtload", machines: 8, tenants: 4,
			set: []string{"crash"}, wantErr: "-crash does not apply"},
		{name: "fuzz on mtload", workload: "mtload", machines: 8, tenants: 4,
			set: []string{"fuzz"}, wantErr: "-fuzz does not apply"},
		{name: "breakkv on mtload", workload: "mtload", machines: 8, tenants: 4,
			set: []string{"breakkv"}, wantErr: "-breakkv does not apply"},
		{name: "sample on mtload", workload: "mtload", machines: 8, tenants: 4,
			set: []string{"sample"}, wantErr: "-sample does not apply"},
		{name: "scale on mtload", workload: "mtload", machines: 8, tenants: 4,
			set: []string{"scale"}, wantErr: "-scale does not apply"},

		{name: "overload on kv", workload: "kv", machines: 8, tenants: 4,
			set: []string{"overload"}},
		{name: "overload off on kv with faults", workload: "kv", machines: 8, tenants: 4,
			set: []string{"overload", "faults", "check"}},
		{name: "overload on netrpc", workload: "netrpc", machines: 8, tenants: 4,
			set: []string{"overload"}, wantErr: "-overload only applies"},
		{name: "overload on compile", workload: "compile", machines: 8, tenants: 4,
			set: []string{"overload"}, wantErr: "-overload only applies"},
		{name: "breakoverload without overload", workload: "kv", machines: 8, tenants: 4,
			set: []string{"breakoverload"}, wantErr: "-breakoverload requires -overload"},
		{name: "breakoverload armed kv", workload: "kv", machines: 8, tenants: 4,
			set: []string{"overload", "breakoverload"}},
		{name: "armed fuzz campaign", workload: "kv", machines: 8, tenants: 4,
			set: []string{"overload", "fuzz", "breakoverload"}},

		{name: "storm mode plain", workload: "mtload", machines: 8, tenants: 4,
			set: []string{"overload"}},
		{name: "storm mode with trigger and sessions", workload: "mtload", machines: 8, tenants: 4,
			sessions: 24, set: []string{"overload", "faults", "sessions", "check", "parallel", "sample"}},
		{name: "storm mode breakoverload", workload: "mtload", machines: 8, tenants: 4,
			set: []string{"overload", "breakoverload"}},
		{name: "storm mode rejects machines", workload: "mtload", machines: 8, tenants: 4,
			set: []string{"overload", "machines"}, wantErr: "-machines does not apply to the mtload storm scenario"},
		{name: "storm mode rejects tenants", workload: "mtload", machines: 8, tenants: 4,
			set: []string{"overload", "tenants"}, wantErr: "-tenants does not apply to the mtload storm scenario"},
		{name: "storm mode rejects fuzz", workload: "mtload", machines: 8, tenants: 4,
			set: []string{"overload", "fuzz"}, wantErr: "-fuzz does not apply to the mtload storm scenario"},
		{name: "storm mode rejects breakkv", workload: "mtload", machines: 8, tenants: 4,
			set: []string{"overload", "breakkv"}, wantErr: "-breakkv does not apply to the mtload storm scenario"},
		{name: "storm mode zero sessions set", workload: "mtload", machines: 8, tenants: 4,
			sessions: 0, set: []string{"overload", "sessions"}, wantErr: "-sessions must be >= 1"},

		{name: "odd machines", workload: "mtload", machines: 9, tenants: 4,
			set: []string{"machines"}, wantErr: "must be even"},
		{name: "too few machines", workload: "mtload", machines: 0, tenants: 4,
			set: []string{"machines"}, wantErr: "must be even and >= 2"},
		{name: "zero tenants", workload: "mtload", machines: 8, tenants: 0,
			set: []string{"tenants"}, wantErr: "-tenants must be >= 1"},
		{name: "zero sessions set", workload: "mtload", machines: 8, tenants: 4,
			sessions: 0, set: []string{"sessions"}, wantErr: "-sessions must be >= 1"},
		{name: "derived sessions ok", workload: "mtload", machines: 8, tenants: 4,
			sessions: 0},

		{name: "fuzz campaign on kv", workload: "kv", machines: 8, tenants: 4,
			set: []string{"fuzz", "fuzzout", "breakkv", "parallel"}},
		{name: "fuzz on svcgraph", workload: "svcgraph", machines: 8, tenants: 4,
			set: []string{"fuzz"}, wantErr: "-fuzz does not apply to -workload svcgraph"},
		{name: "fuzz on compile", workload: "compile", machines: 8, tenants: 4,
			set: []string{"fuzz"}, wantErr: "-fuzz does not apply to -workload compile"},
		{name: "fuzzout on netrpc", workload: "netrpc", machines: 8, tenants: 4,
			set: []string{"fuzzout"}, wantErr: "-fuzzout does not apply"},
		{name: "breakkv on svcgraph", workload: "svcgraph", machines: 8, tenants: 4,
			set: []string{"breakkv"}, wantErr: "-breakkv does not apply"},
		{name: "netrpc cluster flags", workload: "netrpc", machines: 8, tenants: 4,
			set: []string{"pairs", "clients", "failover", "faults", "crash", "check"}},
		{name: "pairs on svcgraph", workload: "svcgraph", machines: 8, tenants: 4,
			set: []string{"pairs"}, wantErr: "-pairs does not apply to -workload svcgraph"},
		{name: "failover on svcgraph", workload: "svcgraph", machines: 8, tenants: 4,
			set: []string{"failover"}, wantErr: "-failover does not apply"},
		{name: "pairs on kv", workload: "kv", machines: 8, tenants: 4,
			set: []string{"pairs"}, wantErr: "-pairs does not apply"},
		{name: "sample on svcgraph", workload: "svcgraph", machines: 8, tenants: 4,
			set: []string{"sample", "clients", "crash", "faults"}},
		{name: "sample on netrpc", workload: "netrpc", machines: 8, tenants: 4,
			set: []string{"sample"}, wantErr: "-sample does not apply to -workload netrpc"},
		{name: "sample on build", workload: "build", machines: 8, tenants: 4,
			set: []string{"sample"}, wantErr: "-sample does not apply"},
		{name: "paper workload flags", workload: "dos", machines: 8, tenants: 4,
			set: []string{"scale", "seed", "faults", "check", "v"}},
		{name: "clients on compile", workload: "compile", machines: 8, tenants: 4,
			set: []string{"clients"}, wantErr: "-clients does not apply to -workload compile"},
		{name: "crash on compile", workload: "compile", machines: 8, tenants: 4,
			set: []string{"crash"}, wantErr: "-crash does not apply"},
		{name: "scale on kv", workload: "kv", machines: 8, tenants: 4,
			set: []string{"scale"}, wantErr: "-scale does not apply to -workload kv"},
		{name: "scale on netrpc", workload: "netrpc", machines: 8, tenants: 4,
			set: []string{"scale"}, wantErr: "-scale does not apply"},
		{name: "scale on svcgraph", workload: "svcgraph", machines: 8, tenants: 4,
			set: []string{"scale"}, wantErr: "-scale does not apply"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			set := func(name string) bool {
				for _, f := range tc.set {
					if f == name {
						return true
					}
				}
				return false
			}
			err := validateWorkloadFlags(tc.workload, tc.machines, tc.tenants, tc.sessions, set)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// buildMachsim compiles this command into a temporary directory, so
// tests can check exit codes and whole reports end to end.
func buildMachsim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "machsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestCrashAliases pins -crash's role aliases: each resolves to the
// machine index it names in the workload's topology (the recovery
// section's panic record carries the index), and an alias the workload
// has no such role for exits 2.
func TestCrashAliases(t *testing.T) {
	bin := buildMachsim(t)
	tests := []struct {
		workload, alias string
		want            int // machine index; -1 means exit 2
	}{
		{"netrpc", "client", 0},
		{"netrpc", "primary", 1},
		{"netrpc", "replica", 2},
		{"netrpc", "backup", 2},
		{"kv", "client", 0},
		{"kv", "primary", 1},
		{"kv", "replica", 2},
		{"kv", "backup", 2},
		{"svcgraph", "frontend", 0},
		{"svcgraph", "cache", 1},
		{"svcgraph", "primary", 2},
		{"svcgraph", "replica", 3},
		{"svcgraph", "backup", 3},
		{"kv", "cache", -1},
		{"kv", "frontend", -1},
		{"netrpc", "cache", -1},
		{"svcgraph", "client", -1},
	}
	for _, tc := range tests {
		t.Run(tc.workload+"/"+tc.alias, func(t *testing.T) {
			cmd := exec.Command(bin, "-workload", tc.workload, "-arch", "ds3100",
				"-crash", tc.alias+"@40ms:reboot+40ms")
			out, err := cmd.Output()
			if tc.want < 0 {
				var ee *exec.ExitError
				if !errors.As(err, &ee) || ee.ExitCode() != 2 {
					t.Fatalf("want exit 2, got %v", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			want := fmt.Sprintf("machine %d last panic", tc.want)
			if got := strings.Count(string(out), "last panic"); got != 1 || !strings.Contains(string(out), want) {
				t.Fatalf("want one panic record, on %q; got %d:\n%s", want, got, out)
			}
		})
	}
}
