package workload

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/overload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// goldenCase is one pinned report: a registry entry, or a variant that
// reaches a boot branch the registry does not (pairs and clients,
// DebugChecks, Toshiba, overload with a crash, the storm's negative arm).
type goldenCase struct {
	name   string
	report func() string
}

// mustFlag parses a machsim-style -faults seed:spec argument.
func mustFlag(t *testing.T, s string) (uint64, fault.Spec) {
	t.Helper()
	seed, spec, err := fault.ParseFlag(s)
	if err != nil {
		t.Fatal(err)
	}
	return seed, spec
}

// mustCrash parses a machsim-style -crash argument.
func mustCrash(t *testing.T, s string) []fault.Crash {
	t.Helper()
	c, err := fault.ParseCrash(s)
	if err != nil {
		t.Fatal(err)
	}
	return []fault.Crash{c}
}

func goldenCases(t *testing.T) []goldenCase {
	var cases []goldenCase
	for _, wl := range Registry() {
		wl := wl
		cases = append(cases, goldenCase{wl.Name, func() string { return wl.Report(false) }})
	}
	toshiba := machine.ArchToshiba5200
	cases = append(cases,
		goldenCase{"netrpc-pairs-faults", func() string {
			spec := DefaultNetRPC()
			spec.FaultSeed, spec.FaultSpec = mustFlag(t, "42:drop=0.1,devfail=0.05")
			spec.Pairs = 2
			spec.Clients = 4
			spec.DebugChecks = true
			res := RunNetRPC(kern.MK40, machine.ArchDS3100, spec)
			var buf bytes.Buffer
			WriteNetRPCReport(&buf, kern.MK40, machine.ArchDS3100, res, NetRPCReportOptions{Faults: true})
			return buf.String()
		}},
		goldenCase{"failover-crash-check-toshiba", func() string {
			spec := DefaultNetRPC()
			spec.FaultSpec.Crashes = mustCrash(t, "1@40ms:reboot+40ms")
			spec.Failover = true
			spec.DebugChecks = true
			res := RunNetRPC(kern.MK40, toshiba, spec)
			var buf bytes.Buffer
			WriteNetRPCReport(&buf, kern.MK40, toshiba, res, NetRPCReportOptions{Faults: true})
			return buf.String()
		}},
		goldenCase{"kv-overload-crash-toshiba", func() string {
			spec := DefaultKV()
			spec.FaultSpec.Crashes = mustCrash(t, "1@40ms:reboot+160ms")
			spec.Overload = overload.DefaultPolicy()
			res := RunKV(kern.MK40, toshiba, spec)
			var buf bytes.Buffer
			WriteKVReport(&buf, kern.MK40, toshiba, res, NetRPCReportOptions{Faults: true})
			return buf.String()
		}},
		goldenCase{"storm-off", func() string {
			spec := DefaultStorm()
			spec.Overload.Enabled = false
			return StormReport(kern.MK40, machine.ArchDS3100, spec)
		}},
		goldenCase{"svcgraph-check-toshiba", func() string {
			spec := DefaultSvcGraph()
			spec.DebugChecks = true
			res := RunSvcGraph(kern.MK40, toshiba, spec)
			var buf bytes.Buffer
			WriteSvcGraphReport(&buf, kern.MK40, toshiba, res, NetRPCReportOptions{})
			return buf.String()
		}},
	)
	return cases
}

// TestGoldenReports pins every registry report, plus five variants, to
// the bytes committed under testdata/golden. A refactor of the cluster
// drivers must leave each file unchanged; TestRegistryDeterminism only
// compares a build with itself. Regenerate with:
// go test ./internal/workload -run TestGoldenReports -update-golden
func TestGoldenReports(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	for _, gc := range goldenCases(t) {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			got := gc.report()
			path := filepath.Join(dir, gc.name+".txt")
			if *updateGolden {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update-golden)", err)
			}
			if got != string(want) {
				t.Fatalf("report differs from golden %s (regenerate with -update-golden if the change is intended):\ngot:\n%s\nwant:\n%s",
					path, got, want)
			}
		})
	}
}
