package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// TestValidateWorkloadFlags runs machsim on argument lists and pins the
// flag rule: a flag the chosen run does not read, or a value no run can
// use, exits 2 with a message naming it before anything boots, and every
// other command line runs. Valid cases are sized small; their verdict
// does not depend on the sizes.
func TestValidateWorkloadFlags(t *testing.T) {
	bin := buildMachsim(t)
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.json")
	fuzzOut := filepath.Join(dir, "fuzz")
	tests := []struct {
		name    string
		args    string
		wantErr string // stderr substring of an exit-2 rejection; empty means valid
	}{
		{"defaults compile", "-workload compile", ""},
		{"defaults mtload", "-workload mtload", ""},
		{"mtload explicit sizes", "-workload mtload -machines 256 -tenants 8 -sessions 500", ""},
		{"mtload with parallel and check", "-workload mtload -sessions 10 -parallel -check -trace " + trace, ""},

		{"machines on netrpc", "-workload netrpc -machines 8", "-machines does not apply to -workload netrpc"},
		{"tenants on kv", "-workload kv -tenants 4", "-tenants does not apply to -workload kv"},
		{"sessions on compile", "-workload compile -sessions 5", "-sessions does not apply to -workload compile"},

		{"pairs on mtload", "-workload mtload -pairs 2", "-pairs does not apply to -workload mtload"},
		{"clients on mtload", "-workload mtload -clients 2", "-clients does not apply to -workload mtload"},
		{"failover on mtload", "-workload mtload -failover", "-failover does not apply to -workload mtload"},
		{"faults on mtload", "-workload mtload -faults 7:drop=0.1", "-faults does not apply to -workload mtload"},
		{"crash on mtload", "-workload mtload -crash 1@40ms", "-crash does not apply to -workload mtload"},
		{"fuzz on mtload", "-workload mtload -fuzz 7:2", "-fuzz does not apply to -workload mtload"},
		{"breakkv on mtload", "-workload mtload -breakkv", "-breakkv does not apply to -workload mtload"},
		{"sample on mtload", "-workload mtload -sample 1/2", "-sample does not apply to -workload mtload"},
		{"scale on mtload", "-workload mtload -scale 0.5", "-scale does not apply to -workload mtload"},

		{"overload on kv", "-workload kv -overload on", ""},
		{"overload off on kv with faults", "-workload kv -overload off -faults 7:drop=0.05 -check", ""},
		{"overload on netrpc", "-workload netrpc -overload on", "-overload does not apply to -workload netrpc"},
		{"overload on compile", "-workload compile -overload on", "-overload does not apply to -workload compile"},
		{"breakoverload without overload", "-workload kv -breakoverload", "-breakoverload requires -overload"},
		{"breakoverload armed kv", "-workload kv -overload on -breakoverload", ""},
		{"armed fuzz campaign", "-workload kv -overload on -fuzz 7:1 -breakoverload", ""},

		{"storm mode plain", "-workload mtload -overload on", ""},
		{"storm mode with trigger and sessions",
			"-workload mtload -overload on -faults 7:burst=2@60ms+20ms -sessions 24 -check -parallel -sample 1/2", ""},
		{"storm mode breakoverload", "-workload mtload -overload on -breakoverload", ""},
		{"storm mode rejects machines", "-workload mtload -overload on -machines 8",
			"-machines does not apply to the mtload storm scenario"},
		{"storm mode rejects tenants", "-workload mtload -overload on -tenants 4",
			"-tenants does not apply to the mtload storm scenario"},
		{"storm mode rejects fuzz", "-workload mtload -overload on -fuzz 7:2",
			"-fuzz does not apply to the mtload storm scenario"},
		{"storm mode rejects breakkv", "-workload mtload -overload on -breakkv",
			"-breakkv does not apply to the mtload storm scenario"},
		{"storm mode zero sessions set", "-workload mtload -overload on -sessions 0", "-sessions must be >= 1"},

		{"odd machines", "-workload mtload -machines 9", "must be even"},
		{"too few machines", "-workload mtload -machines 0", "must be even and >= 2"},
		{"zero tenants", "-workload mtload -tenants 0", "-tenants must be >= 1"},
		{"zero sessions set", "-workload mtload -sessions 0", "-sessions must be >= 1"},
		{"derived sessions ok", "-workload mtload -machines 4", ""},

		{"fuzz campaign on kv", "-workload kv -fuzz 7:1 -fuzzout " + fuzzOut + " -breakkv -parallel", ""},
		{"fuzz on svcgraph", "-workload svcgraph -fuzz 7:2", "-fuzz does not apply to -workload svcgraph"},
		{"fuzz on compile", "-workload compile -fuzz 7:2", "-fuzz does not apply to -workload compile"},
		{"fuzzout on netrpc", "-workload netrpc -fuzzout " + fuzzOut, "-fuzzout does not apply to -workload netrpc"},
		{"breakkv on svcgraph", "-workload svcgraph -breakkv", "-breakkv does not apply to -workload svcgraph"},
		{"netrpc cluster flags", "-workload netrpc -pairs 2 -clients 2 -faults 7:drop=0.05 -check", ""},
		{"netrpc failover flags", "-workload netrpc -clients 2 -failover -faults 7:drop=0.05 -crash 1@40ms:reboot+40ms -check", ""},
		{"pairs under failover", "-workload netrpc -pairs 2 -failover", "-pairs does not apply to -workload netrpc"},
		{"pairs under crash", "-workload netrpc -pairs 2 -crash 1@40ms:reboot+40ms", "-pairs does not apply to -workload netrpc"},
		{"pairs on svcgraph", "-workload svcgraph -pairs 2", "-pairs does not apply to -workload svcgraph"},
		{"failover on svcgraph", "-workload svcgraph -failover", "-failover does not apply to -workload svcgraph"},
		{"pairs on kv", "-workload kv -pairs 2", "-pairs does not apply to -workload kv"},
		{"sample on svcgraph", "-workload svcgraph -sample 1/2 -clients 2 -crash 2@40ms:reboot+40ms -faults 7:drop=0.05", ""},
		{"sample on netrpc", "-workload netrpc -sample 1/2", "-sample does not apply to -workload netrpc"},
		{"sample on build", "-workload build -sample 1/2", "-sample does not apply to -workload build"},
		{"paper workload flags", "-workload dos -scale 0.05 -seed 7 -faults 7:devfail=0.05 -check -v", ""},
		{"clients on compile", "-workload compile -clients 2", "-clients does not apply to -workload compile"},
		{"crash on compile", "-workload compile -crash 0@1ms", "-crash does not apply to -workload compile"},
		{"scale on kv", "-workload kv -scale 0.5", "-scale does not apply to -workload kv"},
		{"scale on netrpc", "-workload netrpc -scale 0.5", "-scale does not apply to -workload netrpc"},
		{"scale on svcgraph", "-workload svcgraph -scale 0.5", "-scale does not apply to -workload svcgraph"},

		// The fuzz campaign reads none of the single run's settings.
		{"fuzz with clients", "-fuzz 7:1 -clients 2", "-clients does not apply to the kv fuzz campaign"},
		{"fuzz with seed", "-fuzz 7:1 -seed 3", "-seed does not apply to the kv fuzz campaign"},
		{"fuzz with check", "-fuzz 7:1 -check", "-check does not apply to the kv fuzz campaign"},
		{"fuzz with sample", "-fuzz 7:1 -sample 1/2", "-sample does not apply to the kv fuzz campaign"},
		{"fuzz with faults", "-fuzz 7:1 -faults 7:drop=0.1", "-faults does not apply to the kv fuzz campaign"},
		{"fuzz with crash", "-workload kv -fuzz 7:1 -crash primary@40ms", "-crash does not apply to the kv fuzz campaign"},
		{"fuzz with trace", "-fuzz 7:1 -trace " + trace, "-trace does not apply to the kv fuzz campaign"},
		{"fuzz with profile", "-fuzz 7:1 -profile", "-profile does not apply to the kv fuzz campaign"},
		{"seed on netrpc", "-workload netrpc -seed 3", "-seed does not apply to -workload netrpc"},
		{"v on netrpc", "-workload netrpc -v", "-v does not apply to -workload netrpc"},
		{"v on kv", "-workload kv -v", "-v does not apply to -workload kv"},
		{"v on svcgraph", "-workload svcgraph -v", "-v does not apply to -workload svcgraph"},
		{"v on mtload", "-workload mtload -v", "-v does not apply to -workload mtload"},
		{"v on storm", "-workload mtload -overload on -v", "-v does not apply to the mtload storm scenario"},
		{"parallel on compile", "-workload compile -parallel", "-parallel does not apply to -workload compile"},
		{"parallel on build", "-workload build -parallel", "-parallel does not apply to -workload build"},
		{"parallel on dos", "-workload dos -parallel", "-parallel does not apply to -workload dos"},
		{"fuzzout without fuzz", "-workload kv -fuzzout " + fuzzOut, "-fuzzout does not apply to -workload kv"},

		// Fault rules must name machines the run boots.
		{"kv crash flag past the cluster", "-workload kv -crash 9@1ms",
			`rule "crash=9@1ms" names machine 9, but the run has 4 machines (0-3)`},
		{"kv crash rule past the cluster", "-workload kv -faults 7:crash=9@1ms", `rule "crash=9@1ms" names machine 9`},
		{"kv link past the cluster", "-workload kv -faults 7:link=0>9:drop@10ms+10ms",
			`rule "link=0>9:drop@10ms+10ms" names machine 9`},
		{"kv gray past the cluster", "-workload kv -faults 7:gray=9:2@10ms+10ms", `rule "gray=9:2@10ms+10ms" names machine 9`},
		{"kv partition past the cluster", "-workload kv -faults 7:partition=1|0.2.9@10ms+10ms",
			`rule "partition=1|0.2.9@10ms+10ms" names machine 9`},
		{"netrpc crash past the HA cluster", "-workload netrpc -faults 7:crash=5@1ms", `rule "crash=5@1ms" names machine 5`},
		{"netrpc gray past the pairs", "-workload netrpc -pairs 2 -faults 7:gray=4:2@1ms+2ms",
			`rule "gray=4:2@1ms+2ms" names machine 4, but the run has 4 machines`},
		{"svcgraph crash past the chain", "-workload svcgraph -faults 7:crash=9@1ms", `rule "crash=9@1ms" names machine 9`},
		{"storm link past the chain", "-workload mtload -overload on -faults 7:link=0>4:drop@60ms+20ms",
			`rule "link=0>4:drop@60ms+20ms" names machine 4`},
		{"paper crash past the machine", "-workload dos -faults 7:crash=1@1ms", `the run has 1 machine (0)`},
		{"kv rules on the last machine", "-workload kv -faults 7:gray=3:2@10ms+10ms,link=3>0:drop@10ms+5ms -crash 3@20ms", ""},

		// Non-finite and runaway fault numbers: NaN probabilities used to
		// inject nothing, and the factors to hang the run or exhaust its
		// memory.
		{"drop NaN", "-workload netrpc -arch ds3100 -faults 7:drop=NaN", `rule 0 ("drop=NaN"): needs a probability in [0,1]`},
		{"dup NaN", "-workload netrpc -arch ds3100 -faults 7:dup=NaN", `("dup=NaN"): needs a probability`},
		{"delay NaN", "-workload netrpc -arch ds3100 -faults 7:delay=NaN", `("delay=NaN"): needs a probability`},
		{"devfail NaN", "-workload netrpc -arch ds3100 -faults 7:devfail=NaN", `("devfail=NaN"): needs a probability`},
		{"devslow NaN", "-workload netrpc -arch ds3100 -faults 7:devslow=NaN", `("devslow=NaN"): needs a probability`},
		{"burst NaN", "-workload netrpc -arch ds3100 -faults 7:burst=NaN@70ms+10ms", `("burst=NaN@70ms+10ms"): bad burst factor`},
		{"gray NaN", "-workload kv -arch ds3100 -faults 7:gray=1:NaN@10ms+10ms", `("gray=1:NaN@10ms+10ms"): bad slowdown factor`},
		{"gray Inf", "-workload kv -arch ds3100 -faults 7:gray=1:Inf@10ms+10ms", `("gray=1:Inf@10ms+10ms"): bad slowdown factor`},
		{"gray 1e300", "-workload kv -arch ds3100 -faults 7:gray=1:1e300@10ms+10ms", `("gray=1:1e300@10ms+10ms"): bad slowdown factor`},
		{"stacked grays", "-workload kv -arch ds3100 -faults 7:gray=1:100@10ms+10ms,gray=1:100@15ms+10ms",
			`rule "gray=1:100@15ms+10ms": overlapping gray windows on machine 1 multiply to 10000`},
		{"burst Inf", "-workload mtload -overload on -arch ds3100 -faults 7:burst=Inf@70ms+10ms", `("burst=Inf@70ms+10ms"): bad burst factor`},
		{"burst 1e7", "-workload mtload -overload on -arch ds3100 -faults 7:burst=1e7@70ms+10ms", `("burst=1e7@70ms+10ms"): bad burst factor`},
		{"bursts past a dip", "-workload mtload -overload on -arch ds3100 -faults 7:burst=0.001@0ms+100ms,burst=1000@10ms+200ms,burst=1000@20ms+200ms",
			`rule "burst=0.001@0ms+100ms": overlapping burst windows multiply to 1e+06 at 100ms`},
		{"burst at the bound", "-workload mtload -overload on -arch ds3100 -faults 7:burst=1000@70ms+10ms", ""},

		// -scale values that scaled to nothing or wrapped the duration
		// used to run forever.
		{"scale zero", "-workload compile -scale 0", "-scale 0: want a finite factor > 0"},
		{"scale negative", "-workload compile -scale -1", "-scale -1: want a finite factor > 0"},
		{"scale NaN", "-workload compile -scale NaN", "-scale NaN: want a finite factor > 0"},
		{"scale tiny", "-workload build -scale 1e-300", "-scale 1e-300: want a finite factor > 0"},
		{"scale huge", "-workload dos -scale 1e300", "-scale 1e+300: want a finite factor > 0"},
		{"scale to one ns", "-workload compile -scale 1e-10", ""},

		// Counts and -fuzz values machsim used to rewrite silently.
		{"zero pairs", "-workload netrpc -pairs 0", "-pairs must be >= 1, got 0"},
		{"negative pairs", "-workload netrpc -pairs -3", "-pairs must be >= 1, got -3"},
		{"zero clients on netrpc", "-workload netrpc -clients 0", "-clients must be >= 1, got 0"},
		{"negative clients on netrpc", "-workload netrpc -clients -2", "-clients must be >= 1, got -2"},
		{"zero clients on kv", "-workload kv -clients 0", "-clients must be >= 1, got 0"},
		{"negative clients on kv", "-workload kv -clients -2", "-clients must be >= 1, got -2"},
		{"zero clients on svcgraph", "-workload svcgraph -clients 0", "-clients must be >= 1, got 0"},
		{"negative clients on svcgraph", "-workload svcgraph -clients -2", "-clients must be >= 1, got -2"},
		{"fuzz with a third field", "-fuzz 7:1:2", `-fuzz wants seed:count, got "7:1:2"`},
		{"fuzz with trailing junk", "-fuzz 7x:1", `-fuzz wants seed:count, got "7x:1"`},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			// A rejection comes before anything boots; a hang must fail
			// in seconds, not at go test's timeout.
			timeout := time.Minute
			if tc.wantErr != "" {
				timeout = 10 * time.Second
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
			var ee *exec.ExitError
			rejected := errors.As(err, &ee) && ee.ExitCode() == 2
			if tc.wantErr == "" {
				// A fuzz campaign that finds a violation exits 1; only 2
				// means the command line was refused.
				if rejected || (err != nil && !errors.As(err, &ee)) {
					t.Fatalf("want the run to start, got %v: %s", err, stderr.String())
				}
				return
			}
			if !rejected {
				t.Fatalf("want exit 2 naming %q, got %v", tc.wantErr, err)
			}
			if !strings.Contains(stderr.String(), tc.wantErr) {
				t.Fatalf("stderr %q does not contain %q", stderr.String(), tc.wantErr)
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

// TestFuzzReproRunsAsPrinted runs a ds3100 -breakkv campaign, takes the
// minimal repro command it prints, and runs that command as printed: it
// must carry the campaign's build flags (schedules are arch-dependent,
// so a repro without -arch ds3100 replays on the default Toshiba and
// can read clean) and must reproduce the violation.
func TestFuzzReproRunsAsPrinted(t *testing.T) {
	bin := buildMachsim(t)
	out, err := exec.Command(bin, "-arch", "ds3100", "-fuzz", "7:4", "-breakkv").Output()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("broken campaign: want exit 1, got %v\n%s", err, out)
	}
	_, repro, ok := strings.Cut(string(out), "minimal repro")
	if !ok {
		t.Fatalf("no repro line:\n%s", out)
	}
	repro, _, _ = strings.Cut(repro, "\n")
	_, cmdline, ok := strings.Cut(repro, ": machsim ")
	if !ok {
		t.Fatalf("repro line %q has no machsim command", repro)
	}
	if !strings.Contains(cmdline, "-flavor mk40 -arch ds3100 -breakkv") {
		t.Fatalf("repro %q does not carry the campaign's build flags", cmdline)
	}
	rerun, err := exec.Command(bin, strings.Fields(cmdline)...).Output()
	if err != nil {
		t.Fatalf("repro %q: %v", cmdline, err)
	}
	if !strings.Contains(string(rerun), "NOT linearizable") {
		t.Fatalf("repro %q does not re-violate:\n%s", cmdline, rerun)
	}
}

// TestPaperReportGolden pins the paper report of every single-machine
// workload under every kernel flavor, with -v's per-component detail.
// The three flavors share the receive, exception and abort paths, so a
// refactor of those paths must leave all nine reports byte-identical.
// Six runs also arm the invariant sweep (-check), whose DebugChecks
// guards panic on a broken kernel rule, and one carries a device fault
// plan. Regenerate, only for an intended output change, with:
// go test ./cmd/machsim -run TestPaperReportGolden -update-golden
func TestPaperReportGolden(t *testing.T) {
	bin := buildMachsim(t)
	runs := []struct{ name, args string }{
		{"compile-mk40", "-workload compile -flavor mk40 -v"},
		{"build-mk40", "-workload build -flavor mk40 -v -check"},
		{"dos-mk40", "-workload dos -flavor mk40 -v -check"},
		{"compile-mk32", "-workload compile -flavor mk32 -v -check"},
		{"build-mk32", "-workload build -flavor mk32 -v"},
		{"dos-mk32-devfaults", "-workload dos -flavor mk32 -v -check -faults 42:devfail=0.05,devslow=0.1:2ms"},
		{"compile-mach25", "-workload compile -flavor mach25 -v -check"},
		{"build-mach25", "-workload build -flavor mach25 -v -check"},
		{"dos-mach25", "-workload dos -flavor mach25 -v"},
	}
	for _, run := range runs {
		t.Run(run.name, func(t *testing.T) {
			out, err := exec.Command(bin, strings.Fields(run.args)...).Output()
			if err != nil {
				t.Fatalf("machsim %s: %v", run.args, err)
			}
			checkGolden(t, filepath.Join("testdata", "golden", "paper-"+run.name+".txt"), out)
		})
	}
}

// checkGolden compares got with the golden file at path, or rewrites
// the file under -update-golden.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
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
		w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
		i := 0
		for i < len(w) && i < len(g) && w[i] == g[i] {
			i++
		}
		at := func(lines []string) string {
			if i < len(lines) {
				return lines[i]
			}
			return "(end)"
		}
		t.Errorf("output differs from golden %s at line %d:\n  want %q\n  got  %q", path, i+1, at(w), at(g))
	}
}
