package workload

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/overload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

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

// scenario is one cluster run under the determinism contract. run boots
// it on the sequential or the parallel driver and returns its
// machsim-format report and its machines. observe asks for the run's
// kernel events, so its trace export has something to compare: a netrpc
// row installs retaining recorders only then, and every other row, whose
// recorders always keep the statistics, retains events only then
// (KeepEvents), as machsim does under -trace.
type scenario struct {
	name string
	run  func(parallel, observe bool) (report string, machines []*kern.System)
}

// netRPCRow is a netrpc scenario; faults prints each machine's fault
// block. Every row constructor takes the kernel flavor the row boots.
func netRPCRow(name string, flavor kern.Flavor, arch machine.Arch, spec NetRPCSpec, faults bool) scenario {
	return scenario{name, func(parallel, observe bool) (string, []*kern.System) {
		s := spec
		s.Parallel, s.Observe = parallel, observe
		res := RunNetRPC(flavor, arch, s)
		var buf bytes.Buffer
		WriteNetRPCReport(&buf, flavor, arch, res, NetRPCReportOptions{Faults: faults})
		return buf.String(), res.Machines
	}}
}

func kvRow(name string, flavor kern.Flavor, arch machine.Arch, spec KVSpec, faults bool) scenario {
	return scenario{name, func(parallel, observe bool) (string, []*kern.System) {
		s := spec
		s.Parallel, s.KeepEvents = parallel, observe
		res := RunKV(flavor, arch, s)
		var buf bytes.Buffer
		WriteKVReport(&buf, flavor, arch, res, NetRPCReportOptions{Faults: faults})
		return buf.String(), res.Machines
	}}
}

func svcGraphRow(name string, flavor kern.Flavor, arch machine.Arch, spec SvcGraphSpec) scenario {
	return scenario{name, func(parallel, observe bool) (string, []*kern.System) {
		s := spec
		s.Parallel, s.KeepEvents = parallel, observe
		res := RunSvcGraph(flavor, arch, s)
		var buf bytes.Buffer
		WriteSvcGraphReport(&buf, flavor, arch, res, NetRPCReportOptions{})
		return buf.String(), res.Machines
	}}
}

func stormRow(name string, flavor kern.Flavor, spec StormSpec) scenario {
	return scenario{name, func(parallel, observe bool) (string, []*kern.System) {
		s := spec
		s.Parallel, s.KeepEvents = parallel, observe
		res := RunStorm(flavor, machine.ArchDS3100, s)
		var buf bytes.Buffer
		WriteStormReport(&buf, flavor, machine.ArchDS3100, res)
		return buf.String(), res.Machines
	}}
}

// mtLoadRow runs a small mtload cluster with the driver's naive-sweep
// cross-check armed, so every driver also exercises the
// incremental-horizon oracle.
func mtLoadRow(name string, flavor kern.Flavor, machines, sessionsPerTenant int) scenario {
	spec := DefaultMTLoad()
	spec.Machines = machines
	spec.SessionsPerTenant = sessionsPerTenant
	spec.DebugChecks = true
	return scenario{name, func(parallel, observe bool) (string, []*kern.System) {
		s := spec
		s.Parallel, s.KeepEvents = parallel, observe
		res := RunMTLoad(flavor, machine.ArchDS3100, s)
		var buf bytes.Buffer
		WriteMTLoadReport(&buf, res)
		return buf.String(), res.Machines
	}}
}

// scenarios is every cluster run the determinism contract pins: each
// workload's canonical run, and variants reaching the boot branches
// those miss (pairs and clients, many machines, DebugChecks and the
// cross-check, Toshiba, fault plans, crashes, nemesis schedules, armed
// overload, the storm's negative arm, the process-model kernel). Names
// are golden file names.
func scenarios(t *testing.T) []scenario {
	ds, toshiba := machine.ArchDS3100, machine.ArchToshiba5200
	mk40, mk32 := kern.MK40, kern.MK32
	crash := mustCrash(t, "1@40ms:reboot+40ms")

	pairs := DefaultNetRPC()
	pairs.Pairs, pairs.Clients = 2, 2
	lossyPairs := LossyNetRPC()
	lossyPairs.Pairs, lossyPairs.Clients = 2, 2
	wide := DefaultNetRPC()
	wide.Pairs, wide.RPCs, wide.DiskReads = 32, 8, 0
	pairsFaults := DefaultNetRPC()
	pairsFaults.FaultSeed, pairsFaults.FaultSpec = mustFlag(t, "42:drop=0.1,devfail=0.05")
	pairsFaults.Pairs, pairsFaults.Clients, pairsFaults.DebugChecks = 2, 4, true
	// A mid-run latency stretch adds delay at transmit time, so the
	// cached lookahead must stay a safe lower bound: DebugChecks arms
	// the driver's CrossCheck, which panics if the horizon ever diverges
	// from the full sweep.
	linkDelay := DefaultNetRPC()
	linkDelay.FaultSeed, linkDelay.FaultSpec = mustFlag(t, "7:link=0>1:delay:2ms@5ms+20ms")
	linkDelay.DebugChecks = true
	failover := DefaultNetRPC()
	failover.Failover, failover.FaultSpec.Crashes = true, crash
	failoverCheck := failover
	failoverCheck.DebugChecks = true

	kv := DefaultKV()
	kv.FaultSpec.Crashes = crash
	kvNemesis := nemesisSpec(t, "partition=1|0.2.3@60ms+120ms")
	kvNemesisDelay := nemesisSpec(t, "partition=1|0.2.3@60ms+120ms,link=0>2:delay:3ms@30ms+40ms")
	// The primary's outage outlasts the membership deadline, so
	// retransmit, retry and election-stall spans all appear.
	kvOutage := DefaultKV()
	kvOutage.FaultSpec.Crashes = mustCrash(t, "1@40ms:reboot+160ms")
	kvOverloadCrash := kvOutage
	kvOverloadCrash.Overload = overload.DefaultPolicy()
	kvOutageCheck := kvOutage
	kvOutageCheck.DebugChecks = true

	svcGraph := DefaultSvcGraph()
	svcGraph.FaultSpec.Crashes = mustCrash(t, "2@40ms:reboot+40ms")
	svcGraphCheck := DefaultSvcGraph()
	svcGraphCheck.DebugChecks = true

	stormOff := DefaultStorm()
	stormOff.Overload.Enabled = false

	return []scenario{
		netRPCRow("netrpc", mk40, ds, DefaultNetRPC(), false),
		netRPCRow("netrpc-pairs", mk40, ds, pairs, false),
		netRPCRow("netrpc-pairs-faults", mk40, ds, pairsFaults, true),
		netRPCRow("netrpc-wide", mk40, ds, wide, false),
		netRPCRow("netrpc-link-delay", mk40, ds, linkDelay, true),
		netRPCRow("lossy-netrpc", mk40, ds, LossyNetRPC(), true),
		netRPCRow("lossy-netrpc-mk32", mk32, ds, LossyNetRPC(), true),
		netRPCRow("lossy-netrpc-pairs", mk40, ds, lossyPairs, true),
		netRPCRow("failover", mk40, ds, failover, false),
		netRPCRow("failover-crash-check-toshiba", mk40, toshiba, failoverCheck, true),
		kvRow("kv", mk40, ds, kv, false),
		kvRow("kv-healthy", mk40, ds, DefaultKV(), false),
		kvRow("kv-outage", mk40, ds, kvOutage, true),
		kvRow("kv-outage-check-mk32", mk32, ds, kvOutageCheck, true),
		kvRow("kv-nemesis", mk40, ds, kvNemesis, false),
		kvRow("kv-nemesis-delay", mk40, ds, kvNemesisDelay, true),
		kvRow("kv-overload-gray", mk40, ds, kvOverloadSpec(), true),
		kvRow("kv-overload-crash-toshiba", mk40, toshiba, kvOverloadCrash, true),
		svcGraphRow("svcgraph", mk40, ds, svcGraph),
		svcGraphRow("svcgraph-check-toshiba", mk40, toshiba, svcGraphCheck),
		stormRow("storm", mk40, DefaultStorm()),
		stormRow("storm-off", mk40, stormOff),
		mtLoadRow("mtload", mk40, 8, 20),
		mtLoadRow("mtload-16", mk40, 16, 60),
	}
}

// artifacts is what one run of a scenario exposes: the report, a line
// of counters per machine, and (when asked for) the SHA-256 of the
// Chrome export of every machine's recorder. A digest keeps the largest
// export, tens of megabytes, out of memory.
type artifacts struct {
	report, counters, export string
}

// runScenario runs sc under GOMAXPROCS procs on the chosen driver. An
// exporting run must have retained kernel events, or its export would
// compare equal to any other empty one; any other run must have
// retained none.
func runScenario(t *testing.T, sc scenario, procs int, parallel, export bool) artifacts {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	report, machines := sc.run(parallel, export)
	a := artifacts{report: report}
	retained := 0
	for _, sys := range machines {
		if r := sys.K.Obs; r != nil {
			retained += r.Len()
		}
	}
	if export && retained == 0 {
		t.Errorf("parallel=%v: exporting run retained no kernel events", parallel)
	} else if !export && retained != 0 {
		t.Errorf("parallel=%v: untraced run retained %d kernel events", parallel, retained)
	}
	var c strings.Builder
	for i, sys := range machines {
		nt := sys.NetTotals()
		fmt.Fprintf(&c, "machine %d: clock %d; %+v; injected %s; dev timeouts=%d retries=%d failures=%d; net rtx=%d acks=%d dups=%d lost=%d unacked=%d\n",
			i, sys.K.Clock.Now(), *sys.K.Stats, sys.FaultStats(),
			sys.Dev.IoTimeouts, sys.Dev.IoRetries, sys.Dev.IoFailures, nt.Retransmits,
			nt.AcksRx, nt.DupsDropped, nt.Lost, sys.UnackedLen())
	}
	a.counters = c.String()
	if export {
		recs := make([]*obs.Recorder, len(machines))
		for i, sys := range machines {
			recs[i] = sys.K.Obs
		}
		h := sha256.New()
		if err := obs.WriteChrome(h, recs...); err != nil {
			t.Fatalf("WriteChrome: %v", err)
		}
		a.export = fmt.Sprintf("%x", h.Sum(nil))
	}
	return a
}

// firstDiff locates the first line where got departs from want.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
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
	return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, at(w), at(g))
}

// contract is the runs a row's sequential GOMAXPROCS=1 run is compared
// with: the parallel driver at GOMAXPROCS 1 and 4 (the second also
// exporting its trace) and a sequential rerun at GOMAXPROCS 4. Only
// exporting runs retain kernel events, so the other two hold the
// untraced run, machsim's without -trace, to the same golden and
// counters: retention changes nothing but the trace.
var contract = []struct {
	procs            int
	parallel, export bool
}{{1, true, false}, {4, true, true}, {4, false, false}}

// rowRuns is one row's sequential GOMAXPROCS=1 run and its contract runs.
type rowRuns struct {
	want artifacts
	got  []artifacts // one per contract entry
}

func runRow(t *testing.T, sc scenario) *rowRuns {
	t.Helper()
	r := &rowRuns{want: runScenario(t, sc, 1, false, true)}
	for _, run := range contract {
		r.got = append(r.got, runScenario(t, sc, run.procs, run.parallel, run.export))
	}
	return r
}

// booked holds the runs TestGoldenReports made of each row, so a test
// that checks a row after it reuses them instead of booking the row
// again.
var booked = map[string]*rowRuns{}

// exportsPath pins every row's Chrome export: one "row digest" line per
// row, the SHA-256 of the sequential run's export.
var exportsPath = filepath.Join("testdata", "golden", "exports.sha256")

// readExports returns the pinned export digests by row name (none when
// the file is missing).
func readExports(t *testing.T) map[string]string {
	t.Helper()
	pins := map[string]string{}
	data, err := os.ReadFile(exportsPath)
	if os.IsNotExist(err) {
		return pins
	} else if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", exportsPath, line)
		}
		pins[name] = digest
	}
	return pins
}

// pinExport rewrites row's line of the pinned export digests, keeping
// every other row's.
func pinExport(t *testing.T, row, digest string) {
	t.Helper()
	pins := readExports(t)
	pins[row] = digest
	names := make([]string, 0, len(pins))
	for name := range pins {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s %s\n", name, pins[name])
	}
	if err := os.WriteFile(exportsPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkScenario holds r, the runs of sc, to the determinism contract.
// The sequential run at GOMAXPROCS=1 must render the report committed
// under testdata/golden and export the Chrome trace pinned in
// exports.sha256; every contract run must reproduce that report and
// every machine's clock, kernel, fault, device and netmsg counters byte
// for byte; and the parallel run at GOMAXPROCS 4 must export the same
// Chrome trace of every recorder.
func checkScenario(t *testing.T, sc scenario, r *rowRuns) {
	t.Helper()
	dir := filepath.Join("testdata", "golden")
	want := r.want
	path := filepath.Join(dir, sc.name+".txt")
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(want.report), 0o644); err != nil {
			t.Fatal(err)
		}
		pinExport(t, sc.name, want.export)
	} else {
		if golden, err := os.ReadFile(path); err != nil {
			t.Fatalf("%v (regenerate with -update-golden)", err)
		} else if want.report != string(golden) {
			t.Errorf("report differs from golden %s at %s", path, firstDiff(string(golden), want.report))
		}
		if pin, ok := readExports(t)[sc.name]; !ok {
			t.Errorf("%s pins no export for %s (regenerate with -update-golden)", exportsPath, sc.name)
		} else if want.export != pin {
			t.Errorf("trace export differs from %s (sha256 %s, want %s)", exportsPath, want.export, pin)
		}
	}
	for i, run := range contract {
		got := r.got[i]
		tag := fmt.Sprintf("parallel=%v GOMAXPROCS=%d", run.parallel, run.procs)
		if got.report != want.report {
			t.Errorf("%s: report differs from the sequential run at %s", tag, firstDiff(want.report, got.report))
		}
		if got.counters != want.counters {
			t.Errorf("%s: counters differ from the sequential run at %s", tag, firstDiff(want.counters, got.counters))
		}
		if run.export && got.export != want.export {
			t.Errorf("%s: trace export differs from the sequential run (sha256 %s, want %s)", tag, got.export, want.export)
		}
	}
}

// TestGoldenReports holds every scenario to the determinism contract
// (checkScenario), booking each row's runs afresh. A workload leaking
// wall-clock time, map order, goroutine scheduling or state from an
// earlier run shows up as a diff. Regenerate the goldens, only for an
// intended output change, with:
// go test ./internal/workload -run TestGoldenReports -update-golden
func TestGoldenReports(t *testing.T) {
	for _, sc := range scenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			r := runRow(t, sc)
			booked[sc.name] = r
			checkScenario(t, sc, r)
		})
	}
}

// checkRows holds the named rows to the determinism contract, reusing
// the runs TestGoldenReports booked and running a row itself when
// TestGoldenReports has not.
func checkRows(t *testing.T, names ...string) {
	t.Helper()
	rows := scenarios(t)
	for _, name := range names {
		i := slices.IndexFunc(rows, func(sc scenario) bool { return sc.name == name })
		if i < 0 {
			t.Fatalf("no scenario row %q", name)
		}
		r := booked[name]
		if r == nil {
			r = runRow(t, rows[i])
		}
		checkScenario(t, rows[i], r)
	}
}

// The tests below are the determinism tests the scenario table absorbed,
// kept under their names so each can still be run on its own: each
// holds the rows it used to run by hand to the full contract.

// TestRegistryDeterminism covers each workload's canonical run.
func TestRegistryDeterminism(t *testing.T) {
	for _, name := range []string{"netrpc", "lossy-netrpc", "failover", "kv", "kv-nemesis", "svcgraph", "storm", "mtload"} {
		t.Run(name, func(t *testing.T) { checkRows(t, name) })
	}
}

// TestRegistryIncludesMTLoad keeps mtload in the table; its golden pins
// the report's headline.
func TestRegistryIncludesMTLoad(t *testing.T) { checkRows(t, "mtload") }

// TestNetRPCDeterministic: the two-clock stepping rule admits exactly
// one schedule; per-machine clocks and kernel Stats ride the counter line.
func TestNetRPCDeterministic(t *testing.T) { checkRows(t, "netrpc") }

// TestParallelEquivalenceSingleMachinePair covers the degenerate shape:
// one pair (two machines) and one client.
func TestParallelEquivalenceSingleMachinePair(t *testing.T) { checkRows(t, "netrpc") }

// TestLossyNetRPCDeterminism: fault history, retransmits and invariant
// passes under 10% loss ride the counter line.
func TestLossyNetRPCDeterminism(t *testing.T) { checkRows(t, "lossy-netrpc") }

// TestParallelEquivalenceCrashFailover extends the contract to a machine
// that crashes and warm-reboots mid-run.
func TestParallelEquivalenceCrashFailover(t *testing.T) { checkRows(t, "failover") }

// TestSameSeedRunsIdentical: the crash/reboot/failover machinery adds no
// hidden nondeterminism across reruns.
func TestSameSeedRunsIdentical(t *testing.T) { checkRows(t, "failover") }

// TestKVParallelEquivalence covers the KV store under its crash plan.
func TestKVParallelEquivalence(t *testing.T) { checkRows(t, "kv") }

// TestSvcGraphParallelEquivalence covers the service graph under a
// backend crash.
func TestSvcGraphParallelEquivalence(t *testing.T) { checkRows(t, "svcgraph") }

// TestParallelEquivalenceStorm covers both arms of the storm.
func TestParallelEquivalenceStorm(t *testing.T) { checkRows(t, "storm", "storm-off") }
