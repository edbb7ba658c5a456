package workload

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/kern"
	"repro/internal/machine"
)

// crashSpec is the acceptance scenario: the HA topology with the primary
// server crashing mid-run and warm-rebooting while RPCs are in flight.
// The reboot lands while the clients still have work, so both the
// failover and the failback paths run.
func crashSpec() NetRPCSpec {
	spec := DefaultNetRPC()
	spec.Failover = true
	spec.FaultSpec.Crashes = []fault.Crash{
		{Machine: 1, At: machine.Time(40 * 1e6), RebootAfter: machine.Duration(40 * 1e6)},
	}
	return spec
}

// TestCrashFailoverCompletesAllRPCs is the headline acceptance check:
// crashing the primary of four machines mid-run still completes 100% of
// the RPCs — the clients fail over to the replica and fail back after
// the warm reboot — with the invariant sweep and watchdog on throughout.
func TestCrashFailoverCompletesAllRPCs(t *testing.T) {
	spec := crashSpec()
	spec.DebugChecks = true
	res := RunNetRPC(kern.MK40, machine.ArchDS3100, spec)

	want := 2 * spec.RPCs // one client thread on each of the two client machines
	if res.Completed != want {
		t.Fatalf("Completed = %d, want %d (Failed=%d)", res.Completed, want, res.Recovery.Failed)
	}
	r := res.Recovery
	if r.Failed != 0 {
		t.Fatalf("%d RPCs abandoned", r.Failed)
	}
	if r.Crashes != 1 || r.Reboots != 1 {
		t.Fatalf("Crashes=%d Reboots=%d, want 1/1", r.Crashes, r.Reboots)
	}
	if r.Failovers == 0 || r.Failbacks == 0 {
		t.Fatalf("Failovers=%d Failbacks=%d — clients never switched", r.Failovers, r.Failbacks)
	}
	if r.DeathsDetected == 0 || r.Recoveries == 0 {
		t.Fatalf("DeathsDetected=%d Recoveries=%d — membership layer silent", r.DeathsDetected, r.Recoveries)
	}
	if r.Salvaged == 0 {
		t.Fatal("no RPC needed a retry despite the crash window")
	}
	if res.Machines[1].Incarnation != 2 {
		t.Fatalf("primary incarnation = %d, want 2", res.Machines[1].Incarnation)
	}
	if res.Machines[1].PanicRecord == nil {
		t.Fatal("primary kept no panic record")
	}
}

// TestCrashWithoutRebootFailsOver: a primary that dies for good still
// loses no RPCs — the clients finish on the replica and never fail back.
func TestCrashWithoutRebootFailsOver(t *testing.T) {
	spec := DefaultNetRPC()
	spec.Failover = true
	spec.DiskReads = 0 // the primary's readers would die with it anyway
	spec.FaultSpec.Crashes = []fault.Crash{
		{Machine: 1, At: machine.Time(40 * 1e6)},
	}
	res := RunNetRPC(kern.MK40, machine.ArchDS3100, spec)
	if want := 2 * spec.RPCs; res.Completed != want {
		t.Fatalf("Completed = %d, want %d", res.Completed, want)
	}
	r := res.Recovery
	if r.Crashes != 1 || r.Reboots != 0 {
		t.Fatalf("Crashes=%d Reboots=%d, want 1/0", r.Crashes, r.Reboots)
	}
	if r.Failovers == 0 || r.Failbacks != 0 {
		t.Fatalf("Failovers=%d Failbacks=%d, want >0/0", r.Failovers, r.Failbacks)
	}
	if !res.Machines[1].Down {
		t.Fatal("unrebooted primary reports itself up")
	}
}

// TestFailoverWithoutCrashes: the HA topology with no fault plan behaves
// like plain netrpc — everything completes on the primary, no switches.
func TestFailoverWithoutCrashes(t *testing.T) {
	spec := DefaultNetRPC()
	spec.Failover = true
	res := RunNetRPC(kern.MK40, machine.ArchDS3100, spec)
	if want := 2 * spec.RPCs; res.Completed != want {
		t.Fatalf("Completed = %d, want %d", res.Completed, want)
	}
	r := res.Recovery
	if r.Failovers != 0 || r.Failbacks != 0 || r.Salvaged != 0 || r.Failed != 0 {
		t.Fatalf("quiet run switched servers: %+v", r)
	}
}

// TestRecoveryReportSection: the machsim report for a crash run carries
// the recovery accounting and the HA machine labels.
func TestRecoveryReportSection(t *testing.T) {
	spec := crashSpec()
	res := RunNetRPC(kern.MK40, machine.ArchDS3100, spec)
	var buf bytes.Buffer
	WriteNetRPCReport(&buf, kern.MK40, machine.ArchDS3100, res, NetRPCReportOptions{})
	out := buf.String()
	for _, want := range []string{
		"machine 1 (primary)",
		"machine 2 (replica)",
		"recovery:",
		"machine crashes 1, warm reboots 1",
		"failovers",
		"RPCs salvaged",
		"machine 1 last panic inc=1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
