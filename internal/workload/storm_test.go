package workload

import (
	"strings"
	"testing"

	"repro/internal/kern"
	"repro/internal/machine"
)

// TestStormMetastableOff pins the scenario's negative arm: with the
// overload controls disabled, the canonical trigger (demand burst +
// cache gray + link delay) tips the cluster into a metastable retry
// storm — goodput collapses below half of baseline and stays there for
// at least five trigger durations after the trigger has cleared. The
// servers aren't down; they're saturated servicing retransmits of work
// whose clients gave up long ago.
func TestStormMetastableOff(t *testing.T) {
	spec := DefaultStorm()
	spec.Overload.Enabled = false
	res := RunStorm(kern.MK40, machine.ArchDS3100, spec)

	if res.Baseline <= 0 {
		t.Fatalf("no pre-trigger baseline goodput: %+v", res.Baseline)
	}
	if !res.Metastable {
		t.Fatalf("controls-off run did not go metastable: collapsed for %v (want >= %v)",
			res.CollapsedFor, 5*(res.TriggerEnd-res.TriggerAt))
	}
	// Even a collapsed run must be consistent: abandoned ops are
	// indeterminate, not lost, and nobody split-brains under load.
	if !res.Check.Linearizable {
		t.Fatalf("collapsed run not linearizable: %s", res.Check)
	}
	if len(res.SplitBrain) != 0 {
		t.Fatalf("split brain under overload: %+v", res.SplitBrain)
	}
	if res.Mismatches != 0 {
		t.Fatalf("%d mismatches", res.Mismatches)
	}
	// The controls were off, so no tier may have shed anything.
	kv := replicaOvTotals(res.Replicas)
	if res.FrontOv.Shed() != 0 || res.Cache.Ov.Shed() != 0 || kv.Shed() != 0 {
		t.Fatalf("controls-off run shed work: front %+v cache %+v kv %+v",
			res.FrontOv, res.Cache.Ov, kv)
	}
	// The report's verdict line says so; CI greps for it.
	var report strings.Builder
	WriteStormReport(&report, kern.MK40, machine.ArchDS3100, res)
	for _, want := range []string{
		"overload storm report (controls off)",
		"verdict: METASTABLE",
	} {
		if !strings.Contains(report.String(), want) {
			t.Errorf("controls-off report missing %q:\n%s", want, report.String())
		}
	}
}

// TestStormRecoveredOn pins the positive arm: the same trigger with the
// controls armed costs a dip, not a collapse. Goodput is back to 90% of
// baseline within two trigger durations, every control actually fired,
// and the shed work was provably side-effect free.
func TestStormRecoveredOn(t *testing.T) {
	spec := DefaultStorm()
	res := RunStorm(kern.MK40, machine.ArchDS3100, spec)

	if res.Metastable {
		t.Fatalf("controls-on run went metastable (collapsed %v)", res.CollapsedFor)
	}
	if !res.Recovered {
		t.Fatalf("controls-on run did not recover in bound: 90%% after %v (bound %v)",
			res.RecoveryAfter, 2*(res.TriggerEnd-res.TriggerAt))
	}
	if !res.Check.Linearizable {
		t.Fatalf("armed run not linearizable: %s", res.Check)
	}
	if len(res.SplitBrain) != 0 {
		t.Fatalf("split brain: %+v", res.SplitBrain)
	}
	if res.Mismatches != 0 {
		t.Fatalf("%d mismatches", res.Mismatches)
	}
	// The storm must have exercised each control: the breaker opened and
	// fast-failed locally, and at least one service tier shed dead or
	// inadmissible work.
	if res.FrontOv.BreakerOpens == 0 || res.FrontOv.BreakerFastFail == 0 {
		t.Fatalf("breaker never engaged: %+v", res.FrontOv)
	}
	if res.Cache.Ov.Expired+res.Cache.Ov.Rejected == 0 {
		t.Fatalf("cache tier never shed: %+v", res.Cache.Ov)
	}
	if res.Cache.Ov.Admitted == 0 {
		t.Fatal("cache admitted nothing")
	}
	// Every arrival is accounted for exactly once.
	total := 0
	for _, b := range res.Curve {
		total += b.Offered
	}
	total += res.Tail.Offered
	if got := res.Completed + res.Failed; got != total {
		t.Fatalf("ledger mismatch: %d offered vs %d disposed", total, got)
	}
}

// TestStormReport pins the controls-on report's machine-checkable
// lines — CI greps for the verdicts. TestStormMetastableOff checks the
// controls-off arm's.
func TestStormReport(t *testing.T) {
	var b strings.Builder
	WriteStormReport(&b, kern.MK40, machine.ArchDS3100, RunStorm(kern.MK40, machine.ArchDS3100, DefaultStorm()))
	on := b.String()
	for _, want := range []string{
		"overload storm report (controls on)",
		"verdict: RECOVERED",
		"per-tier overload counters:",
		"frontend.fail",
		"checker: linearizable",
		"split brain: none",
		"burst x5 at 60ms for 20ms",
	} {
		if !strings.Contains(on, want) {
			t.Errorf("controls-on report missing %q:\n%s", want, on)
		}
	}
}
