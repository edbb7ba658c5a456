package workload

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/kern"
	"repro/internal/machine"
)

// kvTotalOps is the op count a KV spec's callers issue in total.
func kvTotalOps(spec KVSpec) int { return 2 * spec.Clients * spec.Ops }

// TestKVNoCrash runs the healthy cluster: every operation completes,
// reads match acknowledged writes, and no election ever fires.
func TestKVNoCrash(t *testing.T) {
	spec := DefaultKV()
	res := RunKV(kern.MK40, machine.ArchDS3100, spec)

	if res.Completed != kvTotalOps(spec) || res.Failed != 0 {
		t.Fatalf("completed %d failed %d, want %d/0", res.Completed, res.Failed, kvTotalOps(spec))
	}
	if res.Mismatches != 0 {
		t.Fatalf("consistency mismatches: %d", res.Mismatches)
	}
	st := res.ReplicaTotals()
	if st.Elections != 0 || st.FencingRejections != 0 || st.Deposed != 0 {
		t.Fatalf("healthy run saw elections %d, fencing %d, deposed %d",
			st.Elections, st.FencingRejections, st.Deposed)
	}
	if st.Puts == 0 || st.Gets == 0 || st.Replicated == 0 {
		t.Fatalf("no real traffic: %+v", st)
	}
	if st.Replicated != st.Puts {
		t.Fatalf("puts %d but replicated %d in a crash-free run", st.Puts, st.Replicated)
	}
}

// TestKVPrimaryCrash is the acceptance scenario: crash the rank-0
// replica mid-run with a warm reboot. Every client op must still
// complete, the backup must win at least one election, and the rebooted
// primary's stale-epoch rejoin must be fenced at least once.
func TestKVPrimaryCrash(t *testing.T) {
	spec := DefaultKV()
	spec.FaultSpec.Crashes = []fault.Crash{{
		Machine:     1,
		At:          machine.Duration(40 * 1e6),
		RebootAfter: machine.Duration(40 * 1e6),
	}}
	res := RunKV(kern.MK40, machine.ArchDS3100, spec)

	if res.Completed != kvTotalOps(spec) || res.Failed != 0 {
		t.Fatalf("completed %d failed %d, want %d/0", res.Completed, res.Failed, kvTotalOps(spec))
	}
	if res.Mismatches != 0 {
		t.Fatalf("consistency mismatches: %d", res.Mismatches)
	}
	st := res.ReplicaTotals()
	if st.Elections == 0 {
		t.Fatal("no election after the primary crashed")
	}
	if st.FencingRejections == 0 {
		t.Fatal("no fencing rejection — the rebooted primary was never fenced")
	}
	if st.Syncs == 0 {
		t.Fatal("the rebooted primary never completed a rejoin state sync")
	}
	if res.Recovery.Crashes != 1 || res.Recovery.Reboots != 1 {
		t.Fatalf("crashes %d reboots %d, want 1/1", res.Recovery.Crashes, res.Recovery.Reboots)
	}
}

// TestKVStaggeredCrashes kills each replica in turn (never overlapping,
// so no solo-acked write is ever lost): completion and consistency must
// hold through both elections and both rejoins.
func TestKVStaggeredCrashes(t *testing.T) {
	spec := DefaultKV()
	spec.Ops = 120
	spec.FaultSpec.Crashes = []fault.Crash{
		{Machine: 1, At: machine.Duration(40 * 1e6), RebootAfter: machine.Duration(40 * 1e6)},
		{Machine: 2, At: machine.Duration(160 * 1e6), RebootAfter: machine.Duration(40 * 1e6)},
	}
	res := RunKV(kern.MK40, machine.ArchDS3100, spec)

	if res.Completed != kvTotalOps(spec) || res.Failed != 0 {
		t.Fatalf("completed %d failed %d, want %d/0", res.Completed, res.Failed, kvTotalOps(spec))
	}
	if res.Mismatches != 0 {
		t.Fatalf("consistency mismatches: %d", res.Mismatches)
	}
	st := res.ReplicaTotals()
	if st.Elections < 2 {
		t.Fatalf("elections %d, want at least one per crash", st.Elections)
	}
	if st.Syncs < 2 {
		t.Fatalf("syncs %d, want one per reboot", st.Syncs)
	}
	if res.Recovery.Crashes != 2 || res.Recovery.Reboots != 2 {
		t.Fatalf("crashes %d reboots %d, want 2/2", res.Recovery.Crashes, res.Recovery.Reboots)
	}
}
