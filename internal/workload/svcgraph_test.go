package workload

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/kern"
	"repro/internal/machine"
)

// TestSvcGraphHealthy runs the three-tier chain with no faults: every
// frontend op completes through the cache, reads are consistent, and the
// read-heavy mix produces real cache hits plus real backend traffic.
func TestSvcGraphHealthy(t *testing.T) {
	spec := DefaultSvcGraph()
	res := RunSvcGraph(kern.MK40, machine.ArchDS3100, spec)

	want := spec.Frontends * svcGraphOps
	if res.Completed != want || res.Failed != 0 {
		t.Fatalf("completed %d failed %d, want %d/0", res.Completed, res.Failed, want)
	}
	if res.Mismatches != 0 {
		t.Fatalf("consistency mismatches through the cache: %d", res.Mismatches)
	}
	cs := res.Cache.Stats
	if cs.Hits == 0 {
		t.Fatal("read-heavy run produced no cache hits")
	}
	if cs.Misses == 0 || cs.WriteThroughs == 0 {
		t.Fatalf("no backend traffic: %+v", *cs)
	}
	st := res.ReplicaTotals()
	if st.Gets == 0 || st.Puts == 0 {
		t.Fatalf("backend saw no leader traffic: %+v", st)
	}
	if st.Elections != 0 {
		t.Fatalf("healthy run saw %d elections", st.Elections)
	}
}

// TestSvcGraphEviction squeezes the cache capacity below the key working
// set and checks FIFO eviction kicks in without hurting consistency.
func TestSvcGraphEviction(t *testing.T) {
	spec := DefaultSvcGraph()
	spec.Capacity = 4
	res := RunSvcGraph(kern.MK40, machine.ArchDS3100, spec)

	if res.Completed != spec.Frontends*svcGraphOps || res.Mismatches != 0 {
		t.Fatalf("completed %d mismatches %d", res.Completed, res.Mismatches)
	}
	if res.Cache.Stats.Evictions == 0 {
		t.Fatal("capacity squeeze produced no evictions")
	}
}

// TestSvcGraphBackendCrash crashes the KV primary under the cache: the
// cache workers fail over to the elected backup and every frontend op
// still completes.
func TestSvcGraphBackendCrash(t *testing.T) {
	spec := DefaultSvcGraph()
	spec.FaultSpec.Crashes = []fault.Crash{{
		Machine:     2,
		At:          machine.Duration(40 * 1e6),
		RebootAfter: machine.Duration(40 * 1e6),
	}}
	res := RunSvcGraph(kern.MK40, machine.ArchDS3100, spec)

	want := spec.Frontends * svcGraphOps
	if res.Completed != want || res.Failed != 0 {
		t.Fatalf("completed %d failed %d, want %d/0", res.Completed, res.Failed, want)
	}
	if res.Mismatches != 0 {
		t.Fatalf("consistency mismatches: %d", res.Mismatches)
	}
	st := res.ReplicaTotals()
	if st.Elections == 0 {
		t.Fatal("no election after the backend primary crashed")
	}
	if st.Syncs == 0 {
		t.Fatal("the rebooted primary never resynced")
	}
}
