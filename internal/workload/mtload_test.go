package workload

import (
	"strings"
	"testing"

	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/obs"
)

// TestMTLoadSpaceClaim pins the paper's space claim at cluster scale:
// blocked sessions scale with the load while every machine's kernel
// stack pool stays bounded by its processor count.
func TestMTLoadSpaceClaim(t *testing.T) {
	spec := DefaultMTLoad()
	spec.Machines = 16
	spec.SessionsPerTenant = 200 // 800 sessions across 8 pairs
	res := RunMTLoad(kern.MK40, machine.ArchDS3100, spec)

	var ops, attainable uint64
	totalSessions := 0
	for i := range res.PerTenant {
		ops += res.PerTenant[i].Ops
		attainable += uint64(res.PerTenant[i].Sessions * spec.Ops)
		totalSessions += res.PerTenant[i].Sessions
	}
	if ops != attainable {
		t.Fatalf("completed ops %d != sessions*ops %d — sessions stalled", ops, attainable)
	}

	var blocked uint64
	maxStacks := 0
	for _, sys := range res.Machines {
		mc := sys.MemoryCensus()
		blocked += uint64(mc.BlockedHighWater)
		if mc.StackHighWater > maxStacks {
			maxStacks = mc.StackHighWater
		}
	}
	if blocked < uint64(totalSessions) {
		t.Fatalf("blocked high-water %d < %d sessions: think sleeps are not blocking", blocked, totalSessions)
	}
	// Machines boot with one processor; a small constant covers the
	// transient second stack a handoff or interrupt can pin.
	if maxStacks > 4 {
		t.Fatalf("max per-machine stack high-water %d at %d sessions: stacks not O(processors)",
			maxStacks, totalSessions)
	}
}

// TestMTLoadBalancerSpread checks the placement invariant the report
// advertises: the greedy balancer keeps the per-pair session counts
// within one of each other when every tenant's sessions divide evenly.
func TestMTLoadBalancerSpread(t *testing.T) {
	tenants := MakeTenants(3, 40)
	counts := placeSessions(tenants, 8)
	min, max := -1, 0
	for p := range counts {
		n := 0
		for ti := range tenants {
			n += counts[p][ti]
		}
		if min < 0 || n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max-min > 1 {
		t.Fatalf("per-pair session spread %d (min %d, max %d), want <= 1", max-min, min, max)
	}
	total := 0
	for p := range counts {
		for ti := range tenants {
			total += counts[p][ti]
		}
	}
	if total != 3*40 {
		t.Fatalf("placed %d sessions, want %d", total, 3*40)
	}
}

// TestMTLoadCensusPinned pins the exact memory census of a small mtload
// run — per machine and the cluster report line — at the values the
// original registry scan produced, so the O(1) waiting count can never
// drift from it.
func TestMTLoadCensusPinned(t *testing.T) {
	spec := DefaultMTLoad()
	spec.Machines = 4
	spec.SessionsPerTenant = 40
	res := RunMTLoad(kern.MK40, machine.ArchDS3100, spec)
	want := []obs.Census{
		{StackHighWater: 2, BlockedHighWater: 85, LiveThreads: 5},
		{StackHighWater: 2, BlockedHighWater: 9, LiveThreads: 9},
		{StackHighWater: 2, BlockedHighWater: 85, LiveThreads: 5},
		{StackHighWater: 2, BlockedHighWater: 9, LiveThreads: 9},
	}
	for i, sys := range res.Machines {
		if got := sys.MemoryCensus(); i >= len(want) || got != want[i] {
			t.Errorf("machine %d census = %+v, want %+v", i, got, want[i])
		}
	}
	var report strings.Builder
	WriteMTLoadReport(&report, res)
	const line = "memory census (cluster): 8 stacks high-water vs 188 blocked threads high-water (28 live threads); max per-machine stacks 2\n"
	if !strings.Contains(report.String(), line) {
		t.Errorf("report lacks %q", line)
	}
}
