package workload

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/kern"
	"repro/internal/machine"
)

// TestSvcGraphPartitionHonored cuts the cache off from the rest of the
// chain: the link plane must sever packets, the run must take longer
// than the healthy one yet still complete every op, and the report must
// carry the nemesis timeline, byte-identical under the parallel driver.
func TestSvcGraphPartitionHonored(t *testing.T) {
	healthy := RunSvcGraph(kern.MK40, machine.ArchDS3100, DefaultSvcGraph())
	spec := DefaultSvcGraph()
	spec.FaultSeed, spec.FaultSpec = mustFlag(t, "7:partition=1|0.2.3@20ms+60ms")
	report := func(parallel bool) (*SvcGraphResult, string) {
		spec.Parallel = parallel
		res := RunSvcGraph(kern.MK40, machine.ArchDS3100, spec)
		var buf bytes.Buffer
		WriteSvcGraphReport(&buf, kern.MK40, machine.ArchDS3100, res, NetRPCReportOptions{Faults: true})
		return res, buf.String()
	}
	res, seq := report(false)

	var severed uint64
	for _, sys := range res.Machines {
		for _, l := range sys.Links {
			severed += l.NIC.Severed
		}
	}
	if severed == 0 {
		t.Fatal("partition severed no packets")
	}
	if res.Elapsed <= healthy.Elapsed {
		t.Fatalf("partitioned run took %v, healthy %v: the partition did not bite", res.Elapsed, healthy.Elapsed)
	}
	if res.Completed != healthy.Completed || res.Mismatches != 0 {
		t.Fatalf("completed %d (healthy %d), %d mismatches", res.Completed, healthy.Completed, res.Mismatches)
	}
	if !strings.Contains(seq, "nemesis schedule:") {
		t.Fatalf("report lacks the nemesis timeline:\n%s", seq)
	}
	if _, par := report(true); par != seq {
		t.Fatalf("parallel report diverged:\nsequential:\n%s\nparallel:\n%s", seq, par)
	}
}

// TestNetRPCGrayHonored slows the echo server to 1/10 speed for a window:
// every RPC still completes, later than in the healthy run, identically
// under the parallel driver.
func TestNetRPCGrayHonored(t *testing.T) {
	healthy := RunNetRPC(kern.MK40, machine.ArchDS3100, DefaultNetRPC())
	spec := DefaultNetRPC()
	spec.FaultSeed, spec.FaultSpec = mustFlag(t, "7:gray=1:10@5ms+50ms")
	report := func(parallel bool) (*NetRPCResult, string) {
		spec.Parallel = parallel
		res := RunNetRPC(kern.MK40, machine.ArchDS3100, spec)
		var buf bytes.Buffer
		WriteNetRPCReport(&buf, kern.MK40, machine.ArchDS3100, res, NetRPCReportOptions{Faults: true})
		return res, buf.String()
	}
	res, seq := report(false)
	if res.Completed != spec.RPCs {
		t.Fatalf("completed %d RPCs, want %d", res.Completed, spec.RPCs)
	}
	if res.Elapsed <= healthy.Elapsed {
		t.Fatalf("gray run took %v, healthy %v: the gray window did not bite", res.Elapsed, healthy.Elapsed)
	}
	if _, par := report(true); par != seq {
		t.Fatalf("parallel report diverged:\nsequential:\n%s\nparallel:\n%s", seq, par)
	}
}
