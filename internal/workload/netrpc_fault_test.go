package workload_test

import (
	"testing"

	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/workload"
)

// TestLossyNetRPCCompletes is the robustness acceptance run: under 10%
// injected packet loss plus device failures and latency spikes, every
// cross-machine RPC still completes, carried by retransmission and the
// device retry path, and the invariant sweep stays clean the whole way.
func TestLossyNetRPCCompletes(t *testing.T) {
	spec := workload.LossyNetRPC()
	res := workload.RunNetRPC(kern.MK40, machine.ArchDS3100, spec)

	if res.Completed != spec.RPCs {
		t.Fatalf("completed %d of %d RPCs under loss", res.Completed, spec.RPCs)
	}
	for i, n := range res.DiskReadsDone {
		if n != spec.DiskReads {
			t.Fatalf("machine %d finished %d of %d disk reads", i, n, spec.DiskReads)
		}
	}
	for _, sys := range []*kern.System{res.Client, res.Server} {
		fs := sys.FaultStats()
		if fs.Drops == 0 {
			t.Fatal("no packets dropped — the lossy run injected nothing")
		}
		if sys.Net.UnackedLen() != 0 {
			t.Fatalf("%d packets still unacked at quiescence", sys.Net.UnackedLen())
		}
		if sys.Net.Lost != 0 {
			t.Fatalf("%d packets abandoned under recoverable loss", sys.Net.Lost)
		}
		if sys.K.Stats.InvariantPasses == 0 {
			t.Fatal("invariant sweep never ran despite DebugChecks")
		}
		sys.K.MustValidate()
	}
	if res.Client.Net.Retransmits+res.Server.Net.Retransmits == 0 {
		t.Fatal("no retransmissions despite 10% loss")
	}
}

// TestNetRPCLossSweep sweeps the injected packet-loss rate and requires
// every RPC to complete at each point — latency degrades under loss,
// delivery does not. Run with -v for the EXPERIMENTS.md throughput
// table.
func TestNetRPCLossSweep(t *testing.T) {
	for _, loss := range []float64{0, 0.1, 0.2, 0.3} {
		spec := workload.DefaultNetRPC()
		spec.FaultSeed = 1991
		spec.FaultSpec.DropProb = loss
		spec.DebugChecks = true
		res := workload.RunNetRPC(kern.MK40, machine.ArchDS3100, spec)
		if res.Completed != spec.RPCs {
			t.Fatalf("loss %.0f%%: completed %d of %d RPCs", loss*100, res.Completed, spec.RPCs)
		}
		rexmit := res.Client.Net.Retransmits + res.Server.Net.Retransmits
		if loss > 0 && rexmit == 0 {
			t.Fatalf("loss %.0f%%: no retransmissions", loss*100)
		}
		res.Client.K.MustValidate()
		res.Server.K.MustValidate()
		t.Logf("loss %3.0f%%: %d RPCs in %7.2f ms, %5.1f RPC/s, %d retransmits",
			loss*100, res.Completed, float64(res.Elapsed)/1e6,
			float64(res.Completed)/res.Elapsed.Seconds(), rexmit)
	}
}
