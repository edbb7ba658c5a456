package workload

import (
	"testing"

	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/stats"
)

// TestNetRPCCompletesAndDiscards is the cross-machine acceptance check:
// the client finishes every RPC, the disk readers drain, device-I/O
// blocks are ≥90% stack discards, and every continuation mechanism the
// device subsystem adds fires at least once on both machines.
func TestNetRPCCompletesAndDiscards(t *testing.T) {
	spec := DefaultNetRPC()
	res := RunNetRPC(kern.MK40, machine.ArchDS3100, spec)

	if res.Completed != spec.RPCs {
		t.Fatalf("completed %d RPCs, want %d", res.Completed, spec.RPCs)
	}
	for i, n := range res.DiskReadsDone {
		if n != spec.DiskReads {
			t.Fatalf("machine %d finished %d disk reads, want %d", i, n, spec.DiskReads)
		}
	}
	for i, sys := range []*kern.System{res.Client, res.Server} {
		st := sys.K.Stats
		disc := st.BlocksWithDiscard[stats.BlockDeviceIO]
		noDisc := st.BlocksWithoutDiscard[stats.BlockDeviceIO]
		if disc+noDisc == 0 {
			t.Fatalf("machine %d saw no device-io blocks", i)
		}
		if pct := stats.Percent(disc, disc+noDisc); pct < 90 {
			t.Fatalf("machine %d device-io discards = %.1f%%, want >= 90%%", i, pct)
		}
		if st.Handoffs == 0 || st.Recognitions == 0 {
			t.Fatalf("machine %d: handoffs=%d recognitions=%d, want both nonzero",
				i, st.Handoffs, st.Recognitions)
		}
		if st.Interrupts == 0 {
			t.Fatalf("machine %d took no interrupts", i)
		}
		if sys.Dev.IoDoneHandoffs == 0 || st.IoDoneRecognitions == 0 {
			t.Fatalf("machine %d: ioDoneHandoffs=%d ioDoneRecognitions=%d, want both nonzero",
				i, sys.Dev.IoDoneHandoffs, st.IoDoneRecognitions)
		}
		if sys.Net.NIC.TxPackets != uint64(spec.RPCs) || sys.Net.NIC.RxPackets != uint64(spec.RPCs) {
			t.Fatalf("machine %d nic tx/rx = %d/%d, want %d/%d",
				i, sys.Net.NIC.TxPackets, sys.Net.NIC.RxPackets, spec.RPCs, spec.RPCs)
		}
		if sys.Net.Dropped != 0 {
			t.Fatalf("machine %d dropped %d packets", i, sys.Net.Dropped)
		}
	}
}

// TestNetRPCProcessModel checks the same workload completes on the MK32
// kernel: the netmsg path's fast handoffs are MK40-only, but the wire
// protocol and the device queueing are kernel-style independent.
func TestNetRPCProcessModel(t *testing.T) {
	spec := DefaultNetRPC()
	spec.RPCs = 20
	spec.DiskReads = 10
	res := RunNetRPC(kern.MK32, machine.ArchDS3100, spec)
	if res.Completed != spec.RPCs {
		t.Fatalf("completed %d RPCs, want %d", res.Completed, spec.RPCs)
	}
	st := res.Client.K.Stats
	if got := st.BlocksWithoutDiscard[stats.BlockDeviceIO]; got == 0 {
		t.Fatal("MK32 device-io blocks should keep their stacks")
	}
}

// TestNetRPCCompletesAllClients checks the generalized driver's
// accounting: every client on every pair finishes its full RPC count.
func TestNetRPCCompletesAllClients(t *testing.T) {
	spec := DefaultNetRPC()
	spec.Pairs = 2
	spec.Clients = 3
	spec.Parallel = true
	res := RunNetRPC(kern.MK40, machine.ArchDS3100, spec)
	want := spec.Pairs * spec.Clients * spec.RPCs
	if res.Completed != want {
		t.Fatalf("Completed = %d, want %d", res.Completed, want)
	}
	if len(res.Machines) != 2*spec.Pairs {
		t.Fatalf("len(Machines) = %d, want %d", len(res.Machines), 2*spec.Pairs)
	}
	if res.Client != res.Machines[0] || res.Server != res.Machines[1] {
		t.Fatal("Client/Server do not alias pair 0's machines")
	}
	for i := range res.DiskReadsDone {
		if res.DiskReadsDone[i] != spec.DiskReads {
			t.Fatalf("DiskReadsDone[%d] = %d, want %d", i, res.DiskReadsDone[i], spec.DiskReads)
		}
	}
}
