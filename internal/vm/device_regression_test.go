package vm_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/stats"
)

// serialFaulter touches n distinct pages one at a time, so the paging
// disk never sees more than one outstanding request (queue depth 1).
func serialFaulter(sys *kern.System, n int) *core.Thread {
	task := sys.NewTask("storm")
	pos := 0
	prog := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
		if pos >= n {
			return core.Exit()
		}
		pos++
		return core.Action{Kind: core.ActFault, Addr: uint64(0x100000 + pos*0x1000)}
	})
	return task.NewThread("faulter", prog, 10)
}

// TestPagerStormLegacyVersusDevice is the regression gate for the disk
// device rewiring: a serial pager storm must behave identically whether
// page-ins go through the legacy flat-latency path (a kernel booted
// without the device subsystem) or the queued disk device at queue depth
// 1 — same faults, same residency, same blocks — and the device path's
// added interrupt overhead must be negligible against the 20 ms disk.
func TestPagerStormLegacyVersusDevice(t *testing.T) {
	const pages = 60
	boot := func(legacy bool) *kern.System {
		return kern.New(kern.Config{
			Flavor: kern.MK40, Arch: machine.ArchDS3100,
			Frames: 512, DisableCallout: true, DisableDaemons: legacy,
		})
	}

	run := func(legacy bool) *kern.System {
		sys := boot(legacy)
		sys.Start(serialFaulter(sys, pages))
		sys.Run(0)
		return sys
	}

	legacy := run(true)
	device := run(false)

	if legacy.VM.DiskFaults != device.VM.DiskFaults {
		t.Fatalf("disk faults: legacy %d, device %d",
			legacy.VM.DiskFaults, device.VM.DiskFaults)
	}
	if legacy.VM.DiskFaults != pages {
		t.Fatalf("disk faults = %d, want %d", legacy.VM.DiskFaults, pages)
	}
	if legacy.VM.FastFaults != device.VM.FastFaults {
		t.Fatalf("fast faults: legacy %d, device %d",
			legacy.VM.FastFaults, device.VM.FastFaults)
	}
	if legacy.VM.ResidentTotal() != device.VM.ResidentTotal() {
		t.Fatalf("resident pages: legacy %d, device %d",
			legacy.VM.ResidentTotal(), device.VM.ResidentTotal())
	}
	lb := legacy.K.Stats.BlocksWithDiscard[stats.BlockPageFault]
	db := device.K.Stats.BlocksWithDiscard[stats.BlockPageFault]
	if lb != db {
		t.Fatalf("page-fault blocks: legacy %d, device %d", lb, db)
	}

	// Serial faulting means the disk never queues.
	if hw := device.Disk.QueueHighWater; hw != 1 {
		t.Fatalf("disk queue high-water = %d, want 1 for a serial storm", hw)
	}
	if device.Disk.Requests != pages {
		t.Fatalf("disk requests = %d, want %d", device.Disk.Requests, pages)
	}
	if device.K.Stats.Interrupts < pages {
		t.Fatalf("interrupts = %d, want >= %d", device.K.Stats.Interrupts, pages)
	}

	// The device path adds interrupt entry/exit and io_done bookkeeping
	// per fault — microseconds against a 20 ms disk.
	lt, dt := float64(legacy.K.Clock.Now()), float64(device.K.Clock.Now())
	if diff := (dt - lt) / lt; diff < 0 || diff > 0.02 {
		t.Fatalf("elapsed drifted %.4f%% (legacy %.3fms, device %.3fms)",
			100*diff, lt/1e6, dt/1e6)
	}
}

// TestPagerStormQueueing is the other half of the rewiring's point:
// concurrent faulters on the device path contend for the one spindle,
// which the flat-latency path cannot express.
func TestPagerStormQueueing(t *testing.T) {
	sys := kern.New(kern.Config{
		Flavor: kern.MK40, Arch: machine.ArchDS3100,
		Frames: 512, DisableCallout: true,
	})
	for i := 0; i < 4; i++ {
		sys.Start(serialFaulter(sys, 20))
	}
	sys.Run(0)

	if hw := sys.Disk.QueueHighWater; hw < 2 {
		t.Fatalf("disk queue high-water = %d, want >= 2 with 4 concurrent faulters", hw)
	}
	if sys.VM.DiskFaults != 80 {
		t.Fatalf("disk faults = %d, want 80", sys.VM.DiskFaults)
	}
}
