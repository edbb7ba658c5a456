// External tests: the device subsystem is exercised through a fully
// booted kern.System, which the dev package itself cannot import.
package dev_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/stats"
)

const fastDisk = machine.Duration(500 * 1000) // 500 µs

func bootMK40(t *testing.T) *kern.System {
	t.Helper()
	return kern.New(kern.Config{
		Flavor: kern.MK40, Arch: machine.ArchDS3100,
		DisableCallout: true, DiskLatency: fastDisk,
	})
}

// oneReader creates a user thread that issues n device_read calls of the
// given size against the system's disk, then exits.
func oneReader(sys *kern.System, name string, n, bytes int) *core.Thread {
	task := sys.NewTask(name)
	done := 0
	prog := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
		if done >= n {
			return core.Exit()
		}
		done++
		return core.Syscall("device_read", func(e *core.Env) {
			d := sys.Dev.Open(e, "disk")
			sys.Dev.DeviceRead(e, d, bytes)
		})
	})
	return task.NewThread("rd", prog, 10)
}

// TestInterruptsAllocateNoStacks is the zero-stack invariant: a phase of
// pure interrupt delivery allocates no kernel stacks — neither the
// in-use count nor the pool high-water moves. (TakeInterrupt additionally
// panics if any single handler changes the census.)
func TestInterruptsAllocateNoStacks(t *testing.T) {
	sys := bootMK40(t)
	sys.Start(oneReader(sys, "warm", 2, 4096))
	sys.Run(0) // quiesce with the daemons parked in their continuations

	inUse := sys.K.Stacks.InUse()
	maxInUse := sys.K.Stacks.MaxInUse()
	before := sys.K.Stats.Interrupts

	const n = 40
	for i := 0; i < n; i++ {
		sys.K.TakeInterrupt("spurious", func(e *core.Env) {
			e.Charge(machine.Cost{Instrs: 50, Loads: 10, Stores: 5})
		})
	}

	if got := sys.K.Stats.Interrupts - before; got != n {
		t.Fatalf("interrupts taken = %d, want %d", got, n)
	}
	if got := sys.K.Stacks.InUse(); got != inUse {
		t.Fatalf("stacks in use moved during interrupt-only phase: %d -> %d", inUse, got)
	}
	if got := sys.K.Stacks.MaxInUse(); got != maxInUse {
		t.Fatalf("stack high-water moved during interrupt-only phase: %d -> %d", maxInUse, got)
	}
}

// TestDeviceReadHandoffAndRecognition checks the continuation fast path
// end to end on MK40: the reader blocks with device_read_continue and
// discards its stack; the io_done thread hands its stack over and
// recognizes the continuation.
func TestDeviceReadHandoffAndRecognition(t *testing.T) {
	sys := bootMK40(t)
	sys.Start(oneReader(sys, "reader", 1, 4096))
	sys.Run(0)

	st := sys.K.Stats
	if got := st.BlocksWithDiscard[stats.BlockDeviceIO]; got != 1 {
		t.Fatalf("device-io blocks with discard = %d, want 1", got)
	}
	if got := st.BlocksWithoutDiscard[stats.BlockDeviceIO]; got != 0 {
		t.Fatalf("device-io blocks without discard = %d, want 0", got)
	}
	if sys.Dev.IoDoneHandoffs != 1 {
		t.Fatalf("io_done handoffs = %d, want 1", sys.Dev.IoDoneHandoffs)
	}
	if st.IoDoneRecognitions != 1 {
		t.Fatalf("io_done recognitions = %d, want 1", st.IoDoneRecognitions)
	}
	if st.Interrupts == 0 {
		t.Fatal("no interrupts taken")
	}
	if sys.Disk.Requests != 1 || sys.Disk.Interrupts != 1 {
		t.Fatalf("disk requests/interrupts = %d/%d, want 1/1",
			sys.Disk.Requests, sys.Disk.Interrupts)
	}
	if sys.Dev.Reads != 1 {
		t.Fatalf("device reads = %d, want 1", sys.Dev.Reads)
	}
}

// TestDeviceReadProcessModel checks the same path under MK32: the reader
// keeps its stack while blocked and the io_done thread wakes it through
// the scheduler — no handoff, no recognition, same completion.
func TestDeviceReadProcessModel(t *testing.T) {
	sys := kern.New(kern.Config{
		Flavor: kern.MK32, Arch: machine.ArchDS3100,
		DisableCallout: true, DiskLatency: fastDisk,
	})
	sys.Start(oneReader(sys, "reader", 1, 4096))
	sys.Run(0)

	st := sys.K.Stats
	if got := st.BlocksWithoutDiscard[stats.BlockDeviceIO]; got != 1 {
		t.Fatalf("device-io blocks without discard = %d, want 1", got)
	}
	if got := st.BlocksWithDiscard[stats.BlockDeviceIO]; got != 0 {
		t.Fatalf("device-io blocks with discard = %d, want 0", got)
	}
	if sys.Dev.IoDoneHandoffs != 0 {
		t.Fatalf("io_done handoffs = %d, want 0 under the process model", sys.Dev.IoDoneHandoffs)
	}
	if sys.Disk.Requests != 1 {
		t.Fatalf("disk requests = %d, want 1", sys.Disk.Requests)
	}
}

// TestRequestQueueDepth checks that concurrent requests queue on the one
// device and the high-water mark sees it.
func TestRequestQueueDepth(t *testing.T) {
	sys := bootMK40(t)
	for i := 0; i < 3; i++ {
		sys.Start(oneReader(sys, "reader", 4, 2048))
	}
	sys.Run(0)

	if sys.Disk.QueueHighWater < 2 {
		t.Fatalf("queue high-water = %d, want >= 2 with 3 concurrent readers",
			sys.Disk.QueueHighWater)
	}
	if sys.Disk.Requests != 12 {
		t.Fatalf("disk requests = %d, want 12", sys.Disk.Requests)
	}
	if sys.Disk.QueueDepth() != 0 {
		t.Fatalf("queue depth at quiescence = %d, want 0", sys.Disk.QueueDepth())
	}
}

// TestDeviceWrite checks the write path and its charge-up-front copyin.
func TestDeviceWrite(t *testing.T) {
	sys := bootMK40(t)
	task := sys.NewTask("writer")
	wrote := false
	prog := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
		if wrote {
			return core.Exit()
		}
		wrote = true
		return core.Syscall("device_write", func(e *core.Env) {
			d := sys.Dev.Open(e, "disk")
			sys.Dev.DeviceWrite(e, d, 8192)
		})
	})
	sys.Start(task.NewThread("wr", prog, 10))
	sys.Run(0)

	if sys.Dev.Writes != 1 {
		t.Fatalf("device writes = %d, want 1", sys.Dev.Writes)
	}
	if got := sys.K.Stats.BlocksWithDiscard[stats.BlockDeviceIO]; got != 1 {
		t.Fatalf("device-io blocks = %d, want 1", got)
	}
}

// TestNICPairDelivery checks the raw wire: a packet transmitted on one
// machine arrives by interrupt on the peer and is counted, even with no
// exported destination (netmsg drops it).
func TestNICPairDelivery(t *testing.T) {
	a := bootMK40(t)
	b := bootMK40(t)
	dev.Connect(a.Net.NIC, b.Net.NIC, 0)

	cluster := kern.NewCluster(a, b)
	task := a.NewTask("tx")
	sent := false
	prog := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
		if sent {
			return core.Exit()
		}
		sent = true
		return core.Syscall("net-tx", func(e *core.Env) {
			a.Net.NIC.Transmit(e, &dev.Packet{DstPort: "nowhere", Size: 128})
			a.K.ThreadSyscallReturn(e, 0)
		})
	})
	a.Start(task.NewThread("tx", prog, 10))
	cluster.Drive(false)

	if a.Net.NIC.TxPackets != 1 {
		t.Fatalf("tx packets = %d, want 1", a.Net.NIC.TxPackets)
	}
	if b.Net.NIC.RxPackets != 1 || b.Net.NIC.Interrupts != 1 {
		t.Fatalf("rx packets/interrupts = %d/%d, want 1/1",
			b.Net.NIC.RxPackets, b.Net.NIC.Interrupts)
	}
	if b.Net.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1 (no exported port)", b.Net.Dropped)
	}
	if b.K.Clock.Now() <= a.K.Clock.Now() && b.Net.NIC.RxPackets == 0 {
		t.Fatal("peer clock never advanced to the arrival")
	}
}
