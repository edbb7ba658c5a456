package kern_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/machine"
)

// blockThenExit issues one syscall, records its return value, and exits.
type blockThenExit struct {
	op   func(*core.Env)
	ret  uint64
	done bool
}

func (p *blockThenExit) Next(e *core.Env, th *core.Thread) core.Action {
	if p.done {
		p.ret = th.MD.RetVal
		return core.Exit()
	}
	p.done = true
	return core.Syscall("op", p.op)
}

// bootForAbort boots a system with the invariant checker armed on every
// dispatch and the callout thread disabled so callout accounting is exact.
func bootForAbort(flavor kern.Flavor) *kern.System {
	sys := kern.New(kern.Config{
		Flavor:         flavor,
		Arch:           machine.ArchDS3100,
		DisableCallout: true,
	})
	sys.K.DebugChecks = true
	return sys
}

// checkClean asserts the post-abort steady state: invariants hold, no
// armed callout leaked, and the stack census is conserved — zero stacks
// in the continuation kernel (all internal threads idle stackless), one
// dedicated stack per live kernel thread (pageout, io-done, netmsg,
// reaper) in the process-model kernels.
func checkClean(t *testing.T, sys *kern.System, flavor kern.Flavor) {
	t.Helper()
	sys.K.MustValidate()
	if got := sys.K.Clock.Pending(); got != 0 {
		t.Fatalf("leaked callouts: %d clock events still armed", got)
	}
	want := 0
	if flavor != kern.MK40 {
		want = 4
	}
	if got := sys.K.Stacks.InUse(); got != want {
		t.Fatalf("stack census = %d, want %d", got, want)
	}
	if sys.K.Stats.InvariantPasses == 0 {
		t.Fatal("invariant sweep never ran despite DebugChecks")
	}
}

func TestAbortBlockedReceive(t *testing.T) {
	for _, flavor := range []kern.Flavor{kern.MK40, kern.MK32, kern.Mach25} {
		t.Run(flavor.String(), func(t *testing.T) {
			sys := bootForAbort(flavor)
			task := sys.NewTask("t")
			port := sys.IPC.NewPort("empty")
			prog := &blockThenExit{op: func(e *core.Env) {
				sys.IPC.MachMsg(e, ipc.MsgOptions{ReceiveFrom: port})
			}}
			th := task.NewThread("rcv", prog, 10)
			sys.Start(th)
			sys.Run(0)
			if th.State() != core.StateWaiting {
				t.Fatalf("state before abort = %v", th.State())
			}
			if !sys.ThreadAbort(th) {
				t.Fatal("ThreadAbort refused a blocked receiver")
			}
			sys.Run(0)
			if th.State() != core.StateHalted {
				t.Fatalf("state after abort = %v", th.State())
			}
			if prog.ret != ipc.RcvInterrupted {
				t.Fatalf("retval = %#x, want RcvInterrupted", prog.ret)
			}
			if sys.K.Stats.Aborts != 1 {
				t.Fatalf("abort counter = %d", sys.K.Stats.Aborts)
			}
			checkClean(t, sys, flavor)
		})
	}
}

func TestAbortBlockedReceiveOnPortSet(t *testing.T) {
	sys := bootForAbort(kern.MK40)
	task := sys.NewTask("t")
	port := sys.IPC.NewPort("member")
	set := sys.IPC.NewPortSet("set")
	sys.IPC.AddToSet(port, set)
	prog := &blockThenExit{op: func(e *core.Env) {
		sys.IPC.MachMsg(e, ipc.MsgOptions{ReceiveFromSet: set})
	}}
	th := task.NewThread("rcv", prog, 10)
	sys.Start(th)
	sys.Run(0)
	if !sys.ThreadAbort(th) {
		t.Fatal("ThreadAbort refused a set receiver")
	}
	sys.Run(0)
	if prog.ret != ipc.RcvInterrupted {
		t.Fatalf("retval = %#x, want RcvInterrupted", prog.ret)
	}
	checkClean(t, sys, kern.MK40)
}

// sendSpam fills a port's queue past its limit; the overflow send parks
// on the full queue with a send timeout armed.
type sendSpam struct {
	sys  *kern.System
	port *ipc.Port
	n    int
	sent int
	ret  uint64
}

func (p *sendSpam) Next(e *core.Env, th *core.Thread) core.Action {
	if p.sent > 0 {
		p.ret = th.MD.RetVal
	}
	if p.sent >= p.n {
		return core.Exit()
	}
	p.sent++
	return core.Syscall("send", func(e *core.Env) {
		m := p.sys.IPC.NewMessage(1, ipc.HeaderBytes, p.sent, nil)
		p.sys.IPC.MachMsg(e, ipc.MsgOptions{
			Send: m, SendTo: p.port,
			SndTimeout: machine.Duration(1_000_000_000), // far future
		})
	})
}

func TestAbortBlockedSendCancelsTimeout(t *testing.T) {
	sys := bootForAbort(kern.MK40)
	task := sys.NewTask("t")
	port := sys.IPC.NewPort("stuffed")
	prog := &sendSpam{sys: sys, port: port, n: ipc.DefaultQueueLimit + 1}
	th := task.NewThread("snd", prog, 10)
	sys.Start(th)
	// StepNoAdvance never moves the clock, so the armed send timeout
	// cannot fire; the overflow send is parked when progress stops.
	for sys.K.StepNoAdvance() {
	}
	if th.State() != core.StateWaiting {
		t.Fatalf("state before abort = %v", th.State())
	}
	if got := sys.K.Clock.Pending(); got != 1 {
		t.Fatalf("armed callouts before abort = %d, want 1 (snd timeout)", got)
	}
	if !sys.ThreadAbort(th) {
		t.Fatal("ThreadAbort refused a parked sender")
	}
	if got := sys.K.Clock.Pending(); got != 0 {
		t.Fatalf("abort left %d callouts armed", got)
	}
	sys.Run(0)
	if prog.ret != ipc.SendInterrupted {
		t.Fatalf("retval = %#x, want SendInterrupted", prog.ret)
	}
	checkClean(t, sys, kern.MK40)
}

func TestAbortBlockedDeviceRead(t *testing.T) {
	// MK40 aborts a continuation-blocked reader; MK32 exercises the
	// process-model path, discarding the preserved kernel stack frames.
	for _, flavor := range []kern.Flavor{kern.MK40, kern.MK32} {
		t.Run(flavor.String(), func(t *testing.T) {
			sys := bootForAbort(flavor)
			task := sys.NewTask("t")
			prog := &blockThenExit{op: func(e *core.Env) {
				sys.Dev.DeviceRead(e, sys.Disk, 4096)
			}}
			th := task.NewThread("rd", prog, 10)
			sys.Start(th)
			// Stop before the disk completion interrupt can fire.
			for sys.K.StepNoAdvance() {
			}
			if th.State() != core.StateWaiting {
				t.Fatalf("state before abort = %v", th.State())
			}
			if !sys.ThreadAbort(th) {
				t.Fatal("ThreadAbort refused a blocked reader")
			}
			// The in-flight transfer still completes; io_done must discard
			// the orphaned completion.
			sys.Run(0)
			if prog.ret != dev.DevAborted {
				t.Fatalf("retval = %d, want DevAborted", prog.ret)
			}
			if th.State() != core.StateHalted {
				t.Fatalf("state after abort = %v", th.State())
			}
			checkClean(t, sys, flavor)
		})
	}
}

func TestAbortRefusesUnabortableThreads(t *testing.T) {
	sys := bootForAbort(kern.MK40)
	task := sys.NewTask("t")
	th := task.NewThread("idle", core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
		return core.Exit()
	}), 10)
	// Created threads are waiting but registered on no waiter list.
	if sys.ThreadAbort(th) {
		t.Fatal("ThreadAbort aborted a thread not blocked in IPC or dev")
	}
	sys.Start(th)
	if sys.ThreadAbort(th) {
		t.Fatal("ThreadAbort aborted a runnable thread")
	}
	sys.Run(0)
	if sys.ThreadAbort(th) {
		t.Fatal("ThreadAbort aborted a halted thread")
	}
	if sys.K.Stats.Aborts != 0 {
		t.Fatalf("Aborts = %d, want 0", sys.K.Stats.Aborts)
	}
}
