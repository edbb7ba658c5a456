package kern_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/stats"
)

// TestFlavorProperties checks what a kernel derives from its flavor, the
// one place its identity is kept: only MK40 starts threads stackless
// (they block with continuations), and only the process-model kernels
// charge VM bookkeeping per pageable stack.
func TestFlavorProperties(t *testing.T) {
	for _, tc := range []struct {
		flavor          kern.Flavor
		name, flag      string
		stackless       bool
		stackVMMetadata int
	}{
		{kern.MK40, "MK40", "mk40", true, 0},
		{kern.MK32, "MK32", "mk32", false, 116},
		{kern.Mach25, "Mach 2.5", "mach25", false, 116},
	} {
		sys := kern.New(kern.Config{Flavor: tc.flavor, Arch: machine.ArchDS3100, DisableCallout: true, DisableDaemons: true})
		th := sys.NewTask("t").NewThread("u", nil, 10)
		if sys.K.Flavor != tc.flavor || th.HasStack() == tc.stackless ||
			sys.K.Stacks.VMMetadataBytes != tc.stackVMMetadata {
			t.Errorf("%v: kernel flavor %v, new thread stack %v, stack VM metadata %d",
				tc.flavor, sys.K.Flavor, th.HasStack(), sys.K.Stacks.VMMetadataBytes)
		}
		if f, err := kern.ParseFlavor(tc.flag); tc.flavor.String() != tc.name || err != nil || f != tc.flavor {
			t.Errorf("%v: string %q, flag %q parses to %v (%v)", tc.flavor, tc.flavor.String(), tc.flag, f, err)
		}
	}
}

func TestStaticThreadSpaceMatchesTable5(t *testing.T) {
	mk40 := kern.StaticThreadSpace(kern.MK40)
	if mk40.MIState != 484 || mk40.MDState != 206 || mk40.StackBytes != 0 || mk40.VMState != 0 {
		t.Fatalf("MK40 space = %+v", mk40)
	}
	if mk40.Total() != 690 {
		t.Fatalf("MK40 total = %d, want 690", mk40.Total())
	}
	mk32 := kern.StaticThreadSpace(kern.MK32)
	if mk32.Total() != 4664 {
		t.Fatalf("MK32 total = %d, want 4664", mk32.Total())
	}
	// The headline claim: 85% less space per thread.
	saving := 1 - float64(mk40.Total())/float64(mk32.Total())
	if saving < 0.85 {
		t.Fatalf("space saving = %.1f%%, want >= 85%%", 100*saving)
	}
}

// echoServer answers every message on its port.
type echoServer struct {
	sys     *kern.System
	port    *ipc.Port
	pending *ipc.Message
	handled int
}

func (s *echoServer) Next(e *core.Env, t *core.Thread) core.Action {
	if m := s.sys.IPC.Received(t); m != nil {
		s.pending = m
	}
	if s.pending == nil {
		return core.Syscall("receive", func(e *core.Env) {
			s.sys.IPC.MachMsg(e, ipc.MsgOptions{ReceiveFrom: s.port})
		})
	}
	req := s.pending
	s.pending = nil
	s.handled++
	return core.Syscall("reply+receive", func(e *core.Env) {
		reply := s.sys.IPC.NewMessage(1, ipc.HeaderBytes, req.Body, nil)
		s.sys.IPC.MachMsg(e, ipc.MsgOptions{
			Send: reply, SendTo: req.Reply, ReceiveFrom: s.port,
		})
	})
}

// echoClient issues rpcs RPCs then exits.
type echoClient struct {
	sys    *kern.System
	server *ipc.Port
	reply  *ipc.Port
	rpcs   int
	done   int
}

func (c *echoClient) Next(e *core.Env, t *core.Thread) core.Action {
	if c.done >= c.rpcs {
		return core.Exit()
	}
	c.done++
	return core.Syscall("rpc", func(e *core.Env) {
		req := c.sys.IPC.NewMessage(1, ipc.HeaderBytes, c.done, c.reply)
		c.sys.IPC.MachMsg(e, ipc.MsgOptions{
			Send: req, SendTo: c.server, ReceiveFrom: c.reply,
		})
	})
}

func bootRPCPair(t *testing.T, flavor kern.Flavor, rpcs int, disableCallout bool) (*kern.System, *echoServer) {
	t.Helper()
	sys := kern.New(kern.Config{
		Flavor:         flavor,
		Arch:           machine.ArchDS3100,
		DisableCallout: disableCallout,
	})
	serverTask := sys.NewTask("server")
	clientTask := sys.NewTask("client")
	sp := sys.IPC.NewPort("service")
	rp := sys.IPC.NewPort("reply")
	srv := &echoServer{sys: sys, port: sp}
	cli := &echoClient{sys: sys, server: sp, reply: rp, rpcs: rpcs}
	st := serverTask.NewThread("srv", srv, 20)
	ct := clientTask.NewThread("cli", cli, 10)
	sys.Start(st)
	sys.Start(ct)
	return sys, srv
}

func TestBootAndRPCEachFlavor(t *testing.T) {
	for _, flavor := range []kern.Flavor{kern.MK40, kern.MK32, kern.Mach25} {
		sys, srv := bootRPCPair(t, flavor, 10, false)
		sys.Run(0)
		if srv.handled != 10 {
			t.Fatalf("%v: handled = %d", flavor, srv.handled)
		}
	}
}

func TestMK40SteadyStateStackCensus(t *testing.T) {
	// §3.4: in the steady state only two stacks are in use — one for the
	// currently running thread and one for the internal kernel thread
	// that never blocks with a continuation.
	sys, _ := bootRPCPair(t, kern.MK40, 200, false)
	sys.Run(0)
	if got := sys.K.Stacks.InUse(); got != 1 {
		// At quiescence only the callout thread's stack remains (nothing
		// is running).
		t.Fatalf("stacks in use at quiescence = %d, want 1 (callout)", got)
	}
	avg := sys.K.Stacks.AverageInUse()
	if avg < 1 || avg > 2.6 {
		t.Fatalf("average stacks in use = %.3f, want about 2", avg)
	}
}

func TestMK32StacksArePerThread(t *testing.T) {
	sys, _ := bootRPCPair(t, kern.MK32, 50, false)
	sys.Run(0)
	// Client halted (stack freed at reap); every live kernel thread holds
	// a dedicated stack under the process model: server, callout, pageout,
	// io-done, netmsg and reaper.
	if got := sys.K.Stacks.InUse(); got != 6 {
		t.Fatalf("stacks in use = %d, want 6 (server + 5 kernel threads)", got)
	}
}

func TestCalloutTicksAndKeepsStack(t *testing.T) {
	sys := kern.New(kern.Config{Flavor: kern.MK40, Arch: machine.ArchDS3100})
	// Nothing else to do: run a few simulated minutes of callout ticks.
	sys.Run(machine.Time(200_000_000_000))
	if sys.CalloutTicks < 3 {
		t.Fatalf("CalloutTicks = %d", sys.CalloutTicks)
	}
	if !sys.Callout.HasStack() {
		t.Fatal("callout thread lost its dedicated stack")
	}
	if sys.Callout.Cont != nil {
		t.Fatal("callout thread blocked with a continuation")
	}
	if sys.K.Stats.TotalNoDiscards() == 0 {
		t.Fatal("callout blocks not in the no-discard row")
	}
}

func TestMeasuredPerThreadBytes(t *testing.T) {
	// With many threads blocked in receive, MK40's measured per-thread
	// memory approaches the Table 5 static value (fixed state only),
	// while MK32's includes a full stack per thread.
	mk40 := measureIdleReceivers(t, kern.MK40, 20)
	mk32 := measureIdleReceivers(t, kern.MK32, 20)
	if mk40 > 900 {
		t.Fatalf("MK40 per-thread bytes = %.0f, want < 900", mk40)
	}
	if mk32 < 4000 {
		t.Fatalf("MK32 per-thread bytes = %.0f, want > 4000", mk32)
	}
	saving := 1 - mk40/mk32
	if saving < 0.8 {
		t.Fatalf("measured saving = %.0f%%", 100*saving)
	}
}

func measureIdleReceivers(t *testing.T, flavor kern.Flavor, n int) float64 {
	t.Helper()
	sys := kern.New(kern.Config{
		Flavor:         flavor,
		Arch:           machine.ArchDS3100,
		DisableCallout: true,
	})
	task := sys.NewTask("pool")
	port := sys.IPC.NewPort("idle")
	for i := 0; i < n; i++ {
		prog := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
			return core.Syscall("receive", func(e *core.Env) {
				sys.IPC.MachMsg(e, ipc.MsgOptions{ReceiveFrom: port})
			})
		})
		sys.Start(task.NewThread("idle", prog, 10))
	}
	sys.Run(0)
	if sys.LiveUserThreads() != n {
		t.Fatalf("live threads = %d", sys.LiveUserThreads())
	}
	return sys.MeasuredPerThreadBytes()
}

func TestAllocAndLockWaits(t *testing.T) {
	sys := kern.New(kern.Config{Flavor: kern.MK40, Arch: machine.ArchDS3100, DisableCallout: true})
	task := sys.NewTask("t")
	var seq int
	prog := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
		seq++
		switch seq {
		case 1:
			return core.Syscall("alloc", func(e *core.Env) {
				sys.AllocWait(e, 256, func(e2 *core.Env) {
					e2.K.ThreadSyscallReturn(e2, 0)
				})
			})
		case 2:
			return core.Syscall("lock", func(e *core.Env) {
				sys.LockWait(e, 128, func(e2 *core.Env) {
					e2.K.ThreadSyscallReturn(e2, 0)
				})
			})
		default:
			return core.Exit()
		}
	})
	th := task.NewThread("w", prog, 10)
	sys.Start(th)
	sys.Run(0)
	if th.State() != core.StateHalted {
		t.Fatalf("state = %v", th.State())
	}
	if sys.AllocWaits != 1 || sys.LockWaits != 1 {
		t.Fatalf("alloc=%d lock=%d", sys.AllocWaits, sys.LockWaits)
	}
	if sys.K.Stats.BlocksWithoutDiscard[stats.BlockKernelAlloc] != 1 ||
		sys.K.Stats.BlocksWithoutDiscard[stats.BlockLock] != 1 {
		t.Fatal("alloc/lock waits not tallied as process-model blocks")
	}
}

func TestTaskThreadNaming(t *testing.T) {
	sys := kern.New(kern.Config{Flavor: kern.MK40, Arch: machine.ArchDS3100})
	task := sys.NewTask("emacs")
	th := task.NewThread("main", core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
		return core.Exit()
	}), 5)
	if got := th.Name().String(); got != "emacs/main" {
		t.Fatalf("thread name = %q", got)
	}
	if len(sys.Tasks()) != 1 || sys.Tasks()[0].ID != task.ID {
		t.Fatal("task registry wrong")
	}
	if th.SpaceID != task.ID {
		t.Fatal("thread space mismatch")
	}
}

// TestUnstartedThreadCensus pins how a created but never started thread
// enters the blocked-thread census: it is born waiting, so it adds one to
// BlockedHighWater (and to the live threads) of an otherwise identical
// run.
func TestUnstartedThreadCensus(t *testing.T) {
	for _, tc := range []struct {
		unstarted bool
		want      obs.Census
	}{
		{false, obs.Census{StackHighWater: 2, BlockedHighWater: 5, LiveThreads: 5}},
		{true, obs.Census{StackHighWater: 2, BlockedHighWater: 6, LiveThreads: 6}},
	} {
		sys := kern.New(kern.Config{Flavor: kern.MK40, Arch: machine.ArchDS3100})
		task := sys.NewTask("idle")
		if tc.unstarted {
			task.NewThread("never-started", exitProg, 10)
		}
		sys.Start(task.NewThread("runner", exitProg, 10))
		sys.Run(0)
		if got := sys.MemoryCensus(); got != tc.want {
			t.Errorf("unstarted thread %v: census = %+v, want %+v", tc.unstarted, got, tc.want)
		}
	}
}
