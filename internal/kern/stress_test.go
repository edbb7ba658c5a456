package kern_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/workload"
)

// chaosProgram issues a random mix of every operation the kernel
// supports, driven by a seeded generator, so the stress harness explores
// interleavings no hand-written scenario covers.
type chaosProgram struct {
	sys     *kern.System
	rng     *workload.RNG
	service *ipc.Port
	reply   *ipc.Port
	excPort *ipc.Port
	ops     int
	limit   int
}

func (p *chaosProgram) Next(e *core.Env, t *core.Thread) core.Action {
	p.sys.IPC.Received(t) // drain the mailbox
	if p.ops >= p.limit {
		return core.Exit()
	}
	p.ops++
	switch p.rng.Intn(10) {
	case 0, 1, 2:
		return core.RunFor(uint64(1 + p.rng.Intn(200_000)))
	case 3, 4:
		return core.Syscall("rpc", func(e *core.Env) {
			req := p.sys.IPC.NewMessage(1, ipc.HeaderBytes+p.rng.Intn(512), p.ops, p.reply)
			p.sys.IPC.MachMsg(e, ipc.MsgOptions{
				Send: req, SendTo: p.service, ReceiveFrom: p.reply,
			})
		})
	case 5:
		return core.Action{Kind: core.ActFault, Addr: uint64(0x10000 + p.rng.Intn(1<<22))}
	case 6:
		if p.excPort != nil {
			return core.Action{Kind: core.ActException, Code: p.ops}
		}
		return core.Action{Kind: core.ActYield}
	case 7:
		return core.Action{Kind: core.ActYield}
	case 8:
		return core.Syscall("sleep", func(e *core.Env) {
			th := e.Cur()
			d := machine.Duration(1000 * (1 + p.rng.Intn(500)))
			p.sys.K.Clock.Schedule(p.sys.K.Clock.Now()+d, func(any) {
				if th.State() == core.StateWaiting {
					p.sys.K.Setrun(th)
				}
			}, nil)
			e.K.SetState(th, core.StateWaiting)
			p.sys.K.Block(e, stats.BlockInternal, chaosSleepDone,
				func(e2 *core.Env) { e2.K.ThreadSyscallReturn(e2, 0) }, 96, "chaos-sleep")
		})
	default:
		if p.rng.Hit(3000) {
			return core.Syscall("kmem", func(e *core.Env) {
				p.sys.AllocWait(e, 200, func(e2 *core.Env) {
					e2.K.ThreadSyscallReturn(e2, 0)
				})
			})
		}
		return core.Syscall("lock", func(e *core.Env) {
			p.sys.LockWait(e, 120, func(e2 *core.Env) {
				e2.K.ThreadSyscallReturn(e2, 0)
			})
		})
	}
}

var chaosSleepDone = core.NewContinuation("chaos_sleep_done", func(e *core.Env) {
	e.K.ThreadSyscallReturn(e, 0)
})

// chaosServer answers chaos RPCs and occasionally imposes a size
// constraint, forcing the slow-receive continuation.
type chaosServer struct {
	sys     *kern.System
	port    *ipc.Port
	rng     *workload.RNG
	pending *ipc.Message
	handled int
}

func (s *chaosServer) Next(e *core.Env, t *core.Thread) core.Action {
	if m := s.sys.IPC.Received(t); m != nil {
		s.pending = m
	}
	maxSize := 0
	if s.rng.Hit(2000) {
		maxSize = 4096
	}
	if s.pending == nil {
		return core.Syscall("recv", func(e *core.Env) {
			s.sys.IPC.MachMsg(e, ipc.MsgOptions{ReceiveFrom: s.port, MaxSize: maxSize})
		})
	}
	req := s.pending
	s.pending = nil
	s.handled++
	return core.Syscall("reply+recv", func(e *core.Env) {
		reply := s.sys.IPC.NewMessage(2, req.Size, req.Body, nil)
		s.sys.IPC.MachMsg(e, ipc.MsgOptions{
			Send: reply, SendTo: req.Reply, ReceiveFrom: s.port, MaxSize: maxSize,
		})
	})
}

// runChaos boots a full system, runs randomized programs, and validates
// every kernel invariant after every dispatcher step.
func runChaos(t *testing.T, flavor kern.Flavor, procs, clients int, seed uint64) {
	t.Helper()
	sys := kern.New(kern.Config{
		Flavor:     flavor,
		Arch:       machine.ArchDS3100,
		Processors: procs,
		Frames:     256, // small: force evictions and frame waits
	})
	rng := workload.NewRNG(seed)

	serverTask := sys.NewTask("server")
	service := sys.IPC.NewPort("service")
	for i := 0; i < 2; i++ {
		srv := &chaosServer{sys: sys, port: service, rng: workload.NewRNG(rng.Next())}
		sys.Start(serverTask.NewThread(fmt.Sprintf("srv-%d", i), srv, 20))
	}

	excTask := sys.NewTask("exc")
	excPort := sys.IPC.NewPort("exc")
	excSrv := &chaosServer{sys: sys, port: excPort, rng: workload.NewRNG(rng.Next())}
	_ = excSrv
	// Exceptions reply through the kernel sink; use a dedicated handler.
	excHandler := newChaosExcHandler(sys, excPort)
	sys.Start(excTask.NewThread("exc-handler", excHandler, 21))

	var threads []*core.Thread
	for i := 0; i < clients; i++ {
		task := sys.NewTask(fmt.Sprintf("chaos-%d", i))
		reply := sys.IPC.NewPort(fmt.Sprintf("reply-%d", i))
		prog := &chaosProgram{
			sys:     sys,
			rng:     workload.NewRNG(rng.Next()),
			service: service,
			reply:   reply,
			excPort: excPort,
			limit:   120,
		}
		th := task.NewThread("main", prog, 5+rng.Intn(10))
		sys.Exc.SetExceptionPort(th, excPort)
		threads = append(threads, th)
		sys.Start(th)
	}

	for steps := 0; steps < 5_000_000; steps++ {
		if !sys.K.Step() {
			break
		}
		if err := sys.K.Validate(); err != nil {
			t.Fatalf("seed %d, step %d: %v", seed, steps, err)
		}
	}
	for _, th := range threads {
		if th.State() != core.StateHalted {
			t.Fatalf("seed %d: %v never finished (state %v, wait %q)",
				seed, th, th.State(), th.WaitLabel)
		}
	}
}

// chaosExcHandler answers exception RPCs.
type chaosExcHandler struct {
	sys     *kern.System
	port    *ipc.Port
	pending *ipc.Message
}

func newChaosExcHandler(sys *kern.System, port *ipc.Port) *chaosExcHandler {
	return &chaosExcHandler{sys: sys, port: port}
}

func (h *chaosExcHandler) Next(e *core.Env, t *core.Thread) core.Action {
	if m := h.sys.IPC.Received(t); m != nil {
		h.pending = m
	}
	if h.pending == nil {
		return core.Syscall("recv", func(e *core.Env) {
			h.sys.IPC.MachMsg(e, ipc.MsgOptions{ReceiveFrom: h.port})
		})
	}
	req := h.pending
	h.pending = nil
	return core.Syscall("reply+recv", func(e *core.Env) {
		reply := h.sys.IPC.NewMessage(3, ipc.HeaderBytes, nil, nil)
		h.sys.IPC.MachMsg(e, ipc.MsgOptions{
			Send: reply, SendTo: req.Reply, ReceiveFrom: h.port,
		})
	})
}

func TestChaosMK40Uniprocessor(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		runChaos(t, kern.MK40, 1, 6, seed)
	}
}

func TestChaosMK40Multiprocessor(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		runChaos(t, kern.MK40, 4, 8, seed*101)
	}
}

func TestChaosMK32(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		runChaos(t, kern.MK32, 1, 5, seed*7)
	}
}

func TestChaosMach25(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		runChaos(t, kern.Mach25, 2, 5, seed*13)
	}
}

// TestChaosAblations runs the chaos mix, exception raises included,
// under each continuation ablation of MK40: the ablations change only
// how control reaches a waiting thread, so every client must finish.
func TestChaosAblations(t *testing.T) {
	for _, cfg := range []struct{ noHandoff, noRecognition bool }{
		{true, false}, {false, true}, {true, true},
	} {
		sys := kern.New(kern.Config{
			Flavor:        kern.MK40,
			Arch:          machine.ArchDS3100,
			NoHandoff:     cfg.noHandoff,
			NoRecognition: cfg.noRecognition,
			Frames:        256,
		})
		rng := workload.NewRNG(99)
		serverTask := sys.NewTask("server")
		service := sys.IPC.NewPort("service")
		srv := &chaosServer{sys: sys, port: service, rng: workload.NewRNG(rng.Next())}
		sys.Start(serverTask.NewThread("srv", srv, 20))
		excPort := sys.IPC.NewPort("exc")
		sys.Start(sys.NewTask("exc").NewThread("exc-handler", newChaosExcHandler(sys, excPort), 21))
		task := sys.NewTask("client")
		reply := sys.IPC.NewPort("reply")
		prog := &chaosProgram{
			sys: sys, rng: workload.NewRNG(rng.Next()),
			service: service, reply: reply, excPort: excPort, limit: 80,
		}
		th := task.NewThread("main", prog, 10)
		sys.Exc.SetExceptionPort(th, excPort)
		sys.Start(th)
		for steps := 0; steps < 2_000_000; steps++ {
			if !sys.K.Step() {
				break
			}
			if err := sys.K.Validate(); err != nil {
				t.Fatalf("ablation %+v, step %d: %v", cfg, steps, err)
			}
		}
		if th.State() != core.StateHalted {
			t.Fatalf("ablation %+v: client stuck in %v (%q)", cfg, th.State(), th.WaitLabel)
		}
		if raised := sys.Exc.FastRaises + sys.Exc.SlowRaises; raised == 0 {
			t.Fatalf("ablation %+v: the chaos mix raised no exception", cfg)
		}
	}
}
