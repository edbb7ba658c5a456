package ipc_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/ipc"
	"repro/internal/machine"
	"repro/internal/sched"
)

func newIPCKernel(t *testing.T, flavor core.Flavor) (*core.Kernel, *ipc.IPC) {
	t.Helper()
	k := core.NewKernel(core.Config{
		Model:  machine.NewCostModel(machine.ArchDS3100),
		Flavor: flavor,
	})
	k.Sched = sched.New(0)
	return k, ipc.New(k)
}

// rpcClient issues count null RPCs to server, then exits.
type rpcClient struct {
	x      *ipc.IPC
	server *ipc.Port
	reply  *ipc.Port
	count  int
	done   int
	// replies collects the bodies of received replies.
	replies []any
}

func (c *rpcClient) Next(e *core.Env, t *core.Thread) core.Action {
	if m := c.x.Received(t); m != nil {
		c.replies = append(c.replies, m.Body)
	}
	if c.done >= c.count {
		return core.Exit()
	}
	c.done++
	return core.Syscall("mach_msg(rpc)", func(e *core.Env) {
		req := c.x.NewMessage(100, ipc.HeaderBytes, c.done, c.reply)
		c.x.MachMsg(e, ipc.MsgOptions{
			Send:        req,
			SendTo:      c.server,
			ReceiveFrom: c.reply,
		})
	})
}

// rpcServer receives on port and answers every request, forever.
type rpcServer struct {
	x    *ipc.IPC
	port *ipc.Port
	// handled counts requests served.
	handled int
	// maxSize, when nonzero, makes every receive use the slow path.
	maxSize int
	pending *ipc.Message
}

func (s *rpcServer) Next(e *core.Env, t *core.Thread) core.Action {
	if m := s.x.Received(t); m != nil {
		s.pending = m
	}
	if s.pending == nil {
		// First entry: block receiving.
		return core.Syscall("mach_msg(receive)", func(e *core.Env) {
			s.x.MachMsg(e, ipc.MsgOptions{ReceiveFrom: s.port, MaxSize: s.maxSize})
		})
	}
	req := s.pending
	s.pending = nil
	s.handled++
	return core.Syscall("mach_msg(reply+receive)", func(e *core.Env) {
		reply := s.x.NewMessage(200, ipc.HeaderBytes, req.Body, nil)
		s.x.MachMsg(e, ipc.MsgOptions{
			Send:        reply,
			SendTo:      req.Reply,
			ReceiveFrom: s.port,
			MaxSize:     s.maxSize,
		})
	})
}

// runRPC wires a client/server pair and runs to quiescence.
func runRPC(t *testing.T, flavor core.Flavor, rpcs, maxSize int) (*core.Kernel, *ipc.IPC, *rpcClient, *rpcServer) {
	t.Helper()
	k, x := newIPCKernel(t, flavor)
	serverPort := x.NewPort("server")
	replyPort := x.NewPort("reply")
	srv := &rpcServer{x: x, port: serverPort, maxSize: maxSize}
	cli := &rpcClient{x: x, server: serverPort, reply: replyPort, count: rpcs}
	st := k.NewThread(core.ThreadSpec{Name: core.NameOf("server"), SpaceID: 2, Program: srv})
	ct := k.NewThread(core.ThreadSpec{Name: core.NameOf("client"), SpaceID: 1, Program: cli})
	k.Setrun(st)
	k.Setrun(ct)
	k.Run(0)
	if ct.State() != core.StateHalted {
		t.Fatalf("client did not finish: %v", ct.State())
	}
	return k, x, cli, srv
}

func TestNullRPCMK40FastPath(t *testing.T) {
	k, x, cli, srv := runRPC(t, core.MK40, 10, 0)
	if srv.handled != 10 || len(cli.replies) != 10 {
		t.Fatalf("handled=%d replies=%d", srv.handled, len(cli.replies))
	}
	// Replies carry the request bodies back, in order.
	for i, b := range cli.replies {
		if b.(int) != i+1 {
			t.Fatalf("reply %d = %v", i, b)
		}
	}
	// The fast path must dominate: after the first exchange the pair is
	// in steady state with handoff + recognition on every transfer.
	if x.FastRPCs < 15 {
		t.Fatalf("FastRPCs = %d, want >= 15 of ~20 transfers", x.FastRPCs)
	}
	if k.Stats.Recognitions < 15 {
		t.Fatalf("Recognitions = %d", k.Stats.Recognitions)
	}
	if k.Stats.Handoffs < 15 {
		t.Fatalf("Handoffs = %d", k.Stats.Handoffs)
	}
}

func TestNullRPCMK40BypassesQueue(t *testing.T) {
	k, x, _, _ := runRPC(t, core.MK40, 20, 0)
	_ = k
	if x.QueuedSends > 2 {
		t.Fatalf("fast path queued %d messages", x.QueuedSends)
	}
}

func TestNullRPCMK40SteadyStateStacks(t *testing.T) {
	k, _, _, _ := runRPC(t, core.MK40, 50, 0)
	// Client and server share one stack via handoff; the high-water mark
	// stays tiny.
	if k.Stacks.MaxInUse() > 2 {
		t.Fatalf("stack high water = %d", k.Stacks.MaxInUse())
	}
}

func TestNullRPCMK32DirectSwitch(t *testing.T) {
	k, x, cli, srv := runRPC(t, core.MK32, 10, 0)
	if srv.handled != 10 || len(cli.replies) != 10 {
		t.Fatalf("handled=%d replies=%d", srv.handled, len(cli.replies))
	}
	if x.DirectSwitches < 15 {
		t.Fatalf("DirectSwitches = %d", x.DirectSwitches)
	}
	if k.Stats.Handoffs != 0 {
		t.Fatalf("MK32 performed %d stack handoffs", k.Stats.Handoffs)
	}
	if x.QueuedSends > 2 {
		t.Fatalf("MK32 fast path queued %d messages", x.QueuedSends)
	}
	if k.Stats.ContextSwitches < 15 {
		t.Fatalf("ContextSwitches = %d", k.Stats.ContextSwitches)
	}
}

func TestNullRPCMach25Queues(t *testing.T) {
	k, x, cli, srv := runRPC(t, core.Mach25, 10, 0)
	if srv.handled != 10 || len(cli.replies) != 10 {
		t.Fatalf("handled=%d replies=%d", srv.handled, len(cli.replies))
	}
	// Every send goes through the queue in the hybrid kernel.
	if x.QueuedSends < 20 {
		t.Fatalf("QueuedSends = %d, want >= 20", x.QueuedSends)
	}
	if x.DirectSwitches != 0 || k.Stats.Handoffs != 0 {
		t.Fatalf("Mach 2.5 took a fast path: direct=%d handoffs=%d",
			x.DirectSwitches, k.Stats.Handoffs)
	}
}

func TestRPCLatencyOrdering(t *testing.T) {
	// The paper's Table 3 shape: MK40 < MK32 < Mach 2.5 for null RPC.
	perRPC := func(flavor core.Flavor) float64 {
		k, _, _, _ := runRPC(t, flavor, 100, 0)
		return k.Clock.Now().Micros() / 100
	}
	mk40 := perRPC(core.MK40)
	mk32 := perRPC(core.MK32)
	m25 := perRPC(core.Mach25)
	if !(mk40 < mk32 && mk32 < m25) {
		t.Fatalf("latency ordering violated: MK40=%.1fus MK32=%.1fus Mach2.5=%.1fus", mk40, mk32, m25)
	}
}

func TestSlowReceiveDefeatsRecognition(t *testing.T) {
	// A server with a size constraint blocks with the slow continuation;
	// the sender hands off but cannot recognize, so the receiver's own
	// continuation completes the transfer.
	k, x, cli, srv := runRPC(t, core.MK40, 10, 4096)
	if srv.handled != 10 || len(cli.replies) != 10 {
		t.Fatalf("handled=%d replies=%d", srv.handled, len(cli.replies))
	}
	if x.FastRPCs > 10 {
		t.Fatalf("FastRPCs = %d; constrained receives must not all fast-path", x.FastRPCs)
	}
	if x.SlowReceives < 9 {
		t.Fatalf("SlowReceives = %d", x.SlowReceives)
	}
	// Handoff still happens even when recognition fails (§2.4).
	if k.Stats.Handoffs < 10 {
		t.Fatalf("Handoffs = %d", k.Stats.Handoffs)
	}
}

func TestRcvTooLarge(t *testing.T) {
	k, x := newIPCKernel(t, core.MK40)
	port := x.NewPort("p")
	var code uint64
	recvProg := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
		if th.KernelEntries > 0 {
			code = th.MD.RetVal
			return core.Exit()
		}
		return core.Syscall("recv", func(e *core.Env) {
			x.MachMsg(e, ipc.MsgOptions{ReceiveFrom: port, MaxSize: 64})
		})
	})
	rt := k.NewThread(core.ThreadSpec{Name: core.NameOf("recv"), SpaceID: 1, Program: recvProg})
	sendProg := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
		if th.KernelEntries > 0 {
			return core.Exit()
		}
		return core.Syscall("send", func(e *core.Env) {
			big := x.NewMessage(1, 1024, "big", nil)
			x.MachMsg(e, ipc.MsgOptions{Send: big, SendTo: port})
		})
	})
	st := k.NewThread(core.ThreadSpec{Name: core.NameOf("send"), SpaceID: 2, Program: sendProg})
	k.Setrun(rt)
	k.Setrun(st)
	k.Run(0)
	if code != ipc.RcvTooLarge {
		t.Fatalf("receive returned %#x, want MACH_RCV_TOO_LARGE", code)
	}
}

func TestSendOnlyQueuesWithoutReceiver(t *testing.T) {
	k, x := newIPCKernel(t, core.MK40)
	port := x.NewPort("mbox")
	prog := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
		if th.KernelEntries >= 3 {
			return core.Exit()
		}
		return core.Syscall("send", func(e *core.Env) {
			m := x.NewMessage(uint32(th.KernelEntries), ipc.HeaderBytes, int(th.KernelEntries), nil)
			x.MachMsg(e, ipc.MsgOptions{Send: m, SendTo: port})
		})
	})
	st := k.NewThread(core.ThreadSpec{Name: core.NameOf("producer"), SpaceID: 1, Program: prog})
	k.Setrun(st)
	k.Run(0)
	if port.QueueLen() != 3 {
		t.Fatalf("queue length = %d", port.QueueLen())
	}
	if port.Enqueued != 3 {
		t.Fatalf("Enqueued = %d", port.Enqueued)
	}
}

func TestQueuedMessagesDrainFIFO(t *testing.T) {
	k, x := newIPCKernel(t, core.MK40)
	port := x.NewPort("mbox")
	const n = 5
	prodProg := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
		if th.KernelEntries >= n {
			return core.Exit()
		}
		seq := int(th.KernelEntries)
		return core.Syscall("send", func(e *core.Env) {
			m := x.NewMessage(1, ipc.HeaderBytes, seq, nil)
			x.MachMsg(e, ipc.MsgOptions{Send: m, SendTo: port})
		})
	})
	var got []int
	consProg := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
		if m := x.Received(th); m != nil {
			got = append(got, m.Body.(int))
		}
		if len(got) >= n {
			return core.Exit()
		}
		return core.Syscall("recv", func(e *core.Env) {
			x.MachMsg(e, ipc.MsgOptions{ReceiveFrom: port})
		})
	})
	prod := k.NewThread(core.ThreadSpec{Name: core.NameOf("producer"), SpaceID: 1, Program: prodProg})
	cons := k.NewThread(core.ThreadSpec{Name: core.NameOf("consumer"), SpaceID: 2, Program: consProg})
	k.Setrun(prod)
	k.Setrun(cons)
	k.Run(0)
	if len(got) != n {
		t.Fatalf("consumed %d of %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestReceiversAreStacklessWhileBlocked(t *testing.T) {
	k, x := newIPCKernel(t, core.MK40)
	port := x.NewPort("idle")
	var servers []*core.Thread
	for i := 0; i < 20; i++ {
		prog := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
			return core.Syscall("recv", func(e *core.Env) {
				x.MachMsg(e, ipc.MsgOptions{ReceiveFrom: port})
			})
		})
		th := k.NewThread(core.ThreadSpec{Name: core.NameOf("srv"), SpaceID: i + 1, Program: prog})
		servers = append(servers, th)
		k.Setrun(th)
	}
	k.Run(0)
	for _, th := range servers {
		if th.State() != core.StateWaiting {
			t.Fatalf("%v state = %v", th, th.State())
		}
		if th.HasStack() {
			t.Fatalf("%v holds a stack while blocked in receive", th)
		}
		if !th.BlockedWith(x.ContMsgContinue) {
			t.Fatalf("%v blocked with %v", th, th.Cont)
		}
	}
	if k.Stacks.InUse() != 0 {
		t.Fatalf("stacks in use = %d", k.Stacks.InUse())
	}
	if port.Waiters() != 20 {
		t.Fatalf("waiters = %d", port.Waiters())
	}
}

func TestMessageSizeFloor(t *testing.T) {
	_, x := newIPCKernel(t, core.MK40)
	m := x.NewMessage(1, 3, nil, nil)
	if m.Size != ipc.HeaderBytes {
		t.Fatalf("Size = %d, want header floor", m.Size)
	}
}

func TestFastPathSharedStackCount(t *testing.T) {
	// Figure 2's essence: during a fast RPC the sender's stack becomes
	// the receiver's; there is no moment with two stacks for the pair.
	k, _, _, _ := runRPC(t, core.MK40, 30, 0)
	if k.Stacks.TotalStacks() > 2 {
		t.Fatalf("created %d stacks for a 2-thread RPC pair", k.Stacks.TotalStacks())
	}
}

// Property: with multiple senders to one port, each sender's messages
// are received in its send order (per-sender FIFO), none lost, none
// duplicated — across random sender/receiver interleavings.
func TestPerSenderFIFOProperty(t *testing.T) {
	f := func(seed uint32, senderCount uint8) bool {
		nSenders := int(senderCount%3) + 2
		perSender := 6
		k, x := newIPCKernel(t, core.MK40)
		port := x.NewPort("mbox")
		port.QueueLimit = 3 // exercise sender blocking too

		rng := seed
		next := func(n int) int {
			rng = rng*1664525 + 1013904223
			return int(rng>>16) % n
		}

		for s := 0; s < nSenders; s++ {
			sent := 0
			sid := s
			prog := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
				if sent >= perSender {
					return core.Exit()
				}
				sent++
				seq := sent
				burst := uint64(100 + next(5000))
				if seq%2 == 0 {
					return core.RunFor(burst)
				}
				return core.Syscall("send", func(e *core.Env) {
					m := x.NewMessage(uint32(sid), ipc.HeaderBytes, [2]int{sid, seq}, nil)
					x.MachMsg(e, ipc.MsgOptions{Send: m, SendTo: port})
				})
			})
			k.Setrun(k.NewThread(core.ThreadSpec{Name: core.NameOf("s"), SpaceID: s + 1, Program: prog}))
		}
		want := nSenders * ((perSender + 1) / 2)
		var got [][2]int
		cons := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
			if m := x.Received(th); m != nil {
				got = append(got, m.Body.([2]int))
			}
			if len(got) >= want {
				return core.Exit()
			}
			return core.Syscall("recv", func(e *core.Env) {
				x.MachMsg(e, ipc.MsgOptions{ReceiveFrom: port})
			})
		})
		k.Setrun(k.NewThread(core.ThreadSpec{Name: core.NameOf("c"), SpaceID: 99, Program: cons}))
		k.Run(0)

		if len(got) != want {
			return false
		}
		last := map[int]int{}
		for _, pair := range got {
			sid, seq := pair[0], pair[1]
			if seq <= last[sid] {
				return false
			}
			last[sid] = seq
		}
		return k.Validate() == nil
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
