package ipc_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ipc"
	"repro/internal/machine"
)

// retvals runs a program and records every syscall return value.
type retvalProg struct {
	acts []core.Action
	pos  int
	rets []uint64
}

func (p *retvalProg) Next(e *core.Env, t *core.Thread) core.Action {
	if t.UserReturn == core.ReturnNone && t.KernelEntries > 0 {
		p.rets = append(p.rets, t.MD.RetVal)
	}
	if p.pos >= len(p.acts) {
		return core.Exit()
	}
	a := p.acts[p.pos]
	p.pos++
	return a
}

func TestReceiveTimeout(t *testing.T) {
	k, x := newIPCKernel(t, core.MK40)
	port := x.NewPort("empty")
	prog := &retvalProg{acts: []core.Action{
		core.Syscall("recv", func(e *core.Env) {
			x.MachMsg(e, ipc.MsgOptions{
				ReceiveFrom: port,
				RcvTimeout:  machine.Duration(2 * 1000 * 1000), // 2 ms
			})
		}),
	}}
	th := k.NewThread(core.ThreadSpec{Name: core.NameOf("r"), SpaceID: 1, Program: prog})
	k.Setrun(th)
	k.Run(0)
	if th.State() != core.StateHalted {
		t.Fatalf("receiver hung: %v (%q)", th.State(), th.WaitLabel)
	}
	if len(prog.rets) != 1 || prog.rets[0] != ipc.RcvTimedOut {
		t.Fatalf("rets = %#x, want RcvTimedOut", prog.rets)
	}
	if got := k.Clock.Now(); got < 2_000_000 {
		t.Fatalf("returned before the timeout: %v", got)
	}
	if port.Waiters() != 0 {
		t.Fatalf("stale waiter registration: %d", port.Waiters())
	}
}

func TestReceiveTimeoutCancelledByDelivery(t *testing.T) {
	for _, flavor := range []core.Flavor{core.MK40, core.MK32} {
		k, x := newIPCKernel(t, flavor)
		port := x.NewPort("p")
		recvProg := &retvalProg{acts: []core.Action{
			core.Syscall("recv", func(e *core.Env) {
				x.MachMsg(e, ipc.MsgOptions{
					ReceiveFrom: port,
					RcvTimeout:  machine.Duration(50 * 1000 * 1000),
				})
			}),
		}}
		rt := k.NewThread(core.ThreadSpec{Name: core.NameOf("r"), SpaceID: 1, Program: recvProg})
		sendProg := &retvalProg{acts: []core.Action{
			core.RunFor(1000),
			core.Syscall("send", func(e *core.Env) {
				m := x.NewMessage(1, ipc.HeaderBytes, "hi", nil)
				x.MachMsg(e, ipc.MsgOptions{Send: m, SendTo: port})
			}),
		}}
		st := k.NewThread(core.ThreadSpec{Name: core.NameOf("s"), SpaceID: 2, Program: sendProg})
		k.Setrun(rt)
		k.Setrun(st)
		k.Run(0)
		if len(recvProg.rets) == 0 || recvProg.rets[0] != ipc.MsgSuccess {
			t.Fatalf("%v: rets = %#x", flavor, recvProg.rets)
		}
		// The timeout must not fire later (the clock drained fully).
		if k.Clock.Pending() != 0 {
			t.Fatalf("%v: timeout event still pending", flavor)
		}
	}
}

func TestDestroyPortWakesReceivers(t *testing.T) {
	k, x := newIPCKernel(t, core.MK40)
	port := x.NewPort("victim")
	var rets []uint64
	for i := 0; i < 3; i++ {
		prog := &retvalProg{acts: []core.Action{
			core.Syscall("recv", func(e *core.Env) {
				x.MachMsg(e, ipc.MsgOptions{ReceiveFrom: port})
			}),
		}}
		th := k.NewThread(core.ThreadSpec{Name: core.NameOf("r"), SpaceID: i + 1, Program: prog})
		k.Setrun(th)
		defer func(p *retvalProg) { rets = append(rets, p.rets...) }(prog)
	}
	destroyer := &retvalProg{acts: []core.Action{
		core.RunFor(1000),
		core.Syscall("destroy", func(e *core.Env) {
			x.DestroyPort(e, port)
			e.K.ThreadSyscallReturn(e, 0)
		}),
	}}
	dt := k.NewThread(core.ThreadSpec{Name: core.NameOf("d"), SpaceID: 9, Program: destroyer})
	k.Setrun(dt)
	k.Run(0)
	if !port.Dead() {
		t.Fatal("port not dead")
	}
	for _, th := range k.Threads {
		if th.State() != core.StateHalted {
			t.Fatalf("%v stuck in %v", th, th.State())
		}
	}
	if rets == nil {
		t.Skip("deferred collection ordering")
	}
}

func TestDestroyedPortReceiversGetPortDied(t *testing.T) {
	k, x := newIPCKernel(t, core.MK40)
	port := x.NewPort("victim")
	prog := &retvalProg{acts: []core.Action{
		core.Syscall("recv", func(e *core.Env) {
			x.MachMsg(e, ipc.MsgOptions{ReceiveFrom: port})
		}),
	}}
	th := k.NewThread(core.ThreadSpec{Name: core.NameOf("r"), SpaceID: 1, Program: prog})
	k.Setrun(th)
	for i := 0; i < 100 && th.State() != core.StateWaiting; i++ {
		k.Step()
	}
	e := &core.Env{K: k, P: k.Procs[0]}
	x.DestroyPort(e, port)
	k.Run(0)
	if len(prog.rets) != 1 || prog.rets[0] != ipc.RcvPortDied {
		t.Fatalf("rets = %#x, want RcvPortDied", prog.rets)
	}
}

func TestSendToDeadPortFails(t *testing.T) {
	k, x := newIPCKernel(t, core.MK40)
	port := x.NewPort("dead")
	prog := &retvalProg{acts: []core.Action{
		core.Syscall("kill", func(e *core.Env) {
			x.DestroyPort(e, port)
			e.K.ThreadSyscallReturn(e, 0)
		}),
		core.Syscall("send", func(e *core.Env) {
			m := x.NewMessage(1, ipc.HeaderBytes, nil, nil)
			x.MachMsg(e, ipc.MsgOptions{Send: m, SendTo: port})
		}),
	}}
	th := k.NewThread(core.ThreadSpec{Name: core.NameOf("s"), SpaceID: 1, Program: prog})
	k.Setrun(th)
	k.Run(0)
	if len(prog.rets) != 2 || prog.rets[1] != ipc.SendInvalidDest {
		t.Fatalf("rets = %#x, want SendInvalidDest", prog.rets)
	}
}

func TestQueueLimitBlocksSender(t *testing.T) {
	k, x := newIPCKernel(t, core.MK40)
	port := x.NewPort("narrow")
	port.QueueLimit = 2

	// A producer sends 5 messages to a port no one is reading yet.
	sent := 0
	producer := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
		if sent >= 5 {
			return core.Exit()
		}
		sent++
		seq := sent
		return core.Syscall("send", func(e *core.Env) {
			m := x.NewMessage(1, ipc.HeaderBytes, seq, nil)
			x.MachMsg(e, ipc.MsgOptions{Send: m, SendTo: port})
		})
	})
	pt := k.NewThread(core.ThreadSpec{Name: core.NameOf("producer"), SpaceID: 1, Program: producer})
	k.Setrun(pt)

	// Drive until the producer blocks on the full queue.
	for i := 0; i < 10000 && pt.State() != core.StateWaiting; i++ {
		if !k.Step() {
			break
		}
	}
	if pt.State() != core.StateWaiting {
		t.Fatalf("producer did not block (sent %d)", sent)
	}
	if port.QueueLen() != 2 || port.SendWaiters() != 1 {
		t.Fatalf("queue=%d sendWaiters=%d", port.QueueLen(), port.SendWaiters())
	}
	if !pt.BlockedWith(x.ContMsgSendRetry) {
		t.Fatalf("producer blocked with %v", pt.Cont)
	}
	if pt.HasStack() {
		t.Fatal("blocked sender kept its kernel stack")
	}

	// A consumer drains everything; the producer must finish.
	var got []int
	consumer := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
		if m := x.Received(th); m != nil {
			got = append(got, m.Body.(int))
		}
		if len(got) >= 5 {
			return core.Exit()
		}
		return core.Syscall("recv", func(e *core.Env) {
			x.MachMsg(e, ipc.MsgOptions{ReceiveFrom: port})
		})
	})
	ct := k.NewThread(core.ThreadSpec{Name: core.NameOf("consumer"), SpaceID: 2, Program: consumer})
	k.Setrun(ct)
	k.Run(0)
	if pt.State() != core.StateHalted || ct.State() != core.StateHalted {
		t.Fatalf("producer=%v consumer=%v", pt.State(), ct.State())
	}
	if len(got) != 5 {
		t.Fatalf("consumed %d", len(got))
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("order: %v", got)
		}
	}
}

func TestQueueLimitProcessModel(t *testing.T) {
	// Same scenario under Mach 2.5 (always-queue style).
	k, x := newIPCKernel(t, core.Mach25)
	port := x.NewPort("narrow")
	port.QueueLimit = 1
	sent := 0
	producer := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
		if sent >= 3 {
			return core.Exit()
		}
		sent++
		seq := sent
		return core.Syscall("send", func(e *core.Env) {
			m := x.NewMessage(1, ipc.HeaderBytes, seq, nil)
			x.MachMsg(e, ipc.MsgOptions{Send: m, SendTo: port})
		})
	})
	var got []int
	consumer := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
		if m := x.Received(th); m != nil {
			got = append(got, m.Body.(int))
		}
		if len(got) >= 3 {
			return core.Exit()
		}
		return core.Syscall("recv", func(e *core.Env) {
			x.MachMsg(e, ipc.MsgOptions{ReceiveFrom: port})
		})
	})
	pt := k.NewThread(core.ThreadSpec{Name: core.NameOf("producer"), SpaceID: 1, Program: producer})
	ct := k.NewThread(core.ThreadSpec{Name: core.NameOf("consumer"), SpaceID: 2, Program: consumer})
	k.Setrun(pt)
	k.Setrun(ct)
	k.Run(0)
	if len(got) != 3 || pt.State() != core.StateHalted {
		t.Fatalf("got=%v producer=%v", got, pt.State())
	}
}

func TestDestroyPortWakesBlockedSender(t *testing.T) {
	k, x := newIPCKernel(t, core.MK40)
	port := x.NewPort("narrow")
	port.QueueLimit = 1
	prog := &retvalProg{acts: []core.Action{
		core.Syscall("send1", func(e *core.Env) {
			m := x.NewMessage(1, ipc.HeaderBytes, 1, nil)
			x.MachMsg(e, ipc.MsgOptions{Send: m, SendTo: port})
		}),
		core.Syscall("send2", func(e *core.Env) {
			m := x.NewMessage(1, ipc.HeaderBytes, 2, nil)
			x.MachMsg(e, ipc.MsgOptions{Send: m, SendTo: port})
		}),
	}}
	th := k.NewThread(core.ThreadSpec{Name: core.NameOf("s"), SpaceID: 1, Program: prog})
	k.Setrun(th)
	for i := 0; i < 10000 && th.State() != core.StateWaiting; i++ {
		k.Step()
	}
	if th.State() != core.StateWaiting {
		t.Fatal("sender did not block")
	}
	e := &core.Env{K: k, P: k.Procs[0]}
	x.DestroyPort(e, port)
	k.Run(0)
	if th.State() != core.StateHalted {
		t.Fatalf("sender stuck: %v", th.State())
	}
	// First send succeeded; the blocked retry fails with the port dead.
	if len(prog.rets) != 2 || prog.rets[0] != ipc.MsgSuccess || prog.rets[1] != ipc.SendInvalidDest {
		t.Fatalf("rets = %#x", prog.rets)
	}
}

func TestTimeoutRaceWithSender(t *testing.T) {
	// Sender and timeout land close together: exactly one of them wins,
	// the receiver never double-completes, and invariants hold.
	for delay := machine.Duration(900); delay <= 1100; delay += 50 {
		k, x := newIPCKernel(t, core.MK40)
		port := x.NewPort("race")
		recvProg := &retvalProg{acts: []core.Action{
			core.Syscall("recv", func(e *core.Env) {
				x.MachMsg(e, ipc.MsgOptions{ReceiveFrom: port, RcvTimeout: 1000})
			}),
		}}
		rt := k.NewThread(core.ThreadSpec{Name: core.NameOf("r"), SpaceID: 1, Program: recvProg})
		k.Setrun(rt)
		d := delay
		k.Clock.Schedule(k.Clock.Now()+d, func(any) {
			// Direct delivery attempt from interrupt context, as a
			// device-driven sender would.
			if w := x.PopWaiter(&core.Env{K: k, P: k.Procs[0]}, port); w != nil {
				x.DeliverTo(&core.Env{K: k, P: k.Procs[0]}, w, x.NewMessage(1, 24, nil, nil))
				k.Setrun(w)
			}
		}, nil)
		k.Run(0)
		if rt.State() != core.StateHalted {
			t.Fatalf("delay %v: receiver stuck", d)
		}
		if len(recvProg.rets) != 1 {
			t.Fatalf("delay %v: rets = %#x", d, recvProg.rets)
		}
		got := recvProg.rets[0]
		if got != ipc.MsgSuccess && got != ipc.RcvTimedOut {
			t.Fatalf("delay %v: ret = %#x", d, got)
		}
		if err := k.Validate(); err != nil {
			t.Fatalf("delay %v: %v", d, err)
		}
	}
}
