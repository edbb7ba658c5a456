package ipc_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ipc"
)

func TestPortSetMembership(t *testing.T) {
	_, x := newIPCKernel(t, core.MK40)
	ps := x.NewPortSet("objects")
	a := x.NewPort("a")
	b := x.NewPort("b")
	x.AddToSet(a, ps)
	x.AddToSet(b, ps)
	x.AddToSet(a, ps) // idempotent
	if ps.Members() != 2 {
		t.Fatalf("members = %d", ps.Members())
	}
	x.RemoveFromSet(a)
	if ps.Members() != 1 {
		t.Fatalf("after remove: %d", ps.Members())
	}
	x.RemoveFromSet(a) // no-op
}

func TestPortInTwoSetsPanics(t *testing.T) {
	_, x := newIPCKernel(t, core.MK40)
	p := x.NewPort("p")
	x.AddToSet(p, x.NewPortSet("s1"))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	x.AddToSet(p, x.NewPortSet("s2"))
}

func TestReceiveFromSetDrainsAllMembers(t *testing.T) {
	k, x := newIPCKernel(t, core.MK40)
	ps := x.NewPortSet("objects")
	ports := []*ipc.Port{x.NewPort("a"), x.NewPort("b"), x.NewPort("c")}
	for _, p := range ports {
		x.AddToSet(p, ps)
	}

	// Producers stuff two messages into each member port.
	for i, p := range ports {
		port := p
		id := i
		sent := 0
		prog := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
			if sent >= 2 {
				return core.Exit()
			}
			sent++
			seq := sent
			return core.Syscall("send", func(e *core.Env) {
				m := x.NewMessage(uint32(id), ipc.HeaderBytes, [2]int{id, seq}, nil)
				x.MachMsg(e, ipc.MsgOptions{Send: m, SendTo: port})
			})
		})
		k.Setrun(k.NewThread(core.ThreadSpec{Name: core.NameOf("prod"), SpaceID: i + 1, Program: prog}))
	}

	var got [][2]int
	server := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
		if m := x.Received(th); m != nil {
			got = append(got, m.Body.([2]int))
		}
		if len(got) >= 6 {
			return core.Exit()
		}
		return core.Syscall("recv-set", func(e *core.Env) {
			x.MachMsg(e, ipc.MsgOptions{ReceiveFromSet: ps})
		})
	})
	st := k.NewThread(core.ThreadSpec{Name: core.NameOf("server"), SpaceID: 9, Program: server})
	k.Setrun(st)
	k.Run(0)

	if len(got) != 6 {
		t.Fatalf("received %d of 6: %v", len(got), got)
	}
	// Per-port FIFO holds even when multiplexed through the set.
	last := map[int]int{}
	for _, pair := range got {
		if pair[1] <= last[pair[0]] {
			t.Fatalf("per-port order violated: %v", got)
		}
		last[pair[0]] = pair[1]
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSetWaiterGetsFastHandoff(t *testing.T) {
	// A server blocked on a SET still takes the §2.4 fast path when a
	// sender targets any member port.
	k, x := newIPCKernel(t, core.MK40)
	ps := x.NewPortSet("objects")
	port := x.NewPort("member")
	x.AddToSet(port, ps)

	handled := 0
	var pending *ipc.Message
	server := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
		if m := x.Received(th); m != nil {
			pending = m
		}
		if pending == nil {
			return core.Syscall("recv-set", func(e *core.Env) {
				x.MachMsg(e, ipc.MsgOptions{ReceiveFromSet: ps})
			})
		}
		req := pending
		pending = nil
		handled++
		return core.Syscall("reply+recv-set", func(e *core.Env) {
			reply := x.NewMessage(2, ipc.HeaderBytes, req.Body, nil)
			x.MachMsg(e, ipc.MsgOptions{
				Send: reply, SendTo: req.Reply, ReceiveFromSet: ps,
			})
		})
	})
	st := k.NewThread(core.ThreadSpec{Name: core.NameOf("server"), SpaceID: 2, Program: server})

	reply := x.NewPort("reply")
	done := 0
	var answers []any
	client := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
		if m := x.Received(th); m != nil {
			answers = append(answers, m.Body)
		}
		if done >= 8 {
			return core.Exit()
		}
		done++
		return core.Syscall("rpc", func(e *core.Env) {
			req := x.NewMessage(1, ipc.HeaderBytes, done, reply)
			x.MachMsg(e, ipc.MsgOptions{Send: req, SendTo: port, ReceiveFrom: reply})
		})
	})
	ct := k.NewThread(core.ThreadSpec{Name: core.NameOf("client"), SpaceID: 1, Program: client})
	k.Setrun(st)
	k.Setrun(ct)
	k.Run(0)

	if handled != 8 || len(answers) != 8 {
		t.Fatalf("handled=%d answers=%d", handled, len(answers))
	}
	// Fast path engaged through the set: handoffs and recognitions, with
	// (almost) no queue traffic.
	if k.Stats.Handoffs < 12 || k.Stats.Recognitions < 12 {
		t.Fatalf("handoffs=%d recognitions=%d", k.Stats.Handoffs, k.Stats.Recognitions)
	}
	if x.QueuedSends > 2 {
		t.Fatalf("queued %d sends through the set fast path", x.QueuedSends)
	}
	if ps.Waiters() != 1 {
		t.Fatalf("set waiters at quiescence = %d", ps.Waiters())
	}
}

func TestSetRoundRobinAcrossMembers(t *testing.T) {
	k, x := newIPCKernel(t, core.MK40)
	ps := x.NewPortSet("objects")
	a, b := x.NewPort("a"), x.NewPort("b")
	x.AddToSet(a, ps)
	x.AddToSet(b, ps)
	// Preload both queues directly through a producer thread.
	prod := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
		if th.KernelEntries >= 4 {
			return core.Exit()
		}
		n := th.KernelEntries
		return core.Syscall("send", func(e *core.Env) {
			port := a
			if n%2 == 1 {
				port = b
			}
			m := x.NewMessage(uint32(n), ipc.HeaderBytes, port.Name().String(), nil)
			x.MachMsg(e, ipc.MsgOptions{Send: m, SendTo: port})
		})
	})
	k.Setrun(k.NewThread(core.ThreadSpec{Name: core.NameOf("prod"), SpaceID: 1, Program: prod}))
	k.Run(0)

	var order []string
	cons := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
		if m := x.Received(th); m != nil {
			order = append(order, m.Body.(string))
		}
		if len(order) >= 4 {
			return core.Exit()
		}
		return core.Syscall("recv", func(e *core.Env) {
			x.MachMsg(e, ipc.MsgOptions{ReceiveFromSet: ps})
		})
	})
	k.Setrun(k.NewThread(core.ThreadSpec{Name: core.NameOf("cons"), SpaceID: 2, Program: cons}))
	k.Run(0)
	// Round robin alternates members rather than draining one port dry.
	if len(order) != 4 || order[0] == order[1] {
		t.Fatalf("order = %v", order)
	}
}

func TestBothReceiveFieldsPanics(t *testing.T) {
	k, x := newIPCKernel(t, core.MK40)
	ps := x.NewPortSet("s")
	p := x.NewPort("p")
	prog := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
		return core.Syscall("bad", func(e *core.Env) {
			x.MachMsg(e, ipc.MsgOptions{ReceiveFrom: p, ReceiveFromSet: ps})
		})
	})
	k.Setrun(k.NewThread(core.ThreadSpec{Name: core.NameOf("u"), SpaceID: 1, Program: prog}))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	k.Run(0)
}
