// White-box tests of the port layout and the receive-side pool: they read
// whether a port holds a receive record and how long its waiter list is,
// so they live inside package ipc.
package ipc

import (
	"slices"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sched"
)

// TestPortLayout pins what a port costs the host: identity, routing,
// limit and counters, at most 80 bytes, with the receive side lent
// separately.
func TestPortLayout(t *testing.T) {
	if n := unsafe.Sizeof(Port{}); n > 80 {
		t.Errorf("Port is %d bytes, want at most 80", n)
	}
}

var poolFlavors = []core.Flavor{core.MK40, core.MK32, core.Mach25}

// newPoolKernel boots a bare kernel of the given flavor with the
// invariant sweep (which checks the receive-side pool) after every step.
func newPoolKernel(f core.Flavor) (*core.Kernel, *IPC) {
	k := core.NewKernel(core.Config{
		Model:  machine.NewCostModel(machine.ArchDS3100),
		Flavor: f,
	})
	k.Sched = sched.New(0)
	k.DebugChecks = true
	return k, New(k)
}

// TestRPCLeavesReplyPortIdle runs null RPCs between a client and a server
// under every kernel: once the reply has been taken, the reply port holds
// no receive record, and the records the two ports were lent circulate
// through the free list instead of piling up.
func TestRPCLeavesReplyPortIdle(t *testing.T) {
	for _, f := range poolFlavors {
		t.Run(f.FlagName(), func(t *testing.T) {
			k, x := newPoolKernel(f)
			srv, reply := x.NewPort("server"), x.NewPort("reply")
			const rpcs = 3
			done := 0
			client := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
				if m := x.Received(th); m != nil {
					x.FreeMessage(m)
					done++
				}
				if done == rpcs {
					return core.Exit()
				}
				return core.Syscall("rpc", func(e *core.Env) {
					x.MachMsg(e, MsgOptions{
						Send: x.NewMessage(1, HeaderBytes, nil, reply), SendTo: srv, ReceiveFrom: reply,
					})
				})
			})
			var pending *Message
			server := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
				if m := x.Received(th); m != nil {
					pending = m
				}
				if pending == nil {
					return core.Syscall("recv", func(e *core.Env) { x.MachMsg(e, MsgOptions{ReceiveFrom: srv}) })
				}
				return core.Syscall("reply+recv", func(e *core.Env) {
					to := pending.Reply
					x.FreeMessage(pending)
					pending = nil
					x.MachMsg(e, MsgOptions{
						Send: x.NewMessage(1|ReplyBit, HeaderBytes, nil, nil), SendTo: to, ReceiveFrom: srv,
					})
				})
			})
			k.Setrun(k.NewThread(core.ThreadSpec{Name: core.NameOf("server"), SpaceID: 2, Program: server}))
			cli := k.NewThread(core.ThreadSpec{Name: core.NameOf("client"), SpaceID: 1, Program: client})
			k.Setrun(cli)
			k.Run(0)
			if cli.State() != core.StateHalted || done != rpcs {
				t.Fatalf("client %v after %d of %d RPCs", cli.State(), done, rpcs)
			}
			if reply.rcv != nil {
				t.Errorf("reply port holds a receive record: %d queued, %d waiters, %d send waiters",
					len(reply.rcv.queue), len(reply.rcv.waiters), len(reply.rcv.sendWaiters))
			}
			if srv.rcv == nil || srv.Waiters() != 1 {
				t.Errorf("server port should hold one parked receiver, has %d", srv.Waiters())
			}
			// The records circulate: the run needed at most one per port.
			made := len(x.recvFree)
			for _, p := range x.ports {
				if p.rcv != nil {
					made++
				}
			}
			if made > 2 {
				t.Errorf("the run made %d receive records, want at most 2", made)
			}
		})
	}
}

// TestTimedOutReceivesDoNotPile times out 5 000 receives on a port that
// nobody sends to, under every kernel. A timed-out registration stays on
// the waiter list until something sweeps it; the sweep on push keeps the
// list short.
func TestTimedOutReceivesDoNotPile(t *testing.T) {
	const receives = 5000
	for _, f := range poolFlavors {
		t.Run(f.FlagName(), func(t *testing.T) {
			k, x := newPoolKernel(f)
			port := x.NewPort("idle")
			n, timedOut, longest := 0, 0, 0
			prog := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
				if n > 0 && th.MD.RetVal == RcvTimedOut {
					timedOut++
				}
				longest = max(longest, len(port.rcvWaiters()))
				if n == receives {
					return core.Exit()
				}
				n++
				return core.Syscall("recv", func(e *core.Env) {
					x.MachMsg(e, MsgOptions{ReceiveFrom: port, RcvTimeout: machine.Duration(1000)})
				})
			})
			th := k.NewThread(core.ThreadSpec{Name: core.NameOf("r"), SpaceID: 1, Program: prog})
			k.Setrun(th)
			k.Run(0)
			if th.State() != core.StateHalted || timedOut != receives {
				t.Fatalf("receiver %v after %d timed-out receives, want %d", th.State(), timedOut, receives)
			}
			if longest > 8 {
				t.Errorf("waiter list reached %d registrations, want at most 8", longest)
			}
		})
	}
}

// TestArmedRegistrationNotReusedBeforeTimerFires frees a registration
// whose receive timeout is still armed, under every kernel. The thread
// is woken from outside ipc while its registration stays live, so the
// next pop frees the registration with its timer pending. The
// registration must stay off the free list until the timer has fired,
// so the timer's action cannot land on a reused registration: the
// registrations made meanwhile are other records, and the action clears
// the handle it held.
func TestArmedRegistrationNotReusedBeforeTimerFires(t *testing.T) {
	for _, f := range poolFlavors {
		t.Run(f.FlagName(), func(t *testing.T) {
			k, x := newPoolKernel(f)
			exit := core.ProgramFunc(func(*core.Env, *core.Thread) core.Action { return core.Exit() })
			th := k.NewThread(core.ThreadSpec{Name: core.NameOf("r"), SpaceID: 1, Program: exit})
			other := k.NewThread(core.ThreadSpec{Name: core.NameOf("o"), SpaceID: 1, Program: exit})
			port := x.NewPort("p")
			x.RegisterReceiver(th, port, 0, 1000)
			w := port.rcvWaiters()[0]
			if !w.timeout.Pending() {
				t.Fatal("the registration holds no armed timeout")
			}
			k.Setrun(th)
			if got := x.popWaiter(port); got != nil {
				t.Fatalf("popped %v, which is not waiting", got)
			}
			if slices.Contains(x.waiterFree, w) || !w.timeout.Pending() {
				t.Fatal("a registration with an armed timeout went back on the free list")
			}
			for i := 0; i < 3; i++ {
				v := x.newWaiter(other)
				if v == w {
					t.Fatal("the armed registration was reused before its timer fired")
				}
				x.freeWaiter(v)
			}
			armed := w.timeout
			ev := k.Clock.AdvanceToNextEvent()
			if ev == nil || ev != armed {
				t.Fatalf("next event %v, want the receive timeout", ev)
			}
			k.Clock.Fire(ev, true)
			if w.timeout != nil {
				t.Fatal("the timeout's action left its handle set")
			}
			if _, posted := th.TakeWaitResult(); posted {
				t.Fatal("the stale timeout ended a wait its thread was not in")
			}
		})
	}
}
