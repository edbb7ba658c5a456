package ipc_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ipc"
	"repro/internal/machine"
)

func TestSendTimeout(t *testing.T) {
	// A sender parked on a full queue with SndTimeout set gives up with
	// SendTimedOut when nobody drains the port.
	for _, flavor := range []core.Flavor{core.MK40, core.MK32} {
		k, x := newIPCKernel(t, flavor)
		k.DebugChecks = true
		port := x.NewPort("stuffed")
		port.QueueLimit = 1
		prog := &retvalProg{acts: []core.Action{
			core.Syscall("send1", func(e *core.Env) {
				m := x.NewMessage(1, ipc.HeaderBytes, 1, nil)
				x.MachMsg(e, ipc.MsgOptions{Send: m, SendTo: port})
			}),
			core.Syscall("send2", func(e *core.Env) {
				m := x.NewMessage(1, ipc.HeaderBytes, 2, nil)
				x.MachMsg(e, ipc.MsgOptions{
					Send: m, SendTo: port,
					SndTimeout: machine.Duration(2 * 1000 * 1000), // 2 ms
				})
			}),
		}}
		th := k.NewThread(core.ThreadSpec{Name: core.NameOf("s"), SpaceID: 1, Program: prog})
		k.Setrun(th)
		k.Run(0)
		if th.State() != core.StateHalted {
			t.Fatalf("%v: sender hung: %v (%q)", flavor, th.State(), th.WaitLabel)
		}
		if len(prog.rets) != 2 || prog.rets[0] != ipc.MsgSuccess || prog.rets[1] != ipc.SendTimedOut {
			t.Fatalf("%v: rets = %#x, want [MsgSuccess SendTimedOut]", flavor, prog.rets)
		}
		if got := k.Clock.Now(); got < 2_000_000 {
			t.Fatalf("%v: returned before the timeout: %v", flavor, got)
		}
		if port.SendWaiters() != 0 {
			t.Fatalf("%v: stale send-waiter registration", flavor)
		}
		if k.Clock.Pending() != 0 {
			t.Fatalf("%v: timeout event leaked", flavor)
		}
		k.MustValidate()
	}
}

func TestSendTimeoutCancelledByDrain(t *testing.T) {
	// The queue drains before the timeout: the retried send succeeds and
	// the armed callout is cancelled, not left to fire into a completed
	// call.
	k, x := newIPCKernel(t, core.MK40)
	k.DebugChecks = true
	port := x.NewPort("narrow")
	port.QueueLimit = 1
	sent := 0
	var rets []uint64
	sender := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
		if th.UserReturn == core.ReturnNone && th.KernelEntries > 0 {
			rets = append(rets, th.MD.RetVal)
		}
		if sent >= 2 {
			return core.Exit()
		}
		sent++
		seq := sent
		return core.Syscall("send", func(e *core.Env) {
			m := x.NewMessage(1, ipc.HeaderBytes, seq, nil)
			x.MachMsg(e, ipc.MsgOptions{
				Send: m, SendTo: port,
				SndTimeout: machine.Duration(50 * 1000 * 1000),
			})
		})
	})
	st := k.NewThread(core.ThreadSpec{Name: core.NameOf("s"), SpaceID: 1, Program: sender})
	got := 0
	receiver := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
		if m := x.Received(th); m != nil {
			got++
		}
		if got >= 2 {
			return core.Exit()
		}
		return core.Syscall("recv", func(e *core.Env) {
			x.MachMsg(e, ipc.MsgOptions{ReceiveFrom: port})
		})
	})
	rt := k.NewThread(core.ThreadSpec{Name: core.NameOf("r"), SpaceID: 2, Program: receiver})
	k.Setrun(st)
	k.Setrun(rt)
	k.Run(0)
	if got != 2 {
		t.Fatalf("received %d messages", got)
	}
	for i, r := range rets {
		if r != ipc.MsgSuccess {
			t.Fatalf("send %d returned %#x", i, r)
		}
	}
	if k.Clock.Pending() != 0 {
		t.Fatal("send timeout left armed after successful drain")
	}
	k.MustValidate()
}

func TestDestroyPortUnderLoad(t *testing.T) {
	// Destroy ports mid-flight with everything attached at once: a full
	// message queue, senders parked with send timeouts, and (on a second
	// port) receivers blocked with receive timeouts. Everyone completes
	// with the right code, every armed callout is cancelled, and the
	// invariant sweep stays clean throughout.
	k, x := newIPCKernel(t, core.MK40)
	k.DebugChecks = true
	full := x.NewPort("full")
	full.QueueLimit = 2
	empty := x.NewPort("empty")

	mkSender := func(i int) *retvalProg {
		return &retvalProg{acts: []core.Action{
			core.Syscall("send", func(e *core.Env) {
				m := x.NewMessage(1, ipc.HeaderBytes, i, nil)
				x.MachMsg(e, ipc.MsgOptions{
					Send: m, SendTo: full,
					SndTimeout: machine.Duration(1_000_000_000),
				})
			}),
		}}
	}
	mkReceiver := func() *retvalProg {
		return &retvalProg{acts: []core.Action{
			core.Syscall("recv", func(e *core.Env) {
				x.MachMsg(e, ipc.MsgOptions{
					ReceiveFrom: empty,
					RcvTimeout:  machine.Duration(1_000_000_000),
				})
			}),
		}}
	}
	var senders, receivers []*retvalProg
	var threads []*core.Thread
	for i := 0; i < 4; i++ { // 2 fill the queue, 2 park as send-waiters
		p := mkSender(i)
		senders = append(senders, p)
		th := k.NewThread(core.ThreadSpec{Name: core.NameOf("s"), SpaceID: i + 1, Program: p})
		threads = append(threads, th)
		k.Setrun(th)
	}
	for i := 0; i < 2; i++ {
		p := mkReceiver()
		receivers = append(receivers, p)
		th := k.NewThread(core.ThreadSpec{Name: core.NameOf("r"), SpaceID: i + 5, Program: p})
		threads = append(threads, th)
		k.Setrun(th)
	}
	// Let everything park (timeouts are far in the future, so no event
	// can fire without advancing the clock past them).
	for k.StepNoAdvance() {
	}
	if full.QueueLen() != 2 || full.SendWaiters() != 2 || empty.Waiters() != 2 {
		t.Fatalf("load not established: queue=%d sendWaiters=%d rcvWaiters=%d",
			full.QueueLen(), full.SendWaiters(), empty.Waiters())
	}
	e := &core.Env{K: k, P: k.Procs[0]}
	x.DestroyPort(e, full)
	x.DestroyPort(e, empty)
	k.Run(0)
	for _, th := range threads {
		if th.State() != core.StateHalted {
			t.Fatalf("%v stuck in %v (%q)", th, th.State(), th.WaitLabel)
		}
	}
	// Senders 0 and 1 queued successfully; 2 and 3 were parked and fail.
	for i, p := range senders {
		want := ipc.MsgSuccess
		if i >= 2 {
			want = ipc.SendInvalidDest
		}
		if len(p.rets) != 1 || p.rets[0] != want {
			t.Fatalf("sender %d rets = %#x, want %#x", i, p.rets, want)
		}
	}
	for i, p := range receivers {
		if len(p.rets) != 1 || p.rets[0] != ipc.RcvPortDied {
			t.Fatalf("receiver %d rets = %#x, want RcvPortDied", i, p.rets)
		}
	}
	if k.Clock.Pending() != 0 {
		t.Fatalf("%d callouts leaked past DestroyPort", k.Clock.Pending())
	}
	if full.QueueLen() != 0 {
		t.Fatal("destroyed port kept queued messages")
	}
	k.MustValidate()
}
