// White-box test of the same-tick race between a send timeout and a
// queue drain: it reaches into the port's receive side (its send-waiter
// and waiter lists) to read the armed callout's exact expiry, so it
// lives inside package ipc.
package ipc

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sched"
)

// runSendRace parks a sender on a full queue with a send timeout, then
// schedules a drain event at the timeout's expiry shifted by skew and
// reports the parked send's return code. The whole run is deterministic:
// when both events land on the same tick, heap order (insertion sequence)
// decides, and the timeout was armed first.
func runSendRace(t *testing.T, skew int64) uint64 {
	t.Helper()
	k := core.NewKernel(core.Config{
		Model:  machine.NewCostModel(machine.ArchDS3100),
		Flavor: core.MK40,
	})
	k.Sched = sched.New(0)
	k.DebugChecks = true
	x := New(k)
	port := x.NewPort("narrow")
	port.QueueLimit = 1

	sent := 0
	var rets []uint64
	prog := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
		if th.UserReturn == core.ReturnNone && th.KernelEntries > 0 {
			rets = append(rets, th.MD.RetVal)
		}
		if sent >= 2 {
			return core.Exit()
		}
		sent++
		seq := sent
		return core.Syscall("send", func(e *core.Env) {
			m := x.NewMessage(1, HeaderBytes, seq, nil)
			x.MachMsg(e, MsgOptions{
				Send: m, SendTo: port,
				SndTimeout: machine.Duration(1_000_000), // 1 ms
			})
		})
	})
	th := k.NewThread(core.ThreadSpec{Name: core.NameOf("s"), SpaceID: 1, Program: prog})
	k.Setrun(th)

	// Park the sender without letting any timer fire.
	for k.StepNoAdvance() {
	}
	if th.State() != core.StateWaiting || len(port.sndWaiters()) != 1 {
		t.Fatalf("sender not parked: %v, %d waiters", th.State(), len(port.sndWaiters()))
	}
	w := port.sndWaiters()[0]
	if w.timeout == nil || !w.timeout.Pending() {
		t.Fatal("send timeout not armed")
	}
	delay := int64(k.Clock.When(w.timeout)) + skew - int64(k.Clock.Now())
	k.Clock.Schedule(k.Clock.Now()+machine.Duration(delay), func(any) {
		e := &core.Env{K: k, P: k.Procs[0]}
		if port.QueueLen() > 0 {
			port.pull(x, e)
		}
	}, nil)

	k.Run(0)
	if th.State() != core.StateHalted {
		t.Fatalf("skew %v: sender stuck in %v (%q)", skew, th.State(), th.WaitLabel)
	}
	if len(rets) != 2 || rets[0] != MsgSuccess {
		t.Fatalf("skew %v: rets = %#x", skew, rets)
	}
	if k.Clock.Pending() != 0 {
		t.Fatalf("skew %v: %d callouts leaked", skew, k.Clock.Pending())
	}
	k.MustValidate()
	return rets[1]
}

// runRcvRace parks a receiver with a receive timeout, then fires a
// delivery event at the timeout's expiry shifted by skew — the path a
// device completion or netmsg arrival takes to hand a message to a
// blocked receiver — and reports the receive's return code plus how many
// messages were left queued (the loser's message must be enqueued, never
// double-delivered or dropped).
func runRcvRace(t *testing.T, skew int64) (ret uint64, queued int) {
	t.Helper()
	k := core.NewKernel(core.Config{
		Model:  machine.NewCostModel(machine.ArchDS3100),
		Flavor: core.MK40,
	})
	k.Sched = sched.New(0)
	k.DebugChecks = true
	x := New(k)
	port := x.NewPort("raced")

	prog := &oneRecv{x: x, port: port, timeout: machine.Duration(1_000_000)}
	th := k.NewThread(core.ThreadSpec{Name: core.NameOf("r"), SpaceID: 1, Program: prog})
	k.Setrun(th)
	for k.StepNoAdvance() {
	}
	if th.State() != core.StateWaiting || len(port.rcvWaiters()) != 1 {
		t.Fatalf("receiver not parked: %v, %d waiters", th.State(), len(port.rcvWaiters()))
	}
	w := port.rcvWaiters()[0]
	if w.timeout == nil || !w.timeout.Pending() {
		t.Fatal("receive timeout not armed")
	}
	delay := int64(k.Clock.When(w.timeout)) + skew - int64(k.Clock.Now())
	k.Clock.Schedule(k.Clock.Now()+machine.Duration(delay), func(any) {
		e := &core.Env{K: k, P: k.Procs[0]}
		m := x.NewMessage(1, HeaderBytes, 7, nil)
		if rcv := x.PopWaiter(e, port); rcv != nil {
			x.DeliverTo(e, rcv, m)
			k.Setrun(rcv)
		} else {
			x.Enqueue(e, port, m)
		}
	}, nil)

	k.Run(0)
	if th.State() != core.StateHalted {
		t.Fatalf("skew %v: receiver stuck in %v (%q)", skew, th.State(), th.WaitLabel)
	}
	if k.Clock.Pending() != 0 {
		t.Fatalf("skew %v: %d callouts leaked", skew, k.Clock.Pending())
	}
	k.MustValidate()
	return prog.ret, port.QueueLen()
}

// oneRecv issues one timed receive, records its return value, and exits.
type oneRecv struct {
	x       *IPC
	port    *Port
	timeout machine.Duration
	done    bool
	ret     uint64
}

func (p *oneRecv) Next(e *core.Env, th *core.Thread) core.Action {
	if p.done {
		p.ret = th.MD.RetVal
		return core.Exit()
	}
	p.done = true
	return core.Syscall("recv", func(e *core.Env) {
		p.x.MachMsg(e, MsgOptions{ReceiveFrom: p.port, RcvTimeout: p.timeout})
	})
}

func TestRcvTimeoutVsDeliveryRace(t *testing.T) {
	// Delivery strictly before expiry: the receive wins, nothing queued.
	if ret, q := runRcvRace(t, -1); ret != MsgSuccess || q != 0 {
		t.Fatalf("early delivery: ret = %#x queued = %d, want MsgSuccess/0", ret, q)
	}
	// Delivery strictly after expiry: the timeout wins and the late
	// message lands on the queue for the next receiver.
	if ret, q := runRcvRace(t, 1); ret != RcvTimedOut || q != 1 {
		t.Fatalf("late delivery: ret = %#x queued = %d, want RcvTimedOut/1", ret, q)
	}
	// The same tick: the timeout was armed first (at block time), so it
	// fires first deterministically; PopWaiter then sees the cancelled
	// registration and the delivery falls back to the queue. Exactly one
	// path wins on every run.
	for i := 0; i < 3; i++ {
		if ret, q := runRcvRace(t, 0); ret != RcvTimedOut || q != 1 {
			t.Fatalf("same-tick run %d: ret = %#x queued = %d, want RcvTimedOut/1", i, ret, q)
		}
	}
}

func TestSendTimeoutVsDrainRace(t *testing.T) {
	// Drain strictly before expiry: the retried send wins.
	if got := runSendRace(t, -1); got != MsgSuccess {
		t.Fatalf("early drain: ret = %#x, want MsgSuccess", got)
	}
	// Drain strictly after expiry: the timeout wins.
	if got := runSendRace(t, 1); got != SendTimedOut {
		t.Fatalf("late drain: ret = %#x, want SendTimedOut", got)
	}
	// The same tick: the event armed first — the timeout — fires first,
	// deterministically, on every run.
	for i := 0; i < 3; i++ {
		if got := runSendRace(t, 0); got != SendTimedOut {
			t.Fatalf("same-tick run %d: ret = %#x, want SendTimedOut", i, got)
		}
	}
}
