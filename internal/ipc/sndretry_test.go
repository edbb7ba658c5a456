// White-box test of the full-queue send retry: it reads the parked
// sender's armed callout through the port's send-waiter list, so it
// lives inside package ipc.
package ipc

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sched"
)

// TestSendRetryKeepsOptions parks a combined send+receive on a full
// queue twice, under every kernel. Its options travel across each park
// in the auxiliary record the scratch area's one reference names, so the
// retry after the first park must re-arm SndTimeout for the second, and
// the retry after the second must keep ReceiveFromSet: the reply arrives
// through the port set.
func TestSendRetryKeepsOptions(t *testing.T) {
	const timeout = machine.Duration(2_000_000) // 2 ms
	for _, flavor := range []core.Flavor{core.MK40, core.MK32, core.Mach25} {
		t.Run(flavor.String(), func(t *testing.T) {
			k := core.NewKernel(core.Config{
				Model:  machine.NewCostModel(machine.ArchDS3100),
				Flavor: flavor,
			})
			k.Sched = sched.New(0)
			k.DebugChecks = true
			x := New(k)
			srv := x.NewPort("srv")
			srv.QueueLimit = 1
			rp := x.NewPort("reply")
			rs := x.NewPortSet("replies")
			x.AddToSet(rp, rs)

			var rets []uint64
			var reply any
			step := 0
			client := k.NewThread(core.ThreadSpec{Name: core.NameOf("client"), SpaceID: 1, Program: core.ProgramFunc(
				func(e *core.Env, th *core.Thread) core.Action {
					if th.UserReturn == core.ReturnNone && th.KernelEntries > 0 {
						rets = append(rets, th.MD.RetVal)
					}
					if m := x.Received(th); m != nil {
						reply = m.Body
						x.FreeMessage(m)
					}
					step++
					switch step {
					case 1: // fill the one-message queue
						return core.Syscall("fill", func(e *core.Env) {
							x.MachMsg(e, MsgOptions{Send: x.NewMessage(1, HeaderBytes, "filler", nil), SendTo: srv})
						})
					case 2:
						return core.Syscall("rpc", func(e *core.Env) {
							x.MachMsg(e, MsgOptions{
								Send: x.NewMessage(1, HeaderBytes, "request", rp), SendTo: srv,
								ReceiveFromSet: rs, SndTimeout: timeout,
							})
						})
					}
					return core.Exit()
				})})

			var req *Message
			replied := false
			server := k.NewThread(core.ThreadSpec{Name: core.NameOf("server"), SpaceID: 2, Program: core.ProgramFunc(
				func(e *core.Env, th *core.Thread) core.Action {
					if m := x.Received(th); m != nil {
						if m.Reply == nil {
							x.FreeMessage(m)
						} else {
							req = m
						}
					}
					switch {
					case replied:
						return core.Exit()
					case req != nil:
						to := req.Reply
						x.FreeMessage(req)
						replied = true
						return core.Syscall("reply", func(e *core.Env) {
							x.MachMsg(e, MsgOptions{Send: x.NewMessage(1|ReplyBit, HeaderBytes, "pong", nil), SendTo: to})
						})
					}
					return core.Syscall("recv", func(e *core.Env) {
						x.MachMsg(e, MsgOptions{ReceiveFrom: srv})
					})
				})})

			// First park: the queue holds the filler.
			k.Setrun(client)
			for k.StepNoAdvance() {
			}
			if client.State() != core.StateWaiting || srv.SendWaiters() != 1 {
				t.Fatalf("client not parked: %v, %d send waiters", client.State(), srv.SendWaiters())
			}
			first := srv.sndWaiters()[0].timeout
			if first == nil || !first.Pending() {
				t.Fatal("first park armed no send timeout")
			}

			// At 1 ms the queue drains and refills at once: the retry
			// parks again and must arm a fresh timeout.
			var drainedAt, second machine.Time
			k.Clock.Schedule(k.Clock.Now()+1_000_000, func(any) {
				e := &core.Env{K: k, P: k.Procs[0]}
				x.FreeMessage(srv.pull(x, e))
				x.enqueue(e, srv, x.NewMessage(1, HeaderBytes, "filler2", nil))
				drainedAt = k.Clock.Now()
			}, nil)
			// At 2.5 ms, past the first park's expiry and before the
			// second's, the server starts draining.
			k.Clock.Schedule(k.Clock.Now()+2_500_000, func(any) {
				for _, w := range srv.sndWaiters() {
					if !w.cancelled && w.timeout != nil && w.timeout.Pending() {
						second = k.Clock.When(w.timeout)
					}
				}
				k.Setrun(server)
			}, nil)
			k.Run(0)

			if first.Pending() {
				t.Error("the first park's timeout was left armed")
			}
			if second < drainedAt+timeout {
				t.Errorf("second park's timeout expires at %v, want a fresh %v after the %v drain",
					second, timeout, drainedAt)
			}
			if client.State() != core.StateHalted || server.State() != core.StateHalted {
				t.Fatalf("client %v (%q), server %v (%q)",
					client.State(), client.WaitLabel, server.State(), server.WaitLabel)
			}
			if len(rets) != 2 || rets[0] != MsgSuccess || rets[1] != MsgSuccess {
				t.Fatalf("client rets = %#x, want two MsgSuccess", rets)
			}
			if reply != "pong" {
				t.Fatalf("reply through the set = %v, want pong", reply)
			}
			if srv.SendWaiters() != 0 || k.Clock.Pending() != 0 {
				t.Fatalf("%d send waiters, %d callouts left", srv.SendWaiters(), k.Clock.Pending())
			}
			k.MustValidate()
		})
	}
}

// TestSendRetryKeepsReceiveTimeout parks a combined send+receive on a
// full queue, under every kernel, and lets the queue drain with nobody
// to answer: the retried call must still bound its receive and return
// RcvTimedOut. A retry that loses RcvTimeout blocks that receive
// forever.
func TestSendRetryKeepsReceiveTimeout(t *testing.T) {
	const timeout = machine.Duration(1_000_000) // 1 ms
	for _, flavor := range []core.Flavor{core.MK40, core.MK32, core.Mach25} {
		t.Run(flavor.String(), func(t *testing.T) {
			k := core.NewKernel(core.Config{
				Model:  machine.NewCostModel(machine.ArchDS3100),
				Flavor: flavor,
			})
			k.Sched = sched.New(0)
			k.DebugChecks = true
			x := New(k)
			srv := x.NewPort("srv")
			srv.QueueLimit = 1
			rp := x.NewPort("reply")

			var rets []uint64
			step := 0
			client := k.NewThread(core.ThreadSpec{Name: core.NameOf("client"), SpaceID: 1, Program: core.ProgramFunc(
				func(e *core.Env, th *core.Thread) core.Action {
					if th.UserReturn == core.ReturnNone && th.KernelEntries > 0 {
						rets = append(rets, th.MD.RetVal)
					}
					step++
					switch step {
					case 1:
						return core.Syscall("fill", func(e *core.Env) {
							x.MachMsg(e, MsgOptions{Send: x.NewMessage(1, HeaderBytes, "filler", nil), SendTo: srv})
						})
					case 2:
						return core.Syscall("rpc", func(e *core.Env) {
							x.MachMsg(e, MsgOptions{
								Send: x.NewMessage(1, HeaderBytes, "request", rp), SendTo: srv,
								ReceiveFrom: rp, RcvTimeout: timeout,
							})
						})
					}
					return core.Exit()
				})})
			k.Setrun(client)
			for k.StepNoAdvance() {
			}
			if srv.SendWaiters() != 1 {
				t.Fatalf("client not parked on the full queue: %v", client.State())
			}
			k.Clock.Schedule(k.Clock.Now()+1_000_000, func(any) {
				x.FreeMessage(srv.pull(x, &core.Env{K: k, P: k.Procs[0]}))
			}, nil)
			k.Run(0)
			if client.State() != core.StateHalted {
				t.Fatalf("client stuck in %v (%q)", client.State(), client.WaitLabel)
			}
			if len(rets) != 2 || rets[0] != MsgSuccess || rets[1] != RcvTimedOut {
				t.Fatalf("client rets = %#x, want [MsgSuccess RcvTimedOut]", rets)
			}
			if k.Clock.Pending() != 0 {
				t.Fatalf("%d callouts left", k.Clock.Pending())
			}
			k.MustValidate()
		})
	}
}
