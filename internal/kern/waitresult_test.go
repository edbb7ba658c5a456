package kern_test

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/fault"
	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/machine"
)

// TestWaitResultAcrossSubsystems takes one thread through four kernel
// operations whose waits end in different subsystems: a receive that
// times out (ipc), a device_read that fails after its retries (dev), a
// send parked on a full queue and cancelled by thread_abort (kern), and
// a normal RPC. Every ending travels in the thread's one wait result, so
// each call must return its own code and nothing an earlier call left
// behind; DebugChecks panics on a second post or on a result carried
// back to user space.
func TestWaitResultAcrossSubsystems(t *testing.T) {
	for _, flavor := range []kern.Flavor{kern.MK40, kern.MK32, kern.Mach25} {
		t.Run(flavor.String(), func(t *testing.T) {
			sys := bootForAbort(flavor)
			task := sys.NewTask("t")
			empty := sys.IPC.NewPort("empty")
			stuffed := sys.IPC.NewPort("stuffed")
			stuffed.QueueLimit = 1
			service := sys.IPC.NewPort("service")
			reply := sys.IPC.NewPort("reply")
			ms := machine.Duration(1_000_000)

			served := false
			server := task.NewThread("server", core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
				if served {
					return core.Exit()
				}
				if m := sys.IPC.Received(th); m != nil {
					served = true
					return core.Syscall("reply", func(e *core.Env) {
						sys.IPC.MachMsg(e, ipc.MsgOptions{
							Send: sys.IPC.NewMessage(m.OpID+1, ipc.HeaderBytes, nil, nil), SendTo: m.Reply,
						})
					})
				}
				return core.Syscall("receive", func(e *core.Env) {
					sys.IPC.MachMsg(e, ipc.MsgOptions{ReceiveFrom: service})
				})
			}), 10)

			var client *core.Thread
			send := func(e *core.Env, to *ipc.Port) {
				sys.IPC.MachMsg(e, ipc.MsgOptions{
					Send: sys.IPC.NewMessage(1, ipc.HeaderBytes, nil, nil), SendTo: to,
				})
			}
			calls := []func(*core.Env){
				func(e *core.Env) {
					sys.IPC.MachMsg(e, ipc.MsgOptions{ReceiveFrom: empty, RcvTimeout: ms})
				},
				func(e *core.Env) {
					sys.Dev.SetFaultPlan(fault.New(7, fault.Spec{DeviceFailProb: 1}))
					sys.Dev.DeviceRead(e, sys.Disk, 4096)
				},
				func(e *core.Env) {
					sys.Dev.SetFaultPlan(nil)
					send(e, stuffed) // fills the queue
				},
				func(e *core.Env) {
					sys.K.Clock.Schedule(sys.K.Clock.Now()+ms, func(any) {
						if !sys.ThreadAbort(client) {
							t.Error("ThreadAbort refused the parked sender")
						}
					}, nil)
					send(e, stuffed)
				},
				func(e *core.Env) {
					sys.IPC.MachMsg(e, ipc.MsgOptions{
						Send:        sys.IPC.NewMessage(10, ipc.HeaderBytes, nil, reply),
						SendTo:      service,
						ReceiveFrom: reply,
					})
				},
			}
			var got []uint64
			var answer *ipc.Message
			issued := 0
			client = task.NewThread("client", core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
				if issued > 0 {
					got = append(got, th.MD.RetVal)
				}
				if issued == len(calls) {
					answer = sys.IPC.Received(th)
					return core.Exit()
				}
				issued++
				return core.Syscall("call", calls[issued-1])
			}), 10)
			sys.Start(server)
			sys.Start(client)
			sys.Run(0)

			want := []uint64{ipc.RcvTimedOut, dev.DevIOError, ipc.MsgSuccess, ipc.SendInterrupted, ipc.MsgSuccess}
			if !slices.Equal(got, want) {
				t.Fatalf("return codes = %#x, want %#x", got, want)
			}
			if answer == nil || answer.OpID != 11 {
				t.Fatalf("RPC answer = %+v, want op 11", answer)
			}
			if client.State() != core.StateHalted || server.State() != core.StateHalted {
				t.Fatalf("client %v, server %v; want both halted", client.State(), server.State())
			}
			if sys.Dev.IoRetries != uint64(sys.Dev.IoMaxRetries) || sys.K.Stats.Aborts != 1 {
				t.Fatalf("retries %d, aborts %d; want %d and 1", sys.Dev.IoRetries, sys.K.Stats.Aborts, sys.Dev.IoMaxRetries)
			}
			checkClean(t, sys, flavor)
		})
	}
}
