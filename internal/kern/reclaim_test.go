package kern_test

import (
	"fmt"
	"runtime"
	"testing"
	"weak"

	"repro/internal/core"
	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/machine"
)

// oneRPC is a session that makes one RPC on its own reply port, then
// exits.
type oneRPC struct {
	sys           *kern.System
	server, reply *ipc.Port
	called        bool
}

func (s *oneRPC) Next(e *core.Env, t *core.Thread) core.Action {
	if m := s.sys.IPC.Received(t); m != nil {
		s.sys.IPC.FreeMessage(m)
	}
	if s.called {
		return core.Exit()
	}
	s.called = true
	return core.Syscall("rpc", func(e *core.Env) {
		s.sys.IPC.MachMsg(e, ipc.MsgOptions{
			Send:   s.sys.IPC.NewMessage(1, ipc.HeaderBytes, nil, s.reply),
			SendTo: s.server, ReceiveFrom: s.reply,
		})
	})
}

// echoOnce answers every request on its port and recycles both messages.
type echoOnce struct {
	sys     *kern.System
	port    *ipc.Port
	pending *ipc.Message
}

func (s *echoOnce) Next(e *core.Env, t *core.Thread) core.Action {
	if m := s.sys.IPC.Received(t); m != nil {
		s.pending = m
	}
	return core.Syscall("serve", func(e *core.Env) {
		opts := ipc.MsgOptions{ReceiveFrom: s.port}
		if req := s.pending; req != nil {
			s.pending = nil
			opts.SendTo = req.Reply
			opts.Send = s.sys.IPC.NewMessage(1|ipc.ReplyBit, ipc.HeaderBytes, nil, nil)
			s.sys.IPC.FreeMessage(req)
		}
		s.sys.IPC.MachMsg(e, opts)
	})
}

// TestReapedSessionThreadIsFreed runs sessions that each make one RPC and
// exit, under every kernel, and checks that the reaper leaves nothing
// holding a dead session's thread: neither its task's thread list nor
// the reply port it last received on, which outlives it. Every session
// thread the kernel's registry has compacted away must be garbage.
func TestReapedSessionThreadIsFreed(t *testing.T) {
	const n = 64
	for _, flavor := range []kern.Flavor{kern.MK40, kern.MK32, kern.Mach25} {
		t.Run(flavor.FlagName(), func(t *testing.T) {
			sys := kern.New(kern.Config{Flavor: flavor, Arch: machine.ArchDS3100})
			sys.K.DebugChecks = true
			ids, threads, replies := startOneRPCSessions(sys, n)
			sys.Run(0)
			if sys.Reaped < n {
				t.Fatalf("reaper took %d threads, want at least %d", sys.Reaped, n)
			}
			runtime.GC()
			runtime.GC()
			freed := 0
			for i, w := range threads {
				if sys.K.ThreadByID(ids[i]) != nil {
					continue // still in the registry until its next compaction
				}
				if w.Value() != nil {
					t.Errorf("session %d's thread is reaped and compacted but still reachable", i)
				}
				freed++
			}
			if freed < n/2 {
				t.Fatalf("only %d of %d session threads left the registry", freed, n)
			}
			runtime.KeepAlive(replies)
		})
	}
}

// startOneRPCSessions starts an echo server and n oneRPC sessions on sys,
// returning the sessions' thread IDs, weak pointers to their threads and
// their reply ports (which the caller keeps alive), and no strong
// reference to any thread.
func startOneRPCSessions(sys *kern.System, n int) ([]int, []weak.Pointer[core.Thread], []*ipc.Port) {
	port := sys.IPC.NewPort("echo")
	sys.Start(sys.NewTask("server").NewThread("srv", &echoOnce{sys: sys, port: port}, 20))
	task := sys.NewTask("sessions")
	ids := make([]int, n)
	threads := make([]weak.Pointer[core.Thread], n)
	replies := make([]*ipc.Port, n)
	for i := range threads {
		replies[i] = sys.IPC.NewPort(fmt.Sprintf("reply-%d", i))
		th := task.NewThread(fmt.Sprintf("s%d", i), &oneRPC{sys: sys, server: port, reply: replies[i]}, 10)
		ids[i], threads[i] = th.ID, weak.Make(th)
		sys.Start(th)
	}
	return ids, threads, replies
}
