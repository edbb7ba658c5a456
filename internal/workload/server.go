package workload

import (
	"repro/internal/core"
	"repro/internal/exc"
	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/stats"
)

// EchoServer answers every request on its port forever, replying with
// op|ipc.ReplyBit and the request's size, body and OOL flag to the
// request's reply port: the null RPC server of Table 3, the echo server
// of the message-size sweep and the cluster workloads, where the reply
// port is a netmsg proxy and the reply becomes a packet home. Its two
// syscall actions are built once; a fresh closure per action would
// allocate on every step of the RPC path.
type EchoServer struct {
	sys     *kern.System
	pending *ipc.Message

	recvAct, replyAct core.Action
}

// NewEchoServer returns an echo server receiving on port.
func NewEchoServer(sys *kern.System, port *ipc.Port) *EchoServer {
	s := &EchoServer{sys: sys}
	s.recvAct = receiveAction(sys, port)
	s.replyAct = echoReplyAction(sys, port, &s.pending)
	return s
}

// Next implements core.UserProgram.
func (s *EchoServer) Next(e *core.Env, t *core.Thread) core.Action {
	if m := s.sys.IPC.Received(t); m != nil {
		s.pending = m
	}
	if s.pending == nil {
		return s.recvAct
	}
	return s.replyAct
}

// receiveAction is a server's plain mach_msg receive on port.
func receiveAction(sys *kern.System, port *ipc.Port) core.Action {
	return core.Syscall("mach_msg(receive)", func(e *core.Env) {
		sys.IPC.MachMsg(e, ipc.MsgOptions{ReceiveFrom: port})
	})
}

// echoReplyAction answers the request a server holds in *pending with
// op|ipc.ReplyBit and the request's size, body and OOL flag, recycles the
// request, and receives on port again.
func echoReplyAction(sys *kern.System, port *ipc.Port, pending **ipc.Message) core.Action {
	return core.Syscall("mach_msg(reply+receive)", func(e *core.Env) {
		req := *pending
		*pending = nil
		op, size, body, ool, to := req.OpID, req.Size, req.Body, req.OOL, req.Reply
		sys.IPC.FreeMessage(req)
		reply := sys.IPC.NewMessage(op|ipc.ReplyBit, size, body, nil)
		reply.OOL = ool
		sys.IPC.MachMsg(e, ipc.MsgOptions{Send: reply, SendTo: to, ReceiveFrom: port})
	})
}

// Server is a user-level service task thread: the Unix server, the AFS
// cache manager, or an MS-DOS emulator's exception handler. It receives
// requests on a port, burns some user CPU handling each, optionally
// waits for a remote (network) completion — whose arrival kicks the
// internal network daemon — optionally kicks a device daemon directly,
// and replies.
type Server struct {
	sys *kern.System
	rng *RNG

	// WorkCycles is the user CPU burned per request.
	WorkCycles uint64

	// KickDaemon, when non-nil, is kicked every KickEvery requests
	// (local-device work such as disk interrupts).
	KickDaemon *Daemon
	KickEvery  int

	// RemotePer10k of requests need a network round trip of
	// RemoteLatency before the reply; the packet arrival kicks
	// RemoteKick (the network daemon), whether or not the CPU is busy.
	RemotePer10k  int
	RemoteLatency machine.Duration
	RemoteKick    *Daemon

	// contNetWait resumes the server after its network wait.
	contNetWait *core.Continuation

	// Handled counts completed requests; Remotes counts those that went
	// to the network.
	Handled uint64
	Remotes uint64

	pending *ipc.Message
	worked  bool
	waited  bool
	sinceK  int

	// The server's three syscalls, built once (see EchoServer).
	recvAct, netWaitAct, replyAct core.Action
}

// NewServer creates a server program; the caller wraps it in a thread.
func NewServer(sys *kern.System, port *ipc.Port, workCycles uint64) *Server {
	s := &Server{sys: sys, WorkCycles: workCycles, rng: NewRNG(0x5e1f)}
	s.contNetWait = core.NewContinuation("afs_net_wait_continue", func(e *core.Env) {
		sys.K.ThreadSyscallReturn(e, 0)
	})
	s.recvAct = receiveAction(sys, port)
	// A cache miss: ask the file server over the network and wait for
	// the reply packet. The wait is a message receive from the network
	// service; the packet arrival runs the network daemon.
	s.netWaitAct = core.Syscall("mach_msg(net-receive)", func(e *core.Env) {
		th := e.Cur()
		sys.K.Clock.After(s.RemoteLatency, "afs-packet", func() {
			if s.RemoteKick != nil {
				s.RemoteKick.Kick()
			}
			if th.State() == core.StateWaiting {
				sys.K.Setrun(th)
			}
		})
		e.K.SetState(th, core.StateWaiting)
		th.WaitLabel = "afs: network wait"
		sys.K.Block(e, stats.BlockReceive, s.contNetWait, nil, 192, "afs-net-wait")
	})
	s.replyAct = echoReplyAction(sys, port, &s.pending)
	return s
}

// Next implements core.UserProgram: receive, work, (remote wait,) reply,
// forever.
func (s *Server) Next(e *core.Env, t *core.Thread) core.Action {
	if m := s.sys.IPC.Received(t); m != nil {
		s.pending = m
		s.worked = false
		s.waited = false
	}
	if s.pending == nil {
		return s.recvAct
	}
	if !s.worked && s.WorkCycles > 0 {
		s.worked = true
		return core.RunFor(s.WorkCycles)
	}
	if !s.waited && s.rng.Hit(s.RemotePer10k) {
		s.waited = true
		s.Remotes++
		return s.netWaitAct
	}
	s.Handled++
	if s.KickDaemon != nil {
		s.sinceK++
		if s.sinceK >= s.KickEvery {
			s.sinceK = 0
			s.KickDaemon.Kick()
		}
	}
	return s.replyAct
}

// ExcServer is the user-level exception handler of the MS-DOS emulation:
// it receives exception RPCs from the kernel, emulates the privileged
// instruction with some user work, and replies so the kernel restarts the
// faulting thread. With no work it is Table 3's minimal exception server,
// which neither examines nor changes the faulting thread's state.
type ExcServer struct {
	sys        *kern.System
	WorkCycles uint64

	Handled uint64
	pending *ipc.Message
	worked  bool

	recvAct, replyAct core.Action
}

// NewExcServer creates the exception-server program.
func NewExcServer(sys *kern.System, port *ipc.Port, workCycles uint64) *ExcServer {
	s := &ExcServer{sys: sys, WorkCycles: workCycles}
	s.recvAct = receiveAction(sys, port)
	s.replyAct = core.Syscall("mach_msg(exc-reply+receive)", func(e *core.Env) {
		req := s.pending
		s.pending = nil
		to := req.Reply
		sys.IPC.FreeMessage(req)
		reply := sys.IPC.NewMessage(ipc.ExcOpRaise+100, ipc.HeaderBytes, nil, nil)
		sys.IPC.MachMsg(e, ipc.MsgOptions{Send: reply, SendTo: to, ReceiveFrom: port})
	})
	return s
}

// Next implements core.UserProgram.
func (s *ExcServer) Next(e *core.Env, t *core.Thread) core.Action {
	if m := s.sys.IPC.Received(t); m != nil {
		s.pending = m
		s.worked = false
	}
	if s.pending == nil {
		return s.recvAct
	}
	if !s.worked && s.WorkCycles > 0 {
		s.worked = true
		return core.RunFor(s.WorkCycles)
	}
	if _, ok := s.pending.Body.(*exc.ExcInfo); !ok {
		panic("workload: exception server received a non-exception message")
	}
	s.Handled++
	return s.replyAct
}
