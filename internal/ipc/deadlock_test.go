package ipc_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ipc"
	"repro/internal/machine"
)

// selfWaiter is a thread that deadlocks on itself: it first receives one
// primed message from its own port (becoming the port's last receiver,
// hence its owner in the wait-for graph), then sends a request to that
// same port and blocks awaiting the reply. The only thread obligated to
// drain the port and answer is itself — a one-node cycle.
type selfWaiter struct {
	x     *ipc.IPC
	port  *ipc.Port
	reply *ipc.Port
	step  int
}

func (s *selfWaiter) Next(e *core.Env, t *core.Thread) core.Action {
	if m := s.x.Received(t); m != nil {
		s.x.FreeMessage(m)
	}
	switch s.step {
	case 0:
		s.step = 1
		return core.Syscall("mach_msg(prime-recv)", func(e *core.Env) {
			s.x.MachMsg(e, ipc.MsgOptions{ReceiveFrom: s.port})
		})
	default:
		s.step = 2
		return core.Syscall("mach_msg(self-rpc)", func(e *core.Env) {
			req := s.x.NewMessage(7, ipc.HeaderBytes, nil, s.reply)
			s.x.MachMsg(e, ipc.MsgOptions{
				Send: req, SendTo: s.port, ReceiveFrom: s.reply,
			})
		})
	}
}

// primeSend starts a throwaway thread that sends one no-reply message to
// the port, so the receiver under test becomes the port's last receiver.
func primeSend(k *core.Kernel, x *ipc.IPC, to *ipc.Port) {
	sent := false
	prog := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
		if sent {
			return core.Exit()
		}
		sent = true
		return core.Syscall("mach_msg(prime)", func(e *core.Env) {
			m := x.NewMessage(9, ipc.HeaderBytes, nil, nil)
			x.MachMsg(e, ipc.MsgOptions{Send: m, SendTo: to})
		})
	})
	k.Setrun(k.NewThread(core.ThreadSpec{Name: core.NameOf("primer"), SpaceID: 90, Program: prog}))
}

// TestFindDeadlockSelfWait: the smallest possible blocking cycle — a
// thread waiting for a reply that only it could send — must be reported
// as a one-entry cycle naming that thread and its continuation.
func TestFindDeadlockSelfWait(t *testing.T) {
	k, x := newIPCKernel(t, core.MK40)
	port := x.NewPort("self")
	reply := x.NewPort("self-reply")
	sw := &selfWaiter{x: x, port: port, reply: reply}
	th := k.NewThread(core.ThreadSpec{Name: core.NameOf("selfish"), SpaceID: 1, Program: sw})
	k.Setrun(th)
	primeSend(k, x, port)
	k.Run(0)

	if th.State() != core.StateWaiting {
		t.Fatalf("selfish thread is %v, want blocked", th.State())
	}
	cycle := x.FindDeadlock()
	if cycle == nil {
		t.Fatal("self-wait cycle not detected")
	}
	if len(cycle) != 1 {
		t.Fatalf("cycle = %v, want exactly the one self-waiting thread", cycle)
	}
	if !strings.Contains(cycle[0], "selfish") {
		t.Fatalf("cycle %q does not name the thread", cycle[0])
	}
	if !strings.Contains(cycle[0], "(") || strings.Contains(cycle[0], "(<stack>)") {
		t.Fatalf("cycle entry %q does not name a continuation", cycle[0])
	}
}

// fullPortSender receives once from its port (claiming ownership), then
// keeps sending no-reply messages at it until the queue fills and the
// send blocks — on itself, since it is the port's owner. With sndTimeout
// armed the blocked send will resolve on its own, so the detector must
// NOT call it a deadlock.
type fullPortSender struct {
	x          *ipc.IPC
	port       *ipc.Port
	sndTimeout machine.Duration
	step       int
}

func (s *fullPortSender) Next(e *core.Env, t *core.Thread) core.Action {
	if m := s.x.Received(t); m != nil {
		s.x.FreeMessage(m)
	}
	if s.step == 0 {
		s.step = 1
		return core.Syscall("mach_msg(prime-recv)", func(e *core.Env) {
			s.x.MachMsg(e, ipc.MsgOptions{ReceiveFrom: s.port})
		})
	}
	if t.MD.RetVal == ipc.SendTimedOut {
		// The armed timeout resolved the blocked send: done.
		return core.Exit()
	}
	s.step++
	return core.Syscall("mach_msg(flood)", func(e *core.Env) {
		m := s.x.NewMessage(uint32(s.step), ipc.HeaderBytes, nil, nil)
		s.x.MachMsg(e, ipc.MsgOptions{
			Send: m, SendTo: s.port, SndTimeout: s.sndTimeout,
		})
	})
}

// buildFullPortSelfBlock boots a sender self-blocked on its own full
// port. It steps the kernel just until the flood send parks (so an armed
// send timeout, if any, has not fired yet) and returns with the thread
// genuinely blocked.
func buildFullPortSelfBlock(t *testing.T, sndTimeout machine.Duration) (*ipc.IPC, *core.Thread) {
	t.Helper()
	k, x := newIPCKernel(t, core.MK40)
	port := x.NewPort("narrow")
	port.QueueLimit = 1
	fp := &fullPortSender{x: x, port: port, sndTimeout: sndTimeout}
	th := k.NewThread(core.ThreadSpec{Name: core.NameOf("flooder"), SpaceID: 1, Program: fp})
	k.Setrun(th)
	primeSend(k, x, port)
	// Step until the sender is parked in its flood phase (step >= 2 rules
	// out the earlier prime-receive block).
	for th.State() != core.StateWaiting || fp.step < 2 {
		if !k.Step() {
			break
		}
	}
	if th.State() != core.StateWaiting || fp.step < 2 {
		t.Fatalf("flooder is %v at step %d, want blocked on the full queue", th.State(), fp.step)
	}
	return x, th
}

// TestFindDeadlockSendCycle: without a timeout the self-blocked sender
// is a real one-node cycle through the full-queue edge (rule 1).
func TestFindDeadlockSendCycle(t *testing.T) {
	x, _ := buildFullPortSelfBlock(t, 0)
	cycle := x.FindDeadlock()
	if cycle == nil {
		t.Fatal("blocked-send self-cycle not detected")
	}
	if len(cycle) != 1 || !strings.Contains(cycle[0], "flooder") {
		t.Fatalf("cycle = %v, want the one self-blocked sender", cycle)
	}
}

// TestFindDeadlockSendTimeoutBreaksCycle: the identical topology with an
// armed send timeout is NOT a deadlock — the waiter will unblock by
// itself, so it must contribute no edge and the detector must stay
// silent. The kernel is stepped only until the send parks, well before
// the timeout fires.
func TestFindDeadlockSendTimeoutBreaksCycle(t *testing.T) {
	timeout := machine.Duration(10 * 1e6) // 10 ms, far beyond the stop time
	x, _ := buildFullPortSelfBlock(t, timeout)
	if cycle := x.FindDeadlock(); cycle != nil {
		t.Fatalf("armed send timeout still reported as deadlock: %v", cycle)
	}
}
