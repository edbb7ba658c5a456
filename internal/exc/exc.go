// Package exc is the exception-handling substrate (§2.5): every thread
// has an exception port served by a user-level exception server; the
// kernel turns a fault or trap into an RPC on that port and restarts the
// thread when the server's reply arrives.
//
// Unlike a user-to-user RPC, the kernel itself is an endpoint of the
// exchange, which the continuation kernel exploits twice:
//
//   - outbound, the faulting thread defers building the request message
//     and, if a server thread is waiting with mach_msg_continue, hands its
//     stack directly to the server, passing the fault information in the
//     shared call context — no message copy, parse or queueing;
//
//   - inbound, the reply port is a kernel sink: the server's reply send
//     runs a kernel completion in the server's context, which hands the
//     stack straight back to the faulting thread and recognizes its
//     "return from exception" continuation.
//
// Both directions ask core's one handoff rule (Kernel.CanHandoffTo), so
// the kernel's flavor and the NoHandoff ablation decide them the same
// way they decide a user RPC. When the rule says no — always in MK32 and
// Mach 2.5 — the exchange takes the unoptimized path the paper measured
// there: a full request message is built, queued and re-parsed in each
// direction, the waiting server is made runnable, and the general
// scheduler runs in between. The flavor only sets that path's extra
// packaging cost.
package exc

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ipc"
	"repro/internal/machine"
	"repro/internal/stats"
)

// ExcInfo is the body of an exception request message: what the server
// learns about the fault. The request carries a *ExcInfo that the kernel
// keeps per raising thread and rewrites on each raise, so a raise
// allocates nothing: the record is valid until that thread's next raise.
type ExcInfo struct {
	Thread *core.Thread
	Code   int
}

// ExcMsgBytes is the size of a full exception request message (the
// paper-era exception message carries thread, task and fault state).
const ExcMsgBytes = 64

// Path costs. The fast path defers message construction (deferCost); the
// slow path builds, copies and parses a full message each way.
var (
	portLookupCost  = machine.Cost{Instrs: 60, Loads: 30, Stores: 10}    // find the thread's exception port
	deferCost       = machine.Cost{Instrs: 20, Loads: 290, Stores: 10}   // gather fault state into the shared context
	buildMsgCost    = machine.Cost{Instrs: 80, Loads: 640, Stores: 300}  // construct the full request message (incl. thread state)
	replyCost       = machine.Cost{Instrs: 20, Loads: 115, Stores: 10}   // kernel-side reply processing
	stateRestore    = machine.Cost{Instrs: 60, Loads: 540, Stores: 300}  // unpack thread state from a full reply message
	restartCost     = machine.Cost{Instrs: 20, Loads: 180, Stores: 10}   // reload the faulting thread's state
	mk32ExtraCost   = machine.Cost{Instrs: 40, Loads: 1040, Stores: 500} // MK32's revised-IPC exception packaging
	mach25ExtraCost = machine.Cost{Instrs: 1240, Loads: 46, Stores: 0}   // hybrid kernel's older exception layer
)

// Exc is the exception subsystem.
type Exc struct {
	K *core.Kernel
	X *ipc.IPC

	// ContExcReturn is the continuation a faulting thread blocks with
	// while its exception server works; calling it restarts the thread in
	// user space. The inbound fast path recognizes it.
	ContExcReturn *core.Continuation

	// threads holds each thread's exception ports, by thread ID.
	threads map[int]threadPorts

	// Counters.
	FastRaises  uint64 // outbound handoffs to a waiting server
	SlowRaises  uint64 // outbound through the message path
	FastReplies uint64 // inbound handoffs back to the faulter
	SlowReplies uint64
}

// threadPorts is one thread's exception state: the port its exceptions
// are serviced on, and the kernel reply port its exception server
// answers on and the request body it is sent, both created at the
// thread's first exception.
type threadPorts struct {
	exc, reply *ipc.Port
	info       *ExcInfo
}

// New creates the exception subsystem and installs its handler on the
// kernel.
func New(k *core.Kernel, x *ipc.IPC) *Exc {
	ex := &Exc{K: k, X: x, threads: make(map[int]threadPorts)}
	ex.ContExcReturn = core.NewContinuation("exception_return", func(e *core.Env) {
		e.Charge(restartCost)
		k.ThreadExceptionReturn(e)
	})
	k.HandleException = ex.Handle
	return ex
}

// SetExceptionPort registers the port on which a thread's exceptions are
// serviced (thread_set_exception_port).
func (ex *Exc) SetExceptionPort(t *core.Thread, p *ipc.Port) {
	ports := ex.threads[t.ID]
	ports.exc = p
	ex.threads[t.ID] = ports
}

// Handle services a user-level exception on the current thread. Installed
// as the kernel's exception handler; transfers control.
func (ex *Exc) Handle(e *core.Env, code int) {
	k := ex.K
	t := e.Cur()
	e.Charge(portLookupCost)
	ports := ex.threads[t.ID]
	if ports.exc == nil {
		panic(fmt.Sprintf("exc: %v raised exception %d with no exception port", t, code))
	}
	if ports.reply == nil {
		// The kernel is the reply port's receiver: its sink restarts t.
		ports.reply = ex.X.NewNamedPort(core.IndexedName("exc-reply-", t.ID))
		ports.reply.KernelSink = func(e *core.Env, msg *ipc.Message, opts ipc.MsgOptions) {
			ex.replySink(e, t, msg, opts)
		}
		ports.info = &ExcInfo{Thread: t}
		ex.threads[t.ID] = ports
	}
	port, reply, info := ports.exc, ports.reply, ports.info
	info.Code = code

	// One raise sequence for every kernel: take a server thread already
	// waiting on the port, then either hand it the stack (§2.5) or queue
	// the request and wake it.
	server := ex.X.PopWaiter(e, port)
	e.K.SetState(t, core.StateWaiting)
	t.WaitLabel = "exception reply"
	if server != nil && k.CanHandoffTo(server) {
		// Defer the request message: the fault information travels in
		// the shared stack context.
		e.Charge(deferCost)
		ex.FastRaises++
		msg := ex.X.NewMessage(ipc.ExcOpRaise, ipc.HeaderBytes, info, reply)
		ex.X.HandOff(e, stats.BlockException, ex.ContExcReturn, server, msg)
		return
	}
	// The unoptimized path: build a real message and queue it.
	ex.SlowRaises++
	e.Charge(buildMsgCost)
	switch k.Flavor {
	case core.MK32:
		e.Charge(mk32ExtraCost)
	case core.Mach25:
		e.Charge(mach25ExtraCost)
	}
	msg := ex.X.NewMessage(ipc.ExcOpRaise, ExcMsgBytes, info, reply)
	ex.X.Enqueue(e, port, msg)
	if server != nil {
		k.Setrun(server)
	}
	k.Block(e, stats.BlockException, ex.ContExcReturn, nil, 256, "exception-wait")
}

// replySink processes the server's reply send in the server's kernel
// context: the kernel is the receiver, so no copyout or queueing happens;
// the reply is recycled unread and the faulting thread is restarted.
// Transfers control.
func (ex *Exc) replySink(e *core.Env, faulter *core.Thread, msg *ipc.Message, opts ipc.MsgOptions) {
	k := ex.K
	e.Charge(replyCost)
	ex.X.FreeMessage(msg)
	server := e.Cur()

	// The handoff-back shortcut requires that the server's next receive
	// would genuinely block: if messages are already queued on its port
	// the server must drain them instead (or it would sleep on a
	// non-empty queue and strand the messages).
	if opts.ReceiveFrom != nil && opts.ReceiveFrom.QueueLen() == 0 &&
		ex.X.TakeDeliveredPeek(server) == nil &&
		faulter.BlockedWith(ex.ContExcReturn) && k.CanHandoffTo(faulter) {
		// Fast inbound path: block the server on its next receive and
		// hand the stack straight back to the faulting thread, whose
		// recognized "return from exception" runs in place.
		ex.FastReplies++
		cont := ex.X.RegisterReceiver(server, opts.ReceiveFrom, opts.MaxSize, 0)
		k.HandoffTo(e, stats.BlockReceive, cont, faulter, ex.ContExcReturn, nil)
		return
	}

	// Slow inbound: unpack the reply message, wake the faulter through
	// the scheduler and let the server continue with its own receive.
	ex.SlowReplies++
	e.Charge(stateRestore)
	if faulter.State() == core.StateWaiting {
		k.Setrun(faulter)
	}
	if opts.ReceiveFrom != nil {
		ex.X.Receive(e, opts.ReceiveFrom, opts.MaxSize)
		return
	}
	k.ThreadSyscallReturn(e, ipc.MsgSuccess)
}
