// Package ipc is the interprocess-communication substrate: Mach-style
// ports, messages, and the combined send/receive system call mach_msg,
// including the continuation-based fast RPC path of §2.4 (Figure 2).
//
// The kernel's flavor (core.Flavor, which core owns) decides how a send
// reaches a receiver already waiting on the port:
//
//   - MK40: when core's one handoff rule (Kernel.CanHandoffTo) allows
//     it, the sender delivers the message, hands its stack to the
//     receiver and — still inside its own live call context — recognizes
//     the receiver's continuation (Kernel.HandoffTo). If it is
//     mach_msg_continue the transfer completes inline: no queueing, no
//     scheduler, no repeated parsing, one stack shared between caller and
//     callee.
//
//   - MK32: the process-model kernel with the hand-optimized RPC path:
//     the sender delivers directly to the waiting receiver and
//     context-switches straight to it, bypassing the scheduler and the
//     message queue, but paying a full register save/restore.
//
//   - Mach25: the unoptimized hybrid kernel: messages are always queued,
//     the receiver is merely made runnable, and the general scheduler
//     decides who runs next; the receiver re-parses the message after
//     dequeueing it.
//
// MK40 and MK32 transfer only when the sender's own receive phase would
// block; otherwise, and in MK40 whenever the handoff rule says no (a
// NoHandoff ablation, a receiver blocked without a continuation), the
// sender delivers, wakes the receiver through the run queue and goes on.
// With no receiver waiting, every kernel queues the message. The
// kernel's own senders (an exception raise, a netmsg delivery) pass a
// message to a waiting receiver through the same core primitive
// (HandOff).
package ipc

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Return codes, after Mach's.
const (
	// MsgSuccess is MACH_MSG_SUCCESS.
	MsgSuccess uint64 = 0
	// RcvTooLarge is MACH_RCV_TOO_LARGE: the message exceeded the
	// receiver's size constraint.
	RcvTooLarge uint64 = 0x10004004
	// RcvTimedOut is MACH_RCV_TIMED_OUT: the receive's timeout expired.
	RcvTimedOut uint64 = 0x10004003
	// RcvPortDied is MACH_RCV_PORT_DIED: the port was destroyed while
	// the thread was blocked receiving on it.
	RcvPortDied uint64 = 0x10004007
	// SendInvalidDest is MACH_SEND_INVALID_DEST: the destination port is
	// dead.
	SendInvalidDest uint64 = 0x10000003
	// SendTimedOut is MACH_SEND_TIMED_OUT: the send's timeout expired
	// while the sender was parked on a full queue.
	SendTimedOut uint64 = 0x10000004
	// RcvInterrupted is MACH_RCV_INTERRUPTED: a blocked receive was
	// cancelled by thread_abort.
	RcvInterrupted uint64 = 0x10004005
	// SendInterrupted is MACH_SEND_INTERRUPTED: a blocked send was
	// cancelled by thread_abort.
	SendInterrupted uint64 = 0x10000007
)

// DefaultQueueLimit is the default bound on a port's message queue, as
// in Mach's port backlog default.
const DefaultQueueLimit = 5

// HeaderBytes is the fixed message header size (24 bytes in Mach 3.0).
const HeaderBytes = 24

// ExcOpRaise is the operation id of an exception request message
// (exception_raise in the Mach exception interface).
const ExcOpRaise uint32 = 2401

// ReplyBit marks a reply's operation id: a server answers request op
// with op|ReplyBit, so a client that retries under fresh ids can tell
// the reply to its current attempt from a late one.
const ReplyBit = 0x8000

// NextOpID returns the request id after op: ids count up from 1 below
// ReplyBit and wrap back to 1, so a request id is never 0 and never
// carries the reply bit.
func NextOpID(op uint32) uint32 {
	op = (op + 1) & (ReplyBit - 1)
	if op == 0 {
		op = 1
	}
	return op
}

// Message is a Mach message: a header plus an untyped body. The simulator
// carries an arbitrary Go payload for programs while charging copy costs
// by the declared size.
type Message struct {
	ID     int
	OpID   uint32 // operation id, chosen by the sender
	Size   int    // total bytes including the header
	Body   any    // payload visible to the receiving program
	Reply  *Port  // where the receiver should send the reply
	Sender *core.Thread

	// OOL transfers the body out-of-line: instead of copying Size bytes
	// through the kernel, the pages are remapped copy-on-write into the
	// receiver (Mach's large-message path). Cheaper for large bodies,
	// dearer for small ones.
	OOL bool

	// Trace is the causal-trace context the message carries: stamped
	// from the sending thread when the sender left it zero, adopted by
	// the receiving thread on copy-out. Part of the header, so it
	// crosses machines inside the netmsg framing too.
	Trace obs.TraceContext

	// Deadline is the absolute sim-time deadline the operation carries
	// (overload control). Zero means none. Part of the header: the
	// netmsg framing forwards it across machines, and every tier checks
	// it on dequeue before spending service time.
	Deadline machine.Time

	// EnqueuedAt is when this buffer was minted (local sends) or
	// rebuilt on arrival (remote delivery): the reference point for the
	// queue-sojourn admission controller. Stamped by NewMessage.
	EnqueuedAt machine.Time
}

// Port is a Mach port: a protected message queue with at most one
// receiver task (rights are simplified away; the control-transfer paths
// are what the paper measures).
type Port struct {
	ID   int
	Name string

	queue   []*Message
	waiters []*rcvWaiter

	// sendWaiters are senders blocked on a full queue.
	sendWaiters []*rcvWaiter

	// QueueLimit bounds the message queue; senders block when it is
	// full. Zero means DefaultQueueLimit.
	QueueLimit int

	// dead marks a destroyed port: sends fail with SendInvalidDest and
	// receives with RcvPortDied.
	dead bool

	// Route is an integer the owner of KernelSink keeps with the port,
	// so one sink can serve many ports: on a netmsg reply proxy, the
	// peer's reply route it forwards to. Zero elsewhere.
	Route uint32

	// set is the port set this port belongs to, if any.
	set *PortSet

	// KernelSink marks a port whose receiver is the kernel itself (the
	// reply port of an exception RPC, a netmsg proxy). A send to such a
	// port invokes the sink in the sender's context instead of queueing,
	// with the sender's options by value; the sink must transfer control
	// before returning.
	KernelSink func(e *core.Env, msg *Message, opts MsgOptions)

	// lastReceiver is the thread that most recently registered to receive
	// on (or pulled a message from) this port — the port's presumed owner.
	// The deadlock detector uses it to answer "who is expected to drain
	// this queue" when no receiver is currently registered.
	lastReceiver *core.Thread

	// Enqueued and Dequeued count queue traffic through this port,
	// letting tests verify the fast path bypasses the queue.
	Enqueued uint64
	Dequeued uint64
}

// QueueLen reports how many messages are waiting on the port.
func (p *Port) QueueLen() int { return len(p.queue) }

// Dead reports whether the port has been destroyed.
func (p *Port) Dead() bool { return p.dead }

// Waiters reports how many threads are blocked receiving on the port.
func (p *Port) Waiters() int {
	n := 0
	for _, w := range p.waiters {
		if !w.cancelled {
			n++
		}
	}
	return n
}

// SendWaiters reports how many senders are blocked on the full queue.
func (p *Port) SendWaiters() int {
	n := 0
	for _, w := range p.sendWaiters {
		if !w.cancelled {
			n++
		}
	}
	return n
}

// limit returns the effective queue bound.
func (p *Port) limit() int {
	if p.QueueLimit > 0 {
		return p.QueueLimit
	}
	return DefaultQueueLimit
}

// rcvWaiter is one thread's registration on a port's waiter (or
// send-waiter) list. Cancellation covers consumption by a sender,
// expiry of a receive timeout, and port destruction.
//
// While a registration sits on a list it is also on its thread's index:
// an intrusive doubly linked list (prev/next) headed in the thread's
// record (threadIPC.regs), so the reaper and thread_abort touch only the
// dying thread's registrations instead of sweeping every port.
type rcvWaiter struct {
	t          *core.Thread
	cancelled  bool
	send       bool // on a send-waiter list, not a receive list
	timeout    *machine.Event
	prev, next *rcvWaiter
}

// MsgOptions describes one mach_msg invocation: an optional send phase
// followed by an optional receive phase (both present on the RPC paths).
type MsgOptions struct {
	// Send is the message to transmit; nil for a receive-only call.
	Send *Message
	// SendTo is the destination port of the send phase.
	SendTo *Port
	// ReceiveFrom is the port of the receive phase; nil for send-only.
	ReceiveFrom *Port
	// ReceiveFromSet receives from any member of a port set instead of a
	// single port; mutually exclusive with ReceiveFrom.
	ReceiveFromSet *PortSet
	// MaxSize, when nonzero, is an unusual receive-size constraint: the
	// receiver must verify every message against it, so it blocks with
	// the slow receive continuation and recognition fails (§2.4).
	MaxSize int

	// RcvTimeout, when nonzero, bounds how long the receive phase may
	// block; an expired receive returns RcvTimedOut.
	RcvTimeout machine.Duration

	// SndTimeout, when nonzero, bounds how long the send phase may stay
	// parked on a full queue; an expired send returns SendTimedOut. It
	// bounds each park, re-arming if the retried send blocks again.
	SndTimeout machine.Duration
}

// receiveSource resolves the receive phase's source, or nil.
func (o *MsgOptions) receiveSource() source {
	if o.ReceiveFromSet != nil {
		if o.ReceiveFrom != nil {
			panic("ipc: mach_msg with both ReceiveFrom and ReceiveFromSet")
		}
		return o.ReceiveFromSet
	}
	if o.ReceiveFrom != nil {
		return o.ReceiveFrom
	}
	return nil
}

// Path work costs (machine-independent kernel code; the trap and transfer
// component costs come from machine.TransferCosts). The values are
// calibrated so that Table 3 reproduces; see EXPERIMENTS.md.
var (
	validateCost    = machine.Cost{Instrs: 55, Loads: 14, Stores: 6}  // header and option checks
	portLookupCost  = machine.Cost{Instrs: 55, Loads: 19, Stores: 5}  // name -> port translation, space lock
	rightsCost      = machine.Cost{Instrs: 75, Loads: 20, Stores: 13} // capability and reply-right handling
	findRecvCost    = machine.Cost{Instrs: 28, Loads: 9, Stores: 3}   // probe the waiter list
	deliverCost     = machine.Cost{Instrs: 30, Loads: 8, Stores: 8}   // hand message to a waiting receiver
	msgAllocCost    = machine.Cost{Instrs: 75, Loads: 16, Stores: 18} // kernel buffer for a queued message
	enqueueCost     = machine.Cost{Instrs: 60, Loads: 15, Stores: 13}
	dequeueCost     = machine.Cost{Instrs: 70, Loads: 21, Stores: 10}
	reparseCost     = machine.Cost{Instrs: 70, Loads: 22, Stores: 6}   // receiver-side re-examination
	wakeupCost      = machine.Cost{Instrs: 40, Loads: 10, Stores: 8}   // make a thread runnable
	selectCost      = machine.Cost{Instrs: 150, Loads: 40, Stores: 18} // general scheduler selection (Mach 2.5)
	optionCheckCost = machine.Cost{Instrs: 45, Loads: 14, Stores: 4}   // slow-receive constraint processing

	// Out-of-line transfer: a fixed map setup plus a per-page remap,
	// instead of a per-byte copy.
	oolSetupCost   = machine.Cost{Instrs: 900, Loads: 250, Stores: 180}
	oolPerPageCost = machine.Cost{Instrs: 60, Loads: 14, Stores: 18}
)

// transferCost prices moving a message body across the user/kernel
// boundary: byte copy inline, page remap out-of-line.
func transferCost(m *Message) machine.Cost {
	if !m.OOL {
		return machine.CopyBytes(m.Size)
	}
	pages := uint64((m.Size + 4095) / 4096)
	return oolSetupCost.Plus(oolPerPageCost.Scale(pages))
}

// IPC is the interprocess-communication subsystem of one kernel.
type IPC struct {
	K *core.Kernel

	// ContMsgContinue is mach_msg_continue: the continuation nearly all
	// receivers block with, and the value the fast path recognizes.
	ContMsgContinue *core.Continuation

	// ContMsgRcvSlow is the continuation used when a receive carries
	// unusual options (a MaxSize constraint): it does extra work on every
	// receive, so recognition fails and the general continuation call is
	// taken (§2.4).
	ContMsgRcvSlow *core.Continuation

	// ContMsgSendRetry resumes a sender that blocked on a full message
	// queue.
	ContMsgSendRetry *core.Continuation

	// resumeReceiveFn is resumeReceive's method value, bound once: the
	// process-model receive blocks with it on every call.
	resumeReceiveFn func(*core.Env)

	// threads holds each thread's IPC record, by thread ID. Thread IDs
	// are small and dense per kernel, so a slice beats a map on the
	// per-message path. Take a record through thread and drop the
	// pointer before any call that can grow the table.
	threads []threadIPC

	// ports and sets register every allocation, for the port census and
	// the invariant checker's consistency sweep.
	ports []*Port
	sets  []*PortSet

	// waiterFree and msgFree recycle waiter registrations and message
	// buffers so the steady-state RPC path allocates nothing; see
	// freeWaiter for the timeout caveat.
	waiterFree []*rcvWaiter
	msgFree    []*Message

	nextPortID int
	nextMsgID  int

	// UserReturnHook, when non-nil, is consulted as a receive completes,
	// before control transfers back to user space. Returning true means
	// the hook performed the user-level transfer itself (it must have
	// transferred control). This is the §4 extension point: a registered
	// overriding user-level continuation for system call returns (the
	// LRPC-style transfer protocol).
	UserReturnHook func(e *core.Env, t *core.Thread, m *Message) bool

	// Counters.
	FastRPCs       uint64 // handoff + recognition completions
	SlowReceives   uint64 // completions through a called continuation
	QueuedSends    uint64
	DirectSwitches uint64 // MK32-style directed transfers
}

// threadIPC is one thread's receive state (Mach keeps it in the thread
// too, as ith_kmsg and the receive's user buffer); how a wait ended is
// the thread's own wait result (core.Thread.TakeWaitResult).
type threadIPC struct {
	// regs heads the thread's registration index: every registration
	// naming the thread that is still on some waiter list, live or
	// cancelled. newWaiter links a registration in; freeWaiter, which
	// every removal from a list goes through, unlinks it.
	regs *rcvWaiter

	// delivered is a message handed directly to the blocked receiver,
	// until its resumption consumes it. It models the message travelling
	// on the shared stack (fast path) or in the receiver's pre-posted
	// buffer (MK32 path).
	delivered *Message

	// received is the message the thread's last receive copied out (its
	// user buffer), until the user program reads it through Received.
	received *Message
}

// thread returns t's record, growing the table to hold it.
func (x *IPC) thread(t *core.Thread) *threadIPC {
	for t.ID >= len(x.threads) {
		x.threads = append(x.threads, threadIPC{})
	}
	return &x.threads[t.ID]
}

// record returns a copy of t's record without growing the table: the
// zero record for a thread that never had one.
func (x *IPC) record(t *core.Thread) threadIPC {
	if t.ID < len(x.threads) {
		return x.threads[t.ID]
	}
	return threadIPC{}
}

// New creates the IPC subsystem for a kernel; the kernel's flavor picks
// the transfer discipline (see the package comment).
func New(k *core.Kernel) *IPC {
	x := &IPC{K: k}
	x.ContMsgContinue = core.NewContinuation("mach_msg_continue", x.msgContinue)
	x.ContMsgRcvSlow = core.NewContinuation("mach_msg_receive_slow", x.msgReceiveSlow)
	x.ContMsgSendRetry = core.NewContinuation("mach_msg_send_retry", x.msgSendRetry)
	x.resumeReceiveFn = x.resumeReceive
	k.Invariants = append(k.Invariants, x.checkInvariants)
	return x
}

// NewPort allocates a port.
func (x *IPC) NewPort(name string) *Port {
	x.nextPortID++
	p := &Port{ID: x.nextPortID, Name: name}
	x.ports = append(x.ports, p)
	return p
}

// NewMessage builds a message of the given total size, recycling a freed
// buffer when one is available. IDs are always fresh.
func (x *IPC) NewMessage(op uint32, size int, body any, reply *Port) *Message {
	if size < HeaderBytes {
		size = HeaderBytes
	}
	x.nextMsgID++
	now := x.K.Clock.Now()
	if n := len(x.msgFree); n > 0 {
		m := x.msgFree[n-1]
		x.msgFree[n-1] = nil
		x.msgFree = x.msgFree[:n-1]
		*m = Message{ID: x.nextMsgID, OpID: op, Size: size, Body: body, Reply: reply, EnqueuedAt: now}
		return m
	}
	return &Message{ID: x.nextMsgID, OpID: op, Size: size, Body: body, Reply: reply, EnqueuedAt: now}
}

// FreeMessage returns a consumed message to the subsystem's pool — the
// simulated analogue of freeing the kernel message buffer. The caller must
// drop every reference: a later NewMessage may hand the buffer out again
// with fresh contents.
func (x *IPC) FreeMessage(m *Message) {
	if m == nil {
		return
	}
	*m = Message{}
	x.msgFree = append(x.msgFree, m)
}

// Received returns (and clears) the message the thread's last successful
// receive copied out — how the simulated user program reads its buffer.
func (x *IPC) Received(t *core.Thread) *Message {
	r := x.thread(t)
	m := r.received
	r.received = nil
	if m != nil {
		// The receiver acts on the message's behalf from here on: adopt
		// its trace context (zero clears any stale one).
		t.Trace = m.Trace
	}
	return m
}

// DeliverTo hands a message directly to a receiver (which the caller has
// removed from a waiter list), charging the delivery cost. The receiver's
// resumption will consume it.
func (x *IPC) DeliverTo(e *core.Env, recv *core.Thread, m *Message) {
	e.Charge(deliverCost)
	x.thread(recv).delivered = m
}

// Enqueue places a message on a port's queue, charging allocation and
// queueing: the slow-path delivery used when no receiver can be handed
// the message directly (always, in Mach 2.5).
func (x *IPC) Enqueue(e *core.Env, p *Port, m *Message) {
	x.enqueue(e, p, m)
}

// PopWaiter removes and returns the first thread blocked receiving on the
// port, or nil. The caller becomes responsible for delivering to it.
func (x *IPC) PopWaiter(e *core.Env, p *Port) *core.Thread {
	e.Charge(findRecvCost)
	return x.popWaiter(p)
}

// RegisterReceiver prepares t to block receiving on src: its receive
// parameters go to the scratch area, it joins the waiter list with the
// timeout armed (zero waits forever) and it enters the wait state. The
// caller then blocks it with the returned continuation: nearly all
// receivers block on the common path with mach_msg_continue, a
// size-constrained receive with the slow continuation.
func (x *IPC) RegisterReceiver(t *core.Thread, src source, maxSize int, timeout machine.Duration) *core.Continuation {
	x.saveReceiveState(t, src, maxSize)
	x.armTimeout(src.push(x, t), timeout)
	x.K.SetState(t, core.StateWaiting)
	t.WaitLabel = "mach_msg receive"
	if maxSize > 0 {
		return x.ContMsgRcvSlow
	}
	return x.ContMsgContinue
}

// Receive runs the receive phase of mach_msg in the current thread's
// context: consume a delivered or queued message, or block. Transfers
// control.
func (x *IPC) Receive(e *core.Env, p *Port, maxSize int) {
	x.receive(e, p, maxSize, 0)
}

// ReceiveTimeout is Receive with a bounded block: the receive fails with
// RcvTimedOut after the given wait (zero means wait forever). The netmsg
// proxy path uses it to carry a mach_msg RcvTimeout through a forwarded
// send, which is what lets an RPC client survive a crashed server.
// Transfers control.
func (x *IPC) ReceiveTimeout(e *core.Env, p *Port, maxSize int, timeout machine.Duration) {
	x.receive(e, p, maxSize, timeout)
}

// takeDelivered consumes a message that was directly delivered to t, if
// any.
func (x *IPC) takeDelivered(t *core.Thread) *Message {
	r := x.thread(t)
	m := r.delivered
	r.delivered = nil
	return m
}

// TakeDeliveredPeek reports a pending direct delivery without consuming
// it, used by fast paths to decide whether a receive would block.
func (x *IPC) TakeDeliveredPeek(t *core.Thread) *Message {
	return x.record(t).delivered
}

// popWaiter consumes the first live waiter registration on the port,
// cancelling its timeout.
func (x *IPC) popWaiter(p *Port) *core.Thread {
	return x.popWaiterList(&p.waiters)
}

// popWaiterList consumes the first live registration on any waiter list.
// The consumed prefix is shifted out in place (the backing array is
// reused by later pushes) and its registrations go back to the free list.
func (x *IPC) popWaiterList(list *[]*rcvWaiter) *core.Thread {
	q := *list
	n := 0
	var res *core.Thread
	for n < len(q) {
		w := q[n]
		n++
		if w.cancelled || w.t.State() != core.StateWaiting {
			x.freeWaiter(w)
			continue
		}
		w.cancelled = true
		if w.timeout != nil {
			x.K.Clock.Cancel(w.timeout)
			w.timeout = nil
		}
		res = w.t
		x.freeWaiter(w)
		break
	}
	if n > 0 {
		m := copy(q, q[n:])
		for i := m; i < len(q); i++ {
			q[i] = nil
		}
		*list = q[:m]
	}
	return res
}

// newWaiter takes a registration from the free list, or allocates one,
// and links it into t's index. The caller puts it on a waiter list.
func (x *IPC) newWaiter(t *core.Thread) *rcvWaiter {
	var w *rcvWaiter
	if n := len(x.waiterFree); n > 0 {
		w = x.waiterFree[n-1]
		x.waiterFree[n-1] = nil
		x.waiterFree = x.waiterFree[:n-1]
		w.t = t
	} else {
		w = &rcvWaiter{t: t}
	}
	r := x.thread(t)
	if r.regs != nil {
		r.regs.prev = w
		w.next = r.regs
	}
	r.regs = w
	return w
}

// freeWaiter unlinks a registration that has left its waiter list from
// its thread's index and recycles it. A registration whose timeout is
// still armed is left to the garbage collector: the timeout closure holds
// a reference, and recycling it would let a stale timer cancel an
// unrelated waiter.
func (x *IPC) freeWaiter(w *rcvWaiter) {
	if w.prev != nil {
		w.prev.next = w.next
	} else {
		x.threads[w.t.ID].regs = w.next
	}
	if w.next != nil {
		w.next.prev = w.prev
	}
	w.prev, w.next = nil, nil
	if w.timeout != nil {
		return
	}
	*w = rcvWaiter{}
	x.waiterFree = append(x.waiterFree, w)
}

// push registers t as a receive waiter on p (the source interface).
func (p *Port) push(x *IPC, t *core.Thread) *rcvWaiter {
	w := x.newWaiter(t)
	p.waiters = append(p.waiters, w)
	p.lastReceiver = t
	return w
}

// MachMsg is the mach_msg system call: an optional send phase followed by
// an optional receive phase. It must be invoked from a syscall handler
// and transfers control.
func (x *IPC) MachMsg(e *core.Env, opts MsgOptions) {
	e.Charge(validateCost)
	src := opts.receiveSource()
	if r := x.K.Obs; r != nil && opts.Send != nil && src != nil && opts.Send.Reply != nil {
		// A combined send+receive whose request carries a reply port is
		// the client half of an RPC; the copy-out that completes the
		// receive closes the bracket.
		t := e.Cur()
		dest := ""
		if opts.SendTo != nil {
			dest = opts.SendTo.Name
		}
		r.Emit(obs.RPCStart, t.ID, t.Name, dest)
	}
	if opts.Send != nil {
		x.send(e, opts, src)
		if e.Transferred() {
			return
		}
	}
	if src == nil {
		panic("ipc: mach_msg with neither send nor receive")
	}
	x.receive(e, src, opts.MaxSize, opts.RcvTimeout)
}

// send runs the send phase. It transfers control unless the call goes on
// into its receive phase, which the caller learns from e.Transferred.
func (x *IPC) send(e *core.Env, opts MsgOptions, src source) {
	k := x.K
	t := e.Cur()
	msg := opts.Send
	dest := opts.SendTo
	if dest == nil {
		panic("ipc: send without a destination port")
	}
	msg.Sender = t
	if msg.Trace == (obs.TraceContext{}) {
		msg.Trace = t.Trace
	}
	e.Charge(transferCost(msg)) // copyin or out-of-line map
	if r := k.Obs; r != nil {
		detail := ""
		if r.Retains() {
			detail = strconv.Itoa(msg.Size) + " bytes"
		}
		e.Trace(obs.CopyIn, detail)
	}
	e.Charge(portLookupCost)
	e.Charge(rightsCost)
	if dest.dead {
		// The destination was destroyed: the send fails immediately and
		// the receive phase is not attempted.
		k.ThreadSyscallReturn(e, SendInvalidDest)
		return
	}

	if dest.KernelSink != nil {
		dest.KernelSink(e, msg, opts)
		if !e.Transferred() {
			panic("ipc: kernel sink returned instead of transferring control")
		}
		return
	}

	e.Charge(findRecvCost)
	e.Trace(obs.FindReceiver, dest.Name)
	recv := x.popWaiter(dest)
	if recv == nil {
		// A thread blocked on the port's set can take the message too.
		recv = x.findSetReceiver(dest)
	}

	if recv != nil && k.Flavor != core.Mach25 {
		// A receiver waits: the message goes straight to it. If the
		// sender's receive phase would block, block it there and
		// transfer to the receiver (MK40 when the handoff rule allows
		// it, MK32 always); otherwise wake the receiver through the run
		// queue and let the sender go on.
		x.DeliverTo(e, recv, msg)
		if k.Flavor == core.MK32 {
			x.DirectSwitches++
		}
		if src != nil && !src.hasPending() && x.record(t).delivered == nil &&
			(k.Flavor == core.MK32 || k.CanHandoffTo(recv)) {
			x.transferTo(e, src, opts.MaxSize, opts.RcvTimeout, recv)
			return
		}
		e.Charge(wakeupCost)
		k.Setrun(recv)
		x.finishSendPhase(e, opts)
		return
	}

	// Queue the message and continue (blocking first if the queue is at
	// its limit): always in Mach 2.5, whose waiting receiver is merely
	// made runnable for the general scheduler to arbitrate, and in every
	// kernel when no receiver waits.
	if len(dest.queue) >= dest.limit() {
		x.blockFullQueue(e, dest, opts)
		return
	}
	x.enqueue(e, dest, msg)
	if recv != nil {
		e.Charge(wakeupCost)
		e.Charge(selectCost)
		k.Setrun(recv)
	}
	x.finishSendPhase(e, opts)
}

// blockFullQueue parks the sender until the destination queue drains (or
// the port dies). The whole mach_msg retries from the top when the
// sender resumes. Transfers control.
func (x *IPC) blockFullQueue(e *core.Env, dest *Port, opts MsgOptions) {
	t := e.Cur()
	// The call does not fit in the scratch area's seven words, so it
	// travels in an auxiliary record: a copy of the options, named by
	// the area's one reference.
	saved := new(MsgOptions)
	*saved = opts
	t.Scratch.SetRef(saved)
	w := x.newWaiter(t)
	w.send = true
	dest.sendWaiters = append(dest.sendWaiters, w)
	if d := opts.SndTimeout; d != 0 {
		w.timeout = x.K.Clock.After(d, "mach_msg-snd-timeout", func() {
			if w.cancelled || w.t.State() != core.StateWaiting {
				return
			}
			w.cancelled = true
			x.K.PostWaitResult(w.t, SendTimedOut)
			x.K.Setrun(w.t)
		})
	}
	e.K.SetState(t, core.StateWaiting)
	t.WaitLabel = "mach_msg send (queue full)"
	x.K.Block(e, stats.BlockReceive, x.ContMsgSendRetry, nil, 224, "send-queue-full")
}

// msgSendRetry resumes a sender that blocked on a full queue: retry
// mach_msg from the top with the options blockFullQueue saved. Transfers
// control.
func (x *IPC) msgSendRetry(e *core.Env) {
	t := e.Cur()
	if code, ok := t.TakeWaitResult(); ok {
		x.K.ThreadSyscallReturn(e, code)
		return
	}
	x.MachMsg(e, *t.Scratch.Ref().(*MsgOptions))
}

// wakeSender releases one blocked sender now that the queue has room.
func (x *IPC) wakeSender(p *Port) {
	q := p.sendWaiters
	n := 0
	for n < len(q) {
		w := q[n]
		n++
		if w.cancelled || w.t.State() != core.StateWaiting {
			x.freeWaiter(w)
			continue
		}
		w.cancelled = true
		if w.timeout != nil {
			x.K.Clock.Cancel(w.timeout)
			w.timeout = nil
		}
		x.K.Setrun(w.t)
		x.freeWaiter(w)
		break
	}
	if n > 0 {
		m := copy(q, q[n:])
		for i := m; i < len(q); i++ {
			q[i] = nil
		}
		p.sendWaiters = q[:m]
	}
}

// armTimeout schedules a receive timeout for a registered waiter.
func (x *IPC) armTimeout(w *rcvWaiter, d machine.Duration) {
	if d == 0 {
		return
	}
	w.timeout = x.K.Clock.After(d, "mach_msg-rcv-timeout", func() {
		if w.cancelled || w.t.State() != core.StateWaiting {
			return
		}
		w.cancelled = true
		x.K.PostWaitResult(w.t, RcvTimedOut)
		x.K.Setrun(w.t)
	})
}

// DestroyPort destroys a port: queued messages are discarded, blocked
// receivers wake with RcvPortDied, blocked senders with SendInvalidDest,
// and future sends fail. Idempotent.
func (x *IPC) DestroyPort(e *core.Env, p *Port) {
	if p.dead {
		return
	}
	e.Charge(machine.Cost{Instrs: 90, Loads: 25, Stores: 20})
	p.dead = true
	p.queue = nil
	for _, w := range p.waiters {
		if w.cancelled || w.t.State() != core.StateWaiting {
			continue
		}
		w.cancelled = true
		if w.timeout != nil {
			x.K.Clock.Cancel(w.timeout)
		}
		x.K.PostWaitResult(w.t, RcvPortDied)
		x.K.Setrun(w.t)
	}
	for _, w := range p.waiters {
		x.freeWaiter(w)
	}
	p.waiters = nil
	for _, w := range p.sendWaiters {
		if w.cancelled || w.t.State() != core.StateWaiting {
			continue
		}
		w.cancelled = true
		if w.timeout != nil {
			x.K.Clock.Cancel(w.timeout)
		}
		x.K.PostWaitResult(w.t, SendInvalidDest)
		x.K.Setrun(w.t)
	}
	for _, w := range p.sendWaiters {
		x.freeWaiter(w)
	}
	p.sendWaiters = nil
}

// enqueue places a message on a port's queue.
func (x *IPC) enqueue(e *core.Env, p *Port, msg *Message) {
	e.Charge(msgAllocCost)
	e.Charge(enqueueCost)
	p.queue = append(p.queue, msg)
	p.Enqueued++
	x.QueuedSends++
	e.Trace(obs.QueueMessage, p.Name)
}

// finishSendPhase either falls into the receive phase (returning to the
// caller without a transfer) or completes a send-only call, transferring
// control.
func (x *IPC) finishSendPhase(e *core.Env, opts MsgOptions) {
	if opts.receiveSource() != nil {
		return
	}
	x.K.ThreadSyscallReturn(e, MsgSuccess)
}

// transferTo blocks the sender in its receive phase on src and passes
// control straight to recv, which holds the message: MK40 hands it the
// stack (the §2.4 fast path: recognizing mach_msg_continue completes its
// receive inline, the message passed on the shared stack and checked for
// exceptional conditions by the sender alone), MK32 context-switches
// directly to it. Transfers control.
func (x *IPC) transferTo(e *core.Env, src source, maxSize int, timeout machine.Duration, recv *core.Thread) {
	k := x.K
	cont := x.RegisterReceiver(e.Cur(), src, maxSize, timeout)
	if k.Flavor == core.MK32 {
		k.BlockDirected(e, stats.BlockReceive, x.resumeReceiveFn, 192, "mach_msg", recv)
		return
	}
	k.HandoffTo(e, stats.BlockReceive, cont, recv, x.ContMsgContinue, x.fastRPC)
}

// fastRPC completes a recognized receiver's receive for a user send.
// Transfers control.
func (x *IPC) fastRPC(e *core.Env) {
	x.FastRPCs++
	x.completeDelivered(e)
}

// HandOff is transferTo for the kernel's own senders (an exception
// raise, a netmsg delivery): it delivers msg to recv, a waiting receiver
// the handoff rule approved, and hands it the current thread's stack,
// blocking the current thread with cont. Transfers control.
func (x *IPC) HandOff(e *core.Env, reason stats.BlockReason, cont *core.Continuation, recv *core.Thread, msg *Message) {
	x.DeliverTo(e, recv, msg)
	x.K.HandoffTo(e, reason, cont, recv, x.ContMsgContinue, x.completeDelivered)
}

// completeDelivered finishes the current thread's receive with the
// message handed to it directly: copyout and system-call return, the
// inline sequence of a resumer that recognized mach_msg_continue.
// Transfers control.
func (x *IPC) completeDelivered(e *core.Env) {
	m := x.takeDelivered(e.Cur())
	if m == nil {
		panic("ipc: a recognized receiver lost its delivered message")
	}
	x.copyOutAndReturn(e, m)
}

// saveReceiveState records a blocked receiver's parameters in its scratch
// area: the receive source (port or port set) as its reference and the
// size constraint in word 0.
func (x *IPC) saveReceiveState(t *core.Thread, src source, maxSize int) {
	t.Scratch.SetRef(src)
	t.Scratch.PutWord(0, uint32(maxSize))
}

// receive runs the receive phase in the receiving thread's own context,
// from a port or a port set. Transfers control.
func (x *IPC) receive(e *core.Env, src source, maxSize int, timeout machine.Duration) {
	t := e.Cur()
	// A wait that ended in a timeout or a port death ends the call.
	if code, ok := t.TakeWaitResult(); ok {
		x.K.ThreadSyscallReturn(e, code)
		return
	}
	// A message may already have been handed to us.
	if m := x.takeDelivered(t); m != nil {
		x.finishReceiveChecked(e, m, maxSize)
		return
	}
	if src.isDead() {
		x.K.ThreadSyscallReturn(e, RcvPortDied)
		return
	}
	if m := src.pull(x, e); m != nil {
		x.finishReceiveChecked(e, m, maxSize)
		return
	}

	// Nothing available: block.
	cont := x.RegisterReceiver(t, src, maxSize, timeout)
	x.K.Block(e, stats.BlockReceive, cont, x.resumeReceiveFn, 192, "mach_msg")
}

// resumeReceive is the process-model resumption of a blocked receive,
// from the parameters RegisterReceiver saved. Re-parsing costs are
// charged where a message is actually dequeued. Transfers control.
func (x *IPC) resumeReceive(e *core.Env) {
	src, maxSize := x.savedReceiveState(e.Cur())
	x.receive(e, src, maxSize, 0)
}

// msgContinue is mach_msg_continue: the general continuation of a
// receiver blocked on the common path. It runs when the transfer was not
// completed inline by a recognizing sender. Transfers control.
func (x *IPC) msgContinue(e *core.Env) {
	t := e.Cur()
	src, maxSize := x.savedReceiveState(t)
	if code, ok := t.TakeWaitResult(); ok {
		x.K.ThreadSyscallReturn(e, code)
		return
	}
	if m := x.takeDelivered(t); m != nil {
		x.SlowReceives++
		x.copyOutAndReturn(e, m)
		return
	}
	// Woken to drain the queue.
	x.receive(e, src, maxSize, 0)
}

// msgReceiveSlow is the continuation of a receiver with unusual options:
// it re-checks the size constraint on every message, which is why the
// fast path cannot recognize it away. Transfers control.
func (x *IPC) msgReceiveSlow(e *core.Env) {
	t := e.Cur()
	src, maxSize := x.savedReceiveState(t)
	e.Charge(optionCheckCost)
	if code, ok := t.TakeWaitResult(); ok {
		x.K.ThreadSyscallReturn(e, code)
		return
	}
	if m := x.takeDelivered(t); m != nil {
		x.SlowReceives++
		x.finishReceiveChecked(e, m, maxSize)
		return
	}
	x.receive(e, src, maxSize, 0)
}

// savedReceiveState recovers the parameters stashed by saveReceiveState.
func (x *IPC) savedReceiveState(t *core.Thread) (source, int) {
	src, ok := t.Scratch.Ref().(source)
	if !ok {
		panic(fmt.Sprintf("ipc: %v resumed a receive without saved state", t))
	}
	return src, int(t.Scratch.Word(0))
}

// finishReceiveChecked applies the receiver's size constraint, then
// copies out. Transfers control.
func (x *IPC) finishReceiveChecked(e *core.Env, m *Message, maxSize int) {
	if maxSize > 0 {
		e.Charge(optionCheckCost)
		if m.Size > maxSize {
			x.K.ThreadSyscallReturn(e, RcvTooLarge)
			return
		}
	}
	x.copyOutAndReturn(e, m)
}

// copyOutAndReturn copies the message to user space and completes the
// system call. Transfers control.
func (x *IPC) copyOutAndReturn(e *core.Env, m *Message) {
	t := e.Cur()
	e.Charge(transferCost(m))
	if r := x.K.Obs; r != nil {
		detail := ""
		if r.Retains() {
			detail = strconv.Itoa(m.Size) + " bytes"
		}
		e.Trace(obs.CopyOut, detail)
		r.Emit(obs.RPCEnd, t.ID, t.Name, "")
	}
	x.thread(t).received = m
	if x.UserReturnHook != nil && x.UserReturnHook(e, t, m) {
		if !e.Transferred() {
			panic("ipc: user return hook returned instead of transferring control")
		}
		return
	}
	x.K.ThreadSyscallReturn(e, MsgSuccess)
}
