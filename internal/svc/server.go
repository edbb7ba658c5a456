package svc

import (
	"repro/internal/core"
	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/overload"
)

// The request-handling rules both server tiers share. The KV replica
// and the cache worker each keep their own receive loop and state; how
// they answer a request, count done clients, shed under overload and
// send are written once here.

// outbound is one queued message: the replica drains its queue one send
// per dispatch, each combined with a receive so the thread keeps
// servicing its port; a cache worker holds at most one.
type outbound struct {
	to   *ipc.Port
	opid uint32
	w    *Wire
	// trace stamps the send (zero for untraced control traffic); at is
	// when the work this message answers arrived, so the dwell between
	// handling and transmission is recorded as a service span.
	trace obs.TraceContext
	at    machine.Time
}

// answer builds the reply to request opid on port to: the message
// carries opid|ipc.ReplyBit and the Wire echoes opid. A traced answer
// carries ctx, and its dwell since at becomes the tier's service span;
// untraced ones pass the zero context.
func answer(to *ipc.Port, opid uint32, w *Wire, ctx obs.TraceContext, at machine.Time) outbound {
	w.OpID = opid
	return outbound{to: to, opid: opid | ipc.ReplyBit, w: w, trace: ctx, at: at}
}

// doneLedger records which client threads have reported completion. A
// tier keeps it in its durable config: a server that crashes after
// acknowledging a done must still count it, because the exited client
// never resends.
type doneLedger struct {
	done []bool
	left int
}

// init sizes the ledger for n clients on first boot; reboots keep it.
func (d *doneLedger) init(n int) {
	if d.done == nil {
		d.done = make([]bool, n)
		d.left = n
	}
}

// handle counts a MsgDone from client w.From — once per client; a
// repeated or out-of-range index counts nothing — and returns the
// acknowledgement owed on reply (ok false when there is no reply port).
func (d *doneLedger) handle(w *Wire, reply *ipc.Port) (ack outbound, ok bool) {
	if i := w.From; i >= 0 && i < len(d.done) && !d.done[i] {
		d.done[i] = true
		d.left--
	}
	if reply == nil {
		return outbound{}, false
	}
	return answer(reply, w.OpID, &Wire{Kind: MsgReply, Found: true}, obs.TraceContext{}, 0), true
}

// shed is an armed tier's dequeue gate on one client request: work
// already past its deadline is Expired (its client gave up on it;
// serving it is pure waste), and the CoDel controller refuses
// admission (Rejected) once the queue's sojourn has stayed over target
// for a full interval. Anything else is admitted (OK). Each verdict
// bumps its counter in ov. A shed request is answered with refusal and
// nothing of it is applied.
func shed(codel *overload.CoDel, ov *overload.Stats, now, deadline, enq machine.Time) Outcome {
	if deadline != 0 && now >= deadline {
		ov.Expired++
		return Expired
	}
	if !codel.Admit(now, enq) {
		ov.Rejected++
		return Rejected
	}
	ov.Admitted++
	return OK
}

// refusal is the typed reply of the given kind to a request shed with o.
func refusal(kind MsgKind, o Outcome) *Wire {
	return &Wire{Kind: kind, Expired: o == Expired, Rejected: o == Rejected}
}

// serviceSpan records a sampled request's time at this tier, from
// start until now, as a service span named name under ctx.
func serviceSpan(sys *kern.System, ctx obs.TraceContext, name string, tid int, start machine.Time) {
	if rec := sys.K.Obs; rec != nil && ctx.Sampled() {
		rec.RecordSpan(obs.Span{
			Trace: ctx.Trace, ID: rec.NextSpanID(ctx.Trace),
			Parent: ctx.Span, Name: name,
			Seg: obs.SegService, TID: tid,
			Start: start, End: sys.K.Clock.Now(),
		})
	}
}

// send transmits o from the current thread and then receives on rcv
// with the given timeout, in one mach_msg. A traced message first
// records the tier's dwell on its request as the service span named
// span. Message and thread are both stamped with o's context: a traced
// send carries it, an untraced one must not inherit whatever the thread
// last received. Transfers control.
func send(e *core.Env, sys *kern.System, o outbound, span string, rcv *ipc.Port, timeout machine.Duration) {
	serviceSpan(sys, o.trace, span, e.Cur().ID, o.at)
	msg := sys.IPC.NewMessage(o.opid, wireBytes(o.w), o.w, nil)
	msg.Trace = o.trace
	e.Cur().Trace = o.trace
	sys.IPC.MachMsg(e, ipc.MsgOptions{
		Send: msg, SendTo: o.to,
		ReceiveFrom: rcv, RcvTimeout: timeout,
	})
}
