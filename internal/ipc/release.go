package ipc

import "repro/internal/core"

// ReleaseThread drops every IPC resource still charged to a thread that
// will never run again: a halted thread about to be reaped, or one
// killed by thread_abort racing its own exit. Delivered and received
// message buffers go back to the free pool, a pending receive error is
// forgotten, and any waiter registration still naming the thread is
// cancelled with its callout disarmed — which also makes the
// registration recyclable (freeWaiter refuses registrations holding an
// armed timeout, so before this an abnormally terminated receiver could
// strand its registration for the garbage collector). Only t's own
// registration index is walked. The entries stay on their lists — the
// normal pop and sweep paths recycle cancelled registrations.
func (x *IPC) ReleaseThread(t *core.Thread) {
	if m := x.delivered[t.ID]; m != nil {
		delete(x.delivered, t.ID)
		x.FreeMessage(m)
	}
	if m := x.received[t.ID]; m != nil {
		delete(x.received, t.ID)
		x.FreeMessage(m)
	}
	delete(x.rcvError, t.ID)
	for w := x.registrations(t); w != nil; w = w.next {
		if w.timeout != nil {
			x.K.Clock.Cancel(w.timeout)
			w.timeout = nil
		}
		w.cancelled = true
	}
}

// Residue counts IPC state still attached to a thread: pending message
// buffers, a saved receive error, and live waiter registrations. It is
// zero after ReleaseThread; the kern reaper asserts this census on every
// reap so a leak on the abnormal-termination path fails loudly.
func (x *IPC) Residue(t *core.Thread) int {
	n := 0
	if x.delivered[t.ID] != nil {
		n++
	}
	if x.received[t.ID] != nil {
		n++
	}
	if _, ok := x.rcvError[t.ID]; ok {
		n++
	}
	for w := x.registrations(t); w != nil; w = w.next {
		if !w.cancelled {
			n++
		}
	}
	return n
}

// LivePorts counts undestroyed ports — the port census captured into a
// crash panic record.
func (x *IPC) LivePorts() int {
	n := 0
	for _, p := range x.ports {
		if !p.dead {
			n++
		}
	}
	return n
}
