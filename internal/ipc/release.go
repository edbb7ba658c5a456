package ipc

import "repro/internal/core"

// ReleaseThread drops every IPC resource still charged to a thread that
// will never run again: a halted thread about to be reaped, or one
// killed by thread_abort racing its own exit. Delivered and received
// message buffers go back to the free pool, and any waiter registration
// still naming the thread is cancelled with its callout disarmed — which
// also makes the registration recyclable (freeWaiter refuses
// registrations holding an armed timeout, so before this an abnormally
// terminated receiver could strand its registration for the garbage
// collector). Only t's own registration index is walked. The entries
// stay on their lists — the normal pop and sweep paths recycle cancelled
// registrations.
func (x *IPC) ReleaseThread(t *core.Thread) {
	if t.ID >= len(x.threads) {
		return
	}
	r := &x.threads[t.ID]
	x.FreeMessage(r.delivered)
	x.FreeMessage(r.received)
	r.delivered, r.received = nil, nil
	for w := r.regs; w != nil; w = w.next {
		x.disarm(w)
		w.cancelled = true
	}
}

// Residue counts IPC state still attached to a thread: pending message
// buffers and live waiter registrations. It is zero after ReleaseThread;
// the kern reaper asserts this census on every reap so a leak on the
// abnormal-termination path fails loudly.
func (x *IPC) Residue(t *core.Thread) int {
	r := x.record(t)
	n := 0
	if r.delivered != nil {
		n++
	}
	if r.received != nil {
		n++
	}
	for w := r.regs; w != nil; w = w.next {
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
