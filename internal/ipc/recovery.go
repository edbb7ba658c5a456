package ipc

import (
	"fmt"

	"repro/internal/core"
)

// AbortWaiter cancels t's registration on whatever waiter or send-waiter
// list holds it, cancelling any armed callout, and returns the Mach code
// the aborted mach_msg should complete with: RcvInterrupted for a
// blocked receive (port or set), SendInterrupted for a sender parked on
// a full queue. It returns ok=false when t is not blocked in IPC; the
// thread itself is not touched — kern's thread_abort resumes it. A
// waiting thread holds at most one live registration (checkInvariants),
// so the first one on its index is the one to cancel.
func (x *IPC) AbortWaiter(t *core.Thread) (code uint64, ok bool) {
	for w := x.record(t).regs; w != nil; w = w.next {
		if w.cancelled {
			continue
		}
		w.cancelled = true
		x.disarm(w)
		if w.send {
			return SendInterrupted, true
		}
		return RcvInterrupted, true
	}
	return 0, false
}

// checkInvariants is the IPC contribution to the kernel invariant sweep
// (registered by New, run by core.Kernel.Validate): every live waiter
// registration belongs to a thread that is actually waiting, no thread
// is live on two lists at once, and no cancelled registration still
// holds an armed callout. It is also the oracle for the per-thread
// registration index: the registrations on every port, send-waiter and
// port-set list are exactly the ones on their threads' indexes. And it
// checks the receive-side pool: a port holds a receive record only while
// the record is nonempty, and every record on the free list is empty.
func (x *IPC) checkInvariants() error {
	where := make(map[*core.Thread]string)
	listed := make(map[*rcvWaiter]string)
	check := func(list []*rcvWaiter, label string, send bool) error {
		for _, w := range list {
			if prev, dup := listed[w]; dup {
				return fmt.Errorf("ipc: registration of %v on both %s and %s", w.t, prev, label)
			}
			listed[w] = label
			if w.send != send {
				return fmt.Errorf("ipc: registration of %v on %s has send=%v", w.t, label, w.send)
			}
			if w.cancelled {
				if w.timeout.Pending() {
					return fmt.Errorf("ipc: cancelled waiter %v on %s holds a live callout", w.t, label)
				}
				continue
			}
			if w.t.State() != core.StateWaiting {
				return fmt.Errorf("ipc: live waiter %v on %s is %v, not waiting", w.t, label, w.t.State())
			}
			if prev, dup := where[w.t]; dup {
				return fmt.Errorf("ipc: %v live on both %s and %s", w.t, prev, label)
			}
			where[w.t] = label
		}
		return nil
	}
	for _, p := range x.ports {
		r := p.rcv
		if r == nil {
			continue
		}
		if len(r.queue)+len(r.waiters)+len(r.sendWaiters) == 0 {
			return fmt.Errorf("ipc: port %s holds an empty receive record", p.Name())
		}
		if err := check(r.waiters, "port "+p.Name().String(), false); err != nil {
			return err
		}
		if err := check(r.sendWaiters, "send-waiters of "+p.Name().String(), true); err != nil {
			return err
		}
	}
	for _, r := range x.recvFree {
		if len(r.queue)+len(r.waiters)+len(r.sendWaiters) != 0 {
			return fmt.Errorf("ipc: a free receive record holds %d messages and %d registrations",
				len(r.queue), len(r.waiters)+len(r.sendWaiters))
		}
	}
	for _, ps := range x.sets {
		if err := check(ps.waiters, "set "+ps.Name, false); err != nil {
			return err
		}
	}
	indexed := 0
	for id, r := range x.threads {
		head := r.regs
		if head != nil && head.prev != nil {
			return fmt.Errorf("ipc: registration index of thread %d has a bad head", id)
		}
		for w := head; w != nil; w = w.next {
			if w.t.ID != id {
				return fmt.Errorf("ipc: registration of %v on the index of thread %d", w.t, id)
			}
			if w.next != nil && w.next.prev != w {
				return fmt.Errorf("ipc: registration index of %v has a broken back link", w.t)
			}
			if _, ok := listed[w]; !ok {
				return fmt.Errorf("ipc: registration index of %v holds a registration on no waiter list", w.t)
			}
			indexed++
		}
	}
	if indexed != len(listed) {
		return fmt.Errorf("ipc: %d registrations on waiter lists, %d on thread indexes", len(listed), indexed)
	}
	return nil
}
