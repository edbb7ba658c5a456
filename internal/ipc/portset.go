package ipc

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
)

// source is anything a thread can receive from: a single port or a port
// set. The receive path is written against this interface so the fast
// paths (handoff, recognition) work identically for both.
type source interface {
	// isDead reports whether receiving can never succeed again.
	isDead() bool
	// hasPending reports whether a message could be pulled right now.
	hasPending() bool
	// pull dequeues the next message, charging costs and releasing a
	// blocked sender if room opened; nil when empty.
	pull(x *IPC, e *core.Env) *Message
	// push registers a receive waiter (x supplies the registration pool).
	push(x *IPC, t *core.Thread) *rcvWaiter
}

// PortSet is a Mach port set: a server receives from all member ports
// with a single mach_msg, serving many objects with one thread pool.
type PortSet struct {
	ID   int
	Name string

	members []*Port
	waiters []*rcvWaiter

	// rr rotates the scan start so no member port starves.
	rr int
}

// NewPortSet allocates an empty port set.
func (x *IPC) NewPortSet(name string) *PortSet {
	x.nextPortID++
	ps := &PortSet{ID: x.nextPortID, Name: name}
	x.sets = append(x.sets, ps)
	return ps
}

// AddToSet puts a port into the set. A port belongs to at most one set.
func (x *IPC) AddToSet(p *Port, ps *PortSet) {
	if p.set == ps {
		return
	}
	if p.set != nil {
		panic(fmt.Sprintf("ipc: port %s already in set %s", p.Name(), p.set.Name))
	}
	p.set = ps
	ps.members = append(ps.members, p)
}

// RemoveFromSet takes a port out of its set.
func (x *IPC) RemoveFromSet(p *Port) {
	ps := p.set
	if ps == nil {
		return
	}
	p.set = nil
	for i, m := range ps.members {
		if m == p {
			ps.members = append(ps.members[:i], ps.members[i+1:]...)
			break
		}
	}
}

// Members reports the set's current size.
func (ps *PortSet) Members() int { return len(ps.members) }

// Waiters reports threads blocked receiving on the set.
func (ps *PortSet) Waiters() int { return liveWaiters(ps.waiters) }

func (ps *PortSet) isDead() bool { return false }

func (ps *PortSet) hasPending() bool {
	for _, p := range ps.members {
		if p.hasPending() {
			return true
		}
	}
	return false
}

func (ps *PortSet) pull(x *IPC, e *core.Env) *Message {
	n := len(ps.members)
	for i := 0; i < n; i++ {
		p := ps.members[(ps.rr+i)%n]
		if !p.hasPending() {
			continue
		}
		ps.rr = (ps.rr + i + 1) % n
		return p.pull(x, e)
	}
	return nil
}

func (ps *PortSet) push(x *IPC, t *core.Thread) *rcvWaiter {
	w := x.newWaiter(t)
	ps.waiters = x.pushWaiter(ps.waiters, w)
	return w
}

// ---------------------------------------------------------------------
// Port's source implementation.
// ---------------------------------------------------------------------

func (p *Port) isDead() bool { return p.dead }

func (p *Port) hasPending() bool { return !p.dead && p.QueueLen() > 0 }

func (p *Port) pull(x *IPC, e *core.Env) *Message {
	if p.QueueLen() == 0 {
		return nil
	}
	if t := e.Cur(); t != nil {
		p.lastReceiver = int32(t.ID)
	}
	r := p.rcv
	m := r.queue[0]
	n := copy(r.queue, r.queue[1:])
	r.queue[n] = nil
	r.queue = r.queue[:n]
	p.Dequeued++
	e.Charge(dequeueCost)
	e.Charge(reparseCost)
	p.trace(e, obs.DequeueMessage)
	// Room opened up: release a sender blocked on the full queue.
	x.wakeSender(p)
	x.settle(p)
	return m
}

// findSetReceiver locates a thread blocked on the port's set, if any.
func (x *IPC) findSetReceiver(p *Port) *core.Thread {
	if p.set == nil {
		return nil
	}
	return x.popWaiterList(&p.set.waiters)
}
