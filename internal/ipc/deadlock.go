package ipc

import (
	"fmt"

	"repro/internal/core"
)

// FindDeadlock builds the wait-for graph over the current port waiters
// and returns the first blocking cycle found, each entry naming a thread
// and the continuation it is blocked with ("srv (mach_msg_continue)");
// nil when no cycle exists.
//
// This is the paper's diagnostic claim made executable: a blocked thread
// is a continuation pointer plus 28 bytes of scratch state, so "what is
// this thread doing" is a table lookup, and a blocking cycle can be
// reported by name without unwinding a single stack.
//
// Edges, conservative by construction so a thread that can unblock on
// its own never sustains a cycle:
//
//   - A sender parked on port P's full queue waits for P's owner — the
//     thread registered to receive on P, or failing that the last thread
//     that received from it.
//   - A receiver blocked on port Q waits for the owner of any port P
//     holding a queued (or delivered-but-unconsumed) request whose reply
//     port is Q: that owner must drain P before anyone can reply on Q.
//   - A waiter with an armed timeout gets no outgoing edges — it will
//     unblock by itself. Device waiters are covered the same way: their
//     I/O watchdog timeout is always armed, so they are leaves of the
//     graph and can stall but never deadlock.
func (x *IPC) FindDeadlock() []string {
	adj := make(map[*core.Thread][]*core.Thread)
	var order []*core.Thread
	addEdge := func(from, to *core.Thread) {
		if from == nil || to == nil {
			return
		}
		if len(adj[from]) == 0 {
			order = append(order, from)
		}
		adj[from] = append(adj[from], to)
	}
	// stuck reports a registration whose thread is genuinely blocked with
	// no way out of its own: live, waiting, and without an armed timeout.
	stuck := func(w *rcvWaiter) bool {
		return !w.cancelled && w.t.State() == core.StateWaiting && !w.timeout.Pending()
	}
	owner := func(p *Port) *core.Thread {
		for _, w := range p.rcvWaiters() {
			if !w.cancelled && w.t.State() == core.StateWaiting {
				return w.t
			}
		}
		if lr := x.K.ThreadByID(int(p.lastReceiver)); lr != nil && lr.State() != core.StateHalted {
			return lr
		}
		return nil
	}

	for _, p := range x.ports {
		// Rule 1: blocked senders wait for the port's owner.
		for _, w := range p.sndWaiters() {
			if stuck(w) {
				addEdge(w.t, owner(p))
			}
		}
		// Rule 2: a queued request's reply-waiters wait for this port's
		// owner to drain it.
		for _, m := range p.queued() {
			if m == nil || m.Reply == nil {
				continue
			}
			to := owner(p)
			for _, w := range m.Reply.rcvWaiters() {
				if stuck(w) {
					addEdge(w.t, to)
				}
			}
		}
	}
	// Rule 2, delivered variant: a request handed directly to a blocked
	// receiver obligates that receiver to reply. Iterate the kernel's
	// thread table so the graph construction follows thread order.
	for _, holder := range x.K.Threads {
		m := x.record(holder).delivered
		if m == nil || m.Reply == nil || holder.State() == core.StateHalted {
			continue
		}
		for _, w := range m.Reply.rcvWaiters() {
			if stuck(w) {
				addEdge(w.t, holder)
			}
		}
	}

	// Depth-first cycle search in insertion order: 0 white, 1 on the
	// current path, 2 done.
	color := make(map[*core.Thread]int)
	var stack, cycle []*core.Thread
	var dfs func(t *core.Thread) bool
	dfs = func(t *core.Thread) bool {
		color[t] = 1
		stack = append(stack, t)
		for _, to := range adj[t] {
			switch color[to] {
			case 0:
				if dfs(to) {
					return true
				}
			case 1:
				for i, s := range stack {
					if s == to {
						cycle = append([]*core.Thread(nil), stack[i:]...)
						break
					}
				}
				return true
			}
		}
		stack = stack[:len(stack)-1]
		color[t] = 2
		return false
	}
	for _, t := range order {
		if color[t] == 0 && dfs(t) {
			break
		}
	}
	if cycle == nil {
		return nil
	}
	out := make([]string, 0, len(cycle))
	for _, t := range cycle {
		cont := "<stack>"
		if t.Cont != nil {
			cont = t.Cont.Name()
		}
		out = append(out, fmt.Sprintf("%s (%s)", t.Name(), cont))
	}
	return out
}
