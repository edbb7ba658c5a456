// Package sched provides the run-queue policy for the simulated kernel:
// a fixed-priority, FIFO-within-priority queue with a configurable time
// quantum, plus handoff-friendly accounting. Mechanism (how control moves
// between threads) lives in internal/core; this package only decides who
// runs next.
package sched

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/machine"
)

// NumPriorities is the number of distinct priority levels. Priority 0 is
// the least urgent.
const NumPriorities = 32

// DefaultQuantum is the scheduling time slice, 100 ms as in contemporary
// Mach.
const DefaultQuantum = machine.Duration(100 * 1000 * 1000)

// ring is a FIFO deque of threads over a power-of-two circular buffer:
// O(1) push and pop with no element shifting, growing only when full.
type ring struct {
	buf  []*core.Thread
	head int
	n    int
}

func (r *ring) push(t *core.Thread) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = t
	r.n++
}

func (r *ring) pop() *core.Thread {
	t := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return t
}

func (r *ring) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]*core.Thread, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}

// RunQueue is a global multi-level run queue. The simulator executes
// processors one dispatcher step at a time from a single OS thread (each
// parallel-cluster machine has its own RunQueue), so no locking is
// needed; on a real multiprocessor this structure would be the
// lock-protected global queue of early Mach.
//
// Each priority level is a ring buffer and a bit in mask records which
// levels are nonempty, so Setrun, SelectThread and MaxQueuedPriority are
// all O(1): the highest occupied level is 31 - bits.LeadingZeros32(mask).
type RunQueue struct {
	quantum machine.Duration
	queues  [NumPriorities]ring
	mask    uint32
	count   int

	// Enqueues and Dequeues count queue traffic, useful for verifying
	// that fast paths (handoff, directed switch) bypass the queue.
	Enqueues uint64
	Dequeues uint64

	// HighWater is the deepest the queue has been — together with the
	// obs layer's dispatch-latency histogram it shows how much runnable
	// work piles up behind the running thread.
	HighWater int
}

// New returns a run queue with the given quantum (DefaultQuantum if 0).
func New(quantum machine.Duration) *RunQueue {
	if quantum == 0 {
		quantum = DefaultQuantum
	}
	return &RunQueue{quantum: quantum}
}

// Quantum implements core.Scheduler.
func (q *RunQueue) Quantum() machine.Duration { return q.quantum }

// Setrun implements core.Scheduler: it appends the thread at its priority
// level.
func (q *RunQueue) Setrun(t *core.Thread) {
	if t.State() != core.StateRunnable {
		panic(fmt.Sprintf("sched: Setrun of %v in state %v", t, t.State()))
	}
	p := t.Priority
	if p < 0 {
		p = 0
	}
	if p >= NumPriorities {
		p = NumPriorities - 1
	}
	q.queues[p].push(t)
	q.mask |= 1 << uint(p)
	q.count++
	q.Enqueues++
	if q.count > q.HighWater {
		q.HighWater = q.count
	}
}

// SelectThread implements core.Scheduler: highest priority first, FIFO
// within a level, nil when empty.
func (q *RunQueue) SelectThread(p *core.Processor) *core.Thread {
	if q.mask == 0 {
		return nil
	}
	pri := bits.Len32(q.mask) - 1
	level := &q.queues[pri]
	t := level.pop()
	if level.n == 0 {
		q.mask &^= 1 << uint(pri)
	}
	q.count--
	q.Dequeues++
	return t
}

// HasWork implements core.Scheduler.
func (q *RunQueue) HasWork() bool { return q.count > 0 }

// MaxQueuedPriority implements core.Scheduler.
func (q *RunQueue) MaxQueuedPriority() (int, bool) {
	if q.mask == 0 {
		return 0, false
	}
	return bits.Len32(q.mask) - 1, true
}

// Len reports the number of queued threads.
func (q *RunQueue) Len() int { return q.count }

// Queued returns the queued threads, highest priority first and FIFO
// within a level — the order SelectThread would pop them. It allocates
// and is meant for diagnostics (the watchdog's stall report), not for
// scheduling decisions.
func (q *RunQueue) Queued() []*core.Thread {
	if q.count == 0 {
		return nil
	}
	out := make([]*core.Thread, 0, q.count)
	for pri := NumPriorities - 1; pri >= 0; pri-- {
		r := &q.queues[pri]
		for i := 0; i < r.n; i++ {
			out = append(out, r.buf[(r.head+i)&(len(r.buf)-1)])
		}
	}
	return out
}
