package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

// threads is the kernel the test threads are created on; a continuation
// kernel, so creating one attaches no stack.
var threads = core.NewKernel(core.Config{Flavor: core.MK40})

func runnable(pri int) *core.Thread {
	t := threads.NewThread(core.ThreadSpec{Priority: pri})
	threads.SetState(t, core.StateRunnable)
	return t
}

func TestEmptyQueue(t *testing.T) {
	q := New(0)
	if q.HasWork() || q.Len() != 0 {
		t.Fatal("fresh queue has work")
	}
	if q.SelectThread(nil) != nil {
		t.Fatal("SelectThread on empty queue returned a thread")
	}
	if q.Quantum() != DefaultQuantum {
		t.Fatalf("Quantum = %v", q.Quantum())
	}
}

func TestCustomQuantum(t *testing.T) {
	q := New(12345)
	if q.Quantum() != 12345 {
		t.Fatalf("Quantum = %v", q.Quantum())
	}
}

func TestFIFOWithinPriority(t *testing.T) {
	q := New(0)
	a, b, c := runnable(5), runnable(5), runnable(5)
	q.Setrun(a)
	q.Setrun(b)
	q.Setrun(c)
	if q.Len() != 3 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i, want := range []*core.Thread{a, b, c} {
		if got := q.SelectThread(nil); got != want {
			t.Fatalf("dequeue %d: got %v", i, got)
		}
	}
}

func TestPriorityOrder(t *testing.T) {
	q := New(0)
	low, high, mid := runnable(1), runnable(20), runnable(10)
	q.Setrun(low)
	q.Setrun(high)
	q.Setrun(mid)
	if q.SelectThread(nil) != high || q.SelectThread(nil) != mid || q.SelectThread(nil) != low {
		t.Fatal("priority order violated")
	}
}

func TestPriorityClamped(t *testing.T) {
	q := New(0)
	q.Setrun(runnable(-5))
	q.Setrun(runnable(NumPriorities + 10))
	if q.Len() != 2 {
		t.Fatalf("Len = %d", q.Len())
	}
	first := q.SelectThread(nil)
	if first.Priority != NumPriorities+10 {
		t.Fatal("clamped high priority should still win")
	}
}

func TestSetrunWrongStatePanics(t *testing.T) {
	q := New(0)
	defer func() {
		if recover() == nil {
			t.Fatal("Setrun of running thread did not panic")
		}
	}()
	q.Setrun(&core.Thread{}) // the zero thread is running
}

func TestQueueCounters(t *testing.T) {
	q := New(0)
	q.Setrun(runnable(0))
	q.SelectThread(nil)
	if q.Enqueues != 1 || q.Dequeues != 1 {
		t.Fatalf("enqueues=%d dequeues=%d", q.Enqueues, q.Dequeues)
	}
}

// refQueue is the pre-ring-buffer RunQueue (append + copy(level, level[1:])
// shifting, linear level scans), kept here as the behavioral oracle for the
// O(1) implementation.
type refQueue struct {
	queues    [NumPriorities][]*core.Thread
	count     int
	enqueues  uint64
	dequeues  uint64
	highWater int
}

func (q *refQueue) setrun(t *core.Thread) {
	p := t.Priority
	if p < 0 {
		p = 0
	}
	if p >= NumPriorities {
		p = NumPriorities - 1
	}
	q.queues[p] = append(q.queues[p], t)
	q.count++
	q.enqueues++
	if q.count > q.highWater {
		q.highWater = q.count
	}
}

func (q *refQueue) selectThread() *core.Thread {
	for pri := NumPriorities - 1; pri >= 0; pri-- {
		level := q.queues[pri]
		if len(level) == 0 {
			continue
		}
		t := level[0]
		copy(level, level[1:])
		q.queues[pri] = level[:len(level)-1]
		q.count--
		q.dequeues++
		return t
	}
	return nil
}

func (q *refQueue) maxQueuedPriority() (int, bool) {
	for pri := NumPriorities - 1; pri >= 0; pri-- {
		if len(q.queues[pri]) > 0 {
			return pri, true
		}
	}
	return 0, false
}

// TestRingMatchesReference hammers the ring-buffer queue and the legacy
// slice queue with an identical interleaved workload and demands identical
// pop order, counters and priority reports at every step.
func TestRingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1991))
	q := New(0)
	ref := &refQueue{}
	for op := 0; op < 20000; op++ {
		// Biased coin: bursts of enqueues, then drains.
		if rng.Intn(3) != 0 || q.Len() == 0 {
			th := runnable(rng.Intn(NumPriorities+6) - 3)
			q.Setrun(th)
			ref.setrun(th)
		} else {
			got, want := q.SelectThread(nil), ref.selectThread()
			if got != want {
				t.Fatalf("op %d: SelectThread ring=%p ref=%p", op, got, want)
			}
		}
		if q.Len() != ref.count {
			t.Fatalf("op %d: Len ring=%d ref=%d", op, q.Len(), ref.count)
		}
		gp, gok := q.MaxQueuedPriority()
		wp, wok := ref.maxQueuedPriority()
		if gp != wp || gok != wok {
			t.Fatalf("op %d: MaxQueuedPriority ring=(%d,%v) ref=(%d,%v)", op, gp, gok, wp, wok)
		}
		if q.HasWork() != (ref.count > 0) {
			t.Fatalf("op %d: HasWork mismatch", op)
		}
	}
	for q.HasWork() {
		if got, want := q.SelectThread(nil), ref.selectThread(); got != want {
			t.Fatalf("drain: ring=%p ref=%p", got, want)
		}
	}
	if ref.selectThread() != nil {
		t.Fatal("reference not drained")
	}
	if q.Enqueues != ref.enqueues || q.Dequeues != ref.dequeues || q.HighWater != ref.highWater {
		t.Fatalf("counters: ring=(%d,%d,%d) ref=(%d,%d,%d)",
			q.Enqueues, q.Dequeues, q.HighWater, ref.enqueues, ref.dequeues, ref.highWater)
	}
}

// Property: every enqueued thread is dequeued exactly once, and dequeue
// order respects priority.
func TestQueueProperty(t *testing.T) {
	f := func(pris []uint8) bool {
		q := New(0)
		for _, p := range pris {
			q.Setrun(runnable(int(p) % NumPriorities))
		}
		last := NumPriorities
		n := 0
		for q.HasWork() {
			th := q.SelectThread(nil)
			if th == nil || th.Priority > last {
				return false
			}
			last = th.Priority
			n++
		}
		return n == len(pris) && q.Len() == 0
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
