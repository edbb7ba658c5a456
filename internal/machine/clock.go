package machine

import (
	"container/heap"
	"fmt"
)

// Time is a simulated timestamp in nanoseconds since boot. The simulator
// never reads the host clock; identical inputs produce identical
// timelines.
type Time uint64

// Micros returns the timestamp in microseconds.
func (t Time) Micros() float64 { return float64(t) / 1000 }

// Seconds returns the timestamp in seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

func (t Time) String() string { return fmt.Sprintf("%.3fus", t.Micros()) }

// Duration is a span of simulated time in nanoseconds.
type Duration = Time

// Event is a deferred action in simulated time: a timer expiry, a disk
// completion, a device interrupt.
type Event struct {
	When Time
	// Fire runs when the clock reaches When. It executes in dispatcher
	// context (not on any thread's stack). A wire arrival has none; it
	// runs arrive instead.
	Fire func()
	// Label describes the event for traces.
	Label string
	// Background marks housekeeping events (periodic kernel ticks) that
	// should not, by themselves, keep an otherwise quiescent simulation
	// alive.
	Background bool

	// arrive and arg are a wire arrival's action (ScheduleRemote).
	arrive func(any)
	arg    any

	seq   uint64 // tiebreaker for determinism
	index int    // heap bookkeeping; negative once out of the heap
}

// Negative Event.index values: popped (fired or about to be), cancelled,
// and an arrival back on its clock's free list.
const (
	indexPopped    = -1
	indexCancelled = -2
	indexRecycled  = -3
)

// Cancelled reports whether the event was removed before firing.
func (e *Event) Cancelled() bool { return e.index == indexCancelled }

// Pending reports whether the event is still queued (neither fired nor
// cancelled). The invariant checker uses it to prove that cancelled
// waiters hold no live callouts.
func (e *Event) Pending() bool { return e != nil && e.index >= 0 }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].When != h[j].When {
		return h[i].When < h[j].When
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = indexPopped
	*h = old[:n-1]
	return e
}

// Clock is the simulated global time source plus the pending-event queue.
type Clock struct {
	now        Time
	events     eventHeap
	seq        uint64
	foreground int // pending non-background events

	// watcher, when set, runs after any mutation that can change the
	// clock's next-activity view (earliest pending event, foreground
	// count). The cluster driver installs a dirty-marking hook here so
	// its per-machine activity heap can be repaired lazily instead of
	// re-scanning every machine per round. The hook must be cheap and
	// idempotent; it is not called for plain time advances, which only
	// ever lower-bound activity conservatively.
	watcher func()

	// free holds fired wire arrivals for ScheduleRemote to reuse. Only
	// this machine's own context touches it: the barrier flush schedules
	// single-threaded, and the machine's own round fires and frees.
	free []*Event
}

// NewClock returns a clock at time zero.
func NewClock() *Clock { return &Clock{} }

// SetActivityWatcher installs (or, with nil, removes) the hook run after
// every event-queue mutation. At most one watcher is supported; a new
// cluster driver replaces any previous one.
func (c *Clock) SetActivityWatcher(fn func()) { c.watcher = fn }

// notify runs the activity watcher, if any.
func (c *Clock) notify() {
	if c.watcher != nil {
		c.watcher()
	}
}

// Now returns the current simulated time.
func (c *Clock) Now() Time { return c.now }

// Advance moves time forward by d nanoseconds. Time is monotone;
// advancing never fires events — callers pop due events explicitly so
// that event handlers always run from dispatcher context.
func (c *Clock) Advance(d Duration) {
	c.now += d
}

// AdvanceMicros moves time forward by a (possibly fractional) number of
// microseconds, rounding to the nearest nanosecond.
func (c *Clock) AdvanceMicros(us float64) {
	if us < 0 {
		panic("machine: negative time advance")
	}
	c.Advance(Duration(us*1000 + 0.5))
}

// Schedule registers fn to fire at absolute time when. Scheduling in the
// past is allowed; the event becomes due immediately.
func (c *Clock) Schedule(when Time, label string, fn func()) *Event {
	e := &Event{When: when, Fire: fn, Label: label, seq: c.seq}
	c.seq++
	heap.Push(&c.events, e)
	c.foreground++
	c.notify()
	return e
}

// remoteBand is the high bit of the tie-break sequence. Local events use
// the clock's own counter (always below the band); events scheduled by a
// remote machine carry a caller-supplied key raised into the band, so at
// equal When every remote arrival orders after every local event, and
// remote arrivals order among themselves by key alone. That makes the
// heap order a function of the machine's own history plus the wire
// traffic — independent of which driver (sequential or parallel) found
// out about the arrival first.
const remoteBand = uint64(1) << 63

// ScheduleRemote registers a wire arrival from another machine: fn runs
// with arg when it fires. key must be unique among pending remote events
// and deterministic for the packet it represents (the cluster drivers
// build it from the receiving NIC's index and the sender's emission
// counter). The event comes from the clock's free list and goes back to
// it once Fire has run it, so no handle is returned: nothing may cancel
// an arrival or keep it past its firing. A crash cannot recall one
// either (PurgeLocal keeps them).
func (c *Clock) ScheduleRemote(when Time, key uint64, label string, fn func(any), arg any) {
	var e *Event
	if n := len(c.free); n > 0 {
		e = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		e = new(Event)
	}
	*e = Event{When: when, Label: label, arrive: fn, arg: arg, seq: remoteBand | key}
	heap.Push(&c.events, e)
	c.foreground++
	c.notify()
}

// Fire runs an event the caller popped (PopDue, AdvanceToNextEvent). A
// wire arrival returns to the clock's free list once it has run. With
// checks set (the kernel's DebugChecks), firing an event that is already
// back on the free list panics.
func (c *Clock) Fire(e *Event, checks bool) {
	if checks && e.index == indexRecycled {
		panic("machine: wire arrival fired after it was recycled")
	}
	if e.arrive == nil {
		e.Fire()
		return
	}
	e.arrive(e.arg)
	*e = Event{index: indexRecycled}
	c.free = append(c.free, e)
}

// After registers fn to fire d nanoseconds from now.
func (c *Clock) After(d Duration, label string, fn func()) *Event {
	return c.Schedule(c.now+d, label, fn)
}

// AfterBackground registers a housekeeping event that does not keep an
// idle simulation alive (see HasForeground).
func (c *Clock) AfterBackground(d Duration, label string, fn func()) *Event {
	e := c.Schedule(c.now+d, label, fn)
	e.Background = true
	c.foreground--
	c.notify()
	return e
}

// HasForeground reports whether any pending event is a real one (not
// housekeeping); the run loop quiesces when none remain.
func (c *Clock) HasForeground() bool { return c.foreground > 0 }

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op returning false.
func (c *Clock) Cancel(e *Event) bool {
	if e == nil || e.index < 0 {
		return false
	}
	heap.Remove(&c.events, e.index)
	e.index = indexCancelled
	if !e.Background {
		c.foreground--
	}
	c.notify()
	return true
}

// NextEventTime returns the time of the earliest pending event and
// whether one exists.
func (c *Clock) NextEventTime() (Time, bool) {
	if len(c.events) == 0 {
		return 0, false
	}
	return c.events[0].When, true
}

// PopDue removes and returns the earliest event whose time has arrived,
// or nil if none is due. The caller fires it.
func (c *Clock) PopDue() *Event {
	if len(c.events) == 0 || c.events[0].When > c.now {
		return nil
	}
	e := heap.Pop(&c.events).(*Event)
	if !e.Background {
		c.foreground--
	}
	c.notify()
	return e
}

// AdvanceToNextEvent jumps time forward to the earliest pending event and
// returns it, or returns nil if the queue is empty. Used by the idle
// thread when nothing is runnable.
func (c *Clock) AdvanceToNextEvent() *Event {
	if len(c.events) == 0 {
		return nil
	}
	e := heap.Pop(&c.events).(*Event)
	if !e.Background {
		c.foreground--
	}
	if e.When > c.now {
		c.now = e.When
	}
	c.notify()
	return e
}

// Pending reports how many events are queued.
func (c *Clock) Pending() int { return len(c.events) }

// PurgeLocal cancels every locally-scheduled pending event — callout
// expiries, retransmit timers, device completions, background ticks —
// and returns how many it removed. Events scheduled by a remote machine
// (ScheduleRemote's band) survive: they model packets already on the
// wire, which a machine crash cannot recall. The crashed machine's
// receive path is responsible for dropping them on arrival.
func (c *Clock) PurgeLocal() int {
	kept := c.events[:0]
	purged := 0
	for _, e := range c.events {
		if e.seq&remoteBand != 0 {
			kept = append(kept, e)
			continue
		}
		e.index = indexCancelled
		if !e.Background {
			c.foreground--
		}
		purged++
	}
	// Zero the tail so purged events are not retained by the backing
	// array, then restore the heap invariant over the survivors (Init
	// only fixes the bookkeeping of elements it swaps, so reindex first).
	for i := len(kept); i < len(c.events); i++ {
		c.events[i] = nil
	}
	c.events = kept
	for i, e := range c.events {
		e.index = i
	}
	heap.Init(&c.events)
	c.notify()
	return purged
}
