package machine

import "fmt"

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
// completion, a device interrupt, a wire arrival. Like a continuation it
// is a function bound once plus the state it acts on: fn runs on arg.
// Every event comes from its clock's free list and goes back to it once
// it has fired, been cancelled or been purged. The event's due time and
// tie-break live in its clock's queue slot, not here (Clock.When reads
// them): the queue orders keys, and an event stays where it was written.
type Event struct {
	// Background marks housekeeping events (periodic kernel ticks) that
	// should not, by themselves, keep an otherwise quiescent simulation
	// alive.
	Background bool
	index      int32 // slot in the clock's queue; negative once out of it

	// fn runs with arg when the clock reaches the event's time, in
	// dispatcher context (not on any thread's stack).
	fn  func(any)
	arg any
}

// Negative Event.index values: popped (fired or about to be), and an
// event back on its clock's free list.
const (
	indexPopped   = -1
	indexRecycled = -2
)

// Pending reports whether the event is still queued (neither fired nor
// cancelled). The invariant checker uses it to prove that cancelled
// waiters hold no live callouts.
func (e *Event) Pending() bool { return e != nil && e.index >= 0 }

// slot is one entry of the clock's queue: an event's key, (when, seq),
// kept beside a pointer to the event. Sifting compares and moves slots
// only; the event itself is touched just to note its new index, which
// keeps Cancel O(log n).
type slot struct {
	when Time
	seq  uint64 // tie-break: local schedule order, or a remote key
	ev   *Event
}

// before is the queue order, a strict total order: keys are unique per
// clock (see remoteBand), so any correct heap pops the same sequence.
func (s *slot) before(t *slot) bool {
	return s.when < t.when || (s.when == t.when && s.seq < t.seq)
}

// Clock is the simulated global time source plus the pending-event queue.
type Clock struct {
	now        Time
	events     []slot // a binary min-heap in slot order
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

	// free holds fired, cancelled and purged events for the next schedule
	// to reuse. Only this machine's own context touches it: the barrier
	// flush schedules single-threaded, and the machine's own round
	// schedules, fires, cancels and frees. Events never move between
	// clocks, so the list is bounded by the clock's peak number of pending
	// events.
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

// Schedule registers fn(arg) to fire at absolute time when. Scheduling in
// the past is allowed; the event becomes due immediately. fn is meant to
// be bound once and arg to carry what it acts on, so a timer needs no
// closure. The returned handle is valid until Fire has run fn or Cancel
// has removed the event; either puts it back on the free list. A caller
// that may cancel the timer is its one holder and clears the handle at
// both points: first thing in fn, and right after every Cancel. From then
// on the event may be queued again for an unrelated timer, and a kept
// handle would name that one. A caller that never cancels drops the
// handle. PurgeLocal recycles a pending event too; a crash drops its
// holder with the rest of the dead incarnation.
func (c *Clock) Schedule(when Time, fn func(any), arg any) *Event {
	seq := c.seq
	c.seq++
	return c.schedule(when, seq, false, fn, arg)
}

// ScheduleBackground is Schedule for a housekeeping event, which does not
// keep an idle simulation alive (see HasForeground).
func (c *Clock) ScheduleBackground(when Time, fn func(any), arg any) *Event {
	seq := c.seq
	c.seq++
	return c.schedule(when, seq, true, fn, arg)
}

// remoteBand is the high bit of the tie-break sequence. Local events use
// the clock's own counter (always below the band); events scheduled by a
// remote machine carry a caller-supplied key raised into the band, so at
// equal times every remote arrival orders after every local event, and
// remote arrivals order among themselves by key alone. That makes the
// heap order a function of the machine's own history plus the wire
// traffic — independent of which driver (sequential or parallel) found
// out about the arrival first.
const remoteBand = uint64(1) << 63

// ScheduleRemote registers a wire arrival from another machine: fn runs
// with arg when it fires. key must be unique among pending remote events
// and deterministic for the packet it represents (the cluster drivers
// build it from the receiving NIC's index and the sender's emission
// counter). No handle is returned: nothing may cancel an arrival or keep
// it past its firing. A crash cannot recall one either (PurgeLocal keeps
// them).
func (c *Clock) ScheduleRemote(when Time, key uint64, fn func(any), arg any) {
	c.schedule(when, remoteBand|key, false, fn, arg)
}

// schedule queues fn(arg) at when on an event from the free list.
func (c *Clock) schedule(when Time, seq uint64, background bool, fn func(any), arg any) *Event {
	var e *Event
	if n := len(c.free); n > 0 {
		e = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		e = new(Event)
	}
	*e = Event{Background: background, fn: fn, arg: arg}
	c.events = append(c.events, slot{})
	c.up(len(c.events)-1, slot{when: when, seq: seq, ev: e})
	if !background {
		c.foreground++
	}
	c.notify()
	return e
}

// up writes s into the queue at hole i or above it, moving each later
// parent down into the hole.
func (c *Clock) up(i int, s slot) {
	h := c.events
	for i > 0 {
		p := (i - 1) / 2
		if !s.before(&h[p]) {
			break
		}
		h[i] = h[p]
		h[i].ev.index = int32(i)
		i = p
	}
	h[i] = s
	s.ev.index = int32(i)
}

// down writes s into the queue at hole i or below it, moving the earlier
// child up into the hole while it orders before s, and returns where s
// landed.
func (c *Clock) down(i int, s slot) int {
	h := c.events
	n := len(h)
	for {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && h[r].before(&h[m]) {
			m = r
		}
		if !h[m].before(&s) {
			break
		}
		h[i] = h[m]
		h[i].ev.index = int32(i)
		i = m
	}
	h[i] = s
	s.ev.index = int32(i)
	return i
}

// remove takes the slot at i out of the queue and returns its event,
// marked popped.
func (c *Clock) remove(i int) *Event {
	h := c.events
	e := h[i].ev
	n := len(h) - 1
	last := h[n]
	h[n] = slot{}
	c.events = h[:n]
	if i < n && c.down(i, last) == i {
		c.up(i, last)
	}
	e.index = indexPopped
	return e
}

// Fire runs an event the caller popped (PopDue, AdvanceToNextEvent), then
// returns it to the free list. With checks set (the kernel's
// DebugChecks), firing an event that is already back on the free list
// panics.
func (c *Clock) Fire(e *Event, checks bool) {
	if checks && e.index == indexRecycled {
		panic("machine: event fired after it was recycled")
	}
	e.fn(e.arg)
	c.recycle(e)
}

// recycle puts an event that has left the heap back on the free list.
func (c *Clock) recycle(e *Event) {
	*e = Event{index: indexRecycled}
	c.free = append(c.free, e)
}

// HasForeground reports whether any pending event is a real one (not
// housekeeping); the run loop quiesces when none remain.
func (c *Clock) HasForeground() bool { return c.foreground > 0 }

// Cancel removes a pending event and returns it to the free list, so its
// holder clears the handle right after. Cancelling nil, or an event
// popped but not yet fired, is a no-op returning false; cancelling an
// event that is already on the free list panics, since a handle kept that
// long may name a reused event.
func (c *Clock) Cancel(e *Event) bool {
	if e == nil || e.index == indexPopped {
		return false
	}
	if e.index == indexRecycled {
		panic("machine: event cancelled after it was recycled")
	}
	c.remove(int(e.index))
	if !e.Background {
		c.foreground--
	}
	c.recycle(e)
	c.notify()
	return true
}

// NextEventTime returns the time of the earliest pending event and
// whether one exists.
func (c *Clock) NextEventTime() (Time, bool) {
	if len(c.events) == 0 {
		return 0, false
	}
	return c.events[0].when, true
}

// When returns the time a pending event is due. It panics for an event
// that is not pending: once popped, an event no longer has a time.
func (c *Clock) When(e *Event) Time {
	if !e.Pending() {
		panic("machine: When of an event that is not pending")
	}
	return c.events[e.index].when
}

// PopDue removes and returns the earliest event whose time has arrived,
// or nil if none is due. The caller fires it.
func (c *Clock) PopDue() *Event {
	if len(c.events) == 0 || c.events[0].when > c.now {
		return nil
	}
	e := c.remove(0)
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
	if when := c.events[0].when; when > c.now {
		c.now = when
	}
	e := c.remove(0)
	if !e.Background {
		c.foreground--
	}
	c.notify()
	return e
}

// Pending reports how many events are queued.
func (c *Clock) Pending() int { return len(c.events) }

// PurgeLocal cancels every locally-scheduled pending event — callout
// expiries, retransmit timers, device completions, background ticks —
// returns it to the free list, and returns how many it removed. Events
// scheduled by a remote machine (ScheduleRemote's band) survive: they
// model packets already on the wire, which a machine crash cannot recall.
// The crashed machine's receive path is responsible for dropping them on
// arrival.
func (c *Clock) PurgeLocal() int {
	kept := c.events[:0]
	for _, s := range c.events {
		if s.seq&remoteBand != 0 {
			kept = append(kept, s)
			continue
		}
		if !s.ev.Background {
			c.foreground--
		}
		c.recycle(s.ev)
	}
	purged := len(c.events) - len(kept)
	// Zero the tail so purged events are not retained by the backing
	// array, then restore the heap order over the survivors (down only
	// notes the index of slots it moves, so note every one first).
	clear(c.events[len(kept):])
	c.events = kept
	for i := range kept {
		kept[i].ev.index = int32(i)
	}
	for i := len(kept)/2 - 1; i >= 0; i-- {
		c.down(i, kept[i])
	}
	c.notify()
	return purged
}
