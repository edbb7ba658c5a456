package machine

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestClockStartsAtZero(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock at %v", c.Now())
	}
}

func TestClockAdvanceMonotone(t *testing.T) {
	c := NewClock()
	c.Advance(100)
	c.Advance(0)
	c.Advance(50)
	if c.Now() != 150 {
		t.Fatalf("Now = %v, want 150", c.Now())
	}
}

func TestClockAdvanceMicrosRounds(t *testing.T) {
	c := NewClock()
	c.AdvanceMicros(1.5) // 1500 ns
	if c.Now() != 1500 {
		t.Fatalf("Now = %v, want 1500ns", c.Now())
	}
	c.AdvanceMicros(0.0004) // 0.4 ns rounds to 0
	if c.Now() != 1500 {
		t.Fatalf("Now = %v after sub-ns advance", c.Now())
	}
}

func TestClockNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative advance did not panic")
		}
	}()
	NewClock().AdvanceMicros(-1)
}

// record returns an action that appends its argument to *fired.
func record(fired *[]string) func(any) {
	return func(arg any) { *fired = append(*fired, arg.(string)) }
}

func nop(any) {}

func TestEventOrdering(t *testing.T) {
	c := NewClock()
	var fired []string
	c.Schedule(300, record(&fired), "c")
	c.Schedule(100, record(&fired), "a")
	c.Schedule(200, record(&fired), "b")

	c.Advance(250)
	for e := c.PopDue(); e != nil; e = c.PopDue() {
		c.Fire(e, true)
	}
	if len(fired) != 2 || fired[0] != "a" || fired[1] != "b" {
		t.Fatalf("fired = %v", fired)
	}
	c.Advance(100)
	e := c.PopDue()
	if e == nil {
		t.Fatal("expected c due")
	}
	c.Fire(e, true)
	if len(fired) != 3 || fired[2] != "c" {
		t.Fatalf("fired = %v", fired)
	}
}

func TestEventSameTimeFIFO(t *testing.T) {
	c := NewClock()
	var order []int
	for i := 0; i < 10; i++ {
		c.Schedule(50, func(arg any) { order = append(order, arg.(int)) }, i)
	}
	c.Advance(50)
	for e := c.PopDue(); e != nil; e = c.PopDue() {
		c.Fire(e, true)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of order: %v", order)
		}
	}
}

// TestEventCancel cancels a pending event: it never fires, and its event
// goes back on the free list, so a second Cancel through the kept handle
// panics as recycled.
func TestEventCancel(t *testing.T) {
	c := NewClock()
	fired := false
	e := c.Schedule(10, func(any) { fired = true }, nil)
	if !c.Cancel(e) {
		t.Fatal("Cancel returned false for pending event")
	}
	if e.Pending() {
		t.Fatal("cancelled event still pending")
	}
	mustPanic(t, "machine: event cancelled after it was recycled", func() { c.Cancel(e) })
	c.Advance(20)
	if ev := c.PopDue(); ev != nil {
		t.Fatal("cancelled event still due")
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
	if c.Cancel(nil) {
		t.Fatal("Cancel(nil) returned true")
	}
}

// stamp returns an action that appends its argument, the time it was
// scheduled for, to *fired.
func stamp(fired *[]Time) func(any) {
	return func(arg any) { *fired = append(*fired, arg.(Time)) }
}

func TestCancelMiddleOfHeap(t *testing.T) {
	c := NewClock()
	var es []*Event
	var fired []Time
	fire := stamp(&fired)
	for i := 0; i < 20; i++ {
		when := Time((i * 37) % 100)
		es = append(es, c.Schedule(when, fire, when))
		if got := c.When(es[i]); got != when {
			t.Fatalf("When = %v, want %v", got, when)
		}
	}
	// Cancel every third event, then verify the rest drain in time order.
	for i := 0; i < len(es); i += 3 {
		c.Cancel(es[i])
	}
	c.Advance(1000)
	for e := c.PopDue(); e != nil; e = c.PopDue() {
		c.Fire(e, true)
	}
	if !slices.IsSorted(fired) {
		t.Fatalf("heap order violated: %v", fired)
	}
	count := len(fired)
	want := len(es) - (len(es)+2)/3
	if count != want {
		t.Fatalf("drained %d events, want %d", count, want)
	}
}

func TestAdvanceToNextEvent(t *testing.T) {
	c := NewClock()
	wake := c.Schedule(500, nop, nil)
	e := c.AdvanceToNextEvent()
	if e != wake {
		t.Fatalf("AdvanceToNextEvent = %+v", e)
	}
	if c.Now() != 500 {
		t.Fatalf("clock at %v, want 500", c.Now())
	}
	if c.AdvanceToNextEvent() != nil {
		t.Fatal("empty queue should return nil")
	}
}

func TestAdvanceToNextEventNeverGoesBack(t *testing.T) {
	c := NewClock()
	c.Schedule(10, nop, nil)
	c.Advance(100)
	c.AdvanceToNextEvent()
	if c.Now() != 100 {
		t.Fatalf("clock went backwards to %v", c.Now())
	}
}

func TestPopDueNotEarly(t *testing.T) {
	c := NewClock()
	c.Schedule(10, nop, nil)
	if e := c.PopDue(); e != nil {
		t.Fatal("event due early")
	}
	if c.Pending() != 1 {
		t.Fatalf("Pending = %d", c.Pending())
	}
}

// Property: draining the event queue always yields events in
// nondecreasing time order, whatever the insertion order.
func TestEventHeapProperty(t *testing.T) {
	f := func(times []uint32) bool {
		c := NewClock()
		var fired []Time
		fire := stamp(&fired)
		for _, ti := range times {
			c.Schedule(Time(ti), fire, Time(ti))
		}
		c.now = ^Time(0) >> 1
		for e := c.PopDue(); e != nil; e = c.PopDue() {
			c.Fire(e, true)
		}
		return c.Pending() == 0 && len(fired) == len(times) && slices.IsSorted(fired)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestTimeConversions(t *testing.T) {
	tm := Time(2_500_000) // 2.5 ms
	if tm.Micros() != 2500 {
		t.Fatalf("Micros = %v", tm.Micros())
	}
	if tm.Seconds() != 0.0025 {
		t.Fatalf("Seconds = %v", tm.Seconds())
	}
}

func TestPurgeLocalKeepsWireEvents(t *testing.T) {
	c := NewClock()
	var fired []string
	c.Schedule(10, record(&fired), "local-a")
	c.ScheduleBackground(20, record(&fired), "tick")
	c.ScheduleRemote(15, 1, record(&fired), "wire-1")
	c.ScheduleRemote(15, 2, record(&fired), "wire-2")
	c.Schedule(30, record(&fired), "local-b")

	if purged := c.PurgeLocal(); purged != 3 {
		t.Fatalf("purged %d events, want 3 (two local + one background)", purged)
	}
	if c.Pending() != 2 {
		t.Fatalf("Pending = %d, want the two wire arrivals", c.Pending())
	}
	if !c.HasForeground() {
		t.Fatal("wire arrivals must remain foreground")
	}
	for ev := c.AdvanceToNextEvent(); ev != nil; ev = c.AdvanceToNextEvent() {
		c.Fire(ev, true)
	}
	if len(fired) != 2 || fired[0] != "wire-1" || fired[1] != "wire-2" {
		t.Fatalf("fired %v, want the wire events in key order", fired)
	}
	if c.HasForeground() {
		t.Fatal("foreground count leaked")
	}
	// A purged event cannot be cancelled again (already removed).
	if c.PurgeLocal() != 0 {
		t.Fatal("second purge found something to remove")
	}
}

// TestPurgeLocalCancelledEventsStayDead purges a pending local event: it
// never fires, and it is back on the free list, so a Cancel through the
// kept handle panics as recycled.
func TestPurgeLocalCancelledEventsStayDead(t *testing.T) {
	c := NewClock()
	ran := false
	e := c.Schedule(10, func(any) { ran = true }, nil)
	c.PurgeLocal()
	if e.Pending() {
		t.Fatal("purged event still pending")
	}
	mustPanic(t, "machine: event cancelled after it was recycled", func() { c.Cancel(e) })
	c.Advance(20)
	if got := c.PopDue(); got != nil {
		t.Fatal("PopDue returned a purged event")
	}
	if ran {
		t.Fatal("purged event fired")
	}
}

// refEvent is one pending event of refClock.
type refEvent struct {
	when  Time
	seq   uint64
	label string
	local *Event // the real clock's handle, for Cancel
}

// refClock is the reference the recycling clock is checked against: a
// plain list of pending events that never reuses one, popped in (when,
// tie-break) order with the real clock's tie-break rule.
type refClock struct {
	pending []refEvent
	seq     uint64
}

func (r *refClock) schedule(when Time, label string, local *Event) {
	r.pending = append(r.pending, refEvent{when: when, seq: r.seq, label: label, local: local})
	r.seq++
}

func (r *refClock) remote(when Time, key uint64, label string) {
	r.pending = append(r.pending, refEvent{when: when, seq: remoteBand | key, label: label})
}

func (r *refClock) cancel(e *Event) bool {
	for i, p := range r.pending {
		if p.local == e {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return true
		}
	}
	return false
}

func (r *refClock) purgeLocal() int {
	kept := r.pending[:0]
	for _, p := range r.pending {
		if p.seq&remoteBand != 0 {
			kept = append(kept, p)
		}
	}
	n := len(r.pending) - len(kept)
	r.pending = kept
	return n
}

func (r *refClock) pop() (refEvent, bool) {
	if len(r.pending) == 0 {
		return refEvent{}, false
	}
	min := 0
	for i, p := range r.pending {
		q := r.pending[min]
		if p.when < q.when || (p.when == q.when && p.seq < q.seq) {
			min = i
		}
	}
	p := r.pending[min]
	r.pending = append(r.pending[:min], r.pending[min+1:]...)
	return p, true
}

// TestRecycledArrivalsFireInReferenceOrder mixes wire arrivals and local
// timers, whose events the clock recycles, with Cancel and PurgeLocal
// over seeded random sequences, and requires every event to fire in the
// order of a reference clock that never recycles. Some events schedule an
// arrival while they fire, before their own event is freed. Every local
// timer has one holder, which clears its handle first thing in the
// action and right after a Cancel (or when a purge drops it), so a
// cancelled event goes back on the free list and may be reused. The
// churn mix keeps a few events pending; the schedule-heavy mix keeps
// thousands, so a sift error that shows only deep in the heap fails too.
func TestRecycledArrivalsFireInReferenceOrder(t *testing.T) {
	mixes := []struct {
		name    string
		seeds   int64
		ops     int
		horizon int // events fall due within this many ns of now
		// Out of every sum of weights: schedule, arrive, cancel, purge
		// (one in four draws), and the rest pops one to four events.
		schedule, arrive, cancel, purge, pop int
	}{
		{"churn", 40, 400, 50, 4, 2, 2, 1, 2},
		{"schedule-heavy", 3, 8000, 5000, 480, 160, 80, 1, 70},
	}
	reused, cancelled, deepest := 0, 0, 0
	for _, mix := range mixes {
		for seed := int64(1); seed <= mix.seeds; seed++ {
			rng := rand.New(rand.NewSource(seed))
			c := NewClock()
			ref := &refClock{}
			var fired []string
			seen := make(map[*Event]bool)
			key := uint64(0)
			due := func() Time { return c.Now() + Time(rng.Intn(mix.horizon)) }
			var remote func(label string)
			arrive := func(arg any) {
				label := arg.(string)
				fired = append(fired, label)
				if rng.Intn(4) == 0 {
					remote(label + "+")
				}
			}
			remote = func(label string) {
				key++
				k := uint64(rng.Intn(8))<<32 | key
				when := due()
				c.ScheduleRemote(when, k, arrive, label)
				ref.remote(when, k, label)
			}
			// armed lists the holders of pending local timers.
			type holder struct {
				label string
				ev    *Event
			}
			var armed []*holder
			drop := func(h *holder) {
				h.ev = nil
				i := slices.Index(armed, h)
				armed[i] = armed[len(armed)-1]
				armed = armed[:len(armed)-1]
			}
			tick := func(arg any) {
				h := arg.(*holder)
				drop(h)
				fired = append(fired, h.label)
				if rng.Intn(4) == 0 {
					remote(h.label + "+")
				}
			}
			total := mix.schedule + mix.arrive + mix.cancel + mix.purge + mix.pop
			for op := 0; op < mix.ops; op++ {
				label := strconv.Itoa(op)
				switch x := rng.Intn(total); {
				case x < mix.schedule:
					when := due()
					h := &holder{label: label}
					h.ev = c.Schedule(when, tick, h)
					armed = append(armed, h)
					ref.schedule(when, label, h.ev)
					if got := c.When(h.ev); got != when {
						t.Fatalf("%s seed %d: When = %d, want %d", mix.name, seed, got, when)
					}
				case x < mix.schedule+mix.arrive:
					remote(label)
				case x < mix.schedule+mix.arrive+mix.cancel && len(armed) > 0:
					h := armed[rng.Intn(len(armed))]
					e := h.ev
					if got, want := c.Cancel(e), ref.cancel(e); !got || !want {
						t.Fatalf("%s seed %d: Cancel of armed timer %s = %v, reference %v", mix.name, seed, h.label, got, want)
					}
					drop(h)
					cancelled++
					if e.Pending() {
						t.Fatalf("%s seed %d: cancelled timer %s still pending", mix.name, seed, h.label)
					}
				case x < mix.schedule+mix.arrive+mix.cancel+mix.purge && rng.Intn(4) == 0:
					if got, want := c.PurgeLocal(), ref.purgeLocal(); got != want {
						t.Fatalf("%s seed %d: PurgeLocal removed %d, reference %d", mix.name, seed, got, want)
					}
					for len(armed) > 0 {
						drop(armed[0])
					}
				default:
					for n := rng.Intn(4); n >= 0; n-- {
						ev := c.AdvanceToNextEvent()
						want, ok := ref.pop()
						if (ev != nil) != ok {
							t.Fatalf("%s seed %d: clock popped %v, reference has an event: %v", mix.name, seed, ev != nil, ok)
						}
						if ev == nil {
							break
						}
						// Every event falls due at or after the time it
						// was scheduled, so the clock now reads its time.
						if c.Now() != want.when {
							t.Fatalf("%s seed %d: popped an event at %d, reference %s@%d", mix.name, seed, c.Now(), want.label, want.when)
						}
						if seen[ev] {
							reused++
						}
						seen[ev] = true
						c.Fire(ev, true)
						if got := fired[len(fired)-1]; got != want.label {
							t.Fatalf("%s seed %d: fired %s, reference %s", mix.name, seed, got, want.label)
						}
					}
				}
				deepest = max(deepest, c.Pending())
			}
			for ev := c.AdvanceToNextEvent(); ev != nil; ev = c.AdvanceToNextEvent() {
				want, _ := ref.pop()
				c.Fire(ev, true)
				if got := fired[len(fired)-1]; got != want.label {
					t.Fatalf("%s seed %d: drained %s, reference %s", mix.name, seed, got, want.label)
				}
			}
			if len(ref.pending) != 0 || c.HasForeground() || len(armed) != 0 {
				t.Fatalf("%s seed %d: %d reference events left, clock foreground %v, %d timers armed",
					mix.name, seed, len(ref.pending), c.HasForeground(), len(armed))
			}
		}
	}
	t.Logf("%d events reused, %d timers cancelled, at most %d pending", reused, cancelled, deepest)
	if reused == 0 || cancelled == 0 || deepest < 2000 {
		t.Fatalf("%d events reused, %d timers cancelled, at most %d pending; want reuse, cancels and 2000 pending",
			reused, cancelled, deepest)
	}
}

// mustPanic runs f and requires it to panic with want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != want {
			t.Fatalf("panic %v, want %q", r, want)
		}
	}()
	f()
}

// TestCancelAfterRecyclingPanics pins the clock's guard on a timer's
// handle kept too long: cancelling the event once it is back on the free
// list, after it fired or after an earlier Cancel, panics by name.
// Cancelling a pending timer returns its event to the free list, and the
// next Schedule reuses it.
func TestCancelAfterRecyclingPanics(t *testing.T) {
	const want = "machine: event cancelled after it was recycled"
	t.Run("after firing", func(t *testing.T) {
		c := NewClock()
		ev := c.Schedule(5, nop, nil)
		c.Fire(c.AdvanceToNextEvent(), true)
		mustPanic(t, want, func() { c.Cancel(ev) })
	})
	t.Run("after cancelling", func(t *testing.T) {
		c := NewClock()
		ran := false
		ev := c.Schedule(5, func(any) { ran = true }, nil)
		if !c.Cancel(ev) || ev.Pending() || c.HasForeground() || c.Pending() != 0 {
			t.Fatal("Cancel left the timer queued")
		}
		if again := c.Schedule(7, nop, nil); again != ev {
			t.Fatal("the cancelled event was not reused")
		}
		c.Fire(c.AdvanceToNextEvent(), true)
		if ran {
			t.Fatal("the cancelled timer's action ran")
		}
		mustPanic(t, want, func() { c.Cancel(ev) })
	})
}

// TestArrivalFiredAfterRecyclingPanics pins the checked clock's guard: an
// arrival event fired a second time, after Fire returned it to the free
// list, panics by name. Unchecked, Fire does not look.
func TestArrivalFiredAfterRecyclingPanics(t *testing.T) {
	c := NewClock()
	n := 0
	c.ScheduleRemote(5, 1, func(any) { n++ }, nil)
	ev := c.AdvanceToNextEvent()
	c.Fire(ev, true)
	if n != 1 {
		t.Fatalf("arrival ran %d times, want 1", n)
	}
	mustPanic(t, "machine: event fired after it was recycled", func() { c.Fire(ev, true) })
	if n != 1 {
		t.Fatalf("recycled arrival ran again (%d runs)", n)
	}
}

// TestEventLayout pins the size of a clock event, which every pending
// timer, device completion and wire arrival holds: the background mark
// and queue index, and one bound action and its argument. The time and
// tie-break live in the queue's slot (24 bytes).
func TestEventLayout(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n > 32 {
		t.Errorf("Event is %d bytes, want at most 32", n)
	}
	if n := unsafe.Sizeof(slot{}); n > 24 {
		t.Errorf("a queue slot is %d bytes, want at most 24", n)
	}
}
