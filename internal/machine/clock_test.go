package machine

import (
	"math/rand"
	"testing"
	"testing/quick"
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

func TestEventOrdering(t *testing.T) {
	c := NewClock()
	var fired []string
	c.Schedule(300, "c", func() { fired = append(fired, "c") })
	c.Schedule(100, "a", func() { fired = append(fired, "a") })
	c.Schedule(200, "b", func() { fired = append(fired, "b") })

	c.Advance(250)
	for e := c.PopDue(); e != nil; e = c.PopDue() {
		e.Fire()
	}
	if len(fired) != 2 || fired[0] != "a" || fired[1] != "b" {
		t.Fatalf("fired = %v", fired)
	}
	c.Advance(100)
	if e := c.PopDue(); e == nil || e.Label != "c" {
		t.Fatalf("expected c due, got %+v", e)
	}
}

func TestEventSameTimeFIFO(t *testing.T) {
	c := NewClock()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.Schedule(50, "e", func() { order = append(order, i) })
	}
	c.Advance(50)
	for e := c.PopDue(); e != nil; e = c.PopDue() {
		e.Fire()
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of order: %v", order)
		}
	}
}

func TestEventCancel(t *testing.T) {
	c := NewClock()
	fired := false
	e := c.Schedule(10, "x", func() { fired = true })
	if !c.Cancel(e) {
		t.Fatal("Cancel returned false for pending event")
	}
	if c.Cancel(e) {
		t.Fatal("double cancel returned true")
	}
	if !e.Cancelled() {
		t.Fatal("event not marked cancelled")
	}
	c.Advance(20)
	if ev := c.PopDue(); ev != nil {
		t.Fatalf("cancelled event still due: %v", ev.Label)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
	if c.Cancel(nil) {
		t.Fatal("Cancel(nil) returned true")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	c := NewClock()
	var es []*Event
	for i := 0; i < 20; i++ {
		when := Time((i * 37) % 100)
		es = append(es, c.Schedule(when, "e", func() {}))
	}
	// Cancel every third event, then verify the rest drain in time order.
	for i := 0; i < len(es); i += 3 {
		c.Cancel(es[i])
	}
	c.Advance(1000)
	var last Time
	count := 0
	for e := c.PopDue(); e != nil; e = c.PopDue() {
		if e.When < last {
			t.Fatalf("heap order violated: %v after %v", e.When, last)
		}
		last = e.When
		count++
	}
	want := len(es) - (len(es)+2)/3
	if count != want {
		t.Fatalf("drained %d events, want %d", count, want)
	}
}

func TestAdvanceToNextEvent(t *testing.T) {
	c := NewClock()
	c.Schedule(500, "wake", func() {})
	e := c.AdvanceToNextEvent()
	if e == nil || e.Label != "wake" {
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
	c.Schedule(10, "past", func() {})
	c.Advance(100)
	c.AdvanceToNextEvent()
	if c.Now() != 100 {
		t.Fatalf("clock went backwards to %v", c.Now())
	}
}

func TestPopDueNotEarly(t *testing.T) {
	c := NewClock()
	c.Schedule(10, "later", func() {})
	if e := c.PopDue(); e != nil {
		t.Fatalf("event due early: %v", e.Label)
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
		for _, ti := range times {
			c.Schedule(Time(ti), "e", func() {})
		}
		c.now = ^Time(0) >> 1
		var last Time
		for e := c.PopDue(); e != nil; e = c.PopDue() {
			if e.When < last {
				return false
			}
			last = e.When
		}
		return c.Pending() == 0
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
	c.Schedule(10, "local-a", func() { fired = append(fired, "local-a") })
	c.AfterBackground(20, "tick", func() { fired = append(fired, "tick") })
	arrive := func(label any) { fired = append(fired, label.(string)) }
	c.ScheduleRemote(15, 1, "wire-1", arrive, "wire-1")
	c.ScheduleRemote(15, 2, "wire-2", arrive, "wire-2")
	c.Schedule(30, "local-b", func() { fired = append(fired, "local-b") })

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

func TestPurgeLocalCancelledEventsStayDead(t *testing.T) {
	c := NewClock()
	ran := false
	e := c.Schedule(10, "local", func() { ran = true })
	c.PurgeLocal()
	if e.Pending() {
		t.Fatal("purged event still pending")
	}
	if c.Cancel(e) {
		t.Fatal("Cancel succeeded on a purged event")
	}
	c.Advance(20)
	if got := c.PopDue(); got != nil {
		t.Fatalf("PopDue returned purged event %v", got.Label)
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

// TestRecycledArrivalsFireInReferenceOrder mixes wire arrivals, which
// the clock recycles, with local Schedule, Cancel and PurgeLocal over
// seeded random sequences, and requires every event to fire in the
// order of a reference clock that never recycles. Some arrivals schedule
// another while they fire, before their own event is freed.
func TestRecycledArrivalsFireInReferenceOrder(t *testing.T) {
	reused := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewClock()
		ref := &refClock{}
		var fired []string
		var handles []*Event
		seen := make(map[*Event]bool)
		key := uint64(0)
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
			when := c.Now() + Time(rng.Intn(50))
			c.ScheduleRemote(when, k, label, arrive, label)
			ref.remote(when, k, label)
		}
		for op := 0; op < 400; op++ {
			label := string(rune('a'+op%26)) + "." + string(rune('0'+op/26%10)) + "." + string(rune('0'+op/260))
			switch x := rng.Intn(10); {
			case x < 3:
				when := c.Now() + Time(rng.Intn(50))
				e := c.Schedule(when, label, func() { fired = append(fired, label) })
				ref.schedule(when, label, e)
				handles = append(handles, e)
			case x < 6:
				remote(label)
			case x < 7 && len(handles) > 0:
				e := handles[rng.Intn(len(handles))]
				if got, want := c.Cancel(e), ref.cancel(e); got != want {
					t.Fatalf("seed %d: Cancel(%s) = %v, reference %v", seed, e.Label, got, want)
				}
			case x < 8 && rng.Intn(4) == 0:
				if got, want := c.PurgeLocal(), ref.purgeLocal(); got != want {
					t.Fatalf("seed %d: PurgeLocal removed %d, reference %d", seed, got, want)
				}
			default:
				for n := rng.Intn(4); n >= 0; n-- {
					ev := c.AdvanceToNextEvent()
					want, ok := ref.pop()
					if (ev != nil) != ok {
						t.Fatalf("seed %d: clock popped %v, reference has an event: %v", seed, ev != nil, ok)
					}
					if ev == nil {
						break
					}
					if ev.When != want.when || ev.Label != want.label {
						t.Fatalf("seed %d: popped %s@%d, reference %s@%d", seed, ev.Label, ev.When, want.label, want.when)
					}
					if ev.Fire == nil {
						if seen[ev] {
							reused++
						}
						seen[ev] = true
					}
					c.Fire(ev, true)
					if got := fired[len(fired)-1]; got != want.label {
						t.Fatalf("seed %d: fired %s, reference %s", seed, got, want.label)
					}
				}
			}
		}
		for ev := c.AdvanceToNextEvent(); ev != nil; ev = c.AdvanceToNextEvent() {
			want, _ := ref.pop()
			if ev.Label != want.label {
				t.Fatalf("seed %d: drained %s, reference %s", seed, ev.Label, want.label)
			}
			c.Fire(ev, true)
		}
		if len(ref.pending) != 0 || c.HasForeground() {
			t.Fatalf("seed %d: %d reference events left, clock foreground %v", seed, len(ref.pending), c.HasForeground())
		}
	}
	if reused == 0 {
		t.Fatal("no arrival event was ever reused")
	}
}

// TestArrivalFiredAfterRecyclingPanics pins the checked clock's guard: an
// arrival event fired a second time, after Fire returned it to the free
// list, panics by name. Unchecked, Fire does not look.
func TestArrivalFiredAfterRecyclingPanics(t *testing.T) {
	c := NewClock()
	n := 0
	c.ScheduleRemote(5, 1, "wire", func(any) { n++ }, nil)
	ev := c.AdvanceToNextEvent()
	c.Fire(ev, true)
	if n != 1 {
		t.Fatalf("arrival ran %d times, want 1", n)
	}
	defer func() {
		const want = "machine: wire arrival fired after it was recycled"
		if r := recover(); r != want {
			t.Fatalf("panic %v, want %q", r, want)
		}
		if n != 1 {
			t.Fatalf("recycled arrival ran again (%d runs)", n)
		}
	}()
	c.Fire(ev, true)
}
