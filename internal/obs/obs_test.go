package obs

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/machine"
)

func TestKindStringsRoundTrip(t *testing.T) {
	for k := Kind(0); k < Kind(NumKinds); k++ {
		s := k.String()
		if s == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		got, ok := KindFromString(s)
		if !ok || got != k {
			t.Fatalf("KindFromString(%q) = %v, %v; want %v", s, got, ok, k)
		}
	}
	if _, ok := KindFromString("bogus"); ok {
		t.Fatal("KindFromString accepted an unknown name")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 2, 3, 4, 1023, 1024, 1 << 40} {
		h.Observe(v)
	}
	if h.Count != 8 {
		t.Fatalf("Count = %d", h.Count)
	}
	if h.Min != 0 || h.Max != 1<<40 {
		t.Fatalf("Min/Max = %d/%d", h.Min, h.Max)
	}
	// 0 -> bucket 0; 1 -> 1; 2,3 -> 2; 4 -> 3; 1023 -> 10; 1024 -> 11;
	// 2^40 -> 41.
	want := map[int]uint64{0: 1, 1: 1, 2: 2, 3: 1, 10: 1, 11: 1, 41: 1}
	for i, n := range h.Buckets {
		if n != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, n, want[i])
		}
	}
	// Every observed value must fall inside its bucket's bounds.
	for _, v := range []uint64{0, 1, 2, 1023, 1024, 1 << 40, 1 << 63, ^uint64(0)} {
		var h2 Histogram
		h2.Observe(v)
		for i, n := range h2.Buckets {
			if n == 0 {
				continue
			}
			lo, hi := BucketBounds(i)
			if v < lo || (v >= hi && hi != ^uint64(0)) || (hi == ^uint64(0) && v < lo) {
				t.Fatalf("value %d counted in bucket %d = [%d, %d)", v, i, lo, hi)
			}
		}
	}
}

func TestBucketBoundsCoverRange(t *testing.T) {
	if lo, hi := BucketBounds(0); lo != 0 || hi != 1 {
		t.Fatalf("bucket 0 = [%d, %d)", lo, hi)
	}
	// Consecutive buckets must tile the range with no gap or overlap.
	for i := 1; i < 64; i++ {
		prevLo, prevHi := BucketBounds(i - 1)
		lo, hi := BucketBounds(i)
		if lo != prevHi {
			t.Fatalf("gap between bucket %d [%d,%d) and %d [%d,%d)", i-1, prevLo, prevHi, i, lo, hi)
		}
		if hi <= lo {
			t.Fatalf("bucket %d = [%d, %d) is empty or wrapped", i, lo, hi)
		}
	}
	if lo, hi := BucketBounds(64); lo != 1<<63 || hi != ^uint64(0) {
		t.Fatalf("bucket 64 = [%d, %d)", lo, hi)
	}
}

func TestRingEviction(t *testing.T) {
	clock := machine.NewClock()
	r := NewRecorder(clock, 4)
	for i := 0; i < 6; i++ {
		r.Emit(Note, i, "n")
		clock.Advance(10)
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Dropped != 2 {
		t.Fatalf("Dropped = %d, want 2", r.Dropped)
	}
	// Statistics still cover everything, including the evicted events.
	if r.KindCounts[Note] != 6 {
		t.Fatalf("KindCounts[Note] = %d, want 6", r.KindCounts[Note])
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("Events len = %d", len(evs))
	}
	// Emit order is preserved: the two oldest (seq 0, 1) are gone.
	for i, ev := range evs {
		if ev.Seq != uint64(i+2) {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, i+2)
		}
	}
}

// TestDefaultCapacity: retention is opt-in. A capacity-0 recorder keeps
// no events, evicts none and says so through Retains, while its
// statistics still count every emit.
func TestDefaultCapacity(t *testing.T) {
	r := NewRecorder(machine.NewClock(), 0)
	for i := 0; i < 3; i++ {
		r.Emit(Note, 1, "n")
	}
	if evs := r.Events(); len(evs) != 0 || r.Len() != 0 || r.Dropped != 0 || r.Retains() {
		t.Fatalf("capacity 0: %d events, Len %d, Dropped %d, Retains %v; want none, 0, 0, false",
			len(evs), r.Len(), r.Dropped, r.Retains())
	}
	if r.KindCounts[Note] != 3 {
		t.Fatalf("KindCounts[Note] = %d, want 3", r.KindCounts[Note])
	}
	if !NewRecorder(machine.NewClock(), DefaultCapacity).Retains() {
		t.Fatal("a DefaultCapacity recorder does not retain")
	}
}

// TestLazyRingMatchesPreallocated drives a ring that starts at
// initialRing events and doubles, clamped to its capacity, one
// preallocated at full capacity and a ring-free recorder through the
// same emits and spans, one at a time and well past capacity, for
// capacities below, at and above the first ring. After every emit both
// rings must hold the newest capacity events in emit order and count
// every evicted one; at every growth step and the first eviction their
// exports must be byte-identical, and the grown ring must stop at
// exactly capacity. All three must agree on histograms, profiles and
// spans, which never read the ring.
func TestLazyRingMatchesPreallocated(t *testing.T) {
	for _, capacity := range []int{1, initialRing - 1, initialRing, initialRing + 1, 3*initialRing + 17, 512} {
		clock := machine.NewClock()
		lazy := NewRecorder(clock, capacity)
		pre := NewRecorder(clock, capacity)
		pre.ring = make([]Event, 0, capacity)
		free := NewRecorder(clock, 0)
		recs := []*Recorder{lazy, pre, free}
		for _, r := range recs {
			r.NameThreads(func(tid int) string { return fmt.Sprintf("t%d", tid-1) })
		}
		grown := cap(lazy.ring)
		if grown != min(initialRing, capacity) {
			t.Fatalf("capacity %d: first ring holds %d events, want %d", capacity, grown, min(initialRing, capacity))
		}
		for i := 0; i < 3*capacity+5; i++ {
			clock.Advance(machine.Duration(i%7 + 1))
			kind := Kind(i % NumKinds)
			name := fmt.Sprintf("t%d", i%5)
			for _, r := range recs {
				r.EmitCont(kind, i%5+1, Intern("c"), fmt.Sprint(i), i)
				if i%11 == 0 {
					r.RecordSpan(Span{Trace: uint64(i + 1), ID: r.NextSpanID(uint64(i + 1)), Name: name,
						Start: clock.Now() - 3, End: clock.Now()})
				}
			}
			emits := i + 1
			kept := min(emits, capacity)
			evs := lazy.Events()
			if len(evs) != kept || lazy.Dropped != uint64(emits-kept) {
				t.Fatalf("capacity %d, %d emits: %d events, %d dropped; want %d, %d",
					capacity, emits, len(evs), lazy.Dropped, kept, emits-kept)
			}
			for j, ev := range evs {
				if want := emits - kept + j; ev.Seq != uint64(want) || ev.Arg != want {
					t.Fatalf("capacity %d, %d emits: event %d has seq %d arg %d, want %d",
						capacity, emits, j, ev.Seq, ev.Arg, want)
				}
			}
			if !reflect.DeepEqual(evs, pre.Events()) || lazy.Dropped != pre.Dropped {
				t.Fatalf("capacity %d, %d emits: the lazy ring differs from the preallocated one", capacity, emits)
			}
			if c := cap(lazy.ring); c != grown || emits == capacity+1 {
				if c != grown && c != min(2*grown, capacity) {
					t.Fatalf("capacity %d, %d emits: ring grew %d -> %d, want %d",
						capacity, emits, grown, c, min(2*grown, capacity))
				}
				grown = c
				var a, b bytes.Buffer
				if err := WriteChrome(&a, lazy); err != nil {
					t.Fatal(err)
				}
				if err := WriteChrome(&b, pre); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a.Bytes(), b.Bytes()) {
					t.Fatalf("capacity %d, %d emits: Chrome exports differ", capacity, emits)
				}
			}
		}
		if cap(lazy.ring) != capacity {
			t.Fatalf("capacity %d: full ring holds %d", capacity, cap(lazy.ring))
		}
		if free.Len() != 0 || free.Dropped != 0 {
			t.Fatalf("capacity %d: ring-free recorder retains %d events (dropped %d)", capacity, free.Len(), free.Dropped)
		}
		for _, r := range recs[1:] {
			if !reflect.DeepEqual(r.Hist, lazy.Hist) || !reflect.DeepEqual(r.Profiles(), lazy.Profiles()) ||
				!reflect.DeepEqual(r.SpanChunks(), lazy.SpanChunks()) || r.KindCounts != lazy.KindCounts {
				t.Fatalf("capacity %d: capacity-%d recorder's statistics differ from the lazy ring's", capacity, r.capacity)
			}
		}
	}
}

// TestEventReaders pins which recorders the kernel's emit sites feed:
// one with a reader for events (a ring or the profile, which every
// NewRecorder keeps), never a nil one or a service recorder, which keeps
// its service histograms and spans alone.
func TestEventReaders(t *testing.T) {
	clock := machine.NewClock()
	var none *Recorder
	svc := NewServiceRecorder(clock)
	for _, c := range []struct {
		name          string
		r             *Recorder
		takes, retain bool
	}{
		{"nil", none, false, false},
		{"service", svc, false, false},
		{"profile", NewRecorder(clock, 0), true, false},
		{"ring", NewRecorder(clock, DefaultCapacity), true, true},
	} {
		if c.r.TakesEvents() != c.takes || c.r.Retains() != c.retain {
			t.Fatalf("%s recorder: TakesEvents %v, Retains %v; want %v, %v",
				c.name, c.r.TakesEvents(), c.r.Retains(), c.takes, c.retain)
		}
	}
	svc.Service("tier").Observe(7)
	svc.RecordSpan(Span{Trace: 1, ID: svc.NextSpanID(1), Name: "op", End: 7})
	if h := svc.ServiceHistograms(); len(h) != 1 || h[0].Count != 1 || len(svc.SpanChunks()) != 1 {
		t.Fatalf("service recorder keeps %d histograms and %d span chunks, want 1 and 1", len(h), len(svc.SpanChunks()))
	}
}

// TestLatencyStateMachine drives a synthetic blocked->wakeup->dispatch
// sequence and a handoff sequence through the recorder and checks which
// histograms each feeds.
func TestLatencyStateMachine(t *testing.T) {
	clock := machine.NewClock()
	r := NewRecorder(clock, 64)

	// Thread 1 blocks with a continuation at t=0, wakes at t=100, runs at
	// t=130: one block->wakeup sample of 100, one dispatch sample of 30.
	r.EmitCont(ThreadBlocked, 1, Intern("cont_a"), "message receive", 0)
	clock.Advance(100)
	r.Emit(Wakeup, 1, "")
	clock.Advance(30)
	r.Emit(Dispatch, 1, "")

	bw := r.Hist[LatBlockToWakeup]
	if bw.Count != 1 || bw.Sum != 100 {
		t.Fatalf("block->wakeup count/sum = %d/%d, want 1/100", bw.Count, bw.Sum)
	}
	dl := r.Hist[LatDispatch]
	if dl.Count != 1 || dl.Sum != 30 {
		t.Fatalf("dispatch count/sum = %d/%d, want 1/30", dl.Count, dl.Sum)
	}

	// Thread 2 blocks at t=130 and receives a stack handoff from thread 3
	// at t=150: its wait closes (20) and its dispatch latency is zero —
	// the handoff fast path shows up in bucket 0.
	r.EmitCont(ThreadBlocked, 2, Intern("cont_b"), "message receive", 0)
	clock.Advance(20)
	r.EmitCont(StackHandoff, 2, Intern("cont_b"), "from c", 3)
	if bw.Count != 2 || bw.Sum != 120 {
		t.Fatalf("block->wakeup count/sum = %d/%d, want 2/120", bw.Count, bw.Sum)
	}
	if dl.Count != 2 || dl.Buckets[0] != 1 {
		t.Fatalf("dispatch count = %d, bucket0 = %d; want handoff's zero sample", dl.Count, dl.Buckets[0])
	}

	// A yield (Arg=1) is not a block: the thread stayed runnable, so its
	// queue time goes to dispatch latency, not block->wakeup.
	r.EmitArg(ThreadBlocked, 4, "preempted", 1)
	clock.Advance(40)
	r.Emit(Dispatch, 4, "")
	if bw.Count != 2 {
		t.Fatalf("yield leaked into block->wakeup: count = %d", bw.Count)
	}
	if dl.Count != 3 || dl.Sum != 30+0+40 {
		t.Fatalf("dispatch count/sum = %d/%d, want 3/70", dl.Count, dl.Sum)
	}
}

func TestStackLifetime(t *testing.T) {
	clock := machine.NewClock()
	r := NewRecorder(clock, 64)
	r.Emit(StackAttach, 1, "")
	clock.Advance(500)
	// Handoff from 1 to 2 closes 1's tenure and opens 2's.
	r.EmitArg(StackHandoff, 2, "from a", 1)
	clock.Advance(250)
	r.Emit(StackDetach, 2, "")
	h := r.Hist[LatStackLifetime]
	if h.Count != 2 || h.Sum != 750 || h.Min != 250 || h.Max != 500 {
		t.Fatalf("stack lifetime count/sum/min/max = %d/%d/%d/%d", h.Count, h.Sum, h.Min, h.Max)
	}
}

func TestRPCRoundTrip(t *testing.T) {
	clock := machine.NewClock()
	r := NewRecorder(clock, 64)
	// An unmatched end is ignored.
	r.Emit(RPCEnd, 1, "")
	if r.Hist[LatRPCRoundTrip].Count != 0 {
		t.Fatal("unmatched RPCEnd produced a sample")
	}
	r.Emit(RPCStart, 1, "echo")
	clock.Advance(1000)
	r.Emit(RPCEnd, 1, "")
	h := r.Hist[LatRPCRoundTrip]
	if h.Count != 1 || h.Sum != 1000 {
		t.Fatalf("rpc count/sum = %d/%d", h.Count, h.Sum)
	}
}

func TestContinuationProfiler(t *testing.T) {
	clock := machine.NewClock()
	r := NewRecorder(clock, 64)
	r.EmitCont(ThreadBlocked, 1, Intern("mach_msg_continue"), "message receive", 0)
	r.EmitCont(Recognition, 2, Intern("mach_msg_continue"), "mach_msg_continue", 0)
	r.EmitCont(RecognitionMiss, 2, Intern("mach_msg_continue"), "other_continue", 0)
	r.EmitCont(StackHandoff, 1, Intern("mach_msg_continue"), "from b", 2)
	r.EmitCont(ContinuationCall, 3, Intern("thread_start"), "thread_start", 0)

	p := r.Profile("mach_msg_continue")
	if p == nil {
		t.Fatal("no profile for mach_msg_continue")
	}
	if p.Blocks != 1 || p.Handoffs != 1 || p.RecognitionHits != 1 || p.RecognitionMisses != 1 {
		t.Fatalf("profile = %+v", *p)
	}
	if got := p.HitRate(); got != 50 {
		t.Fatalf("HitRate = %v, want 50", got)
	}
	if q := r.Profile("thread_start"); q == nil || q.Calls != 1 {
		t.Fatalf("thread_start profile = %+v", q)
	}
	// Never-probed profile: HitRate must be 0, not NaN.
	if got := r.Profile("thread_start").HitRate(); got != 0 {
		t.Fatalf("unprobed HitRate = %v", got)
	}
	// Profiles() is sorted by name.
	ps := r.Profiles()
	if len(ps) != 2 || ps[0].Name != "mach_msg_continue" || ps[1].Name != "thread_start" {
		t.Fatalf("Profiles order = %v, %v", ps[0].Name, ps[1].Name)
	}
}

func TestTransferStringKeepsOnlyTransferKinds(t *testing.T) {
	clock := machine.NewClock()
	r := named(NewRecorder(clock, 64), map[int]string{1: "task/t"})
	r.Emit(KernelEntry, 1, "mach_msg(rpc)")
	r.EmitCont(ThreadBlocked, 1, Intern("c"), "message receive", 0) // lifecycle: dropped
	r.Emit(Dispatch, 1, "")                                         // lifecycle: dropped
	r.Emit(Wakeup, 1, "")                                           // not a step
	r.Emit(Block, 1, "t blocked with c")
	r.Emit(Interrupt, 0, "disk read") // no thread current: parked
	s := TransferString(r.Events())
	want := " 1. [task/t] kernel-entry: mach_msg(rpc)\n 2. [task/t] block: t blocked with c\n" +
		" 3. [<parked>] interrupt: disk read\n"
	if s != want {
		t.Fatalf("TransferString =\n%s\nwant\n%s", s, want)
	}
}

func TestTransferLineFormat(t *testing.T) {
	evs := []Event{
		{Kind: CopyIn, Thread: "client"},
		{Kind: CopyIn, Thread: "client", Detail: "24 bytes"},
	}
	for i := 0; i < 8; i++ {
		evs = append(evs, Event{Kind: Note, Thread: "t"})
	}
	lines := strings.Split(TransferString(evs), "\n")
	if lines[0] != " 1. [client] copy-in" || lines[1] != " 2. [client] copy-in: 24 bytes" {
		t.Fatalf("lines = %q", lines[:2])
	}
	if lines[9] != "10. [t] note" {
		t.Fatalf("line 10 = %q", lines[9])
	}
}

// TestTransferKinds pins the step kinds Transfers keeps, with the names
// Figure 2 renderings have always used.
func TestTransferKinds(t *testing.T) {
	var evs []Event
	for k := Kind(0); k < numKinds; k++ {
		evs = append(evs, Event{Kind: k})
	}
	var got []string
	for _, ev := range Transfers(evs) {
		got = append(got, ev.Kind.String())
	}
	want := []string{
		"kernel-entry", "kernel-exit", "copy-in", "copy-out", "find-receiver",
		"stack-handoff", "recognition", "call-continuation", "context-switch",
		"block", "queue-message", "dequeue-message", "note", "interrupt",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("transfer kinds = %v, want %v", got, want)
	}
}

// TestTransferKindNamesDistinct checks that a step line's kind name
// identifies its kind: no transfer kind shares a name with any other kind.
func TestTransferKindNamesDistinct(t *testing.T) {
	var all []Event
	owners := map[string][]Kind{}
	for k := Kind(0); k < numKinds; k++ {
		all = append(all, Event{Kind: k})
		owners[k.String()] = append(owners[k.String()], k)
	}
	for _, ev := range Transfers(all) {
		if o := owners[ev.Kind.String()]; len(o) != 1 {
			t.Fatalf("transfer kind %d shares name %q with kinds %v", ev.Kind, ev.Kind.String(), o)
		}
	}
}

func TestReportDeterministic(t *testing.T) {
	build := func() string {
		clock := machine.NewClock()
		r := NewRecorder(clock, 64)
		for i := 0; i < 10; i++ {
			r.EmitCont(ThreadBlocked, i%3+1, Intern("cont_x"), "message receive", 0)
			clock.Advance(machine.Duration(100 * (i + 1)))
			r.Emit(Wakeup, i%3+1, "")
			clock.Advance(7)
			r.Emit(Dispatch, i%3+1, "")
			r.EmitCont(Recognition, 9, Intern("cont_x"), "cont_x", 0)
		}
		var b strings.Builder
		r.WriteReport(&b)
		return b.String()
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("report not deterministic:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(a, "cont_x") || !strings.Contains(a, "block->wakeup") {
		t.Fatalf("report missing expected sections:\n%s", a)
	}
	if !strings.Contains(a, "100.0%") {
		t.Fatalf("report missing hit rate:\n%s", a)
	}
}

func TestReset(t *testing.T) {
	clock := machine.NewClock()
	r := NewRecorder(clock, 8)
	r.EmitCont(ThreadBlocked, 1, Intern("c"), "x", 0)
	clock.Advance(5)
	r.Emit(Wakeup, 1, "")
	r.Reset()
	if r.Len() != 0 || r.Dropped != 0 {
		t.Fatalf("Len/Dropped after reset = %d/%d", r.Len(), r.Dropped)
	}
	if len(r.Profiles()) != 0 {
		t.Fatal("profiles survived reset")
	}
	for _, h := range r.Hist {
		if h.Count != 0 {
			t.Fatalf("histogram %s survived reset", h.Name)
		}
	}
	r.Emit(Note, 1, "fresh")
	if evs := r.Events(); len(evs) != 1 || evs[0].Seq != 0 {
		t.Fatalf("post-reset events = %v", evs)
	}
}

// named installs a thread-name lookup on r that reads names by thread
// id, as a kernel's does.
func named(r *Recorder, names map[int]string) *Recorder {
	r.NameThreads(func(tid int) string { return names[tid] })
	return r
}

// TestThreadNamedOnce checks that a retaining recorder asks the kernel's
// lookup for each thread's name once, however often its events
// alternate with another thread's, asks again for an id the lookup could
// not name, and forgets every name on Reset.
func TestThreadNamedOnce(t *testing.T) {
	r := NewRecorder(nil, 64)
	asked := map[int]int{}
	// Thread 20 lies past the recorder's first table, so naming it grows
	// the table under the names already built.
	names := map[int]string{1: "client", 2: "server", 20: "worker"}
	r.NameThreads(func(tid int) string {
		asked[tid]++
		return names[tid]
	})
	for i := 0; i < 10; i++ {
		r.Emit(Note, 1, "")
		r.Emit(Note, 2, "")
		r.Emit(Note, 3, "")
		r.Emit(Note, 20, "")
	}
	if asked[1] != 1 || asked[2] != 1 || asked[20] != 1 || asked[3] != 10 {
		t.Fatalf("lookups per thread %v, want 1 for each named thread and 10 for the unnamed one", asked)
	}
	for i, ev := range r.Events() {
		if want := []string{"client", "server", "", "worker"}[i%4]; ev.Thread != want {
			t.Fatalf("event %d names %q, want %q", i, ev.Thread, want)
		}
	}
	r.Reset()
	r.Emit(Note, 1, "")
	if asked[1] != 2 {
		t.Fatalf("thread 1 looked up %d times after Reset, want 2", asked[1])
	}
}
