package dev

import "testing"

// TestDedupWatermark drives the delivered-sequence set through
// out-of-order and duplicate arrivals on both sides of its watermark,
// counting the intervals above it.
func TestDedupWatermark(t *testing.T) {
	var d dedup
	step := func(seq uint64, want bool, low uint64, above int) {
		t.Helper()
		if got := d.first(seq); got != want {
			t.Fatalf("first(%d) = %v, want %v", seq, got, want)
		}
		if d.low != low || len(d.above) != above {
			t.Fatalf("after %d: watermark %d with %d intervals above, want %d with %d", seq, d.low, len(d.above), low, above)
		}
	}
	step(1, true, 1, 0)
	step(1, false, 1, 0) // duplicate at the watermark
	step(3, true, 1, 1)  // overtakes 2
	step(5, true, 1, 2)
	step(3, false, 1, 2) // duplicate above the watermark
	step(2, true, 3, 1)  // fills the gap: the watermark absorbs 3
	step(2, false, 3, 1) // duplicate below the watermark
	step(4, true, 5, 0)  // absorbs 5, the set empties
	step(5, false, 5, 0)
	step(6, true, 6, 0)
	d.reset()
	step(2, true, 0, 1) // the peer's new incarnation, its first packet late
	step(1, true, 2, 0)
}

// TestDedupInOrderLeavesSetEmpty checks that in-order traffic never
// grows the set above the watermark.
func TestDedupInOrderLeavesSetEmpty(t *testing.T) {
	var d dedup
	for seq := uint64(1); seq <= 10000; seq++ {
		if !d.first(seq) {
			t.Fatalf("packet %d suppressed as a duplicate", seq)
		}
		if len(d.above) != 0 {
			t.Fatalf("packet %d left %d numbers above the watermark", seq, len(d.above))
		}
	}
	if d.low != 10000 {
		t.Fatalf("watermark %d after 10000 in-order packets", d.low)
	}
}

// TestDedupMatchesMapReference feeds the interval set and a plain set of
// every delivered number the same sequences — in order, reordered,
// duplicated, and heard from mid-stream as a rebuilt link hears them,
// with the peer rebooting now and then — and requires the same answer
// from both at every packet. After every packet the intervals must be
// sorted, must not touch each other or the watermark, and must hold
// exactly the delivered numbers above the watermark.
func TestDedupMatchesMapReference(t *testing.T) {
	rng := uint64(0x9e3779b97f4a7c15)
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	for trial := 0; trial < 400; trial++ {
		var d dedup
		ref := map[uint64]bool{}
		start := uint64(1)
		if trial%2 == 1 {
			start = 1 + next(1000) // a rebuilt link joins mid-stream
		}
		window := 1 + next(16) // how far a packet may be overtaken
		dupEvery := 2 + next(8)
		seq := start
		for step := 0; step < 600; step++ {
			var s uint64
			switch {
			case next(dupEvery) == 0 && seq > start:
				s = start + next(seq-start) // a duplicate of anything sent
			default:
				s = seq + next(window) // in order, or overtaking
				seq++
			}
			if next(200) == 0 {
				// The peer's new incarnation numbers from 1 again.
				d.reset()
				clear(ref)
				start, seq = 1, 1
				continue
			}
			want := !ref[s]
			ref[s] = true
			if got := d.first(s); got != want {
				t.Fatalf("trial %d step %d: first(%d) = %v, map reference says %v", trial, step, s, got, want)
			}
			checkDedup(t, &d, ref, step%50 == 0)
		}
		checkDedup(t, &d, ref, true)
	}
}

// checkDedup verifies d's interval invariants and, when full is set,
// that it holds exactly the numbers in ref.
func checkDedup(t *testing.T, d *dedup, ref map[uint64]bool, full bool) {
	t.Helper()
	held := 0
	prev := d.low
	for i, r := range d.above {
		if r.lo > r.hi || r.lo <= prev+1 {
			t.Fatalf("interval %d [%d,%d] out of order or touching %d below it (watermark %d)", i, r.lo, r.hi, prev, d.low)
		}
		held += int(r.hi - r.lo + 1)
		prev = r.hi
	}
	if !full {
		return
	}
	for i, r := range d.above {
		for n := r.lo; n <= r.hi; n++ {
			if !ref[n] {
				t.Fatalf("interval %d [%d,%d] holds %d, never delivered", i, r.lo, r.hi, n)
			}
		}
	}
	// ref holds no 0, so it holds all of 1..low exactly when it holds
	// low numbers at or below low.
	below, above := 0, 0
	for n := range ref {
		if n <= d.low {
			below++
		} else {
			above++
		}
	}
	if uint64(below) != d.low || held != above {
		t.Fatalf("watermark %d covers %d delivered numbers and the intervals hold %d of the %d above it",
			d.low, below, held, above)
	}
}
