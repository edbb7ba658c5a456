package dev

import "testing"

// TestDedupWatermark drives the delivered-sequence set through
// out-of-order and duplicate arrivals on both sides of its watermark.
func TestDedupWatermark(t *testing.T) {
	var d dedup
	step := func(seq uint64, want bool, low uint64, above int) {
		t.Helper()
		if got := d.first(seq); got != want {
			t.Fatalf("first(%d) = %v, want %v", seq, got, want)
		}
		if d.low != low || len(d.above) != above {
			t.Fatalf("after %d: watermark %d with %d above, want %d with %d", seq, d.low, len(d.above), low, above)
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
