package obs

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/machine"
)

// TestCritPathExactSum is the analyzer's core contract: for every
// decomposed operation, the per-segment durations sum to exactly the
// root span's measured extent — no double counting across overlapping
// children, no uncovered residue.
func TestCritPathExactSum(t *testing.T) {
	mk := func(trace, id, parent uint64, seg Seg, start, end machine.Time) Span {
		return Span{Trace: trace, ID: id, Parent: parent, Name: "op", Seg: seg,
			Start: start, End: end}
	}
	// Trace 1: overlapping children at mixed depths. Root [0,100); a
	// service child [10,60) with a wire grandchild [20,50) that itself
	// overlaps a retry child [40,80).
	// Trace 2: root only — pure queue.
	// Trace 3: child extends beyond the root; attribution clamps.
	spans := []Span{
		mk(1, 10, 0, SegQueue, 0, 100),
		mk(1, 11, 10, SegService, 10, 60),
		mk(1, 12, 11, SegWire, 20, 50),
		mk(1, 13, 10, SegRetry, 40, 80),
		mk(2, 20, 0, SegQueue, 200, 230),
		mk(3, 30, 0, SegQueue, 300, 340),
		mk(3, 31, 30, SegService, 320, 400),
	}
	cp := AnalyzeCritPath(spans)
	if len(cp.Ops) != 3 {
		t.Fatalf("decomposed %d ops, want 3", len(cp.Ops))
	}
	for _, op := range cp.Ops {
		var sum machine.Duration
		for _, d := range op.Seg {
			sum += d
		}
		if sum != op.Total || op.Total != machine.Duration(op.End-op.Start) {
			t.Fatalf("trace %d: segments sum %d != total %d (extent %d)",
				op.Trace, sum, op.Total, op.End-op.Start)
		}
	}

	// Trace 1 in detail. [0,10) root queue; [10,20) service; [20,50)
	// wire (deepest); [40,50) the retry overlaps the wire grandchild,
	// but the grandchild is deeper and keeps it; [50,60) service vs
	// retry at equal depth — SegRetry outranks SegService; [60,80)
	// retry alone; [80,100) root queue.
	op := cp.Ops[0]
	want := [NumSegs]machine.Duration{
		SegQueue:   10 + 20,
		SegService: 10,
		SegWire:    30,
		SegRetry:   10 + 20,
	}
	if op.Seg != want {
		t.Fatalf("trace 1 decomposition = %v, want %v", op.Seg, want)
	}

	// Trace 2: everything is root queue.
	if op := cp.Ops[1]; op.Seg[SegQueue] != 30 || op.Total != 30 {
		t.Fatalf("trace 2 decomposition = %v", op.Seg)
	}

	// Trace 3: the child's overhang past root.End is clamped away.
	if op := cp.Ops[2]; op.Seg[SegQueue] != 20 || op.Seg[SegService] != 20 {
		t.Fatalf("trace 3 decomposition = %v", op.Seg)
	}
}

// TestCritPathArbitration pins the tie-breaks: depth beats segment
// priority, and at equal depth the Seg order (election > retry > wire >
// service > queue) decides.
func TestCritPathArbitration(t *testing.T) {
	spans := []Span{
		{Trace: 5, ID: 1, Parent: 0, Seg: SegQueue, Start: 0, End: 40},
		// Equal-depth children covering the same interval: election wins.
		{Trace: 5, ID: 2, Parent: 1, Seg: SegWire, Start: 0, End: 40},
		{Trace: 5, ID: 3, Parent: 1, Seg: SegElection, Start: 0, End: 40},
		// A deeper service child under the wire span wins over both on
		// [10, 20) despite its lower segment priority.
		{Trace: 5, ID: 4, Parent: 2, Seg: SegService, Start: 10, End: 20},
	}
	cp := AnalyzeCritPath(spans)
	if len(cp.Ops) != 1 {
		t.Fatalf("decomposed %d ops, want 1", len(cp.Ops))
	}
	op := cp.Ops[0]
	if op.Seg[SegService] != 10 || op.Seg[SegElection] != 30 {
		t.Fatalf("arbitration = %v, want service 10, election 30", op.Seg)
	}
}

// TestCritPathOrphansAndRootless checks resilience: spans whose parent
// never got recorded hang off the root and still attribute; traces with
// no root at all (the frontend's recorder crashed) are skipped.
func TestCritPathOrphansAndRootless(t *testing.T) {
	spans := []Span{
		{Trace: 7, ID: 1, Parent: 0, Seg: SegQueue, Start: 0, End: 50},
		// Parent id 99 was never recorded.
		{Trace: 7, ID: 2, Parent: 99, Seg: SegWire, Start: 10, End: 30},
		// Rootless trace: every span has a parent pointer.
		{Trace: 8, ID: 3, Parent: 77, Seg: SegService, Start: 0, End: 10},
	}
	cp := AnalyzeCritPath(spans)
	if len(cp.Ops) != 1 {
		t.Fatalf("decomposed %d ops, want 1 (rootless trace must be skipped)", len(cp.Ops))
	}
	op := cp.Ops[0]
	if op.Seg[SegWire] != 20 || op.Seg[SegQueue] != 30 {
		t.Fatalf("orphan attribution = %v", op.Seg)
	}
}

// TestCritPathSlowest checks the worst-first listing and its bound.
func TestCritPathSlowest(t *testing.T) {
	var spans []Span
	for i := uint64(1); i <= 8; i++ {
		spans = append(spans, Span{Trace: i, ID: i * 100, Parent: 0,
			Seg: SegQueue, Start: 0, End: machine.Time(i * 10)})
	}
	cp := AnalyzeCritPath(spans)
	if len(cp.Slowest) != SlowestN {
		t.Fatalf("kept %d slowest, want %d", len(cp.Slowest), SlowestN)
	}
	for i := 1; i < len(cp.Slowest); i++ {
		if cp.Slowest[i].Total > cp.Slowest[i-1].Total {
			t.Fatal("slowest ops not sorted worst first")
		}
	}
	if cp.Slowest[0].Total != 80 {
		t.Fatalf("worst op total %d, want 80", cp.Slowest[0].Total)
	}
}

// TestWriteCritPath smoke-checks the renderer, including the empty case
// and the exact-nanosecond sum line.
func TestWriteCritPath(t *testing.T) {
	var b strings.Builder
	WriteCritPath(&b, AnalyzeCritPath(nil))
	if !strings.Contains(b.String(), "no sampled operations") {
		t.Fatalf("empty render = %q", b.String())
	}
	b.Reset()
	spans := []Span{
		{Trace: 3, ID: 1, Parent: 0, Name: "kv.op", Seg: SegQueue, Start: 0, End: 100},
		{Trace: 3, ID: 2, Parent: 1, Seg: SegWire, Start: 25, End: 75},
	}
	WriteCritPath(&b, AnalyzeCritPath(spans))
	out := b.String()
	for _, want := range []string{
		"critical-path attribution (1 sampled ops):",
		"segment", "queue", "wire", "slowest ops:",
		"total 100ns =", "queue 50ns", "wire 50ns",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// refAnalyzeCritPath is the analyzer as first written — a map of
// per-trace span copies, a per-trace id map and a recursive depth walk
// — kept as the reference AnalyzeCritPath must match exactly.
func refAnalyzeCritPath(spans []Span) *CritPath {
	cp := &CritPath{}
	for i := range cp.PerSeg {
		cp.PerSeg[i] = &Histogram{Name: Seg(i).String()}
	}
	byTrace := make(map[uint64][]Span)
	for _, sp := range spans {
		byTrace[sp.Trace] = append(byTrace[sp.Trace], sp)
	}
	traces := make([]uint64, 0, len(byTrace))
	for tr := range byTrace {
		traces = append(traces, tr)
	}
	sort.Slice(traces, func(i, j int) bool { return traces[i] < traces[j] })
	for _, tr := range traces {
		if op, ok := refDecompose(byTrace[tr]); ok {
			cp.Ops = append(cp.Ops, op)
		}
	}
	sort.Slice(cp.Ops, func(i, j int) bool {
		a, b := cp.Ops[i], cp.Ops[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Trace < b.Trace
	})
	for _, op := range cp.Ops {
		for s := range op.Seg {
			cp.PerSeg[s].Observe(uint64(op.Seg[s]))
		}
	}
	cp.Slowest = append([]OpPath(nil), cp.Ops...)
	sort.Slice(cp.Slowest, func(i, j int) bool {
		a, b := cp.Slowest[i], cp.Slowest[j]
		if a.Total != b.Total {
			return a.Total > b.Total
		}
		return a.Trace < b.Trace
	})
	if len(cp.Slowest) > SlowestN {
		cp.Slowest = cp.Slowest[:SlowestN]
	}
	return cp
}

// refDecompose is the reference deepest-cover sweep over one trace's
// spans, in input order.
func refDecompose(spans []Span) (OpPath, bool) {
	rootIdx := -1
	for i, sp := range spans {
		if sp.Parent != 0 {
			continue
		}
		if rootIdx < 0 || sp.Start < spans[rootIdx].Start ||
			(sp.Start == spans[rootIdx].Start && sp.ID < spans[rootIdx].ID) {
			rootIdx = i
		}
	}
	if rootIdx < 0 {
		return OpPath{}, false
	}
	root := spans[rootIdx]
	op := OpPath{
		Trace:  root.Trace,
		Name:   root.Name,
		Detail: root.Detail,
		Start:  root.Start,
		End:    root.End,
		Total:  root.Duration(),
		Spans:  len(spans),
	}
	if op.Total == 0 {
		return op, true
	}
	byID := make(map[uint64]int, len(spans))
	for i, sp := range spans {
		if _, dup := byID[sp.ID]; !dup {
			byID[sp.ID] = i
		}
	}
	depth := make([]int, len(spans))
	var depthOf func(i int, hops int) int
	depthOf = func(i, hops int) int {
		if depth[i] != 0 || i == rootIdx {
			return depth[i]
		}
		if hops > len(spans) { // parent cycle; treat as root child
			return 1
		}
		p, ok := byID[spans[i].Parent]
		if !ok || p == i {
			depth[i] = 1
		} else {
			depth[i] = depthOf(p, hops+1) + 1
		}
		return depth[i]
	}
	for i := range spans {
		depthOf(i, 0)
	}
	bounds := make([]machine.Time, 0, 2*len(spans))
	bounds = append(bounds, root.Start, root.End)
	for _, sp := range spans {
		if sp.Start > root.Start && sp.Start < root.End {
			bounds = append(bounds, sp.Start)
		}
		if sp.End > root.Start && sp.End < root.End {
			bounds = append(bounds, sp.End)
		}
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	for b := 0; b+1 < len(bounds); b++ {
		lo, hi := bounds[b], bounds[b+1]
		if hi <= lo {
			continue
		}
		best := rootIdx
		for i, sp := range spans {
			if i == rootIdx || sp.Start > lo || sp.End < hi {
				continue
			}
			if refBetter(spans, depth, i, best, rootIdx) {
				best = i
			}
		}
		op.Seg[spans[best].Seg] += machine.Duration(hi - lo)
	}
	return op, true
}

func refBetter(spans []Span, depth []int, i, best, rootIdx int) bool {
	if best == rootIdx {
		return true
	}
	a, b := spans[i], spans[best]
	if depth[i] != depth[best] {
		return depth[i] > depth[best]
	}
	if a.Seg != b.Seg {
		return a.Seg > b.Seg
	}
	if a.Start != b.Start {
		return a.Start > b.Start
	}
	return a.ID > b.ID
}

// randomSpanSet builds one span set for TestCritPathMatchesReference.
// Trace and span ids come from small pools, so sets often hold
// duplicate span ids, self-parents, parent cycles, missing parents,
// several or zero-length roots, and spans straddling the root's bounds;
// span id 0 occurs too, which a non-chosen root's parent id of 0 then
// resolves to.
func randomSpanSet(rng *rand.Rand) []Span {
	var spans []Span
	for range 1 + rng.Intn(6) {
		trace := uint64(1 + rng.Intn(8))
		for range 1 + rng.Intn(12) {
			sp := Span{
				Trace:  trace,
				ID:     uint64(rng.Intn(9)),
				Name:   []string{"kv.op", "kv.serve", "net.wire"}[rng.Intn(3)],
				Detail: []string{"", "get", "shed:deadline"}[rng.Intn(3)],
				Seg:    Seg(rng.Intn(int(NumSegs))),
				TID:    rng.Intn(4),
				Start:  machine.Time(rng.Intn(60)),
			}
			if rng.Intn(3) > 0 {
				sp.Parent = uint64(rng.Intn(10))
			}
			switch rng.Intn(6) {
			case 0:
				sp.End = sp.Start // zero length
			case 1:
				sp.End = sp.Start - machine.Time(rng.Intn(int(sp.Start)+1)) // reversed
			default:
				sp.End = sp.Start + machine.Time(1+rng.Intn(50))
			}
			spans = append(spans, sp)
		}
	}
	rng.Shuffle(len(spans), func(i, j int) { spans[i], spans[j] = spans[j], spans[i] })
	return spans
}

// cutSpans splits spans at random points into one to four consecutive
// sets, some of them possibly empty, whose concatenation is spans.
func cutSpans(rng *rand.Rand, spans []Span) [][]Span {
	cuts := []int{0, len(spans)}
	for range rng.Intn(4) {
		cuts = append(cuts, rng.Intn(len(spans)+1))
	}
	sort.Ints(cuts)
	sets := make([][]Span, 0, len(cuts)-1)
	for i := 0; i+1 < len(cuts); i++ {
		sets = append(sets, spans[cuts[i]:cuts[i+1]])
	}
	return sets
}

// TestCritPathMatchesReference holds AnalyzeCritPath to the reference
// analyzer on 1 000 seeded random span sets: the CritPath must be deep
// equal, op by op and histogram by histogram. The analyzer reads each
// set cut into one to four pieces, as it reads a report's machines, and
// the reference reads their concatenation. It also counts the sets that
// exercise each hard case, so a generator change cannot quietly stop
// covering one.
func TestCritPathMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	cut := rand.New(rand.NewSource(23))
	var dupIDs, selfParents, cycles, multiRoots, zeroRoots, straddles, pieces, empties int
	for set := range 1000 {
		spans := randomSpanSet(rng)
		sets := cutSpans(cut, spans)
		got, want := AnalyzeCritPath(sets...), refAnalyzeCritPath(spans)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("set %d: analyzer diverges from the reference\nsets: %+v\ngot:  %+v\nwant: %+v",
				set, sets, got.Ops, want.Ops)
		}
		if len(sets) > 1 {
			pieces++
		}
		for _, s := range sets {
			if len(s) == 0 {
				empties++
				break
			}
		}
		byTrace := map[uint64][]Span{}
		for _, sp := range spans {
			byTrace[sp.Trace] = append(byTrace[sp.Trace], sp)
		}
		var dup, self, cyc, multi, zero, strad bool
		for _, tr := range byTrace {
			first := map[uint64]Span{}
			roots := 0
			for _, sp := range tr {
				if _, ok := first[sp.ID]; ok {
					dup = true
				} else {
					first[sp.ID] = sp
				}
				if sp.Parent == 0 {
					roots++
					zero = zero || sp.End == sp.Start
				} else if sp.Parent == sp.ID {
					self = true
				}
			}
			multi = multi || roots > 1
			for _, sp := range tr {
				// A two-span cycle: sp's parent names a span whose parent
				// names sp.
				if p, ok := first[sp.Parent]; ok && sp.Parent != 0 && p.ID != sp.ID && p.Parent == sp.ID {
					cyc = true
				}
			}
		}
		for _, op := range want.Ops {
			for _, sp := range byTrace[op.Trace] {
				if (sp.Start < op.Start && sp.End > op.Start) || (sp.Start < op.End && sp.End > op.End) {
					strad = true
				}
			}
		}
		for _, c := range []struct {
			hit bool
			n   *int
		}{{dup, &dupIDs}, {self, &selfParents}, {cyc, &cycles}, {multi, &multiRoots}, {zero, &zeroRoots}, {strad, &straddles}} {
			if c.hit {
				*c.n++
			}
		}
	}
	t.Logf("sets with duplicate ids %d, self-parents %d, cycles %d, several roots %d, zero-length roots %d, straddling spans %d; cut in pieces %d, with an empty piece %d",
		dupIDs, selfParents, cycles, multiRoots, zeroRoots, straddles, pieces, empties)
	for name, n := range map[string]int{"duplicate ids": dupIDs, "self-parents": selfParents, "cycles": cycles,
		"several roots": multiRoots, "zero-length roots": zeroRoots, "straddling spans": straddles,
		"several pieces": pieces, "an empty piece": empties} {
		if n < 50 {
			t.Errorf("only %d of 1000 sets have %s", n, name)
		}
	}
}
