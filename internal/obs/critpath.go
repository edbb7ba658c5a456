// Critical-path analysis over recorded spans: decompose each traced
// operation's end-to-end latency into disjoint segments whose sum is
// exactly the operation's measured round trip.
//
// The decomposition is a deepest-cover sweep over the root span's
// interval. At every instant the instant is attributed to exactly one
// covering span: the deepest one in the causal tree (a child explains
// time better than its parent), ties broken by segment priority (an
// election stall beats the retransmit it caused beats the wire flight
// underneath), then by later start, then by larger span id — all
// deterministic. Instants no child covers fall to the root's own
// segment (queueing at the originating tier). Because the sweep
// partitions [root.Start, root.End) exactly, per-segment sums equal the
// measured round trip by construction — the property the report's
// attribution table is trusted for.
package obs

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"repro/internal/machine"
)

// OpPath is one traced operation's latency decomposition.
type OpPath struct {
	Trace  uint64
	Name   string
	Detail string
	Start  machine.Time
	End    machine.Time
	// Total is End - Start; Seg sums to Total exactly.
	Total machine.Duration
	Seg   [NumSegs]machine.Duration
	// Spans counts the spans that contributed to this operation.
	Spans int
}

// CritPath aggregates the decomposition across all traced operations.
type CritPath struct {
	Ops []OpPath
	// PerSeg holds one histogram per segment, observing that segment's
	// share of every operation (zeros included, so quantiles are over
	// the full op population).
	PerSeg [NumSegs]*Histogram
	// Slowest lists the slowest operations, worst first.
	Slowest []OpPath
}

// SlowestN is how many worst-case operations the analyzer retains for
// the report's slowest-ops listing.
const SlowestN = 5

// AnalyzeCritPath groups spans by trace, decomposes every trace that has
// a root span (Parent 0), and aggregates. The spans are read in place
// from sets, in the order of their concatenation, which is the input
// order: it decides between duplicate span ids and between otherwise
// tied roots, and nothing else. Output order is deterministic (ops
// sorted by start time, then trace id).
func AnalyzeCritPath(sets ...[]Span) *CritPath {
	cp := &CritPath{}
	for i := range cp.PerSeg {
		cp.PerSeg[i] = &Histogram{Name: Seg(i).String()}
	}
	// Group by trace in one pass over an open-addressing table, chaining
	// each trace's spans in input order through next, which is indexed
	// by a span's input position (starts[s] is set s's first). Trace ids
	// are SplitMix-mixed, so their low bits index the table well. The
	// table grows at half load, so it is sized by the trace count (a
	// trace holds about ten spans), and a probe always ends.
	starts := make([]int32, len(sets))
	n := 0
	for s, set := range sets {
		starts[s] = int32(n)
		n += len(set)
	}
	next := make([]int32, n)
	var tab traceTable
	k := int32(0)
	for _, set := range sets {
		for i := range set {
			next[k] = -1
			if c := tab.chain(set[i].Trace); c.head == 0 {
				c.head, c.tail = k+1, k
			} else {
				next[c.tail] = k
				c.tail = k
			}
			k++
		}
	}
	// Decompose each trace, then order the ops by sorting small keys.
	var sc critScratch
	ops := make([]OpPath, 0, tab.used)
	keys := make([]opKey, 0, tab.used)
	for _, c := range tab.slots {
		if c.head == 0 {
			continue
		}
		// The chain runs in input order, so its sets only move forward.
		sc.tr = sc.tr[:0]
		s := 0
		for k := c.head - 1; k >= 0; k = next[k] {
			for s+1 < len(starts) && starts[s+1] <= k {
				s++
			}
			sc.tr = append(sc.tr, &sets[s][k-starts[s]])
		}
		if op, ok := sc.decompose(); ok {
			keys = append(keys, opKey{op.Start, op.Trace, int32(len(ops))})
			ops = append(ops, op)
		}
	}
	slices.SortFunc(keys, func(a, b opKey) int {
		if c := cmp.Compare(a.start, b.start); c != 0 {
			return c
		}
		return cmp.Compare(a.trace, b.trace)
	})
	if len(keys) > 0 {
		cp.Ops = make([]OpPath, len(keys))
		for i, k := range keys {
			cp.Ops[i] = ops[k.i]
		}
	}
	for i := range cp.Ops {
		op := &cp.Ops[i]
		for s, d := range op.Seg {
			cp.PerSeg[s].Observe(uint64(d))
		}
		// Keep the SlowestN slowest, worst first: insert op in place.
		w := len(cp.Slowest)
		for w > 0 && slower(op, &cp.Slowest[w-1]) {
			w--
		}
		if w < SlowestN {
			if len(cp.Slowest) < SlowestN {
				cp.Slowest = append(cp.Slowest, OpPath{})
			}
			copy(cp.Slowest[w+1:], cp.Slowest[w:])
			cp.Slowest[w] = *op
		}
	}
	return cp
}

// traceChain is one trace's entry in AnalyzeCritPath's table: its id and
// the input positions of its first (head-1; 0 marks a free entry) and
// last spans.
type traceChain struct {
	trace      uint64
	head, tail int32
}

// traceTable is AnalyzeCritPath's open-addressing table of traces. It
// starts at minTraceTable entries and doubles whenever an insert would
// fill more than half of it.
type traceTable struct {
	slots []traceChain
	used  int
}

const minTraceTable = 64

// chain returns trace's entry, claiming a free one (head 0) for a trace
// not seen before.
func (t *traceTable) chain(trace uint64) *traceChain {
	if 2*(t.used+1) > len(t.slots) {
		t.grow()
	}
	c := t.probe(trace)
	if c.head == 0 {
		c.trace = trace
		t.used++
	}
	return c
}

// probe returns trace's entry, or the free entry where it belongs.
func (t *traceTable) probe(trace uint64) *traceChain {
	mask := uint64(len(t.slots) - 1)
	h := trace & mask
	for t.slots[h].head != 0 && t.slots[h].trace != trace {
		h = (h + 1) & mask
	}
	return &t.slots[h]
}

// grow doubles the table and reinserts its traces.
func (t *traceTable) grow() {
	old := t.slots
	t.slots = make([]traceChain, max(2*len(old), minTraceTable))
	for _, c := range old {
		if c.head != 0 {
			*t.probe(c.trace) = c
		}
	}
}

// opKey places decomposed op i in the output order.
type opKey struct {
	start machine.Time
	trace uint64
	i     int32
}

// slower orders the slowest-ops listing: larger total first, then
// smaller trace id.
func slower(a, b *OpPath) bool {
	if a.Total != b.Total {
		return a.Total > b.Total
	}
	return a.Trace < b.Trace
}

// critScratch holds decompose's per-trace buffers, reused across the
// traces of one AnalyzeCritPath call. A span is addressed by its
// position in tr, the trace's spans in input order.
type critScratch struct {
	tr     []*Span
	parent []int // position of each span's parent, -1 if not recorded
	depth  []int // depth in the causal tree; 0 until computed
	bounds []machine.Time
}

// decompose runs the deepest-cover sweep over the trace in sc.tr.
func (sc *critScratch) decompose() (OpPath, bool) {
	tr := sc.tr
	// Root: the span with no parent; if a trace somehow has several
	// (it should not), the earliest-starting smallest-id one wins.
	root := -1
	for k, sp := range tr {
		if sp.Parent != 0 {
			continue
		}
		if root < 0 || sp.Start < tr[root].Start ||
			(sp.Start == tr[root].Start && sp.ID < tr[root].ID) {
			root = k
		}
	}
	if root < 0 {
		return OpPath{}, false
	}
	rs := tr[root]
	op := OpPath{
		Trace:  rs.Trace,
		Name:   rs.Name,
		Detail: rs.Detail,
		Start:  rs.Start,
		End:    rs.End,
		Total:  rs.Duration(),
		Spans:  len(tr),
	}
	if op.Total == 0 {
		return op, true
	}

	// Parent links: the first span in input order carrying the parent
	// id. A trace holds a handful of spans, and the sweep below is
	// quadratic in them anyway.
	n := len(tr)
	parent := sc.parent[:0]
	for _, sp := range tr {
		p := -1
		for j, o := range tr {
			if o.ID == sp.Parent {
				p = j
				break
			}
		}
		parent = append(parent, p)
	}
	sc.parent = parent

	// Depth of each span in the causal tree. Spans whose parent was not
	// recorded (sampling or a crashed recorder) hang off the root.
	sc.depth = append(sc.depth[:0], make([]int, n)...)
	for k := range n {
		sc.depthOf(k, 0, root)
	}
	depth := sc.depth

	// Elementary intervals: every clamped span boundary inside the root.
	bounds := append(sc.bounds[:0], rs.Start, rs.End)
	for _, sp := range tr {
		if sp.Start > rs.Start && sp.Start < rs.End {
			bounds = append(bounds, sp.Start)
		}
		if sp.End > rs.Start && sp.End < rs.End {
			bounds = append(bounds, sp.End)
		}
	}
	slices.Sort(bounds)
	sc.bounds = bounds

	for b := 0; b+1 < len(bounds); b++ {
		lo, hi := bounds[b], bounds[b+1]
		if hi <= lo {
			continue
		}
		best := root
		for k, sp := range tr {
			if k == root || sp.Start > lo || sp.End < hi {
				continue
			}
			if best == root || better(sp, tr[best], depth[k], depth[best]) {
				best = k
			}
		}
		op.Seg[tr[best].Seg] += machine.Duration(hi - lo)
	}
	return op, true
}

// depthOf returns span k's depth in the causal tree, memoized in
// sc.depth; the root's is 0.
func (sc *critScratch) depthOf(k, hops, root int) int {
	if sc.depth[k] != 0 || k == root {
		return sc.depth[k]
	}
	if hops > len(sc.depth) { // parent cycle; treat as root child
		return 1
	}
	if p := sc.parent[k]; p < 0 || p == k {
		sc.depth[k] = 1
	} else {
		sc.depth[k] = sc.depthOf(p, hops+1, root) + 1
	}
	return sc.depth[k]
}

// better reports whether covering span a, at depth da, beats the
// incumbent b, at depth db: deeper wins, then higher segment priority,
// then later start, then larger id.
func better(a, b *Span, da, db int) bool {
	if da != db {
		return da > db
	}
	if a.Seg != b.Seg {
		return a.Seg > b.Seg
	}
	if a.Start != b.Start {
		return a.Start > b.Start
	}
	return a.ID > b.ID
}

// WriteCritPath renders the attribution table and the slowest-ops
// listing. The slowest-ops lines print exact nanosecond integers so the
// per-op "segments sum to the round trip" property is checkable from the
// text itself.
func WriteCritPath(w io.Writer, cp *CritPath) {
	if cp == nil || len(cp.Ops) == 0 {
		fmt.Fprintf(w, "critical-path attribution: no sampled operations\n")
		return
	}
	var grand machine.Duration
	var perSeg [NumSegs]machine.Duration
	for _, op := range cp.Ops {
		grand += op.Total
		for s, d := range op.Seg {
			perSeg[s] += d
		}
	}
	fmt.Fprintf(w, "critical-path attribution (%d sampled ops):\n", len(cp.Ops))
	fmt.Fprintf(w, "  %-10s %7s %12s %12s %12s\n", "segment", "share", "p50", "p99", "max")
	for s := Seg(0); s < NumSegs; s++ {
		h := cp.PerSeg[s]
		share := 0.0
		if grand > 0 {
			share = 100 * float64(perSeg[s]) / float64(grand)
		}
		fmt.Fprintf(w, "  %-10s %6.1f%% %12s %12s %12s\n", s.String(), share,
			FmtNS(h.Quantile(0.50)), FmtNS(h.Quantile(0.99)), FmtNS(h.Max))
	}
	fmt.Fprintf(w, "  slowest ops:\n")
	for _, op := range cp.Slowest {
		fmt.Fprintf(w, "    %-12s trace %016x  total %dns =", op.Name, op.Trace, op.Total)
		for s := Seg(0); s < NumSegs; s++ {
			if s > 0 {
				fmt.Fprintf(w, " +")
			}
			fmt.Fprintf(w, " %s %dns", s.String(), op.Seg[s])
		}
		fmt.Fprintf(w, "  (%d spans)\n", op.Spans)
	}
}
