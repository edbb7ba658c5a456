package workload

import (
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/obs"
)

// spanSets gathers every machine's span chunks in machine order, as the
// reports pass them to the analyzer.
func spanSets(machines []*kern.System) [][]obs.Span {
	var sets [][]obs.Span
	for _, sys := range machines {
		sets = append(sets, sys.K.Obs.SpanChunks()...)
	}
	return sets
}

// TestKVSpanAttributionSums is the tracing acceptance property: under
// the crash schedule, every sampled operation decomposes into segments
// that sum exactly to its measured round trip, every completed client
// op is represented, and the analyzer's worst op matches the kv.op
// histogram's max — the same [start, end) pair observed twice.
func TestKVSpanAttributionSums(t *testing.T) {
	spec := DefaultKV()
	spec.FaultSpec.Crashes = []fault.Crash{{
		Machine:     1,
		At:          machine.Duration(40 * 1e6),
		RebootAfter: machine.Duration(160 * 1e6),
	}}
	res := RunKV(kern.MK40, machine.ArchDS3100, spec)
	if res.Failed != 0 {
		t.Fatalf("failed ops: %d", res.Failed)
	}
	cp := obs.AnalyzeCritPath(spanSets(res.Machines)...)
	if len(cp.Ops) != res.Completed {
		t.Fatalf("decomposed %d ops, want every completed op (%d)", len(cp.Ops), res.Completed)
	}
	for _, op := range cp.Ops {
		var sum machine.Duration
		for _, d := range op.Seg {
			sum += d
		}
		if sum != op.Total {
			t.Fatalf("trace %016x: segment sum %d != total %d", op.Trace, sum, op.Total)
		}
		if op.Total != machine.Duration(op.End-op.Start) {
			t.Fatalf("trace %016x: total %d != extent %d", op.Trace, op.Total, op.End-op.Start)
		}
	}
	// The crash must actually show up in the attribution: some op spent
	// time in retry or election.
	var recovery machine.Duration
	for _, op := range cp.Ops {
		recovery += op.Seg[obs.SegRetry] + op.Seg[obs.SegElection]
	}
	if recovery == 0 {
		t.Fatal("no retry/election attribution despite the primary crash")
	}
	// Cross-check against the service histogram: the worst decomposed op
	// is the same interval the kv.op histogram saw as its max.
	m := &obs.Histogram{Name: "kv.op"}
	for _, sys := range res.Machines {
		for _, h := range sys.K.Obs.ServiceHistograms() {
			if h.Name == "kv.op" {
				m.Merge(h)
			}
		}
	}
	if uint64(cp.Slowest[0].Total) != m.Max {
		t.Fatalf("slowest op %dns != kv.op max %dns", cp.Slowest[0].Total, m.Max)
	}
}

// TestKVSampling checks head sampling end to end: a 1-in-N rate keeps a
// strict, deterministic subset of the operations, and no span from an
// unsampled trace leaks into any machine's store.
func TestKVSampling(t *testing.T) {
	spec := DefaultKV()
	spec.SampleEvery = 4
	res := RunKV(kern.MK40, machine.ArchDS3100, spec)
	sets := spanSets(res.Machines)
	cp := obs.AnalyzeCritPath(sets...)
	spans := slices.Concat(sets...)
	if len(cp.Ops) == 0 || len(cp.Ops) >= res.Completed {
		t.Fatalf("1/4 sampling decomposed %d of %d ops", len(cp.Ops), res.Completed)
	}
	// Every span belongs to a trace that produced a root — sampling is
	// decided at mint, so no tier records orphan work for dropped traces.
	roots := make(map[uint64]bool)
	for _, sp := range spans {
		if sp.Parent == 0 {
			roots[sp.Trace] = true
		}
	}
	for _, sp := range spans {
		if !roots[sp.Trace] {
			t.Fatalf("span %q of trace %016x has no root: unsampled leak", sp.Name, sp.Trace)
		}
	}
	// Rerun: the sampled subset is the same.
	res2 := RunKV(kern.MK40, machine.ArchDS3100, spec)
	cp2 := obs.AnalyzeCritPath(spanSets(res2.Machines)...)
	if len(cp2.Ops) != len(cp.Ops) {
		t.Fatalf("sampled %d ops then %d: head sampling not deterministic", len(cp.Ops), len(cp2.Ops))
	}
}

// TestSvcGraphSpanChain checks cross-tier continuation: a frontend op
// that misses the cache must carry its trace through the cache worker
// into the KV backend — one causal tree spanning three machines, whose
// cache.fetch span is a child, not a fresh root.
func TestSvcGraphSpanChain(t *testing.T) {
	res := RunSvcGraph(kern.MK40, machine.ArchDS3100, DefaultSvcGraph())
	sets := spanSets(res.Machines)
	cp := obs.AnalyzeCritPath(sets...)
	spans := slices.Concat(sets...)
	if len(cp.Ops) != res.Completed {
		t.Fatalf("decomposed %d ops, want %d", len(cp.Ops), res.Completed)
	}
	// Roots are frontend ops only; cache.fetch and kv.serve spans hang
	// inside some frontend trace.
	names := map[string]int{}
	rootByTrace := map[uint64]bool{}
	for _, sp := range spans {
		if sp.Parent == 0 {
			if sp.Name != "frontend" {
				t.Fatalf("unexpected root span %q — only frontends mint traces here", sp.Name)
			}
			rootByTrace[sp.Trace] = true
		}
		names[sp.Name]++
	}
	for _, want := range []string{"frontend", "cache.serve", "cache.fetch", "kv.serve", "net.wire"} {
		if names[want] == 0 {
			t.Fatalf("no %q spans recorded (got %v)", want, names)
		}
	}
	for _, sp := range spans {
		if !rootByTrace[sp.Trace] {
			t.Fatalf("span %q of trace %016x not part of any frontend op", sp.Name, sp.Trace)
		}
	}
}
