package main

import (
	"reflect"
	"testing"
)

// TestAllocViolations pins the allocation gates: -zero-allocs is a
// budget of 0 and -max-allocs one of N, both by name prefix, and a gate
// fails on a benchmark over budget, on one run without -benchmem, and
// when nothing matches it.
func TestAllocViolations(t *testing.T) {
	results := []benchResult{
		{Name: "BenchmarkClusterCrossRPC-2", Metrics: map[string]float64{"allocs/op": 2}},
		{Name: "BenchmarkDispatchSteadyState-2", Metrics: map[string]float64{"allocs/op": 0}},
		{Name: "BenchmarkNoMem-2", Metrics: map[string]float64{"ns/op": 10}},
	}
	allocs := func(prefix string, max float64) metricGate {
		return metricGate{prefix: prefix, unit: allocsUnit, max: max}
	}
	for _, tc := range []struct {
		gates []metricGate
		want  []string
	}{
		{[]metricGate{allocs("BenchmarkClusterCrossRPC", 2), allocs("BenchmarkDispatchSteadyState", 0)}, nil},
		{[]metricGate{allocs("BenchmarkClusterCrossRPC", 1)},
			[]string{"BenchmarkClusterCrossRPC-2 allocates: 2 allocs/op (budget 1)"}},
		{[]metricGate{allocs("BenchmarkClusterCrossRPC", 0)},
			[]string{"BenchmarkClusterCrossRPC-2 allocates: 2 allocs/op (budget 0)"}},
		{[]metricGate{allocs("BenchmarkNoMem", 5)},
			[]string{"BenchmarkNoMem-2 has no allocs/op metric (missing -benchmem?)"}},
		{[]metricGate{allocs("BenchmarkMissing", 2)},
			[]string{`no benchmark matches "BenchmarkMissing"`}},
	} {
		if got := metricViolations(results, tc.gates); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("gates %v: got %q, want %q", tc.gates, got, tc.want)
		}
	}
}

// TestMetricViolations pins -max-metric: a custom b.ReportMetric unit is
// gated like allocs/op, and a benchmark that does not report it fails.
func TestMetricViolations(t *testing.T) {
	results := []benchResult{
		{Name: "BenchmarkBlockedSessionBytes-2", Metrics: map[string]float64{
			"host-B/session": 930, "host-B/thread": 623}},
		{Name: "BenchmarkOther-2", Metrics: map[string]float64{"ns/op": 10}},
	}
	for _, tc := range []struct {
		gate metricGate
		want []string
	}{
		{metricGate{"BenchmarkBlockedSessionBytes", "host-B/session", 1024}, nil},
		{metricGate{"BenchmarkBlockedSessionBytes", "host-B/session", 900},
			[]string{"BenchmarkBlockedSessionBytes-2 reports 930 host-B/session (budget 900)"}},
		{metricGate{"BenchmarkOther", "host-B/session", 1024},
			[]string{"BenchmarkOther-2 has no host-B/session metric"}},
	} {
		if got := metricViolations(results, []metricGate{tc.gate}); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("gate %v: got %q, want %q", tc.gate, got, tc.want)
		}
	}
}

// TestRatioMedian pins the ratio gate on repeated lines: each side is
// the median of its benchmark's lines, so one noisy first sample (1.47x)
// does not fail a pair whose median is 1.04x, a real slowdown still
// does, and a prefix (p100) reads only its own benchmark's lines, not a
// longer name it also prefixes (p10000).
func TestRatioMedian(t *testing.T) {
	line := func(name string, ns float64) benchResult {
		return benchResult{Name: name, Metrics: map[string]float64{"ns/op": ns}}
	}
	var noisy, slow []benchResult
	for i, ns := range []float64{147, 96, 104, 110, 100} {
		noisy = append(noisy, line("BenchmarkKVOverloadOverhead/on-2", ns))
		slow = append(slow, line("BenchmarkKVOverloadOverhead/on-2", 2*ns))
		off := line("BenchmarkKVOverloadOverhead/off-2", 100+float64(i))
		noisy = append(noisy, off)
		slow = append(slow, off)
	}
	gate := []ratioGate{{"BenchmarkKVOverloadOverhead/on", "BenchmarkKVOverloadOverhead/off", 1.2}}
	if got := ratioViolations(noisy[:2], gate); len(got) != 1 {
		t.Errorf("first samples alone (1.47x): got %q, want one violation", got)
	}
	if got := ratioViolations(noisy, gate); got != nil {
		t.Errorf("median of five: got %q, want none", got)
	}
	want := []string{"BenchmarkKVOverloadOverhead/on is 2.04x BenchmarkKVOverloadOverhead/off (budget 1.20x)"}
	if got := ratioViolations(slow, gate); !reflect.DeepEqual(got, want) {
		t.Errorf("doubled: got %q, want %q", got, want)
	}

	pop := []benchResult{
		line("BenchmarkBlockedPopulation/p100-2", 100),
		line("BenchmarkBlockedPopulation/p10000-2", 120),
		line("BenchmarkBlockedPopulation/p100-2", 102),
		line("BenchmarkBlockedPopulation/p10000-2", 124),
	}
	if ns, ok := medianNsOp(pop, "BenchmarkBlockedPopulation/p100"); !ok || ns != 101 {
		t.Errorf("p100 median = %v, %v; want 101", ns, ok)
	}
	want = []string{"max-ratio BenchmarkMissing,BenchmarkBlockedPopulation/p100: benchmark missing"}
	if got := ratioViolations(pop, []ratioGate{{"BenchmarkMissing", "BenchmarkBlockedPopulation/p100", 1}}); !reflect.DeepEqual(got, want) {
		t.Errorf("missing side: got %q, want %q", got, want)
	}
}
