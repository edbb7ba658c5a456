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
	for _, tc := range []struct {
		gates []allocGate
		want  []string
	}{
		{[]allocGate{{"BenchmarkClusterCrossRPC", 2}, {"BenchmarkDispatchSteadyState", 0}}, nil},
		{[]allocGate{{"BenchmarkClusterCrossRPC", 1}},
			[]string{"BenchmarkClusterCrossRPC-2 allocates: 2 allocs/op (budget 1)"}},
		{[]allocGate{{"BenchmarkClusterCrossRPC", 0}},
			[]string{"BenchmarkClusterCrossRPC-2 allocates: 2 allocs/op (budget 0)"}},
		{[]allocGate{{"BenchmarkNoMem", 5}},
			[]string{"BenchmarkNoMem-2 has no allocs/op metric (missing -benchmem?)"}},
		{[]allocGate{{"BenchmarkMissing", 2}},
			[]string{`no benchmark matches "BenchmarkMissing"`}},
	} {
		if got := allocViolations(results, tc.gates); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("gates %v: got %q, want %q", tc.gates, got, tc.want)
		}
	}
}
