package main

import (
	"os"
	"strings"
	"testing"
	"time"
)

// TestParseTracesAttribution parses a checked-in `go tool pprof -traces`
// fixture and checks where each sample is charged: the innermost listed
// simulator layer (a stats helper frame goes to its ipc caller), GC for
// mark workers and assists even under a layer's frames, and
// runtime.other for scheduler and benchmark-only stacks.
func TestParseTracesAttribution(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	ms := int64(time.Millisecond)
	want := map[string]int64{
		"core":     1200 * ms,
		"ipc":      500 * ms,
		gcLayer:    700 * ms,
		"kern":     250 * ms,
		otherLayer: 300 * ms,
		"svc":      50 * ms,
	}
	for layer, ns := range want {
		if a.ns[layer] != ns {
			t.Errorf("%s: %d ns, want %d", layer, a.ns[layer], ns)
		}
	}
	for layer, ns := range a.ns {
		if _, ok := want[layer]; !ok && ns != 0 {
			t.Errorf("unexpected layer %s: %d ns", layer, ns)
		}
	}
	if a.total != 3000*ms {
		t.Errorf("total %d ns, want %d", a.total, 3000*ms)
	}
	if c := a.coverage(); c < 0.8999 || c > 0.9001 {
		t.Errorf("coverage %.4f, want 0.9", c)
	}
}

func TestParseTracesRejectsMalformed(t *testing.T) {
	for name, in := range map[string]string{
		"bad value":   "-----------+----\n  tenms   repro/internal/core.f\n",
		"no function": "-----------+----\n  10ms\n",
	} {
		if _, err := parseTraces(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
	// A run too short for a single sample (the quick sizes) is empty,
	// not malformed.
	a, err := parseTraces(strings.NewReader("File: bench\nType: cpu\n"))
	if err != nil || a.total != 0 || a.coverage() != 0 {
		t.Errorf("empty profile: total %d coverage %v err %v", a.total, a.coverage(), err)
	}
}

// TestFailedCheckFailsWholeRun: every op of a run whose check fails
// counts as failed, and the next run starts clean.
func TestFailedCheckFailsWholeRun(t *testing.T) {
	r := newRep()
	r.finishRun(100, 98, 2, 1000)
	r.problem("history: NOT linearizable")
	r.finishRun(240, 240, 0, 5000)
	r.finishRun(10, 10, 0, 50)
	res := r.result()
	if res.Attempted != 350 || res.Failed != 2+240 || res.Ops != 348 || res.Runs != 3 {
		t.Fatalf("attempted %d failed %d ops %d runs %d, want 350/242/348/3",
			res.Attempted, res.Failed, res.Ops, res.Runs)
	}
	if got := endToEndValue(res, "failed_frac"); got != 242.0/350 {
		t.Fatalf("failed_frac %v, want %v", got, 242.0/350)
	}
	if len(res.Problems) != 1 {
		t.Fatalf("problems %v", res.Problems)
	}
}

// TestQuartilesMatchPython pins median and quartiles to Python's
// statistics.median and statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v           []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 3, 1.5, 4.5},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 5.5, 2.75, 8.25},
		{[]float64{4, 1}, 2.5, 0.25, 4.75},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q3 := quartiles(c.v)
		if m := median(c.v); m != c.med || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("%v: median %v q1 %v q3 %v, want %v %v %v", c.v, m, q1, q3, c.med, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	s := func(med, q1, q3 float64) summary { return summary{Median: med, Q1: q1, Q3: q3} }
	for _, c := range []struct {
		a, b   summary
		better string
		want   string
	}{
		{s(100, 99, 101), s(101, 100, 102), "lower", "unchanged"},
		{s(100, 99, 101), s(120, 119, 121), "lower", "worse"},
		{s(100, 99, 101), s(80, 79, 81), "lower", "better"},
		{s(100, 99, 101), s(80, 79, 81), "higher", "worse"},
		{s(100, 80, 120), s(100, 99, 101), "lower", "unresolved"},
	} {
		if got := verdict(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%v -> %v (%s): %s, want %s", c.a, c.b, c.better, got, c.want)
		}
	}
}

// TestQuickSmoke runs every workload at toy size twice in this process:
// the reports must match byte for byte, every check must pass, and every
// end-to-end metric BENCHMARK.json lists must be positive.
func TestQuickSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, err := runRep(w, 0, true, "")
		if err != nil {
			t.Fatal(err)
		}
		b, err := runRep(w, 0, true, "")
		if err != nil {
			t.Fatal(err)
		}
		if a.Digest != b.Digest {
			t.Errorf("%s: digests differ between repetitions", w.name)
		}
		if len(a.Problems) > 0 || a.Failed > 0 {
			t.Errorf("%s: failed checks %v, %d failed ops", w.name, a.Problems, a.Failed)
		}
		a.SetupS = timeSetup(w, true)
		for _, m := range []string{"sim_ops_per_host_s", "host_ns_per_step", "setup_s", "sim_p50_ms", "sim_p99_ms"} {
			if v := endToEndValue(a, m); !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.name, m, v)
			}
		}
	}
}
