package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

func loadResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// spreadOf is a summary's quartile distance as a share of its median.
func spreadOf(s summary) float64 { return ratio(s.Q3-s.Q1, s.Median) }

// verdict judges b against a for an end-to-end metric with a bound:
// unresolved when either side's quartile spread exceeds the bound, worse
// when b's median is worse by more than the bound, better when it is
// better by more than the wider spread, else unchanged.
func verdict(a, b summary, better string, bound float64) string {
	spread := max(spreadOf(a), spreadOf(b))
	worse := ratio(b.Median-a.Median, a.Median)
	if better == "higher" {
		worse = -worse
	}
	switch {
	case spread > bound:
		return "unresolved"
	case worse > bound:
		return "worse"
	case -worse > spread:
		return "better"
	default:
		return "unchanged"
	}
}

// compareMain prints, for each (workload, metric) in both files, both
// medians and quartiles and a verdict: against the BENCHMARK.json bound
// for end-to-end metrics, identical/changed for simulated results and
// exact counts, none for the other per-layer metrics. It also says
// whether each workload's report digests are equal. It fails when a
// metric is worse, an exact value changed or a digest differs.
func compareMain(w io.Writer, pathA, pathB string) error {
	a, err := loadResults(pathA)
	if err != nil {
		return err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return err
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		return err
	}
	bounds := map[string]boundedMetric{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m
	}
	fmt.Fprintf(w, "a: %s (%s, %d CPUs, seed %d)\nb: %s (%s, %d CPUs, seed %d)\n",
		pathA, a.GoVersion, a.NProc, a.Seed, pathB, b.GoVersion, b.NProc, b.Seed)
	bad := 0
	row := func(wl, name string, sa, sb summary) {
		v := "-"
		switch bd, ok := bounds[name]; {
		case isExact(name):
			v = "identical"
			if sa.Median != sb.Median || sa.Q1 != sb.Q1 || sa.Q3 != sb.Q3 {
				v = "changed"
				bad++
			}
		case ok:
			v = verdict(sa, sb, bd.Better, bd.Bound)
			if v == "worse" {
				bad++
			}
		}
		fmt.Fprintf(w, "%-13s %-31s a %12.6g [%.6g, %.6g]  b %12.6g [%.6g, %.6g]  %s\n",
			wl, name, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3, v)
	}
	for _, ra := range a.Workloads {
		var rb *workloadReport
		for _, r := range b.Workloads {
			if r.Name == ra.Name {
				rb = r
			}
		}
		if rb == nil {
			fmt.Fprintf(w, "%-13s only in a\n", ra.Name)
			continue
		}
		same := ra.Digest == rb.Digest && ra.Seed == rb.Seed
		if !same {
			bad++
		}
		fmt.Fprintf(w, "%-13s report digests equal: %v\n", ra.Name, same)
		for _, m := range endToEnd {
			row(ra.Name, m.name, ra.Untraced[m.name], rb.Untraced[m.name])
		}
		if ra.Traced == nil || rb.Traced == nil {
			continue
		}
		for _, m := range perLayer() {
			row(ra.Name, m.name, ra.Traced[m.name], rb.Traced[m.name])
		}
	}
	if bad > 0 {
		return errors.New("comparison found worse metrics, changed exact values or differing digests")
	}
	return nil
}
