// benchjson converts `go test -bench` output into a JSON report and
// enforces allocation, metric and ratio budgets, for the CI benchmark
// smoke.
//
// Usage:
//
//	go test -bench ... -benchmem | benchjson [-o out.json] [-zero-allocs name,name]
//	        [-max-allocs name,N] [-max-metric name,unit,N] [-max-ratio slow,fast,limit]
//
// Each benchmark line becomes an object with its name, iteration count
// and every reported metric (ns/op, B/op, allocs/op, and any custom
// b.ReportMetric units). -zero-allocs names benchmarks (prefix match, so
// sub-benchmarks count) that must report 0 allocs/op, and -max-allocs
// (repeatable) one benchmark prefix and the most allocs/op it may
// report. -max-metric (repeatable) does the same for any unit, such as
// a b.ReportMetric one. A violation fails the run after the JSON is
// written. -max-ratio (repeatable) names two benchmarks (prefix match)
// and a limit: the first's ns/op must stay within limit times the
// second's — the relative-overhead gate for feature-on vs feature-off
// benchmark pairs. Each side reads the median ns/op over every line of
// the first benchmark its prefix matches, so a pair run with -count N
// is judged on N samples, not on its first.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

type benchResult struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	Metrics map[string]float64 `json:"metrics"`
}

// metricGate is one budget: every benchmark whose name starts with
// prefix must report at most max of unit.
type metricGate struct {
	prefix string
	unit   string
	max    float64
}

// allocsUnit is the unit -zero-allocs and -max-allocs gate.
const allocsUnit = "allocs/op"

// ratioGate is one parsed -max-ratio rule: slow's ns/op must stay
// within limit times fast's.
type ratioGate struct {
	slow, fast string
	limit      float64
}

func main() {
	out := flag.String("o", "", "write the JSON report to this file (default stdout)")
	zero := flag.String("zero-allocs", "", "comma-separated benchmark name prefixes that must report 0 allocs/op")
	var gates []metricGate
	flag.Func("max-allocs", "name,N: benchmarks named name (prefix match) may report at most N allocs/op (repeatable)",
		func(val string) error {
			name, n, ok := strings.Cut(val, ",")
			limit, err := parseLimit(n)
			if !ok || name == "" || err != nil {
				return fmt.Errorf("max-allocs %q: want name,N with finite N >= 0", val)
			}
			gates = append(gates, metricGate{prefix: name, unit: allocsUnit, max: limit})
			return nil
		})
	flag.Func("max-metric", "name,unit,N: benchmarks named name (prefix match) may report at most N of unit (repeatable)",
		func(val string) error {
			parts := strings.Split(val, ",")
			if len(parts) != 3 || parts[0] == "" || parts[1] == "" {
				return fmt.Errorf("max-metric %q: want name,unit,N", val)
			}
			limit, err := parseLimit(parts[2])
			if err != nil {
				return fmt.Errorf("max-metric %q: want a finite N >= 0", val)
			}
			gates = append(gates, metricGate{prefix: parts[0], unit: parts[1], max: limit})
			return nil
		})
	var ratios []ratioGate
	flag.Func("max-ratio", "slow,fast,limit: benchmark slow's ns/op must stay within limit times fast's (prefix match, repeatable)",
		func(val string) error {
			parts := strings.Split(val, ",")
			if len(parts) != 3 {
				return fmt.Errorf("max-ratio %q: want slow,fast,limit", val)
			}
			limit, err := strconv.ParseFloat(parts[2], 64)
			if err != nil || limit <= 0 {
				return fmt.Errorf("max-ratio %q: bad limit", val)
			}
			ratios = append(ratios, ratioGate{slow: parts[0], fast: parts[1], limit: limit})
			return nil
		})
	flag.Parse()
	if *zero != "" {
		for _, prefix := range strings.Split(*zero, ",") {
			gates = append(gates, metricGate{prefix: prefix, unit: allocsUnit})
		}
	}

	var results []benchResult
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass through so the CI log keeps the raw table
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name  N  value unit  value unit ...
		if len(fields) < 4 || (len(fields)%2) != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := benchResult{Name: fields[0], Iters: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			r.Metrics[fields[i+1]] = v
		}
		results = append(results, r)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	enc, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	v := metricViolations(results, gates)
	v = append(v, ratioViolations(results, ratios)...)
	if len(v) > 0 {
		for _, msg := range v {
			fmt.Fprintln(os.Stderr, "benchjson: "+msg)
		}
		os.Exit(1)
	}
}

// parseLimit parses a gate's budget: a finite number >= 0.
func parseLimit(s string) (float64, error) {
	limit, err := strconv.ParseFloat(s, 64)
	if err == nil && (!(limit >= 0) || math.IsInf(limit, 0)) {
		err = fmt.Errorf("limit %q out of range", s)
	}
	return limit, err
}

// metricViolations checks every metric gate against the results and
// returns one message per violation: a matching benchmark over its
// budget or without the gated metric, or a gate nothing matches.
func metricViolations(results []benchResult, gates []metricGate) []string {
	var v []string
	for _, g := range gates {
		matched := false
		for _, r := range results {
			if !strings.HasPrefix(r.Name, g.prefix) {
				continue
			}
			matched = true
			n, ok := r.Metrics[g.unit]
			switch {
			case !ok && g.unit == allocsUnit:
				v = append(v, fmt.Sprintf("%s has no %s metric (missing -benchmem?)", r.Name, g.unit))
			case !ok:
				v = append(v, fmt.Sprintf("%s has no %s metric", r.Name, g.unit))
			case n > g.max && g.unit == allocsUnit:
				v = append(v, fmt.Sprintf("%s allocates: %v %s (budget %v)", r.Name, n, g.unit, g.max))
			case n > g.max:
				v = append(v, fmt.Sprintf("%s reports %v %s (budget %v)", r.Name, n, g.unit, g.max))
			}
		}
		if !matched {
			v = append(v, fmt.Sprintf("no benchmark matches %q", g.prefix))
		}
	}
	return v
}

// medianNsOp returns the median ns/op over every line of the first
// benchmark whose name starts with prefix. A -count N run prints N
// lines per benchmark; later benchmarks that share the prefix (p10000
// after p100) are not that benchmark.
func medianNsOp(results []benchResult, prefix string) (float64, bool) {
	name := ""
	var ns []float64
	for _, r := range results {
		if name == "" && strings.HasPrefix(r.Name, prefix) {
			name = r.Name
		}
		if v, ok := r.Metrics["ns/op"]; ok && name != "" && r.Name == name {
			ns = append(ns, v)
		}
	}
	if len(ns) == 0 {
		return 0, false
	}
	slices.Sort(ns)
	mid := len(ns) / 2
	if len(ns)%2 == 0 {
		return (ns[mid-1] + ns[mid]) / 2, true
	}
	return ns[mid], true
}

// ratioViolations checks every ratio gate on the two sides' median
// ns/op and returns one message per violation or missing side.
func ratioViolations(results []benchResult, gates []ratioGate) []string {
	var v []string
	for _, g := range gates {
		slow, okS := medianNsOp(results, g.slow)
		fast, okF := medianNsOp(results, g.fast)
		if !okS || !okF {
			v = append(v, fmt.Sprintf("max-ratio %s,%s: benchmark missing", g.slow, g.fast))
			continue
		}
		if fast > 0 && slow > g.limit*fast {
			v = append(v, fmt.Sprintf("%s is %.2fx %s (budget %.2fx)", g.slow, slow/fast, g.fast, g.limit))
		}
	}
	return v
}
