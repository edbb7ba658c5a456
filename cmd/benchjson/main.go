// benchjson converts `go test -bench` output into a JSON report and
// enforces allocation budgets, for the CI benchmark smoke.
//
// Usage:
//
//	go test -bench ... -benchmem | benchjson [-o out.json] [-zero-allocs name,name]
//	        [-max-allocs name,N] [-max-ratio slow,fast,limit]
//
// Each benchmark line becomes an object with its name, iteration count
// and every reported metric (ns/op, B/op, allocs/op, and any custom
// b.ReportMetric units). -zero-allocs names benchmarks (prefix match, so
// sub-benchmarks count) that must report 0 allocs/op, and -max-allocs
// (repeatable) one benchmark prefix and the most allocs/op it may
// report; a violation fails the run after the JSON is written.
// -max-ratio (repeatable) names two
// benchmarks (prefix match) and a limit: the first's ns/op must stay
// within limit times the second's — the relative-overhead gate for
// feature-on vs feature-off benchmark pairs.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
)

type benchResult struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	Metrics map[string]float64 `json:"metrics"`
}

// allocGate is one allocation budget: every benchmark whose name starts
// with prefix must report at most max allocs/op.
type allocGate struct {
	prefix string
	max    float64
}

// ratioGate is one parsed -max-ratio rule: slow's ns/op must stay
// within limit times fast's.
type ratioGate struct {
	slow, fast string
	limit      float64
}

func main() {
	out := flag.String("o", "", "write the JSON report to this file (default stdout)")
	zero := flag.String("zero-allocs", "", "comma-separated benchmark name prefixes that must report 0 allocs/op")
	var allocs []allocGate
	flag.Func("max-allocs", "name,N: benchmarks named name (prefix match) may report at most N allocs/op (repeatable)",
		func(val string) error {
			name, n, ok := strings.Cut(val, ",")
			limit, err := strconv.ParseFloat(n, 64)
			if !ok || name == "" || err != nil || !(limit >= 0) || math.IsInf(limit, 0) {
				return fmt.Errorf("max-allocs %q: want name,N with finite N >= 0", val)
			}
			allocs = append(allocs, allocGate{prefix: name, max: limit})
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
			allocs = append(allocs, allocGate{prefix: prefix})
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

	if v := allocViolations(results, allocs); len(v) > 0 {
		for _, msg := range v {
			fmt.Fprintln(os.Stderr, "benchjson: "+msg)
		}
		os.Exit(1)
	}

	if len(ratios) > 0 {
		// nsOp finds the first matching benchmark's ns/op by prefix.
		nsOp := func(prefix string) (float64, bool) {
			for _, r := range results {
				if strings.HasPrefix(r.Name, prefix) {
					v, ok := r.Metrics["ns/op"]
					return v, ok
				}
			}
			return 0, false
		}
		failed := false
		for _, g := range ratios {
			slow, okS := nsOp(g.slow)
			fast, okF := nsOp(g.fast)
			if !okS || !okF {
				fmt.Fprintf(os.Stderr, "benchjson: max-ratio %s,%s: benchmark missing\n", g.slow, g.fast)
				failed = true
				continue
			}
			if fast > 0 && slow > g.limit*fast {
				fmt.Fprintf(os.Stderr, "benchjson: %s is %.2fx %s (budget %.2fx)\n",
					g.slow, slow/fast, g.fast, g.limit)
				failed = true
			}
		}
		if failed {
			os.Exit(1)
		}
	}
}

// allocViolations checks every allocation gate against the results and
// returns one message per violation: a matching benchmark over its
// budget or without an allocs/op metric, or a gate nothing matches.
func allocViolations(results []benchResult, gates []allocGate) []string {
	var v []string
	for _, g := range gates {
		matched := false
		for _, r := range results {
			if !strings.HasPrefix(r.Name, g.prefix) {
				continue
			}
			matched = true
			if n, ok := r.Metrics["allocs/op"]; !ok {
				v = append(v, fmt.Sprintf("%s has no allocs/op metric (missing -benchmem?)", r.Name))
			} else if n > g.max {
				v = append(v, fmt.Sprintf("%s allocates: %v allocs/op (budget %v)", r.Name, n, g.max))
			}
		}
		if !matched {
			v = append(v, fmt.Sprintf("no benchmark matches %q", g.prefix))
		}
	}
	return v
}
