// Command bench is the simulator's end-to-end benchmark. It runs five
// workloads, each repetition in a fresh child process, and reports what
// a simulation costs on the host (ops per host second, host ns per
// dispatcher step, set-up time, peak RSS) next to the simulated results
// it produced (op latency, failed ops), which must not change when only
// host code does. A traced run splits host time across the simulator's
// layers from a CPU profile. See README.md.
//
// Usage:
//
//	bench [-seed N] [-traced] [-quick] [-o results.json]
//	bench -compare a.json b.json
//	bench -workload NAME -seed N -seconds S -trace 0|1
//
// The first form runs every workload and prints one line per (workload,
// metric); the last runs one workload for S seconds and ends its output
// with one JSON result line.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// Repetition counts: untraced medians come from at least 5 repetitions,
// per-layer numbers from at least 3 profiled ones; -quick runs 2 of each.
const (
	defaultReps   = 5
	defaultTraced = 3
	quickReps     = 2
)

func main() {
	var (
		seed       = flag.Uint64("seed", 0, "workload seed; 0 reproduces the repository's canonical runs")
		traced     = flag.Bool("traced", false, "also run CPU-profiled repetitions and print per-layer metrics")
		quick      = flag.Bool("quick", false, "toy sizes, two repetitions per workload")
		outFile    = flag.String("o", "", "write the results as JSON to this file")
		compare    = flag.Bool("compare", false, "compare two results files: bench -compare a.json b.json")
		wl         = flag.String("workload", "", "run only this workload and print one JSON result line")
		seconds    = flag.Int("seconds", 0, "with -workload: keep repeating for this many seconds")
		trace      = flag.Int("trace", 0, "with -workload: 1 reports the per-layer metrics of a traced run")
		child      = flag.String("child", "", "internal: run one repetition of this workload")
		cpuprofile = flag.String("cpuprofile", "", "internal: CPU profile file for a child repetition")
		calib      = flag.Bool("calibrate", false, "internal: time the calibration task")
	)
	flag.Parse()

	var err error
	switch {
	case *calib:
		err = json.NewEncoder(os.Stdout).Encode(calibrate().Seconds())
	case *child != "":
		err = childMain(*child, *seed, *quick, *cpuprofile)
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		err = compareMain(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *wl != "":
		if *trace != 0 && *trace != 1 {
			fmt.Fprintln(os.Stderr, "-trace must be 0 or 1")
			os.Exit(2)
		}
		err = singleMain(*wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	default:
		err = humanMain(*seed, *traced, *quick, *outFile)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// repoRoot is the nearest directory at or above the working directory
// that holds BENCHMARK.json.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// boundedMetric is an end_to_end entry of BENCHMARK.json.
type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads.
type benchmarkFile struct {
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// workDir returns (creating it) the directory for profiles and spans.
func workDir(root string) (string, error) {
	dir := filepath.Join(root, ".bench_build", "work")
	return dir, os.MkdirAll(dir, 0o755)
}

// startProfile starts a CPU profile into path (nothing when path is
// empty) and returns the function that stops it.
func startProfile(path string) (func() error, error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// singleMain measures one workload for d and ends its output with the
// JSON result line: every end_to_end metric BENCHMARK.json lists, or,
// traced, every per_layer one.
func singleMain(name string, seed uint64, d time.Duration, traced bool) error {
	w, ok := lookupWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		return err
	}
	dir, err := workDir(root)
	if err != nil {
		return err
	}
	opt := options{seed: seed, reps: defaultReps, duration: d, workDir: dir}
	var names []string
	if traced {
		opt.reps, opt.traced = defaultTraced, defaultTraced
		for _, m := range bf.PerLayer {
			names = append(names, m.Name)
		}
	} else {
		for _, m := range bf.EndToEnd {
			names = append(names, m.Name)
		}
	}
	rep, err := measure(w, opt)
	if err != nil {
		return err
	}
	printReport(os.Stdout, rep)
	if err := writeSpans(dir, rep); err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, n := range names {
		s, ok := rep.Untraced[n]
		if traced {
			s, ok = rep.Traced[n]
		}
		if !ok {
			return fmt.Errorf("%s: BENCHMARK.json lists metric %q, which the benchmark does not measure", name, n)
		}
		metrics[n] = value{s.Median, s.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(rep.Problems) == 0, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// results is the file -o writes and -compare reads.
type results struct {
	GoVersion string            `json:"go_version"`
	NProc     int               `json:"nproc"`
	GOOS      string            `json:"goos"`
	GOARCH    string            `json:"goarch"`
	Seed      uint64            `json:"seed"`
	Quick     bool              `json:"quick"`
	Workloads []*workloadReport `json:"workloads"`
}

// humanMain measures every workload and prints one line per metric.
func humanMain(seed uint64, traced, quick bool, outFile string) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	dir, err := workDir(root)
	if err != nil {
		return err
	}
	opt := options{seed: seed, quick: quick, reps: defaultReps, workDir: dir}
	if quick {
		opt.reps = quickReps
	}
	if traced {
		opt.traced = defaultTraced
		if quick {
			opt.traced = quickReps
		}
	}
	res := results{
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Seed: seed, Quick: quick,
	}
	fmt.Printf("bench: %s %s/%s, %d CPUs, seed %d\n", res.GoVersion, res.GOOS, res.GOARCH, res.NProc, seed)
	for i := range workloads {
		rep, err := measure(&workloads[i], opt)
		if err != nil {
			return err
		}
		printReport(os.Stdout, rep)
		if err := writeSpans(dir, rep); err != nil {
			return err
		}
		res.Workloads = append(res.Workloads, rep)
	}
	if traced {
		printDenseGap(os.Stdout, res.Workloads)
	}
	if outFile == "" {
		return nil
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(outFile, append(data, '\n'), 0o644)
}

// printReport prints one line per metric: median, quartiles and the
// repetition count, plus the latency sample count and any failed check.
func printReport(w io.Writer, rep *workloadReport) {
	line := func(name string, s summary) {
		fmt.Fprintf(w, "%-13s %-31s %14.6g %-8s q1 %.6g q3 %.6g n=%d",
			rep.Name, name, s.Median, s.Unit, s.Q1, s.Q3, s.N)
		if strings.HasPrefix(name, "sim_p") {
			fmt.Fprintf(w, " samples=%d", rep.Samples)
		}
		fmt.Fprintln(w)
	}
	for _, m := range endToEnd {
		line(m.name, rep.Untraced[m.name])
	}
	if rep.Traced != nil {
		for _, m := range perLayer() {
			line(m.name, rep.Traced[m.name])
		}
	}
	fmt.Fprintf(w, "%-13s digest %.16s, %d ops attempted, %d failed\n", rep.Name, rep.Digest, rep.Attempted, rep.Failed)
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "%-13s FAILED CHECK %s\n", rep.Name, p)
	}
}

// printDenseGap names the layers behind the difference in host ns per
// step between mtload-dense and mtload-wide.
func printDenseGap(w io.Writer, reps []*workloadReport) {
	var wide, dense *workloadReport
	for _, r := range reps {
		switch r.Name {
		case "mtload-wide":
			wide = r
		case "mtload-dense":
			dense = r
		}
	}
	if wide == nil || dense == nil {
		return
	}
	type gap struct {
		layer string
		ns    float64
	}
	var gaps []gap
	for _, l := range layers {
		k := l + ".self_ns_per_step"
		gaps = append(gaps, gap{l, dense.Traced[k].Median - wide.Traced[k].Median})
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i].ns > gaps[j].ns })
	fmt.Fprintf(w, "mtload-dense vs mtload-wide: host_ns_per_step %.0f vs %.0f (%.2fx); largest layer gaps:",
		dense.Untraced["host_ns_per_step"].Median, wide.Untraced["host_ns_per_step"].Median,
		ratio(dense.Untraced["host_ns_per_step"].Median, wide.Untraced["host_ns_per_step"].Median))
	for _, g := range gaps[:4] {
		fmt.Fprintf(w, " %s %+.0f ns/step;", g.layer, g.ns)
	}
	fmt.Fprintln(w)
}

// writeSpans writes the first traced repetition's spans as JSON.
func writeSpans(dir string, rep *workloadReport) error {
	if rep.spans == nil {
		return nil
	}
	data, err := json.Marshal(rep.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", rep.Name, rep.Seed)), data, 0o644)
}
