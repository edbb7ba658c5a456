package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off.
var endToEnd = []metricDef{
	{"sim_ops_per_host_s", "ops/s"},
	{"host_ns_per_step", "ns/step"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"sim_p50_ms", "ms"},
	{"sim_p99_ms", "ms"},
	{"failed_frac", "ratio"},
}

// exactCounts are per-layer counts read from the program's public state;
// a change to host code alone must leave every one of them identical.
var exactCounts = []metricDef{
	{"core.steps_per_op", "steps/op"},
	{"core.handoff_frac", "ratio"},
	{"core.recognition_frac", "ratio"},
	{"core.discard_frac", "ratio"},
	{"core.blocked_highwater", "count"},
	{"core.stacks_per_machine", "count"},
	{"kern.reaped_per_op", "1/op"},
	{"dev.packets_per_op", "1/op"},
	{"dev.retransmit_frac", "ratio"},
	{"svc.cache_fetches_per_op", "1/op"},
	{"svc.elections", "count"},
	{"svc.failovers_per_op", "1/op"},
	{"overload.shed_frac", "ratio"},
}

// perLayer lists every metric of a traced run in report order.
func perLayer() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out, metricDef{l + ".self_ns_per_step", "ns/step"})
	}
	for _, p := range []string{"boot", "simulate", "check", "report"} {
		out = append(out, metricDef{"phase." + p + "_ms", "ms"})
	}
	out = append(out, metricDef{"profile.coverage", "ratio"}, metricDef{"trace.overhead_frac", "ratio"},
		metricDef{"host.calibration_ratio", "ratio"})
	out = append(out, exactCounts...)
	return append(out,
		metricDef{"runtime.alloc_bytes_per_step", "B/step"},
		metricDef{"runtime.gc_cpu_frac", "ratio"},
		metricDef{"runtime.gc_cycles", "count"},
	)
}

// isExact reports whether a metric is a simulated result or an exact
// count, which repetitions and host-only changes must leave identical.
func isExact(name string) bool {
	switch name {
	case "sim_p50_ms", "sim_p99_ms", "failed_frac":
		return true
	}
	for _, m := range exactCounts {
		if m.name == name {
			return true
		}
	}
	return false
}

// summary is one metric over a workload's repetitions.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// median and quartiles follow Python's statistics.median and
// statistics.quantiles(values, n=4) (the "exclusive" method).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func summarize(v []float64, unit string) summary {
	q1, q3 := quartiles(v)
	return summary{Median: median(v), Q1: q1, Q3: q3, N: len(v), Unit: unit}
}

// workloadReport is one workload's measured result.
type workloadReport struct {
	Name      string             `json:"name"`
	Seed      uint64             `json:"seed"`
	Digest    string             `json:"digest"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Samples   uint64             `json:"samples"`
	Problems  []string           `json:"problems,omitempty"`
	Untraced  map[string]summary `json:"untraced"`
	Traced    map[string]summary `json:"traced,omitempty"`

	spans []span
}

// options control one workload measurement.
type options struct {
	seed     uint64
	quick    bool
	reps     int           // untraced repetitions, at least
	traced   int           // CPU-profiled repetitions, at least
	duration time.Duration // keep repeating until this much time has passed
	workDir  string        // scratch space for profiles and spans
}

// measure runs a workload's repetitions, each in a fresh child process,
// until both minimum counts are met and opt.duration has passed; traced
// repetitions alternate with untraced ones. A calibration child runs
// before every repetition, and every host time of the run is divided by
// the median calibration ratio (see calibrate). It returns an error for
// harness failures: a child that crashed or printed no result, a
// profile pprof cannot read, or repetitions whose reports differ.
func measure(w *benchWorkload, opt options) (*workloadReport, error) {
	var plain, prof []*repResult
	var attrs []attribution
	var cal []float64 // calibration time over calibrationRef, one per repetition
	// rep runs one repetition, preceded by a calibration child.
	rep := func(profile string) (*repResult, error) {
		c, err := runCalibration()
		if err != nil {
			return nil, err
		}
		cal = append(cal, c/calibrationRef.Seconds())
		return runChild(w.name, opt, profile)
	}
	start := time.Now()
	// more reports whether repetitions of a kind with this minimum, n of
	// them done, still have to run.
	more := func(n, min int) bool { return n < min || min > 0 && time.Since(start) < opt.duration }
	for more(len(plain), opt.reps) || more(len(prof), opt.traced) {
		if more(len(plain), opt.reps) {
			res, err := rep("")
			if err != nil {
				return nil, err
			}
			plain = append(plain, res)
		}
		if !more(len(prof), opt.traced) {
			continue
		}
		path := filepath.Join(opt.workDir, fmt.Sprintf("%s-seed%d-%d.pprof", w.name, opt.seed, len(prof)))
		res, err := rep(path)
		if err != nil {
			return nil, err
		}
		a, err := attributeProfile(path)
		if err != nil {
			return nil, err
		}
		prof = append(prof, res)
		attrs = append(attrs, a)
	}

	// Scale every host time by the run's median calibration.
	all := append(append([]*repResult(nil), plain...), prof...)
	f := 1 / median(cal)
	for _, r := range all {
		r.scaleHost(f)
	}
	for i := range attrs {
		attrs[i].scale(f)
	}

	first := plain[0]
	report := &workloadReport{
		Name: w.name, Seed: opt.seed, Digest: first.Digest,
		Attempted: first.Attempted, Failed: first.Failed, Samples: first.Samples,
		Problems: first.Problems, Untraced: map[string]summary{},
	}
	for _, r := range all[1:] {
		if r.Digest != first.Digest {
			return nil, fmt.Errorf("%s seed %d: reports differ between repetitions (%.12s vs %.12s)",
				w.name, opt.seed, first.Digest, r.Digest)
		}
	}
	for _, m := range endToEnd {
		v := make([]float64, len(plain))
		for i, r := range plain {
			v[i] = endToEndValue(r, m.name)
		}
		report.Untraced[m.name] = summarize(v, m.unit)
	}
	if len(prof) > 0 {
		report.Traced = tracedMetrics(plain, prof, attrs, cal)
		report.spans = prof[0].Spans
	}
	return report, nil
}

func endToEndValue(r *repResult, name string) float64 {
	switch name {
	case "sim_ops_per_host_s":
		return ratio(float64(r.Ops), r.CallS)
	case "host_ns_per_step":
		return ratio(r.SimS*1e9, float64(r.Steps))
	case "setup_s":
		return r.SetupS
	case "peak_rss_mb":
		return r.PeakRSSMB
	case "sim_p50_ms":
		return r.P50MS
	case "sim_p99_ms":
		return r.P99MS
	case "failed_frac":
		return ratio(float64(r.Failed), float64(r.Attempted))
	}
	panic("unknown end-to-end metric " + name)
}

// tracedMetrics derives every per-layer metric: layer self time per step
// and coverage from the profiles, phases from the traced repetitions'
// spans, and overhead, counts and runtime counters from the untraced
// ones.
func tracedMetrics(plain, prof []*repResult, attrs []attribution, cal []float64) map[string]summary {
	out := map[string]summary{}
	col := func(rs []*repResult, f func(*repResult) float64) []float64 {
		v := make([]float64, len(rs))
		for i, r := range rs {
			v[i] = f(r)
		}
		return v
	}
	for _, m := range perLayer() {
		var v []float64
		switch {
		case m.name == "profile.coverage":
			for _, a := range attrs {
				v = append(v, a.coverage())
			}
		case m.name == "host.calibration_ratio":
			v = cal
		case m.name == "trace.overhead_frac":
			ops := func(r *repResult) float64 { return endToEndValue(r, "sim_ops_per_host_s") }
			v = []float64{1 - ratio(median(col(prof, ops)), median(col(plain, ops)))}
		case strings.HasSuffix(m.name, ".self_ns_per_step"):
			layer := strings.TrimSuffix(m.name, ".self_ns_per_step")
			for i, a := range attrs {
				v = append(v, ratio(float64(a.ns[layer]), float64(prof[i].Steps)))
			}
		case strings.HasPrefix(m.name, "phase."):
			p := strings.TrimSuffix(strings.TrimPrefix(m.name, "phase."), "_ms")
			v = col(prof, func(r *repResult) float64 { return r.Phases[p] })
		case strings.HasPrefix(m.name, "runtime."):
			v = col(plain, func(r *repResult) float64 { return r.Runtime[m.name] })
		default:
			v = col(plain, func(r *repResult) float64 { return r.Counts[m.name] })
		}
		out[m.name] = summarize(v, m.unit)
	}
	return out
}

// runChild runs one repetition in a fresh process of this binary,
// CPU-profiled into profile when it is set.
func runChild(name string, opt options, profile string) (*repResult, error) {
	args := []string{"-child", name, "-seed", strconv.FormatUint(opt.seed, 10)}
	if opt.quick {
		args = append(args, "-quick")
	}
	if profile != "" {
		args = append(args, "-cpuprofile", profile)
	}
	var res repResult
	if err := runSelf(args, &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", name, opt.seed, err)
	}
	return &res, nil
}

// runCalibration times the calibration task in a fresh process of this
// binary and returns its CPU seconds. A fresh process tracks the
// machine's drift; run after a workload in the same process, the task
// tracked it poorly.
func runCalibration() (float64, error) {
	var s float64
	if err := runSelf([]string{"-calibrate"}, &s); err != nil {
		return 0, fmt.Errorf("calibration: %w", err)
	}
	return s, nil
}

// runSelf runs this binary with args and GOMAXPROCS set to the
// machine's CPU count, and decodes its standard output into v.
func runSelf(args []string, v any) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("child: %w", err)
	}
	if err := json.Unmarshal(out.Bytes(), v); err != nil {
		return fmt.Errorf("child result: %w", err)
	}
	return nil
}

// childMain runs one repetition in this process and prints its result.
// An untraced repetition also reads the peak RSS and runtime counters,
// then times the workload's set-up.
func childMain(name string, seed uint64, quick bool, profile string) error {
	w, ok := lookupWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	res, err := runRep(w, seed, quick, profile)
	if err != nil {
		return err
	}
	if profile == "" {
		if res.PeakRSSMB, err = peakRSSMB(); err != nil {
			return err
		}
		res.Runtime = readRuntime(res.Steps)
		res.SetupS = timeSetup(w, quick)
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// runRep runs every simulation of the workload once, under a CPU profile
// written to profile when it is set.
func runRep(w *benchWorkload, seed uint64, quick bool, profile string) (*repResult, error) {
	stop, err := startProfile(profile)
	if err != nil {
		return nil, err
	}
	r := newRep()
	w.run(r, seed, quick)
	if err := stop(); err != nil {
		return nil, err
	}
	return r.result(), nil
}
