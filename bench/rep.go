package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// span is one call the benchmark made into the program: boot, simulate,
// check or report, within simulation run Run of a repetition. Start and
// end are wall-clock nanoseconds from the repetition's start; CPUNS is
// the process CPU time the call used.
type span struct {
	Name    string `json:"name"`
	Run     int    `json:"run"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	CPUNS   int64  `json:"cpu_ns"`
}

// cpuTime is the process's CPU time so far, user plus system, over all
// its threads. On a virtual machine it excludes time the hypervisor
// stole, which wall-clock time does not.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// counts are the exact public counters a repetition read after each run.
type counts struct {
	blocks, handoffs, recognitions, discards uint64
	blockedHW, maxStacks                     int
	reaped, packets, retransmits             uint64
	cacheFetches, elections, failovers, shed uint64
}

// rep accumulates one repetition of a workload: every simulation run's
// spans, completed-op latencies, counters, and report bytes (hashed into
// the digest, which must not differ between repetitions of a seed).
type rep struct {
	t0       time.Time
	run      int
	spans    []span
	digest   hash.Hash
	hist     obs.Histogram
	c        counts
	problems []string
	runBad   bool

	attempted, ops, failed, steps uint64
}

func newRep() *rep { return &rep{t0: time.Now(), digest: sha256.New()} }

// span times f as one named call of the current run.
func (r *rep) span(name string, f func()) {
	start, cpu := time.Since(r.t0), cpuTime()
	f()
	r.spans = append(r.spans, span{Name: name, Run: r.run,
		StartNS: int64(start), EndNS: int64(time.Since(r.t0)), CPUNS: int64(cpuTime() - cpu)})
}

// problem records a failed correctness check; every op of the current
// run then counts as failed.
func (r *rep) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf("run %d: ", r.run)+fmt.Sprintf(format, args...))
	r.runBad = true
}

// finishRun closes one simulation run.
func (r *rep) finishRun(attempted, done, failed, steps uint64) {
	if r.runBad {
		failed = attempted
	}
	r.attempted += attempted
	r.ops += done
	r.failed += failed
	r.steps += steps
	r.run++
	r.runBad = false
}

// repResult is what a child process reports for one repetition.
type repResult struct {
	Digest    string             `json:"digest"`
	Runs      int                `json:"runs"`
	Attempted uint64             `json:"attempted"`
	Ops       uint64             `json:"ops"`
	Failed    uint64             `json:"failed"`
	Steps     uint64             `json:"steps"`
	Samples   uint64             `json:"samples"`
	P50MS     float64            `json:"p50_ms"`
	P99MS     float64            `json:"p99_ms"`
	CallS     float64            `json:"call_s"`
	SimS      float64            `json:"simulate_s"`
	SetupS    float64            `json:"setup_s,omitempty"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Phases    map[string]float64 `json:"phases_ms"`
	Counts    map[string]float64 `json:"counts"`
	Runtime   map[string]float64 `json:"runtime"`
	Problems  []string           `json:"problems,omitempty"`
	Spans     []span             `json:"spans"`
}

// scaleHost multiplies every host time in the result by f.
func (r *repResult) scaleHost(f float64) {
	r.CallS *= f
	r.SimS *= f
	r.SetupS *= f
	for k := range r.Phases {
		r.Phases[k] *= f
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// result summarizes the repetition.
func (r *rep) result() *repResult {
	res := &repResult{
		Digest:    hex.EncodeToString(r.digest.Sum(nil)),
		Runs:      r.run,
		Attempted: r.attempted,
		Ops:       r.ops,
		Failed:    r.failed,
		Steps:     r.steps,
		Samples:   r.hist.Count,
		P50MS:     float64(r.hist.Quantile(0.50)) / 1e6,
		P99MS:     float64(r.hist.Quantile(0.99)) / 1e6,
		Phases:    map[string]float64{"boot": 0, "simulate": 0, "check": 0, "report": 0},
		Problems:  r.problems,
		Spans:     r.spans,
	}
	for _, s := range r.spans {
		d := float64(s.CPUNS) / 1e9
		res.CallS += d
		res.Phases[s.Name] += d * 1e3
		if s.Name == "simulate" {
			res.SimS += d
		}
	}
	ops, c := float64(r.ops), r.c
	blocks := float64(c.blocks)
	res.Counts = map[string]float64{
		"core.steps_per_op":        ratio(float64(r.steps), ops),
		"core.handoff_frac":        ratio(float64(c.handoffs), blocks),
		"core.recognition_frac":    ratio(float64(c.recognitions), blocks),
		"core.discard_frac":        ratio(float64(c.discards), blocks),
		"core.blocked_highwater":   float64(c.blockedHW),
		"core.stacks_per_machine":  float64(c.maxStacks),
		"kern.reaped_per_op":       ratio(float64(c.reaped), ops),
		"dev.packets_per_op":       ratio(float64(c.packets), ops),
		"dev.retransmit_frac":      ratio(float64(c.retransmits), float64(c.packets)),
		"svc.cache_fetches_per_op": ratio(float64(c.cacheFetches), ops),
		"svc.elections":            float64(c.elections),
		"svc.failovers_per_op":     ratio(float64(c.failovers), ops),
		"overload.shed_frac":       ratio(float64(c.shed), float64(r.attempted)),
	}
	return res
}

// readRuntime reads the Go runtime's allocation and GC counters.
func readRuntime(steps uint64) map[string]float64 {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return map[string]float64{
		"runtime.alloc_bytes_per_step": ratio(val(0), float64(steps)),
		"runtime.gc_cpu_frac":          ratio(val(1), val(2)),
		"runtime.gc_cycles":            val(3),
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// setupMinTime is how long one repetition repeats a workload's boot to
// time it; a single boot of the smaller machine sets takes microseconds.
const setupMinTime = 200 * time.Millisecond

// timeSetup returns the CPU seconds one boot of the workload's machine
// set takes, averaged over at least setupMinTime, times the workload's
// number of runs.
func timeSetup(w *benchWorkload, quick bool) float64 {
	runtime.GC()
	n := 0
	start, cpu := time.Now(), cpuTime()
	for n == 0 || time.Since(start) < setupMinTime {
		w.boot(quick)
		n++
	}
	return (cpuTime() - cpu).Seconds() / float64(n) * float64(w.runs(quick))
}
