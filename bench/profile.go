package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// layers are the simulator packages per-layer time is charged to, in
// report order, followed by the two runtime buckets.
var layers = []string{
	"core", "sched", "machine", "ipc", "dev", "kern", "svc", "overload",
	"obs", "check", "fault", "vm", "exc", "workload",
	gcLayer, otherLayer,
}

const (
	gcLayer    = "runtime.gc"
	otherLayer = "runtime.other"
	pkgPrefix  = "repro/internal/"
)

// gcFrames mark a sample as garbage-collector work: the background mark
// workers, sweeper and scavenger, and the mark assists an allocating
// goroutine is drafted into.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge",
}

// attribution is CPU time by layer from one profile.
type attribution struct {
	ns    map[string]int64
	total int64
}

// scale multiplies every attributed time by f.
func (a *attribution) scale(f float64) {
	for k, v := range a.ns {
		a.ns[k] = int64(float64(v) * f)
	}
	a.total = int64(float64(a.total) * f)
}

// coverage is the share of sampled time charged to a layer or to GC.
func (a attribution) coverage() float64 {
	return ratio(float64(a.total-a.ns[otherLayer]), float64(a.total))
}

// layerOf charges one sample's stack (innermost frame first) to a layer:
// GC if any frame is collector work, else the innermost frame in one of
// the listed simulator packages (frames of other simulator packages,
// such as stats, are helpers charged to their caller), else
// runtime.other.
func layerOf(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if fn == g {
				return gcLayer
			}
		}
	}
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, pkgPrefix)
		if !ok {
			continue
		}
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, l := range layers {
			if l == pkg {
				return l
			}
		}
	}
	return otherLayer
}

// parseTraces reads `go tool pprof -traces` output: samples separated by
// "-----------+----" rules, each an optional "key:  value" label line or
// two, then "<value> <leaf function>" and one caller per line, innermost
// first.
func parseTraces(r io.Reader) (attribution, error) {
	a := attribution{ns: map[string]int64{}}
	var value int64
	var stack []string
	flush := func() {
		if stack != nil {
			a.ns[layerOf(stack)] += value
			a.total += value
		}
		stack = nil
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	inSamples := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSamples = true
			continue
		}
		if !inSamples || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if strings.HasSuffix(fields[0], ":") {
			continue // a sample label line, printed before the stack
		}
		if stack == nil {
			if len(fields) < 2 {
				return a, fmt.Errorf("pprof traces: sample line %q has no function", line)
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return a, fmt.Errorf("pprof traces: sample value: %w", err)
			}
			value = int64(d)
			stack = []string{fields[1]}
			continue
		}
		stack = append(stack, fields[0])
	}
	flush()
	return a, sc.Err()
}

// attributeProfile runs `go tool pprof -traces` on a CPU profile the
// benchmark wrote and attributes its samples.
func attributeProfile(path string) (attribution, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return attribution{}, err
	}
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		return attribution{}, fmt.Errorf("go tool pprof: %w", err)
	}
	a, perr := parseTraces(out)
	_, _ = io.Copy(io.Discard, out) // drain so pprof can exit if parsing stopped early
	if err := cmd.Wait(); err != nil {
		return a, fmt.Errorf("go tool pprof -traces %s: %v: %s", path, err, stderr.String())
	}
	return a, perr
}
