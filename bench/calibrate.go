package main

import (
	"runtime"
	"time"
)

// calibrationRef is the CPU time the calibration task takes on the
// reference machine: the 2-vCPU VM the bounds in BENCHMARK.json were set
// on, at its typical speed. Host times are reported as they would read
// there.
const calibrationRef = 200 * time.Millisecond

// calibrationSteps sizes the task to take about calibrationRef.
const calibrationSteps = 1 << 19

// calibrationSink keeps the task's result alive.
var calibrationSink uint64

// calibrate runs a fixed task that uses none of the simulator's code but
// has the shape of its inner loop — pop the earliest event off a binary
// heap, look another up by id in a map, allocate its successor and push
// it — and returns the CPU time it took. The speed of a shared machine
// drifts by 20% and more over minutes, even in CPU time, and the task
// drifts with it: over 15 minutes in which mtload-wide slowed by 14%,
// mtload-wide's time over the task's stayed within 0.1%. A run scales
// its host times by calibrationRef over the median task time, so that a
// busier machine does not read as a slower program while a slower
// program still does.
func calibrate() time.Duration {
	type event struct {
		at   uint64
		id   uint32
		data [5]uint64
	}
	const live = 1 << 14
	x := uint64(0x9e3779b97f4a7c15)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	heap := make([]*event, 0, live)
	push := func(e *event) {
		heap = append(heap, e)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if heap[p].at <= heap[i].at {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() *event {
		top := heap[0]
		n := len(heap) - 1
		heap[0] = heap[n]
		heap = heap[:n]
		for i := 0; ; {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && heap[c+1].at < heap[c].at {
				c++
			}
			if heap[i].at <= heap[c].at {
				break
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
		return top
	}
	byID := make(map[uint32]*event, live)
	for i := 0; i < live; i++ {
		e := &event{at: rnd() % 1_000_000, id: uint32(i)}
		byID[e.id] = e
		push(e)
	}
	var sum uint64
	runtime.GC() // start from the same clean heap after any workload
	start := cpuTime()
	for i := 0; i < calibrationSteps; i++ {
		e := pop()
		if o := byID[uint32(rnd()%live)]; o != nil {
			sum += o.at
		}
		n := &event{at: e.at + 1 + rnd()%1000, id: e.id}
		n.data[0] = sum
		byID[n.id] = n
		push(n)
	}
	calibrationSink = sum
	return cpuTime() - start
}
