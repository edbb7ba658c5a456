// Package threadmodel validates the paper's central space/time claim
// against the real Go runtime, acknowledging the reproduction gate: Go
// owns goroutine stacks, so the simulator cannot measure true kernel
// stack savings. What CAN be measured natively is the exact analogue the
// paper exploits:
//
//   - a blocked goroutine is the process model: it retains a real stack
//     (2 KB minimum, more if the call chain grew) plus scheduler state;
//
//   - a continuation record is the interrupt model: a blocked activity
//     reduced to a function pointer, 28 bytes of scratch, and a word of
//     state — the paper's stackless thread.
//
// The package parks N of each and reports measured bytes per blocked
// activity, and runs ping-pong switches through both mechanisms to
// compare transfer latency. Results land in EXPERIMENTS.md next to Table
// 5 as the Go-native cross-check.
package threadmodel

import (
	"runtime"
	"sync"
	"time"
)

// Record is the continuation-model representation of a blocked activity:
// the analogue of the paper's stackless kernel thread (§3.4 sizes it at
// 690 bytes including the register save area; this Go record is smaller
// because the "registers" are the closure's captured variables).
type Record struct {
	// Cont is the resumption function.
	Cont func(*Record)
	// Scratch is the 28-byte save area.
	Scratch [28]byte
	// State is the scheduling state word.
	State uint32
	// ID identifies the activity.
	ID int
}

// stackGrower grows a goroutine's stack by depth frames of at least 256
// bytes each, signals parked from the deepest one and blocks there,
// imitating a thread that blocked deep in a call chain. Each frame reads
// its pad after the call returns, which keeps the pad on the stack; a pad
// that is never read is a dead store the compiler drops, and the frames
// shrink to a few dozen bytes.
func stackGrower(depth int, parked chan<- struct{}, ch <-chan struct{}) byte {
	if depth <= 0 {
		parked <- struct{}{}
		<-ch
		return 0
	}
	var pad [256]byte
	pad[depth%len(pad)] = byte(depth)
	return stackGrower(depth-1, parked, ch) + pad[depth%len(pad)]
}

// memUsed collects garbage and returns the heap and goroutine-stack
// bytes in use.
func memUsed() (heap, stack uint64) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse, ms.StackInuse
}

// perActivity is the memory growth from before to after spread over n
// activities. The difference is signed: memory the runtime reclaims
// inside the window makes it negative rather than wrapping.
func perActivity(before, after uint64, n int) float64 {
	return float64(int64(after)-int64(before)) / float64(n)
}

// GoroutinePark parks n goroutines blocked on a channel, each having
// grown its stack by depth frames first, and returns the measured bytes
// per goroutine. Call the returned release function to unpark them.
func GoroutinePark(n, depth int) (bytesPer float64, release func()) {
	base := runtime.NumGoroutine()
	heap0, stack0 := memUsed()
	ch := make(chan struct{})
	var wg sync.WaitGroup
	parked := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stackGrower(depth, parked, ch)
		}()
	}
	for i := 0; i < n; i++ {
		<-parked
	}
	// Give the parked goroutines a moment to settle at their block.
	time.Sleep(10 * time.Millisecond)
	heap1, stack1 := memUsed()
	per := perActivity(heap0+stack0, heap1+stack1, n)
	return per, func() {
		close(ch)
		wg.Wait()
		// wg.Done runs before a goroutine has finished exiting. Wait until
		// the parked goroutines are gone, so none exits inside a later
		// measurement.
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// RecordPark allocates n continuation records representing the same
// blocked population and returns measured bytes per record. The returned
// slice keeps them live. A record lives on the heap and holds no stack,
// so only heap growth is charged to it: the runtime can hand back a
// stack span several collections after the stack was freed, and that
// must not be netted against the records.
func RecordPark(n int) (bytesPer float64, records []*Record) {
	before, _ := memUsed()
	records = make([]*Record, n)
	for i := 0; i < n; i++ {
		records[i] = &Record{ID: i, State: 1, Cont: func(r *Record) { r.State = 2 }}
	}
	after, _ := memUsed()
	return perActivity(before, after, n), records
}

// GoroutineSwitchNs measures one hop of a channel ping-pong between two
// goroutines — the goroutine-model control transfer.
func GoroutineSwitchNs(iters int) float64 {
	if iters <= 0 {
		iters = 100000
	}
	ping := make(chan struct{})
	pong := make(chan struct{})
	done := make(chan struct{})
	go func() {
		for {
			_, ok := <-ping
			if !ok {
				close(done)
				return
			}
			pong <- struct{}{}
		}
	}()
	start := time.Now()
	for i := 0; i < iters; i++ {
		ping <- struct{}{}
		<-pong
	}
	elapsed := time.Since(start)
	close(ping)
	<-done
	// Two transfers per round trip.
	return float64(elapsed.Nanoseconds()) / float64(iters) / 2
}

// ContinuationSwitchNs measures one hop of a trampoline ping-pong between
// two continuation records — the interrupt-model control transfer: no
// stack switch, just storing and calling a resumption.
func ContinuationSwitchNs(iters int) float64 {
	if iters <= 0 {
		iters = 100000
	}
	a := &Record{ID: 0}
	b := &Record{ID: 1}
	var current *Record
	hops := 0
	a.Cont = func(r *Record) { current = b }
	b.Cont = func(r *Record) { current = a }
	current = a
	start := time.Now()
	for hops = 0; hops < 2*iters; hops++ {
		c := current.Cont
		current.State++
		c(current)
	}
	elapsed := time.Since(start)
	_ = hops
	return float64(elapsed.Nanoseconds()) / float64(2*iters)
}

// Comparison bundles one full measurement for reporting.
type Comparison struct {
	Population        int
	GoroutineBytes    float64
	RecordBytes       float64
	SpaceRatio        float64
	GoroutineSwitchNs float64
	RecordSwitchNs    float64
	SwitchRatio       float64
}

// Measure runs the full comparison with a blocked population of n and
// stack depth frames.
func Measure(n, depth, switchIters int) Comparison {
	gBytes, release := GoroutinePark(n, depth)
	release()
	rBytes, records := RecordPark(n)
	runtime.KeepAlive(records)
	if rBytes < 1 {
		rBytes = 1
	}
	gSwitch := GoroutineSwitchNs(switchIters)
	rSwitch := ContinuationSwitchNs(switchIters)
	return Comparison{
		Population:        n,
		GoroutineBytes:    gBytes,
		RecordBytes:       rBytes,
		SpaceRatio:        gBytes / rBytes,
		GoroutineSwitchNs: gSwitch,
		RecordSwitchNs:    rSwitch,
		SwitchRatio:       gSwitch / rSwitch,
	}
}
