package dev_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/fault"
	"repro/internal/kern"
	"repro/internal/machine"
)

// readerWithResult creates a thread that issues one device_read of the
// given size and records its return value.
func readerWithResult(sys *kern.System, bytes int) (*core.Thread, *uint64) {
	task := sys.NewTask("reader")
	ret := new(uint64)
	done := false
	prog := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
		if done {
			*ret = th.MD.RetVal
			return core.Exit()
		}
		done = true
		return core.Syscall("device_read", func(e *core.Env) {
			d := sys.Dev.Open(e, "disk")
			sys.Dev.DeviceRead(e, d, bytes)
		})
	})
	return task.NewThread("rd", prog, 10), ret
}

// quiesceClean asserts the post-recovery steady state: invariants hold
// and no callout is left armed.
func quiesceClean(t *testing.T, sys *kern.System) {
	t.Helper()
	sys.K.MustValidate()
	if got := sys.K.Clock.Pending(); got != 0 {
		t.Fatalf("leaked callouts: %d clock events still armed", got)
	}
}

func TestInjectedFailureExhaustsRetries(t *testing.T) {
	// Every completion fails: the read burns its whole retry budget and
	// returns D_IO_ERROR.
	sys := bootMK40(t)
	sys.K.DebugChecks = true
	sys.Dev.SetFaultPlan(fault.New(7, fault.Spec{DeviceFailProb: 1}))
	th, ret := readerWithResult(sys, 4096)
	sys.Start(th)
	sys.Run(0)
	if th.State() != core.StateHalted {
		t.Fatalf("reader stuck in %v (%q)", th.State(), th.WaitLabel)
	}
	if *ret != dev.DevIOError {
		t.Fatalf("retval = %d, want DevIOError", *ret)
	}
	if sys.Dev.IoRetries != 3 {
		t.Fatalf("retries = %d, want IoMaxRetries (3)", sys.Dev.IoRetries)
	}
	if sys.Dev.IoFailures != 4 {
		t.Fatalf("injected failures = %d, want 4 (initial + 3 retries)", sys.Dev.IoFailures)
	}
	quiesceClean(t, sys)
}

func TestTransientFailureRecoversByRetry(t *testing.T) {
	// Pick a seed whose first failure draw hits and second misses: the
	// initial request fails, the single retry succeeds, and the caller
	// sees a normal byte count.
	spec := fault.Spec{DeviceFailProb: 0.5}
	seed := uint64(0)
	for s := uint64(1); s < 1000; s++ {
		p := fault.New(s, spec)
		if p.DeviceFail("disk") && !p.DeviceFail("disk") {
			seed = s
			break
		}
	}
	if seed == 0 {
		t.Fatal("no suitable seed found")
	}
	sys := bootMK40(t)
	sys.K.DebugChecks = true
	sys.Dev.SetFaultPlan(fault.New(seed, spec))
	th, ret := readerWithResult(sys, 4096)
	sys.Start(th)
	sys.Run(0)
	if *ret != 4096 {
		t.Fatalf("retval = %d, want 4096", *ret)
	}
	if sys.Dev.IoRetries != 1 || sys.Dev.IoFailures != 1 {
		t.Fatalf("retries=%d failures=%d, want 1/1", sys.Dev.IoRetries, sys.Dev.IoFailures)
	}
	if th.State() != core.StateHalted {
		t.Fatalf("reader stuck in %v", th.State())
	}
	quiesceClean(t, sys)
}

func TestIoTimeoutExhaustsRetries(t *testing.T) {
	// The timeout is far below the disk's service time: every attempt
	// expires, the waiter detaches, the late completions arrive orphaned
	// and are discarded, and the caller gets DevTimedOut.
	sys := bootMK40(t) // 500 µs disk
	sys.K.DebugChecks = true
	sys.Dev.IoTimeout = machine.Duration(100 * 1000) // 100 µs
	th, ret := readerWithResult(sys, 4096)
	sys.Start(th)
	sys.Run(0)
	if *ret != dev.DevTimedOut {
		t.Fatalf("retval = %d, want DevTimedOut", *ret)
	}
	if sys.Dev.IoTimeouts != 4 {
		t.Fatalf("timeouts = %d, want 4 (initial + 3 retries)", sys.Dev.IoTimeouts)
	}
	if sys.Dev.IoRetries != 3 {
		t.Fatalf("retries = %d, want 3", sys.Dev.IoRetries)
	}
	quiesceClean(t, sys)
}

func TestIoTimeoutDisarmedByCompletion(t *testing.T) {
	// The generous timeout loses to the completion interrupt: the read
	// succeeds normally and the armed timeout is cancelled, not left to
	// fire into a finished request.
	sys := bootMK40(t)
	sys.K.DebugChecks = true
	sys.Dev.IoTimeout = machine.Duration(10 * 1000 * 1000) // 10 ms
	th, ret := readerWithResult(sys, 4096)
	sys.Start(th)
	sys.Run(0)
	if *ret != 4096 {
		t.Fatalf("retval = %d, want 4096", *ret)
	}
	if sys.Dev.IoTimeouts != 0 || sys.Dev.IoRetries != 0 {
		t.Fatalf("timeouts=%d retries=%d, want 0/0", sys.Dev.IoTimeouts, sys.Dev.IoRetries)
	}
	quiesceClean(t, sys)
}

func TestInjectedLatencySlowsCompletion(t *testing.T) {
	// A latency spike delays the transfer but does not fail it.
	extra := machine.Duration(2 * 1000 * 1000) // 2 ms
	sys := bootMK40(t)
	sys.Dev.SetFaultPlan(fault.New(3, fault.Spec{DeviceSlowProb: 1, DeviceSlowExtra: extra}))
	th, ret := readerWithResult(sys, 4096)
	sys.Start(th)
	sys.Run(0)
	if *ret != 4096 {
		t.Fatalf("retval = %d, want 4096", *ret)
	}
	if got := sys.K.Clock.Now(); got < machine.Time(fastDisk+extra) {
		t.Fatalf("completed at %v, before service+spike (%v)", got, fastDisk+extra)
	}
	if sys.Dev.Fault.Stats.DeviceSlowdowns != 1 {
		t.Fatalf("slowdowns = %d, want 1", sys.Dev.Fault.Stats.DeviceSlowdowns)
	}
	quiesceClean(t, sys)
}

func TestFaultPlanDeterminism(t *testing.T) {
	// Two systems with the same seed and spec produce bit-identical fault
	// histories and counters.
	run := func() (uint64, fault.Stats, machine.Time) {
		sys := bootMK40(t)
		sys.K.DebugChecks = true
		sys.Dev.SetFaultPlan(fault.New(99, fault.Spec{
			DeviceFailProb: 0.3,
			DeviceSlowProb: 0.3, DeviceSlowExtra: machine.Duration(1_000_000),
		}))
		for i := 0; i < 3; i++ {
			th, _ := readerWithResult(sys, 2048)
			sys.Start(th)
		}
		sys.Run(0)
		quiesceClean(t, sys)
		return sys.Dev.IoRetries, sys.Dev.Fault.Stats, sys.K.Clock.Now()
	}
	r1, s1, t1 := run()
	r2, s2, t2 := run()
	if r1 != r2 || s1 != s2 || t1 != t2 {
		t.Fatalf("runs diverged: %d/%+v/%v vs %d/%+v/%v", r1, s1, t1, r2, s2, t2)
	}
}

// TestInvariantOneRequestPerWaiter: AbortWaiter, ReleaseThread and
// Residue find a thread's request with one lookup that stops at the
// first match, which is right only while a thread waits on at most one
// request, and on none while its retry backoff is armed. The invariant
// sweep flags a second request naming the waiter in either state.
func TestInvariantOneRequestPerWaiter(t *testing.T) {
	sys := bootMK40(t)
	sys.Dev.SetFaultPlan(fault.New(7, fault.Spec{DeviceFailProb: 1}))
	th, _ := readerWithResult(sys, 4096)
	sys.Start(th)
	for sys.K.StepNoAdvance() {
	}
	sys.K.MustValidate() // th waits on its in-flight read
	stray := &dev.Request{Label: "stray", Bytes: 512, Waiter: th}
	sys.Disk.Submit(stray)
	if err := sys.K.Validate(); err == nil || !strings.Contains(err.Error(), "waits on requests in both disk inflight and disk queue") {
		t.Fatalf("second request of one waiter: Validate = %v", err)
	}
	stray.Waiter = nil
	for !strings.HasPrefix(th.WaitLabel, "device retry") {
		if !sys.K.Step() {
			t.Fatal("the failing read never parked on its retry backoff")
		}
	}
	sys.K.MustValidate()
	sys.Disk.Submit(&dev.Request{Label: "stray", Bytes: 512, Waiter: th})
	if err := sys.K.Validate(); err == nil || !strings.Contains(err.Error(), "while its retry backoff is armed") {
		t.Fatalf("request of a thread in retry backoff: Validate = %v", err)
	}
}
