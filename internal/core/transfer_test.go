package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
)

// mustPanic runs f and requires it to panic with exactly want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want %q", want)
		}
		if got := fmt.Sprint(r); got != want {
			t.Fatalf("panic %q; want %q", got, want)
		}
	}()
	f()
}

// runOne starts a user thread running the given actions and drives the
// kernel to quiescence.
func runOne(k *core.Kernel, actions ...core.Action) {
	k.Setrun(k.NewThread(core.ThreadSpec{Name: core.NameOf("user"), SpaceID: 1, Program: &script{actions: actions}}))
	k.Run(0)
}

func TestFaultHandlerMustTransfer(t *testing.T) {
	k := newKernel(t, true, 1)
	k.HandleFault = func(e *core.Env, addr uint64, write bool) {}
	mustPanic(t, "core: fault handler returned instead of transferring control", func() {
		runOne(k, core.Action{Kind: core.ActFault, Addr: 0x4000})
	})
}

func TestExceptionHandlerMustTransfer(t *testing.T) {
	k := newKernel(t, true, 1)
	k.HandleException = func(e *core.Env, code int) {}
	mustPanic(t, "core: exception handler returned instead of transferring control", func() {
		runOne(k, core.Action{Kind: core.ActException, Code: 3})
	})
}

// TestActionMustTransfer pins the trampoline's check: a dispatcher
// action — here a thread's start continuation — that returns without
// transferring would leave the processor with a current thread and no
// next action.
func TestActionMustTransfer(t *testing.T) {
	k := newKernel(t, true, 1)
	lazy := core.NewContinuation("lazy_start", func(e *core.Env) {})
	k.Setrun(k.NewThread(core.ThreadSpec{Name: core.NameOf("lazy"), Start: lazy}))
	mustPanic(t, "core: action on processor 0 returned without transferring control (current thread 1 (lazy))", func() {
		k.Run(0)
	})
}

// TestInterruptHandlerMustNotTransfer pins TakeInterrupt's check: the
// handler borrows the running thread's stack and may not move control
// anywhere. The processor it ran on is left marked transferred, which
// Validate reports.
func TestInterruptHandlerMustNotTransfer(t *testing.T) {
	k := newKernel(t, true, 1)
	k.Clock.Schedule(k.Clock.Now()+1000, func(any) {
		k.TakeInterrupt("rogue", func(e *core.Env) { e.K.CallContinuation(e, sleepDone) })
	}, nil)
	// The interrupt lands between steps of a long user burst, so the
	// processor's current thread is the one whose stack it borrows.
	mustPanic(t, `core: interrupt handler "rogue" transferred control`, func() {
		runOne(k, core.RunFor(1_000_000))
	})
	want := "processor 0 still marked transferred outside the trampoline"
	if err := k.Validate(); err == nil || err.Error() != want {
		t.Fatalf("Validate = %v; want %q", err, want)
	}
}

// TestWorkAfterTransferPanicsUnderDebugChecks pins the DebugChecks
// guard: between a transfer and the trampoline no thread owns the
// processor, so charging, tracing or changing thread state there is a
// missing return. The calls go through a method value, which the static
// check (TestNotReached) cannot follow; the guard is the net for exactly
// such calls.
func TestWorkAfterTransferPanicsUnderDebugChecks(t *testing.T) {
	for _, tc := range []struct {
		op   string
		work func(e *core.Env)
	}{
		{"Charge", func(e *core.Env) { e.Charge(machine.Cost{Instrs: 1}) }},
		{"Trace", func(e *core.Env) { e.Trace(obs.KernelExit, "late") }},
		{"SetState", func(e *core.Env) { e.K.SetState(e.Cur(), core.StateRunnable) }},
		{"Setrun", func(e *core.Env) { e.K.Setrun(e.Cur()) }},
	} {
		t.Run(tc.op, func(t *testing.T) {
			k := newKernel(t, true, 1)
			k.DebugChecks = true
			late := core.Syscall("late", func(e *core.Env) {
				ret := e.K.ThreadSyscallReturn
				ret(e, 1)
				tc.work(e)
			})
			mustPanic(t, "core: "+tc.op+" after a transfer on processor 0, before the trampoline", func() {
				runOne(k, late)
			})
		})
	}
}
