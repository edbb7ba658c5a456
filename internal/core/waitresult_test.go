package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// wantPanic runs f and requires it to panic with exactly msg.
func wantPanic(t *testing.T, msg string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want %q", msg)
		}
		if got := fmt.Sprint(r); got != msg {
			t.Fatalf("panic %q, want %q", got, msg)
		}
	}()
	f()
}

// TestWaitResultGuards pins the two DebugChecks panics that keep a
// thread's one wait result from crossing subsystems: a second post
// before the first is consumed, and a return to user space with a
// result nobody consumed.
func TestWaitResultGuards(t *testing.T) {
	t.Run("post onto a held result", func(t *testing.T) {
		k := newKernel(t, true, 1)
		k.DebugChecks = true
		th := k.NewThread(core.ThreadSpec{Name: core.NameOf("w"), SpaceID: 1, Program: &script{}})
		k.PostWaitResult(th, 0x10004003)
		wantPanic(t, fmt.Sprintf("core: wait result 0x10004007 posted onto %v, which still holds 0x10004003", th), func() {
			k.PostWaitResult(th, 0x10004007)
		})
		if code, ok := th.TakeWaitResult(); !ok || code != 0x10004003 {
			t.Fatalf("TakeWaitResult = %#x, %v; want the first post", code, ok)
		}
		if code, ok := th.TakeWaitResult(); ok {
			t.Fatalf("second TakeWaitResult = %#x; want none", code)
		}
	})
	t.Run("return to user holding a result", func(t *testing.T) {
		k := newKernel(t, true, 1)
		k.DebugChecks = true
		prog := &script{actions: []core.Action{
			core.Syscall("leaky", func(e *core.Env) {
				// A kernel path that ignores how its wait ended.
				e.K.PostWaitResult(e.Cur(), 0x10004003)
				e.K.ThreadSyscallReturn(e, 0)
			}),
		}}
		th := k.NewThread(core.ThreadSpec{Name: core.NameOf("u"), SpaceID: 1, Program: prog})
		k.Setrun(th)
		wantPanic(t, fmt.Sprintf("core: %v returns to user space holding wait result 0x10004003", th), func() {
			k.Run(0)
		})
	})
}
