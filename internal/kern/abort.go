package kern

// This file implements thread_abort, the recovery operation the paper's
// continuation machinery makes cheap: cancelling a thread blocked deep in
// the kernel. Under the process model an abort must unwind a preserved
// kernel stack holding arbitrary callee state; with continuations the
// blocked thread is just a continuation pointer plus 28 bytes of scratch,
// so aborting is dequeue-from-wait-list, cancel callouts, repoint the
// continuation, Setrun.

import (
	"repro/internal/core"
	"repro/internal/obs"
)

// ThreadAbort cancels a thread blocked in an interruptible kernel
// operation — a mach_msg receive (port or port set), a mach_msg send
// parked on a full queue, or a device_read/device_write in any phase
// (queued, in flight, timed out into a retry backoff). The thread is
// dequeued from whatever waiter list holds it, its armed callouts are
// cancelled, its scratch state is freed, and it is resumed at the abort
// continuation, which returns the operation's interruption code
// (ipc.RcvInterrupted, ipc.SendInterrupted or dev.DevAborted) to user
// space. Returns false when the thread is not blocked in an abortable
// operation: running, runnable, halted, or waiting on a non-interruptible
// event (kernel memory, locks, retry-free internal waits).
func (s *System) ThreadAbort(t *core.Thread) bool {
	if t.State() != core.StateWaiting {
		return false
	}
	code, ok := s.IPC.AbortWaiter(t)
	if !ok && s.Dev != nil {
		code, ok = s.Dev.AbortWaiter(t)
	}
	if !ok {
		return false
	}
	s.K.PostWaitResult(t, code)
	if r := s.K.Obs; r.TakesEvents() {
		r.Emit(obs.Abort, t.ID, t.WaitLabel)
	}
	t.Scratch.Reset()
	s.K.AbortToContinuation(t, s.contAborted)
	s.K.Setrun(t)
	return true
}

// abortReturn is the abort continuation: running in the aborted thread's
// own context at its next dispatch, it completes the cancelled operation
// with the interruption code posted as the thread's wait result.
// Transfers control.
func (s *System) abortReturn(e *core.Env) {
	t := e.Cur()
	code, _ := t.TakeWaitResult()
	if t.UserReturn == core.ReturnException {
		s.K.ThreadExceptionReturn(e)
		return
	}
	s.K.ThreadSyscallReturn(e, code)
}
