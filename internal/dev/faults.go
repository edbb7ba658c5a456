package dev

// This file is the fault-injection and recovery half of the device
// subsystem: injected request failures and latency spikes (from a
// fault.Plan), the I/O timeout arm on device_read/device_write, bounded
// retry with exponential backoff resuming through the
// device_read_continue family, thread_abort support, and the dev
// contribution to the kernel invariant sweep.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Device I/O return codes (D_SUCCESS is the byte count; errors are
// distinct small codes after Mach's device interface).
const (
	// DevIOError is D_IO_ERROR: the device reported a hard failure.
	DevIOError uint64 = 2500
	// DevTimedOut means the request's I/O timeout expired before the
	// completion interrupt arrived.
	DevTimedOut uint64 = 2530
	// DevAborted means the blocked thread was cancelled by thread_abort
	// while waiting on the request.
	DevAborted uint64 = 2531
)

// SetFaultPlan installs a fault plan; device_read/device_write requests
// consult it for injected failures and latency spikes. Nil uninstalls.
func (s *Subsystem) SetFaultPlan(p *fault.Plan) { s.Fault = p }

// submitIO builds and submits a user I/O request for the current thread,
// arming the I/O timeout when one is configured. The caller then blocks
// with expect. Scratch layout for the retry path: word 0 = bytes,
// word 1 = attempt count, word 2 = 1 for a write (set by retryOrFail),
// ref = the device.
func (s *Subsystem) submitIO(t *core.Thread, d *Device, label string, bytes int,
	expect *core.Continuation, inline func(e *core.Env)) {
	r := &Request{
		Label:   label,
		Bytes:   bytes,
		CanFail: true,
		Waiter:  t,
		Expect:  expect,
		Inline:  inline,
	}
	if s.IoTimeout > 0 {
		s.bindTimers()
		r.timeout = s.K.Clock.Schedule(s.K.Clock.Now()+s.IoTimeout, s.ioTimedOutFn, r)
	}
	d.Submit(r)
}

// bindTimers binds the I/O timeout's and the retry backoff's actions.
func (s *Subsystem) bindTimers() {
	if s.retryFn == nil {
		s.ioTimedOutFn, s.retryFn = s.ioTimedOut, s.retry
	}
}

// ioTimedOut is the I/O timeout's action: detach the request's waiter and
// wake it with DevTimedOut. If the transfer lands later the io_done
// thread discards the orphaned completion.
func (s *Subsystem) ioTimedOut(arg any) {
	r := arg.(*Request)
	r.timeout = nil
	w := r.Waiter
	if w == nil || w.State() != core.StateWaiting {
		return
	}
	r.Waiter = nil
	s.IoTimeouts++
	s.K.PostWaitResult(w, DevTimedOut)
	s.K.Setrun(w)
}

// disarmTimeout cancels a request's armed I/O timeout, if any, and drops
// the handle: the event is back on the clock's free list.
func (s *Subsystem) disarmTimeout(r *Request) {
	if r.timeout != nil {
		s.K.Clock.Cancel(r.timeout)
		r.timeout = nil
	}
}

// retryOrFail handles a failed or timed-out device_read/device_write in
// the waiter's own context: return the error once the retry budget is
// spent, otherwise park for an exponential backoff and resubmit the
// request when the timer fires, re-blocking with the same device
// continuation. Transfers control.
func (s *Subsystem) retryOrFail(e *core.Env, code uint64, cont *core.Continuation) {
	t := e.Cur()
	d, _ := t.Scratch.Ref().(*Device)
	attempt := int(t.Scratch.Word(1))
	if code == DevAborted || d == nil || attempt >= s.IoMaxRetries {
		s.K.ThreadSyscallReturn(e, code)
		return
	}
	attempt++
	t.Scratch.PutWord(1, uint32(attempt))
	write := uint32(0)
	if cont == s.ContDeviceWrite {
		write = 1
	}
	t.Scratch.PutWord(2, write)
	s.IoRetries++
	backoff := s.IoRetryBackoff << uint(attempt-1)
	s.bindTimers()
	s.pendingRetry[t.ID] = s.K.Clock.Schedule(s.K.Clock.Now()+backoff, s.retryFn, t)
	e.K.SetState(t, core.StateWaiting)
	t.WaitLabel = "device retry: " + d.Name
	s.K.Block(e, stats.BlockDeviceIO, cont, nil, 192, "device-retry")
}

// retry is the retry backoff's action: resubmit the request that thread
// arg parked on, as its scratch area describes it.
func (s *Subsystem) retry(arg any) {
	t := arg.(*core.Thread)
	delete(s.pendingRetry, t.ID)
	d := t.Scratch.Ref().(*Device)
	bytes := int(t.Scratch.Word(0))
	if t.Scratch.Word(2) == 1 {
		s.submitIO(t, d, "write-retry", bytes, s.ContDeviceWrite, s.deviceWriteContinue)
		return
	}
	s.submitIO(t, d, "read-retry", bytes, s.ContDeviceRead, s.deviceReadContinue)
}

// AbortWaiter cancels t's pending device operation — whether the request
// is queued, in flight, awaiting io_done processing, or parked on a
// retry backoff — cancelling any armed callouts, and returns DevAborted.
// ok=false when t is not blocked in the device layer. The thread itself
// is untouched; kern's thread_abort resumes it.
func (s *Subsystem) AbortWaiter(t *core.Thread) (code uint64, ok bool) {
	if ev := s.pendingRetry[t.ID]; ev != nil {
		s.K.Clock.Cancel(ev)
		delete(s.pendingRetry, t.ID)
		return DevAborted, true
	}
	r := s.waitedOn(t)
	if r == nil {
		return 0, false
	}
	r.Waiter = nil
	s.disarmTimeout(r)
	return DevAborted, true
}

// waitedOn returns the request t is the waiter of — queued, in service,
// or completed and awaiting io_done — or nil. A thread waits on at most
// one request, and on none while its retry backoff is armed
// (checkInvariants).
func (s *Subsystem) waitedOn(t *core.Thread) *Request {
	for _, d := range s.devices {
		if d.inflight != nil && d.inflight.Waiter == t {
			return d.inflight
		}
		for _, r := range d.queue.live() {
			if r.Waiter == t {
				return r
			}
		}
	}
	for _, r := range s.completions.live() {
		if r.Waiter == t {
			return r
		}
	}
	return nil
}

// ReleaseThread drops the device-layer state still charged to a thread
// that will never run again: an armed retry backoff, or the request it
// waits on, which is detached so a completion landing after the reap is
// discarded as an orphan. That is exactly an abort whose code is
// dropped. The kern reaper calls this (with ipc.ReleaseThread) on every
// reap and asserts the census is clean afterwards.
func (s *Subsystem) ReleaseThread(t *core.Thread) { s.AbortWaiter(t) }

// Residue counts device-layer state still attached to a thread — zero
// after ReleaseThread.
func (s *Subsystem) Residue(t *core.Thread) int {
	n := 0
	if s.pendingRetry[t.ID] != nil {
		n++
	}
	if s.waitedOn(t) != nil {
		n++
	}
	return n
}

// PendingIO counts requests accepted but not yet resolved — queued, in
// service, or completed but not yet processed by the io_done thread.
// The crash panic record captures it.
func (s *Subsystem) PendingIO() int {
	n := s.completions.size()
	for _, d := range s.devices {
		n += d.queue.size()
		if d.inflight != nil {
			n++
		}
	}
	return n
}

// checkInvariants is the dev contribution to the kernel invariant sweep
// (registered by NewSubsystem, run by core.Kernel.Validate): every
// request waiter is actually waiting, a thread is the waiter of at most
// one request and of none while its retry backoff is armed (waitedOn
// relies on both), and no detached request still holds an armed I/O
// timeout.
func (s *Subsystem) checkInvariants() error {
	waiters := make(map[int]string) // thread ID -> where its request is
	check := func(r *Request, where string) error {
		if r.Waiter == nil {
			if r.timeout.Pending() {
				return fmt.Errorf("dev: detached %s request %q holds a live timeout", where, r.Label)
			}
			return nil
		}
		if r.Waiter.State() != core.StateWaiting {
			return fmt.Errorf("dev: %s request %q waiter %v is %v, not waiting",
				where, r.Label, r.Waiter, r.Waiter.State())
		}
		if prev, dup := waiters[r.Waiter.ID]; dup {
			return fmt.Errorf("dev: %v waits on requests in both %s and %s", r.Waiter, prev, where)
		}
		waiters[r.Waiter.ID] = where
		return nil
	}
	for _, d := range s.devices {
		if d.inflight != nil {
			if err := check(d.inflight, d.Name+" inflight"); err != nil {
				return err
			}
		}
		for _, r := range d.queue.live() {
			if err := check(r, d.Name+" queue"); err != nil {
				return err
			}
		}
	}
	for _, r := range s.completions.live() {
		if err := check(r, "completion"); err != nil {
			return err
		}
	}
	for id, ev := range s.pendingRetry {
		if !ev.Pending() {
			return fmt.Errorf("dev: retry entry for thread %d holds a dead callout", id)
		}
		if where, ok := waiters[id]; ok {
			return fmt.Errorf("dev: thread %d waits on a request in %s while its retry backoff is armed", id, where)
		}
	}
	return nil
}

// injectCompletion applies the fault plan to a completing request in
// interrupt context (the device "reporting" a transfer error).
func (s *Subsystem) injectCompletion(d *Device, r *Request) {
	if r.CanFail && r.Err == 0 && s.Fault.DeviceFail(d.Name) {
		r.Err = DevIOError
		s.IoFailures++
		s.emitFault(r.Waiter, d.Name+" fail")
	}
}

// emitFault records a fault-plan firing against the waiting thread (or
// anonymously when the fault hits between waiters).
func (s *Subsystem) emitFault(t *core.Thread, detail string) {
	rec := s.K.Obs
	if rec == nil {
		return
	}
	tid := 0
	if t != nil {
		tid = t.ID
	}
	rec.Emit(obs.FaultInject, tid, detail)
}

// injectLatency applies the fault plan's latency spike to a request
// entering service.
func (s *Subsystem) injectLatency(d *Device, r *Request) machine.Duration {
	if !r.CanFail {
		return 0
	}
	extra := s.Fault.DeviceDelay(d.Name)
	if extra > 0 {
		s.emitFault(r.Waiter, fmt.Sprintf("%s slow +%dus", d.Name, uint64(extra)/1000))
	}
	return extra
}
