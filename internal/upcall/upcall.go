// Package upcall implements the §4 generalizations: kernel-to-user
// upcalls in the style of the x-kernel and Scheduler Activations, and
// continuation-based asynchronous I/O.
//
// Upcalls keep a pool of threads blocked in the kernel, each with a
// default "return to user level" continuation. To perform an upcall the
// kernel replaces the blocked thread's continuation with one that
// transfers control out of the kernel to a specific handler at user
// level — no thread creation, no register restore of a trapped context.
//
// Asynchronous I/O works the same way in the other direction: a thread
// schedules an I/O and provides the kernel with a continuation to be
// called when the I/O completes; if the completion arrives while the
// thread is blocked waiting, the waiting continuation is replaced by the
// I/O's own continuation, so resumption lands directly in the completion
// code.
package upcall

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/stats"
)

// Handler is the user-level body of an upcall. It returns the user
// action to run (typically a CPU burst); the pool thread then returns to
// its kernel wait.
type Handler func() core.Action

// Pool is a set of kernel threads parked for upcalls.
type Pool struct {
	sys  *kern.System
	task *kern.Task

	contWait  *core.Continuation
	contEntry *core.Continuation

	idle     []*core.Thread
	handlers map[int]Handler

	// Upcalls counts dispatched upcalls; Overflows counts requests that
	// found no idle thread.
	Upcalls   uint64
	Overflows uint64
	Completed uint64
}

// upcallDispatchCost is the kernel work to claim a pool thread and swap
// its continuation.
var upcallDispatchCost = machine.Cost{Instrs: 45, Loads: 12, Stores: 10}

// NewPool creates n pool threads in task and parks them in the kernel.
func NewPool(sys *kern.System, task *kern.Task, n int) *Pool {
	p := &Pool{
		sys:      sys,
		task:     task,
		handlers: make(map[int]Handler),
	}
	// The default continuation: return to user level and re-enter the
	// wait (nothing happened; used for pool drain/shutdown paths).
	p.contWait = core.NewContinuation("upcall_pool_wait", func(e *core.Env) {
		sys.K.ThreadSyscallReturn(e, 0)
	})
	// The replacement continuation: transfer out of the kernel to the
	// registered user-level handler.
	p.contEntry = core.NewContinuation("upcall_entry", func(e *core.Env) {
		sys.K.ThreadSyscallReturn(e, 1)
	})
	for i := 0; i < n; i++ {
		th := task.NewNamedThread(core.IndexedName("upcall-", i), p.program(), 25)
		sys.Start(th)
	}
	return p
}

// program is the pool thread's user program: park in the kernel; when
// resumed with an upcall pending, run its handler, then park again.
func (p *Pool) program() core.UserProgram {
	return core.ProgramFunc(func(e *core.Env, t *core.Thread) core.Action {
		if h, ok := p.handlers[t.ID]; ok {
			delete(p.handlers, t.ID)
			act := h()
			p.Completed++
			return act
		}
		return core.Syscall("upcall_wait", func(e *core.Env) {
			th := e.Cur()
			e.K.SetState(th, core.StateWaiting)
			th.WaitLabel = "upcall: parked"
			p.idle = append(p.idle, th)
			p.sys.K.Block(e, stats.BlockInternal, p.contWait, nil, 128, "upcall-wait")
		})
	})
}

// Idle reports how many pool threads are parked.
func (p *Pool) Idle() int { return len(p.idle) }

// Upcall dispatches h on a parked pool thread by replacing its default
// continuation with the handler entry. It returns false when the pool is
// exhausted. Callable from events and kernel paths.
func (p *Pool) Upcall(h Handler) bool {
	for len(p.idle) > 0 {
		th := p.idle[0]
		p.idle = p.idle[1:]
		if th.State() != core.StateWaiting {
			continue
		}
		p.sys.K.Acct.Charge(upcallDispatchCost)
		p.handlers[th.ID] = h
		// The continuation replacement: the thread will resume at the
		// upcall entry, not its generic wait return.
		if p.sys.K.Flavor == core.MK40 {
			th.Cont = p.contEntry
		}
		p.Upcalls++
		p.sys.K.Setrun(th)
		return true
	}
	p.Overflows++
	return false
}

// ---------------------------------------------------------------------
// Asynchronous I/O.
// ---------------------------------------------------------------------

// completion is one finished I/O whose continuation awaits its thread.
type completion struct {
	cont *core.Continuation
}

// AsyncIO provides continuation-based asynchronous I/O: Submit schedules
// the operation and returns immediately; the supplied continuation runs
// when the I/O completes and the thread collects it.
type AsyncIO struct {
	sys *kern.System

	contWait *core.Continuation

	// ready holds completed I/O continuations per thread.
	ready map[int][]completion
	// inflight counts submitted-but-incomplete operations per thread.
	inflight map[int]int

	Submitted uint64
	Completed uint64
	// Replacements counts wait-continuations replaced in place by a
	// completion continuation.
	Replacements uint64
}

var submitCost = machine.Cost{Instrs: 60, Loads: 15, Stores: 12}

// NewAsyncIO installs the subsystem.
func NewAsyncIO(sys *kern.System) *AsyncIO {
	a := &AsyncIO{
		sys:      sys,
		ready:    make(map[int][]completion),
		inflight: make(map[int]int),
	}
	a.contWait = core.NewContinuation("aio_wait_continue", func(e *core.Env) {
		a.collect(e)
	})
	return a
}

// Submit schedules an asynchronous I/O of the given latency from inside
// a syscall handler and returns (the caller keeps running — that is the
// point). oncomplete is the continuation the kernel calls when the I/O
// completes and the thread waits for it.
func (a *AsyncIO) Submit(e *core.Env, latency machine.Duration, oncomplete *core.Continuation) {
	if oncomplete == nil {
		panic("upcall: async I/O without a completion continuation")
	}
	t := e.Cur()
	e.Charge(submitCost)
	a.Submitted++
	a.inflight[t.ID]++
	clock := a.sys.K.Clock
	clock.Schedule(clock.Now()+latency, func(any) { a.complete(t, oncomplete) }, nil)
}

// complete runs at I/O completion (interrupt context).
func (a *AsyncIO) complete(t *core.Thread, oncomplete *core.Continuation) {
	a.Completed++
	a.inflight[t.ID]--
	a.ready[t.ID] = append(a.ready[t.ID], completion{cont: oncomplete})
	if t.BlockedWith(a.contWait) {
		// Replace the generic wait continuation with the I/O's own:
		// resumption transfers straight into the completion code.
		a.ready[t.ID] = a.ready[t.ID][:len(a.ready[t.ID])-1]
		t.Cont = oncomplete
		a.Replacements++
		a.sys.K.Setrun(t)
		return
	}
	if t.State() == core.StateWaiting {
		// Blocked elsewhere (process model or another continuation):
		// just wake it; collect will find the completion.
		a.sys.K.Setrun(t)
	}
}

// Wait blocks the current thread until an I/O completes, then transfers
// to that I/O's continuation. Transfers control.
func (a *AsyncIO) Wait(e *core.Env) {
	t := e.Cur()
	if len(a.ready[t.ID]) > 0 {
		a.collect(e)
		return
	}
	if a.inflight[t.ID] == 0 {
		panic(fmt.Sprintf("upcall: %v waits with no I/O in flight", t))
	}
	e.K.SetState(t, core.StateWaiting)
	t.WaitLabel = "aio: wait"
	a.sys.K.Block(e, stats.BlockReceive, a.contWait, nil, 160, "aio-wait")
}

// collect transfers control to the next ready completion.
func (a *AsyncIO) collect(e *core.Env) {
	t := e.Cur()
	q := a.ready[t.ID]
	if len(q) == 0 {
		// Spurious wake: wait again.
		a.Wait(e)
		return
	}
	c := q[0]
	a.ready[t.ID] = q[1:]
	a.sys.K.CallContinuation(e, c.cont)
}
