package core

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/obs"
)

// ThreadState is the scheduling state of a kernel thread.
type ThreadState uint8

const (
	// StateRunning means the thread is executing on some processor.
	StateRunning ThreadState = iota
	// StateRunnable means the thread is ready and waiting for a
	// processor (on a run queue or about to be placed on one).
	StateRunnable
	// StateWaiting means the thread is blocked on an event.
	StateWaiting
	// StateHalted means the thread has exited and awaits reaping.
	StateHalted
)

func (s ThreadState) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateRunnable:
		return "runnable"
	case StateWaiting:
		return "waiting"
	case StateHalted:
		return "halted"
	default:
		return fmt.Sprintf("ThreadState(%d)", int(s))
	}
}

// Mode says whether a thread is conceptually executing user code or
// kernel code.
type Mode uint8

const (
	// ModeUser means the thread's next step is a user action.
	ModeUser Mode = iota
	// ModeKernel means the thread is inside the kernel.
	ModeKernel
)

// UserReturnKind distinguishes the two return-to-user continuations the
// trap machinery creates at kernel entry (§2.1): system calls return a
// value; exceptions and interrupts return none.
type UserReturnKind uint8

const (
	// ReturnNone means the thread holds no user context (a pure kernel
	// thread).
	ReturnNone UserReturnKind = iota
	// ReturnSyscall means the thread entered via a system call.
	ReturnSyscall
	// ReturnException means the thread entered via an exception, fault
	// or interrupt.
	ReturnException
)

// Thread is the kernel's machine-independent thread structure. Alongside
// scheduling state it carries the two fields the paper adds for
// continuation support: the continuation slot (a 4-byte function pointer)
// and the 28-byte scratch area (§3.4, Table 5).
//
// A blocked thread's host cost is this record, so its layout is kept
// tight: the one-byte states and flags sit together, and larger saved
// state lives behind Scratch's one reference. TestThreadLayout pins the
// size.
type Thread struct {
	ID   int
	Name string

	// state is the scheduling state, read through State and written only
	// through Kernel.SetState, which keeps the kernel's waiting count
	// exact.
	state ThreadState

	// Mode records whether the thread is in user or kernel space.
	Mode Mode

	// UserReturn records which return-to-user continuation kernel entry
	// created for the current trap.
	UserReturn UserReturnKind

	// Internal marks kernel-internal service threads (pageout daemon,
	// net handler); their blocks are tallied under Table 1's "internal
	// threads" row.
	Internal bool

	// NoStats excludes a thread (e.g. the idle thread) from block
	// statistics so that idling does not pollute Table 1.
	NoStats bool

	// WakeupPending absorbs a wakeup that races with the block (the
	// classic lost-wakeup guard: wakeups latch, blocks consume).
	WakeupPending bool

	// queued tracks run-queue membership so that a thread woken by an
	// event while its post-block disposal is still pending is not queued
	// a second time by thread_dispatch.
	queued bool

	// disposalPending marks the window between a context switch away
	// from this thread and the thread_dispatch that frees its stack.
	disposalPending bool

	// reaped marks a thread ReapHalted has handed out. It stays in the
	// registry until the next compaction; every registry walker already
	// skips halted threads.
	reaped bool

	// Cont is the thread's continuation while blocked in the interrupt
	// style; nil for a thread blocked under the process model or running.
	Cont *Continuation

	// Scratch is the 28-byte save area used with Cont.
	Scratch Scratch

	// Stack is the attached kernel stack; nil while the thread is blocked
	// with a continuation (the stack was discarded or handed off).
	Stack *machine.Stack

	// MD is the machine-dependent register save area. In an MK40-style
	// kernel this is a separate structure (206 bytes on the DS3100); in
	// MK32 it lives on the thread's kernel stack. The simulator keeps it
	// here in both cases and lets the space model charge it per flavor.
	MD machine.Context

	// SpaceID identifies the address space (task) the thread belongs to;
	// control transfers between different spaces charge the address-space
	// switch cost. Space 0 is the kernel.
	SpaceID int

	// Program supplies user-mode actions for user threads; nil for
	// threads that live entirely in the kernel.
	Program UserProgram

	// Priority orders run queues; larger is more urgent.
	Priority int

	// QuantumRemaining is the simulated nanoseconds left before the
	// thread is preempted; the scheduler refreshes it on dispatch.
	QuantumRemaining machine.Duration

	// PendingBurst is the unfinished remainder of a user CPU burst that
	// was interrupted by a preemption; it resumes before the program's
	// next action.
	PendingBurst machine.Duration

	// UntilTick is the user CPU time left until this thread's next clock
	// tick, the point where a pending AST preemption can catch it.
	UntilTick machine.Duration

	// UserTime and KernelEntries are per-thread usage accounting.
	UserTime      machine.Duration
	KernelEntries uint64

	// WaitLabel describes what the thread is blocked on, for diagnostics.
	WaitLabel string

	// waitResult is how the thread's last wait ended when it did not end
	// in the awaited event (Mach's wait_result): a timeout, a dead port,
	// a device error, an abort. Subsystem codes are nonzero, so zero
	// means none. The waker posts it through Kernel.PostWaitResult and
	// the resuming continuation consumes it through TakeWaitResult.
	waitResult uint64

	// Trace is the causal-trace context the thread currently acts under:
	// stamped onto messages it sends (when they carry none) and adopted
	// from messages it receives, so one operation's context follows the
	// control transfers that serve it. The zero context means untraced.
	Trace obs.TraceContext
}

// State returns the thread's scheduling state.
func (t *Thread) State() ThreadState { return t.state }

// PostWaitResult records how waiting thread t's wait ended: the nonzero
// code its resuming continuation completes the operation with. The
// waker still makes t runnable. Under DebugChecks, posting onto a thread
// that still holds a result panics: a wait ends once, and a result left
// over would end the thread's next wait in another subsystem.
func (k *Kernel) PostWaitResult(t *Thread, code uint64) {
	if k.DebugChecks && t.waitResult != 0 {
		panic(fmt.Sprintf("core: wait result %#x posted onto %v, which still holds %#x", code, t, t.waitResult))
	}
	t.waitResult = code
}

// TakeWaitResult consumes the result posted for the thread's last wait;
// ok is false when the wait ended in the awaited event.
func (t *Thread) TakeWaitResult() (code uint64, ok bool) {
	code, t.waitResult = t.waitResult, 0
	return code, code != 0
}

// Queued reports whether the thread is currently on a run queue.
func (t *Thread) Queued() bool { return t.queued }

func (t *Thread) String() string {
	if t == nil {
		return "<no thread>"
	}
	return fmt.Sprintf("thread %d (%s)", t.ID, t.Name)
}

// Blocked reports whether the thread is waiting.
func (t *Thread) Blocked() bool { return t.state == StateWaiting }

// BlockedWith reports whether the thread is blocked in the interrupt
// style at exactly the given continuation — the predicate behind
// continuation recognition.
func (t *Thread) BlockedWith(c *Continuation) bool {
	return t.state == StateWaiting && t.Cont == c
}

// HasStack reports whether a kernel stack is attached.
func (t *Thread) HasStack() bool { return t.Stack != nil }

// UserProgram supplies the simulated user-mode behaviour of a thread: a
// deterministic script or generator that yields one Action at a time.
// The program observes system call results through the thread's saved
// context (MD.RetVal).
type UserProgram interface {
	// Next returns the thread's next user-mode action. It is called each
	// time the thread is about to run in user mode.
	Next(e *Env, t *Thread) Action
}

// ActionKind enumerates the user-mode actions a program can take.
type ActionKind int

const (
	// ActRun burns user CPU for Action.Cycles simulated cycles.
	ActRun ActionKind = iota
	// ActSyscall traps into the kernel and runs Action.Invoke, which must
	// transfer control before it returns.
	ActSyscall
	// ActFault takes a user-level page fault at Action.Addr.
	ActFault
	// ActException raises a user-level exception with Action.Code.
	ActException
	// ActYield voluntarily relinquishes the processor (thread_switch).
	ActYield
	// ActExit terminates the thread.
	ActExit
)

func (k ActionKind) String() string {
	switch k {
	case ActRun:
		return "run"
	case ActSyscall:
		return "syscall"
	case ActFault:
		return "fault"
	case ActException:
		return "exception"
	case ActYield:
		return "yield"
	case ActExit:
		return "exit"
	default:
		return fmt.Sprintf("ActionKind(%d)", int(k))
	}
}

// Action is one user-mode step.
type Action struct {
	Kind ActionKind

	// Cycles is the CPU burst length for ActRun, in processor cycles.
	Cycles uint64

	// Invoke is the kernel-mode body of an ActSyscall. It runs after
	// kernel entry and must transfer control, through an operation such
	// as ThreadSyscallReturn or Block, before it returns.
	Invoke func(*Env)

	// Name labels the syscall for traces.
	Name string

	// Addr is the faulting address for ActFault.
	Addr uint64

	// Write marks an ActFault as a store (write faults trigger
	// copy-on-write resolution).
	Write bool

	// Code is the exception code for ActException.
	Code int
}

// RunFor is shorthand for a CPU burst action.
func RunFor(cycles uint64) Action { return Action{Kind: ActRun, Cycles: cycles} }

// Syscall is shorthand for a system call action.
func Syscall(name string, invoke func(*Env)) Action {
	return Action{Kind: ActSyscall, Name: name, Invoke: invoke}
}

// Exit is the terminal action.
func Exit() Action { return Action{Kind: ActExit} }

// ProgramFunc adapts a function to the UserProgram interface.
type ProgramFunc func(e *Env, t *Thread) Action

// Next implements UserProgram.
func (f ProgramFunc) Next(e *Env, t *Thread) Action { return f(e, t) }
