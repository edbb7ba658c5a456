package core

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Scheduler is the policy interface the control-transfer engine consults.
// The mechanism/policy split mirrors Mach's: core moves control between
// threads; sched decides which thread.
type Scheduler interface {
	// SelectThread removes and returns the next runnable thread for the
	// processor, or nil when nothing is runnable.
	SelectThread(p *Processor) *Thread
	// Setrun places a runnable thread on a run queue.
	Setrun(t *Thread)
	// HasWork reports whether any thread is queued.
	HasWork() bool
	// MaxQueuedPriority returns the highest priority among queued
	// threads, and false when the queue is empty. It drives AST-style
	// preemption: handoff scheduling bypasses the run queue, so without
	// this check a queued high-priority thread could starve behind a
	// handoff chain.
	MaxQueuedPriority() (int, bool)
	// Quantum returns the time slice to grant a thread at dispatch.
	Quantum() machine.Duration
}

// Processor models one CPU of the simulated machine. The current thread's
// kernel stack is, in effect, the processor's stack — the paper's central
// space claim is that this is the only stack a processor needs.
type Processor struct {
	ID int

	// Cur is the thread executing on this processor; nil when parked.
	Cur *Thread

	// Prev is the thread that ran immediately before the current one,
	// passed to thread_continue/thread_dispatch on resumption.
	Prev *Thread

	// pending is the next dispatcher action (the trampoline slot).
	pending func(*Env)

	// transferred marks that the running action has named pending and
	// is returning to the trampoline; see transfer.
	transferred bool

	// dispose is a thread whose post-switch cleanup (thread_dispatch) is
	// owed before the next pending action runs. Keeping it here instead of
	// wrapping pending in a closure keeps the dispatch path allocation-free.
	dispose *Thread

	// attached is the continuation of a stack StackAttach initialized,
	// handed from resumeOn to threadContinueStep the same way: the frame
	// carries the continuation, not a closure over it.
	attached *Continuation

	// env is the processor's reusable execution environment. Env is
	// immutable, so every dispatch and interrupt on this processor can
	// share one value instead of allocating per step.
	env Env
}

// Env is the kernel execution environment handed to every kernel-mode
// function: which kernel and which processor the code is running on.
type Env struct {
	K *Kernel
	P *Processor
}

// Cur returns the thread currently running on this processor.
func (e *Env) Cur() *Thread { return e.P.Cur }

// transfer is where every terminal control-transfer operation ends. MK40
// resets the stack pointer and jumps; the simulator names the processor's
// next action and marks the transfer, and every caller then returns at
// once, up to the trampoline (invoke) — the code after a terminal call is
// the paper's /*NOTREACHED*/. act may be nil: the processor parks.
func (p *Processor) transfer(act func(*Env)) {
	p.pending = act
	p.transferred = true
}

// Transferred reports whether a terminal operation has transferred
// control during the current action. A caller of a function that
// transfers on some paths only checks it and returns when it is set.
func (e *Env) Transferred() bool { return e.P.transferred }

// afterTransfer is the DebugChecks guard on work done between a transfer
// and the trampoline: that work runs in no thread's context.
func (k *Kernel) afterTransfer(op string) {
	for _, p := range k.Procs {
		if p.transferred {
			panic(fmt.Sprintf("core: %s after a transfer on processor %d, before the trampoline", op, p.ID))
		}
	}
}

// Charge records simulated work against the kernel's cost accumulator.
func (e *Env) Charge(c machine.Cost) {
	if e.P.transferred && e.K.DebugChecks {
		e.K.afterTransfer("Charge")
	}
	e.K.Acct.Charge(c)
}

// Trace emits an observability event naming the current thread. A nil
// recorder (the default) makes this a nil check and nothing more; call
// sites that would pay formatting costs for the detail string build it
// only when e.K.Obs retains events, and pass "" otherwise.
func (e *Env) Trace(kind obs.Kind, detail string) {
	if e.P.transferred && e.K.DebugChecks {
		e.K.afterTransfer("Trace")
	}
	r := e.K.Obs
	if r == nil {
		return
	}
	name := "<parked>"
	tid := 0
	if e.P.Cur != nil {
		name = e.P.Cur.Name
		tid = e.P.Cur.ID
	}
	r.Emit(kind, tid, name, detail)
}

// resumeStep is the payload stored in a preserved stack frame: the
// suspended rest-of-function of a process-model block. The frame
// StackAttach pushes carries its *Continuation instead (resumeOn).
type resumeStep func(*Env)

// Config selects the kernel build being simulated.
type Config struct {
	// Model is the machine being simulated.
	Model *machine.CostModel

	// UseContinuations enables the MK40 mechanism. When false the kernel
	// behaves like MK32/Mach 2.5: every thread owns a dedicated kernel
	// stack and all blocks use the process model.
	UseContinuations bool

	// Processors is the CPU count (default 1).
	Processors int

	// StackVMMetadataBytes is the per-stack VM bookkeeping charge
	// (116 bytes when stacks are pageable as in MK32, 0 when wired as in
	// MK40 — Table 5).
	StackVMMetadataBytes int

	// NoHandoff disables the stack-handoff optimization: blocks with
	// continuations still discard stacks, but control transfers always
	// free the old stack and attach a fresh one. Ablation only.
	NoHandoff bool

	// NoRecognition disables continuation recognition: resumed threads
	// always run their saved continuation through the general path.
	// Ablation only.
	NoRecognition bool
}

// Kernel is the control-transfer engine: the clock, the stack pool, the
// processors, and the Figure 3/4 operations. Substrates (IPC, VM,
// exceptions) hang their handlers off it.
type Kernel struct {
	Clock  *machine.Clock
	Model  *machine.CostModel
	Costs  machine.TransferCosts
	Acct   *machine.Accumulator
	Stacks *machine.StackPool
	Sched  Scheduler
	Stats  *stats.Kernel
	Procs  []*Processor

	// Obs is the observability recorder; nil (the default) disables
	// tracing, leaving only a nil check on every emit path.
	Obs *obs.Recorder

	// UseContinuations distinguishes the MK40 kernel from the
	// process-model kernels.
	UseContinuations bool

	// NoHandoff and NoRecognition are the ablation switches (see Config).
	NoHandoff     bool
	NoRecognition bool

	// DebugChecks, when set, runs the full invariant sweep (Validate plus
	// every registered Invariants func) after each dispatcher step,
	// panicking on the first violation, and makes Charge, Trace, SetState
	// and Setrun panic when called after a transfer, before the
	// trampoline. It may be toggled at any time.
	DebugChecks bool

	// Invariants holds extra structural checks registered by substrates
	// (ipc waiter consistency, dev queue consistency); each returns the
	// first violation found or nil. Run by Validate.
	Invariants []func() error

	// Threads is the registry of created threads in ID order: live ones,
	// halted ones awaiting the reaper, and reaped ones not yet compacted
	// away (see ReapHalted). Walkers skip halted threads.
	Threads []*Thread

	// BlockedHighWater is the most threads ever simultaneously blocked
	// (StateWaiting), sampled at each completed block — the denominator
	// of the paper's space claim, read against Stacks.MaxInUse().
	BlockedHighWater int

	// waiting counts registry threads in StateWaiting, created-but-
	// unstarted ones included. SetState maintains it, so sampling the
	// census costs O(1) however many threads are blocked.
	waiting int

	// pendingReap holds halted threads ReapHalted has not handed out yet;
	// deadInRegistry counts reaped threads still occupying Threads slots.
	pendingReap    []*Thread
	deadInRegistry int

	// HandleFault services a user-level page fault (set by the VM
	// substrate). write distinguishes store faults, which must resolve
	// copy-on-write sharing. It must transfer control before returning.
	HandleFault func(e *Env, addr uint64, write bool)

	// HandleException services a user-level exception (set by the
	// exception substrate). It must transfer control before returning.
	HandleException func(e *Env, code int)

	// OnHalt, when set, is called from Halt after the current thread
	// enters StateHalted and before the processor moves on; the device/
	// kern layer uses it to kick the reaper thread. The hook must not
	// block or transfer control.
	OnHalt func(t *Thread)

	// UserTime accumulates simulated user-mode CPU time.
	UserTime machine.Duration

	nextThreadID int
	rrNext       int // round-robin cursor over processors

	// userStepFn and dispatchFreshFn are the method values of userStep and
	// dispatchFresh, bound once at construction: assigning a method value
	// (p.pending = k.userStep) allocates a fresh closure each time, and
	// these two assignments sit on the per-dispatch hot path.
	userStepFn      func(*Env)
	dispatchFreshFn func(*Env)
}

// NewKernel builds a kernel for the given configuration. The caller must
// set Sched (and the fault/exception handlers, if workloads use them)
// before Run.
func NewKernel(cfg Config) *Kernel {
	if cfg.Model == nil {
		cfg.Model = machine.NewCostModel(machine.ArchDS3100)
	}
	if cfg.Processors <= 0 {
		cfg.Processors = 1
	}
	clock := machine.NewClock()
	k := &Kernel{
		Clock:            clock,
		Model:            cfg.Model,
		Costs:            machine.TransferCostsFor(cfg.Model, cfg.UseContinuations),
		Acct:             machine.NewAccumulator(cfg.Model, clock),
		Stacks:           machine.NewStackPool(clock, cfg.StackVMMetadataBytes),
		Stats:            &stats.Kernel{},
		UseContinuations: cfg.UseContinuations,
		NoHandoff:        cfg.NoHandoff,
		NoRecognition:    cfg.NoRecognition,
	}
	k.userStepFn = k.userStep
	k.dispatchFreshFn = k.dispatchFresh
	for i := 0; i < cfg.Processors; i++ {
		p := &Processor{ID: i}
		p.env = Env{K: k, P: p}
		k.Procs = append(k.Procs, p)
	}
	return k
}

// ThreadSpec describes a thread to create.
type ThreadSpec struct {
	Name     string
	SpaceID  int
	Program  UserProgram
	Priority int

	// Internal marks a kernel service thread (Table 1 "internal
	// threads"); NoStats excludes the thread from block statistics.
	Internal bool
	NoStats  bool

	// Start is the continuation a continuation-kernel thread begins
	// with; defaults to thread_start (enter user mode and run Program).
	// Kernel service threads supply their work-loop continuation here.
	Start *Continuation

	// StartPM is the process-model start step, used when the kernel does
	// not use continuations (or the thread cannot start via one).
	StartPM func(*Env)
}

// ContThreadStart is the default initial continuation of a user thread:
// transfer out of the kernel into user space.
var ContThreadStart = NewContinuation("thread_start", func(e *Env) {
	e.K.enterUser(e)
})

// NewThread creates a thread in the blocked state; call Setrun (or let a
// kernel path wake it) to start it. In a continuation kernel the new
// thread is stackless, blocked with its start continuation; in a
// process-model kernel it owns a dedicated stack from birth, holding its
// start frame.
func (k *Kernel) NewThread(spec ThreadSpec) *Thread {
	k.nextThreadID++
	t := &Thread{
		ID:       k.nextThreadID,
		Name:     spec.Name,
		Mode:     ModeKernel,
		SpaceID:  spec.SpaceID,
		Program:  spec.Program,
		Priority: spec.Priority,
		Internal: spec.Internal,
		NoStats:  spec.NoStats,
	}
	if t.Name == "" {
		t.Name = fmt.Sprintf("thread-%d", t.ID)
	}
	start := spec.Start
	if start == nil {
		start = ContThreadStart
	}
	if k.UseContinuations && spec.StartPM == nil {
		t.Cont = start
	} else {
		// Dedicated stack with a start frame, the process-model birth.
		s := k.Stacks.Allocate()
		s.SetOwner(machine.OwnerThread)
		t.Stack = s
		step := spec.StartPM
		if step == nil {
			step = start.fn
		}
		s.PushFrame(machine.Frame{
			Resume: resumeStep(step),
			Bytes:  64,
			Label:  "thread-start",
		})
	}
	k.Threads = append(k.Threads, t)
	k.SetState(t, StateWaiting)
	return t
}

// SetState is the only writer of a thread's scheduling state. Funneling
// every transition through it keeps the waiting count exact, which is
// what lets recordBlock sample the blocked-thread census without walking
// the registry.
func (k *Kernel) SetState(t *Thread, s ThreadState) {
	if k.DebugChecks {
		k.afterTransfer("SetState")
	}
	if t.state == StateWaiting {
		k.waiting--
	}
	if s == StateWaiting {
		k.waiting++
	}
	t.state = s
}

// Setrun makes a blocked thread runnable and queues it.
func (k *Kernel) Setrun(t *Thread) {
	if k.DebugChecks {
		k.afterTransfer("Setrun")
	}
	switch t.state {
	case StateWaiting:
		if r := k.Obs; r != nil {
			r.Emit(obs.Wakeup, t.ID, t.Name, t.WaitLabel)
		}
		k.SetState(t, StateRunnable)
		t.WaitLabel = ""
		k.queueRunnable(t)
	case StateRunnable, StateRunning:
		// Wakeup raced ahead of the block; latch it so the block
		// becomes a no-op.
		t.WakeupPending = true
	case StateHalted:
		panic(fmt.Sprintf("core: Setrun on halted %v", t))
	}
}

// queueRunnable places a runnable thread on the run queue exactly once.
func (k *Kernel) queueRunnable(t *Thread) {
	if t.queued {
		panic(fmt.Sprintf("core: %v queued twice", t))
	}
	t.queued = true
	k.Sched.Setrun(t)
}

// noteSelected normalizes a thread the scheduler just handed out: it
// leaves the run queue, and if it was woken while its post-block stack
// disposal was still pending (blocked with a continuation but the
// disposing thread_dispatch has not yet run), the stale stack is freed
// here so the thread resumes cleanly through its continuation.
func (k *Kernel) noteSelected(e *Env, t *Thread) {
	t.queued = false
	if t.Cont != nil && t.Stack != nil {
		s := k.StackDetach(e, t)
		k.Stacks.Free(s)
	}
	t.disposalPending = false
}

// ---------------------------------------------------------------------
// Figure 3: the machine-dependent control transfer interface.
// ---------------------------------------------------------------------

// StackAttach transforms a continuation into a stack: it takes a free
// stack, initializes it so that resuming the thread runs thread_continue
// (which disposes of the previous thread and calls the supplied
// continuation), and attaches it to the thread.
func (k *Kernel) StackAttach(e *Env, t *Thread, s *machine.Stack, cont *Continuation) {
	if t.Stack != nil {
		panic(fmt.Sprintf("core: StackAttach to %v which already has stack %d", t, t.Stack.ID))
	}
	if cont == nil {
		panic("core: StackAttach without a continuation")
	}
	e.Charge(k.Costs.StackAttach)
	k.Stats.StackAttaches++
	if r := k.Obs; r != nil {
		r.EmitCont(obs.StackAttach, t.ID, t.Name, cont.obsID(), "", 0)
	}
	s.SetOwner(machine.OwnerThread)
	t.Stack = s
	s.PushFrame(machine.Frame{
		Resume: cont,
		Bytes:  32,
		Label:  "thread_continue",
	})
}

// StackDetach unlinks and returns the thread's kernel stack.
func (k *Kernel) StackDetach(e *Env, t *Thread) *machine.Stack {
	s := t.Stack
	if s == nil {
		panic(fmt.Sprintf("core: StackDetach on stackless %v", t))
	}
	e.Charge(k.Costs.StackDetach)
	if r := k.Obs; r != nil {
		r.Emit(obs.StackDetach, t.ID, t.Name, "")
	}
	t.Stack = nil
	s.SetOwner(machine.OwnerTransit)
	return s
}

// StackHandoff moves the current kernel stack from the current thread to
// new, changing address spaces if necessary, and returns running as the
// new thread. The old thread is left stackless; the caller records its
// continuation. Control returns to the caller, now executing in the new
// thread's identity but the old thread's still-live call context — the
// property continuation recognition exploits.
func (k *Kernel) StackHandoff(e *Env, newt *Thread) {
	old := e.Cur()
	if old == nil || old.Stack == nil {
		panic("core: StackHandoff without a current stack")
	}
	if newt.Stack != nil {
		panic(fmt.Sprintf("core: StackHandoff target %v already has a stack", newt))
	}
	cost := k.Costs.StackHandoff.Plus(k.Costs.HandoffRegCopy)
	if old.SpaceID != newt.SpaceID {
		cost.Add(k.Costs.AddressSpaceSwitch)
	}
	e.Charge(cost)
	s := old.Stack
	old.Stack = nil
	newt.Stack = s
	k.SetState(newt, StateRunning)
	e.P.Prev = old
	e.P.Cur = newt
	newt.QuantumRemaining = k.Sched.Quantum()
	k.Stats.Handoffs++
	if r := k.Obs; r != nil {
		detail := ""
		if r.Retains() {
			detail = "from " + old.Name
		}
		r.EmitCont(obs.StackHandoff, newt.ID, newt.Name, newt.Cont.obsID(), detail, old.ID)
	}
}

// CallContinuation calls the supplied continuation after resetting the
// current kernel stack pointer to the stack base, preventing stack
// overflow during a long sequence of continuation calls. Transfers
// control: the caller returns at once.
func (k *Kernel) CallContinuation(e *Env, c *Continuation) {
	if c == nil {
		panic("core: CallContinuation(nil)")
	}
	t := e.Cur()
	e.Charge(k.Costs.CallContinuation)
	k.Stats.ContinuationCalls++
	if t.Cont == c {
		t.Cont = nil
	}
	t.Stack.Reset()
	if r := k.Obs; r != nil {
		r.EmitCont(obs.ContinuationCall, t.ID, t.Name, c.obsID(), c.name, 0)
	}
	e.P.transfer(c.fn)
}

// SwitchContext resumes newt on its preserved kernel stack, changing
// address spaces if necessary. If cont is non-nil the current thread
// blocks with that continuation, no register state is saved, and the
// old thread never resumes past this call (the new thread will dispose
// of the old thread's stack). If cont is nil the current thread's register
// state and call chain (resume, occupying frameBytes) are preserved on its
// stack and the thread will continue at resume when rescheduled. In both
// cases it transfers control: the caller returns at once.
func (k *Kernel) SwitchContext(e *Env, cont *Continuation, resume func(*Env), frameBytes int, label string, newt *Thread) {
	old := e.Cur()
	if newt.Stack == nil {
		panic(fmt.Sprintf("core: SwitchContext to stackless %v (attach a stack first)", newt))
	}
	cost := k.Costs.ContextSwitch
	if old.SpaceID != newt.SpaceID {
		cost.Add(k.Costs.AddressSpaceSwitch)
	}
	e.Charge(cost)
	k.Stats.ContextSwitches++
	if r := k.Obs; r != nil {
		detail := ""
		if r.Retains() {
			detail = "to " + newt.Name
		}
		e.Trace(obs.ContextSwitch, detail)
	}
	if cont != nil {
		old.Cont = cont
		old.disposalPending = true
		// The old thread's stack stays attached until the new thread
		// runs thread_dispatch, which detaches and frees it — freeing
		// the stack one is standing on is the bug Figure 4's two-step
		// dance avoids.
	} else {
		if resume == nil {
			panic("core: process-model SwitchContext without a resume step")
		}
		if frameBytes <= 0 {
			frameBytes = 128
		}
		old.Stack.PushFrame(machine.Frame{
			Resume: resumeStep(resume),
			Bytes:  frameBytes,
			Label:  label,
		})
	}
	k.resumeOn(e.P, newt, old)
}

// ThreadSyscallReturn calls the current thread's user system-call
// continuation: control transfers out of the kernel back to user space
// with the given return value. Transfers control: the caller returns at
// once.
func (k *Kernel) ThreadSyscallReturn(e *Env, retval uint64) {
	t := e.Cur()
	if t.UserReturn != ReturnSyscall {
		panic(fmt.Sprintf("core: ThreadSyscallReturn outside a syscall (%v)", t))
	}
	t.MD.RetVal = retval
	e.Charge(k.Costs.SyscallExit)
	if r := k.Obs; r != nil {
		detail := ""
		if r.Retains() {
			// strconv, not Sprintf: this runs once per syscall when traced.
			detail = "syscall return " + strconv.FormatUint(retval, 10)
		}
		e.Trace(obs.KernelExit, detail)
	}
	k.enterUser(e)
}

// ThreadSyscallReturnOverride is ThreadSyscallReturn for a registered
// overriding user-level continuation (the §4 LRPC-style extension):
// control leaves the kernel at the override entry instead of the trapped
// context, so the machine-dependent exit skips the register restore
// given by discount. Transfers control: the caller returns at once.
func (k *Kernel) ThreadSyscallReturnOverride(e *Env, retval uint64, discount machine.Cost) {
	t := e.Cur()
	if t.UserReturn != ReturnSyscall {
		panic(fmt.Sprintf("core: override return outside a syscall (%v)", t))
	}
	t.MD.RetVal = retval
	cost := k.Costs.SyscallExit
	sub := func(a, b uint64) uint64 {
		if b > a {
			return 0
		}
		return a - b
	}
	cost.Instrs = sub(cost.Instrs, discount.Instrs)
	cost.Loads = sub(cost.Loads, discount.Loads)
	cost.Stores = sub(cost.Stores, discount.Stores)
	e.Charge(cost)
	e.Trace(obs.KernelExit, "override return")
	k.enterUser(e)
}

// ThreadExceptionReturn calls the current thread's user exception
// continuation: control transfers out of the kernel back to user space
// after an exception, fault or interrupt. Transfers control: the caller
// returns at once.
func (k *Kernel) ThreadExceptionReturn(e *Env) {
	t := e.Cur()
	if t.UserReturn != ReturnException {
		panic(fmt.Sprintf("core: ThreadExceptionReturn outside an exception (%v)", t))
	}
	e.Charge(k.Costs.ExceptionExit)
	e.Trace(obs.KernelExit, "exception return")
	k.enterUser(e)
}

// enterUser transfers the current thread to user mode and schedules its
// next user action. Under DebugChecks a thread still holding a wait
// result panics: the kernel operation it returns from ignored how its
// wait ended. Transfers control.
func (k *Kernel) enterUser(e *Env) {
	t := e.Cur()
	if k.DebugChecks && t.waitResult != 0 {
		panic(fmt.Sprintf("core: %v returns to user space holding wait result %#x", t, t.waitResult))
	}
	t.Mode = ModeUser
	t.UserReturn = ReturnNone
	e.P.transfer(k.userStepFn)
}

// ---------------------------------------------------------------------
// Figure 4: thread_block, thread_handoff, thread_continue,
// thread_dispatch.
// ---------------------------------------------------------------------

// CanHandoff reports whether the stack-handoff fast path is available.
func (k *Kernel) CanHandoff() bool { return k.UseContinuations && !k.NoHandoff }

// Block is the kernel's blocking primitive. The current thread stops
// running; reason classifies the block for Table 1. If the kernel uses
// continuations and cont is non-nil, the thread blocks in the interrupt
// style (stack discarded or handed off). Otherwise it blocks under the
// process model, preserving its stack, and resumes at resume (which
// occupies frameBytes of stack). Transfers control: the caller returns
// at once.
//
// Callers set the thread's state before blocking: StateWaiting to sleep
// on an event, StateRunnable to yield the processor but stay eligible.
func (k *Kernel) Block(e *Env, reason stats.BlockReason, cont *Continuation, resume func(*Env), frameBytes int, label string) {
	old := e.Cur()
	if !k.UseContinuations {
		cont = nil
	}
	if cont == nil && resume == nil {
		panic("core: Block with neither continuation nor resume step")
	}
	if old.state == StateRunning {
		panic(fmt.Sprintf("core: Block: caller must set wait state of %v first", old))
	}

	// A wakeup that raced ahead of this block: consume it and keep
	// running without a control transfer.
	if old.WakeupPending && old.state == StateWaiting {
		old.WakeupPending = false
		k.SetState(old, StateRunning)
		if cont != nil {
			k.CallContinuation(e, cont)
			return
		}
		e.P.transfer(resume)
		return
	}

	newt := k.Sched.SelectThread(e.P)
	if newt != nil {
		k.noteSelected(e, newt)
	}
	if newt == nil && old.state == StateRunnable {
		// Nothing better to run; keep the processor. No control transfer
		// happens, so nothing is tallied: the stack is neither discarded
		// nor handed off.
		k.SetState(old, StateRunning)
		old.QuantumRemaining = k.Sched.Quantum()
		if cont != nil {
			k.CallContinuation(e, cont)
			return
		}
		e.P.transfer(resume)
		return
	}
	if newt == nil {
		// Processor goes idle: complete the block and park.
		k.blockAndPark(e, reason, cont, resume, frameBytes, label)
		return
	}

	if newt.Cont != nil {
		if cont != nil && !k.NoHandoff {
			// Both sides are continuation-style: hand the stack over
			// and run the new thread's continuation on it.
			k.recordBlock(old, reason, true, cont)
			k.StackHandoff(e, newt)
			old.Cont = cont
			if old.state == StateRunnable {
				k.queueRunnable(old)
			}
			if k.Obs != nil {
				k.traceBlock(e, old, cont)
			}
			k.CallContinuation(e, newt.Cont)
			return
		}
		// Old thread keeps its stack; the new thread needs one.
		st := k.Stacks.Allocate()
		k.StackAttach(e, newt, st, newt.Cont)
		newt.Cont = nil
	}
	if cont != nil {
		k.recordBlock(old, reason, true, cont)
	} else {
		k.recordBlock(old, reason, false, nil)
	}
	k.SwitchContext(e, cont, resume, frameBytes, label, newt)
}

// blockAndPark completes a block when no thread is runnable: the
// processor parks until the run loop finds work. Transfers control.
func (k *Kernel) blockAndPark(e *Env, reason stats.BlockReason, cont *Continuation, resume func(*Env), frameBytes int, label string) {
	old := e.Cur()
	if cont != nil {
		old.Cont = cont
		s := k.StackDetach(e, old)
		k.Stacks.Free(s)
		k.recordBlock(old, reason, true, cont)
	} else {
		old.Stack.PushFrame(machine.Frame{
			Resume: resumeStep(resume),
			Bytes:  frameBytes,
			Label:  label,
		})
		k.recordBlock(old, reason, false, nil)
	}
	if old.state == StateRunnable {
		// Yielding with nothing else runnable still parks; requeue so
		// the run loop picks the thread right back up.
		k.queueRunnable(old)
	}
	if r := k.Obs; r != nil {
		detail := ""
		if r.Retains() {
			detail = fmt.Sprintf("%s blocked; processor %d parks", old.Name, e.P.ID)
		}
		e.Trace(obs.Block, detail)
	}
	e.P.Cur = nil
	e.P.Prev = old
	e.P.transfer(nil)
}

// BlockDirected blocks the current thread under the process model and
// transfers directly to newt, bypassing the scheduler — the hand-optimized
// RPC transfer of the MK32 kernel (§3.3: "it context-switches directly
// from the sending thread to the receiving thread"). If newt is stackless
// (possible when a continuation kernel takes this path), a stack is
// attached first. Transfers control: the caller returns at once. The
// caller must have set the current thread's wait state.
func (k *Kernel) BlockDirected(e *Env, reason stats.BlockReason, resume func(*Env), frameBytes int, label string, newt *Thread) {
	old := e.Cur()
	if old.state == StateRunning {
		panic(fmt.Sprintf("core: BlockDirected: caller must set wait state of %v first", old))
	}
	if newt.Cont != nil {
		st := k.Stacks.Allocate()
		k.StackAttach(e, newt, st, newt.Cont)
		newt.Cont = nil
	}
	k.recordBlock(old, reason, false, nil)
	k.SwitchContext(e, nil, resume, frameBytes, label, newt)
}

// ThreadHandoff gives control directly to newt (which must be blocked
// with a continuation), blocking the current thread with cont. Unlike
// Block it RETURNS to the caller, now running as newt but still inside
// the old thread's live call context, so the caller can perform
// continuation recognition before deciding how to finish the transfer
// (§2.4). The caller must have set the old thread's wait state.
func (k *Kernel) ThreadHandoff(e *Env, reason stats.BlockReason, cont *Continuation, newt *Thread) {
	old := e.Cur()
	if !k.CanHandoff() || cont == nil {
		panic("core: ThreadHandoff requires a continuation kernel with handoff enabled")
	}
	if newt.Cont == nil || newt.Stack != nil {
		panic(fmt.Sprintf("core: ThreadHandoff target %v is not continuation-blocked", newt))
	}
	if old.state == StateRunning {
		panic(fmt.Sprintf("core: ThreadHandoff: caller must set wait state of %v first", old))
	}
	k.recordBlock(old, reason, true, cont)
	k.StackHandoff(e, newt)
	old.Cont = cont
	if old.state == StateRunnable {
		k.queueRunnable(old)
	}
	if k.Obs != nil {
		k.traceBlock(e, old, cont)
	}
}

// traceBlock emits the Block step of a handoff: old gave its stack away
// and blocked with cont. The caller checks that k.Obs is set.
func (k *Kernel) traceBlock(e *Env, old *Thread, cont *Continuation) {
	detail := ""
	if k.Obs.Retains() {
		detail = old.Name + " blocked with " + cont.Name()
	}
	e.Trace(obs.Block, detail)
}

// Recognize performs continuation recognition: if the current thread
// (just handed control) is set to resume at expect, the recognizer claims
// the continuation and returns true, and the caller runs its faster
// inline sequence instead. Otherwise it returns false and the caller
// should CallContinuation the thread's saved continuation.
func (k *Kernel) Recognize(e *Env, expect *Continuation) bool {
	t := e.Cur()
	// The comparison itself is a couple of instructions.
	e.Charge(machine.Cost{Instrs: 3, Loads: 1})
	if k.NoRecognition || t.Cont != expect {
		if r := k.Obs; r != nil {
			actual := "<none>"
			if t.Cont != nil {
				actual = t.Cont.Name()
			}
			r.EmitCont(obs.RecognitionMiss, t.ID, t.Name, expect.obsID(), actual, 0)
		}
		return false
	}
	t.Cont = nil
	k.Stats.Recognitions++
	if r := k.Obs; r != nil {
		r.EmitCont(obs.Recognition, t.ID, t.Name, expect.obsID(), expect.Name(), 0)
	}
	return true
}

// threadContinueStep is the resume step of a frame StackAttach pushed:
// thread_continue with the continuation resumeOn left on the processor.
func threadContinueStep(e *Env) {
	c := e.P.attached
	e.P.attached = nil
	e.K.threadContinue(e, c)
}

// threadContinue is Figure 4's thread_continue: dispose of the previous
// thread, then call the new thread's own continuation. It runs as the
// first step on a freshly attached stack.
func (k *Kernel) threadContinue(e *Env, cont *Continuation) {
	k.ThreadDispatch(e, e.P.Prev)
	e.Charge(k.Costs.CallContinuation)
	k.Stats.ContinuationCalls++
	if r := k.Obs; r != nil {
		t := e.Cur()
		r.EmitCont(obs.ContinuationCall, t.ID, t.Name, cont.obsID(), cont.name, 0)
	}
	cont.fn(e)
}

// ThreadDispatch disposes of the previously running thread from the
// context of the new one: a continuation-blocked old thread loses its
// stack to the free pool; a still-runnable old thread returns to the run
// queue; a halted thread is reaped. The operation is idempotent — if an
// event woke the old thread first and the scheduler already re-dispatched
// it (noteSelected freed the stale stack), nothing is left to do.
func (k *Kernel) ThreadDispatch(e *Env, old *Thread) {
	if old == nil || old == e.Cur() {
		return
	}
	if old.Stack != nil && (old.state == StateHalted || old.Cont != nil) {
		s := k.StackDetach(e, old)
		k.Stacks.Free(s)
	}
	old.disposalPending = false
	if old.state == StateRunnable && !old.queued {
		k.queueRunnable(old)
	}
}

// resumeOn installs newt as the processor's current thread and transfers
// to its preserved resume step, prefixed by disposal of the old thread.
func (k *Kernel) resumeOn(p *Processor, newt, old *Thread) {
	if r := k.Obs; r != nil {
		r.Emit(obs.Dispatch, newt.ID, newt.Name, "")
	}
	p.Prev = old
	p.Cur = newt
	k.SetState(newt, StateRunning)
	newt.QuantumRemaining = k.Sched.Quantum()
	f := newt.Stack.PopFrame()
	p.dispose = old
	if c, ok := f.Resume.(*Continuation); ok {
		p.attached = c
		p.transfer(threadContinueStep)
		return
	}
	p.transfer(f.Resume.(resumeStep))
}

// recordBlock tallies a block unless the thread opted out of statistics,
// and emits the histogram-driving ThreadBlocked event (every completed
// blocking operation passes through here exactly once).
func (k *Kernel) recordBlock(t *Thread, reason stats.BlockReason, discarded bool, cont *Continuation) {
	if t.Internal {
		reason = stats.BlockInternal
	}
	if r := k.Obs; r != nil {
		yield := 0
		if t.state == StateRunnable {
			yield = 1
		}
		r.EmitCont(obs.ThreadBlocked, t.ID, t.Name, cont.obsID(), reason.String(), yield)
	}
	// Sample the blocked-thread census at its only growth point: the
	// count can rise exactly when a block completes.
	if k.waiting > k.BlockedHighWater {
		k.BlockedHighWater = k.waiting
	}
	if t.NoStats {
		return
	}
	k.Stats.RecordBlock(reason, discarded)
}

// Halt terminates the current thread and gives up the processor.
// Transfers control: the caller returns at once.
func (k *Kernel) Halt(e *Env) {
	t := e.Cur()
	k.SetState(t, StateHalted)
	t.Cont = nil
	k.pendingReap = append(k.pendingReap, t)
	if k.OnHalt != nil {
		k.OnHalt(t)
	}
	newt := k.Sched.SelectThread(e.P)
	if newt != nil {
		k.noteSelected(e, newt)
	}
	if newt == nil {
		if t.Stack != nil {
			s := k.StackDetach(e, t)
			k.Stacks.Free(s)
		}
		e.P.Cur = nil
		e.P.Prev = t
		e.P.transfer(nil)
		return
	}
	if newt.Cont != nil {
		// Hand the dying thread's stack straight to the next one.
		cont := newt.Cont
		k.StackHandoff(e, newt)
		k.CallContinuation(e, cont)
		return
	}
	t.disposalPending = true
	k.resumeOn(e.P, newt, t)
}

// ---------------------------------------------------------------------
// Kernel entry and the user-mode step.
// ---------------------------------------------------------------------

// KernelEntry performs the user-to-kernel transition: it charges the trap
// cost and records which return-to-user continuation the (simulated)
// machine-dependent trap code created.
func (k *Kernel) KernelEntry(e *Env, kind UserReturnKind, label string) {
	t := e.Cur()
	t.Mode = ModeKernel
	t.UserReturn = kind
	t.KernelEntries++
	if kind == ReturnSyscall {
		e.Charge(k.Costs.SyscallEntry)
	} else {
		e.Charge(k.Costs.ExceptionEntry)
	}
	e.Trace(obs.KernelEntry, label)
}

// TickInterval is the clock-interrupt period: the granularity at which
// AST preemptions catch a running thread (16 ms, a 60 Hz era tick).
const TickInterval = machine.Duration(16_670_000)

// userStep executes one user-mode action of the current thread. It is the
// default pending action whenever a thread is in user mode.
func (k *Kernel) userStep(e *Env) {
	t := e.Cur()
	if t.Program == nil {
		panic(fmt.Sprintf("core: %v has no user program", t))
	}
	if t.PendingBurst > 0 {
		d := t.PendingBurst
		t.PendingBurst = 0
		k.runUserDur(e, t, d)
		return
	}
	act := t.Program.Next(e, t)
	switch act.Kind {
	case ActRun:
		k.runUser(e, t, act.Cycles)
	case ActSyscall:
		k.KernelEntry(e, ReturnSyscall, act.Name)
		act.Invoke(e)
		if !e.Transferred() {
			panic(fmt.Sprintf("core: syscall %q handler returned instead of transferring control", act.Name))
		}
	case ActFault:
		k.KernelEntry(e, ReturnException, fmt.Sprintf("page fault @%#x", act.Addr))
		if k.HandleFault == nil {
			panic("core: no fault handler installed")
		}
		k.HandleFault(e, act.Addr, act.Write)
		if !e.Transferred() {
			panic("core: fault handler returned instead of transferring control")
		}
	case ActException:
		k.KernelEntry(e, ReturnException, fmt.Sprintf("exception %d", act.Code))
		if k.HandleException == nil {
			panic("core: no exception handler installed")
		}
		k.HandleException(e, act.Code)
		if !e.Transferred() {
			panic("core: exception handler returned instead of transferring control")
		}
	case ActYield:
		// thread_switch: voluntary rescheduling from user level. There
		// is no kernel state to save; block with the return-to-user
		// continuation.
		k.KernelEntry(e, ReturnException, "thread_switch")
		k.SetState(t, StateRunnable)
		k.Block(e, stats.BlockThreadSwitch, ContThreadExceptionReturn,
			resumeExceptionReturn, 96, "thread_switch")
	case ActExit:
		k.KernelEntry(e, ReturnSyscall, "thread_exit")
		k.Halt(e)
	default:
		panic(fmt.Sprintf("core: unknown action kind %v", act.Kind))
	}
}

// resumeExceptionReturn is the process-model counterpart of
// ContThreadExceptionReturn. It captures nothing, so passing it to Block
// does not allocate the way an inline closure over k would.
func resumeExceptionReturn(e *Env) { e.K.ThreadExceptionReturn(e) }

// ContThreadExceptionReturn resumes a thread straight out to user space;
// it is the continuation preempted and yielding threads block with. It is
// assigned in init to break the declaration cycle with userStep.
var ContThreadExceptionReturn *Continuation

func init() {
	ContThreadExceptionReturn = NewContinuation("thread_exception_return", func(e *Env) {
		e.K.ThreadExceptionReturn(e)
	})
}

// runUser burns a user-mode CPU burst, splitting it at a preemption
// point when one arrives first.
func (k *Kernel) runUser(e *Env, t *Thread, cycles uint64) {
	us := k.Acct.ScaleMicros(float64(cycles) / k.Model.MHz)
	k.runUserDur(e, t, machine.Duration(us*1000+0.5))
}

// runUserDur is runUser in time units. Two preemption points interrupt a
// burst: the next clock tick when a higher-priority thread is queued
// (the AST check — handoff scheduling bypasses the run queue, so this is
// what keeps woken daemons from starving behind an RPC ping-pong), and
// quantum expiry when equal-priority work is waiting. An interrupted
// burst's remainder is saved in PendingBurst and resumes after the
// preemption. Transfers control.
func (k *Kernel) runUserDur(e *Env, t *Thread, dur machine.Duration) {
	if t.UntilTick <= 0 {
		t.UntilTick = TickInterval
	}
	if pri, ok := k.Sched.MaxQueuedPriority(); ok && pri > t.Priority && dur >= t.UntilTick {
		slice := t.UntilTick
		k.burnUser(t, slice)
		t.PendingBurst = dur - slice
		k.preemptNow(e, t, "ast preempt")
		return
	}
	if dur >= t.QuantumRemaining && k.Sched.HasWork() {
		// Run out the quantum, then the clock interrupt preempts.
		slice := t.QuantumRemaining
		k.burnUser(t, slice)
		t.PendingBurst = dur - slice
		t.QuantumRemaining = 0
		k.preemptNow(e, t, "clock interrupt")
		return
	}
	if dur > t.QuantumRemaining {
		t.QuantumRemaining = 0
	} else {
		t.QuantumRemaining -= dur
	}
	k.burnUser(t, dur)
	e.P.transfer(k.userStepFn)
}

// burnUser advances simulated time by a user-mode CPU slice, keeping the
// thread's tick phase.
func (k *Kernel) burnUser(t *Thread, d machine.Duration) {
	k.Clock.Advance(d)
	t.UserTime += d
	k.UserTime += d
	for t.UntilTick <= d {
		t.UntilTick += TickInterval
	}
	t.UntilTick -= d
}

// preemptNow takes the preemption interrupt: the thread blocks with the
// continuation that simply returns it to user space (§2.5), staying
// runnable. Transfers control.
func (k *Kernel) preemptNow(e *Env, t *Thread, label string) {
	k.KernelEntry(e, ReturnException, label)
	k.SetState(t, StateRunnable)
	k.Block(e, stats.BlockPreempt, ContThreadExceptionReturn,
		resumeExceptionReturn, 96, "preempt")
}

// ---------------------------------------------------------------------
// The run loop.
// ---------------------------------------------------------------------

// invoke is the trampoline: it runs one dispatcher action, which must end
// in a transfer naming the processor's next action. Any owed
// thread_dispatch (latched by resumeOn) runs first, from the new thread's
// context.
func (k *Kernel) invoke(p *Processor, act func(*Env)) {
	e := &p.env
	if old := p.dispose; old != nil {
		p.dispose = nil
		k.ThreadDispatch(e, old)
	}
	act(e)
	if !p.transferred {
		panic(fmt.Sprintf("core: action on processor %d returned without transferring control (current %v)", p.ID, p.Cur))
	}
	p.transferred = false
}

// dispatchFresh starts work on a parked processor. Transfers control.
func (k *Kernel) dispatchFresh(e *Env) {
	p := e.P
	newt := k.Sched.SelectThread(p)
	if newt == nil {
		p.transfer(nil)
		return
	}
	k.noteSelected(e, newt)
	if newt.Cont != nil {
		st := k.Stacks.Allocate()
		k.StackAttach(e, newt, st, newt.Cont)
		newt.Cont = nil
	}
	k.resumeOn(p, newt, nil)
}

// Step runs one dispatcher action somewhere in the machine: due events
// first, then one processor step. It returns false when the system is
// fully quiescent (no pending actions, no runnable threads, no events
// other than background housekeeping ticks).
func (k *Kernel) Step() bool { return k.step(false) }

// StepNoAdvance runs one dispatcher action that is possible at the
// current simulated time — a due event or a processor step — without ever
// advancing the clock to a future event. It returns false when this
// machine can make no progress until time moves. Multi-machine drivers
// (kern.Cluster) use it to interleave kernels that share a timeline: no
// single machine may jump its clock forward while a peer still has work
// at the present.
func (k *Kernel) StepNoAdvance() bool {
	if ev := k.Clock.PopDue(); ev != nil {
		k.Clock.Fire(ev, k.DebugChecks)
		k.PostDispatchCheck()
		return true
	}
	n := len(k.Procs)
	for i := 0; i < n; i++ {
		p := k.Procs[(k.rrNext+i)%n]
		if p.pending == nil && p.Cur == nil && k.Sched.HasWork() {
			p.pending = k.dispatchFreshFn
		}
		if p.pending != nil {
			k.rrNext = (k.rrNext + i + 1) % n
			act := p.pending
			p.pending = nil
			k.invoke(p, act)
			k.PostDispatchCheck()
			return true
		}
	}
	return false
}

// HasPresentWork reports whether StepNoAdvance would make progress at the
// current simulated time: a due event, a pending dispatcher action, or a
// parked processor with queued work.
func (k *Kernel) HasPresentWork() bool {
	if at, ok := k.Clock.NextEventTime(); ok && at <= k.Clock.Now() {
		return true
	}
	for _, p := range k.Procs {
		if p.pending != nil {
			return true
		}
		if p.Cur == nil && k.Sched.HasWork() {
			return true
		}
	}
	return false
}

// RunHorizon drives this machine alone up to (but not into) horizon: work
// at the present first, then clock advances to pending events strictly
// before the horizon. Present work whose clock has already reached the
// horizon waits for a later round, and a machine with only background
// events pending never advances — background timers alone never keep a
// cluster running. The cluster driver uses this as one machine's share
// of a conservative round: nothing another machine does before the
// horizon can affect this machine's execution, so rounds may run
// concurrently. Returns dispatcher steps taken.
func (k *Kernel) RunHorizon(horizon machine.Time) uint64 {
	var steps uint64
	for {
		if k.Clock.Now() < horizon && k.StepNoAdvance() {
			steps++
			continue
		}
		if k.Clock.Now() >= horizon || !k.Clock.HasForeground() {
			return steps
		}
		at, ok := k.Clock.NextEventTime()
		if !ok || at >= horizon {
			return steps
		}
		if ev := k.Clock.AdvanceToNextEvent(); ev != nil {
			k.Clock.Fire(ev, k.DebugChecks)
			k.PostDispatchCheck()
			steps++
		}
	}
}

func (k *Kernel) step(withBackground bool) bool {
	if k.StepNoAdvance() {
		return true
	}
	// Every processor is parked. Jump to the next event if a real one is
	// pending; with only housekeeping ticks left the system is quiescent
	// unless the caller is running to a deadline.
	if withBackground || k.Clock.HasForeground() {
		if ev := k.Clock.AdvanceToNextEvent(); ev != nil {
			k.Clock.Fire(ev, k.DebugChecks)
			k.PostDispatchCheck()
			return true
		}
	}
	return false
}

// Run drives the machine until quiescence or until the simulated clock
// passes deadline (0 means no deadline; with a deadline, background
// housekeeping events keep the clock moving). It returns the number of
// dispatcher steps taken.
func (k *Kernel) Run(deadline machine.Time) uint64 {
	var steps uint64
	for {
		if deadline != 0 && k.Clock.Now() >= deadline {
			return steps
		}
		if !k.step(deadline != 0) {
			return steps
		}
		steps++
	}
}

// LiveThreads counts threads that have not halted.
func (k *Kernel) LiveThreads() int {
	n := 0
	for _, t := range k.Threads {
		if t.state != StateHalted {
			n++
		}
	}
	return n
}

// ---------------------------------------------------------------------
// Interrupts and thread reaping.
// ---------------------------------------------------------------------

// TakeInterrupt runs a device interrupt handler in interrupt context: on
// the stack of whatever thread the chosen processor is running (or on the
// processor's resident idle stack when it is parked), charging the
// machine-dependent interrupt entry and exit costs. This is the paper's
// per-processor-stack claim extended to its original motivation — an
// interrupt never allocates a kernel stack, because the interrupted
// thread's stack is, in effect, the processor's. The handler may wake
// threads and queue work but must not block, transfer control, or touch
// the stack pool; both the zero-allocation invariant and the absence of a
// transfer are asserted here.
func (k *Kernel) TakeInterrupt(label string, handler func(*Env)) {
	// Interrupts are delivered to the first busy processor (its current
	// stack is borrowed); an idle machine takes them on processor 0.
	p := k.Procs[0]
	for _, q := range k.Procs {
		if q.Cur != nil {
			p = q
			break
		}
	}
	e := &p.env
	before := k.Stacks.InUse()
	k.Stats.Interrupts++
	e.Charge(k.Costs.InterruptEntry)
	e.Trace(obs.Interrupt, label)
	handler(e)
	if p.transferred {
		panic(fmt.Sprintf("core: interrupt handler %q transferred control", label))
	}
	if k.Stacks.InUse() != before {
		panic(fmt.Sprintf("core: interrupt handler %q changed the stack census (%d -> %d)",
			label, before, k.Stacks.InUse()))
	}
	e.Charge(k.Costs.InterruptExit)
}

// ReapHalted hands out the halted threads awaiting the reaper, in ID
// (registry) order; the kern reaper thread calls this to drain dead
// threads. Halted threads whose stack disposal has not happened yet
// (possible on a multiprocessor between the halt and the successor's
// thread_dispatch) are left for the next pass. Only the pending-reap list
// Halt fills is walked. Reaped threads leave the registry by
// order-preserving compaction once they fill half of it, so the
// registry's upkeep is amortized O(1) per reaped thread.
func (k *Kernel) ReapHalted() []*Thread {
	slices.SortFunc(k.pendingReap, func(a, b *Thread) int { return a.ID - b.ID })
	var reaped []*Thread
	kept := k.pendingReap[:0]
	for _, t := range k.pendingReap {
		if t.Stack == nil {
			t.reaped = true
			reaped = append(reaped, t)
		} else {
			kept = append(kept, t)
		}
	}
	clear(k.pendingReap[len(kept):])
	k.pendingReap = kept
	k.deadInRegistry += len(reaped)
	if 2*k.deadInRegistry >= len(k.Threads) {
		live := k.Threads[:0]
		for _, t := range k.Threads {
			if !t.reaped {
				live = append(live, t)
			}
		}
		clear(k.Threads[len(live):])
		k.Threads = live
		k.deadInRegistry = 0
	}
	return reaped
}
