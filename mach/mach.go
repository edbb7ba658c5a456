// Package mach is the public face of the continuation-kernel simulator:
// a Mach 3.0-style operating system kernel, reproduced from Draves,
// Bershad, Dean and Rashid, "Using Continuations to Implement Thread
// Management and Communication in Operating Systems" (SOSP 1991).
//
// A System is a simulated machine (DECstation 3100 or Toshiba 5200)
// running one of the paper's three kernels:
//
//   - MK40 — the continuation kernel: blocked threads hold a continuation
//     and 28 bytes of scratch instead of a kernel stack; control
//     transfers use stack handoff and continuation recognition.
//   - MK32 — the optimized process-model kernel (dedicated stacks, direct
//     RPC context switch).
//   - Mach25 — the hybrid kernel (dedicated stacks, queued messages,
//     general scheduler).
//
// User activity is supplied as Programs: deterministic generators of user
// actions (CPU bursts, system calls, page faults, exceptions). Everything
// runs on a simulated clock; the same inputs always produce the same
// timeline, statistics and latencies.
//
// A minimal RPC system:
//
//	sys := mach.New(mach.WithKernel(mach.MK40))
//	server := sys.NewTask("server")
//	client := sys.NewTask("client")
//	svc := sys.NewPort("service")
//	server.Spawn("srv", mach.EchoServer(sys, svc), 20)
//	...
//	sys.Run()
package mach

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/exc"
	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Kernel selects the kernel build.
type Kernel = kern.Flavor

// The three kernels of the paper's evaluation.
const (
	MK40   = kern.MK40
	MK32   = kern.MK32
	Mach25 = kern.Mach25
)

// Machine selects the simulated hardware.
type Machine = machine.Arch

// The two evaluation machines.
const (
	DS3100      = machine.ArchDS3100
	Toshiba5200 = machine.ArchToshiba5200
)

// Re-exported building blocks. Programs are written against these.
type (
	// Env is the kernel execution environment passed to system call
	// handlers and continuations.
	Env = core.Env
	// Thread is a kernel-level thread.
	Thread = core.Thread
	// Program supplies a thread's user-mode behaviour.
	Program = core.UserProgram
	// Action is one user-mode step.
	Action = core.Action
	// Continuation is a named, comparable resumption point.
	Continuation = core.Continuation
	// Port is a Mach port.
	Port = ipc.Port
	// Message is a Mach message.
	Message = ipc.Message
	// MsgOptions describes one mach_msg call.
	MsgOptions = ipc.MsgOptions
	// PortSet groups ports so one receive serves all of them.
	PortSet = ipc.PortSet
	// Duration and Time are simulated-clock units (nanoseconds).
	Duration = machine.Duration
	// Time is a simulated timestamp.
	Time = machine.Time
	// Cost counts simulated work (instructions, loads, stores).
	Cost = machine.Cost
	// ExcInfo is the body of an exception request message.
	ExcInfo = exc.ExcInfo
)

// Action constructors, re-exported for program authors.
var (
	// RunFor burns user CPU cycles.
	RunFor = core.RunFor
	// Syscall traps into the kernel and runs the handler, which must
	// transfer control (end in a control-transfer operation) before it
	// returns.
	Syscall = core.Syscall
	// Exit terminates the thread.
	Exit = core.Exit
	// NewContinuation declares a continuation point.
	NewContinuation = core.NewContinuation
)

// ProgramFunc adapts a function to the Program interface.
type ProgramFunc = core.ProgramFunc

// Option configures a System.
type Option func(*kern.Config)

// WithKernel selects the kernel build (default MK40).
func WithKernel(k Kernel) Option {
	return func(c *kern.Config) { c.Flavor = k }
}

// WithMachine selects the simulated hardware (default DS3100).
func WithMachine(m Machine) Option {
	return func(c *kern.Config) { c.Arch = m }
}

// WithProcessors sets the CPU count (default 1).
func WithProcessors(n int) Option {
	return func(c *kern.Config) { c.Processors = n }
}

// WithMemoryFrames sets the physical page pool size.
func WithMemoryFrames(n int) Option {
	return func(c *kern.Config) { c.Frames = n }
}

// WithQuantum sets the scheduling time slice.
func WithQuantum(d Duration) Option {
	return func(c *kern.Config) { c.Quantum = d }
}

// WithoutCallout omits the special process-model kernel thread, for
// experiments that need an exact stack census.
func WithoutCallout() Option {
	return func(c *kern.Config) { c.DisableCallout = true }
}

// System is a booted simulated machine plus kernel.
type System struct {
	sys *kern.System

	// rec is the event recorder installed by EnableTrace (nil while
	// tracing is off).
	rec *obs.Recorder
}

// New boots a system.
func New(opts ...Option) *System {
	cfg := kern.Config{Flavor: kern.MK40, Arch: machine.ArchDS3100}
	for _, o := range opts {
		o(&cfg)
	}
	return &System{sys: kern.New(cfg)}
}

// Kern exposes the underlying assembled kernel for advanced use (the
// substrates hang off it).
func (s *System) Kern() *kern.System { return s.sys }

// Task is an address space that threads run in.
type Task struct {
	sys  *System
	task *kern.Task
}

// NewTask creates a task with a fresh address space.
func (s *System) NewTask(name string) *Task {
	return &Task{sys: s, task: s.sys.NewTask(name)}
}

// Name returns the task name.
func (t *Task) Name() string { return t.task.Name }

// Spawn creates and starts a thread running prog at the given priority
// (0..31, larger is more urgent).
func (t *Task) Spawn(name string, prog Program, priority int) *Thread {
	th := t.task.NewThread(name, prog, priority)
	t.sys.sys.Start(th)
	return th
}

// SpawnSuspended creates a thread without starting it; resume with
// System.Resume.
func (t *Task) SpawnSuspended(name string, prog Program, priority int) *Thread {
	return t.task.NewThread(name, prog, priority)
}

// Resume makes a suspended thread runnable.
func (s *System) Resume(t *Thread) { s.sys.Start(t) }

// NewPort allocates a port.
func (s *System) NewPort(name string) *Port { return s.sys.IPC.NewPort(name) }

// NewPortSet allocates a port set; receive with
// MsgOptions.ReceiveFromSet.
func (s *System) NewPortSet(name string) *PortSet { return s.sys.IPC.NewPortSet(name) }

// AddToSet puts a port into a set (a port belongs to at most one).
func (s *System) AddToSet(p *Port, ps *PortSet) { s.sys.IPC.AddToSet(p, ps) }

// DestroyPort destroys a port: queued messages are dropped, blocked
// receivers wake with RcvPortDied, and future sends fail.
func (s *System) DestroyPort(e *Env, p *Port) { s.sys.IPC.DestroyPort(e, p) }

// NewMessage builds a message of the given total size in bytes carrying
// an arbitrary payload; reply names the port for the response.
func (s *System) NewMessage(op uint32, size int, body any, reply *Port) *Message {
	return s.sys.IPC.NewMessage(op, size, body, reply)
}

// MachMsg performs the combined send/receive system call from inside a
// Syscall handler. Transfers control: the handler returns at once.
func (s *System) MachMsg(e *Env, opts MsgOptions) { s.sys.IPC.MachMsg(e, opts) }

// Received returns (and clears) the message the thread's last receive
// delivered, as a user program would read its receive buffer.
func (s *System) Received(t *Thread) *Message { return s.sys.IPC.Received(t) }

// SetExceptionPort routes a thread's exceptions to the port's server.
func (s *System) SetExceptionPort(t *Thread, p *Port) {
	s.sys.Exc.SetExceptionPort(t, p)
}

// Touch pre-faults a page into a task's address space.
func (s *System) Touch(t *Task, addr uint64) {
	s.sys.VM.Touch(t.task.ID, addr)
}

// ShareCopyOnWrite maps n pages starting at addr from src into dst
// copy-on-write (vm_map with inheritance, the substrate of fast fork and
// large message transfer). Returns the number of pages shared.
func (s *System) ShareCopyOnWrite(e *Env, src, dst *Task, addr uint64, n int) int {
	return s.sys.VM.ShareCopyOnWrite(e, src.task.ID, dst.task.ID, addr, n)
}

// Run drives the machine until it quiesces (every thread blocked or
// exited with nothing pending). It returns the simulated time.
func (s *System) Run() Time {
	s.sys.Run(0)
	return s.sys.K.Clock.Now()
}

// RunFor drives the machine for a span of simulated time.
func (s *System) RunFor(d Duration) Time {
	s.sys.Run(s.sys.K.Clock.Now() + d)
	return s.sys.K.Clock.Now()
}

// Now returns the simulated time.
func (s *System) Now() Time { return s.sys.K.Clock.Now() }

// Stats summarizes the control-transfer behaviour of a run in the terms
// of the paper's evaluation.
type Stats struct {
	// TotalBlocks is the number of blocking operations.
	TotalBlocks uint64
	// StackDiscards counts blocks that relinquished the kernel stack
	// (continuation-style blocks); Table 1.
	StackDiscards uint64
	// Handoffs counts stack handoffs; Table 2.
	Handoffs uint64
	// Recognitions counts continuation recognitions; Table 2.
	Recognitions uint64
	// ContextSwitches counts full register save/restore transfers.
	ContextSwitches uint64
	// StacksInUse and StacksMax and StacksAvg describe kernel stack
	// consumption; §3.4 and Table 5.
	StacksInUse int
	StacksMax   int
	StacksAvg   float64
	// LiveThreads counts non-exited threads.
	LiveThreads int
	// PerThreadBytes is the measured average kernel memory per thread.
	PerThreadBytes float64
}

// Stats returns the current counters.
func (s *System) Stats() Stats {
	k := s.sys.K
	return Stats{
		TotalBlocks:     k.Stats.TotalBlocks(),
		StackDiscards:   k.Stats.TotalDiscards(),
		Handoffs:        k.Stats.Handoffs,
		Recognitions:    k.Stats.Recognitions,
		ContextSwitches: k.Stats.ContextSwitches,
		StacksInUse:     k.Stacks.InUse(),
		StacksMax:       k.Stacks.MaxInUse(),
		StacksAvg:       k.Stacks.AverageInUse(),
		LiveThreads:     k.LiveThreads(),
		PerThreadBytes:  s.sys.MeasuredPerThreadBytes(),
	}
}

// BlockBreakdown returns per-reason block counts in Table 1 row order,
// plus the count of process-model (no-discard) blocks.
func (s *System) BlockBreakdown() (rows map[string]uint64, noDiscard uint64) {
	rows = make(map[string]uint64)
	for _, r := range stats.DiscardReasons {
		rows[r.String()] = s.sys.K.Stats.BlocksWithDiscard[r]
	}
	return rows, s.sys.K.Stats.TotalNoDiscards()
}

// EnableTrace turns on control-transfer tracing by installing an event
// recorder on the kernel; String the result after a run (see Figure 2 of
// the paper).
func (s *System) EnableTrace() {
	if s.rec == nil {
		s.rec = s.sys.EnableObservation(obs.DefaultCapacity)
	}
}

// Recorder exposes the installed event recorder (nil until EnableTrace),
// for histogram and continuation-profile queries.
func (s *System) Recorder() *obs.Recorder { return s.rec }

// TraceString renders the recorded control-transfer steps in the
// Figure 2 format.
func (s *System) TraceString() string {
	if s.rec == nil {
		return ""
	}
	return obs.TransferString(s.rec.Events())
}

// ProfileString renders the recorder's continuation profile and latency
// histograms ("" until EnableTrace).
func (s *System) ProfileString() string {
	if s.rec == nil {
		return ""
	}
	var b strings.Builder
	s.rec.WriteReport(&b)
	return b.String()
}

// ResetTrace clears recorded trace entries and statistics.
func (s *System) ResetTrace() {
	if s.rec != nil {
		s.rec.Reset()
	}
}

// EchoServer returns a Program that receives on port forever and answers
// every message with its own body — the canonical RPC server.
func EchoServer(s *System, port *Port) Program { return workload.NewEchoServer(s.sys, port) }

// RPC returns the Action that sends body to service and waits for the
// reply on replyPort — one half of a ping-pong.
func RPC(s *System, service, replyPort *Port, op uint32, size int, body any) Action {
	return Syscall("mach_msg(rpc)", func(e *Env) {
		req := s.NewMessage(op, size, body, replyPort)
		s.MachMsg(e, MsgOptions{Send: req, SendTo: service, ReceiveFrom: replyPort})
	})
}

// Fault returns the Action that touches addr, faulting if non-resident.
func Fault(addr uint64) Action { return Action{Kind: core.ActFault, Addr: addr} }

// WriteFault returns the Action that stores to addr: resident
// copy-on-write pages are privatized, non-resident pages fault in.
func WriteFault(addr uint64) Action {
	return Action{Kind: core.ActFault, Addr: addr, Write: true}
}

// RaiseException returns the Action that raises a user-level exception.
func RaiseException(code int) Action { return Action{Kind: core.ActException, Code: code} }

// Yield returns the voluntary thread_switch Action.
func Yield() Action { return Action{Kind: core.ActYield} }

// PageSize is the simulated machine's page size.
const PageSize = vm.PageSize

// String renders a compact one-line summary.
func (st Stats) String() string {
	return fmt.Sprintf("blocks=%d discards=%d (%.1f%%) handoffs=%d recognitions=%d stacks{cur=%d max=%d avg=%.2f} threads=%d",
		st.TotalBlocks, st.StackDiscards,
		stats.Percent(st.StackDiscards, st.TotalBlocks),
		st.Handoffs, st.Recognitions,
		st.StacksInUse, st.StacksMax, st.StacksAvg, st.LiveThreads)
}
