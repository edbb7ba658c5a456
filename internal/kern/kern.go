// Package kern assembles the simulated operating system: it wires the
// control-transfer core to the scheduler, IPC, VM and exception
// substrates, and configures one of the paper's three measured kernels:
//
//   - MK40  — the continuation kernel (§2): stack discard, stack handoff,
//     continuation recognition; kernel stacks are wired (no VM metadata)
//     and machine-dependent thread state lives in a separate save area.
//
//   - MK32  — the optimized process-model kernel: one dedicated, pageable
//     kernel stack per thread, a hand-optimized RPC path that context
//     switches directly between sender and receiver, no continuations.
//
//   - Mach25 — the hybrid kernel: process model, queued messages, the
//     general scheduler on every transfer, and the in-kernel BSD layer's
//     extra path weight.
//
// The package also provides tasks (address spaces plus port namespaces)
// and the internal kernel threads of §3.4, including the one thread whose
// control flow makes a continuation impractical: it keeps a dedicated
// stack even in MK40 and is the "+1 per-machine stack" in the paper's
// census.
package kern

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/exc"
	"repro/internal/ipc"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/vm"
)

// Flavor identifies one of the three measured kernels. The kernel's
// identity lives in core, which boots from it; kern names it for the
// configurations it assembles.
type Flavor = core.Flavor

const (
	MK40   = core.MK40
	MK32   = core.MK32
	Mach25 = core.Mach25
)

// ParseFlavor reads a command-line flavor spelling.
func ParseFlavor(s string) (Flavor, error) {
	for f := MK40; f <= Mach25; f++ {
		if f.FlagName() == s {
			return f, nil
		}
	}
	return 0, fmt.Errorf("unknown flavor %q", s)
}

// ThreadSpace is the Table 5 decomposition of per-thread kernel memory.
type ThreadSpace struct {
	MIState    int // machine-independent thread structure
	MDState    int // separate machine-dependent save area
	StackBytes int // dedicated kernel stack
	VMState    int // VM structures backing a pageable stack
}

// Total is the per-thread kernel memory in bytes.
func (s ThreadSpace) Total() int {
	return s.MIState + s.MDState + s.StackBytes + s.VMState
}

// StaticThreadSpace returns a flavor's nominal per-thread overhead on
// the DS3100 (the paper's Table 5). In MK40 the thread structure grew by
// 32 bytes (4-byte continuation pointer + 28-byte scratch area) and the
// machine-dependent state moved off the (now absent) stack into a 206
// byte save area.
func StaticThreadSpace(f Flavor) ThreadSpace {
	if f == MK40 {
		return ThreadSpace{
			MIState:    484, // 452 + 4 (continuation) + 28 (scratch)
			MDState:    machine.MDStateBytes,
			StackBytes: 0,
			VMState:    0,
		}
	}
	return ThreadSpace{
		MIState:    452,
		MDState:    0, // lives on the dedicated stack
		StackBytes: machine.KernelStackSize,
		VMState:    116,
	}
}

// CalloutInterval is how often the special process-model kernel thread
// wakes for its bookkeeping tick.
const CalloutInterval = machine.Duration(60 * 1000 * 1000 * 1000) // 60 s

// Config describes the system to boot.
type Config struct {
	Flavor     Flavor
	Arch       machine.Arch
	Processors int
	// Quantum overrides the scheduler time slice when nonzero.
	Quantum machine.Duration
	// Frames and DiskLatency size the VM subsystem.
	Frames      int
	DiskLatency machine.Duration
	// DisableCallout omits the special process-model kernel thread, for
	// experiments that need an exact stack census.
	DisableCallout bool

	// DisableDaemons omits the device subsystem and its kernel threads
	// (io-done, netmsg, reaper), for experiments that need an exact stack
	// census or the bare pre-device kernel, whose VM pages in on the
	// flat-latency path (each page-in an independent timer).
	DisableDaemons bool

	// NoHandoff and NoRecognition disable individual continuation
	// optimizations, for ablation benchmarks.
	NoHandoff     bool
	NoRecognition bool
}

// System is a booted kernel with all substrates attached.
type System struct {
	Flavor Flavor
	K      *core.Kernel
	Sched  *sched.RunQueue
	IPC    *ipc.IPC
	VM     *vm.VM
	Exc    *exc.Exc

	// Dev is the device subsystem; Disk its paging disk; Net the netmsg
	// forwarding thread bound to this machine's first NIC. All nil when
	// DisableDaemons is set.
	Dev  *dev.Subsystem
	Disk *dev.Device
	Net  *dev.Netmsg

	// Links are all netmsg forwarding threads, one per NIC in creation
	// order; Links[0] == Net. Netmsg links are point-to-point, so a
	// machine wired to several peers (an RPC client with a primary and a
	// replica server) grows one per peer via AddLink.
	Links []*dev.Netmsg

	// Incarnation is the machine's boot count, starting at 1; each warm
	// reboot increments it and stamps it into outbound packets so the
	// reliable netmsg layer can discard traffic that outlived a crash.
	Incarnation uint32

	// Down reports the machine is crashed: between Crash and Reboot it
	// has no threads, no subsystems, and its NICs discard arrivals.
	Down bool

	// PanicRecord is the capture from the most recent crash, nil before
	// the first one.
	PanicRecord *PanicRecord

	// services are the named installers RegisterService has recorded; a
	// warm reboot re-runs them in registration order — the machine's
	// init script, where a workload re-creates its servers and
	// re-exports their ports.
	services []namedService

	// Watchdog is the stall/deadlock watchdog, nil unless EnableWatchdog
	// was called; it survives reboots (re-registering on each boot).
	Watchdog *Watchdog

	// cfg is retained so a warm reboot can re-run the boot sequence.
	cfg Config

	// priorNet accumulates the netmsg counters of incarnations replaced
	// by reboots; NetTotals adds the current incarnation's links on top.
	priorNet NetTotals

	// Callout is the special kernel thread that never blocks with a
	// continuation (nil when disabled).
	Callout *core.Thread

	// Reaper is the kernel thread that reclaims dead threads' kernel
	// state (nil when daemons are disabled).
	Reaper     *core.Thread
	contReaper *core.Continuation

	// contAborted is the continuation an aborted thread resumes at; the
	// Mach code it returns is the thread's wait result.
	contAborted *core.Continuation

	tasks     []*Task
	nextSpace int

	// CalloutTicks counts bookkeeping passes of the callout thread.
	CalloutTicks uint64
	// Reaped counts threads whose kernel state the reaper reclaimed.
	Reaped uint64
	// AllocWaits and LockWaits count the process-model waits the
	// workloads induce (Table 1's bottom row, with kernel faults).
	AllocWaits uint64
	LockWaits  uint64

	// CrashCount and Reboots count whole-machine failures and warm
	// reboots.
	CrashCount uint64
	Reboots    uint64

	// topoChanged is set by Crash and Reboot — the events after which a
	// cluster driver's cached wire lookahead may be stale. It is written
	// only from this machine's own execution (crash/reboot are local clock
	// events) and polled by the cluster coordinator at the round barrier,
	// so no locking is needed under the parallel driver.
	topoChanged bool
}

// TakeTopoChanged reports and clears the machine's pending topology
// change (crash or reboot since the last poll).
func (s *System) TakeTopoChanged() bool {
	v := s.topoChanged
	s.topoChanged = false
	return v
}

// namedService pairs a service name with its boot installer.
type namedService struct {
	name    string
	install func(*System)
}

// RegisterService records a named service installer and runs it now.
// An installer is the boot script of a machine-resident service (a KV
// replica, a cache tier, a load generator): it creates the service's
// tasks, threads and port exports against the current incarnation's
// substrates. After a crash, Reboot re-runs every installer in
// registration order on the fresh incarnation — the service-level
// analogue of init respawning daemons. State an installer closes over
// survives the crash (the workload's "persistent" metadata); state it
// creates fresh each call is the incarnation's volatile memory.
func (s *System) RegisterService(name string, install func(*System)) {
	s.services = append(s.services, namedService{name: name, install: install})
	install(s)
}

// Task is an address space plus a name for its threads.
type Task struct {
	ID    int
	Name  string
	Space *vm.Space
	sys   *System

	// Threads lists the task's threads in creation order, less the
	// reaped ones the reaper has compacted away; reaped counts those it
	// has not yet (see unlinkFromTask).
	Threads []*core.Thread
	reaped  int

	// base and joined are the last thread-name base the task named a
	// thread under and that base joined to the task's name
	// ("task/base"). Callers name a family of threads (a tenant's
	// sessions) one after another, so the task builds one string per
	// family, not one per thread.
	base, joined string
}

// New boots a system.
func New(cfg Config) *System {
	k := core.NewKernel(core.Config{
		Model:         machine.NewCostModel(cfg.Arch),
		Flavor:        cfg.Flavor,
		Processors:    cfg.Processors,
		NoHandoff:     cfg.NoHandoff,
		NoRecognition: cfg.NoRecognition,
	})
	s := &System{
		Flavor:      cfg.Flavor,
		K:           k,
		cfg:         cfg,
		Incarnation: 1,
	}
	s.bootSubstrates(nil)
	return s
}

// bootSubstrates runs the boot sequence on s.K: scheduler, device layer,
// VM, IPC, exceptions, the netmsg links, and the internal kernel threads
// (callout, io-done, netmsg, reaper). On first boot adopt is nil and the
// primary NIC is created fresh; on a warm reboot it lists the NICs
// surviving from the previous incarnation (the hardware and its wiring
// outlive a crash), in creation order.
func (s *System) bootSubstrates(adopt []*dev.NIC) {
	cfg := s.cfg
	rq := sched.New(cfg.Quantum)
	s.K.Sched = rq
	s.Sched = rq
	s.Links = nil
	s.Dev, s.Disk, s.Net = nil, nil, nil
	if !cfg.DisableDaemons {
		lat := cfg.DiskLatency
		if lat == 0 {
			lat = vm.DefaultDiskLatency
		}
		s.Dev = dev.NewSubsystem(s.K)
		s.Disk = s.Dev.NewDevice("disk", lat)
	}
	s.VM = vm.New(s.K, vm.Config{Frames: cfg.Frames, DiskLatency: cfg.DiskLatency, Disk: s.Disk})
	s.IPC = ipc.New(s.K)
	s.Exc = exc.New(s.K, s.IPC)
	if s.Dev != nil {
		s.Dev.AttachPorts(s.IPC)
		if adopt == nil {
			nic := s.Dev.NewNIC("ne0")
			s.Net = dev.NewNetmsg(s.Dev, s.IPC, nic)
			s.Links = []*dev.Netmsg{s.Net}
		} else {
			for _, nic := range adopt {
				s.Dev.AdoptNIC(nic)
				s.Links = append(s.Links, dev.NewNetmsg(s.Dev, s.IPC, nic))
			}
			if len(s.Links) > 0 {
				s.Net = s.Links[0]
			}
		}
	}
	s.contAborted = core.NewContinuation("thread_abort_continue", s.abortReturn)
	if !cfg.DisableCallout {
		s.startCallout()
	}
	if !cfg.DisableDaemons {
		s.startReaper()
	}
	if s.Watchdog != nil {
		s.Watchdog.register()
	}
}

// AddLink creates an additional NIC with its own netmsg forwarding
// thread ("netmsg1", ...). Links are point-to-point: a machine that
// talks to two peers needs two of them, each Connect-ed to one peer.
func (s *System) AddLink() *dev.Netmsg {
	if s.Dev == nil {
		panic("kern: AddLink on a system without the device subsystem")
	}
	nic := s.Dev.NewNIC(fmt.Sprintf("ne%d", len(s.Dev.NICs())))
	n := dev.NewNetmsg(s.Dev, s.IPC, nic)
	s.Links = append(s.Links, n)
	return n
}

// startReaper creates the kernel thread that reclaims the kernel state of
// halted threads (DESIGN §3.4's "reaper"). It blocks with a continuation,
// so in MK40 it holds no stack while idle; thread_halt kicks it through
// the kernel's OnHalt hook.
func (s *System) startReaper() {
	s.contReaper = core.NewContinuation("reaper_continue", s.reaperLoop)
	s.Reaper = s.K.NewThread(core.ThreadSpec{
		Name:     core.NameOf("reaper"),
		SpaceID:  0,
		Internal: true,
		Priority: 28,
		Start:    s.contReaper,
	})
	s.K.OnHalt = func(t *core.Thread) {
		if s.Reaper.State() == core.StateWaiting {
			s.K.Setrun(s.Reaper)
		}
	}
}

// reapCost is the per-thread teardown work: unlink from the task, free
// the machine-dependent save area, return thread structure memory.
var reapCost = machine.Cost{Instrs: 220, Loads: 70, Stores: 45}

// reaperLoop drains dead threads, then blocks with its own continuation
// (§2.2 style). Each reap releases the IPC and device state still
// charged to the dead thread — pooled message buffers, waiter
// registrations and requests with their callouts — and asserts the census
// comes back clean, so a leak on an abnormal-termination path fails
// loudly instead of stranding pool entries. Transfers control.
func (s *System) reaperLoop(e *core.Env) {
	for _, t := range s.K.ReapHalted() {
		e.Charge(reapCost)
		s.IPC.ReleaseThread(t)
		residue := s.IPC.Residue(t)
		if s.Dev != nil {
			s.Dev.ReleaseThread(t)
			residue += s.Dev.Residue(t)
		}
		if residue != 0 {
			panic(fmt.Sprintf("kern: reaper leak — thread %s still owns %d resources after release",
				t.Name(), residue))
		}
		s.unlinkFromTask(t)
		s.Reaped++
	}
	t := e.Cur()
	e.K.SetState(t, core.StateWaiting)
	t.WaitLabel = "reaper: idle"
	s.K.Block(e, stats.BlockInternal, s.contReaper, nil, 256, "reaper-wait")
}

// unlinkFromTask drops a reaped thread from its task's thread list, so
// nothing keeps a dead session's thread reachable. As in the kernel's
// registry (core.Kernel.ReapHalted), reaped threads leave by
// order-preserving compaction once they fill half of the list, so the
// upkeep is amortized O(1) per reaped thread. Kernel threads belong to
// no task.
func (s *System) unlinkFromTask(th *core.Thread) {
	i, ok := slices.BinarySearchFunc(s.tasks, th.SpaceID, func(t *Task, id int) int { return t.ID - id })
	if !ok {
		return
	}
	task := s.tasks[i]
	task.reaped++
	if 2*task.reaped < len(task.Threads) {
		return
	}
	live := task.Threads[:0]
	for _, t := range task.Threads {
		if !t.Reaped() {
			live = append(live, t)
		}
	}
	clear(task.Threads[len(live):])
	task.Threads = live
	task.reaped = 0
}

// startCallout creates the kernel thread whose flow of control makes a
// continuation impractical: it always blocks under the process model and
// therefore holds one dedicated stack for the life of the machine —
// "a constant per-machine, and not per-processor, overhead" (§3.4).
func (s *System) startCallout() {
	s.Callout = s.K.NewThread(core.ThreadSpec{
		Name:     core.NameOf("callout"),
		SpaceID:  0,
		Internal: true,
		Priority: 31,
		StartPM:  s.calloutLoop,
	})
	s.K.Setrun(s.Callout)
}

// calloutLoop runs timed bookkeeping, then sleeps under the process
// model. Transfers control.
func (s *System) calloutLoop(e *core.Env) {
	s.CalloutTicks++
	e.Charge(machine.Cost{Instrs: 200, Loads: 60, Stores: 30})
	t := e.Cur()
	s.K.WakeAtBackground(s.K.Clock.Now()+CalloutInterval, t)
	e.K.SetState(t, core.StateWaiting)
	t.WaitLabel = "callout: tick wait"
	// A nil continuation forces the process model even in MK40.
	s.K.Block(e, stats.BlockInternal, nil, s.calloutLoop, 512, "callout-wait")
}

// NewTask creates a task with a fresh address space.
func (s *System) NewTask(name string) *Task {
	s.nextSpace++
	t := &Task{
		ID:    s.nextSpace,
		Name:  name,
		Space: s.VM.NewSpace(s.nextSpace),
		sys:   s,
	}
	s.tasks = append(s.tasks, t)
	return t
}

// Tasks returns all created tasks.
func (s *System) Tasks() []*Task { return s.tasks }

// NewThread creates a thread named name in the task. The thread starts
// blocked; call System.Start to make it runnable.
func (t *Task) NewThread(name string, prog core.UserProgram, priority int) *core.Thread {
	return t.NewNamedThread(core.NameOf(name), prog, priority)
}

// NewNamedThread is NewThread for a thread named n, which reads
// "task/n". A family of threads (a tenant's sessions) shares one base
// and gives each thread its own index, so naming them builds no string.
func (t *Task) NewNamedThread(n core.Name, prog core.UserProgram, priority int) *core.Thread {
	if t.joined == "" || t.base != n.Base() {
		t.base, t.joined = n.Base(), t.Name+"/"+n.Base()
	}
	th := t.sys.K.NewThread(core.ThreadSpec{
		Name:     n.WithBase(t.joined),
		SpaceID:  t.ID,
		Program:  prog,
		Priority: priority,
	})
	t.Threads = append(t.Threads, th)
	return th
}

// Start makes a thread runnable.
func (s *System) Start(t *core.Thread) { s.K.Setrun(t) }

// EnableObservation installs an event recorder on this machine's kernel
// and returns it. Retention is opt-in: the recorder keeps the newest
// capacity events for Events and the trace export, and capacity 0 keeps
// none (pass obs.DefaultCapacity to read a trace back). Histograms, the
// continuation profiler, spans and the census are maintained online from
// this point on at any capacity, so they see the whole observed window
// even when the ring keeps nothing or evicts early events.
func (s *System) EnableObservation(capacity int) *obs.Recorder {
	r := obs.NewRecorder(s.K.Clock, capacity)
	s.K.Observe(r)
	return r
}

// MemoryCensus snapshots the machine's space claim: kernel-stack
// high-water against the worst simultaneous blocked-thread count — the
// paper's continuation dividend read as a single pair — plus the live
// thread population for scale.
func (s *System) MemoryCensus() obs.Census {
	return obs.Census{
		StackHighWater:   s.K.Stacks.MaxInUse(),
		BlockedHighWater: s.K.BlockedHighWater,
		LiveThreads:      s.K.LiveThreads(),
	}
}

// Run drives the machine to quiescence or the deadline.
func (s *System) Run(deadline machine.Time) uint64 { return s.K.Run(deadline) }

// AllocWait makes the current kernel path wait for kernel memory: a
// process-model block even in MK40, since the allocator's callers cannot
// reasonably save their state (§3.2: "memory allocation"). resume
// continues the interrupted path. Transfers control.
func (s *System) AllocWait(e *core.Env, frameBytes int, resume func(*core.Env)) {
	s.AllocWaits++
	t := e.Cur()
	s.K.WakeAt(s.K.Clock.Now()+machine.Duration(500*1000), t)
	e.K.SetState(t, core.StateWaiting)
	t.WaitLabel = "kmem alloc"
	s.K.Block(e, stats.BlockKernelAlloc, nil, resume, frameBytes, "kmem-wait")
}

// LockWait makes the current kernel path wait for a contended kernel
// lock under the process model (§3.2: "lock acquisition"). Transfers
// control.
func (s *System) LockWait(e *core.Env, frameBytes int, resume func(*core.Env)) {
	s.LockWaits++
	t := e.Cur()
	s.K.WakeAt(s.K.Clock.Now()+machine.Duration(50*1000), t)
	e.K.SetState(t, core.StateWaiting)
	t.WaitLabel = "lock wait"
	s.K.Block(e, stats.BlockLock, nil, resume, frameBytes, "lock-wait")
}

// LiveUserThreads counts non-halted threads that belong to tasks (i.e.
// kernel-level threads backing user activity, the population Table 5
// divides memory over).
func (s *System) LiveUserThreads() int {
	n := 0
	for _, task := range s.tasks {
		for _, th := range task.Threads {
			if th.State() != core.StateHalted {
				n++
			}
		}
	}
	return n
}

// MeasuredPerThreadBytes computes the observed average kernel memory per
// live kernel-level thread right now: fixed thread state for every
// thread, plus stack and VM metadata for each stack actually in use.
// In MK40 the stack term is amortized over all threads (stacks are a
// per-processor resource); in the process-model kernels every thread owns
// one.
func (s *System) MeasuredPerThreadBytes() float64 {
	threads := 0
	for _, th := range s.K.Threads {
		if th.State() != core.StateHalted {
			threads++
		}
	}
	if threads == 0 {
		return 0
	}
	sp := StaticThreadSpace(s.Flavor)
	fixed := float64(sp.MIState + sp.MDState)
	stackBytes := float64(s.K.Stacks.InUse()) *
		float64(machine.KernelStackSize+s.K.Stacks.VMMetadataBytes)
	return fixed + stackBytes/float64(threads)
}
