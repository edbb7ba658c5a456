// Package workload builds the deterministic workloads of the paper's
// evaluation (§3.2): a short C compilation, a Mach kernel build over an
// AFS-like distributed file system, and an MS-DOS game under emulation.
// Each workload is a population of client threads issuing a calibrated
// mix of RPCs, page faults, exceptions and CPU bursts against user-level
// server tasks, plus the internal kernel daemons the paper's Table 1
// tallies.
package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/machine"
)

// Spec describes a complete workload.
type Spec struct {
	Name string

	// Duration is the simulated run length (the paper's wall-clock
	// column).
	Duration machine.Duration

	// Quantum overrides the scheduler slice when nonzero.
	Quantum machine.Duration

	// Frames sizes physical memory.
	Frames int

	// Clients is the user thread population.
	Clients []ClientSpec

	// ServerThreads is the size of the service task's thread pool and
	// ServerWorkCycles the user CPU burned per request.
	ServerThreads    int
	ServerWorkCycles uint64

	// KickEvery makes the servers kick the internal device daemon once
	// per that many requests (0 disables).
	KickEvery int

	// RemotePer10k of server requests require a network round trip of
	// RemoteLatency (the AFS cache-miss path); the arriving packet runs
	// the network daemon.
	RemotePer10k  int
	RemoteLatency machine.Duration

	// UseExcServer installs a user-level exception server handling every
	// client's exceptions, with the given per-exception user work.
	UseExcServer        bool
	ExcServerWorkCycles uint64
}

// Scale returns a copy of the spec with the duration multiplied by f
// (e.g. 0.01 for a quick calibration run). CheckScale says whether f is
// usable.
func (s Spec) Scale(f float64) Spec {
	s.Duration = machine.Duration(float64(s.Duration) * f)
	return s
}

// CheckScale reports an error unless f is a finite factor > 0 that
// scales the spec's duration to at least 1 ns and below 2^64 ns: a
// zero-length run does nothing, and a negative, NaN or huge product
// wraps machine.Duration.
func (s Spec) CheckScale(f float64) error {
	if d := float64(s.Duration) * f; !(f > 0 && d >= 1 && d < 1<<64) { // NaN fails every comparison
		return fmt.Errorf("want a finite factor > 0 that gives %s a run of 1 ns to 2^64 ns, got %g ns", s.Name, d)
	}
	return nil
}

// CompileTest is the short C compilation benchmark: one compiler pipeline
// talking to the Unix server, a background system daemon, light paging.
// Paper wall time: 22 seconds; block mix: 83.4% receive, 0.9% fault,
// 7.7% preempt, 6.4% internal, 1.6% no-discard (Table 1, Toshiba 5200).
func CompileTest() Spec {
	return Spec{
		Name:     "Compile Test",
		Duration: machine.Duration(22e9),
		Quantum:  machine.Duration(100e6),
		Frames:   1024,
		Clients: []ClientSpec{
			{
				Name:            "cc1",
				Count:           1,
				MeanBurstCycles: 260_000, // ~13 ms on the 20 MHz 386
				Weights:         OpWeights{RPC: 92, Fault: 1},
				// The rare in-kernel waits: a few percent of syscalls
				// hit one.
				KernelFaultPer10k: 350,
				AllocPer10k:       350,
				LockPer10k:        350,
				// Occasional optimizer passes run well past the quantum.
				LongBurstPer10k: 350,
				LongBurstCycles: 5_200_000,
				Priority:        10,
			},
			{
				Name:            "as",
				Count:           1,
				MeanBurstCycles: 240_000,
				Weights:         OpWeights{RPC: 92, Fault: 1},
				LongBurstPer10k: 350,
				LongBurstCycles: 5_200_000,
				Priority:        10,
			},
		},
		ServerThreads:    2,
		ServerWorkCycles: 18_000,
		KickEvery:        6,
	}
}

// KernelBuild is the Mach kernel build over AFS: several concurrent
// compile jobs, heavy file-server RPC traffic through a user-level cache
// manager, steady network daemon activity. Paper wall time: 4917 seconds;
// block mix: 86.3% receive, 4.9% preempt, 8.4% internal (Table 1).
func KernelBuild() Spec {
	return Spec{
		Name:     "Kernel Build",
		Duration: machine.Duration(4917e9),
		Quantum:  machine.Duration(100e6),
		Frames:   2048,
		Clients: []ClientSpec{
			{
				Name:              "make-job",
				Count:             3,
				MeanBurstCycles:   180_000,
				Weights:           OpWeights{RPC: 4300, Fault: 20, Yield: 1},
				KernelFaultPer10k: 12,
				AllocPer10k:       9,
				LockPer10k:        8,
				LongBurstPer10k:   80,
				LongBurstCycles:   4_200_000,
				Priority:          10,
			},
		},
		ServerThreads:    3,
		ServerWorkCycles: 16_000,
		KickEvery:        0,
		RemotePer10k:     2000,
		RemoteLatency:    machine.Duration(12 * 1000 * 1000),
	}
}

// DOSEmulation is the MS-DOS game (Wing Commander) under emulation: a
// single program whose privileged instructions raise exceptions handled
// by a user-level exception server in its own address space, plus video
// and input RPC traffic. Paper wall time: 698 seconds; block mix: 55.2%
// receive, 37.9% exception, 5.3% preempt, 1.6% internal (Table 1).
func DOSEmulation() Spec {
	return Spec{
		Name:     "DOS Emulation",
		Duration: machine.Duration(698e9),
		Quantum:  machine.Duration(100e6),
		Frames:   1024,
		Clients: []ClientSpec{
			{
				Name:            "wing-commander",
				Count:           1,
				MeanBurstCycles: 50_000, // ~2.5 ms between emulator traps
				Weights:         OpWeights{RPC: 10, Exception: 50},
				LongBurstPer10k: 220,
				LongBurstCycles: 4_500_000,
				Priority:        10,
			},
			{
				Name:            "screen-refresher",
				Count:           1,
				MeanBurstCycles: 2_600_000,
				Weights:         OpWeights{RPC: 1},
				LongBurstPer10k: 350,
				LongBurstCycles: 4_000_000,
				Priority:        9,
			},
		},
		ServerThreads:       2,
		ServerWorkCycles:    9_000,
		KickEvery:           5,
		UseExcServer:        true,
		ExcServerWorkCycles: 7_000,
	}
}

// Specs returns the paper's three workloads in Table 1 column order.
func Specs() []Spec {
	return []Spec{CompileTest(), KernelBuild(), DOSEmulation()}
}

// Instance is a workload installed on a system.
type Instance struct {
	Sys  *kern.System
	Spec Spec

	Servers   []*Server
	ExcServer *ExcServer
	Device    *Daemon
	Clients   []*Client

	clientThreads []*core.Thread
}

// Install creates the workload's tasks, ports, daemons and threads on
// the system and makes them runnable.
func Install(sys *kern.System, spec Spec, seed uint64) *Instance {
	inst := &Instance{Sys: sys, Spec: spec}
	rng := NewRNG(seed)

	// The internal device daemon (network interrupts, AFS callbacks,
	// disk strategy postprocessing).
	if spec.KickEvery > 0 || spec.RemotePer10k > 0 {
		inst.Device = NewDaemon(sys, "netisr", machine.Cost{Instrs: 400, Loads: 120, Stores: 60})
	}

	// The service task (Unix server / AFS cache manager).
	serverTask := sys.NewTask("unix-server")
	servicePort := sys.IPC.NewPort("service")
	for i := 0; i < spec.ServerThreads; i++ {
		srv := NewServer(sys, servicePort, spec.ServerWorkCycles)
		if inst.Device != nil {
			if spec.KickEvery > 0 {
				srv.KickDaemon = inst.Device
				srv.KickEvery = spec.KickEvery
			}
			srv.RemoteKick = inst.Device
		}
		srv.RemotePer10k = spec.RemotePer10k
		srv.RemoteLatency = spec.RemoteLatency
		srv.rng = NewRNG(rng.Next())
		inst.Servers = append(inst.Servers, srv)
		th := serverTask.NewNamedThread(core.IndexedName("svc-", i), srv, 20)
		sys.Start(th)
	}

	// The exception server, when the workload uses one.
	var excPort *ipc.Port
	if spec.UseExcServer {
		excTask := sys.NewTask("exc-emulator")
		excPort = sys.IPC.NewPort("exc-service")
		es := NewExcServer(sys, excPort, spec.ExcServerWorkCycles)
		inst.ExcServer = es
		th := excTask.NewThread("handler", es, 21)
		sys.Start(th)
	}

	// Client tasks.
	for _, cs := range spec.Clients {
		replyName := core.NameOf(cs.Name + "-").Suffixed("-reply")
		for i := 0; i < cs.Count; i++ {
			task := sys.NewTask(fmt.Sprintf("%s-%d", cs.Name, i))
			reply := sys.IPC.NewNamedPort(replyName.Index(i))
			cl := NewClient(sys, cs, servicePort, reply, NewRNG(rng.Next()))
			inst.Clients = append(inst.Clients, cl)
			th := task.NewThread("main", cl, cs.Priority)
			if cs.Weights.Exception > 0 {
				if excPort == nil {
					panic("workload: exception ops without an exception server")
				}
				sys.Exc.SetExceptionPort(th, excPort)
			}
			inst.clientThreads = append(inst.clientThreads, th)
			sys.Start(th)
		}
	}
	return inst
}

// Run drives the installed workload for its duration. A zero duration
// runs nothing: at boot its deadline would be 0, which Kernel.Run reads
// as no deadline at all.
func (inst *Instance) Run() {
	if inst.Spec.Duration == 0 {
		return
	}
	inst.Sys.Run(inst.Sys.K.Clock.Now() + inst.Spec.Duration)
}

// NewSystem boots a system sized for the spec.
func NewSystem(flavor kern.Flavor, arch machine.Arch, spec Spec) *kern.System {
	return kern.New(kern.Config{
		Flavor:  flavor,
		Arch:    arch,
		Quantum: spec.Quantum,
		Frames:  spec.Frames,
	})
}

// Run is the one-call entry: boot, install, run, return the system for
// inspection.
func Run(flavor kern.Flavor, arch machine.Arch, spec Spec, seed uint64) (*kern.System, *Instance) {
	sys := NewSystem(flavor, arch, spec)
	inst := Install(sys, spec, seed)
	inst.Run()
	return sys, inst
}
