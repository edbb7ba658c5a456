// Package experiments contains the drivers that regenerate every table
// and figure of the paper's evaluation (§3), plus the Firefly comparison
// of §5. Each driver boots a fresh simulated system, runs the relevant
// microbenchmark or workload, and returns structured results that the
// benchmarks, the cmd/tables tool and EXPERIMENTS.md all share.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Flavors lists the measured kernels in the paper's column order.
var Flavors = []kern.Flavor{kern.MK40, kern.MK32, kern.Mach25}

// Arches lists the evaluation machines.
var Arches = []machine.Arch{machine.ArchDS3100, machine.ArchToshiba5200}

// ---------------------------------------------------------------------
// Table 3: null RPC and exception round-trip latency.
// ---------------------------------------------------------------------

// PingClient issues RPCs, recording the simulated time spent between
// warmup and completion. Each request carries size bytes (0 sends a
// header-only null RPC), out of line when ool is set.
type PingClient struct {
	sys    *kern.System
	server *ipc.Port
	reply  *ipc.Port
	size   int
	ool    bool
	rpcs   int
	warmup int

	done      int
	MarkStart machine.Time
	MarkEnd   machine.Time

	rpcAct core.Action
}

// Next implements core.UserProgram.
func (c *PingClient) Next(e *core.Env, t *core.Thread) core.Action {
	if c.rpcAct.Invoke == nil {
		c.rpcAct = core.Syscall("mach_msg(rpc)", func(e *core.Env) {
			req := c.sys.IPC.NewMessage(1, c.size, nil, c.reply)
			req.OOL = c.ool
			c.sys.IPC.MachMsg(e, ipc.MsgOptions{
				Send: req, SendTo: c.server, ReceiveFrom: c.reply,
			})
		})
	}
	// Recycle the previous round's echoed reply.
	if m := c.sys.IPC.Received(t); m != nil {
		c.sys.IPC.FreeMessage(m)
	}
	if c.done == c.warmup {
		c.MarkStart = c.sys.K.Clock.Now()
	}
	if c.done >= c.rpcs {
		c.MarkEnd = c.sys.K.Clock.Now()
		return core.Exit()
	}
	c.done++
	return c.rpcAct
}

// NullRPC measures the round-trip time of a cross-address space null RPC
// in simulated microseconds.
func NullRPC(flavor kern.Flavor, arch machine.Arch, iters int) float64 {
	sys := kern.New(kern.Config{Flavor: flavor, Arch: arch, DisableCallout: true})
	return NullRPCOn(sys, iters)
}

// NullRPCOn runs the null RPC microbenchmark on a pre-built system,
// letting callers configure ablations or machine variants.
func NullRPCOn(sys *kern.System, iters int) float64 {
	if iters <= 0 {
		iters = 1000
	}
	cli := SetupNullRPC(sys, iters)
	sys.Run(0)
	return (cli.MarkEnd - cli.MarkStart).Micros() / float64(iters)
}

// SetupNullRPC installs a client/server echo pair that will run iters
// timed RPCs (after a small warmup) when the system runs.
func SetupNullRPC(sys *kern.System, iters int) *PingClient {
	st := sys.NewTask("server")
	ct := sys.NewTask("client")
	sp := sys.IPC.NewPort("service")
	rp := sys.IPC.NewPort("reply")
	srv := workload.NewEchoServer(sys, sp)
	warmup := 10
	cli := &PingClient{sys: sys, server: sp, reply: rp, rpcs: iters + warmup, warmup: warmup}
	sys.Start(st.NewThread("srv", srv, 20))
	sys.Start(ct.NewThread("cli", cli, 10))
	return cli
}

// ExcClient raises exceptions, recording the simulated time spent
// between warmup and completion.
type ExcClient struct {
	sys    *kern.System
	n      int
	warmup int

	// Raised counts the exceptions raised so far: each one after the
	// first means the one before it was handled.
	Raised    int
	MarkStart machine.Time
	MarkEnd   machine.Time
}

// Next implements core.UserProgram.
func (c *ExcClient) Next(e *core.Env, t *core.Thread) core.Action {
	if c.Raised == c.warmup {
		c.MarkStart = c.sys.K.Clock.Now()
	}
	if c.Raised >= c.n {
		c.MarkEnd = c.sys.K.Clock.Now()
		return core.Exit()
	}
	c.Raised++
	return core.Action{Kind: core.ActException, Code: c.Raised}
}

// ExceptionRTT measures the time for a user-level server thread to
// handle a faulting thread's exception, in simulated microseconds. The
// server runs in the same address space as the faulting thread (§3.3).
func ExceptionRTT(flavor kern.Flavor, arch machine.Arch, iters int) float64 {
	sys := kern.New(kern.Config{Flavor: flavor, Arch: arch, DisableCallout: true})
	return ExceptionRTTOn(sys, iters)
}

// ExceptionRTTOn runs the exception microbenchmark on a pre-built
// system, letting callers configure ablations or machine variants.
func ExceptionRTTOn(sys *kern.System, iters int) float64 {
	if iters <= 0 {
		iters = 1000
	}
	cli := SetupException(sys, iters)
	sys.Run(0)
	return (cli.MarkEnd - cli.MarkStart).Micros() / float64(iters)
}

// SetupException installs a faulting thread and its exception server
// that will run iters timed exception round trips (after a small
// warmup) when the system runs.
func SetupException(sys *kern.System, iters int) *ExcClient {
	task := sys.NewTask("emulated")
	port := sys.IPC.NewPort("exc")
	// The minimal exception server: it does no work and neither examines
	// nor changes the faulting thread's state, as in the paper's
	// benchmark.
	srv := workload.NewExcServer(sys, port, 0)
	warmup := 10
	cli := &ExcClient{sys: sys, n: iters + warmup, warmup: warmup}
	sys.Start(task.NewThread("handler", srv, 20))
	faulter := task.NewThread("faulter", cli, 10)
	sys.Exc.SetExceptionPort(faulter, port)
	sys.Start(faulter)
	return cli
}

// Table3Row is one cell group of Table 3.
type Table3Row struct {
	Arch     machine.Arch
	Flavor   kern.Flavor
	RPCus    float64
	ExcUs    float64
	PaperRPC float64
	PaperExc float64
}

// PaperTable3 returns the published values.
func PaperTable3(arch machine.Arch, flavor kern.Flavor) (rpc, exc float64) {
	switch arch {
	case machine.ArchDS3100:
		switch flavor {
		case kern.MK40:
			return 95, 135
		case kern.MK32:
			return 110, 425
		default:
			return 185, 380
		}
	default:
		switch flavor {
		case kern.MK40:
			return 535, 525
		case kern.MK32:
			return 510, 1155
		default:
			return 890, 1410
		}
	}
}

// Table3 regenerates the full latency table.
func Table3(iters int) []Table3Row {
	var rows []Table3Row
	for _, arch := range Arches {
		for _, flavor := range Flavors {
			prpc, pexc := PaperTable3(arch, flavor)
			rows = append(rows, Table3Row{
				Arch:     arch,
				Flavor:   flavor,
				RPCus:    NullRPC(flavor, arch, iters),
				ExcUs:    ExceptionRTT(flavor, arch, iters),
				PaperRPC: prpc,
				PaperExc: pexc,
			})
		}
	}
	return rows
}

// ---------------------------------------------------------------------
// Tables 1 and 2: workload block statistics.
// ---------------------------------------------------------------------

// Table1Result holds one workload column of Tables 1 and 2.
type Table1Result struct {
	Workload string
	SimTime  machine.Time

	Blocks      [stats.NumBlockReasons]uint64
	NoDiscards  uint64
	TotalBlocks uint64

	Handoffs     uint64
	Recognitions uint64

	StacksAvg float64
	StacksMax int
}

// RunWorkload executes one paper workload at the given duration scale on
// MK40/Toshiba (the configuration of Tables 1-2) and collects the
// statistics.
func RunWorkload(spec workload.Spec, scale float64, seed uint64) Table1Result {
	sys, _ := workload.Run(kern.MK40, machine.ArchToshiba5200, spec.Scale(scale), seed)
	st := sys.K.Stats
	res := Table1Result{
		Workload:     spec.Name,
		SimTime:      sys.K.Clock.Now(),
		NoDiscards:   st.TotalNoDiscards(),
		TotalBlocks:  st.TotalBlocks(),
		Handoffs:     st.Handoffs,
		Recognitions: st.Recognitions,
		StacksAvg:    sys.K.Stacks.AverageInUse(),
		StacksMax:    sys.K.Stacks.MaxInUse(),
	}
	res.Blocks = st.BlocksWithDiscard
	return res
}

// Tables1And2 regenerates both workload tables at the given scale.
func Tables1And2(scale float64, seed uint64) []Table1Result {
	var out []Table1Result
	for _, spec := range workload.Specs() {
		out = append(out, RunWorkload(spec, scale, seed))
	}
	return out
}

// PaperTable1Percent returns the published Table 1 percentages for a
// workload name, in DiscardReasons order plus the no-discard total.
func PaperTable1Percent(name string) (rows []float64, noDiscard float64) {
	switch name {
	case "Compile Test":
		return []float64{83.4, 0.0, 0.9, 0.0, 7.7, 6.4}, 1.6
	case "Kernel Build":
		return []float64{86.3, 0.0, 0.2, 0.0, 4.9, 8.4}, 0.1
	case "DOS Emulation":
		return []float64{55.2, 37.9, 0.0, 0.0, 5.3, 1.6}, 0.0
	default:
		return nil, 0
	}
}

// PaperTable2Percent returns the published handoff and recognition
// percentages.
func PaperTable2Percent(name string) (handoff, recognition float64) {
	switch name {
	case "Compile Test":
		return 96.8, 60.2
	case "Kernel Build":
		return 99.7, 72.3
	case "DOS Emulation":
		return 100.0, 85.9
	default:
		return 0, 0
	}
}

// ---------------------------------------------------------------------
// Table 4: component costs.
// ---------------------------------------------------------------------

// Table4Row is one line of the component-cost table.
type Table4Row struct {
	Component string
	MK40      machine.Cost
	MK32      machine.Cost
}

// Table4 returns the DS3100 component costs used by the simulation;
// the MK40/MK32 entry/exit and handoff/switch values are the paper's
// measurements, taken as machine facts.
func Table4() []Table4Row {
	m := machine.NewCostModel(machine.ArchDS3100)
	mk40 := machine.TransferCostsFor(m, true)
	mk32 := machine.TransferCostsFor(m, false)
	return []Table4Row{
		{Component: "system call entry", MK40: mk40.SyscallEntry, MK32: mk32.SyscallEntry},
		{Component: "system call exit", MK40: mk40.SyscallExit, MK32: mk32.SyscallExit},
		{Component: "stack handoff", MK40: mk40.StackHandoff},
		{Component: "context switch", MK32: mk32.ContextSwitch},
	}
}

// ---------------------------------------------------------------------
// Table 5: per-thread kernel memory.
// ---------------------------------------------------------------------

// Table5Result compares static thread overhead and the measured average
// over a population of blocked threads.
type Table5Result struct {
	Flavor            kern.Flavor
	Static            kern.ThreadSpace
	MeasuredPerThread float64
	Threads           int
	StacksInUse       int
}

// Table5 boots each flavor, parks n threads in message receives (the
// dominant state of real systems), and reports per-thread memory.
func Table5(n int) []Table5Result {
	var out []Table5Result
	for _, flavor := range Flavors[:2] { // the paper tables MK40 and MK32
		// Daemons off: the census must count exactly the parked threads
		// (plus the pageout daemon), as in the paper's measurement.
		sys := kern.New(kern.Config{
			Flavor: flavor, Arch: machine.ArchDS3100, DisableCallout: true,
			DisableDaemons: true,
		})
		task := sys.NewTask("pool")
		port := sys.IPC.NewPort("idle")
		for i := 0; i < n; i++ {
			prog := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
				return core.Syscall("receive", func(e *core.Env) {
					sys.IPC.MachMsg(e, ipc.MsgOptions{ReceiveFrom: port})
				})
			})
			sys.Start(task.NewThread("idle", prog, 10))
		}
		sys.Run(0)
		out = append(out, Table5Result{
			Flavor:            flavor,
			Static:            kern.StaticThreadSpace(flavor),
			MeasuredPerThread: sys.MeasuredPerThreadBytes(),
			Threads:           sys.LiveUserThreads(),
			StacksInUse:       sys.K.Stacks.InUse(),
		})
	}
	return out
}

// ---------------------------------------------------------------------
// Figure 2: the fast RPC path trace.
// ---------------------------------------------------------------------

// Figure2Trace records the control-transfer steps of one steady-state
// fast RPC on MK40 (obs.TransferString renders them).
func Figure2Trace() []obs.Event {
	sys := kern.New(kern.Config{Flavor: kern.MK40, Arch: machine.ArchDS3100, DisableCallout: true})
	st := sys.NewTask("server")
	ct := sys.NewTask("client")
	sp := sys.IPC.NewPort("service")
	rp := sys.IPC.NewPort("reply")
	srv := workload.NewEchoServer(sys, sp)
	cli := &PingClient{sys: sys, server: sp, reply: rp, rpcs: 4, warmup: 0}
	sys.Start(st.NewThread("server", srv, 20))
	sys.Start(ct.NewThread("client", cli, 10))

	// Warm up two RPCs so both sides are parked in mach_msg_continue,
	// then trace the third by attaching an event recorder for just that
	// window and keeping its control-transfer steps.
	for cli.done < 3 && sys.K.Step() {
	}
	rec := sys.EnableObservation(obs.DefaultCapacity)
	for cli.done < 4 && sys.K.Step() {
	}
	sys.K.Obs = nil
	steps := obs.Transfers(rec.Events())
	sys.Run(0)
	return steps
}

// DeviceReadTrace records the control-transfer steps of one steady-state
// interrupt-driven device_read on MK40: kernel entry, block with
// device_read_continue (stack discarded), the transfer interrupt taken on
// the current processor's stack, and the io_done thread handing its stack
// to the reader, recognizing the device continuation, and finishing the
// read inline.
func DeviceReadTrace() []obs.Event {
	sys := kern.New(kern.Config{Flavor: kern.MK40, Arch: machine.ArchDS3100,
		DisableCallout: true,
		// A short service time keeps the trace tight.
		DiskLatency: machine.Duration(500 * 1000)})
	task := sys.NewTask("reader")
	oneRead := func(name string) *core.Thread {
		issued := false
		prog := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
			if issued {
				return core.Exit()
			}
			issued = true
			return core.Syscall("device_read", func(e *core.Env) {
				d := sys.Dev.Open(e, "disk")
				sys.Dev.DeviceRead(e, d, 4096)
			})
		})
		return task.NewThread(name, prog, 10)
	}

	// Warm up one full read so the io_done thread is parked in
	// io_done_continue, then trace a second reader end to end.
	sys.Start(oneRead("warm"))
	sys.Run(0)
	rec := sys.EnableObservation(obs.DefaultCapacity)
	sys.Start(oneRead("rd"))
	sys.Run(0)
	sys.K.Obs = nil
	return obs.Transfers(rec.Events())
}

// ---------------------------------------------------------------------
// §5: the Firefly comparison.
// ---------------------------------------------------------------------

// FireflyResult reports the kernel stack census for the Topaz usage
// scenario: 886 blocked kernel-level threads on a five-processor
// machine.
type FireflyResult struct {
	Flavor      kern.Flavor
	Threads     int
	Processors  int
	StacksInUse int
}

// Firefly886 reproduces the §5 projection: 886 kernel threads blocked
// with the Firefly's observed wait mix (106 timers, 20 network waits, 38
// exception waits, 28 internal daemons, the rest in message receives) on
// 5 processors, plus 5 compute threads keeping every processor busy. In
// Mach-with-continuations this needs 6 stacks (one per processor plus
// the special process-model thread); a dedicated-stack kernel needs one
// per thread.
func Firefly886(flavor kern.Flavor) FireflyResult {
	sys := kern.New(kern.Config{
		Flavor:     flavor,
		Arch:       machine.ArchDS3100,
		Processors: 5,
		Frames:     1 << 14,
	})
	task := sys.NewTask("population")
	port := sys.IPC.NewPort("sink")

	const (
		timers    = 106
		netWaits  = 20
		excWaits  = 38
		daemons   = 28
		total     = 886
		receivers = total - timers - netWaits - excWaits - daemons
	)

	// Message receivers (the dominant population, as on the Firefly).
	var blocked []*core.Thread
	recvProg := func() core.UserProgram {
		return core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
			return core.Syscall("receive", func(e *core.Env) {
				sys.IPC.MachMsg(e, ipc.MsgOptions{ReceiveFrom: port})
			})
		})
	}
	for i := 0; i < receivers+netWaits+excWaits; i++ {
		th := task.NewNamedThread(core.IndexedName("blocked-", i), recvProg(), 10)
		blocked = append(blocked, th)
		sys.Start(th)
	}
	// Timer waiters: sleep far in the future.
	for i := 0; i < timers; i++ {
		prog := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
			return core.Syscall("sleep", func(e *core.Env) {
				t := e.Cur()
				sys.K.WakeAtBackground(sys.K.Clock.Now()+machine.Duration(1e15), t)
				e.K.SetState(t, core.StateWaiting)
				sys.K.Block(e, stats.BlockInternal, contSleepForever, nil, 128, "sleep")
			})
		})
		th := task.NewNamedThread(core.IndexedName("timer-", i), prog, 10)
		blocked = append(blocked, th)
		sys.Start(th)
	}
	// Internal daemons.
	for i := 0; i < daemons; i++ {
		d := workload.NewDaemon(sys, fmt.Sprintf("daemon-%d", i), machine.Cost{Instrs: 100})
		blocked = append(blocked, d.Thread)
	}
	// Five compute threads keep all processors busy so the census shows
	// the per-processor running stacks.
	for i := 0; i < 5; i++ {
		prog := core.ProgramFunc(func(e *core.Env, th *core.Thread) core.Action {
			return core.RunFor(10000)
		})
		sys.Start(task.NewNamedThread(core.IndexedName("busy-", i), prog, 5))
	}

	// Drive until the blocked population has settled (every processor
	// then runs a compute thread), and take the census.
	settled := func() bool {
		for _, th := range blocked {
			if th.State() != core.StateWaiting {
				return false
			}
		}
		for _, p := range sys.K.Procs {
			if p.Cur == nil {
				return false
			}
		}
		return true
	}
	for i := 0; i < 5_000_000 && !settled(); i++ {
		if !sys.K.Step() {
			break
		}
	}
	return FireflyResult{
		Flavor:      flavor,
		Threads:     sys.K.LiveThreads(),
		Processors:  5,
		StacksInUse: sys.K.Stacks.InUse(),
	}
}

var contSleepForever = core.NewContinuation("sleep_forever_continue", func(e *core.Env) {
	e.K.ThreadSyscallReturn(e, 0)
})
