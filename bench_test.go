// Benchmarks regenerating the paper's evaluation: one benchmark (or
// family) per table and figure, plus the §5 Firefly projection, ablations
// of the individual continuation optimizations, and the Go-native
// validation of the space/time claims.
//
// Simulated results are attached as custom metrics (sim-us/op, %, bytes)
// so `go test -bench` reports both host performance of the simulator and
// the reproduced numbers. EXPERIMENTS.md records the paper-vs-measured
// comparison.
package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/experiments"
	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/stats"
	"repro/internal/threadmodel"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------
// Tables 1 and 2: workload block statistics.
// ---------------------------------------------------------------------

func benchWorkload(b *testing.B, spec workload.Spec, scale float64) {
	var res experiments.Table1Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunWorkload(spec, scale, 12345)
	}
	total := res.TotalBlocks
	b.ReportMetric(stats.Percent(res.Blocks[stats.BlockReceive], total), "%receive")
	b.ReportMetric(stats.Percent(res.Blocks[stats.BlockException], total), "%exception")
	b.ReportMetric(stats.Percent(res.Blocks[stats.BlockPreempt], total), "%preempt")
	b.ReportMetric(stats.Percent(res.Blocks[stats.BlockInternal], total), "%internal")
	b.ReportMetric(stats.Percent(total-res.NoDiscards, total), "%discard")
	b.ReportMetric(stats.Percent(res.Handoffs, total), "%handoff")
	b.ReportMetric(stats.Percent(res.Recognitions, total), "%recognition")
	b.ReportMetric(res.StacksAvg, "stacks-avg")
}

// BenchmarkTable1And2_CompileTest reproduces the Compile Test columns of
// Tables 1 and 2 (paper: 83.4% receive, 98.4% discard, 96.8% handoff,
// 60.2% recognition).
func BenchmarkTable1And2_CompileTest(b *testing.B) {
	benchWorkload(b, workload.CompileTest(), 0.5)
}

// BenchmarkTable1And2_KernelBuild reproduces the Kernel Build columns
// (paper: 86.3% receive, 99.9% discard, 99.7% handoff, 72.3%
// recognition).
func BenchmarkTable1And2_KernelBuild(b *testing.B) {
	benchWorkload(b, workload.KernelBuild(), 0.02)
}

// BenchmarkTable1And2_DOSEmulation reproduces the DOS Emulation columns
// (paper: 55.2% receive, 37.9% exception, 100% discard and handoff,
// 85.9% recognition).
func BenchmarkTable1And2_DOSEmulation(b *testing.B) {
	benchWorkload(b, workload.DOSEmulation(), 0.1)
}

// ---------------------------------------------------------------------
// Table 3: null RPC and exception latency, all six cells each.
// ---------------------------------------------------------------------

func benchNullRPC(b *testing.B, flavor kern.Flavor, arch machine.Arch) {
	var us float64
	for i := 0; i < b.N; i++ {
		us = experiments.NullRPC(flavor, arch, 200)
	}
	paper, _ := experiments.PaperTable3(arch, flavor)
	b.ReportMetric(us, "sim-us/rpc")
	b.ReportMetric(paper, "paper-us/rpc")
}

func benchException(b *testing.B, flavor kern.Flavor, arch machine.Arch) {
	var us float64
	for i := 0; i < b.N; i++ {
		us = experiments.ExceptionRTT(flavor, arch, 200)
	}
	_, paper := experiments.PaperTable3(arch, flavor)
	b.ReportMetric(us, "sim-us/exc")
	b.ReportMetric(paper, "paper-us/exc")
}

func BenchmarkTable3_NullRPC(b *testing.B) {
	for _, arch := range experiments.Arches {
		for _, flavor := range experiments.Flavors {
			b.Run(fmt.Sprintf("%v/%v", arch, flavor), func(b *testing.B) {
				benchNullRPC(b, flavor, arch)
			})
		}
	}
}

func BenchmarkTable3_Exception(b *testing.B) {
	for _, arch := range experiments.Arches {
		for _, flavor := range experiments.Flavors {
			b.Run(fmt.Sprintf("%v/%v", arch, flavor), func(b *testing.B) {
				benchException(b, flavor, arch)
			})
		}
	}
}

// ---------------------------------------------------------------------
// Table 4: component costs (handoff vs context switch).
// ---------------------------------------------------------------------

// BenchmarkTable4_Components reports the modeled time of the paper's
// measured components on the DS3100: stack handoff (83/22/18) versus
// context switch (250/52/27).
func BenchmarkTable4_Components(b *testing.B) {
	m := machine.NewCostModel(machine.ArchDS3100)
	tc := machine.TransferCostsFor(m, true)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = m.TimeMicros(tc.StackHandoff) + m.TimeMicros(tc.ContextSwitch)
	}
	_ = sink
	b.ReportMetric(m.TimeMicros(tc.StackHandoff), "handoff-us")
	b.ReportMetric(m.TimeMicros(tc.ContextSwitch), "ctxswitch-us")
	b.ReportMetric(m.TimeMicros(tc.SyscallEntry), "entry-us")
	b.ReportMetric(m.TimeMicros(tc.SyscallExit), "exit-us")
}

// ---------------------------------------------------------------------
// Table 5: per-thread kernel memory.
// ---------------------------------------------------------------------

// BenchmarkTable5_ThreadOverhead parks a population of receivers on both
// kernels and reports measured bytes per thread (paper: 690 vs 4664, an
// 85% saving).
func BenchmarkTable5_ThreadOverhead(b *testing.B) {
	var rows []experiments.Table5Result
	for i := 0; i < b.N; i++ {
		rows = experiments.Table5(50)
	}
	b.ReportMetric(rows[0].MeasuredPerThread, "mk40-B/thread")
	b.ReportMetric(rows[1].MeasuredPerThread, "mk32-B/thread")
	b.ReportMetric(100*(1-rows[0].MeasuredPerThread/rows[1].MeasuredPerThread), "%saving")
}

// ---------------------------------------------------------------------
// Figure 2: the fast RPC path.
// ---------------------------------------------------------------------

// BenchmarkFigure2_FastRPCPath drives steady-state fast RPCs and checks
// the signature of the path: handoff and recognition on every transfer,
// no queueing.
func BenchmarkFigure2_FastRPCPath(b *testing.B) {
	var us float64
	for i := 0; i < b.N; i++ {
		us = experiments.NullRPC(kern.MK40, machine.ArchDS3100, 200)
	}
	b.ReportMetric(us, "sim-us/rpc")
	seen := map[obs.Kind]bool{}
	for _, ev := range experiments.Figure2Trace() {
		seen[ev.Kind] = true
	}
	if !seen[obs.StackHandoff] || !seen[obs.Recognition] {
		b.Fatal("fast path signature missing from trace")
	}
	if seen[obs.QueueMessage] || seen[obs.ContextSwitch] {
		b.Fatal("fast path queued or context switched")
	}
}

// ---------------------------------------------------------------------
// §5: the Firefly projection.
// ---------------------------------------------------------------------

// BenchmarkFirefly886Threads blocks 886 threads on a 5-CPU machine and
// reports the stack census (paper: 6 stacks in Mach with continuations;
// Topaz measured 212; one per thread without).
func BenchmarkFirefly886Threads(b *testing.B) {
	var mk40, mk32 experiments.FireflyResult
	for i := 0; i < b.N; i++ {
		mk40 = experiments.Firefly886(kern.MK40)
	}
	mk32 = experiments.Firefly886(kern.MK32)
	b.ReportMetric(float64(mk40.StacksInUse), "mk40-stacks")
	b.ReportMetric(float64(mk32.StacksInUse), "mk32-stacks")
}

// ---------------------------------------------------------------------
// Ablations: which optimization buys what (§2.3's three techniques).
// ---------------------------------------------------------------------

// ablationRPC measures null RPC and exception round trips with
// individual optimizations disabled.
func ablationRPC(b *testing.B, noHandoff, noRecognition bool) {
	var rpc, exc float64
	for i := 0; i < b.N; i++ {
		rpc = experiments.NullRPCOn(ablationSystem(noHandoff, noRecognition), 200)
		exc = experiments.ExceptionRTTOn(ablationSystem(noHandoff, noRecognition), 200)
	}
	b.ReportMetric(rpc, "sim-us/rpc")
	b.ReportMetric(exc, "sim-us/exc")
}

// ablationSystem boots a DS3100 MK40 with the given optimizations off.
func ablationSystem(noHandoff, noRecognition bool) *kern.System {
	return kern.New(kern.Config{
		Flavor:         kern.MK40,
		Arch:           machine.ArchDS3100,
		DisableCallout: true,
		NoHandoff:      noHandoff,
		NoRecognition:  noRecognition,
	})
}

// BenchmarkAblation_Full is the complete MK40 (baseline for the family).
func BenchmarkAblation_Full(b *testing.B) { ablationRPC(b, false, false) }

// BenchmarkAblation_NoRecognition keeps handoff but always calls the
// saved continuation instead of completing inline.
func BenchmarkAblation_NoRecognition(b *testing.B) { ablationRPC(b, false, true) }

// BenchmarkAblation_NoHandoff keeps stack discarding but frees and
// re-attaches stacks on every transfer instead of handing them over.
func BenchmarkAblation_NoHandoff(b *testing.B) { ablationRPC(b, true, false) }

// BenchmarkAblation_NoHandoffNoRecognition disables both: continuations
// only buy stack discarding.
func BenchmarkAblation_NoHandoffNoRecognition(b *testing.B) { ablationRPC(b, true, true) }

// ---------------------------------------------------------------------
// Go-native validation (real measurements, not simulation).
// ---------------------------------------------------------------------

// BenchmarkGoNative_GoroutineSwitch measures a real channel ping-pong
// hop: the goroutine-model control transfer.
func BenchmarkGoNative_GoroutineSwitch(b *testing.B) {
	ping := make(chan struct{})
	pong := make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ping <- struct{}{}
		<-pong
	}
	b.StopTimer()
	close(ping)
}

// BenchmarkGoNative_ContinuationCall measures the continuation-model
// transfer: store a resumption, call it.
func BenchmarkGoNative_ContinuationCall(b *testing.B) {
	a := &threadmodel.Record{ID: 0}
	c := &threadmodel.Record{ID: 1}
	var cur *threadmodel.Record
	a.Cont = func(*threadmodel.Record) { cur = c }
	c.Cont = func(*threadmodel.Record) { cur = a }
	cur = a
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := cur.Cont
		cur.State++
		f(cur)
	}
}

// BenchmarkGoNative_BlockedSpace reports measured bytes per blocked
// goroutine versus per continuation record.
func BenchmarkGoNative_BlockedSpace(b *testing.B) {
	var c threadmodel.Comparison
	for i := 0; i < b.N; i++ {
		c = threadmodel.Measure(1000, 8, 1000)
	}
	b.ReportMetric(c.GoroutineBytes, "goroutine-B")
	b.ReportMetric(c.RecordBytes, "record-B")
	b.ReportMetric(c.SpaceRatio, "space-ratio")
}

// ---------------------------------------------------------------------
// Simulator host performance (how fast the simulation itself runs).
// ---------------------------------------------------------------------

// BenchmarkSimulatorThroughput reports host time per simulated fast RPC.
func BenchmarkSimulatorThroughput(b *testing.B) {
	sys := kern.New(kern.Config{Flavor: kern.MK40, Arch: machine.ArchDS3100, DisableCallout: true})
	experiments.SetupNullRPC(sys, b.N)
	b.ResetTimer()
	sys.Run(0)
}

// BenchmarkDispatchSteadyState measures the allocation behavior of the
// hottest simulator path: one dispatcher step of a warmed-up MK40 fast-RPC
// ping-pong. The dispatch engine, the IPC fast path and the benchmark
// programs all recycle their state, so steady state must report
// 0 allocs/op — CI fails if an allocation creeps back in.
func BenchmarkDispatchSteadyState(b *testing.B) {
	sys := kern.New(kern.Config{Flavor: kern.MK40, Arch: machine.ArchDS3100, DisableCallout: true})
	experiments.SetupNullRPC(sys, 1<<30)
	// Warm until the free lists and ring buffers have reached steady
	// state: every structure the ping-pong touches has been through at
	// least one full cycle.
	for i := 0; i < 2000; i++ {
		if !sys.K.Step() {
			b.Fatal("null-RPC pair quiesced during warmup")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.K.Step()
	}
}

// BenchmarkPaperRPCSteadyState measures the paper workloads' own message
// path: one dispatcher step of a warmed-up MK40 workload.Client ↔
// workload.Server pair issuing only RPCs between CPU bursts. Both
// programs build their syscalls once and recycle every message, so
// steady state must report 0 allocs/op — CI fails if an allocation
// creeps back in.
func BenchmarkPaperRPCSteadyState(b *testing.B) {
	sys := kern.New(kern.Config{Flavor: kern.MK40, Arch: machine.ArchDS3100, DisableCallout: true})
	svc := sys.IPC.NewPort("service")
	sys.Start(sys.NewTask("server").NewThread("svc", workload.NewServer(sys, svc, 2_000), 20))
	spec := workload.ClientSpec{Name: "cli", MeanBurstCycles: 5_000, Weights: workload.OpWeights{RPC: 1}}
	cli := workload.NewClient(sys, spec, svc, sys.IPC.NewPort("reply"), workload.NewRNG(1))
	sys.Start(sys.NewTask("client").NewThread("cli", cli, 10))
	for i := 0; i < 2000; i++ {
		if !sys.K.Step() {
			b.Fatal("paper RPC pair quiesced during warmup")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.K.Step()
	}
}

// BenchmarkExcSteadyState measures the allocation behavior of the
// exception path under each kernel setting: MK40 with and without each
// continuation optimization, MK32 and Mach 2.5. An op is one warmed
// exception round trip (raise, the server's receive and reply, the
// restart), not one dispatcher step, so an allocation made once per
// raise shows as one alloc/op. There is none: each raising thread keeps
// one ExcInfo, which its raises rewrite, so CI gates the family at
// 0 allocs/op (benchjson -zero-allocs).
func BenchmarkExcSteadyState(b *testing.B) {
	for _, set := range []struct {
		name string
		cfg  kern.Config
	}{
		{"MK40", kern.Config{Flavor: kern.MK40}},
		{"MK40-NoHandoff", kern.Config{Flavor: kern.MK40, NoHandoff: true}},
		{"MK40-NoRecognition", kern.Config{Flavor: kern.MK40, NoRecognition: true}},
		{"MK40-NoHandoff-NoRecognition", kern.Config{Flavor: kern.MK40, NoHandoff: true, NoRecognition: true}},
		{"MK32", kern.Config{Flavor: kern.MK32}},
		{"Mach25", kern.Config{Flavor: kern.Mach25}},
	} {
		b.Run(set.name, func(b *testing.B) {
			cfg := set.cfg
			cfg.Arch = machine.ArchDS3100
			cfg.DisableCallout = true
			sys := kern.New(cfg)
			cli := experiments.SetupException(sys, 1<<30)
			roundTrip := func() {
				for want := cli.Raised + 1; cli.Raised < want; {
					if !sys.K.Step() {
						b.Fatal("exception pair quiesced")
					}
				}
			}
			for i := 0; i < 2000; i++ {
				roundTrip()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				roundTrip()
			}
		})
	}
}

// BenchmarkClusterRound measures the allocation behavior of the cluster
// driver itself: two connected machines, each running a warmed-up local
// fast-RPC ping-pong, one horizon round per op. The activity heap, wire
// lookahead and dirty-NIC flush reuse their state and the dispatch path
// is allocation-free, so this must report 0 allocs/op.
func BenchmarkClusterRound(b *testing.B) {
	cfg := kern.Config{Flavor: kern.MK40, Arch: machine.ArchDS3100, DisableCallout: true}
	a, c := kern.New(cfg), kern.New(cfg)
	dev.Connect(a.Net.NIC, c.Net.NIC, machine.Duration(100_000))
	experiments.SetupNullRPC(a, 1<<30)
	experiments.SetupNullRPC(c, 1<<30)
	cluster := kern.NewCluster(a, c)
	cluster.SetDeferredForTest(true)
	defer cluster.SetDeferredForTest(false)
	for i := 0; i < 2000; i++ {
		if _, ok := cluster.RoundForTest(); !ok {
			b.Fatal("cluster quiesced during warmup")
		}
	}
	var steps uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, ok := cluster.RoundForTest()
		if !ok {
			b.Fatal("cluster quiesced")
		}
		steps += n
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/round")
}

// crossClient is BenchmarkClusterCrossRPC's client: one RPC after another
// through a netmsg proxy, counting the replies.
type crossClient struct {
	sys    *kern.System
	server *ipc.Port
	reply  *ipc.Port
	done   int
	rpc    core.Action
}

func (c *crossClient) Next(e *core.Env, t *core.Thread) core.Action {
	if c.rpc.Invoke == nil {
		c.rpc = core.Syscall("mach_msg(rpc)", func(e *core.Env) {
			req := c.sys.IPC.NewMessage(1, ipc.HeaderBytes, nil, c.reply)
			c.sys.IPC.MachMsg(e, ipc.MsgOptions{
				Send: req, SendTo: c.server, ReceiveFrom: c.reply,
			})
		})
	}
	if m := c.sys.IPC.Received(t); m != nil {
		c.sys.IPC.FreeMessage(m)
		c.done++
	}
	return c.rpc
}

// BenchmarkClusterCrossRPC measures what one cross-machine round trip
// allocates. Two machines are joined by a wire: a client on one sends
// through a netmsg proxy to an echo server exported on the other, and
// each op runs horizon rounds until one more reply is in. Every hop
// reuses its storage (the arrival event, the rx completion, the queues,
// the resume steps), so the op's only allocations are its two wire
// packets, which forward builds and a retransmit may share between
// machines. CI gates it at 2 allocs/op (benchjson -max-allocs).
func BenchmarkClusterCrossRPC(b *testing.B) {
	cfg := kern.Config{Flavor: kern.MK40, Arch: machine.ArchDS3100, DisableCallout: true}
	cli, srv := kern.New(cfg), kern.New(cfg)
	dev.Connect(cli.Net.NIC, srv.Net.NIC, 0)
	port := srv.IPC.NewPort("echo")
	srv.Net.Export("echo", port)
	srv.Start(srv.NewTask("server").NewThread("srv", workload.NewEchoServer(srv, port), 20))
	c := &crossClient{sys: cli, server: cli.Net.ProxyFor("echo"), reply: cli.IPC.NewPort("reply")}
	cli.Start(cli.NewTask("client").NewThread("cli", c, 10))
	cluster := kern.NewCluster(cli, srv)
	cluster.SetDeferredForTest(true)
	defer cluster.SetDeferredForTest(false)
	roundTrip := func() {
		for want := c.done + 1; c.done < want; {
			if _, ok := cluster.RoundForTest(); !ok {
				b.Fatal("cluster quiesced")
			}
		}
	}
	for i := 0; i < 2000; i++ {
		roundTrip()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}

// BenchmarkClusterNetRPC compares sequential and parallel execution of
// the same 4-machine cross-machine workload (2 pairs, 32 clients per
// pair). The outputs are byte-identical (TestParallelEquivalence*); this
// benchmark shows what the horizon rounds buy in wall-clock. The par/seq
// speedup is the ns/op ratio of the two sub-benchmarks.
func BenchmarkClusterNetRPC(b *testing.B) {
	spec := workload.DefaultNetRPC()
	spec.Pairs = 2
	spec.Clients = 32
	spec.DiskReads = 0
	run := func(b *testing.B, parallel bool) {
		spec.Parallel = parallel
		var res *workload.NetRPCResult
		for i := 0; i < b.N; i++ {
			res = workload.RunNetRPC(kern.MK40, machine.ArchDS3100, spec)
		}
		b.ReportMetric(float64(res.Completed), "rpcs")
	}
	b.Run("seq", func(b *testing.B) { run(b, false) })
	b.Run("par", func(b *testing.B) { run(b, true) })
}

// BenchmarkClusterScale measures the driver's per-round cost on a
// mostly-idle cluster: machine 0 runs a self-rescheduling 20us tick
// while every other machine sits quiescent, so each horizon round has
// exactly one active machine no matter the cluster size. With the
// indexed activity heap, cached wire lookahead and dirty-NIC flush the
// round cost is O(active + log N); CI gates m256 <= 3x m8 (benchjson
// -max-ratio), which a full per-round sweep over machines and NICs would
// blow through immediately.
func BenchmarkClusterScale(b *testing.B) {
	run := func(b *testing.B, n int) {
		cfg := kern.Config{Flavor: kern.MK40, Arch: machine.ArchDS3100, DisableCallout: true}
		systems := make([]*kern.System, n)
		for i := range systems {
			systems[i] = kern.New(cfg)
		}
		for i := 0; i+1 < n; i += 2 {
			dev.Connect(systems[i].Net.NIC, systems[i+1].Net.NIC, machine.Duration(100_000))
		}
		cluster := kern.NewCluster(systems...)
		cluster.Drive(false) // drain boot work; every machine goes idle
		s0 := systems[0]
		var tick func()
		tick = func() { s0.K.Clock.After(machine.Duration(20_000), "tick", tick) }
		tick()
		cluster.SetDeferredForTest(true)
		defer cluster.SetDeferredForTest(false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := cluster.RoundForTest(); !ok {
				b.Fatal("busy machine went quiescent")
			}
		}
	}
	b.Run("m8", func(b *testing.B) { run(b, 8) })
	b.Run("m64", func(b *testing.B) { run(b, 64) })
	b.Run("m256", func(b *testing.B) { run(b, 256) })
}

// BenchmarkBlockedPopulation measures what one short-lived thread's whole
// life costs next to a population of parked ones: one machine holds P
// threads blocked receiving, each registered on its own port, and each
// op creates a thread, lets it block in a receive, wakes it from an
// interrupt, and runs it through exit and the reaper. The paper's space
// argument says the parked population should not matter, and the
// kernel's lifecycle bookkeeping (census, reaping, IPC release) is O(1)
// per thread. CI gates p10000 <= 1.5x p100 (benchjson -max-ratio), which
// any per-thread or per-port sweep on that path would blow through.
func BenchmarkBlockedPopulation(b *testing.B) {
	run := func(b *testing.B, parked int) {
		sys := kern.New(kern.Config{Flavor: kern.MK40, Arch: machine.ArchDS3100, DisableCallout: true})
		task := sys.NewTask("pop")
		for i := 0; i < parked; i++ {
			port := sys.IPC.NewPort(fmt.Sprintf("parked-%d", i))
			sys.Start(task.NewThread(fmt.Sprintf("parked-%d", i), core.ProgramFunc(
				func(e *core.Env, t *core.Thread) core.Action {
					return core.Syscall("recv", func(e *core.Env) {
						sys.IPC.MachMsg(e, ipc.MsgOptions{ReceiveFrom: port})
					})
				}), 10))
		}
		sys.Run(0)
		churn := sys.IPC.NewPort("churn")
		wake := func(e *core.Env) {
			t := sys.IPC.PopWaiter(e, churn)
			sys.IPC.DeliverTo(e, t, sys.IPC.NewMessage(1, ipc.HeaderBytes, nil, nil))
			e.K.Setrun(t)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			received := false
			th := task.NewThread("churn", core.ProgramFunc(func(e *core.Env, t *core.Thread) core.Action {
				if received {
					sys.IPC.FreeMessage(sys.IPC.Received(t))
					return core.Exit()
				}
				received = true
				return core.Syscall("recv", func(e *core.Env) {
					sys.IPC.MachMsg(e, ipc.MsgOptions{ReceiveFrom: churn})
				})
			}), 10)
			sys.Start(th)
			sys.Run(0) // create and block
			sys.K.TakeInterrupt("wake", wake)
			sys.Run(0) // wake, exit and reap
			if th.State() != core.StateHalted || sys.Reaped != uint64(i+1) {
				b.Fatalf("op %d: churn thread %v, %d reaped", i, th.State(), sys.Reaped)
			}
		}
	}
	b.Run("p100", func(b *testing.B) { run(b, 100) })
	b.Run("p10000", func(b *testing.B) { run(b, 10000) })
}

// BenchmarkBlockedSessionBytes measures what a blocked session costs the
// host, the simulator's side of the paper's Table 5: kernel memory per
// blocked thread (690 bytes on MK40). Two MK40 DS3100 machines share one
// link, observed as cluster runs are, with four echo workers on the
// server. 8 000 client sessions each complete one echo RPC through
// netmsg and then park in a receive on their reply port. Once the
// cluster quiesces, the live heap (after two collections) less an empty
// boot's, per session, is host-B/session: the session's thread, ports,
// program, observability and netmsg records on both machines. The same
// count of bare threads blocked receiving on their own ports, on one
// machine, gives host-B/thread. CI gates host-B/session at 1 024
// (benchjson -max-metric).
func BenchmarkBlockedSessionBytes(b *testing.B) {
	const n = 8000
	var perSession, perThread float64
	for i := 0; i < b.N; i++ {
		perSession = hostBytesPer(n, bootSessionPair)
		perThread = hostBytesPer(n, bootParkedThreads)
	}
	b.ReportMetric(perSession, "host-B/session")
	b.ReportMetric(perThread, "host-B/thread")
}

// hostBytesPer returns the live heap that boot(n) holds beyond boot(0),
// per unit of n.
func hostBytesPer(n int, boot func(int) []*kern.System) float64 {
	empty := boot(0)
	base := liveHeap()
	runtime.KeepAlive(empty)
	full := boot(n)
	held := liveHeap()
	runtime.KeepAlive(full)
	return float64(int64(held)-int64(base)) / float64(n)
}

// liveHeap returns the heap bytes still in use after two collections.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// bootSessionPair boots BenchmarkBlockedSessionBytes's two machines with
// n sessions on the client and drives them until every session is
// parked.
func bootSessionPair(n int) []*kern.System {
	cfg := kern.Config{Flavor: kern.MK40, Arch: machine.ArchDS3100}
	cli, srv := kern.New(cfg), kern.New(cfg)
	dev.Connect(cli.Net.NIC, srv.Net.NIC, 0)
	for i, s := range []*kern.System{cli, srv} {
		s.EnableObservation(0).SetHost(i)
	}
	port := srv.IPC.NewPort("echo")
	port.QueueLimit = 2 * (n + 1)
	srv.Net.Export("echo", port)
	st := srv.NewTask("echo-server")
	for w := 0; w < 4; w++ {
		srv.Start(st.NewThread(fmt.Sprintf("srv-%d", w), workload.NewEchoServer(srv, port), 20))
	}
	ct := cli.NewTask("sessions")
	proxy := cli.Net.ProxyFor("echo")
	sessions := make([]*parkedSession, n)
	for j := range sessions {
		s := &parkedSession{sys: cli, proxy: proxy, reply: cli.IPC.NewPort(fmt.Sprintf("rp-%d", j))}
		sessions[j] = s
		cli.Start(ct.NewThread(fmt.Sprintf("session-%d", j), s, 10))
	}
	kern.NewCluster(cli, srv).Drive(false)
	for _, s := range sessions {
		if s.replies != 1 {
			panic(fmt.Sprintf("session finished %d RPCs before parking, want 1", s.replies))
		}
	}
	return []*kern.System{cli, srv}
}

// bootParkedThreads boots one observed MK40 DS3100 machine whose n
// threads each block receiving on their own port.
func bootParkedThreads(n int) []*kern.System {
	sys := kern.New(kern.Config{Flavor: kern.MK40, Arch: machine.ArchDS3100})
	sys.EnableObservation(0).SetHost(0)
	task := sys.NewTask("parked")
	for j := 0; j < n; j++ {
		s := &parkedSession{sys: sys, reply: sys.IPC.NewPort(fmt.Sprintf("parked-%d", j)), called: true}
		sys.Start(task.NewThread(fmt.Sprintf("parked-%d", j), s, 10))
	}
	sys.Run(0)
	return []*kern.System{sys}
}

// parkedSession is BenchmarkBlockedSessionBytes's client: one echo RPC
// through the proxy (unless called starts true), then a receive on its
// reply port that nothing answers.
type parkedSession struct {
	sys          *kern.System
	proxy, reply *ipc.Port
	called       bool
	replies      int
}

func (s *parkedSession) Next(e *core.Env, t *core.Thread) core.Action {
	if m := s.sys.IPC.Received(t); m != nil {
		s.sys.IPC.FreeMessage(m)
		s.replies++
	}
	return core.Syscall("mach_msg(session)", s.call)
}

// call is the session's syscall body: the RPC the first time, a bare
// receive after.
func (s *parkedSession) call(e *core.Env) {
	opts := ipc.MsgOptions{ReceiveFrom: s.reply}
	if !s.called {
		s.called = true
		opts.Send = s.sys.IPC.NewMessage(1, ipc.HeaderBytes, nil, s.reply)
		opts.SendTo = s.proxy
	}
	s.sys.IPC.MachMsg(e, opts)
}

// BenchmarkDispatchTracedVsUntraced measures the observability tax on
// the hottest simulator path: host time per simulated fast RPC with the
// obs recorder absent (the default — each would-be event is a single nil
// check), installed but retaining nothing ("observed": every event
// stamped and folded into the online histograms, as on every untraced
// cluster run), and retaining a full ring ("traced": every event also
// formatted and ring-buffered, as under -trace). EXPERIMENTS.md records
// the ratios; CI holds the observed arm at 0 allocs/op.
func BenchmarkDispatchTracedVsUntraced(b *testing.B) {
	run := func(b *testing.B, observe bool, capacity int) {
		sys := kern.New(kern.Config{Flavor: kern.MK40, Arch: machine.ArchDS3100, DisableCallout: true})
		if observe {
			sys.EnableObservation(capacity)
		}
		experiments.SetupNullRPC(sys, b.N)
		b.ReportAllocs()
		b.ResetTimer()
		sys.Run(0)
	}
	b.Run("untraced", func(b *testing.B) { run(b, false, 0) })
	b.Run("observed", func(b *testing.B) { run(b, true, 0) })
	b.Run("traced", func(b *testing.B) { run(b, true, obs.DefaultCapacity) })
}

// BenchmarkKVSpanOverhead measures the causal-tracing tax on the
// cross-machine KV workload. "off" head-samples 1-in-2^30: virtually
// every trace is dropped at the mint site, so zero contexts ride the
// netmsg headers and no spans are recorded — the cost is the header
// fields and the zero checks. "on" samples every operation: contexts
// propagate, every tier records spans, and the report analyzer has a
// full span store. CI bounds the on/off ns/op ratio (benchjson
// -max-ratio); the off path must stay indistinguishable from free.
func BenchmarkKVSpanOverhead(b *testing.B) {
	run := func(b *testing.B, every int) {
		spec := workload.DefaultKV()
		spec.SampleEvery = every
		var res *workload.KVResult
		for i := 0; i < b.N; i++ {
			res = workload.RunKV(kern.MK40, machine.ArchDS3100, spec)
		}
		b.ReportMetric(float64(res.Completed), "ops")
	}
	b.Run("off", func(b *testing.B) { run(b, 1<<30) })
	b.Run("on", func(b *testing.B) { run(b, 1) })
}

// BenchmarkKVCritPath times the report-side critical-path analyzer on
// the spans of one fully sampled DefaultKV run, recorded before the
// timer starts. CI bounds it at 0.15x BenchmarkKVSpanOverhead/on, the
// run that records those spans (benchjson -max-ratio): the analyzer
// once took ~18% of that run, most of it in map building, slice growth
// and sorting copied spans.
func BenchmarkKVCritPath(b *testing.B) {
	spec := workload.DefaultKV()
	spec.SampleEvery = 1
	res := workload.RunKV(kern.MK40, machine.ArchDS3100, spec)
	var spans []obs.Span
	for _, sys := range res.Machines {
		spans = append(spans, sys.K.Obs.Spans()...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var cp *obs.CritPath
	for i := 0; i < b.N; i++ {
		cp = obs.AnalyzeCritPath(spans)
	}
	b.ReportMetric(float64(len(cp.Ops)), "ops")
}

// BenchmarkKVOverloadOverhead measures the overload-control tax on a
// healthy KV run — no faults, so nothing is actually shed and the cost
// is pure bookkeeping: the deadline stamp in every message header, the
// dequeue-time expiry check, the CoDel admission bookkeeping, and the
// breaker/budget accounting around each reply. CI bounds the on/off
// ns/op ratio (benchjson -max-ratio 1.2): controls you cannot afford to
// leave on would never be left on in the storm's recovery arm.
func BenchmarkKVOverloadOverhead(b *testing.B) {
	run := func(b *testing.B, armed bool) {
		spec := workload.DefaultKV()
		if armed {
			spec.Overload = overload.DefaultPolicy()
		}
		var res *workload.KVResult
		for i := 0; i < b.N; i++ {
			res = workload.RunKV(kern.MK40, machine.ArchDS3100, spec)
		}
		b.ReportMetric(float64(res.Completed), "ops")
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

// ---------------------------------------------------------------------
// Message-size sweep: inline copy vs out-of-line COW transfer.
// ---------------------------------------------------------------------

// BenchmarkMessageSizeSweep reports RPC latency against body size for
// both transfer modes; the crossover shows where Mach's out-of-line
// large-message path starts winning.
func BenchmarkMessageSizeSweep(b *testing.B) {
	var rows []experiments.SweepRow
	for i := 0; i < b.N; i++ {
		rows = experiments.MessageSizeSweep([]int{64, 1024, 8192, 65536}, 50)
	}
	for _, r := range rows {
		b.ReportMetric(r.InlineUs, fmt.Sprintf("inline-%dB-us", r.SizeBytes))
		b.ReportMetric(r.OOLUs, fmt.Sprintf("ool-%dB-us", r.SizeBytes))
	}
}
