// machsim runs one of the paper's workloads on a chosen kernel flavor
// and machine, then prints the control-transfer statistics in the format
// of Tables 1 and 2 (single-machine workloads) or the cluster report
// (multi-machine workloads).
//
// Usage:
//
//	machsim [-workload compile|build|dos|netrpc|kv|svcgraph|mtload]
//	        [-flavor mk40|mk32|mach25] [-arch ds3100|toshiba]
//	        [-scale f] [-seed n] [-v]
//	        [-pairs n] [-clients n] [-parallel] [-failover]
//	        [-machines n] [-tenants n] [-sessions n]
//	        [-faults seed:spec] [-crash M@T[:reboot+N]]
//	        [-fuzz seed:count] [-fuzzout dir] [-breakkv]
//	        [-overload off|on[:k=v,...]] [-breakoverload]
//	        [-check] [-trace out.json] [-profile] [-sample 1/N]
//
// Workloads:
//
//   - compile, build, dos: the paper's single-machine workloads (Tables
//     1 and 2); -scale and -seed apply. -scale is a finite factor > 0
//     on the paper's duration that leaves a run of 1 ns to 2^64 ns
//     (e.g. -scale 0 or -1 exits 2).
//   - netrpc: two machines joined by a NIC pair running cross-machine
//     echo RPCs through the in-kernel netmsg threads. -pairs n boots n
//     client/server pairs (2n machines); -clients n runs n client
//     threads per client machine (both counts are >= 1); -failover boots
//     the 4-machine HA topology (client, primary, replica, client)
//     instead.
//   - kv: the replicated sharded key/value service — two client machines
//     driving a primary/backup replica pair with epoch-numbered leases,
//     fencing tokens and heartbeat-driven leader election. -clients sets
//     the caller threads per client machine.
//   - svcgraph: the multi-tier service graph — frontend -> cache ->
//     replicated KV — reporting per-tier throughput and p50/p99 latency
//     from the service histograms.
//   - mtload: the open-loop multi-tenant load generator at cluster
//     scale — -machines n client/server hosts (even, default 8) carrying
//     -tenants k traffic classes (default 4) whose sessions a
//     cluster-level balancer spreads across the machines; -sessions
//     overrides the per-tenant session count (default 100 per machine).
//     Each session sleeps through jittered think times as a blocked
//     continuation and charges latency from its intended arrival, so the
//     report's per-tenant p50/p99 and SLA-attainment include queueing
//     delay. The aggregate report ends with the cluster memory census:
//     stacks stay O(processors) per machine while blocked sessions scale
//     into the 10^5..10^6 range. Adding -overload switches mtload into
//     the storm scenario (below).
//
// -overload arms the end-to-end overload controls on the kv and mtload
// workloads: absolute deadlines propagated in the message headers (every
// tier sheds dead work on dequeue), per-client retry budgets, CoDel-style
// admission control at the cache and KV tiers, and a circuit breaker in
// the clients. "on" uses the canonical policy; "on:deadline=8ms,budget=4"
// overrides fields (keys: deadline, target, interval, budget, refill,
// breaker, cooldown); a malformed spec exits 2 naming the offending
// rule. Shed operations are definite no-ops: the linearizability checker
// excludes them and -breakoverload runs the deliberately broken replica
// that applies an already-expired write before claiming it was shed —
// the phantom write the checker must flag.
//
// On mtload, -overload selects the storm scenario instead of the
// balancer cluster: the 4-machine frontend/cache/KV chain under
// open-loop session load with a canonical trigger (demand burst + cache
// gray failure + link delay) that tips the uncontrolled system into a
// metastable retry storm. `-overload off` runs the negative arm — the
// report's verdict line reads METASTABLE when goodput stays collapsed
// for five trigger durations after the trigger cleared — and `-overload
// on` must read RECOVERED (90% of baseline goodput within two trigger
// durations). -faults overrides the trigger schedule, -sessions the
// open-loop session count.
//
// Shared cluster flags: -parallel drives every cluster workload's
// machines on one goroutine each (output stays byte-identical to the
// sequential driver); -crash injects whole-machine crashes (below);
// -faults adds wire/device faults. -fuzz without -workload runs the kv
// campaign.
//
// machsim accepts a flag exactly when the chosen run reads it. The runs
// are the paper workloads, netrpc, kv, the kv fuzz campaign (-fuzz),
// svcgraph, mtload and the mtload storm (-overload); a flag the run does
// not read exits 2 naming the flag, before anything boots. So -pairs
// off netrpc's client/server pairs (including the HA topology that
// -failover and a crash rule, in -crash or -faults, select; the message
// names that topology), -scale or -v on a cluster workload,
// -parallel on a paper workload, and -check, -seed, -trace or a fault
// plan on the fuzz campaign are all rejected rather than ignored.
//
// -faults installs a seeded deterministic fault plan, e.g.
// "42:drop=0.1,devfail=0.05,devslow=0.1:2ms"; wire faults switch the
// netmsg threads to the reliable seq/ack protocol. -check runs the
// kernel invariant sweep after every dispatch. The same -faults argument
// always produces byte-identical output — the CI determinism smoke
// diffs two such runs.
//
// Beyond the probabilistic keys, the spec grammar schedules topology
// faults enforced at the NIC/link plane:
//
//   - partition=A|B@T+D cuts every link between machine groups A and B
//     (dot-separated indices, e.g. 1|0.2.3) from offset T for duration D;
//   - link=S>D:drop@T+D severs the one-way S->D path (the reverse
//     direction keeps flowing — an asymmetric gray link);
//   - link=S>D:delay[:X]@T+D stretches S->D wire latency by X (2ms if
//     omitted);
//   - gray=M:F@T+D runs machine M at 1/F speed — a gray failure: the
//     machine is alive and answering, just pathologically slow;
//   - burst=F@T+D multiplies the open-loop offered load by F (demand-side:
//     the storm and mtload sessions divide their think gaps by it).
//
// Every number in a spec must be finite: a NaN probability or an
// infinite factor exits 2 naming its rule. Probabilities lie in [0,1];
// gray and burst factors lie in (0,1000] (fault.MaxFactor), and so does
// the product of the factors of overlapping windows (gray on one
// machine, burst cluster-wide), because a larger stretch overflows the
// simulated clock or floods memory.
//
// The kv workload records every client operation and checks the merged
// history for per-key linearizability, plus a split-brain assertion over
// the replicas' durable ack logs; the report prints the verdict and a
// nemesis timeline. -fuzz seed:count generates `count` random nemesis
// schedules from `seed`, runs the kv workload under each, and checks
// every history; on a violation it greedily shrinks the schedule and
// prints a minimal reproducing -faults argument, then exits nonzero.
// -fuzzout dir dumps each schedule's history. -breakkv disables the
// replicas' partition-heal safety machinery (rejoin state merge, deposed
// stall) — the deliberately broken build the checker must flag.
//
// -crash M@T[:reboot+N] is sugar for a crash=… rule in the fault spec:
// machine M halts at simulated offset T, dropping all in-flight state,
// and (with :reboot+N) warm-reboots N later under a new incarnation. The
// flag is repeatable. M is a machine index, or a role alias resolved
// against the chosen workload: netrpc/kv accept client/primary/
// replica(backup); svcgraph accepts frontend/cache/primary/
// replica(backup). For netrpc, -crash implies -failover. Crashing the kv
// primary for longer than the membership silence deadline (e.g. -crash
// primary@40ms:reboot+160ms) forces a leader election on the backup and
// a fencing rejection of the rebooted primary's stale lease epochs —
// and every client op still completes. A shorter outage rides through
// on the lease grant-back path with no election. The report gains a
// "recovery:" section with the crash/failover accounting.
//
// -trace records every kernel event and writes a Chrome trace_event JSON
// file (load it in Perfetto or chrome://tracing, or summarize it with
// cmd/traceview). -profile prints the per-continuation profile and the
// latency histograms after the run. Both are deterministic: the same
// flags and seed produce byte-identical traces and reports. Only -trace
// retains kernel events, and only -trace and -profile feed them to the
// recorders: without either, the cluster workloads' recorders take no
// kernel events and keep only their service histograms and spans.
//
// The kv and svcgraph workloads additionally run causal tracing: every
// client operation mints a deterministic trace context that rides the
// netmsg header across machines, and each tier records spans (queue,
// service, wire, retry, election) into its machine's recorder. The
// report ends with a critical-path attribution table — per-segment
// p50/p99 over the sampled operations plus the slowest ops decomposed
// so each op's segment sum equals its measured round-trip. -sample 1/N
// head-samples the traces (keep the 1-in-N hash class of trace ids;
// default 1/1 keeps all). Exported spans appear in the -trace file as
// "X" events with cross-machine flow arrows; summarize them with
// traceview -spans.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/fault"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/stats"
	"repro/internal/workload"
)

// A setting is one command-line flag. A run reads it through get or
// lookup, which records that the run consumed it; main rejects any flag
// given on the command line that the chosen run never read.
type setting[T any] struct {
	name string
	val  *T
}

// define registers a flag through def (flag.String, flag.Int, ...).
func define[T any](def func(string, T, string) *T, name string, value T, usage string) setting[T] {
	return setting[T]{name, def(name, value, usage)}
}

// get reads the flag's value.
func (s setting[T]) get() T {
	consumed[s.name] = true
	return *s.val
}

// lookup reads the flag's value and whether the command line gave it.
func (s setting[T]) lookup() (T, bool) {
	return s.get(), given[s.name]
}

var (
	// given holds the flags on the command line, consumed the flags the
	// chosen run read.
	given    = map[string]bool{}
	consumed = map[string]bool{}

	workloadName = define(flag.String, "workload", "compile", "compile, build, dos, netrpc, kv, svcgraph, or mtload")
	flavorName   = define(flag.String, "flavor", "mk40", "mk40, mk32, or mach25")
	archName     = define(flag.String, "arch", "toshiba", "ds3100 or toshiba")
	scale        = define(flag.Float64, "scale", 0.25, "paper workloads: fraction of the paper's duration to simulate")
	seed         = define(flag.Uint64, "seed", 12345, "workload random seed")
	verbose      = define(flag.Bool, "v", false, "paper workloads: also print per-component detail")
	faults       = define(flag.String, "faults", "", "seed:spec fault plan, e.g. 42:drop=0.1,devfail=0.05")
	check        = define(flag.Bool, "check", false, "run the kernel invariant sweep after every dispatch")
	traceFile    = define(flag.String, "trace", "", "write a Chrome trace_event JSON trace to this file")
	profile      = define(flag.Bool, "profile", false, "print the continuation profile and latency histograms")
	pairs        = define(flag.Int, "pairs", 1, "netrpc: client/server machine pairs (2*pairs machines)")
	clients      = define(flag.Int, "clients", 1, "netrpc/kv/svcgraph: client threads per client machine")
	parallel     = define(flag.Bool, "parallel", false, "every cluster workload: run machines on goroutines (byte-identical output)")
	failover     = define(flag.Bool, "failover", false, "netrpc: boot the 4-machine HA topology (client/primary/replica/client)")
	fuzz         = define(flag.String, "fuzz", "", "kv: fuzz nemesis schedules, seed:count (e.g. 7:25)")
	fuzzOut      = define(flag.String, "fuzzout", "", "kv fuzz: directory receiving one history dump per schedule")
	breakKV      = define(flag.Bool, "breakkv", false, "kv: run the deliberately broken replicas (checker must flag them)")
	sample       = define(flag.String, "sample", "", "kv/svcgraph/mtload storm: head-sample 1/N of operation traces (default 1/1, keep all)")
	machines     = define(flag.Int, "machines", 8, "mtload: cluster size (even, >= 2)")
	tenants      = define(flag.Int, "tenants", 4, "mtload: tenant count")
	sessions     = define(flag.Int, "sessions", 0, "mtload: sessions per tenant (default 100 per machine)")
	overloadFlag = define(flag.String, "overload", "", "kv/mtload: overload controls, off|on[:key=value,...] (mtload: selects the storm scenario)")
	breakOv      = define(flag.Bool, "breakoverload", false, "kv/mtload: replicas apply already-expired writes before shedding them (checker must flag)")

	// crash collects the repeatable -crash flag's raw values; each is
	// sugar for a crash=… rule in the -faults spec. The machine part may
	// be a role alias (primary, cache, …), which resolves against the
	// run's workload when the run reads the flag.
	crash = setting[[]string]{name: "crash", val: new([]string)}
)

func init() {
	flag.Func("crash", "crash machine M (index or role alias) at offset T, e.g. primary@40ms:reboot+80ms (repeatable; implies -failover for netrpc)",
		func(val string) error {
			*crash.val = append(*crash.val, val)
			return nil
		})
}

// exitIf prints err and exits 2, machsim's status for a command line it
// rejects, when err is non-nil.
func exitIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

func main() {
	flag.Parse()
	flag.Visit(func(f *flag.Flag) { given[f.Name] = true })
	if given["breakoverload"] && !given["overload"] {
		exitIf(errors.New("-breakoverload requires -overload (nothing sheds without it)"))
	}
	flavor, arch := readFlavor(), readArch()

	name := workloadName.get()
	if given["fuzz"] && !given["workload"] {
		name = "kv" // the fuzzer runs the kv workload
	}
	scope := "-workload " + name
	var run func()
	switch name {
	case "compile", "build", "dos":
		run = paperRun(name, flavor, arch)
	case "netrpc":
		run = netRPCRun(flavor, arch, &scope)
	case "kv":
		if given["fuzz"] {
			scope = "the kv fuzz campaign (-fuzz)"
			run = fuzzRun(flavor, arch)
		} else {
			run = kvRun(flavor, arch)
		}
	case "svcgraph":
		run = svcGraphRun(flavor, arch)
	case "mtload":
		if given["overload"] {
			scope = "the mtload storm scenario (-overload)"
			run = stormRun(flavor, arch)
		} else {
			run = mtLoadRun(flavor, arch)
		}
	default:
		exitIf(fmt.Errorf("unknown workload %q", name))
	}
	flag.Visit(func(f *flag.Flag) {
		if !consumed[f.Name] {
			exitIf(fmt.Errorf("-%s does not apply to %s", f.Name, scope))
		}
	})
	run()
}

func readFlavor() kern.Flavor {
	f, err := kern.ParseFlavor(flavorName.get())
	exitIf(err)
	return f
}

func readArch() machine.Arch {
	a, err := machine.ParseArch(archName.get())
	exitIf(err)
	return a
}

// readFaults reads the -faults plan (none when absent). faulted reports
// that the flag gave one; the report then prints every machine's fault
// block.
func readFaults() (faultSeed uint64, spec fault.Spec, faulted bool) {
	arg := faults.get()
	if arg == "" {
		return 0, fault.Spec{}, false
	}
	faultSeed, spec, err := fault.ParseFlag(arg)
	exitIf(err)
	return faultSeed, spec, true
}

// readCrashFaults reads the -faults plan plus each -crash, its machine
// resolved against the named workload's roles. faulted reports that
// either flag asked for faults.
func readCrashFaults(name string) (faultSeed uint64, spec fault.Spec, faulted bool) {
	faultSeed, spec, faulted = readFaults()
	for _, val := range crash.get() {
		c, err := workload.ResolveCrash(name, val)
		exitIf(err)
		spec.Crashes = append(spec.Crashes, c)
		faulted = true
	}
	return faultSeed, spec, faulted
}

// readSample reads -sample 1/N as N (1, keep every trace, when absent).
func readSample() int {
	arg := sample.get()
	if arg == "" {
		return 1
	}
	n, err := obs.ParseSample(arg)
	exitIf(err)
	return n
}

// readOverload reads the -overload policy (the zero policy, which leaves
// every legacy path untouched, when absent).
func readOverload() overload.Policy {
	arg, ok := overloadFlag.lookup()
	if !ok {
		return overload.Policy{}
	}
	p, err := overload.ParsePolicy(arg)
	exitIf(err)
	return p
}

// readPositive reads a count flag, which must be >= 1 when given, and
// whether the command line gave it.
func readPositive(s setting[int]) (int, bool) {
	n, ok := s.lookup()
	if ok && n < 1 {
		exitIf(fmt.Errorf("-%s must be >= 1, got %d", s.name, n))
	}
	return n, ok
}

// observer is where a run's recorders go: the -trace file and the
// -profile report.
type observer struct {
	trace   string
	profile bool
}

func readObserver() observer { return observer{traceFile.get(), profile.get()} }

// on reports whether the run must install recorders at all.
func (o observer) on() bool { return o.trace != "" || o.profile }

// keep reports whether the recorders must retain kernel events: only
// the trace export reads them.
func (o observer) keep() bool { return o.trace != "" }

// emit stamps every installed recorder with its machine's memory census,
// then writes the Chrome trace and/or prints the profile report for them
// (machines without a recorder are skipped).
func (o observer) emit(machines ...*kern.System) {
	var live []*obs.Recorder
	for _, sys := range machines {
		if r := sys.K.Obs; r != nil {
			r.Census = sys.MemoryCensus()
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		return
	}
	if o.trace != "" {
		f, err := os.Create(o.trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := obs.WriteChrome(f, live...); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\ntrace: wrote %s (%d machine(s))\n", o.trace, len(live))
	}
	if o.profile {
		for i, r := range live {
			if len(live) > 1 {
				fmt.Printf("\nmachine %d profile:\n", i)
			} else {
				fmt.Printf("\nprofile:\n")
			}
			r.WriteReport(os.Stdout)
		}
	}
}

// paperRun runs one of the paper's single-machine workloads and prints
// its Table 1/2 block statistics.
func paperRun(name string, flavor kern.Flavor, arch machine.Arch) func() {
	spec := map[string]func() workload.Spec{
		"compile": workload.CompileTest,
		"build":   workload.KernelBuild,
		"dos":     workload.DOSEmulation,
	}[name]()
	frac := scale.get()
	if err := spec.CheckScale(frac); err != nil {
		exitIf(fmt.Errorf("-scale %v: %w", frac, err))
	}
	wseed := seed.get()
	debug := check.get()
	faultSeed, faultSpec, faulted := readFaults()
	exitIf(faultSpec.CheckMachines(1))
	out := readObserver()
	detail := verbose.get()
	return func() {
		wspec := spec.Scale(frac)
		sys := workload.NewSystem(flavor, arch, wspec)
		sys.K.DebugChecks = debug
		sys.InjectFaults(faultSeed, faultSpec)
		if out.on() {
			capacity := 0
			if out.keep() {
				capacity = obs.DefaultCapacity
			}
			sys.EnableObservation(capacity)
		}
		inst := workload.Install(sys, wspec, wseed)
		inst.Run()
		st := sys.K.Stats
		total := st.TotalBlocks()

		fmt.Printf("%s on %v/%v — %.0f simulated seconds (scale %.2f), %d blocking operations\n\n",
			spec.Name, flavor, arch, sys.K.Clock.Now().Seconds(), frac, total)

		fmt.Printf("%-20s %12s %8s\n", "operation", "blocks", "%")
		for _, r := range stats.DiscardReasons {
			n := st.BlocksWithDiscard[r]
			fmt.Printf("%-20s %12d %7.1f%%\n", r, n, stats.Percent(n, total))
		}
		fmt.Printf("%-20s %12d %7.1f%%\n", "total stack discards",
			st.TotalDiscards(), stats.Percent(st.TotalDiscards(), total))
		fmt.Printf("%-20s %12d %7.1f%%\n", "no stack discards",
			st.TotalNoDiscards(), stats.Percent(st.TotalNoDiscards(), total))

		fmt.Printf("\n%-20s %12d %7.1f%%\n", "stack handoff", st.Handoffs,
			stats.Percent(st.Handoffs, total))
		fmt.Printf("%-20s %12d %7.1f%%\n", "recognition", st.Recognitions,
			stats.Percent(st.Recognitions, total))

		fmt.Printf("\nkernel stacks: %.3f average in use, %d worst case, %d threads live\n",
			sys.K.Stacks.AverageInUse(), sys.K.Stacks.MaxInUse(), sys.K.LiveThreads())
		mc := sys.MemoryCensus()
		fmt.Printf("memory census: %d stacks high-water vs %d blocked threads high-water\n",
			mc.StackHighWater, mc.BlockedHighWater)
		fmt.Printf("per-thread kernel memory now: %.0f bytes (static %v: %d bytes)\n",
			sys.MeasuredPerThreadBytes(), flavor, kern.StaticThreadSpace(flavor).Total())

		workload.WriteFaultReport(os.Stdout, sys, workload.NetRPCReportOptions{Faults: faulted})

		if detail {
			fmt.Printf("\ndetail:\n")
			fmt.Printf("  context switches      %12d\n", st.ContextSwitches)
			fmt.Printf("  continuation calls    %12d\n", st.ContinuationCalls)
			fmt.Printf("  stack attaches        %12d\n", st.StackAttaches)
			fmt.Printf("  run-queue traffic     %12d enq / %d deq\n", sys.Sched.Enqueues, sys.Sched.Dequeues)
			fmt.Printf("  run-queue high water  %12d\n", sys.Sched.HighWater)
			fmt.Printf("  vm: disk faults       %12d\n", sys.VM.DiskFaults)
			fmt.Printf("  vm: evictions         %12d\n", sys.VM.Evictions)
			fmt.Printf("  ipc: fast RPCs        %12d\n", sys.IPC.FastRPCs)
			fmt.Printf("  ipc: queued sends     %12d\n", sys.IPC.QueuedSends)
			fmt.Printf("  exc: fast raises      %12d\n", sys.Exc.FastRaises)
			var handled uint64
			for _, s := range inst.Servers {
				handled += s.Handled
			}
			fmt.Printf("  server requests       %12d\n", handled)
			if inst.ExcServer != nil {
				fmt.Printf("  exceptions handled    %12d\n", inst.ExcServer.Handled)
			}
			fmt.Printf("  user time             %12.0f ms\n", float64(sys.K.UserTime)/1e6)
		}

		out.emit(sys)
	}
}

// netRPCRun drives the cross-machine echo workload and prints
// per-machine block tables plus the device subsystem counters. It
// narrows scope, the run main names in a rejection, to the HA topology
// when the run boots that.
func netRPCRun(flavor kern.Flavor, arch machine.Arch, scope *string) func() {
	spec := workload.DefaultNetRPC()
	var faulted bool
	spec.FaultSeed, spec.FaultSpec, faulted = readCrashFaults("netrpc")
	// A crash implies the HA topology, which has no client/server pairs.
	spec.Failover = failover.get() || len(spec.FaultSpec.Crashes) > 0
	if spec.Failover {
		*scope = "the netrpc failover topology (-failover or a crash rule)"
	} else {
		spec.Pairs, _ = readPositive(pairs)
	}
	exitIf(spec.FaultSpec.CheckMachines(spec.Machines()))
	spec.Clients, _ = readPositive(clients)
	spec.Parallel = parallel.get()
	spec.DebugChecks = check.get()
	out := readObserver()
	spec.Observe = out.on()
	return func() {
		res := workload.RunNetRPC(flavor, arch, spec)
		workload.WriteNetRPCReport(os.Stdout, flavor, arch, res, workload.NetRPCReportOptions{Faults: faulted})
		out.emit(res.Machines...)
	}
}

// kvRun drives the replicated sharded KV workload and prints its
// service-level report plus the per-machine block tables.
func kvRun(flavor kern.Flavor, arch machine.Arch) func() {
	spec := workload.DefaultKV()
	var faulted bool
	spec.FaultSeed, spec.FaultSpec, faulted = readCrashFaults("kv")
	exitIf(spec.FaultSpec.CheckMachines(spec.Machines()))
	if v, ok := readPositive(clients); ok {
		spec.Clients = v
	}
	if v, ok := seed.lookup(); ok {
		spec.Seed = v
	}
	spec.Parallel = parallel.get()
	spec.DebugChecks = check.get()
	spec.Break = breakKV.get()
	spec.SampleEvery = readSample()
	spec.Overload = readOverload()
	spec.BreakOverload = breakOv.get()
	out := readObserver()
	spec.KeepEvents, spec.Profile = out.keep(), out.profile
	return func() {
		res := workload.RunKV(flavor, arch, spec)
		workload.WriteKVReport(os.Stdout, flavor, arch, res, workload.NetRPCReportOptions{Faults: faulted})
		out.emit(res.Machines...)
	}
}

// svcGraphRun drives the multi-tier service-graph workload.
func svcGraphRun(flavor kern.Flavor, arch machine.Arch) func() {
	spec := workload.DefaultSvcGraph()
	var faulted bool
	spec.FaultSeed, spec.FaultSpec, faulted = readCrashFaults("svcgraph")
	exitIf(spec.FaultSpec.CheckMachines(spec.Machines()))
	if v, ok := readPositive(clients); ok {
		spec.Frontends = v
	}
	if v, ok := seed.lookup(); ok {
		spec.Seed = v
	}
	spec.Parallel = parallel.get()
	spec.DebugChecks = check.get()
	spec.SampleEvery = readSample()
	out := readObserver()
	spec.KeepEvents, spec.Profile = out.keep(), out.profile
	return func() {
		res := workload.RunSvcGraph(flavor, arch, spec)
		workload.WriteSvcGraphReport(os.Stdout, flavor, arch, res, workload.NetRPCReportOptions{Faults: faulted})
		out.emit(res.Machines...)
	}
}

// stormRun drives the mtload overload scenario: the svcgraph-shaped
// chain under open-loop session load, with the canonical metastable
// trigger unless -faults overrides it, and the -overload policy deciding
// whether the cluster survives it.
func stormRun(flavor kern.Flavor, arch machine.Arch) func() {
	spec := workload.DefaultStorm()
	spec.Overload = readOverload()
	if v, ok := seed.lookup(); ok {
		spec.Seed = v
	}
	if n, ok := readPositive(sessions); ok {
		spec.Sessions = n
	}
	if faultSeed, faultSpec, ok := readFaults(); ok {
		exitIf(faultSpec.CheckMachines(spec.Machines()))
		spec.FaultSeed, spec.FaultSpec = faultSeed, faultSpec
	}
	spec.Parallel = parallel.get()
	spec.DebugChecks = check.get()
	spec.BreakOverload = breakOv.get()
	spec.SampleEvery = readSample()
	out := readObserver()
	spec.KeepEvents, spec.Profile = out.keep(), out.profile
	return func() {
		res := workload.RunStorm(flavor, arch, spec)
		workload.WriteStormReport(os.Stdout, flavor, arch, res)
		out.emit(res.Machines...)
	}
}

// mtLoadRun drives the open-loop multi-tenant load generator and prints
// its aggregate report.
func mtLoadRun(flavor kern.Flavor, arch machine.Arch) func() {
	spec := workload.DefaultMTLoad()
	spec.Machines = machines.get()
	if spec.Machines < 2 || spec.Machines%2 != 0 {
		exitIf(fmt.Errorf("-machines must be even and >= 2, got %d", spec.Machines))
	}
	spec.Tenants, _ = readPositive(tenants)
	if n, ok := readPositive(sessions); ok {
		spec.SessionsPerTenant = n
	}
	if v, ok := seed.lookup(); ok {
		spec.Seed = v
	}
	spec.Parallel = parallel.get()
	spec.DebugChecks = check.get()
	out := readObserver()
	spec.KeepEvents, spec.Profile = out.keep(), out.profile
	return func() {
		res := workload.RunMTLoad(flavor, arch, spec)
		workload.WriteMTLoadReport(os.Stdout, res)
		out.emit(res.Machines...)
	}
}

// fuzzRun runs the kv nemesis fuzzing campaign named by -fuzz seed:count
// and exits nonzero when any schedule's history violates.
func fuzzRun(flavor kern.Flavor, arch machine.Arch) func() {
	arg := fuzz.get()
	seedPart, countPart, _ := strings.Cut(arg, ":")
	campaign, err1 := strconv.ParseUint(seedPart, 10, 64)
	count, err2 := strconv.Atoi(countPart)
	if err1 != nil || err2 != nil || count < 1 {
		exitIf(fmt.Errorf("-fuzz wants seed:count, got %q", arg))
	}
	opt := workload.FuzzKVOptions{
		Flavor: flavor, Arch: arch,
		Seed: campaign, Count: count,
		Parallel: parallel.get(), Break: breakKV.get(),
		Overload: readOverload(), BreakOverload: breakOv.get(),
		OutDir: fuzzOut.get(), Out: os.Stdout,
	}
	return func() {
		res, err := workload.FuzzKV(opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("fuzz: %d schedules checked, %d violations\n", res.Ran, res.Violations)
		if res.Violations > 0 {
			os.Exit(1)
		}
	}
}
