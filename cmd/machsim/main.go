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
//     1 and 2); -scale and -seed apply.
//   - netrpc: two machines joined by a NIC pair running cross-machine
//     echo RPCs through the in-kernel netmsg threads. -pairs n boots n
//     client/server pairs (2n machines); -clients n runs n client
//     threads per client machine; -failover boots the 4-machine HA
//     topology (client, primary, replica, client) instead.
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
//     into the 10^5..10^6 range. -machines/-tenants/-sessions only make
//     sense here, and the pair/fault flags of the other cluster
//     workloads make no sense here; machsim rejects either mixture.
//     Adding -overload switches mtload into the storm scenario (below).
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
// open-loop session count; -machines/-tenants are rejected there.
//
// Shared cluster flags: -parallel drives the machines on one goroutine
// each (output stays byte-identical to the sequential driver); -crash
// injects whole-machine crashes (below); -faults adds wire/device
// faults. A flag the chosen workload would ignore (-pairs off netrpc,
// -scale on a cluster workload, -crash on a paper workload, ...) exits
// 2; -fuzz without -workload runs the kv campaign.
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
// flags and seed produce byte-identical traces and reports.
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
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/fault"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/stats"
	"repro/internal/workload"
)

var (
	workloadName = flag.String("workload", "compile", "compile, build, dos, netrpc, kv, svcgraph, or mtload")
	flavorName   = flag.String("flavor", "mk40", "mk40, mk32, or mach25")
	archName     = flag.String("arch", "toshiba", "ds3100 or toshiba")
	scale        = flag.Float64("scale", 0.25, "fraction of the paper's duration to simulate")
	seed         = flag.Uint64("seed", 12345, "workload random seed")
	verbose      = flag.Bool("v", false, "also print per-component detail")
	faultsFlag   = flag.String("faults", "", "seed:spec fault plan, e.g. 42:drop=0.1,devfail=0.05")
	check        = flag.Bool("check", false, "run the kernel invariant sweep after every dispatch")
	traceFile    = flag.String("trace", "", "write a Chrome trace_event JSON trace to this file")
	profile      = flag.Bool("profile", false, "print the continuation profile and latency histograms")
	pairs        = flag.Int("pairs", 1, "netrpc: client/server machine pairs (2*pairs machines)")
	clients      = flag.Int("clients", 1, "netrpc: client threads per client machine")
	parallel     = flag.Bool("parallel", false, "netrpc: run machines on goroutines (byte-identical output)")
	failover     = flag.Bool("failover", false, "netrpc: boot the 4-machine HA topology (client/primary/replica/client)")
	fuzzFlag     = flag.String("fuzz", "", "kv: fuzz nemesis schedules, seed:count (e.g. 7:25)")
	fuzzOut      = flag.String("fuzzout", "", "kv fuzz: directory receiving one history dump per schedule")
	breakKV      = flag.Bool("breakkv", false, "kv: run the deliberately broken replicas (checker must flag them)")
	sampleFlag   = flag.String("sample", "", "kv/svcgraph: head-sample 1/N of operation traces (default 1/1, keep all)")
	machines     = flag.Int("machines", 8, "mtload: cluster size (even, >= 2)")
	tenants      = flag.Int("tenants", 4, "mtload: tenant count")
	sessions     = flag.Int("sessions", 0, "mtload: sessions per tenant (default 100 per machine)")
	overloadFlag = flag.String("overload", "", "kv/mtload: overload controls, off|on[:key=value,...] (mtload: selects the storm scenario)")
	breakOv      = flag.Bool("breakoverload", false, "kv/mtload: replicas apply already-expired writes before shedding them (checker must flag)")

	// sampleEvery is the parsed -sample denominator (1 = keep everything).
	sampleEvery = 1

	// ovPolicy is the parsed -overload policy (zero value, Enabled false,
	// when the flag is absent — armed workloads stay byte-identical to the
	// legacy report in that case).
	ovPolicy overload.Policy

	// crashFlags collects the repeatable -crash flag's raw values; each is
	// sugar for a crash=… rule in the -faults spec. The machine part may
	// be a role alias (primary, cache, …), which only resolves once the
	// workload is known — so parsing is deferred until then.
	crashFlags []string
)

func init() {
	flag.Func("crash", "crash machine M (index or role alias) at offset T, e.g. primary@40ms:reboot+80ms (repeatable; implies -failover for netrpc)",
		func(val string) error {
			crashFlags = append(crashFlags, val)
			return nil
		})
}

// mtloadOnlyFlags only mean something under -workload mtload.
// scopedFlags bind to the workloads flagScope lists for them; every
// other workload rejects them.
var (
	mtloadOnlyFlags = []string{"machines", "tenants", "sessions"}
	scopedFlags     = []string{
		"pairs", "clients", "failover", "faults", "crash",
		"fuzz", "fuzzout", "breakkv", "sample", "scale",
	}
	// flagScope names the workloads each cluster flag applies to;
	// "storm" is mtload under -overload.
	flagScope = map[string][]string{
		"pairs":    {"netrpc"},
		"clients":  {"netrpc", "kv", "svcgraph"},
		"failover": {"netrpc"},
		"faults":   {"compile", "build", "dos", "netrpc", "kv", "svcgraph", "storm"},
		"crash":    {"netrpc", "kv", "svcgraph"},
		"fuzz":     {"kv"},
		"fuzzout":  {"kv"},
		"breakkv":  {"kv"},
		"sample":   {"kv", "svcgraph", "storm"},
		"scale":    {"compile", "build", "dos"},
	}
)

// validateWorkloadFlags rejects nonsensical flag combinations before any
// machine boots: mtload-only sizing flags on other workloads, a cluster
// flag on a workload that would ignore it, overload flags on workloads
// with no shedding tiers, and mtload sizes that cannot describe a
// cluster. set reports whether a flag appeared on the command line
// (flagWasSet in production; a stub in tests).
//
// -overload on mtload switches it into the storm scenario: a fixed
// 4-machine frontend/cache/KV chain under open-loop session load, where
// -faults names the trigger schedule and -sessions the open-loop session
// count. The mtload sizing flags -machines/-tenants describe the
// balancer cluster and mean nothing there.
func validateWorkloadFlags(name string, machines, tenants, sessions int, set func(string) bool) error {
	if set("breakoverload") && !set("overload") {
		return fmt.Errorf("-breakoverload requires -overload (nothing sheds without it)")
	}
	storm := name == "mtload" && set("overload")
	if name != "mtload" {
		if set("overload") && name != "kv" {
			return fmt.Errorf("-overload only applies to -workload kv or mtload (got %q)", name)
		}
		for _, f := range mtloadOnlyFlags {
			if set(f) {
				return fmt.Errorf("-%s only applies to -workload mtload (got %q)", f, name)
			}
		}
	}
	scope := name
	if storm {
		scope = "storm"
	}
	for _, f := range scopedFlags {
		if !set(f) || slices.Contains(flagScope[f], scope) {
			continue
		}
		if storm {
			return fmt.Errorf("-%s does not apply to the mtload storm scenario (-overload)", f)
		}
		return fmt.Errorf("-%s does not apply to -workload %s", f, name)
	}
	if name != "mtload" {
		return nil
	}
	if storm {
		for _, f := range []string{"machines", "tenants"} {
			if set(f) {
				return fmt.Errorf("-%s does not apply to the mtload storm scenario (-overload); the storm topology is fixed, only -sessions sizes the load", f)
			}
		}
		if set("sessions") && sessions < 1 {
			return fmt.Errorf("-sessions must be >= 1, got %d", sessions)
		}
		return nil
	}
	if machines < 2 || machines%2 != 0 {
		return fmt.Errorf("-machines must be even and >= 2, got %d", machines)
	}
	if tenants < 1 {
		return fmt.Errorf("-tenants must be >= 1, got %d", tenants)
	}
	if set("sessions") && sessions < 1 {
		return fmt.Errorf("-sessions must be >= 1, got %d", sessions)
	}
	return nil
}

func main() {
	flag.Parse()

	name := *workloadName
	if *fuzzFlag != "" && !flagWasSet("workload") {
		name = "kv" // the fuzzer runs the kv workload
	}
	if err := validateWorkloadFlags(name, *machines, *tenants, *sessions, flagWasSet); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var flavor kern.Flavor
	switch *flavorName {
	case "mk40":
		flavor = kern.MK40
	case "mk32":
		flavor = kern.MK32
	case "mach25":
		flavor = kern.Mach25
	default:
		fmt.Fprintf(os.Stderr, "unknown flavor %q\n", *flavorName)
		os.Exit(2)
	}

	var arch machine.Arch
	switch *archName {
	case "ds3100":
		arch = machine.ArchDS3100
	case "toshiba":
		arch = machine.ArchToshiba5200
	default:
		fmt.Fprintf(os.Stderr, "unknown arch %q\n", *archName)
		os.Exit(2)
	}

	var faultSeed uint64
	var faultSpec fault.Spec
	if *faultsFlag != "" {
		var err error
		faultSeed, faultSpec, err = fault.ParseFlag(*faultsFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	if *sampleFlag != "" {
		n, err := obs.ParseSample(*sampleFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		sampleEvery = n
	}

	if flagWasSet("overload") {
		p, err := overload.ParsePolicy(*overloadFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		ovPolicy = p
	}

	for _, val := range crashFlags {
		c, err := workload.ResolveCrash(name, val)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		faultSpec.Crashes = append(faultSpec.Crashes, c)
	}

	if *fuzzFlag != "" {
		runFuzz(flavor, arch)
		return
	}

	switch name {
	case "netrpc":
		runNetRPC(flavor, arch, faultSeed, faultSpec)
		return
	case "kv":
		runKV(flavor, arch, faultSeed, faultSpec)
		return
	case "svcgraph":
		runSvcGraph(flavor, arch, faultSeed, faultSpec)
		return
	case "mtload":
		if flagWasSet("overload") {
			runStorm(flavor, arch, faultSeed, faultSpec)
		} else {
			runMTLoad(flavor, arch)
		}
		return
	}

	var spec workload.Spec
	switch name {
	case "compile":
		spec = workload.CompileTest()
	case "build":
		spec = workload.KernelBuild()
	case "dos":
		spec = workload.DOSEmulation()
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", name)
		os.Exit(2)
	}

	wspec := spec.Scale(*scale)
	sys := workload.NewSystem(flavor, arch, wspec)
	sys.K.DebugChecks = *check
	sys.InjectFaults(faultSeed, faultSpec)
	if *traceFile != "" || *profile {
		sys.EnableObservation(0)
	}
	inst := workload.Install(sys, wspec, *seed)
	inst.Run()
	st := sys.K.Stats
	total := st.TotalBlocks()

	fmt.Printf("%s on %v/%v — %.0f simulated seconds (scale %.2f), %d blocking operations\n\n",
		spec.Name, flavor, arch, sys.K.Clock.Now().Seconds(), *scale, total)

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
		sys.MeasuredPerThreadBytes(), flavor, flavor.StaticThreadSpace().Total())

	workload.WriteFaultReport(os.Stdout, sys, workload.NetRPCReportOptions{
		Faults: *faultsFlag != "", Check: *check,
	})

	if *verbose {
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

	emitObservations(sys)
}

// emitObservations stamps every installed recorder with its machine's
// memory census, then writes the Chrome trace and/or prints the profile
// report for them (machines without a recorder are skipped).
func emitObservations(machines ...*kern.System) {
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
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
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
		fmt.Printf("\ntrace: wrote %s (%d machine(s))\n", *traceFile, len(live))
	}
	if *profile {
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

// runNetRPC drives the cross-machine echo workload and prints per-machine
// block tables plus the device subsystem counters.
func runNetRPC(flavor kern.Flavor, arch machine.Arch, faultSeed uint64, faultSpec fault.Spec) {
	spec := workload.DefaultNetRPC()
	spec.FaultSeed = faultSeed
	spec.FaultSpec = faultSpec
	spec.Pairs = *pairs
	spec.Clients = *clients
	spec.Parallel = *parallel
	spec.DebugChecks = *check
	spec.Observe = *traceFile != "" || *profile
	spec.Failover = *failover || len(faultSpec.Crashes) > 0
	res := workload.RunNetRPC(flavor, arch, spec)

	workload.WriteNetRPCReport(os.Stdout, flavor, arch, res, workload.NetRPCReportOptions{
		Faults: *faultsFlag != "" || len(faultSpec.Crashes) > 0, Check: *check,
		Failover: spec.Failover,
	})

	emitObservations(res.Machines...)
}

// runKV drives the replicated sharded KV workload and prints its
// service-level report plus the per-machine block tables.
func runKV(flavor kern.Flavor, arch machine.Arch, faultSeed uint64, faultSpec fault.Spec) {
	spec := workload.DefaultKV()
	spec.FaultSeed = faultSeed
	spec.FaultSpec = faultSpec
	if flagWasSet("clients") {
		spec.Clients = *clients
	}
	if flagWasSet("seed") {
		spec.Seed = *seed
	}
	spec.Parallel = *parallel
	spec.DebugChecks = *check
	spec.Break = *breakKV
	spec.SampleEvery = sampleEvery
	spec.Overload = ovPolicy
	spec.BreakOverload = *breakOv
	res := workload.RunKV(flavor, arch, spec)

	workload.WriteKVReport(os.Stdout, flavor, arch, res, workload.NetRPCReportOptions{
		Faults: *faultsFlag != "" || len(faultSpec.Crashes) > 0, Check: *check,
	})
	emitObservations(res.Machines...)
}

// runSvcGraph drives the multi-tier service-graph workload.
func runSvcGraph(flavor kern.Flavor, arch machine.Arch, faultSeed uint64, faultSpec fault.Spec) {
	spec := workload.DefaultSvcGraph()
	spec.FaultSeed = faultSeed
	spec.FaultSpec = faultSpec
	if flagWasSet("clients") {
		spec.Frontends = *clients
	}
	if flagWasSet("seed") {
		spec.Seed = *seed
	}
	spec.Parallel = *parallel
	spec.DebugChecks = *check
	spec.SampleEvery = sampleEvery
	res := workload.RunSvcGraph(flavor, arch, spec)

	workload.WriteSvcGraphReport(os.Stdout, flavor, arch, res, workload.NetRPCReportOptions{
		Faults: *faultsFlag != "" || len(faultSpec.Crashes) > 0, Check: *check,
	})
	emitObservations(res.Machines...)
}

// runStorm drives the mtload overload scenario: the svcgraph-shaped
// chain under open-loop session load, with the canonical metastable
// trigger unless -faults overrides it, and the -overload policy deciding
// whether the cluster survives it.
func runStorm(flavor kern.Flavor, arch machine.Arch, faultSeed uint64, faultSpec fault.Spec) {
	spec := workload.DefaultStorm()
	spec.Overload = ovPolicy
	if flagWasSet("seed") {
		spec.Seed = *seed
	}
	if *sessions > 0 {
		spec.Sessions = *sessions
	}
	if *faultsFlag != "" {
		spec.FaultSeed = faultSeed
		spec.FaultSpec = faultSpec
	}
	spec.Parallel = *parallel
	spec.DebugChecks = *check
	spec.BreakOverload = *breakOv
	spec.SampleEvery = sampleEvery
	res := workload.RunStorm(flavor, arch, spec)
	workload.WriteStormReport(os.Stdout, flavor, arch, res)
	emitObservations(res.Machines...)
}

// runMTLoad drives the open-loop multi-tenant load generator and prints
// its aggregate report.
func runMTLoad(flavor kern.Flavor, arch machine.Arch) {
	spec := workload.DefaultMTLoad()
	spec.Machines = *machines
	spec.Tenants = *tenants
	if *sessions > 0 {
		spec.SessionsPerTenant = *sessions
	}
	if flagWasSet("seed") {
		spec.Seed = *seed
	}
	spec.Parallel = *parallel
	spec.DebugChecks = *check
	res := workload.RunMTLoad(flavor, arch, spec)
	workload.WriteMTLoadReport(os.Stdout, res)
	emitObservations(res.Machines...)
}

// runFuzz runs the kv nemesis fuzzing campaign named by -fuzz seed:count
// and exits nonzero when any schedule's history violates.
func runFuzz(flavor kern.Flavor, arch machine.Arch) {
	seedPart, countPart, ok := strings.Cut(*fuzzFlag, ":")
	var seed uint64
	var count int
	if ok {
		_, err1 := fmt.Sscanf(seedPart, "%d", &seed)
		_, err2 := fmt.Sscanf(countPart, "%d", &count)
		ok = err1 == nil && err2 == nil && count > 0
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "-fuzz wants seed:count, got %q\n", *fuzzFlag)
		os.Exit(2)
	}
	res, err := workload.FuzzKV(workload.FuzzKVOptions{
		Flavor: flavor, Arch: arch,
		Seed: seed, Count: count,
		Parallel: *parallel, Break: *breakKV,
		Overload: ovPolicy, BreakOverload: *breakOv,
		OutDir: *fuzzOut, Out: os.Stdout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("fuzz: %d schedules checked, %d violations\n", res.Ran, res.Violations)
	if res.Violations > 0 {
		os.Exit(1)
	}
}

// flagWasSet reports whether the named flag appeared on the command
// line — spec defaults only yield to explicit overrides.
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}
