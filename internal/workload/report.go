package workload

import (
	"fmt"
	"io"

	"repro/internal/fault"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/stats"
)

// NetRPCReportOptions controls the optional sections of the cluster
// reports. Every other section follows the run itself: the invariant
// checker's block and final sweep follow each machine's DebugChecks, and
// the recovery section follows the HA topology or a crash.
type NetRPCReportOptions struct {
	// Faults prints each machine's fault-injection block. machsim sets it
	// for any -faults or -crash; left unset, a crash run reports only its
	// recovery section.
	Faults bool
}

// WriteNetRPCReport prints the per-machine block tables plus the device
// subsystem counters for a RunNetRPC result, in machsim's output format.
// The output is a pure function of the run, so two runs of the same spec
// can be compared byte-for-byte regardless of spec.Parallel or
// GOMAXPROCS.
func WriteNetRPCReport(w io.Writer, flavor kern.Flavor, arch machine.Arch, res *NetRPCResult, opt NetRPCReportOptions) {
	fmt.Fprintf(w, "NetRPC on %v/%v — %d cross-machine RPCs completed in %.2f simulated ms (%d cluster steps)\n",
		flavor, arch, res.Completed, float64(res.Elapsed)/1e6, res.Steps)

	for i, sys := range res.Machines {
		writeMachineSection(w, res.topo.heading(i), sys, opt)
	}
	// The HA topology (the only unpaired one) always reports its failover
	// accounting.
	writeRecoveryReport(w, res.Recovery, nil, res.Machines, !res.topo.paired)
}

// writeMachineSection prints one machine's block table, device counters
// and stack-pool summary — the per-machine body every workload report
// shares.
func writeMachineSection(w io.Writer, name string, sys *kern.System, opt NetRPCReportOptions) {
	st := sys.K.Stats
	total := st.TotalBlocks()
	fmt.Fprintf(w, "\n%s — %d blocking operations\n", name, total)
	fmt.Fprintf(w, "%-20s %12s %8s\n", "operation", "blocks", "%")
	for _, r := range stats.DiscardReasons {
		n := st.BlocksWithDiscard[r]
		fmt.Fprintf(w, "%-20s %12d %7.1f%%\n", r, n, stats.Percent(n, total))
	}
	fmt.Fprintf(w, "%-20s %12d %7.1f%%\n", "total stack discards",
		st.TotalDiscards(), stats.Percent(st.TotalDiscards(), total))
	fmt.Fprintf(w, "%-20s %12d %7.1f%%\n", "no stack discards",
		st.TotalNoDiscards(), stats.Percent(st.TotalNoDiscards(), total))
	fmt.Fprintf(w, "%-20s %12d %7.1f%%\n", "stack handoff", st.Handoffs,
		stats.Percent(st.Handoffs, total))
	fmt.Fprintf(w, "%-20s %12d %7.1f%%\n", "recognition", st.Recognitions,
		stats.Percent(st.Recognitions, total))

	fmt.Fprintf(w, "\n  devices:\n")
	fmt.Fprintf(w, "    interrupts taken          %8d (all on the current stack)\n", st.Interrupts)
	hc := sys.Dev.HandlerCost
	fmt.Fprintf(w, "    handler cycles            %8d instrs, %d loads, %d stores\n",
		hc.Instrs, hc.Loads, hc.Stores)
	fmt.Fprintf(w, "    io_done handoffs          %8d, recognitions %d\n",
		sys.Dev.IoDoneHandoffs, st.IoDoneRecognitions)
	for _, d := range sys.Dev.Devices() {
		fmt.Fprintf(w, "    %-8s requests         %8d, interrupts %d, queue high-water %d\n",
			d.Name, d.Requests, d.Interrupts, d.QueueHighWater)
	}
	fmt.Fprintf(w, "    nic tx/rx                 %8d / %d packets\n",
		sys.Net.NIC.TxPackets, sys.Net.NIC.RxPackets)
	fmt.Fprintf(w, "    netmsg forwarded          %8d, delivered %d, inbox high-water %d\n",
		sys.Net.Forwarded, sys.Net.Delivered, sys.Net.InboxHighWater)
	fmt.Fprintf(w, "  kernel stacks: %.3f average in use, %d worst case\n",
		sys.K.Stacks.AverageInUse(), sys.K.Stacks.MaxInUse())
	mc := sys.MemoryCensus()
	fmt.Fprintf(w, "  memory census: %d stacks high-water vs %d blocked threads high-water (%d live threads)\n",
		mc.StackHighWater, mc.BlockedHighWater, mc.LiveThreads)
	WriteFaultReport(w, sys, opt)
}

// writeCritPathSection runs the critical-path analyzer over every
// machine's recorded spans, read in place in machine order, and prints
// the attribution table. No-op when no machine sampled any span (tracing
// or sampling off).
func writeCritPathSection(w io.Writer, machines []*kern.System) {
	var sets [][]obs.Span
	for _, sys := range machines {
		sets = append(sets, sys.K.Obs.SpanChunks()...)
	}
	if len(sets) == 0 {
		return
	}
	fmt.Fprintf(w, "\n")
	obs.WriteCritPath(w, obs.AnalyzeCritPath(sets...))
}

// writeRecoveryReport prints the crash/failover accounting and the
// nemesis timeline when the run crashed a machine, scheduled topology
// faults, or always is set (the HA topology).
func writeRecoveryReport(w io.Writer, r RecoveryStats, topo *fault.Topology, machines []*kern.System, always bool) {
	if !always && r.Crashes == 0 && topo == nil {
		return
	}
	fmt.Fprintf(w, "\nrecovery:\n")
	fmt.Fprintf(w, "  machine crashes %d, warm reboots %d\n", r.Crashes, r.Reboots)
	fmt.Fprintf(w, "  peer deaths detected %d, recoveries %d\n", r.DeathsDetected, r.Recoveries)
	fmt.Fprintf(w, "  failovers %d, failbacks %d, RPCs salvaged %d, abandoned %d\n",
		r.Failovers, r.Failbacks, r.Salvaged, r.Failed)
	fmt.Fprintf(w, "  stale packets dropped %d, heartbeats sent %d\n",
		r.StaleDropped, r.Heartbeats)
	for i, sys := range machines {
		if rec := sys.PanicRecord; rec != nil {
			fmt.Fprintf(w, "  machine %d last %v\n", i, rec)
		}
	}
	writeNemesisBody(w, topo, machines)
}

// WriteFaultReport prints a machine's fault-injection and recovery
// counters when a fault plan (opt.Faults) or the invariant checker
// (sys.K.DebugChecks, which also runs the final sweep) is active.
func WriteFaultReport(w io.Writer, sys *kern.System, opt NetRPCReportOptions) {
	check := sys.K.DebugChecks
	if !check && !opt.Faults {
		return
	}
	fs := sys.FaultStats()
	fmt.Fprintf(w, "\nfaults & recovery:\n")
	fmt.Fprintf(w, "  injected: %s\n", fs)
	fmt.Fprintf(w, "  dev: timeouts %d, retries %d, failures surfaced %d\n",
		sys.Dev.IoTimeouts, sys.Dev.IoRetries, sys.Dev.IoFailures)
	if sys.Net != nil {
		nt := sys.NetTotals()
		fmt.Fprintf(w, "  net: retransmits %d, acks rx %d, dups dropped %d, lost %d, unacked %d\n",
			nt.Retransmits, nt.AcksRx, nt.DupsDropped, nt.Lost, sys.UnackedLen())
	}
	fmt.Fprintf(w, "  aborts: %d; invariant sweeps passed: %d\n",
		sys.K.Stats.Aborts, sys.K.Stats.InvariantPasses)
	if check {
		sys.K.MustValidate()
		fmt.Fprintf(w, "  final invariant check: clean\n")
	}
}
