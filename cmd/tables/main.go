// tables regenerates every table and figure of the paper's evaluation,
// printing measured values next to the published ones. Its output is the
// source of EXPERIMENTS.md.
//
// Usage:
//
//	tables [-iters n] [-scale f] [-seed n] [-table 1|2|3|4|5|firefly|figure2|device|gonative|all]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/threadmodel"
	"repro/internal/workload"
)

var (
	iters = flag.Int("iters", 1000, "microbenchmark iterations (Table 3)")
	scale = flag.Float64("scale", 0.25, "workload duration scale (Tables 1-2)")
	seed  = flag.Uint64("seed", 12345, "workload random seed")
	table = flag.String("table", "all", "which table to print: 1,2,3,4,5,firefly,figure2,device,gonative,all")
)

func main() {
	flag.Parse()
	sel := *table
	want := func(name string) bool { return sel == "all" || sel == name }

	var workloads []experiments.Table1Result
	if want("1") || want("2") {
		for _, spec := range workload.Specs() {
			if err := spec.CheckScale(*scale); err != nil {
				fmt.Fprintf(os.Stderr, "-scale %v: %v\n", *scale, err)
				os.Exit(2)
			}
		}
		workloads = experiments.Tables1And2(*scale, *seed)
	}
	if want("1") {
		printTable1(workloads)
	}
	if want("2") {
		printTable2(workloads)
	}
	if want("3") {
		printTable3()
	}
	if want("4") {
		printTable4()
	}
	if want("5") {
		printTable5()
	}
	if want("firefly") {
		printFirefly()
	}
	if want("figure2") {
		printFigure2()
	}
	if want("device") {
		printDeviceRead()
	}
	if want("gonative") {
		printGoNative()
	}
	if sel != "all" && !anyKnown(sel) {
		fmt.Fprintf(os.Stderr, "unknown table %q\n", sel)
		os.Exit(2)
	}
}

func anyKnown(s string) bool {
	switch s {
	case "1", "2", "3", "4", "5", "firefly", "figure2", "device", "gonative", "all":
		return true
	}
	return false
}

func printTable1(results []experiments.Table1Result) {
	fmt.Printf("== Table 1: frequency of stack discarding (MK40, Toshiba 5200, scale %.2f) ==\n\n", *scale)
	for _, res := range results {
		paper, paperND := experiments.PaperTable1Percent(res.Workload)
		fmt.Printf("%s (%.0f simulated seconds, %d blocks)\n",
			res.Workload, res.SimTime.Seconds(), res.TotalBlocks)
		fmt.Printf("  %-18s %10s %8s %8s\n", "", "blocks", "%", "paper %")
		for i, r := range stats.DiscardReasons {
			n := res.Blocks[r]
			// Rows past the paper's six (device io, from our device
			// subsystem extension) have no published column.
			paperCol := "      —"
			if i < len(paper) {
				paperCol = fmt.Sprintf("%7.1f%%", paper[i])
			}
			fmt.Printf("  %-18s %10d %7.1f%% %s\n",
				r, n, stats.Percent(n, res.TotalBlocks), paperCol)
		}
		fmt.Printf("  %-18s %10d %7.1f%% %7.1f%%\n", "no stack discards",
			res.NoDiscards, stats.Percent(res.NoDiscards, res.TotalBlocks), paperND)
		fmt.Println()
	}
}

func printTable2(results []experiments.Table1Result) {
	fmt.Printf("== Table 2: continuation recognition and stack handoff ==\n\n")
	fmt.Printf("%-16s %10s %9s %9s %12s %9s\n",
		"", "blocks", "handoff%", "paper%", "recognition%", "paper%")
	for _, res := range results {
		ph, pr := experiments.PaperTable2Percent(res.Workload)
		fmt.Printf("%-16s %10d %8.1f%% %8.1f%% %11.1f%% %8.1f%%\n",
			res.Workload, res.TotalBlocks,
			stats.Percent(res.Handoffs, res.TotalBlocks), ph,
			stats.Percent(res.Recognitions, res.TotalBlocks), pr)
	}
	fmt.Println()
	for _, res := range results {
		fmt.Printf("%-16s kernel stacks: average %.3f in use, worst case %d (paper: 2.002 avg; worst 3-6)\n",
			res.Workload, res.StacksAvg, res.StacksMax)
	}
	fmt.Println()
}

func printTable3() {
	fmt.Printf("== Table 3: RPC and exception times in microseconds (%d iters) ==\n\n", *iters)
	fmt.Printf("%-13s %-9s %9s %9s %10s %10s\n",
		"machine", "kernel", "null RPC", "paper", "exception", "paper")
	for _, row := range experiments.Table3(*iters) {
		fmt.Printf("%-13s %-9s %8.1f  %8.0f  %9.1f  %9.0f\n",
			row.Arch, row.Flavor, row.RPCus, row.PaperRPC, row.ExcUs, row.PaperExc)
	}
	fmt.Println()
}

func printTable4() {
	fmt.Printf("== Table 4: component costs on the DS3100 (model inputs from the paper) ==\n\n")
	fmt.Printf("%-20s %26s %26s\n", "", "MK40 (instrs/loads/stores)", "MK32 (instrs/loads/stores)")
	for _, row := range experiments.Table4() {
		f := func(c machine.Cost) string {
			if c.IsZero() {
				return "-"
			}
			return fmt.Sprintf("%d / %d / %d", c.Instrs, c.Loads, c.Stores)
		}
		fmt.Printf("%-20s %26s %26s\n", row.Component, f(row.MK40), f(row.MK32))
	}
	fmt.Println()
}

func printTable5() {
	fmt.Printf("== Table 5: per-thread kernel memory on the DS3100 (bytes) ==\n\n")
	rows := experiments.Table5(50)
	fmt.Printf("%-10s %8s %8s %8s %8s %8s %14s\n",
		"", "MI", "MD", "stack", "VM", "total", "measured/thr")
	for _, r := range rows {
		fmt.Printf("%-10s %8d %8d %8d %8d %8d %13.0fB\n",
			r.Flavor, r.Static.MIState, r.Static.MDState, r.Static.StackBytes,
			r.Static.VMState, r.Static.Total(), r.MeasuredPerThread)
	}
	mk40, mk32 := rows[0], rows[1]
	fmt.Printf("\nmeasured saving with %d blocked threads: %.0f%% (paper: 85%%)\n\n",
		mk40.Threads, 100*(1-mk40.MeasuredPerThread/mk32.MeasuredPerThread))
}

func printFirefly() {
	fmt.Printf("== Section 5: the Firefly comparison (886 blocked threads, 5 CPUs) ==\n\n")
	for _, flavor := range []kern.Flavor{kern.MK40, kern.MK32} {
		res := experiments.Firefly886(flavor)
		fmt.Printf("%-10s %4d threads -> %4d kernel stacks\n",
			res.Flavor, res.Threads, res.StacksInUse)
	}
	fmt.Println("\npaper: Topaz used 212 stacks for 886 threads; \"in Mach ... 886")
	fmt.Println("similarly blocked kernel-level threads would require only 6 stacks,")
	fmt.Println("one for each of the Firefly's five processors and one for a special")
	fmt.Println("kernel thread.\"")
	fmt.Println()
}

func printFigure2() {
	fmt.Printf("== Figure 2: the fast RPC path (one traced steady-state RPC) ==\n\n")
	fmt.Print(obs.TransferString(experiments.Figure2Trace()))
	fmt.Println()
}

func printDeviceRead() {
	fmt.Printf("== One interrupt-driven device_read (MK40, traced end to end) ==\n\n")
	fmt.Print(obs.TransferString(experiments.DeviceReadTrace()))
	fmt.Println("\nthe reader blocks with device_read_continue and its stack is discarded;")
	fmt.Println("the transfer interrupt runs on whatever stack the processor is using,")
	fmt.Println("and the io_done thread hands its own stack to the reader, whose")
	fmt.Println("continuation is recognized and finishes the read inline: no stack is")
	fmt.Println("allocated anywhere on the path.")
	fmt.Println()
}

func printGoNative() {
	fmt.Printf("== Go-native validation: goroutine-per-thread vs continuation record ==\n\n")
	c := threadmodel.Measure(2000, 8, 50000)
	fmt.Printf("blocked population: %d\n", c.Population)
	fmt.Printf("  bytes per blocked goroutine   : %8.0f\n", c.GoroutineBytes)
	fmt.Printf("  bytes per continuation record : %8.0f\n", c.RecordBytes)
	fmt.Printf("  space ratio                   : %8.1fx (paper Table 5: 6.8x)\n", c.SpaceRatio)
	fmt.Printf("  goroutine switch              : %7.1fns\n", c.GoroutineSwitchNs)
	fmt.Printf("  continuation call             : %7.1fns\n", c.RecordSwitchNs)
	fmt.Printf("  switch ratio                  : %8.1fx\n", c.SwitchRatio)
	fmt.Println()
}
