package experiments_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/workload"
)

func TestNullRPCTable3Shape(t *testing.T) {
	// DS3100: MK40 95, MK32 110, Mach2.5 185. The simulation must get
	// the ordering right and land within 20% of the paper's values.
	for _, arch := range experiments.Arches {
		var rpc [3]float64
		for i, flavor := range experiments.Flavors {
			rpc[i] = experiments.NullRPC(flavor, arch, 300)
			paper, _ := experiments.PaperTable3(arch, flavor)
			if rel := rpc[i] / paper; rel < 0.7 || rel > 1.3 {
				t.Errorf("%v/%v null RPC = %.1f us, paper %v (off by %.0f%%)",
					arch, flavor, rpc[i], paper, 100*(rel-1))
			}
		}
		if arch == machine.ArchDS3100 && !(rpc[0] < rpc[1] && rpc[1] < rpc[2]) {
			t.Errorf("%v RPC ordering violated: %v", arch, rpc)
		}
		if arch == machine.ArchToshiba5200 && !(rpc[0] < rpc[2]) {
			// On the Toshiba MK40 may exceed MK32 (the footnote-2 bug)
			// but must still beat Mach 2.5.
			t.Errorf("%v: MK40 (%.0f) not faster than Mach2.5 (%.0f)", arch, rpc[0], rpc[2])
		}
	}
}

func TestExceptionTable3Shape(t *testing.T) {
	for _, arch := range experiments.Arches {
		var exc [3]float64
		for i, flavor := range experiments.Flavors {
			exc[i] = experiments.ExceptionRTT(flavor, arch, 300)
			_, paper := experiments.PaperTable3(arch, flavor)
			if rel := exc[i] / paper; rel < 0.65 || rel > 1.35 {
				t.Errorf("%v/%v exception = %.1f us, paper %v (off by %.0f%%)",
					arch, flavor, exc[i], paper, 100*(rel-1))
			}
		}
		// MK40 is 2-3x faster than both process-model kernels. The
		// slower of the two differs by machine in the paper: MK32 is
		// worst on the DS3100 (425 vs 380), Mach 2.5 on the Toshiba
		// (1410 vs 1155).
		if !(exc[0] < exc[1] && exc[0] < exc[2]) {
			t.Errorf("%v: MK40 not fastest: %v", arch, exc)
		}
		if arch == machine.ArchDS3100 && exc[1] < exc[2] {
			t.Errorf("DS3100: MK32 (%.0f) should be slower than Mach 2.5 (%.0f)", exc[1], exc[2])
		}
		if arch == machine.ArchToshiba5200 && exc[2] < exc[1] {
			t.Errorf("Toshiba: Mach 2.5 (%.0f) should be slower than MK32 (%.0f)", exc[2], exc[1])
		}
		if ratio := exc[1] / exc[0]; ratio < 2 || ratio > 3.6 {
			t.Errorf("%v MK32/MK40 exception ratio = %.2f, want 2-3x", arch, ratio)
		}
	}
}

func TestToshibaRPCQuirk(t *testing.T) {
	// Footnote 2: on the Toshiba, MK40's null RPC is slightly SLOWER
	// than MK32's because the trap handler keeps registers on the stack
	// and the handoff must copy them.
	mk40 := experiments.NullRPC(kern.MK40, machine.ArchToshiba5200, 300)
	mk32 := experiments.NullRPC(kern.MK32, machine.ArchToshiba5200, 300)
	if mk40 <= mk32 {
		t.Errorf("Toshiba quirk missing: MK40 %.1f <= MK32 %.1f", mk40, mk32)
	}
	if mk40 > mk32*1.25 {
		t.Errorf("Toshiba quirk too large: MK40 %.1f vs MK32 %.1f", mk40, mk32)
	}
}

func TestTable4RowsMatchPaper(t *testing.T) {
	rows := experiments.Table4()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].MK40 != (machine.Cost{Instrs: 64, Loads: 7, Stores: 25}) {
		t.Errorf("MK40 entry = %v", rows[0].MK40)
	}
	if rows[3].MK32 != (machine.Cost{Instrs: 250, Loads: 52, Stores: 27}) {
		t.Errorf("context switch = %v", rows[3].MK32)
	}
}

func TestTable5(t *testing.T) {
	rows := experiments.Table5(24)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	mk40, mk32 := rows[0], rows[1]
	if mk40.Flavor != kern.MK40 || mk32.Flavor != kern.MK32 {
		t.Fatal("row order")
	}
	if mk40.Static.Total() != 690 || mk32.Static.Total() != 4664 {
		t.Fatalf("static totals: %d / %d", mk40.Static.Total(), mk32.Static.Total())
	}
	if mk40.StacksInUse != 0 {
		t.Errorf("MK40 blocked pool holds %d stacks", mk40.StacksInUse)
	}
	// One dedicated stack per user thread plus the pageout daemon's.
	if mk32.StacksInUse != mk32.Threads+1 {
		t.Errorf("MK32 stacks %d != threads %d + pageout", mk32.StacksInUse, mk32.Threads)
	}
	saving := 1 - mk40.MeasuredPerThread/mk32.MeasuredPerThread
	if saving < 0.85 {
		t.Errorf("measured saving %.0f%%, paper claims 85%%", 100*saving)
	}
}

// hasKind reports whether any event in evs has kind k.
func hasKind(evs []obs.Event, k obs.Kind) bool {
	for _, ev := range evs {
		if ev.Kind == k {
			return true
		}
	}
	return false
}

func TestFigure2TraceShape(t *testing.T) {
	tr := experiments.Figure2Trace()
	// The fast path of Figure 2: enter kernel, copy in, find receiver,
	// stack handoff, recognition, copy out, exit kernel.
	for _, kind := range []obs.Kind{
		obs.KernelEntry,
		obs.CopyIn,
		obs.FindReceiver,
		obs.StackHandoff,
		obs.Recognition,
		obs.CopyOut,
		obs.KernelExit,
	} {
		if !hasKind(tr, kind) {
			t.Errorf("trace lacks %v:\n%s", kind, obs.TransferString(tr))
		}
	}
	// The fast path must not queue, dequeue or context switch.
	for _, kind := range []obs.Kind{
		obs.QueueMessage,
		obs.DequeueMessage,
		obs.ContextSwitch,
	} {
		if hasKind(tr, kind) {
			t.Errorf("fast path contains %v:\n%s", kind, obs.TransferString(tr))
		}
	}
}

func TestFirefly886(t *testing.T) {
	res := experiments.Firefly886(kern.MK40)
	if res.Threads < 886 {
		t.Fatalf("population = %d", res.Threads)
	}
	// §5: "886 similarly blocked kernel-level threads would require only
	// 6 stacks, one for each of the Firefly's five processors and one
	// for a special kernel thread."
	if res.StacksInUse != 6 {
		t.Errorf("MK40 stacks = %d, want 6", res.StacksInUse)
	}

	pm := experiments.Firefly886(kern.MK32)
	if pm.StacksInUse < 886 {
		t.Errorf("MK32 stacks = %d, want >= 886 (one per thread)", pm.StacksInUse)
	}
}

func TestRunWorkloadResultConsistency(t *testing.T) {
	res := experiments.RunWorkload(workloadCompile(t), 0.05, 7)
	var sum uint64
	for _, n := range res.Blocks {
		sum += n
	}
	if sum+res.NoDiscards != res.TotalBlocks {
		t.Fatalf("block accounting: %d + %d != %d", sum, res.NoDiscards, res.TotalBlocks)
	}
	if res.Handoffs > res.TotalBlocks {
		t.Fatal("more handoffs than blocks")
	}
}

func TestPaperConstantsPresent(t *testing.T) {
	rows, nd := experiments.PaperTable1Percent("Compile Test")
	if len(rows) != 6 || nd != 1.6 {
		t.Fatal("compile constants")
	}
	if h, r := experiments.PaperTable2Percent("DOS Emulation"); h != 100.0 || r != 85.9 {
		t.Fatal("DOS table 2 constants")
	}
	if rows, _ := experiments.PaperTable1Percent("nope"); rows != nil {
		t.Fatal("unknown workload should return nil")
	}
}

func workloadCompile(t *testing.T) workload.Spec {
	t.Helper()
	return workload.CompileTest()
}

func TestMessageSizeSweepCrossover(t *testing.T) {
	rows := experiments.MessageSizeSweep([]int{64, 1024, 8192, 65536}, 50)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Small messages: inline copying wins (OOL pays the map setup).
	if rows[0].InlineUs >= rows[0].OOLUs {
		t.Errorf("64B: inline %.1f >= OOL %.1f", rows[0].InlineUs, rows[0].OOLUs)
	}
	// Large messages: out-of-line remapping wins decisively.
	if rows[3].OOLUs >= rows[3].InlineUs {
		t.Errorf("64KB: OOL %.1f >= inline %.1f", rows[3].OOLUs, rows[3].InlineUs)
	}
	if ratio := rows[3].InlineUs / rows[3].OOLUs; ratio < 3 {
		t.Errorf("64KB inline/OOL ratio = %.1f, want >= 3", ratio)
	}
	// Inline latency grows with size; OOL stays nearly flat.
	if rows[3].InlineUs <= rows[0].InlineUs*2 {
		t.Errorf("inline latency not size-sensitive: %.1f vs %.1f", rows[0].InlineUs, rows[3].InlineUs)
	}
	oolGrowth := rows[3].OOLUs / rows[0].OOLUs
	if oolGrowth > 2.5 {
		t.Errorf("OOL latency grew %.1fx across sizes", oolGrowth)
	}
}
