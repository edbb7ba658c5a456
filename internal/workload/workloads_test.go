package workload_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/workload"
)

// runScaled runs a workload at a fraction of its paper duration.
func runScaled(t *testing.T, flavor kern.Flavor, spec workload.Spec, scale float64) (*kern.System, *workload.Instance) {
	t.Helper()
	return workload.Run(flavor, machine.ArchToshiba5200, spec.Scale(scale), 12345)
}

func pct(part, whole uint64) float64 { return stats.Percent(part, whole) }

func TestCompileTestMix(t *testing.T) {
	sys, _ := runScaled(t, kern.MK40, workload.CompileTest(), 0.5)
	st := sys.K.Stats
	total := st.TotalBlocks()
	if total < 500 {
		t.Fatalf("too few blocks: %d", total)
	}
	// Paper (Table 1): receive 83.4%, fault 0.9%, preempt 7.7%,
	// internal 6.4%, no-discard 1.6%. Allow generous bands.
	if p := pct(st.BlocksWithDiscard[stats.BlockReceive], total); p < 75 || p > 90 {
		t.Errorf("receive %% = %.1f, want ~83", p)
	}
	if p := pct(st.BlocksWithDiscard[stats.BlockPreempt], total); p < 4 || p > 13 {
		t.Errorf("preempt %% = %.1f, want ~8", p)
	}
	if p := pct(st.BlocksWithDiscard[stats.BlockInternal], total); p < 3 || p > 11 {
		t.Errorf("internal %% = %.1f, want ~6", p)
	}
	if p := pct(st.TotalNoDiscards(), total); p < 0.5 || p > 3.5 {
		t.Errorf("no-discard %% = %.1f, want ~1.6", p)
	}
	// The headline: ~98%+ of blocks discard the stack.
	if p := pct(st.TotalDiscards(), total); p < 96.5 {
		t.Errorf("discard %% = %.1f, want >= 96.5", p)
	}
}

func TestKernelBuildMix(t *testing.T) {
	sys, _ := runScaled(t, kern.MK40, workload.KernelBuild(), 0.02)
	st := sys.K.Stats
	total := st.TotalBlocks()
	if total < 3000 {
		t.Fatalf("too few blocks: %d", total)
	}
	// Paper: receive 86.3%, preempt 4.9%, internal 8.4%, no-discard 0.1%.
	if p := pct(st.BlocksWithDiscard[stats.BlockReceive], total); p < 78 || p > 92 {
		t.Errorf("receive %% = %.1f, want ~86", p)
	}
	if p := pct(st.BlocksWithDiscard[stats.BlockInternal], total); p < 4 || p > 12 {
		t.Errorf("internal %% = %.1f, want ~8", p)
	}
	if p := pct(st.TotalNoDiscards(), total); p > 0.6 {
		t.Errorf("no-discard %% = %.1f, want ~0.1", p)
	}
	if p := pct(st.TotalDiscards(), total); p < 99 {
		t.Errorf("discard %% = %.1f, want >= 99 (paper: 99.9)", p)
	}
}

func TestDOSEmulationMix(t *testing.T) {
	sys, inst := runScaled(t, kern.MK40, workload.DOSEmulation(), 0.1)
	st := sys.K.Stats
	total := st.TotalBlocks()
	if total < 3000 {
		t.Fatalf("too few blocks: %d", total)
	}
	// Paper: receive 55.2%, exception 37.9%, preempt 5.3%, internal 1.6%.
	if p := pct(st.BlocksWithDiscard[stats.BlockReceive], total); p < 48 || p > 62 {
		t.Errorf("receive %% = %.1f, want ~55", p)
	}
	if p := pct(st.BlocksWithDiscard[stats.BlockException], total); p < 32 || p > 45 {
		t.Errorf("exception %% = %.1f, want ~38", p)
	}
	if p := pct(st.TotalDiscards(), total); p < 99.5 {
		t.Errorf("discard %% = %.1f, want ~100", p)
	}
	if inst.ExcServer == nil || inst.ExcServer.Handled == 0 {
		t.Fatal("exception server handled nothing")
	}
}

func TestTable2HandoffAndRecognition(t *testing.T) {
	// Paper (Table 2): handoff on 96.8-100% of blocks; recognition on
	// 60-86%.
	for _, spec := range workload.Specs() {
		scale := 0.2
		if spec.Name == "Kernel Build" {
			scale = 0.01
		}
		sys, _ := runScaled(t, kern.MK40, spec, scale)
		st := sys.K.Stats
		total := st.TotalBlocks()
		if h := pct(st.Handoffs, total); h < 93 {
			t.Errorf("%s: handoff %% = %.1f, want > 93", spec.Name, h)
		}
		if r := pct(st.Recognitions, total); r < 55 {
			t.Errorf("%s: recognition %% = %.1f, want > 55", spec.Name, r)
		}
	}
}

func TestSteadyStateStackCount(t *testing.T) {
	// §3.4: on average about 2 kernel stacks (running thread + the
	// process-model callout thread), against 8+ kernel-level threads.
	sys, _ := runScaled(t, kern.MK40, workload.CompileTest(), 0.25)
	avg := sys.K.Stacks.AverageInUse()
	if avg < 1.5 || avg > 2.7 {
		t.Errorf("average stacks = %.3f, want ~2 (paper: 2.002)", avg)
	}
	if sys.K.Stacks.MaxInUse() > 6 {
		t.Errorf("max stacks = %d, want <= 6 (paper worst case)", sys.K.Stacks.MaxInUse())
	}
	if sys.K.LiveThreads() < 6 {
		t.Errorf("thread population too small: %d", sys.K.LiveThreads())
	}
}

func TestProcessModelKernelStackCount(t *testing.T) {
	// The same workload on MK32 keeps one stack per thread.
	sys, _ := runScaled(t, kern.MK32, workload.CompileTest(), 0.1)
	threads := sys.K.LiveThreads()
	if got := sys.K.Stacks.InUse(); got < threads {
		t.Errorf("MK32 stacks = %d for %d threads; want one per thread", got, threads)
	}
	if sys.K.Stats.TotalDiscards() != 0 {
		t.Error("MK32 recorded stack discards")
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	run := func() (uint64, machine.Time) {
		sys, _ := runScaled(t, kern.MK40, workload.DOSEmulation(), 0.02)
		return sys.K.Stats.TotalBlocks(), sys.K.Clock.Now()
	}
	b1, t1 := run()
	b2, t2 := run()
	if b1 != b2 || t1 != t2 {
		t.Fatalf("nondeterministic workload: (%d,%v) vs (%d,%v)", b1, t1, b2, t2)
	}
}

func TestWorkloadRunsOnAllFlavors(t *testing.T) {
	for _, flavor := range []kern.Flavor{kern.MK40, kern.MK32, kern.Mach25} {
		sys, inst := runScaled(t, flavor, workload.DOSEmulation(), 0.01)
		var handled uint64
		for _, s := range inst.Servers {
			handled += s.Handled
		}
		if handled == 0 || inst.ExcServer.Handled == 0 {
			t.Errorf("%v: servers idle (rpc=%d exc=%d)", flavor, handled, inst.ExcServer.Handled)
		}
		if sys.K.Stats.TotalBlocks() == 0 {
			t.Errorf("%v: no blocks", flavor)
		}
	}
}

// TestDOSEmulationAblations runs the exception-heavy workload under
// MK40's four NoHandoff × NoRecognition settings. The ablations change
// only how control reaches the waiting exception server, never whether
// it does: every raise but one still in flight at the deadline is
// handled, and no other thread is left waiting on its exception reply.
func TestDOSEmulationAblations(t *testing.T) {
	spec := workload.DOSEmulation().Scale(0.05)
	for _, ab := range []struct{ noHandoff, noRecognition bool }{
		{false, false}, {true, false}, {false, true}, {true, true},
	} {
		sys := kern.New(kern.Config{
			Flavor: kern.MK40, Arch: machine.ArchToshiba5200,
			Quantum: spec.Quantum, Frames: spec.Frames,
			NoHandoff: ab.noHandoff, NoRecognition: ab.noRecognition,
		})
		inst := workload.Install(sys, spec, 12345)
		inst.Run()
		var raised uint64
		for _, c := range inst.Clients {
			raised += c.Exceptions
		}
		waiting := 0
		for _, th := range sys.K.Threads {
			if th.State() == core.StateWaiting && th.WaitLabel == "exception reply" {
				waiting++
			}
		}
		if handled := inst.ExcServer.Handled; raised < 1000 || handled+uint64(waiting) != raised || waiting > 1 {
			t.Errorf("%+v: %d exceptions raised, %d handled, %d threads waiting on an exception reply",
				ab, raised, handled, waiting)
		}
		if err := sys.K.Validate(); err != nil {
			t.Errorf("%+v: %v", ab, err)
		}
	}
}

func TestScaleHalvesDuration(t *testing.T) {
	spec := workload.CompileTest()
	half := spec.Scale(0.5)
	if half.Duration != spec.Duration/2 {
		t.Fatalf("Scale: %v -> %v", spec.Duration, half.Duration)
	}
}

// TestZeroDurationRunsNothing: a run scaled to nothing ends at once. At
// boot its deadline would be 0, which the kernel reads as no deadline.
func TestZeroDurationRunsNothing(t *testing.T) {
	spec := workload.CompileTest().Scale(0)
	sys := workload.NewSystem(kern.MK40, machine.ArchToshiba5200, spec)
	inst := workload.Install(sys, spec, 12345)
	done := make(chan struct{})
	go func() {
		inst.Run()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a zero-length run is still running after 10 s")
	}
	if now := sys.K.Clock.Now(); now != 0 {
		t.Fatalf("a zero-length run advanced the clock to %v", now)
	}
}

func TestRNGDeterminismAndRanges(t *testing.T) {
	a, b := workload.NewRNG(7), workload.NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed RNGs diverge")
		}
	}
	r := workload.NewRNG(1)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := r.Burst(100); v < 50 || v >= 150 {
			t.Fatalf("Burst out of range: %d", v)
		}
	}
	if r.Hit(0) {
		t.Fatal("Hit(0) fired")
	}
	if !r.Hit(10000) {
		t.Fatal("Hit(10000) missed")
	}
}

func TestClientOpMixRoughlyMatchesWeights(t *testing.T) {
	_, inst := runScaled(t, kern.MK40, workload.DOSEmulation(), 0.05)
	var rpcs, excs uint64
	for _, c := range inst.Clients {
		rpcs += c.RPCs
		excs += c.Exceptions
	}
	if excs == 0 || rpcs == 0 {
		t.Fatalf("ops missing: rpc=%d exc=%d", rpcs, excs)
	}
	// Wing commander issues exceptions:RPCs at 50:10; the screen
	// refresher adds RPCs, so the global ratio is lower but still >> 1.
	ratio := float64(excs) / float64(rpcs)
	if ratio < 2 || ratio > 6 {
		t.Fatalf("exception/RPC ratio = %.2f", ratio)
	}
}

func TestClientRequiresOps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("client with no ops did not panic")
		}
	}()
	workload.NewClient(nil, workload.ClientSpec{}, nil, nil, workload.NewRNG(1))
}

var _ core.UserProgram = (*workload.Client)(nil)
var _ core.UserProgram = (*workload.Server)(nil)
var _ core.UserProgram = (*workload.ExcServer)(nil)
