package vm_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/vm"
)

// faultProg touches a list of addresses, faulting on each, then exits.
type faultProg struct {
	addrs []uint64
	pos   int
	v     *vm.VM
	space int
}

func (p *faultProg) Next(e *core.Env, t *core.Thread) core.Action {
	for p.pos < len(p.addrs) {
		a := p.addrs[p.pos]
		if !p.v.SpaceOf(t).Resident(a) {
			return core.Action{Kind: core.ActFault, Addr: a}
		}
		p.pos++
	}
	return core.Exit()
}

func newVMKernel(t *testing.T, useCont bool, frames int) (*core.Kernel, *vm.VM) {
	t.Helper()
	flavor := core.MK32
	if useCont {
		flavor = core.MK40
	}
	k := core.NewKernel(core.Config{
		Model:  machine.NewCostModel(machine.ArchDS3100),
		Flavor: flavor,
	})
	k.Sched = sched.New(0)
	v := vm.New(k, vm.Config{Frames: frames, DiskLatency: 1000 * 1000})
	return k, v
}

func TestFaultBringsPageIn(t *testing.T) {
	k, v := newVMKernel(t, true, 64)
	v.NewSpace(1)
	p := &faultProg{addrs: []uint64{0x1000, 0x2000, 0x1000}, v: v, space: 1}
	th := k.NewThread(core.ThreadSpec{Name: core.NameOf("faulter"), SpaceID: 1, Program: p})
	k.Setrun(th)
	k.Run(0)
	if th.State() != core.StateHalted {
		t.Fatalf("state = %v", th.State())
	}
	if v.DiskFaults != 2 {
		t.Fatalf("DiskFaults = %d, want 2 (third touch is resident)", v.DiskFaults)
	}
	if got := v.SpaceOf(th).ResidentPages(); got != 2 {
		t.Fatalf("resident pages = %d", got)
	}
	if k.Stats.BlocksWithDiscard[stats.BlockPageFault] != 2 {
		t.Fatalf("page fault discards = %d", k.Stats.BlocksWithDiscard[stats.BlockPageFault])
	}
}

func TestFaultingThreadIsStackless(t *testing.T) {
	k, v := newVMKernel(t, true, 64)
	v.NewSpace(1)
	p := &faultProg{addrs: []uint64{0x5000}, v: v, space: 1}
	th := k.NewThread(core.ThreadSpec{Name: core.NameOf("faulter"), SpaceID: 1, Program: p})
	k.Setrun(th)
	for i := 0; i < 200 && th.State() != core.StateWaiting; i++ {
		if !k.Step() {
			break
		}
	}
	if th.State() != core.StateWaiting {
		t.Fatalf("state = %v", th.State())
	}
	if th.HasStack() {
		t.Fatal("faulting thread kept a kernel stack while waiting for the disk")
	}
	if !th.BlockedWith(v.ContFaultContinue) {
		t.Fatalf("blocked with %v, want vm_fault_continue", th.Cont)
	}
	k.Run(0)
	if th.State() != core.StateHalted {
		t.Fatalf("final state = %v", th.State())
	}
}

func TestFaultProcessModelKeepsStack(t *testing.T) {
	k, v := newVMKernel(t, false, 64)
	v.NewSpace(1)
	p := &faultProg{addrs: []uint64{0x5000}, v: v, space: 1}
	th := k.NewThread(core.ThreadSpec{Name: core.NameOf("faulter"), SpaceID: 1, Program: p})
	k.Setrun(th)
	for i := 0; i < 200 && th.State() != core.StateWaiting; i++ {
		if !k.Step() {
			break
		}
	}
	if !th.HasStack() || th.Cont != nil {
		t.Fatal("process-model faulter should keep its stack")
	}
	k.Run(0)
	if th.State() != core.StateHalted {
		t.Fatalf("final state = %v", th.State())
	}
}

func TestPageoutDaemonFreesFrames(t *testing.T) {
	// 8 frames, a thread that touches 20 pages: the daemon must evict.
	k, v := newVMKernel(t, true, 8)
	v.NewSpace(1)
	var addrs []uint64
	for i := 0; i < 20; i++ {
		addrs = append(addrs, uint64(i+1)<<vm.PageShift)
	}
	p := &faultProg{addrs: addrs, v: v, space: 1}
	th := k.NewThread(core.ThreadSpec{Name: core.NameOf("pig"), SpaceID: 1, Program: p})
	k.Setrun(th)
	k.Run(0)
	if th.State() != core.StateHalted {
		t.Fatalf("state = %v (frame starvation?)", th.State())
	}
	if v.Evictions == 0 {
		t.Fatal("pageout daemon never evicted")
	}
	if k.Stats.BlocksWithDiscard[stats.BlockInternal] == 0 {
		t.Fatal("daemon blocks not tallied as internal")
	}
	// Frame accounting balances: free + resident + waiter-claims = total.
	if v.FreeFrames+v.ResidentTotal() > v.TotalFrames {
		t.Fatalf("frames overcommitted: free=%d resident=%d total=%d",
			v.FreeFrames, v.ResidentTotal(), v.TotalFrames)
	}
}

func TestManyFaultersFewStacks(t *testing.T) {
	// The paper's space claim: many threads blocked in page faults hold
	// no kernel stacks.
	k, v := newVMKernel(t, true, 256)
	const n = 30
	var threads []*core.Thread
	for i := 0; i < n; i++ {
		v.NewSpace(i + 1)
		p := &faultProg{addrs: []uint64{0x10000}, v: v, space: i + 1}
		th := k.NewThread(core.ThreadSpec{Name: core.NameOf("f"), SpaceID: i + 1, Program: p})
		threads = append(threads, th)
		k.Setrun(th)
	}
	// Run until all are blocked on the disk.
	for i := 0; i < 10000; i++ {
		allBlocked := true
		for _, th := range threads {
			if th.State() != core.StateWaiting {
				allBlocked = false
			}
		}
		if allBlocked {
			break
		}
		if !k.Step() {
			break
		}
	}
	if got := k.Stacks.InUse(); got != 0 {
		t.Fatalf("stacks in use with all faulters blocked = %d, want 0", got)
	}
	k.Run(0)
	for _, th := range threads {
		if th.State() != core.StateHalted {
			t.Fatalf("%v state = %v", th, th.State())
		}
	}
}

func TestKernelFaultUsesProcessModel(t *testing.T) {
	k, v := newVMKernel(t, true, 64)
	v.NewSpace(1)
	var resumed bool
	prog := core.ProgramFunc(func(e *core.Env, t *core.Thread) core.Action {
		if resumed {
			return core.Exit()
		}
		return core.Syscall("touch_kernel", func(e *core.Env) {
			// A syscall path faults on pageable kernel memory.
			v.KernelFault(e, 200, func(e2 *core.Env) {
				resumed = true
				e2.K.ThreadSyscallReturn(e2, 0)
			})
		})
	})
	th := k.NewThread(core.ThreadSpec{Name: core.NameOf("syscaller"), SpaceID: 1, Program: prog})
	k.Setrun(th)

	for i := 0; i < 200 && th.State() != core.StateWaiting; i++ {
		if !k.Step() {
			break
		}
	}
	if !th.HasStack() {
		t.Fatal("kernel-mode fault must preserve the stack (process model)")
	}
	if th.Cont != nil {
		t.Fatal("kernel-mode fault must not use a continuation")
	}
	k.Run(0)
	if !resumed || th.State() != core.StateHalted {
		t.Fatalf("resumed=%v state=%v", resumed, th.State())
	}
	if k.Stats.BlocksWithoutDiscard[stats.BlockKernelFault] != 1 {
		t.Fatalf("kernel fault not tallied in the no-discard row: %+v", k.Stats.BlocksWithoutDiscard)
	}
	if v.KernelFaults != 1 {
		t.Fatalf("KernelFaults = %d", v.KernelFaults)
	}
}

func TestFrameWaitAndRetry(t *testing.T) {
	// 4 frames (low water clamps to 2): two greedy threads contending.
	k, v := newVMKernel(t, true, 4)
	var threads []*core.Thread
	for i := 0; i < 2; i++ {
		v.NewSpace(i + 1)
		var addrs []uint64
		for j := 0; j < 6; j++ {
			addrs = append(addrs, uint64(j+1)<<vm.PageShift)
		}
		p := &faultProg{addrs: addrs, v: v, space: i + 1}
		th := k.NewThread(core.ThreadSpec{Name: core.NameOf("greedy"), SpaceID: i + 1, Program: p})
		threads = append(threads, th)
		k.Setrun(th)
	}
	k.Run(0)
	for _, th := range threads {
		if th.State() != core.StateHalted {
			t.Fatalf("%v state = %v", th, th.State())
		}
	}
	if v.Evictions == 0 {
		t.Fatal("no evictions under frame pressure")
	}
}

func TestTouchPreloadsWorkingSet(t *testing.T) {
	k, v := newVMKernel(t, true, 16)
	v.NewSpace(1)
	v.Touch(1, 0x3000)
	v.Touch(1, 0x3000) // idempotent
	if v.FreeFrames != 15 {
		t.Fatalf("FreeFrames = %d", v.FreeFrames)
	}
	p := &faultProg{addrs: []uint64{0x3000}, v: v, space: 1}
	th := k.NewThread(core.ThreadSpec{Name: core.NameOf("warm"), SpaceID: 1, Program: p})
	k.Setrun(th)
	k.Run(0)
	if v.DiskFaults != 0 {
		t.Fatalf("warm touch went to disk: %d", v.DiskFaults)
	}
}

func TestResidentFaultIsFast(t *testing.T) {
	k, v := newVMKernel(t, true, 16)
	v.NewSpace(1)
	v.Touch(1, 0x8000)
	prog := core.ProgramFunc(func(e *core.Env, t *core.Thread) core.Action {
		if t.KernelEntries > 0 {
			return core.Exit()
		}
		return core.Action{Kind: core.ActFault, Addr: 0x8000}
	})
	th := k.NewThread(core.ThreadSpec{Name: core.NameOf("fast"), SpaceID: 1, Program: prog})
	k.Setrun(th)
	k.Run(0)
	if v.FastFaults != 1 || v.DiskFaults != 0 {
		t.Fatalf("fast=%d disk=%d", v.FastFaults, v.DiskFaults)
	}
	// A fast fault never blocks.
	if k.Stats.BlocksWithDiscard[stats.BlockPageFault] != 0 {
		t.Fatal("fast fault blocked")
	}
}

func TestDuplicateSpacePanics(t *testing.T) {
	k, v := newVMKernel(t, true, 16)
	_ = k
	v.NewSpace(1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate space did not panic")
		}
	}()
	v.NewSpace(1)
}

func TestUnregisteredSpacePanics(t *testing.T) {
	k, v := newVMKernel(t, true, 16)
	th := k.NewThread(core.ThreadSpec{Name: core.NameOf("orphan"), SpaceID: 9})
	defer func() {
		if recover() == nil {
			t.Fatal("unregistered space did not panic")
		}
	}()
	v.SpaceOf(th)
}
