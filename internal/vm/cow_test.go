package vm_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/vm"
)

func newCowKernel(t *testing.T, frames int) (*core.Kernel, *vm.VM) {
	t.Helper()
	k := core.NewKernel(core.Config{
		Model:  machine.NewCostModel(machine.ArchDS3100),
		Flavor: core.MK40,
	})
	k.Sched = sched.New(0)
	v := vm.New(k, vm.Config{Frames: frames, DiskLatency: 1000 * 1000})
	return k, v
}

func env(k *core.Kernel) *core.Env { return &core.Env{K: k, P: k.Procs[0]} }

func TestShareCopyOnWrite(t *testing.T) {
	k, v := newCowKernel(t, 64)
	v.NewSpace(1)
	v.NewSpace(2)
	for i := 0; i < 4; i++ {
		v.Touch(1, uint64(0x1000*(i+1)))
	}
	framesBefore := v.FreeFrames
	shared := v.ShareCopyOnWrite(env(k), 1, 2, 0x1000, 4)
	if shared != 4 {
		t.Fatalf("shared = %d", shared)
	}
	// Sharing consumes no new frames.
	if v.FreeFrames != framesBefore {
		t.Fatalf("frames changed: %d -> %d", framesBefore, v.FreeFrames)
	}
	sp2 := v.SpaceOf(&core.Thread{SpaceID: 2})
	if sp2.ResidentPages() != 4 || sp2.SharedPages() != 4 {
		t.Fatalf("dst resident=%d shared=%d", sp2.ResidentPages(), sp2.SharedPages())
	}
	if v.CowShares != 4 {
		t.Fatalf("CowShares = %d", v.CowShares)
	}
}

func TestShareSkipsNonResidentAndDuplicates(t *testing.T) {
	k, v := newCowKernel(t, 64)
	v.NewSpace(1)
	v.NewSpace(2)
	v.Touch(1, 0x1000)
	// 0x2000 not resident in the source; share of [0x1000, 0x3000).
	if got := v.ShareCopyOnWrite(env(k), 1, 2, 0x1000, 2); got != 1 {
		t.Fatalf("shared = %d", got)
	}
	// Second share of the same range is a no-op.
	if got := v.ShareCopyOnWrite(env(k), 1, 2, 0x1000, 2); got != 0 {
		t.Fatalf("re-share = %d", got)
	}
}

// cowProg runs a fixed list of (addr, write) touches.
type cowProg struct {
	touches []struct {
		addr  uint64
		write bool
	}
	pos int
	v   *vm.VM
}

func (p *cowProg) Next(e *core.Env, t *core.Thread) core.Action {
	if p.pos >= len(p.touches) {
		return core.Exit()
	}
	a := p.touches[p.pos]
	p.pos++
	return core.Action{Kind: core.ActFault, Addr: a.addr, Write: a.write}
}

func TestWriteFaultBreaksSharing(t *testing.T) {
	k, v := newCowKernel(t, 64)
	v.NewSpace(1)
	v.NewSpace(2)
	v.Touch(1, 0x5000)
	v.ShareCopyOnWrite(env(k), 1, 2, 0x5000, 1)
	framesBefore := v.FreeFrames

	p := &cowProg{v: v}
	p.touches = append(p.touches, struct {
		addr  uint64
		write bool
	}{0x5000, true})
	th := k.NewThread(core.ThreadSpec{Name: core.NameOf("writer"), SpaceID: 2, Program: p})
	k.Setrun(th)
	k.Run(0)
	if th.State() != core.StateHalted {
		t.Fatalf("writer state = %v", th.State())
	}
	if v.CowBreaks != 1 {
		t.Fatalf("CowBreaks = %d", v.CowBreaks)
	}
	// The private copy claimed one frame.
	if v.FreeFrames != framesBefore-1 {
		t.Fatalf("frames: %d -> %d", framesBefore, v.FreeFrames)
	}
	// Both spaces still see the page; neither is shared any longer.
	sp1 := v.SpaceOf(&core.Thread{SpaceID: 1})
	sp2 := v.SpaceOf(&core.Thread{SpaceID: 2})
	if sp2.SharedPages() != 0 || sp1.SharedPages() != 0 {
		t.Fatalf("sharing survives: %d/%d", sp1.SharedPages(), sp2.SharedPages())
	}
}

func TestReadFaultKeepsSharing(t *testing.T) {
	k, v := newCowKernel(t, 64)
	v.NewSpace(1)
	v.NewSpace(2)
	v.Touch(1, 0x5000)
	v.ShareCopyOnWrite(env(k), 1, 2, 0x5000, 1)

	p := &cowProg{v: v}
	p.touches = append(p.touches, struct {
		addr  uint64
		write bool
	}{0x5000, false})
	th := k.NewThread(core.ThreadSpec{Name: core.NameOf("reader"), SpaceID: 2, Program: p})
	k.Setrun(th)
	k.Run(0)
	if v.CowBreaks != 0 {
		t.Fatalf("read fault broke sharing: %d", v.CowBreaks)
	}
	if v.FastFaults != 1 {
		t.Fatalf("FastFaults = %d", v.FastFaults)
	}
}

func TestLastMapperPrivatizesWithoutCopy(t *testing.T) {
	k, v := newCowKernel(t, 64)
	v.NewSpace(1)
	v.NewSpace(2)
	v.Touch(1, 0x7000)
	v.ShareCopyOnWrite(env(k), 1, 2, 0x7000, 1)

	// Evict all of space 1's mappings by forcing the pageout daemon:
	// instead, simulate the source dropping its mapping via eviction
	// pressure is complex — write from space 1 first (refs 2 -> copy),
	// then from space 2 (refs 1 -> privatize in place).
	pw1 := &cowProg{v: v}
	pw1.touches = append(pw1.touches, struct {
		addr  uint64
		write bool
	}{0x7000, true})
	t1 := k.NewThread(core.ThreadSpec{Name: core.NameOf("w1"), SpaceID: 1, Program: pw1})
	k.Setrun(t1)
	k.Run(0)
	framesAfterFirst := v.FreeFrames

	pw2 := &cowProg{v: v}
	pw2.touches = append(pw2.touches, struct {
		addr  uint64
		write bool
	}{0x7000, true})
	t2 := k.NewThread(core.ThreadSpec{Name: core.NameOf("w2"), SpaceID: 2, Program: pw2})
	k.Setrun(t2)
	k.Run(0)

	if v.CowBreaks != 2 {
		t.Fatalf("CowBreaks = %d", v.CowBreaks)
	}
	// The second break found refs==1 and privatized without a new frame.
	if v.FreeFrames != framesAfterFirst {
		t.Fatalf("last-mapper break consumed a frame: %d -> %d", framesAfterFirst, v.FreeFrames)
	}
}

// TestBrokenSharingStaysBroken checks that both copy-on-write sites store
// their change back into the page entries, which a space holds by value:
// sharing marks the source's entry shared as well as the destination's,
// and a write fault leaves the writer's entry private, so the second of
// two writes in each space faults fast instead of breaking the sharing
// again. The first space to write copies the page; the other, now its
// frame's last mapper, takes the frame private.
func TestBrokenSharingStaysBroken(t *testing.T) {
	k, v := newCowKernel(t, 64)
	v.NewSpace(1)
	v.NewSpace(2)
	v.Touch(1, 0x5000)
	v.ShareCopyOnWrite(env(k), 1, 2, 0x5000, 1)
	framesBefore := v.FreeFrames
	writeTwice := func(space int) {
		p := &cowProg{v: v}
		for i := 0; i < 2; i++ {
			p.touches = append(p.touches, struct {
				addr  uint64
				write bool
			}{0x5000, true})
		}
		th := k.NewThread(core.ThreadSpec{Name: core.IndexedName("writer-", space), SpaceID: space, Program: p})
		k.Setrun(th)
		k.Run(0)
		if th.State() != core.StateHalted {
			t.Fatalf("writer in space %d: state %v", space, th.State())
		}
	}
	writeTwice(2)
	writeTwice(1)
	if v.CowBreaks != 2 || v.FastFaults != 2 {
		t.Fatalf("CowBreaks = %d and FastFaults = %d, want one break and one fast fault per space", v.CowBreaks, v.FastFaults)
	}
	if v.FreeFrames != framesBefore-1 {
		t.Fatalf("frames: %d -> %d, want one private copy", framesBefore, v.FreeFrames)
	}
}

func TestSharedEvictionFreesFrameOnlyAtLastRef(t *testing.T) {
	// Fill a tiny machine, forcing the daemon to evict shared pages, and
	// check frame accounting stays consistent.
	k, v := newCowKernel(t, 8)
	v.NewSpace(1)
	v.NewSpace(2)
	for i := 0; i < 3; i++ {
		v.Touch(1, uint64(0x1000*(i+1)))
	}
	v.ShareCopyOnWrite(env(k), 1, 2, 0x1000, 3)

	// A greedy faulter churns through fresh pages, forcing evictions of
	// the shared ones.
	var touches []struct {
		addr  uint64
		write bool
	}
	for i := 0; i < 12; i++ {
		touches = append(touches, struct {
			addr  uint64
			write bool
		}{uint64(0x100000 + i*vm.PageSize), false})
	}
	p := &cowProg{v: v, touches: touches}
	th := k.NewThread(core.ThreadSpec{Name: core.NameOf("churn"), SpaceID: 1, Program: p})
	k.Setrun(th)
	k.Run(0)
	if th.State() != core.StateHalted {
		t.Fatalf("churn state = %v", th.State())
	}
	// Conservation: frames are either free or backing resident pages
	// (each shared frame counted once).
	type sh = struct{}
	backing := 0
	seen := map[interface{}]bool{}
	_ = seen
	for _, spID := range []int{1, 2} {
		sp := v.SpaceOf(&core.Thread{SpaceID: spID})
		backing += sp.ResidentPages() - sp.SharedPages()
	}
	// Shared pages back one frame per share group; count distinct groups
	// via SharedPages of the source only (groups span exactly 2 spaces
	// here).
	sp1 := v.SpaceOf(&core.Thread{SpaceID: 1})
	backing += sp1.SharedPages()
	if v.FreeFrames+backing > v.TotalFrames {
		t.Fatalf("frames overcommitted: free=%d backing=%d total=%d",
			v.FreeFrames, backing, v.TotalFrames)
	}
}

func TestShareUnregisteredSpacePanics(t *testing.T) {
	k, v := newCowKernel(t, 8)
	v.NewSpace(1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	v.ShareCopyOnWrite(env(k), 1, 99, 0x1000, 1)
}
