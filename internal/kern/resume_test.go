package kern_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/vm"
)

// syscallLog runs a fixed list of user actions, recording the value each
// system call returned.
type syscallLog struct {
	acts []core.Action
	pos  int
	in   bool
	rets []uint64
}

func (p *syscallLog) Next(e *core.Env, t *core.Thread) core.Action {
	if p.in {
		p.rets = append(p.rets, t.MD.RetVal)
		p.in = false
	}
	if p.pos == len(p.acts) {
		return core.Exit()
	}
	a := p.acts[p.pos]
	p.pos++
	p.in = a.Kind == core.ActSyscall
	return a
}

// resumeOutcome is what user space and the VM observe of one scenario.
type resumeOutcome struct {
	Rets                                         []uint64
	Resident                                     string
	FreeFrames                                   int
	Evictions, FrameWaits, CowBreaks, DiskFaults uint64
	DevBlocks, FaultBlocks                       uint64
}

const resumeDisk = machine.Duration(500 * 1000) // 500 µs

// runResumeScenario boots flavor with an 8-frame memory whose frames
// space 1 holds (pages 1-8), lets setup arrange more state, runs acts on
// one thread in space 2 to quiescence with the invariant sweep armed, and
// reports the outcome.
func runResumeScenario(t *testing.T, flavor kern.Flavor, setup func(*kern.System), acts func(*kern.System) []core.Action) resumeOutcome {
	t.Helper()
	sys := kern.New(kern.Config{
		Flavor: flavor, Arch: machine.ArchDS3100,
		DisableCallout: true, DiskLatency: resumeDisk, Frames: 8,
	})
	sys.K.DebugChecks = true
	owner, user := sys.NewTask("owner"), sys.NewTask("user")
	for p := uint64(1); p <= 8; p++ {
		sys.VM.Touch(owner.ID, p<<vm.PageShift)
	}
	if setup != nil {
		setup(sys)
	}
	prog := &syscallLog{acts: acts(sys)}
	th := user.NewThread("u", prog, 10)
	sys.Start(th)
	sys.Run(0)
	if th.State() != core.StateHalted {
		t.Fatalf("%v: user thread stuck in %v (%s)", flavor, th.State(), th.WaitLabel)
	}
	if err := sys.K.Validate(); err != nil {
		t.Fatalf("%v: %v", flavor, err)
	}
	var res strings.Builder
	for _, id := range []int{owner.ID, user.ID} {
		sp := sys.VM.SpaceOf(&core.Thread{SpaceID: id})
		res.WriteString(" ")
		for p := uint64(1); p <= 12; p++ {
			if sp.Resident(p << vm.PageShift) {
				res.WriteByte('1')
			} else {
				res.WriteByte('0')
			}
		}
	}
	st := sys.K.Stats
	return resumeOutcome{
		Rets:        prog.rets,
		Resident:    res.String(),
		FreeFrames:  sys.VM.FreeFrames,
		Evictions:   sys.VM.Evictions,
		FrameWaits:  sys.VM.FrameWaits,
		CowBreaks:   sys.VM.CowBreaks,
		DiskFaults:  sys.VM.DiskFaults,
		DevBlocks:   st.BlocksWithDiscard[stats.BlockDeviceIO] + st.BlocksWithoutDiscard[stats.BlockDeviceIO],
		FaultBlocks: st.BlocksWithDiscard[stats.BlockPageFault] + st.BlocksWithoutDiscard[stats.BlockPageFault],
	}
}

func touch(page uint64, write bool) core.Action {
	return core.Action{Kind: core.ActFault, Addr: page << vm.PageShift, Write: write}
}

// TestResumePointsAgreeAcrossKernels runs the block points whose
// process-model resume step is their continuation's own body, and that
// the rest of the suite reaches only under MK40, on all three kernels:
// device_write_continue (a completed write, then one whose every attempt
// times out through the retry path), vm_fault_retry after a page-in frame
// wait and after a copy-on-write frame wait, and pageout_continue, which
// frees the frames both waits need. The kernels differ in cost only, so
// return values, page residency and freed frames must agree.
func TestResumePointsAgreeAcrossKernels(t *testing.T) {
	scenarios := []struct {
		name  string
		setup func(*kern.System)
		acts  func(*kern.System) []core.Action
		check func(resumeOutcome) error
	}{
		{
			name: "device_write",
			acts: func(sys *kern.System) []core.Action {
				write := func(bytes int, timeout machine.Duration) core.Action {
					return core.Syscall("device_write", func(e *core.Env) {
						sys.Dev.IoTimeout = timeout
						sys.Dev.DeviceWrite(e, sys.Dev.Open(e, "disk"), bytes)
					})
				}
				return []core.Action{write(8192, 0), write(4096, resumeDisk/5)}
			},
			check: func(o resumeOutcome) error {
				if len(o.Rets) != 2 || o.Rets[0] != 8192 || o.Rets[1] != dev.DevTimedOut || o.DevBlocks != 5 {
					return fmt.Errorf("want returns [8192 %d] from 5 device blocks", dev.DevTimedOut)
				}
				return nil
			},
		},
		{
			name: "page-in frame wait",
			acts: func(*kern.System) []core.Action {
				return []core.Action{touch(1, false), touch(2, false), touch(3, false)}
			},
			check: func(o resumeOutcome) error {
				if o.FrameWaits != 1 || o.DiskFaults != 3 || o.Evictions == 0 {
					return fmt.Errorf("want 1 frame wait, 3 disk faults and evictions")
				}
				return nil
			},
		},
		{
			name: "copy-on-write frame wait",
			setup: func(sys *kern.System) {
				e := &core.Env{K: sys.K, P: sys.K.Procs[0]}
				if n := sys.VM.ShareCopyOnWrite(e, 1, 2, 1<<vm.PageShift, 2); n != 2 {
					panic(fmt.Sprintf("shared %d pages, want 2", n))
				}
			},
			acts: func(*kern.System) []core.Action {
				return []core.Action{touch(1, true), touch(2, true), touch(3, false)}
			},
			check: func(o resumeOutcome) error {
				if o.FrameWaits != 1 || o.CowBreaks != 2 || o.DiskFaults != 1 {
					return fmt.Errorf("want 1 frame wait, 2 copy-on-write breaks and 1 disk fault")
				}
				return nil
			},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			want := runResumeScenario(t, kern.MK40, sc.setup, sc.acts)
			if err := sc.check(want); err != nil {
				t.Fatalf("MK40: %v; got %+v", err, want)
			}
			for _, flavor := range []kern.Flavor{kern.MK32, kern.Mach25} {
				if got := runResumeScenario(t, flavor, sc.setup, sc.acts); fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
					t.Errorf("%v: %+v\nMK40: %+v", flavor, got, want)
				}
			}
		})
	}
}
