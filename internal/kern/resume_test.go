package kern_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/obs"
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
// Waits lists, for a scenario that names a waiter, each of that thread's
// blocks that a wake-up ended: its reason, whether it kept its stack
// (the process model), and the simulated time from block to wake-up.
type resumeOutcome struct {
	Rets                                         []uint64
	Resident                                     string
	FreeFrames                                   int
	Evictions, FrameWaits, CowBreaks, DiskFaults uint64
	DevBlocks, FaultBlocks                       uint64
	Waits                                        []string
}

const resumeDisk = machine.Duration(500 * 1000) // 500 µs

// resumeScenario is one entry of TestResumePointsAgreeAcrossKernels.
// setup arranges state before the user thread starts; acts are its
// actions. A scenario with a waiter boots the callout thread and reports
// the waits of the thread waiter names (the user thread when it returns
// nil).
type resumeScenario struct {
	name   string
	setup  func(*kern.System)
	acts   func(*kern.System) []core.Action
	waiter func(*kern.System) *core.Thread
	check  func(resumeOutcome) error
}

// runResumeScenario boots flavor with an 8-frame memory whose frames
// space 1 holds (pages 1-8), lets setup arrange more state, runs acts on
// one thread in space 2 to quiescence with the invariant sweep armed, and
// reports the outcome.
func runResumeScenario(t *testing.T, flavor kern.Flavor, sc resumeScenario) resumeOutcome {
	t.Helper()
	sys := kern.New(kern.Config{
		Flavor: flavor, Arch: machine.ArchDS3100,
		DisableCallout: sc.waiter == nil, DiskLatency: resumeDisk, Frames: 8,
	})
	sys.K.DebugChecks = true
	var rec *obs.Recorder
	if sc.waiter != nil {
		rec = sys.EnableObservation(obs.DefaultCapacity)
	}
	owner, user := sys.NewTask("owner"), sys.NewTask("user")
	for p := uint64(1); p <= 8; p++ {
		sys.VM.Touch(owner.ID, p<<vm.PageShift)
	}
	if sc.setup != nil {
		sc.setup(sys)
	}
	prog := &syscallLog{acts: sc.acts(sys)}
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
	var waits []string
	if sc.waiter != nil {
		w := sc.waiter(sys)
		if w == nil {
			w = th
		}
		waits = waitsOf(rec.Events(), w.ID)
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
		Waits:       waits,
	}
}

// waitsOf pairs thread tid's blocks with the wake-ups that ended them, in
// the form resumeOutcome.Waits documents. Only blocks after the thread's
// first observed wake-up count: the callout thread's first block comes
// before anything observed woke it, in the boot's contention for the
// processor, where the kernels' stack costs differ.
func waitsOf(evs []obs.Event, tid int) []string {
	var waits []string
	var blocked *obs.Event
	woken := false
	for i := range evs {
		ev := &evs[i]
		switch {
		case ev.TID != tid:
		case ev.Kind == obs.ThreadBlocked:
			blocked = ev
		case ev.Kind == obs.Wakeup:
			if blocked != nil && woken {
				model := "continuation"
				if blocked.Cont == "" {
					model = "process model"
				}
				waits = append(waits, fmt.Sprintf("%s, %s, woken after %v", blocked.Detail, model, ev.When-blocked.When))
			}
			blocked, woken = nil, true
		}
	}
	return waits
}

// processWait is the one wait a process-model scenario expects.
func processWait(reason stats.BlockReason, d machine.Duration) string {
	return fmt.Sprintf("%s, process model, woken after %v", reason, d)
}

// waitSyscall is a system call whose body starts wait and returns ret
// once it resumes.
func waitSyscall(wait func(e *core.Env, resume func(*core.Env)), ret uint64) core.Action {
	return core.Syscall("wait", func(e *core.Env) {
		wait(e, func(e2 *core.Env) { e2.K.ThreadSyscallReturn(e2, ret) })
	})
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
// frees the frames both waits need. It also runs the waits that block
// under the process model in every kernel and wake on a timer
// (Kernel.WakeAt): the kmem and lock waits, a kernel-mode page fault and
// the callout thread's tick. The kernels differ in cost only, so return
// values, page residency, freed frames and each timed wait's reason and
// length must agree.
func TestResumePointsAgreeAcrossKernels(t *testing.T) {
	user := func(*kern.System) *core.Thread { return nil }
	scenarios := []resumeScenario{
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
		{
			name: "kmem wait",
			acts: func(sys *kern.System) []core.Action {
				return []core.Action{waitSyscall(func(e *core.Env, resume func(*core.Env)) {
					sys.AllocWait(e, 256, resume)
				}, 41)}
			},
			waiter: user,
			check:  wantTimedWait(41, processWait(stats.BlockKernelAlloc, 500*1000)),
		},
		{
			name: "lock wait",
			acts: func(sys *kern.System) []core.Action {
				return []core.Action{waitSyscall(func(e *core.Env, resume func(*core.Env)) {
					sys.LockWait(e, 128, resume)
				}, 42)}
			},
			waiter: user,
			check:  wantTimedWait(42, processWait(stats.BlockLock, 50*1000)),
		},
		{
			name: "kernel fault",
			acts: func(sys *kern.System) []core.Action {
				return []core.Action{waitSyscall(func(e *core.Env, resume func(*core.Env)) {
					sys.VM.KernelFault(e, 256, resume)
				}, 43)}
			},
			waiter: user,
			check:  wantTimedWait(43, processWait(stats.BlockKernelFault, resumeDisk)),
		},
		{
			// A foreground timer just past the second tick keeps the run
			// going until the tick has woken the callout thread twice;
			// the wait between the two ticks is the one observed.
			name: "callout tick",
			setup: func(sys *kern.System) {
				sys.K.Clock.Schedule(2*kern.CalloutInterval+resumeDisk, func(any) {}, nil)
			},
			acts:   func(*kern.System) []core.Action { return nil },
			waiter: func(sys *kern.System) *core.Thread { return sys.Callout },
			check: func(o resumeOutcome) error {
				want := processWait(stats.BlockInternal, kern.CalloutInterval)
				if len(o.Waits) != 1 || o.Waits[0] != want {
					return fmt.Errorf("want one wait %q", want)
				}
				return nil
			},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			want := runResumeScenario(t, kern.MK40, sc)
			if err := sc.check(want); err != nil {
				t.Fatalf("MK40: %v; got %+v", err, want)
			}
			for _, flavor := range []kern.Flavor{kern.MK32, kern.Mach25} {
				if got := runResumeScenario(t, flavor, sc); fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
					t.Errorf("%v: %+v\nMK40: %+v", flavor, got, want)
				}
			}
		})
	}
}

// wantTimedWait checks a scenario whose one system call makes one timed
// wait: it returns ret, and the user thread's only wait is wait.
func wantTimedWait(ret uint64, wait string) func(resumeOutcome) error {
	return func(o resumeOutcome) error {
		if len(o.Rets) != 1 || o.Rets[0] != ret || len(o.Waits) != 1 || o.Waits[0] != wait {
			return fmt.Errorf("want return %d and one wait %q", ret, wait)
		}
		return nil
	}
}
