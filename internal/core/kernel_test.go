package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/stats"
)

// script is a simple UserProgram: a fixed sequence of actions followed by
// exit.
type script struct {
	actions []core.Action
	pos     int
	// retvals records the syscall return values the program observed.
	retvals []uint64
}

func (s *script) Next(e *core.Env, t *core.Thread) core.Action {
	if t.MD.RetVal != 0 {
		s.retvals = append(s.retvals, t.MD.RetVal)
		t.MD.RetVal = 0
	}
	if s.pos >= len(s.actions) {
		return core.Exit()
	}
	a := s.actions[s.pos]
	s.pos++
	return a
}

func newKernel(t *testing.T, useCont bool, procs int) *core.Kernel {
	t.Helper()
	flavor := core.MK32
	if useCont {
		flavor = core.MK40
	}
	k := core.NewKernel(core.Config{
		Model:      machine.NewCostModel(machine.ArchDS3100),
		Flavor:     flavor,
		Processors: procs,
	})
	k.Sched = sched.New(0)
	return k
}

func start(k *core.Kernel, t *core.Thread) {
	k.Setrun(t)
}

func TestRunTrivialProgram(t *testing.T) {
	k := newKernel(t, true, 1)
	prog := &script{actions: []core.Action{core.RunFor(16670)}} // ~1 ms
	th := k.NewThread(core.ThreadSpec{Name: "user", SpaceID: 1, Program: prog})
	start(k, th)
	k.Run(0)
	if th.State() != core.StateHalted {
		t.Fatalf("thread state = %v", th.State())
	}
	if got := k.Clock.Now(); got < 1000*1000 {
		t.Fatalf("clock advanced only %v", got)
	}
	if th.UserTime < 999*1000 {
		t.Fatalf("user time %v", th.UserTime)
	}
}

func TestSyscallReturnValueReachesProgram(t *testing.T) {
	k := newKernel(t, true, 1)
	prog := &script{actions: []core.Action{
		core.Syscall("answer", func(e *core.Env) {
			e.K.ThreadSyscallReturn(e, 42)
		}),
		core.RunFor(100),
	}}
	th := k.NewThread(core.ThreadSpec{Name: "user", SpaceID: 1, Program: prog})
	start(k, th)
	k.Run(0)
	if len(prog.retvals) != 1 || prog.retvals[0] != 42 {
		t.Fatalf("retvals = %v", prog.retvals)
	}
	if th.KernelEntries < 2 { // syscall + exit
		t.Fatalf("kernel entries = %d", th.KernelEntries)
	}
}

func TestSyscallHandlerMustNotReturn(t *testing.T) {
	k := newKernel(t, true, 1)
	prog := &script{actions: []core.Action{
		core.Syscall("broken", func(e *core.Env) {}),
	}}
	th := k.NewThread(core.ThreadSpec{Name: "user", SpaceID: 1, Program: prog})
	start(k, th)
	mustPanic(t, `core: syscall "broken" handler returned instead of transferring control`, func() {
		k.Run(0)
	})
}

// sleepDone returns the sleeper to user space.
var sleepDone = core.NewContinuation("sleep_done", func(e *core.Env) {
	e.K.ThreadSyscallReturn(e, 1)
})

// sleepSyscall blocks the current thread until the clock fires, using a
// continuation when the kernel supports it and the process model
// otherwise.
func sleepSyscall(d machine.Duration) core.Action {
	return core.Syscall("sleep", func(e *core.Env) {
		th := e.Cur()
		e.K.SetState(th, core.StateWaiting)
		e.K.Clock.After(d, "sleep-wakeup", func() { e.K.Setrun(th) })
		e.K.Block(e, stats.BlockInternal, sleepDone,
			func(e2 *core.Env) { e2.K.ThreadSyscallReturn(e2, 1) }, 64, "sleep")
	})
}

func TestSleepViaContinuationDiscardsStack(t *testing.T) {
	k := newKernel(t, true, 1)
	prog := &script{actions: []core.Action{sleepSyscall(1000 * 1000)}}
	th := k.NewThread(core.ThreadSpec{Name: "sleeper", SpaceID: 1, Program: prog})
	start(k, th)

	// Drive until the sleeper has blocked and the processor parked.
	for i := 0; i < 100 && th.State() != core.StateWaiting; i++ {
		if !k.Step() {
			break
		}
	}
	if th.State() != core.StateWaiting {
		t.Fatalf("sleeper state = %v", th.State())
	}
	if th.HasStack() {
		t.Fatal("continuation-blocked thread still holds a stack")
	}
	if th.Cont == nil {
		t.Fatal("continuation-blocked thread lost its continuation")
	}
	if k.Stacks.InUse() != 0 {
		t.Fatalf("stacks in use while everything blocked: %d", k.Stacks.InUse())
	}

	k.Run(0)
	if th.State() != core.StateHalted {
		t.Fatalf("sleeper did not finish: %v", th.State())
	}
	if len(prog.retvals) != 1 || prog.retvals[0] != 1 {
		t.Fatalf("retvals = %v", prog.retvals)
	}
	if k.Stats.BlocksWithDiscard[stats.BlockInternal] == 0 {
		t.Fatal("no discard recorded")
	}
}

func TestSleepProcessModelKeepsStack(t *testing.T) {
	k := newKernel(t, false, 1)
	prog := &script{actions: []core.Action{sleepSyscall(1000 * 1000)}}
	th := k.NewThread(core.ThreadSpec{Name: "sleeper", SpaceID: 1, Program: prog})
	start(k, th)

	for i := 0; i < 100 && th.State() != core.StateWaiting; i++ {
		if !k.Step() {
			break
		}
	}
	if th.State() != core.StateWaiting {
		t.Fatalf("sleeper state = %v", th.State())
	}
	if !th.HasStack() {
		t.Fatal("process-model thread lost its stack while blocked")
	}
	if th.Cont != nil {
		t.Fatal("process-model kernel recorded a continuation")
	}
	if th.Stack.FrameCount() == 0 {
		t.Fatal("no preserved frame on the retained stack")
	}

	k.Run(0)
	if th.State() != core.StateHalted || len(prog.retvals) != 1 {
		t.Fatalf("sleeper did not finish: %v retvals=%v", th.State(), prog.retvals)
	}
	if d := k.Stats.TotalDiscards(); d != 0 {
		t.Fatalf("process-model kernel recorded %d discards", d)
	}
	if k.Stats.TotalNoDiscards() == 0 {
		t.Fatal("no process-model blocks recorded")
	}
}

func TestHandoffBetweenContinuationThreads(t *testing.T) {
	k := newKernel(t, true, 1)
	// Two threads that sleep in lockstep; when one blocks while the
	// other is runnable-with-continuation, thread_block should hand the
	// stack over rather than context switch.
	mk := func(name string) (*script, *core.Thread) {
		p := &script{actions: []core.Action{
			sleepSyscall(100 * 1000),
			core.RunFor(1000),
			sleepSyscall(100 * 1000),
			core.RunFor(1000),
		}}
		return p, k.NewThread(core.ThreadSpec{Name: name, SpaceID: 1, Program: p})
	}
	_, a := mk("a")
	_, b := mk("b")
	start(k, a)
	start(k, b)
	k.Run(0)
	if a.State() != core.StateHalted || b.State() != core.StateHalted {
		t.Fatalf("states a=%v b=%v", a.State(), b.State())
	}
	if k.Stats.Handoffs == 0 {
		t.Fatal("no stack handoffs between continuation threads")
	}
	// The two threads plus exits should never have needed more than a
	// couple of stacks.
	if k.Stacks.MaxInUse() > 2 {
		t.Fatalf("stack high water = %d, want <= 2", k.Stacks.MaxInUse())
	}
}

func TestProcessModelUsesContextSwitches(t *testing.T) {
	k := newKernel(t, false, 1)
	mk := func(name string) *core.Thread {
		p := &script{actions: []core.Action{
			sleepSyscall(100 * 1000),
			core.RunFor(1000),
		}}
		return k.NewThread(core.ThreadSpec{Name: name, SpaceID: 1, Program: p})
	}
	a := mk("a")
	b := mk("b")
	start(k, a)
	start(k, b)
	k.Run(0)
	if k.Stats.Handoffs != 0 {
		t.Fatalf("process-model kernel performed %d handoffs", k.Stats.Handoffs)
	}
	if k.Stats.ContextSwitches == 0 {
		t.Fatal("no context switches recorded")
	}
	// Dedicated stacks: one per thread.
	if k.Stacks.MaxInUse() < 2 {
		t.Fatalf("stack high water = %d, want >= 2", k.Stacks.MaxInUse())
	}
}

func TestPreemptionRoundRobin(t *testing.T) {
	k := core.NewKernel(core.Config{Flavor: core.MK40})
	k.Sched = sched.New(machine.Duration(1000 * 1000)) // 1 ms quantum
	mk := func(name string) *core.Thread {
		p := &script{actions: []core.Action{core.RunFor(16670 * 10)}} // 10 ms
		return k.NewThread(core.ThreadSpec{Name: name, SpaceID: 1, Program: p})
	}
	a := mk("a")
	b := mk("b")
	k.Setrun(a)
	k.Setrun(b)
	k.Run(0)
	if a.State() != core.StateHalted || b.State() != core.StateHalted {
		t.Fatalf("states a=%v b=%v", a.State(), b.State())
	}
	if k.Stats.BlocksWithDiscard[stats.BlockPreempt] == 0 {
		t.Fatal("no preemptions recorded")
	}
	// Preempted threads block with a continuation: runnable threads hold
	// no kernel stacks, so two CPU-bound threads need at most one stack
	// at a time (plus transient overlap during switches).
	if k.Stacks.MaxInUse() > 2 {
		t.Fatalf("stack high water = %d", k.Stacks.MaxInUse())
	}
}

func TestYield(t *testing.T) {
	k := newKernel(t, true, 1)
	mk := func(name string) *core.Thread {
		p := &script{actions: []core.Action{
			core.RunFor(100),
			{Kind: core.ActYield},
			core.RunFor(100),
		}}
		return k.NewThread(core.ThreadSpec{Name: name, SpaceID: 1, Program: p})
	}
	a := mk("a")
	b := mk("b")
	k.Setrun(a)
	k.Setrun(b)
	k.Run(0)
	if k.Stats.BlocksWithDiscard[stats.BlockThreadSwitch] == 0 {
		t.Fatal("no thread_switch blocks recorded")
	}
}

func TestYieldAloneKeepsProcessor(t *testing.T) {
	k := newKernel(t, true, 1)
	p := &script{actions: []core.Action{
		{Kind: core.ActYield},
		core.RunFor(100),
	}}
	th := k.NewThread(core.ThreadSpec{Name: "solo", SpaceID: 1, Program: p})
	k.Setrun(th)
	k.Run(0)
	if th.State() != core.StateHalted {
		t.Fatalf("state = %v", th.State())
	}
	// Yielding with an empty run queue is not a real control transfer.
	if k.Stats.BlocksWithDiscard[stats.BlockThreadSwitch] != 0 {
		t.Fatal("lone yield tallied as a block")
	}
}

func TestHaltFreesStack(t *testing.T) {
	k := newKernel(t, true, 1)
	p := &script{actions: []core.Action{core.RunFor(10)}}
	th := k.NewThread(core.ThreadSpec{Name: "short", SpaceID: 1, Program: p})
	k.Setrun(th)
	k.Run(0)
	if th.State() != core.StateHalted {
		t.Fatalf("state = %v", th.State())
	}
	if k.Stacks.InUse() != 0 {
		t.Fatalf("stacks leaked: %d in use", k.Stacks.InUse())
	}
	if k.LiveThreads() != 0 {
		t.Fatalf("LiveThreads = %d", k.LiveThreads())
	}
}

func TestWakeupBeforeBlockIsNotLost(t *testing.T) {
	k := newKernel(t, true, 1)
	var waiter *core.Thread
	prog := &script{actions: []core.Action{
		core.Syscall("wait", func(e *core.Env) {
			th := e.Cur()
			// Wake ourselves first (as a racing interrupt would), then
			// block: the block must consume the pending wakeup and keep
			// running.
			e.K.Setrun(th)
			e.K.SetState(th, core.StateWaiting)
			e.K.Block(e, stats.BlockInternal, sleepDone,
				func(e2 *core.Env) { e2.K.ThreadSyscallReturn(e2, 1) }, 64, "wait")
		}),
	}}
	waiter = k.NewThread(core.ThreadSpec{Name: "waiter", SpaceID: 1, Program: prog})
	k.Setrun(waiter)
	k.Run(0)
	if waiter.State() != core.StateHalted {
		t.Fatalf("waiter hung in state %v", waiter.State())
	}
	if len(prog.retvals) != 1 {
		t.Fatalf("retvals = %v", prog.retvals)
	}
}

func TestScratchSurvivesBlock(t *testing.T) {
	k := newKernel(t, true, 1)
	var observed uint32
	resumeCont := core.NewContinuation("scratch_resume", func(e *core.Env) {
		observed = e.Cur().Scratch.Word(0)
		e.K.ThreadSyscallReturn(e, 0)
	})
	prog := &script{actions: []core.Action{
		core.Syscall("stash", func(e *core.Env) {
			th := e.Cur()
			th.Scratch.PutWord(0, 0xabcd)
			e.K.SetState(th, core.StateWaiting)
			e.K.Clock.After(1000, "wake", func() { e.K.Setrun(th) })
			e.K.Block(e, stats.BlockInternal, resumeCont, nil, 0, "")
		}),
	}}
	th := k.NewThread(core.ThreadSpec{Name: "stasher", SpaceID: 1, Program: prog})
	k.Setrun(th)
	k.Run(0)
	if observed != 0xabcd {
		t.Fatalf("scratch word = %#x, want 0xabcd", observed)
	}
}

func TestThreadHandoffAndRecognition(t *testing.T) {
	k := newKernel(t, true, 1)
	recvCont := core.NewContinuation("recv_continue", func(e *core.Env) {
		e.K.ThreadSyscallReturn(e, 7)
	})
	var recognized, handedOff bool

	var server *core.Thread
	serverProg := &script{actions: []core.Action{
		core.Syscall("serve", func(e *core.Env) {
			th := e.Cur()
			e.K.SetState(th, core.StateWaiting)
			e.K.Block(e, stats.BlockReceive, recvCont, nil, 0, "")
		}),
		core.RunFor(10),
	}}
	server = k.NewThread(core.ThreadSpec{Name: "server", SpaceID: 2, Program: serverProg})

	clientProg := &script{actions: []core.Action{
		core.RunFor(100), // let the server block first
		core.Syscall("send", func(e *core.Env) {
			th := e.Cur()
			if !server.BlockedWith(recvCont) {
				t.Errorf("server not blocked with recv_continue: cont=%v state=%v",
					server.Cont, server.State())
			}
			e.K.SetState(th, core.StateWaiting)
			e.K.Clock.After(1000, "client-wake", func() { e.K.Setrun(th) })
			e.K.ThreadHandoff(e, stats.BlockReceive, sleepDone, server)
			handedOff = true
			// Now running as the server, inside the client's still-live
			// call context: recognize the server's continuation.
			if e.Cur() != server {
				t.Error("not running as server after handoff")
			}
			if e.K.Recognize(e, recvCont) {
				recognized = true
				e.K.ThreadSyscallReturn(e, 7)
				return
			}
			e.K.CallContinuation(e, server.Cont)
		}),
	}}
	client := k.NewThread(core.ThreadSpec{Name: "client", SpaceID: 1, Program: clientProg})
	k.Setrun(server)
	k.Setrun(client)
	k.Run(0)

	if !handedOff || !recognized {
		t.Fatalf("handedOff=%v recognized=%v", handedOff, recognized)
	}
	if k.Stats.Recognitions == 0 || k.Stats.Handoffs == 0 {
		t.Fatalf("stats: %+v", k.Stats)
	}
	if serverProg.retvals[0] != 7 {
		t.Fatalf("server retvals = %v", serverProg.retvals)
	}
	if client.State() != core.StateHalted || server.State() != core.StateHalted {
		t.Fatalf("client=%v server=%v", client.State(), server.State())
	}
}

func TestRecognizeWrongContinuation(t *testing.T) {
	k := newKernel(t, true, 1)
	other := core.NewContinuation("other", func(e *core.Env) {
		e.K.ThreadSyscallReturn(e, 9)
	})
	var sawFalse bool

	var server *core.Thread
	serverProg := &script{actions: []core.Action{
		core.Syscall("serve", func(e *core.Env) {
			th := e.Cur()
			e.K.SetState(th, core.StateWaiting)
			e.K.Block(e, stats.BlockReceive, other, nil, 0, "")
		}),
	}}
	server = k.NewThread(core.ThreadSpec{Name: "server", SpaceID: 2, Program: serverProg})

	expect := core.NewContinuation("expected", func(e *core.Env) {
		e.K.ThreadSyscallReturn(e, 0)
	})
	clientProg := &script{actions: []core.Action{
		core.RunFor(100),
		core.Syscall("send", func(e *core.Env) {
			th := e.Cur()
			e.K.SetState(th, core.StateWaiting)
			e.K.Clock.After(1000, "client-wake", func() { e.K.Setrun(th) })
			e.K.ThreadHandoff(e, stats.BlockReceive, sleepDone, server)
			if e.K.Recognize(e, expect) {
				t.Error("recognized the wrong continuation")
			}
			sawFalse = true
			e.K.CallContinuation(e, e.Cur().Cont)
		}),
	}}
	client := k.NewThread(core.ThreadSpec{Name: "client", SpaceID: 1, Program: clientProg})
	k.Setrun(server)
	k.Setrun(client)
	k.Run(0)
	if !sawFalse {
		t.Fatal("recognition branch never ran")
	}
	if serverProg.retvals[0] != 9 {
		t.Fatalf("server resumed wrongly: %v", serverProg.retvals)
	}
	if client.State() != core.StateHalted || server.State() != core.StateHalted {
		t.Fatalf("client=%v server=%v", client.State(), server.State())
	}
}

func TestMultiprocessorRunsAllThreads(t *testing.T) {
	k := newKernel(t, true, 4)
	var threads []*core.Thread
	for i := 0; i < 8; i++ {
		p := &script{actions: []core.Action{
			core.RunFor(1000),
			sleepSyscall(10 * 1000),
			core.RunFor(1000),
		}}
		th := k.NewThread(core.ThreadSpec{Name: "worker", SpaceID: i + 1, Program: p})
		threads = append(threads, th)
		k.Setrun(th)
	}
	k.Run(0)
	for _, th := range threads {
		if th.State() != core.StateHalted {
			t.Fatalf("%v state = %v", th, th.State())
		}
	}
}

func TestKernelEntriesCharged(t *testing.T) {
	k := newKernel(t, true, 1)
	prog := &script{actions: []core.Action{
		core.Syscall("nop", func(e *core.Env) { e.K.ThreadSyscallReturn(e, 5) }),
	}}
	th := k.NewThread(core.ThreadSpec{Name: "u", SpaceID: 1, Program: prog})
	k.Setrun(th)
	before := k.Acct.Total()
	k.Run(0)
	after := k.Acct.Total()
	if after.Instrs <= before.Instrs {
		t.Fatal("no kernel cost charged for a syscall")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (machine.Time, uint64, machine.Cost) {
		k := newKernel(t, true, 2)
		for i := 0; i < 4; i++ {
			p := &script{actions: []core.Action{
				core.RunFor(500),
				sleepSyscall(machine.Duration(1000 * (i + 1))),
				core.RunFor(500),
			}}
			k.Setrun(k.NewThread(core.ThreadSpec{Name: "w", SpaceID: i + 1, Program: p}))
		}
		steps := k.Run(0)
		return k.Clock.Now(), steps, k.Acct.Total()
	}
	t1, s1, c1 := run()
	t2, s2, c2 := run()
	if t1 != t2 || s1 != s2 || c1 != c2 {
		t.Fatalf("nondeterministic: (%v,%d,%v) vs (%v,%d,%v)", t1, s1, c1, t2, s2, c2)
	}
}

func TestBlockWithoutWaitStatePanics(t *testing.T) {
	k := newKernel(t, true, 1)
	prog := &script{actions: []core.Action{
		core.Syscall("bad", func(e *core.Env) {
			// Forgetting to set the wait state is a kernel bug.
			e.K.Block(e, stats.BlockInternal, sleepDone, nil, 0, "")
		}),
	}}
	th := k.NewThread(core.ThreadSpec{Name: "u", SpaceID: 1, Program: prog})
	k.Setrun(th)
	defer func() {
		if recover() == nil {
			t.Fatal("Block from running state did not panic")
		}
	}()
	k.Run(0)
}

func TestBlockNeitherStylePanics(t *testing.T) {
	k := newKernel(t, false, 1)
	prog := &script{actions: []core.Action{
		core.Syscall("bad", func(e *core.Env) {
			th := e.Cur()
			e.K.SetState(th, core.StateWaiting)
			// Neither a continuation nor a resume step: nowhere to
			// resume, the one impossible block.
			e.K.Block(e, stats.BlockInternal, nil, nil, 0, "")
		}),
	}}
	th := k.NewThread(core.ThreadSpec{Name: "u", SpaceID: 1, Program: prog})
	k.Setrun(th)
	defer func() {
		if recover() == nil {
			t.Fatal("impossible block did not panic")
		}
	}()
	k.Run(0)
}

// TestProcessModelBlockResumesAtContinuationBody pins Block's nil-resume
// rule: on a process-model kernel a block with a continuation and no
// resume step keeps the thread's stack, preserves one frame on it,
// counts a no-discard block and a context switch, and resumes at the
// continuation's own body on that same stack.
func TestProcessModelBlockResumesAtContinuationBody(t *testing.T) {
	k := newKernel(t, false, 1)
	var held, ranOn *machine.Stack
	body := core.NewContinuation("probe_done", func(e *core.Env) {
		ranOn = e.Cur().Stack
		e.K.ThreadSyscallReturn(e, 7)
	})
	prog := &script{actions: []core.Action{
		core.Syscall("probe", func(e *core.Env) {
			th := e.Cur()
			e.K.SetState(th, core.StateWaiting)
			e.K.Clock.After(10*1000*1000, "probe-wakeup", func() { e.K.Setrun(th) })
			held = th.Stack
			e.K.Block(e, stats.BlockInternal, body, nil, 80, "probe-wait")
		}),
	}}
	sleeper := k.NewThread(core.ThreadSpec{Name: "sleeper", SpaceID: 1, Program: prog})
	other := k.NewThread(core.ThreadSpec{Name: "other", SpaceID: 2,
		Program: &script{actions: []core.Action{core.RunFor(1000)}}})
	k.Setrun(sleeper)
	k.Setrun(other)

	for i := 0; i < 100 && sleeper.State() != core.StateWaiting; i++ {
		if !k.Step() {
			break
		}
	}
	if sleeper.State() != core.StateWaiting {
		t.Fatalf("sleeper state = %v", sleeper.State())
	}
	if sleeper.Stack == nil || sleeper.Stack != held || sleeper.Cont != nil {
		t.Fatalf("sleeper blocked with stack %v (held %v), continuation %v", sleeper.Stack, held, sleeper.Cont)
	}
	if n, used := sleeper.Stack.FrameCount(), sleeper.Stack.Used(); n != 1 || used != 80 {
		t.Fatalf("retained stack holds %d frame(s), %d bytes; want 1 frame of 80 bytes", n, used)
	}
	if nd, d, cs := k.Stats.TotalNoDiscards(), k.Stats.TotalDiscards(), k.Stats.ContextSwitches; nd != 1 || d != 0 || cs != 1 {
		t.Fatalf("no-discard blocks %d, discards %d, context switches %d; want 1, 0, 1", nd, d, cs)
	}

	k.Run(0)
	if sleeper.State() != core.StateHalted {
		t.Fatalf("sleeper did not finish: %v", sleeper.State())
	}
	if ranOn != held {
		t.Fatalf("continuation body ran on stack %v, want the retained %v", ranOn, held)
	}
	if len(prog.retvals) != 1 || prog.retvals[0] != 7 {
		t.Fatalf("retvals = %v, want [7] from the continuation body", prog.retvals)
	}
	if k.Stats.ContinuationCalls != 0 {
		t.Fatalf("process-model resume made %d continuation calls", k.Stats.ContinuationCalls)
	}
}

func TestRunDeadline(t *testing.T) {
	k := newKernel(t, true, 1)
	prog := &script{actions: []core.Action{core.RunFor(16670 * 1000)}} // ~1 s
	th := k.NewThread(core.ThreadSpec{Name: "u", SpaceID: 1, Program: prog})
	k.Setrun(th)
	k.Run(machine.Time(1000)) // 1 us deadline
	if th.State() == core.StateHalted {
		t.Fatal("deadline did not stop the run")
	}
}

func TestRunningThreadAlwaysHasStack(t *testing.T) {
	k := newKernel(t, true, 2)
	check := func(e *core.Env) {
		th := e.Cur()
		if th.Stack == nil {
			t.Errorf("%v running without a stack", th)
		}
		e.K.ThreadSyscallReturn(e, 1)
	}
	for i := 0; i < 4; i++ {
		p := &script{actions: []core.Action{
			core.Syscall("check", check),
			sleepSyscall(1000),
			core.Syscall("check", check),
		}}
		k.Setrun(k.NewThread(core.ThreadSpec{Name: "w", SpaceID: 1, Program: p}))
	}
	k.Run(0)
}

func TestSyscallReturnOverrideDiscount(t *testing.T) {
	// The overriding-return extension charges the exit minus the skipped
	// register restore, flooring at zero even for absurd discounts.
	run := func(discount machine.Cost) machine.Cost {
		k := newKernel(t, true, 1)
		prog := &script{actions: []core.Action{
			core.Syscall("override", func(e *core.Env) {
				e.K.ThreadSyscallReturnOverride(e, 7, discount)
			}),
		}}
		th := k.NewThread(core.ThreadSpec{Name: "u", SpaceID: 1, Program: prog})
		k.Setrun(th)
		k.Run(0)
		if th.State() != core.StateHalted || prog.retvals[0] != 7 {
			t.Fatalf("state=%v rets=%v", th.State(), prog.retvals)
		}
		return k.Acct.Total()
	}
	small := run(machine.Cost{Instrs: 10, Loads: 5})
	huge := run(machine.Cost{Instrs: 1 << 40, Loads: 1 << 40, Stores: 1 << 40})
	if huge.Instrs >= small.Instrs {
		t.Fatalf("bigger discount should charge less: %v vs %v", huge, small)
	}
}

func TestOverrideOutsideSyscallPanics(t *testing.T) {
	k := newKernel(t, true, 1)
	prog := &script{actions: []core.Action{
		{Kind: core.ActException, Code: 1},
	}}
	k.HandleException = func(e *core.Env, code int) {
		e.K.ThreadSyscallReturnOverride(e, 0, machine.Cost{})
	}
	th := k.NewThread(core.ThreadSpec{Name: "u", SpaceID: 1, Program: prog})
	k.Setrun(th)
	defer func() {
		if recover() == nil {
			t.Fatal("override outside a syscall did not panic")
		}
	}()
	k.Run(0)
}

func TestValidateCleanAfterEveryScenario(t *testing.T) {
	// Re-run the representative scenarios and validate at quiescence.
	k := newKernel(t, true, 2)
	for i := 0; i < 6; i++ {
		p := &script{actions: []core.Action{
			core.RunFor(500),
			sleepSyscall(machine.Duration(1000 * (i + 1))),
			{Kind: core.ActYield},
			core.RunFor(500),
		}}
		k.Setrun(k.NewThread(core.ThreadSpec{Name: "w", SpaceID: i + 1, Program: p}))
	}
	k.Run(0)
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateFlagsScratchOverflow pins the paper's 28-byte accounting
// in the invariant sweep: a thread holding all seven scratch words and
// the reference, which fills one of them, has overflowed its area.
func TestValidateFlagsScratchOverflow(t *testing.T) {
	k := newKernel(t, true, 1)
	th := k.NewThread(core.ThreadSpec{Name: "full", SpaceID: 1, Program: &script{}})
	for i := 0; i < core.ScratchSlots; i++ {
		th.Scratch.PutWord(i, 1)
	}
	if err := k.Validate(); err != nil {
		t.Fatalf("Validate with seven words = %v", err)
	}
	th.Scratch.SetRef(th)
	want := th.String() + " scratch overflow"
	if err := k.Validate(); err == nil || err.Error() != want {
		t.Fatalf("Validate = %v; want %q", err, want)
	}
}
