package exc_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exc"
	"repro/internal/ipc"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/stats"
)

func newExcKernel(t *testing.T, flavor core.Flavor) (*core.Kernel, *ipc.IPC, *exc.Exc) {
	t.Helper()
	k := core.NewKernel(core.Config{
		Model:  machine.NewCostModel(machine.ArchDS3100),
		Flavor: flavor,
	})
	k.Sched = sched.New(0)
	x := ipc.New(k)
	ex := exc.New(k, x)
	return k, x, ex
}

// excServer receives exception requests and replies to each, forever.
type excServer struct {
	x       *ipc.IPC
	port    *ipc.Port
	handled int
	codes   []int
	pending *ipc.Message
}

func (s *excServer) Next(e *core.Env, t *core.Thread) core.Action {
	if m := s.x.Received(t); m != nil {
		s.pending = m
	}
	if s.pending == nil {
		return core.Syscall("mach_msg(receive)", func(e *core.Env) {
			s.x.MachMsg(e, ipc.MsgOptions{ReceiveFrom: s.port})
		})
	}
	req := s.pending
	s.pending = nil
	info := req.Body.(*exc.ExcInfo)
	s.handled++
	s.codes = append(s.codes, info.Code)
	return core.Syscall("mach_msg(reply+receive)", func(e *core.Env) {
		reply := s.x.NewMessage(ipc.ExcOpRaise+100, ipc.HeaderBytes, nil, nil)
		s.x.MachMsg(e, ipc.MsgOptions{
			Send:        reply,
			SendTo:      req.Reply,
			ReceiveFrom: s.port,
		})
	})
}

// faulterProg raises count exceptions, then exits.
type faulterProg struct {
	count int
	done  int
}

func (p *faulterProg) Next(e *core.Env, t *core.Thread) core.Action {
	if p.done >= p.count {
		return core.Exit()
	}
	p.done++
	return core.Action{Kind: core.ActException, Code: p.done}
}

func runExc(t *testing.T, flavor core.Flavor, raises int) (*core.Kernel, *ipc.IPC, *exc.Exc, *excServer, *core.Thread) {
	t.Helper()
	k, x, ex := newExcKernel(t, flavor)
	port := x.NewPort("exc-server")
	srv := &excServer{x: x, port: port}
	// The exception server runs in the same address space as the
	// faulting thread, as in the paper's benchmark.
	st := k.NewThread(core.ThreadSpec{Name: core.NameOf("exc-server"), SpaceID: 1, Program: srv})
	fp := &faulterProg{count: raises}
	ft := k.NewThread(core.ThreadSpec{Name: core.NameOf("faulter"), SpaceID: 1, Program: fp})
	ex.SetExceptionPort(ft, port)
	k.Setrun(st)
	k.Setrun(ft)
	k.Run(0)
	if ft.State() != core.StateHalted {
		t.Fatalf("faulter did not finish: %v", ft.State())
	}
	return k, x, ex, srv, ft
}

func TestExceptionRoundTripMK40(t *testing.T) {
	k, _, ex, srv, _ := runExc(t, core.MK40, 10)
	if srv.handled != 10 {
		t.Fatalf("handled = %d", srv.handled)
	}
	for i, c := range srv.codes {
		if c != i+1 {
			t.Fatalf("codes out of order: %v", srv.codes)
		}
	}
	// After the first exchange the server is parked in mach_msg_continue,
	// so raises take the deferred-message handoff path.
	if ex.FastRaises < 9 {
		t.Fatalf("FastRaises = %d", ex.FastRaises)
	}
	if ex.FastReplies < 9 {
		t.Fatalf("FastReplies = %d", ex.FastReplies)
	}
	if k.Stats.BlocksWithDiscard[stats.BlockException] != 10 {
		t.Fatalf("exception blocks = %d", k.Stats.BlocksWithDiscard[stats.BlockException])
	}
}

func TestExceptionSlowPathProcessModel(t *testing.T) {
	for _, flavor := range []core.Flavor{core.MK32, core.Mach25} {
		k, _, ex, srv, _ := runExc(t, flavor, 5)
		if srv.handled != 5 {
			t.Fatalf("%v: handled = %d", flavor, srv.handled)
		}
		if ex.FastRaises != 0 || ex.FastReplies != 0 {
			t.Fatalf("%v took the fast path", flavor)
		}
		if ex.SlowRaises != 5 {
			t.Fatalf("%v: SlowRaises = %d", flavor, ex.SlowRaises)
		}
		if k.Stats.BlocksWithoutDiscard[stats.BlockException] != 5 {
			t.Fatalf("%v: exception PM blocks = %d", flavor,
				k.Stats.BlocksWithoutDiscard[stats.BlockException])
		}
	}
}

func TestExceptionLatencyShape(t *testing.T) {
	// Table 3's exception row: MK40 is 2-3x faster than both
	// process-model kernels, and MK32 is the slowest.
	perExc := func(flavor core.Flavor) float64 {
		k, _, _, _, _ := runExc(t, flavor, 50)
		return k.Clock.Now().Micros() / 50
	}
	mk40 := perExc(core.MK40)
	mk32 := perExc(core.MK32)
	m25 := perExc(core.Mach25)
	if !(mk40 < m25 && m25 < mk32) {
		t.Fatalf("exception ordering violated: MK40=%.1f Mach2.5=%.1f MK32=%.1f", mk40, m25, mk32)
	}
	if ratio := mk32 / mk40; ratio < 2 || ratio > 4 {
		t.Fatalf("MK32/MK40 exception ratio = %.2f, want 2-3x", ratio)
	}
}

func TestExceptionFaulterStacklessWhileServerWorks(t *testing.T) {
	// Freeze the run at the moment the server is handling: the faulting
	// thread must be blocked with exception_return and no stack.
	k, x, ex := newExcKernel(t, core.MK40)
	port := x.NewPort("exc-server")
	srv := &excServer{x: x, port: port}
	st := k.NewThread(core.ThreadSpec{Name: core.NameOf("exc-server"), SpaceID: 1, Program: srv})
	ft := k.NewThread(core.ThreadSpec{Name: core.NameOf("faulter"), SpaceID: 1, Program: &faulterProg{count: 1}})
	ex.SetExceptionPort(ft, port)
	k.Setrun(st)
	k.Setrun(ft)

	sawBlockedFaulter := false
	for i := 0; i < 10000; i++ {
		if ft.BlockedWith(ex.ContExcReturn) {
			sawBlockedFaulter = true
			if ft.HasStack() {
				t.Fatal("faulter holds a stack while awaiting its exception reply")
			}
		}
		if !k.Step() {
			break
		}
	}
	if !sawBlockedFaulter {
		t.Fatal("never observed the faulter blocked on its exception reply")
	}
	if ft.State() != core.StateHalted {
		t.Fatalf("faulter state = %v", ft.State())
	}
}

func TestExceptionWithoutPortPanics(t *testing.T) {
	k, _, _ := newExcKernel(t, core.MK40)
	ft := k.NewThread(core.ThreadSpec{Name: core.NameOf("orphan"), SpaceID: 1, Program: &faulterProg{count: 1}})
	k.Setrun(ft)
	defer func() {
		if recover() == nil {
			t.Fatal("exception without a port did not panic")
		}
	}()
	k.Run(0)
}

func TestSlowRaiseWhenServerBusy(t *testing.T) {
	// Two faulters, one server, two processors: while the server handles
	// the first exception, the second faulter (running concurrently)
	// finds no waiter and takes the message path even in MK40.
	k := core.NewKernel(core.Config{
		Model:      machine.NewCostModel(machine.ArchDS3100),
		Flavor:     core.MK40,
		Processors: 2,
	})
	k.Sched = sched.New(0)
	x := ipc.New(k)
	ex := exc.New(k, x)
	port := x.NewPort("exc-server")
	srv := &excServer{x: x, port: port}
	st := k.NewThread(core.ThreadSpec{Name: core.NameOf("exc-server"), SpaceID: 1, Program: srv})
	f1 := k.NewThread(core.ThreadSpec{Name: core.NameOf("f1"), SpaceID: 1, Program: &faulterProg{count: 3}})
	f2 := k.NewThread(core.ThreadSpec{Name: core.NameOf("f2"), SpaceID: 1, Program: &faulterProg{count: 3}})
	ex.SetExceptionPort(f1, port)
	ex.SetExceptionPort(f2, port)
	k.Setrun(st)
	k.Setrun(f1)
	k.Setrun(f2)
	k.Run(0)
	if f1.State() != core.StateHalted || f2.State() != core.StateHalted {
		t.Fatalf("faulters did not finish: %v %v", f1.State(), f2.State())
	}
	if srv.handled != 6 {
		t.Fatalf("handled = %d", srv.handled)
	}
	if ex.SlowRaises == 0 {
		t.Fatal("expected at least one slow raise under contention")
	}
}
