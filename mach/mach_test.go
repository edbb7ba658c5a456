package mach_test

import (
	"strings"
	"testing"

	"repro/mach"
)

func TestQuickstartRPC(t *testing.T) {
	sys := mach.New(mach.WithKernel(mach.MK40), mach.WithoutCallout())
	serverTask := sys.NewTask("server")
	clientTask := sys.NewTask("client")
	svc := sys.NewPort("service")
	reply := sys.NewPort("reply")

	serverTask.Spawn("srv", mach.EchoServer(sys, svc), 20)

	var answers []any
	done := 0
	clientTask.Spawn("cli", mach.ProgramFunc(func(e *mach.Env, th *mach.Thread) mach.Action {
		if m := sys.Received(th); m != nil {
			answers = append(answers, m.Body)
		}
		if done >= 5 {
			return mach.Exit()
		}
		done++
		return mach.RPC(sys, svc, reply, 7, 64, done)
	}), 10)

	sys.Run()
	if len(answers) != 5 {
		t.Fatalf("answers = %v", answers)
	}
	for i, a := range answers {
		if a.(int) != i+1 {
			t.Fatalf("answer %d = %v", i, a)
		}
	}
	st := sys.Stats()
	if st.Handoffs == 0 || st.Recognitions == 0 {
		t.Fatalf("fast path unused: %v", st)
	}
	if st.StacksMax > 2 {
		t.Fatalf("stack high water = %d", st.StacksMax)
	}
}

func TestFlavorOptions(t *testing.T) {
	for _, k := range []mach.Kernel{mach.MK40, mach.MK32, mach.Mach25} {
		sys := mach.New(mach.WithKernel(k), mach.WithMachine(mach.Toshiba5200))
		if sys.Kern().Flavor != k {
			t.Fatalf("flavor = %v", sys.Kern().Flavor)
		}
	}
}

func TestStatsString(t *testing.T) {
	sys := mach.New(mach.WithoutCallout())
	task := sys.NewTask("t")
	task.Spawn("noop", mach.ProgramFunc(func(e *mach.Env, th *mach.Thread) mach.Action {
		return mach.Exit()
	}), 10)
	sys.Run()
	if s := sys.Stats().String(); !strings.Contains(s, "blocks=") {
		t.Fatalf("Stats.String = %q", s)
	}
}

func TestFaultAndTouch(t *testing.T) {
	sys := mach.New(mach.WithMemoryFrames(64), mach.WithoutCallout())
	task := sys.NewTask("t")
	sys.Touch(task, 0x4000)
	step := 0
	th := task.Spawn("faulter", mach.ProgramFunc(func(e *mach.Env, th *mach.Thread) mach.Action {
		step++
		switch step {
		case 1:
			return mach.Fault(0x4000) // resident: fast
		case 2:
			return mach.Fault(0x9000) // disk fault
		default:
			return mach.Exit()
		}
	}), 10)
	sys.Run()
	if th.State().String() != "halted" {
		t.Fatalf("state = %v", th.State())
	}
	if sys.Kern().VM.FastFaults != 1 || sys.Kern().VM.DiskFaults != 1 {
		t.Fatalf("faults: fast=%d disk=%d", sys.Kern().VM.FastFaults, sys.Kern().VM.DiskFaults)
	}
}

func TestExceptionRouting(t *testing.T) {
	sys := mach.New(mach.WithoutCallout())
	task := sys.NewTask("emu")
	port := sys.NewPort("exc")

	var handled int
	var pending *mach.Message
	task.Spawn("handler", mach.ProgramFunc(func(e *mach.Env, th *mach.Thread) mach.Action {
		if m := sys.Received(th); m != nil {
			pending = m
		}
		if pending == nil {
			return mach.Syscall("recv", func(e *mach.Env) {
				sys.MachMsg(e, mach.MsgOptions{ReceiveFrom: port})
			})
		}
		req := pending
		pending = nil
		if _, ok := req.Body.(mach.ExcInfo); !ok {
			t.Errorf("body = %T", req.Body)
		}
		handled++
		return mach.Syscall("reply", func(e *mach.Env) {
			reply := sys.NewMessage(1, 24, nil, nil)
			sys.MachMsg(e, mach.MsgOptions{Send: reply, SendTo: req.Reply, ReceiveFrom: port})
		})
	}), 20)

	n := 0
	faulter := task.SpawnSuspended("dos", mach.ProgramFunc(func(e *mach.Env, th *mach.Thread) mach.Action {
		if n >= 3 {
			return mach.Exit()
		}
		n++
		return mach.RaiseException(n)
	}), 10)
	sys.SetExceptionPort(faulter, port)
	sys.Resume(faulter)

	sys.Run()
	if handled != 3 {
		t.Fatalf("handled = %d", handled)
	}
}

func TestTraceCapture(t *testing.T) {
	sys := mach.New(mach.WithoutCallout())
	task := sys.NewTask("t")
	sys.EnableTrace()
	task.Spawn("p", mach.ProgramFunc(func(e *mach.Env, th *mach.Thread) mach.Action {
		return mach.Exit()
	}), 10)
	sys.Run()
	if sys.TraceString() == "" {
		t.Fatal("no trace captured")
	}
	sys.ResetTrace()
	if sys.TraceString() != "" {
		t.Fatal("trace not reset")
	}
}

func TestRunForAdvancesClock(t *testing.T) {
	sys := mach.New()
	start := sys.Now()
	end := sys.RunFor(mach.Duration(5_000_000))
	if end < start+5_000_000 {
		t.Fatalf("clock: %v -> %v", start, end)
	}
}

func TestBlockBreakdown(t *testing.T) {
	sys := mach.New(mach.WithoutCallout())
	serverTask := sys.NewTask("server")
	svc := sys.NewPort("service")
	serverTask.Spawn("srv", mach.EchoServer(sys, svc), 20)
	sys.Run()
	rows, _ := sys.BlockBreakdown()
	if rows["message receive"] == 0 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestYieldAction(t *testing.T) {
	sys := mach.New(mach.WithoutCallout())
	task := sys.NewTask("t")
	for i := 0; i < 2; i++ {
		n := 0
		task.Spawn("y", mach.ProgramFunc(func(e *mach.Env, th *mach.Thread) mach.Action {
			n++
			if n > 3 {
				return mach.Exit()
			}
			return mach.Yield()
		}), 10)
	}
	sys.Run()
	rows, _ := sys.BlockBreakdown()
	if rows["thread switch"] == 0 {
		t.Fatal("no thread_switch blocks")
	}
}
