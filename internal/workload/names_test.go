package workload

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/exc"
	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/svc"
)

// TestNamesMatchTheirOldFormats checks, under each kernel, that every
// site naming a family of threads or ports by a shared base and an index
// builds the name its format string used to print: core's default
// thread-N, the task/name join, mtload's sessions and reply ports, exc's
// per-thread reply ports, and the kv, storm and svcgraph callers (whose
// reply ports svc's TestCallerReplyPortNames covers).
func TestNamesMatchTheirOldFormats(t *testing.T) {
	tenants := MakeTenants(4, 1)
	indexes := []int{0, 17, 3999}
	sites := []struct {
		name  string
		names func(t *testing.T, sys *kern.System) (got, want []string)
	}{
		{"thread-N", func(t *testing.T, sys *kern.System) (got, want []string) {
			for range 3 {
				th := sys.K.NewThread(core.ThreadSpec{})
				got = append(got, th.Name().String())
				want = append(want, fmt.Sprintf("thread-%d", th.ID))
			}
			return got, want
		}},
		{"task/name", func(t *testing.T, sys *kern.System) (got, want []string) {
			task := sys.NewTask("emacs")
			got = append(got, task.NewThread("main", nil, 10).Name().String())
			want = append(want, "emacs/main")
			for _, i := range indexes {
				got = append(got, task.NewNamedThread(core.IndexedName("srv-", i), nil, 10).Name().String())
				want = append(want, fmt.Sprintf("%s/%s", "emacs", fmt.Sprintf("srv-%d", i)))
			}
			return got, want
		}},
		{"mtload sessions", func(t *testing.T, sys *kern.System) (got, want []string) {
			threads, _ := mtSessionNames(tenants)
			ct := sys.NewTask("tenants")
			for ti, tn := range tenants {
				for _, j := range indexes {
					got = append(got, ct.NewNamedThread(threads[ti].Index(j), nil, 10).Name().String())
					want = append(want, fmt.Sprintf("%s/%s", "tenants", fmt.Sprintf("%s-%d", tn.Name, j)))
				}
			}
			return got, want
		}},
		{"mtload reply ports", func(t *testing.T, sys *kern.System) (got, want []string) {
			_, replies := mtSessionNames(tenants)
			for ti := range tenants {
				for _, j := range indexes {
					got = append(got, sys.IPC.NewNamedPort(replies[ti].Index(j)).Name().String())
					want = append(want, fmt.Sprintf("rp-%d-%d", ti, j))
				}
			}
			return got, want
		}},
		{"exc-reply-N", func(t *testing.T, sys *kern.System) (got, want []string) {
			task := sys.NewTask("dos")
			excPort := sys.IPC.NewPort("exc")
			srv := &replyNamer{x: sys.IPC, port: excPort}
			sys.Start(task.NewThread("handler", srv, 20))
			for i := range 2 {
				raised := false
				th := task.NewNamedThread(core.IndexedName("faulter-", i), core.ProgramFunc(
					func(e *core.Env, th *core.Thread) core.Action {
						if raised {
							return core.Exit()
						}
						raised = true
						return core.Action{Kind: core.ActException, Code: 1}
					}), 10)
				sys.Exc.SetExceptionPort(th, excPort)
				sys.Start(th)
				want = append(want, fmt.Sprintf("exc-reply-%d", th.ID))
			}
			sys.Run(machine.Time(1e9))
			return srv.replies, want
		}},
		{"kv callers", func(t *testing.T, sys *kern.System) (got, want []string) {
			var clis []*svc.Caller
			for _, tag := range []string{"kv-cli", "kv-cli-b"} {
				for _, j := range indexes {
					clis = append(clis, &svc.Caller{Name: core.IndexedName(tag, j)})
					want = append(want, fmt.Sprintf("kv-client/%s", fmt.Sprintf("%s%d", tag, j)))
				}
			}
			startCallers(sys, "kv-clients", "kv-client", clis)
			return taskThreadNames(sys, "kv-client"), want
		}},
		{"storm callers", func(t *testing.T, sys *kern.System) (got, want []string) {
			ct := sys.NewTask("storm")
			for _, j := range indexes {
				got = append(got, ct.NewNamedThread(core.IndexedName("storm", j), nil, 10).Name().String())
				want = append(want, fmt.Sprintf("storm/%s", fmt.Sprintf("storm%d", j)))
			}
			return got, want
		}},
		{"svcgraph callers", func(t *testing.T, sys *kern.System) (got, want []string) {
			var clis []*svc.Caller
			for _, j := range indexes {
				clis = append(clis, &svc.Caller{Name: core.IndexedName("fe", j)})
				want = append(want, fmt.Sprintf("frontend/%s", fmt.Sprintf("fe%d", j)))
			}
			startCallers(sys, "frontends", "frontend", clis)
			return taskThreadNames(sys, "frontend"), want
		}},
	}
	for _, f := range []kern.Flavor{kern.MK40, kern.MK32, kern.Mach25} {
		for _, site := range sites {
			t.Run(f.FlagName()+"/"+site.name, func(t *testing.T) {
				sys := kern.New(kern.Config{Flavor: f, Arch: machine.ArchDS3100})
				got, want := site.names(t, sys)
				if len(want) == 0 || !slices.Equal(got, want) {
					t.Fatalf("names %q, want %q", got, want)
				}
			})
		}
	}
}

// taskThreadNames lists the names of the threads of sys's task named
// task, in creation order.
func taskThreadNames(sys *kern.System, task string) []string {
	var names []string
	for _, tk := range sys.Tasks() {
		if tk.Name == task {
			for _, th := range tk.Threads {
				names = append(names, th.Name().String())
			}
		}
	}
	return names
}

// replyNamer is an exception server that records the name of each
// request's reply port and answers it.
type replyNamer struct {
	x       *ipc.IPC
	port    *ipc.Port
	replies []string
}

func (s *replyNamer) Next(e *core.Env, t *core.Thread) core.Action {
	req := s.x.Received(t)
	if req == nil {
		return core.Syscall("mach_msg(receive)", func(e *core.Env) {
			s.x.MachMsg(e, ipc.MsgOptions{ReceiveFrom: s.port})
		})
	}
	if _, ok := req.Body.(*exc.ExcInfo); !ok {
		panic("replyNamer: not an exception request")
	}
	s.replies = append(s.replies, req.Reply.Name().String())
	return core.Syscall("mach_msg(reply+receive)", func(e *core.Env) {
		s.x.MachMsg(e, ipc.MsgOptions{
			Send:        s.x.NewMessage(ipc.ExcOpRaise+100, ipc.HeaderBytes, nil, nil),
			SendTo:      req.Reply,
			ReceiveFrom: s.port,
		})
	})
}

// TestSessionNamingAllocs bounds what naming a session costs at boot:
// creating an mtload session's thread and reply port, each named from
// its tenant's shared base and the session's index, allocates the two
// records and no string.
func TestSessionNamingAllocs(t *testing.T) {
	sys := kern.New(kern.Config{Flavor: kern.MK40, Arch: machine.ArchDS3100})
	threads, replies := mtSessionNames(MakeTenants(1, 1))
	ct := sys.NewTask("tenants")
	j := 1000
	allocs := testing.AllocsPerRun(2000, func() {
		ct.NewNamedThread(threads[0].Index(j), nil, 10)
		sys.IPC.NewNamedPort(replies[0].Index(j))
		j++
	})
	// Two records, plus the registries' amortized growth.
	if allocs > 2.2 {
		t.Fatalf("a session's thread and reply port cost %.2f allocations, want at most 2.2", allocs)
	}
}
