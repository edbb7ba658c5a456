package kern_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dev"
	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/machine"
	"repro/internal/workload"
)

// handoffSettings are the kernel settings that must agree on what
// completes: MK40 with and without each continuation optimization, and
// the two process-model kernels, which never hand off.
var handoffSettings = []struct {
	name string
	cfg  kern.Config
}{
	{"MK40", kern.Config{Flavor: kern.MK40}},
	{"MK40/NoHandoff", kern.Config{Flavor: kern.MK40, NoHandoff: true}},
	{"MK40/NoRecognition", kern.Config{Flavor: kern.MK40, NoRecognition: true}},
	{"MK40/NoHandoff+NoRecognition", kern.Config{Flavor: kern.MK40, NoHandoff: true, NoRecognition: true}},
	{"MK32", kern.Config{Flavor: kern.MK32}},
	{"Mach 2.5", kern.Config{Flavor: kern.Mach25}},
}

// opLoop issues n copies of op one after another, counting each whose
// result ok accepts when the thread next runs in user space, then exits.
type opLoop struct {
	op     core.Action
	ok     func(t *core.Thread) bool
	n      int
	issued int
	done   int
}

func (p *opLoop) Next(e *core.Env, t *core.Thread) core.Action {
	if p.issued > 0 && p.ok(t) {
		p.done++
	}
	if p.issued == p.n {
		return core.Exit()
	}
	p.issued++
	return p.op
}

// startClient starts prog on a client thread of sys.
func startClient(sys *kern.System, prog *opLoop) *core.Thread {
	th := sys.NewTask("client").NewThread("cli", prog, 10)
	sys.Start(th)
	return th
}

// rpcLoop is an opLoop of n RPCs to dest, each answered by an echo
// server on reply.
func rpcLoop(sys *kern.System, dest *ipc.Port, n int) *opLoop {
	reply := sys.IPC.NewPort("reply")
	return &opLoop{n: n,
		op: core.Syscall("rpc", func(e *core.Env) {
			sys.IPC.MachMsg(e, ipc.MsgOptions{
				Send:   sys.IPC.NewMessage(1, ipc.HeaderBytes, nil, reply),
				SendTo: dest, ReceiveFrom: reply,
			})
		}),
		ok: func(t *core.Thread) bool {
			m := sys.IPC.Received(t)
			defer sys.IPC.FreeMessage(m)
			return t.MD.RetVal == ipc.MsgSuccess && m != nil && m.OpID == 1|ipc.ReplyBit
		},
	}
}

// TestHandoffSitesAgreeAcrossKernels drives every site that asks core's
// handoff rule (Kernel.CanHandoffTo) whether a stack may pass to a
// waiting thread — ipc's send, the exception raise and reply, the
// io_done loop and netmsg delivery — under every kernel setting. The
// settings differ in cost only: each must complete every operation with
// a clean invariant sweep after every step, and leave no IPC or device
// state behind beyond the servers' own pending receives. Simulated time
// and the fast/slow counters may differ.
func TestHandoffSitesAgreeAcrossKernels(t *testing.T) {
	const n = 20
	scenarios := []struct {
		name     string
		machines int
		// setup installs the servers and starts the client program on
		// the first machine.
		setup func(ms []*kern.System) (*opLoop, *core.Thread)
		// fast counts the transfers that took the site's handoff; the
		// full MK40 must take it for every operation.
		fast func(ms []*kern.System) uint64
	}{
		{
			name: "null RPC", machines: 1,
			setup: func(ms []*kern.System) (*opLoop, *core.Thread) {
				sys := ms[0]
				port := sys.IPC.NewPort("echo")
				sys.Start(sys.NewTask("server").NewThread("srv", workload.NewEchoServer(sys, port), 20))
				prog := rpcLoop(sys, port, n)
				return prog, startClient(sys, prog)
			},
			fast: func(ms []*kern.System) uint64 { return ms[0].IPC.FastRPCs },
		},
		{
			name: "exception", machines: 1,
			setup: func(ms []*kern.System) (*opLoop, *core.Thread) {
				sys := ms[0]
				port := sys.IPC.NewPort("exc")
				sys.Start(sys.NewTask("handler").NewThread("exc", workload.NewExcServer(sys, port, 0), 20))
				// Returning to user space is the exception's completion.
				prog := &opLoop{n: n, op: core.Action{Kind: core.ActException, Code: 1},
					ok: func(*core.Thread) bool { return true }}
				th := startClient(sys, prog)
				sys.Exc.SetExceptionPort(th, port)
				return prog, th
			},
			fast: func(ms []*kern.System) uint64 { return min(ms[0].Exc.FastRaises, ms[0].Exc.FastReplies) },
		},
		{
			name: "device_read", machines: 1,
			setup: func(ms []*kern.System) (*opLoop, *core.Thread) {
				sys := ms[0]
				prog := &opLoop{n: n,
					op: core.Syscall("device_read", func(e *core.Env) {
						sys.Dev.DeviceRead(e, sys.Dev.Open(e, "disk"), 4096)
					}),
					ok: func(t *core.Thread) bool { return t.MD.RetVal == 4096 },
				}
				return prog, startClient(sys, prog)
			},
			fast: func(ms []*kern.System) uint64 { return ms[0].K.Stats.IoDoneRecognitions },
		},
		{
			name: "netmsg RPC", machines: 2,
			setup: func(ms []*kern.System) (*opLoop, *core.Thread) {
				a, b := ms[0], ms[1]
				dev.Connect(a.Net.NIC, b.Net.NIC, 0)
				port := b.IPC.NewPort("echo")
				b.Net.Export("echo", port)
				b.Start(b.NewTask("server").NewThread("srv", workload.NewEchoServer(b, port), 20))
				prog := rpcLoop(a, a.Net.ProxyFor("echo"), n)
				return prog, startClient(a, prog)
			},
			// The server's replies leave through a proxy, so every
			// recognition on its machine is a netmsg delivery's.
			fast: func(ms []*kern.System) uint64 { return ms[1].K.Stats.Recognitions },
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			for _, set := range handoffSettings {
				cfg := set.cfg
				cfg.Arch = machine.ArchDS3100
				cfg.DisableCallout = true
				ms := make([]*kern.System, sc.machines)
				for i := range ms {
					ms[i] = kern.New(cfg)
					ms[i].K.DebugChecks = true
				}
				prog, cli := sc.setup(ms)
				kern.NewCluster(ms...).Drive(false)
				if cli.State() != core.StateHalted || prog.done != n {
					t.Errorf("%s: %d of %d operations completed, client %v (%q)",
						set.name, prog.done, n, cli.State(), cli.WaitLabel)
				}
				if f := sc.fast(ms); set.name == "MK40" && f < n {
					t.Errorf("%s: %d handoffs at the site for %d operations", set.name, f, n)
				}
				for i, sys := range ms {
					checkNoResidue(t, set.name, i, sys)
				}
			}
		})
	}
}

// checkNoResidue fails unless machine i's invariants hold and no IPC or
// device state outlives the run: no I/O pending, and every thread holds
// nothing but, for a server still blocked in its receive, that receive's
// registration.
func checkNoResidue(t *testing.T, setting string, i int, sys *kern.System) {
	t.Helper()
	if err := sys.K.Validate(); err != nil {
		t.Errorf("%s: machine %d: %v", setting, i, err)
	}
	if n := sys.Dev.PendingIO(); n != 0 {
		t.Errorf("%s: machine %d: %d device requests pending", setting, i, n)
	}
	for _, th := range sys.K.Threads {
		want := 0
		if th.State() == core.StateWaiting && th.WaitLabel == "mach_msg receive" {
			want = 1
		}
		if got := sys.IPC.Residue(th) + sys.Dev.Residue(th); got != want {
			t.Errorf("%s: machine %d: %v (%v, %q) holds %d IPC/device resources, want %d",
				setting, i, th, th.State(), th.WaitLabel, got, want)
		}
	}
}
